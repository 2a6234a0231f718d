"""Generator-backed invariants shared by the runtime and serializer.

Smaller counts than the acceptance gate so a regression pinpoints fast;
the generator itself is also under test here, since every downstream
property is vacuous if it emits invalid graphs.
"""

import json
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracle
from graphgen import random_graph
from hpcfair._canonical import _YAML_DEPTH
from hpcfair.config import parse_config
from hpcfair.converters import convert_layerdag, convert_sequential
from hpcfair.errors import HpcfairError, InvalidArtifactError
from hpcfair.interchange import (
    GraphNode,
    Tensor,
    compose_graphs,
    parse_graph,
    serialize_graph,
    validate_graph,
)
from hpcfair.registry import ArtifactDraft
from hpcfair.runtime import NamedTensorSet, apply_node, execute, \
    parse_tensor_set
from hpcfair.sandbox import parse_manifest
from hpcfair.server import _split_upload


def run_both_routes(case):
    """Implementation route and oracle route over the same document."""
    g = parse_graph(json.dumps(case.doc).encode())
    feeds = NamedTensorSet.from_tensors([
        Tensor(spec["name"], spec["dtype"], tuple(spec["shape"]),
               tuple(case.feeds[spec["name"]]))
        for spec in case.doc["inputs"]
    ])
    got = execute(g, feeds)
    want = oracle.eval_graph_doc(
        case.doc, {name: list(flat) for name, flat in case.feeds.items()})
    return got, want


def test_generator_emits_valid_graphs():
    rng = random.Random(2024)
    for trial in range(60):
        dtype = ("f32", "f64", "i64")[trial % 3]
        case = random_graph(rng, dtype, str(trial))
        g = parse_graph(json.dumps(case.doc).encode())
        report = validate_graph(g)
        assert report.ok, (trial, report.violations)
        assert 1 <= len(g.nodes) <= 10


def test_exact_dtype_graphs_agree_bitwise_with_the_oracle():
    # f32 cases are budgeted so no rounding occurs; i64 is exact by nature.
    # Any difference at all therefore means a real semantic divergence.
    rng = random.Random(31337)
    for trial in range(40):
        dtype = ("f32", "i64")[trial % 2]
        case = random_graph(rng, dtype, str(trial))
        got, want = run_both_routes(case)
        for name, (shape, flat) in want.items():
            assert got[name].shape == shape, (trial, name)
            assert list(got[name].data) == flat, (trial, name)


def test_transcendental_graphs_agree_within_tolerance():
    rng = random.Random(777)
    for trial in range(40):
        case = random_graph(rng, "f64", str(trial))
        got, want = run_both_routes(case)
        for name, (shape, flat) in want.items():
            assert got[name].shape == shape
            assert oracle.all_close(got[name].data, flat), (trial, name)


def test_generated_documents_round_trip_canonically():
    rng = random.Random(4096)
    for trial in range(30):
        case = random_graph(rng, ("f32", "f64", "i64")[trial % 3],
                            str(trial))
        g = parse_graph(json.dumps(case.doc).encode())
        blob = serialize_graph(g)
        assert parse_graph(blob) == g
        assert serialize_graph(parse_graph(blob)) == blob


def test_distinct_named_pairs_compose_into_valid_graphs():
    # compose_graphs validates only a same-named pair: under distinct
    # prefixes two valid graphs always compose into a valid graph
    rng = random.Random(1586)
    for trial in range(100):
        dtype = ("f32", "f64", "i64")[trial % 3]
        producer, consumer = (
            replace(parse_graph(json.dumps(random_graph(rng, dtype,
                                                        str(trial)).doc)),
                    name=name) for name in ("p", "c"))
        # bind each consumer input to a free producer output of its shape,
        # or else to a new producer output held in an initializer
        free, feeds, binding = list(producer.outputs), [], []
        for t in consumer.inputs:
            src = next((o for o in free if o.shape == t.shape), None)
            if src is None:
                src = Tensor(f"feed:{t.name}", dtype, t.shape,
                             np.zeros(t.numel))
                feeds.append(src)
            else:
                free.remove(src)
            binding.append((src.name, t.name))
        producer = replace(
            producer, initializers=producer.initializers + tuple(feeds),
            outputs=producer.outputs + tuple(Tensor(f.name, dtype, f.shape)
                                             for f in feeds))
        composed = compose_graphs(producer, consumer, binding)
        report = validate_graph(composed)
        assert report.ok, (trial, report.violations)


@given(st.lists(st.floats(min_value=-30, max_value=30), min_size=1,
                max_size=8))
def test_softmax_rows_always_normalize(values):
    node = GraphNode("s", "Softmax", ("x",), ("y",), {"axis": 0})
    (out,) = apply_node(node, [Tensor("x", "f64", (len(values),),
                                      tuple(values))])
    assert abs(sum(out.data) - 1.0) <= 1e-6
    assert all(v >= 0.0 for v in out.data)


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                          width=32), min_size=1, max_size=6))
def test_relu_is_idempotent(values):
    node = GraphNode("r", "Relu", ("x",), ("y",))
    x = Tensor("x", "f32", (len(values),), tuple(values))
    (once,) = apply_node(node, [x])
    (twice,) = apply_node(node, [once.renamed("x")])
    assert once.data.tolist() == twice.data.tolist()


# ---------------------------------------------------------------------------
# artifact upload parsers: any input is a draft or an InvalidArtifactError

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=12), inner, max_size=4),
    max_leaves=12)
DRAFT_KEYS = st.sampled_from(["title", "artifact_type", "backend_tag",
                              "tags", "version", "license", "provenance",
                              "parent_pid", "operation"])
DRAFT_DOCS = st.dictionaries(DRAFT_KEYS, JSON_VALUES | st.lists(
    st.dictionaries(DRAFT_KEYS, JSON_VALUES, max_size=3), max_size=3),
    max_size=7)


def check_draft(draft):
    assert all(isinstance(value, str) for value in (
        draft.title, draft.artifact_type, draft.backend_tag, draft.license))
    assert all(isinstance(tag, str) for tag in draft.tags)
    assert type(draft.version) is int and draft.version >= 1
    assert all(isinstance(parent, str) and isinstance(op, str)
               for parent, op in draft.provenance)


@given(DRAFT_DOCS | st.dictionaries(st.text(max_size=12), JSON_VALUES,
                                    max_size=4))
def test_any_json_object_is_a_typed_draft_or_rejected(doc):
    try:
        draft = ArtifactDraft.from_dict(doc)
    except InvalidArtifactError:
        return
    check_draft(draft)


@given(st.binary(max_size=200)
       | st.builds(lambda doc, content: json.dumps(doc).encode() + b"\n"
                   + content, DRAFT_DOCS, st.binary(max_size=20)))
def test_any_upload_body_splits_or_is_rejected(body):
    try:
        meta, content = _split_upload(body)
        check_draft(ArtifactDraft.from_dict(meta))
    except InvalidArtifactError:
        return
    assert isinstance(meta, dict)
    assert body.endswith(content)


@pytest.mark.parametrize("body", [b"[" * 100_000 + b"\n", b"\xff\n",
                                  b"[1]\n", b"no newline"],
                         ids=["deep", "not-utf8", "not-object", "no-newline"])
def test_malformed_upload_bodies_are_rejected(body):
    with pytest.raises(InvalidArtifactError):
        _split_upload(body)


@pytest.mark.parametrize("parse,code", [
    (parse_graph, "malformed_document"),
    (parse_tensor_set, "malformed_document"),
    pytest.param(lambda doc: convert_sequential(doc, "m", 1),
                 "malformed_document",
                 id="parse_sequential-malformed_document"),
    pytest.param(lambda doc: convert_layerdag(doc, "m", 1),
                 "malformed_document", id="parse_layerdag-malformed_document"),
    (parse_config, "invalid_config"),
    (parse_manifest, "malformed_document"),
], ids=lambda v: getattr(v, "__name__", v))
@pytest.mark.parametrize("doc", [b"[" * 100_000, b'{"a":' * 100_000],
                         ids=["arrays", "objects"])
def test_deeply_nested_documents_are_typed_errors(parse, code, doc):
    with pytest.raises(HpcfairError) as err:
        parse(doc)
    assert err.value.code == code


YAML_PARSERS = pytest.mark.parametrize("parse,what,code", [
    (parse_config, "config document", "invalid_config"),
    (parse_manifest, "manifest", "malformed_document"),
], ids=["parse_config", "parse_manifest"])


@YAML_PARSERS
@pytest.mark.parametrize("doc", [b"[" * 100_000, b"- " * 100_000,
                                 b"{a: " * 100_000],
                         ids=["flow-sequences", "block-sequences",
                              "flow-mappings"])
def test_yaml_nested_past_the_bound_is_rejected_before_loading(parse, what,
                                                               code, doc):
    # libyaml's loader recurses in C: past the bound it must never run
    with pytest.raises(HpcfairError) as err:
        parse(doc)
    assert err.value.code == code
    assert err.value.message == \
        f"malformed {what}: nested deeper than {_YAML_DEPTH}"


@pytest.mark.parametrize("parse,key,checked", [
    (parse_config, "general_args", "section 'general_args' must be an "
                                   "object"),
    (parse_manifest, "build_tag", "manifest: 'build_tag' must be a non-empty "
                                  "string"),
], ids=["parse_config", "parse_manifest"])
@pytest.mark.parametrize("style", ["flow", "block"])
def test_yaml_nesting_bound_is_exact(parse, key, checked, style):
    def nested(depth):  # a mapping whose one key holds depth - 1 lists
        if style == "flow":
            return f"{{{key}: {'[' * (depth - 1)}{']' * (depth - 1)}}}"
        return f"{key}:\n  " + "- " * (depth - 1) + "x"

    with pytest.raises(HpcfairError) as at_bound:
        parse(nested(_YAML_DEPTH))
    assert at_bound.value.message == checked
    with pytest.raises(HpcfairError) as past_bound:
        parse(nested(_YAML_DEPTH + 1))
    assert past_bound.value.message.endswith(
        f": nested deeper than {_YAML_DEPTH}")


@YAML_PARSERS
def test_yaml_text_that_is_not_unicode_is_typed(parse, what, code):
    # bytes that are not UTF-8, and a str that cannot be encoded as UTF-8
    for text in (b"a: \xff", "a: \ud800"):
        with pytest.raises(HpcfairError) as err:
            parse(text)
        assert err.value.code == code
        assert err.value.message.startswith(f"malformed {what}: ")
