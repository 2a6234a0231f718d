"""Every document parser returns or raises a typed HpcfairError.

Inputs are random JSON and YAML values, and valid documents with one
field at any depth replaced, deleted or added.  A parser that lets any
other exception escape reports it to a remote caller as internal_error.
Checkpoints are read by converting them, and a checkpoint that converts
must also pass ``runtime.prepare``: both make one check of structure and
shapes.
Task configs go further: every declared task argument may be of the wrong
kind, and the task they describe must still fail with a typed error.
YAML documents that are well formed read the same through libyaml as
through PyYAML's pure-Python loader, which is also fuzzed on its own: it is
the loader used where PyYAML was built without libyaml.
"""

import json

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from hpcfair import _canonical
from hpcfair.config import load_config, parse_config, serialize_config, \
    validate_config
from hpcfair.converters import convert_checkpoint_bytes, convert_layerdag, \
    convert_sequential
from hpcfair.errors import HpcfairError, MalformedDocumentError
from hpcfair.interchange import parse_graph
from hpcfair.registry import ArtifactDraft
from hpcfair.runtime import parse_tensor_set, prepare, to_array
from hpcfair.sandbox import parse_manifest
from hpcfair.server import _parse_search
from hpcfair.tasks import Dispatcher

from conftest import build_demo_workspace

FUZZ = settings(max_examples=60, deadline=None)

SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
           | st.text(max_size=8))
# numbers at and past the edge of every dtype: integers of 309 or more
# digits (beyond f32, and from about 1.8e308 beyond every float), just
# outside i64, and the NaN and Infinity literals json.dumps writes
EDGE_NUMBERS = (st.integers(min_value=10 ** 308, max_value=10 ** 400)
                | st.integers(min_value=-10 ** 400, max_value=-10 ** 308)
                | st.sampled_from([-2 ** 63 - 1, 2 ** 63, float("nan"),
                                   float("inf"), float("-inf")]))
JSON_VALUES = st.recursive(
    SCALARS | EDGE_NUMBERS, lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8)
# what YAML adds to JSON: dates, binary and keys that are not strings
YAML_KEYS = st.text(max_size=8) | st.integers() | st.booleans() | st.none()
YAML_VALUES = st.recursive(
    SCALARS | st.dates() | st.datetimes() | st.binary(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(YAML_KEYS, inner, max_size=3),
    max_leaves=8)

GRAPH = {
    "name": "g", "ir_version": 1,
    "inputs": [{"name": "x", "dtype": "f32", "shape": [1, 2]}],
    "outputs": [{"name": "y", "dtype": "f32", "shape": [2, 2]}],
    "initializers": [{"name": "w", "dtype": "f32", "shape": [2, 2],
                      "data": [1.0, 0.0, 0.0, 1.0]}],
    "nodes": [
        {"id": "mm", "op_type": "MatMul", "inputs": ["x", "w"],
         "outputs": ["h"], "attributes": {}},
        {"id": "sm", "op_type": "Softmax", "inputs": ["h"],
         "outputs": ["s"], "attributes": {"axis": 1}},
        {"id": "cat", "op_type": "Concat", "inputs": ["h", "s"],
         "outputs": ["c"], "attributes": {"axis": 0}},
        {"id": "rs", "op_type": "Reshape", "inputs": ["c"],
         "outputs": ["y"], "attributes": {"target_shape": [2, 2]}},
    ],
    "doc": "fuzz seed",
}
TENSORS = [{"name": "x", "dtype": "f32", "shape": [1, 2], "data": [1, 2.5]},
           {"name": "n", "dtype": "i64", "shape": [], "data": [3]}]
SEQUENTIAL = {"format_tag": "pt-ckpt-v1", "layers": [
    {"kind": "linear", "weight": [[1, 0], [0, 1]], "bias": [0, 1]},
    {"kind": "relu"}, {"kind": "softmax", "axis": 1}]}
LAYERDAG = {
    "format_tag": "tf-ckpt-v1",
    "inputs": [{"name": "x", "shape": [1, 2]}],
    "nodes": {
        "d": {"op": "dense", "inbound": ["x"],
              "params": {"kernel": [[1, 0], [0, 1]], "bias": [0, 1]}},
        "s": {"op": "softmax", "inbound": ["d"], "attrs": {"axis": 1}},
        "c": {"op": "concat", "inbound": ["d", "s"], "attrs": {"axis": 1}},
    },
    "outputs": ["c"],
}
MANIFEST = {"build_tag": "m:1", "entrypoint": "python run.py --seed 1",
            "env": {"MODE": "fast"}, "inputs": ["data/in.txt"],
            "outputs": ["out/result.txt"], "volume": "/app"}
CONFIG = {
    "general_args": {"task": "conversion", "backend": ["pt", "tf"]},
    "device_args": {"worker_num": 2, "device": "cpu"},
    "model_args": {"model_name": ["a", "b"], "model_file": ["a.ckpt", "b"],
                   "onnx_version": 3},
    "out_args": {"export_file": ["a.onnx", "b.onnx"]},
}
DRAFT = {"title": "T", "artifact_type": "model", "backend_tag": "pt",
         "tags": ["nlp"], "version": 2, "license": "mit",
         "provenance": [{"parent_pid": "hpcf-1",
                         "operation": "derived-from"}]}


def containers(doc, path=()):
    """Paths of every list and object in ``doc``, the root included."""
    if isinstance(doc, (dict, list)):
        yield path
        items = doc.items() if isinstance(doc, dict) else enumerate(doc)
        for key, value in items:
            yield from containers(value, path + (key,))


@st.composite
def mutated(draw, seed, values, keys=st.text(max_size=8)):
    """``seed`` with one child of one container replaced, deleted or
    added; new values are drawn from ``values`` and new keys from
    ``keys``."""
    doc = json.loads(json.dumps(seed))
    path = draw(st.sampled_from(list(containers(doc))))
    node = doc
    for key in path:
        node = node[key]
    children = list(node) if isinstance(node, dict) else \
        list(range(len(node)))
    action = draw(st.sampled_from(["replace", "delete", "add"]
                                  if children else ["add"]))
    if action == "add":
        if isinstance(node, dict):
            node[draw(keys)] = draw(values)
        else:
            node.append(draw(values))
    elif action == "delete":
        del node[draw(st.sampled_from(children))]
    else:
        node[draw(st.sampled_from(children))] = draw(values)
    return doc


def number_paths(doc, path=()):
    """Paths of every number in ``doc``."""
    if isinstance(doc, (dict, list)):
        items = doc.items() if isinstance(doc, dict) else enumerate(doc)
        for key, value in items:
            yield from number_paths(value, path + (key,))
    elif type(doc) in (int, float):
        yield path


@st.composite
def renumbered(draw, seed, numbers=EDGE_NUMBERS):
    """``seed`` with one of its numbers replaced by one of ``numbers``."""
    doc = json.loads(json.dumps(seed))
    *path, last = draw(st.sampled_from(list(number_paths(doc))))
    node = doc
    for key in path:
        node = node[key]
    node[last] = draw(numbers)
    return doc


def typed(call, *args):
    """The call's result, or None for a typed error; any other escapes."""
    try:
        return call(*args)
    except HpcfairError:
        return None


def json_inputs(seed):
    return st.one_of(
        st.builds(json.dumps, JSON_VALUES),
        st.builds(json.dumps, mutated(seed, JSON_VALUES)),
        st.builds(json.dumps, renumbered(seed)),
        st.binary(max_size=40))


def yaml_inputs(seed):
    return st.one_of(
        st.builds(yaml.safe_dump, YAML_VALUES),
        st.builds(yaml.safe_dump, mutated(seed, YAML_VALUES, YAML_KEYS)),
        st.text(max_size=40), st.binary(max_size=40))


@FUZZ
@given(json_inputs(GRAPH))
def test_parse_graph_raises_only_typed_errors(data):
    graph = typed(parse_graph, data)
    if graph is not None:  # what parses also runs: data fits its dtype
        for tensor in graph.initializers:
            to_array(tensor)


@FUZZ
@given(json_inputs(TENSORS))
def test_parse_tensor_set_raises_only_typed_errors(data):
    tensors = typed(parse_tensor_set, data)
    if tensors is not None:
        for name in tensors.names():
            to_array(tensors[name])


@FUZZ
@given(json_inputs(SEQUENTIAL))
def test_parse_sequential_raises_only_typed_errors(data):
    typed(convert_sequential, data, "m", 1)


@FUZZ
@given(json_inputs(LAYERDAG))
def test_parse_layerdag_raises_only_typed_errors(data):
    typed(convert_layerdag, data, "m", 1)


# what a checkpoint's structure is made of: small axes and widths, and the
# names the seeds use
PARTS = (st.integers(-1, 2) | st.sampled_from(["x", "d", "s", "c"])
         | st.lists(st.sampled_from(["x", "d", "s", "c"]), min_size=1,
                    max_size=3))


@pytest.mark.parametrize("backend,seed", [("pt", SEQUENTIAL),
                                          ("tf", LAYERDAG)], ids=["pt", "tf"])
@FUZZ
@given(data=st.data())
def test_converted_checkpoints_are_prepared(backend, seed, data):
    # what converts also runs: the converters and the runtime share one
    # check of structure and shapes
    doc = data.draw(mutated(seed, PARTS)
                    | renumbered(seed, st.integers(-1, 2)))
    graph = typed(convert_checkpoint_bytes, backend, json.dumps(doc), "m", 1)
    if graph is not None:
        prepare(graph)


@FUZZ
@given(yaml_inputs(MANIFEST))
def test_parse_manifest_raises_only_typed_errors(data):
    typed(parse_manifest, data)


@FUZZ
@given(yaml_inputs(CONFIG))
def test_parsed_configs_validate_and_serialize(data):
    cfg = typed(parse_config, data)
    if cfg is not None:
        validate_config(cfg)
        assert serialize_config(cfg) == serialize_config(cfg)


@FUZZ
@given(JSON_VALUES | mutated(DRAFT, JSON_VALUES))
def test_artifact_metadata_raises_only_typed_errors(doc):
    typed(ArtifactDraft.from_dict, doc)


@FUZZ
@given(st.text(max_size=40)
       | st.from_regex(r"\A((tags|type|backend|title)=[^&]*&?)*\Z"))
def test_search_queries_raise_only_typed_errors(query):
    typed(_parse_search, query)


ABSENT = object()
# a task argument's value: absent, of every wrong kind, or valid
TASK_ARG_VALUES = [ABSENT, None, "", [], 5, True, [5], ["a", 5], "a\0b"]
# each task's demo config and the task arguments it declares
TASKS = {"conversion": ("conversion.yaml",
                        ["model_name", "model_file", "onnx_version"]),
         "inference": ("collaboration.yaml",
                       ["model_file", "input", "onnx_version"]),
         "container": ("container.yaml",
                       ["work_dir", "build_file", "build_tag", "volume",
                        "onnx_version"])}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    ws = build_demo_workspace(tmp_path_factory.mktemp("fuzz"))
    converted = Dispatcher().dispatch(load_config(ws.conversion_cfg))
    assert converted.status == "succeeded"
    return ws.root


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_task_configs_fail_only_with_typed_errors(workspace, data):
    task = data.draw(st.sampled_from(sorted(TASKS)))
    name, keys = TASKS[task]
    doc = yaml.safe_load((workspace / name).read_text())
    section = doc["model_args" if "model_args" in doc else "task_args"]
    for key in keys:
        value = data.draw(st.sampled_from(
            TASK_ARG_VALUES + [section.get(key, ABSENT)]), label=key)
        section.pop(key, None)
        if value is not ABSENT:
            section[key] = value
    doc["general_args"]["task"] = data.draw(
        st.sampled_from([task, [task, "container"]]), label="task")
    cfg = parse_config(yaml.safe_dump(doc), base_dir=workspace)
    report = validate_config(cfg)
    result = Dispatcher().dispatch(cfg)
    assert result.status == "succeeded" or \
        result.error["code"] != "internal_error", result.error
    assert report.ok or result.error["code"] == "invalid_config"


TEXT = st.text(max_size=8)
# values a section key may hold: a scalar or a flat list (NaN is not equal
# to itself, so it is left out of an equality test)
VALUE = st.none() | st.booleans() | st.integers() \
    | st.floats(allow_nan=False) | TEXT
SECTION = st.dictionaries(TEXT, VALUE | st.lists(VALUE, max_size=3),
                          max_size=4)
CONFIG_DOCS = st.fixed_dictionaries(
    {"general_args": st.fixed_dictionaries(
        {"task": st.sampled_from(["conversion", "inference", "container"])},
        optional={"tag": TEXT, "backend": TEXT | st.lists(TEXT, max_size=3)}),
     "out_args": SECTION},
    optional={"device_args": st.fixed_dictionaries(
        {}, optional={"worker_num": st.integers(1, 64),
                      "device": st.sampled_from(["cpu", "gpu"])}),
        "task_args": SECTION, "model_args": SECTION})
MANIFEST_DOCS = st.fixed_dictionaries(
    {"build_tag": st.text(min_size=1, max_size=8),
     "entrypoint": TEXT | st.lists(TEXT, min_size=1, max_size=3),
     "volume": st.builds("/{}".format, TEXT)},
    optional={"env": st.dictionaries(TEXT, TEXT, max_size=3),
              "inputs": st.lists(TEXT, max_size=3),
              "outputs": st.lists(TEXT, max_size=3)})


@FUZZ
@given(st.builds(yaml.safe_dump, CONFIG_DOCS | MANIFEST_DOCS,
                 default_flow_style=st.booleans(),
                 allow_unicode=st.booleans()))
def test_loads_yaml_reads_documents_as_the_pure_loader_does(text):
    assert _canonical.loads_yaml(text.encode("utf-8"), "document",
                                 MalformedDocumentError) \
        == yaml.load(text, Loader=yaml.SafeLoader)


def test_pure_loader_raises_only_typed_errors(monkeypatch):
    monkeypatch.setattr(_canonical, "_YAML", yaml.SafeLoader)
    test_parse_manifest_raises_only_typed_errors()
    test_parsed_configs_validate_and_serialize()


def test_seeds_are_valid_documents():
    assert parse_graph(json.dumps(GRAPH)).name == "g"
    assert parse_tensor_set(json.dumps(TENSORS)).names() == ["n", "x"]
    pt = convert_sequential(json.dumps(SEQUENTIAL), "pt", 1)
    assert [n.id for n in pt.nodes] == ["layer0/add", "layer0/matmul",
                                        "layer1/relu", "layer2/softmax"]
    assert [(t.name, t.shape) for t in pt.outputs] == [("layer2/out", (1, 2))]
    tf = convert_layerdag(json.dumps(LAYERDAG), "tf", 1)
    assert [n.id for n in tf.nodes] == ["c", "d/add", "d/matmul", "s"]
    assert [(t.name, t.shape) for t in tf.outputs] == [("c", (1, 4))]
    assert parse_manifest(yaml.safe_dump(MANIFEST)).volume == "/app"
    assert validate_config(parse_config(yaml.safe_dump(CONFIG))).ok
    assert ArtifactDraft.from_dict(DRAFT).version == 2
