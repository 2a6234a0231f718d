"""Graph model: validation, ordering, shapes, serialization, composition."""

import dataclasses
import json
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracle
from hpcfair.errors import (
    CompositionError,
    CycleError,
    HpcfairError,
    InvalidGraphError,
    MalformedDocumentError,
    ShapeMismatchError,
    UnknownOperatorError,
)
from hpcfair.interchange import (
    GraphNode,
    InterchangeGraph,
    Tensor,
    compose_graphs,
    infer_shapes,
    node_output_shapes,
    parse_graph,
    serialize_graph,
    topo_sort,
    validate_graph,
)
from hpcfair.runtime import NamedTensorSet, apply_node, execute


def identity_graph(name="ident", tensor_in="x", tensor_out="y",
                   shape=(1, 2)) -> InterchangeGraph:
    return InterchangeGraph(
        name=name,
        ir_version=1,
        inputs=(Tensor(tensor_in, "f32", shape),),
        outputs=(Tensor(tensor_out, "f32", shape),),
        nodes=(GraphNode("n0", "Identity", (tensor_in,), (tensor_out,)),),
    )


def mlp_graph() -> InterchangeGraph:
    """x:[1,4] -> Linear(4->8) -> Relu -> Linear(8->2)."""
    w1 = Tensor("w1", "f32", (4, 8), tuple(0.25 for _ in range(32)))
    b1 = Tensor("b1", "f32", (1, 8), tuple(0.5 for _ in range(8)))
    w2 = Tensor("w2", "f32", (8, 2), tuple(-0.125 for _ in range(16)))
    b2 = Tensor("b2", "f32", (1, 2), (1.0, -1.0))
    return InterchangeGraph(
        name="mlp",
        ir_version=1,
        inputs=(Tensor("x", "f32", (1, 4)),),
        outputs=(Tensor("out", "f32", (1, 2)),),
        initializers=(w1, b1, w2, b2),
        nodes=(
            GraphNode("l0/matmul", "MatMul", ("x", "w1"), ("l0/mm",)),
            GraphNode("l0/add", "Add", ("l0/mm", "b1"), ("l0/out",)),
            GraphNode("l1/relu", "Relu", ("l0/out",), ("l1/out",)),
            GraphNode("l2/matmul", "MatMul", ("l1/out", "w2"), ("l2/mm",)),
            GraphNode("l2/add", "Add", ("l2/mm", "b2"), ("out",)),
        ),
    )


# ---------------------------------------------------------------------------
# validate_graph


class TestValidate:
    def test_passthrough_output_is_not_produced(self):
        g = InterchangeGraph(
            name="empty", ir_version=1,
            inputs=(Tensor("x", "f32", (1, 2)),),
            outputs=(Tensor("x", "f32", (1, 2)),),
        )
        report = validate_graph(g)
        assert not report.ok
        assert "output x produced by no node or initializer" \
            in report.violations

    def test_duplicate_output_name_is_a_violation(self):
        g = identity_graph()
        report = validate_graph(dataclasses.replace(g, outputs=g.outputs * 2))
        assert not report.ok
        assert report.violations == ("duplicate output name 'y'",)

    def test_minimal_identity_graph_is_valid(self):
        report = validate_graph(identity_graph())
        assert report.ok
        assert report.violations == ()

    def test_double_assignment_names_tensor_and_both_nodes(self):
        g = InterchangeGraph(
            name="dup", ir_version=1,
            inputs=(Tensor("x", "f32", (1, 2)),),
            outputs=(Tensor("h", "f32", (1, 2)),),
            nodes=(
                GraphNode("n1", "Identity", ("x",), ("h",)),
                GraphNode("n2", "Relu", ("x",), ("h",)),
            ),
        )
        report = validate_graph(g)
        assert not report.ok
        offending = [m for m in report.violations if "'h'" in m]
        assert offending, report.violations
        assert "n1" in offending[0] and "n2" in offending[0]

    def test_mlp_is_valid(self):
        assert validate_graph(mlp_graph()).ok

    def test_arity_and_attr_violations(self):
        g = InterchangeGraph(
            name="bad", ir_version=1,
            inputs=(Tensor("x", "f32", (2, 2)),),
            outputs=(Tensor("y", "f32", (2, 2)),),
            nodes=(
                GraphNode("m", "MatMul", ("x",), ("y",)),       # arity 1 != 2
                GraphNode("s", "Softmax", ("x",), ("z",)),      # missing axis
                GraphNode("c", "Concat", ("x",), ("w",), {"axis": 0}),
            ),
        )
        report = validate_graph(g)
        text = "\n".join(report.violations)
        assert "node 'm' (MatMul) expects 2 inputs, has 1" in text
        assert "node 's' (Softmax) is missing required attribute 'axis'" \
            in text
        assert "node 'c' (Concat) expects at least 2 inputs" in text

    def test_ir_version_must_be_positive_int(self):
        g = identity_graph()
        for bad in (0, -1, True, "1"):
            report = validate_graph(
                InterchangeGraph(g.name, bad, g.inputs, g.outputs,
                                 g.initializers, g.nodes))
            assert not report.ok

    def test_consuming_unproduced_tensor(self):
        g = InterchangeGraph(
            name="dangling", ir_version=1,
            inputs=(Tensor("x", "f32", (1, 2)),),
            outputs=(Tensor("y", "f32", (1, 2)),),
            nodes=(GraphNode("n0", "Identity", ("ghost",), ("y",)),),
        )
        report = validate_graph(g)
        assert any("'ghost'" in m and "produced nowhere" in m
                   for m in report.violations)


# ---------------------------------------------------------------------------
# topo_sort


class TestTopoSort:
    def test_chain(self):
        g = InterchangeGraph(
            name="chain", ir_version=1,
            inputs=(Tensor("x", "f32", (1, 1)),),
            outputs=(Tensor("t3", "f32", (1, 1)),),
            nodes=(
                GraphNode("n3", "Identity", ("t2",), ("t3",)),
                GraphNode("n1", "Identity", ("x",), ("t1",)),
                GraphNode("n2", "Identity", ("t1",), ("t2",)),
            ),
        )
        assert topo_sort(g) == ["n1", "n2", "n3"]

    def test_diamond_tie_break_by_id(self):
        g = InterchangeGraph(
            name="diamond", ir_version=1,
            inputs=(Tensor("x", "f32", (1, 1)),),
            outputs=(Tensor("t4", "f32", (1, 1)),),
            nodes=(
                GraphNode("d", "Add", ("t2", "t3"), ("t4",)),
                GraphNode("c", "Identity", ("t1",), ("t3",)),
                GraphNode("b", "Identity", ("t1",), ("t2",)),
                GraphNode("a", "Identity", ("x",), ("t1",)),
            ),
        )
        assert topo_sort(g) == ["a", "b", "c", "d"]

    def test_self_loop_names_the_node(self):
        g = InterchangeGraph(
            name="loop", ir_version=1,
            inputs=(Tensor("x", "f32", (1, 1)),),
            outputs=(Tensor("y", "f32", (1, 1)),),
            nodes=(GraphNode("snake", "Add", ("x", "y"), ("y",)),),
        )
        with pytest.raises(CycleError, match="snake"):
            topo_sort(g)

    def test_two_node_cycle_detected_by_validate(self):
        g = InterchangeGraph(
            name="loop2", ir_version=1,
            inputs=(Tensor("x", "f32", (1, 1)),),
            outputs=(Tensor("a", "f32", (1, 1)),),
            nodes=(
                GraphNode("p", "Add", ("x", "b"), ("a",)),
                GraphNode("q", "Identity", ("a",), ("b",)),
            ),
        )
        report = validate_graph(g)
        assert any("cycle" in m for m in report.violations)

    def test_order_is_a_permutation_respecting_edges(self):
        g = mlp_graph()
        order = topo_sort(g)
        assert sorted(order) == sorted(n.id for n in g.nodes)
        position = {node_id: i for i, node_id in enumerate(order)}
        produced_at = {}
        for node in g.nodes:
            for out in node.outputs:
                produced_at[out] = position[node.id]
        for node in g.nodes:
            for name in node.inputs:
                if name in produced_at:
                    assert produced_at[name] < position[node.id]


# ---------------------------------------------------------------------------
# shapes


class TestShapes:
    def test_matmul_rule(self):
        node = GraphNode("m", "MatMul", ("a", "b"), ("c",))
        assert node_output_shapes(node, [(2, 3), (3, 4)]) == [(2, 4)]

    def test_add_mismatch_names_node(self):
        node = GraphNode("adder", "Add", ("a", "b"), ("c",))
        with pytest.raises(ShapeMismatchError, match="adder"):
            node_output_shapes(node, [(2, 3), (3, 2)])

    def test_concat_and_reshape_rules(self):
        concat = GraphNode("c", "Concat", ("a", "b"), ("o",), {"axis": 1})
        assert node_output_shapes(concat, [(1, 3), (1, 5)]) == [(1, 8)]
        reshape = GraphNode("r", "Reshape", ("a",), ("o",),
                            {"target_shape": (3, 2)})
        assert node_output_shapes(reshape, [(2, 3)]) == [(3, 2)]
        with pytest.raises(ShapeMismatchError, match="'r'"):
            node_output_shapes(reshape, [(2, 2)])

    def test_mlp_output_shape_matches_zero_input_execution(self):
        g = mlp_graph()
        shapes = infer_shapes(g)
        assert shapes["out"] == (1, 2)
        # dual route: actually run the graph on zeros and compare all shapes
        zeros = NamedTensorSet.from_tensors(
            [Tensor("x", "f32", (1, 4), (0.0,) * 4)])
        produced = execute(g, zeros)
        for name in produced.names():
            assert produced[name].shape == shapes[name]

    def test_supplied_input_shape_must_match_declared(self):
        # shapes are inferred from the declared inputs; a supplied input of
        # another shape is refused when the graph runs
        x = Tensor("x", "f32", (1, 5), (0.0,) * 5)
        with pytest.raises(ShapeMismatchError, match="'x'"):
            execute(mlp_graph(), NamedTensorSet.from_tensors([x]))

    @pytest.mark.parametrize("node, match", [
        (GraphNode("n", "Add", ("x", "z"), ("y",)),
         "consumes tensor 'z' which is produced nowhere"),
        (GraphNode("n", "Softmax", ("x",), ("y",)),
         "missing required attribute 'axis'"),
        (GraphNode("n", "Concat", ("x", "x"), ("y",)),
         "missing required attribute 'axis'"),
        (GraphNode("n", "Reshape", ("x",), ("y",)),
         "missing required attribute 'target_shape'"),
        (GraphNode("n", "MatMul", ("x", "x", "x"), ("y",)),
         "expects 2 inputs, has 3"),
        (GraphNode("n", "Relu", ("x",), ("y", "z")),
         "expects 1 outputs, has 2"),
    ], ids=["unknown-input", "softmax", "concat", "reshape", "arity",
            "outputs"])
    def test_graph_the_validator_rejects_is_an_invalid_graph(self, node,
                                                              match):
        g = InterchangeGraph(
            name="g", ir_version=1, inputs=(Tensor("x", "f32", (1, 2)),),
            outputs=(Tensor("y", "f32", (1, 2)),), nodes=(node,))
        assert any(match in v for v in validate_graph(g).violations)
        with pytest.raises(InvalidGraphError, match=match):
            infer_shapes(g)
        if node.inputs == ("x",) * len(node.inputs):
            x = Tensor("x", "f32", (1, 2), (1.0, 2.0))
            with pytest.raises(InvalidGraphError, match=match):
                apply_node(node, [x] * len(node.inputs))


# ---------------------------------------------------------------------------
# serialization


class TestTensorData:
    def test_data_is_a_flat_array_of_the_dtype(self):
        t = Tensor("w", "f32", (2, 2), [[1, 2], [3, 4]])
        assert t.data.dtype == np.float32 and t.data.shape == (4,)
        assert t.data.tolist() == [1.0, 2.0, 3.0, 4.0]

    def test_writing_to_the_data_raises(self):
        t = Tensor("w", "f32", (2,), (1.0, 2.0))
        with pytest.raises(ValueError):
            t.data[0] = 9.0
        assert t.data.tolist() == [1.0, 2.0]

    def test_writing_to_the_source_changes_no_tensor(self):
        source = np.array([[1.0, 2.0], [3.0, 4.0]], np.float32)
        t = Tensor("w", "f32", (2, 2), source)
        source[0, 0] = 9.0
        assert t.data.tolist() == [1.0, 2.0, 3.0, 4.0]
        assert not np.shares_memory(source, t.data)

    def test_equality_is_by_value(self):
        a = Tensor("w", "f32", (2,), (1.0, -0.0))
        assert a == Tensor("w", "f32", (2,), np.array([1.0, 0.0]))
        assert a != Tensor("w", "f32", (2,), (1.0, 1.0))
        assert a != Tensor("w", "f64", (2,), (1.0, -0.0))
        assert a != Tensor("w", "f32", (1, 2), (1.0, -0.0))
        assert a != Tensor("w", "f32", (2,))
        assert Tensor("w", "f32", (2,)) == Tensor("w", "f32", (2,))

    def test_renamed_and_composed_initializers_equal_their_source(self):
        producer = mlp_graph()
        consumer = identity_graph(name="post", shape=(1, 2))
        composed = compose_graphs(producer, consumer, [("out", "x")])
        by_name = {t.name: t for t in composed.initializers}
        for source in producer.initializers:
            renamed = source.renamed("mlp/" + source.name)
            assert by_name[renamed.name] == renamed
            assert renamed.data.tolist() == source.data.tolist()
            assert not renamed.data.flags.writeable

    def test_renamed_shares_the_read_only_data(self):
        t = Tensor("a", "f32", (2,), (1.0, 2.0))
        renamed = t.renamed("b")
        assert np.shares_memory(renamed.data, t.data)
        assert renamed == Tensor("b", "f32", (2,), (1.0, 2.0))
        assert renamed != t and t.name == "a"

    def test_a_length_the_shape_does_not_fit_is_reported_by_validate(self):
        g = InterchangeGraph(
            name="bad", ir_version=1,
            outputs=(Tensor("c", "f32", (2,)),),
            initializers=(Tensor("c", "f32", (2,), (1.0, 2.0, 3.0)),),
        )
        (violation,) = validate_graph(g).violations
        assert "data length 3 does not match shape [2]" in violation

    def test_an_unknown_dtype_with_data_is_reported_by_validate(self):
        g = InterchangeGraph(
            name="bad", ir_version=1,
            outputs=(Tensor("c", "f16", (1,)),),
            initializers=(Tensor("c", "f16", (1,), (1.0,)),),
        )
        assert any("f16" in v for v in validate_graph(g).violations)


class TestSerialization:
    def test_round_trip_identity_graph(self):
        g = identity_graph()
        assert parse_graph(serialize_graph(g)) == g

    def test_insertion_order_does_not_leak_into_bytes(self):
        g = mlp_graph()
        shuffled = InterchangeGraph(
            name=g.name, ir_version=g.ir_version, inputs=g.inputs,
            outputs=g.outputs,
            initializers=tuple(reversed(g.initializers)),
            nodes=tuple(reversed(g.nodes)),
        )
        assert serialize_graph(g) == serialize_graph(shuffled)

    def test_unknown_op_type_rejected(self):
        doc = json.loads(serialize_graph(identity_graph()))
        doc["nodes"][0]["op_type"] = "Conv"
        with pytest.raises(UnknownOperatorError, match="Conv"):
            parse_graph(json.dumps(doc))

    def test_unhashable_op_type_is_malformed(self):
        doc = json.loads(serialize_graph(identity_graph()))
        doc["nodes"][0]["op_type"] = [1]
        with pytest.raises(MalformedDocumentError, match="'op_type'") as err:
            parse_graph(json.dumps(doc))
        assert err.value.code == "malformed_document"

    def test_numeric_op_type_is_an_unknown_operator(self):
        doc = json.loads(serialize_graph(identity_graph()))
        doc["nodes"][0]["op_type"] = 5
        with pytest.raises(UnknownOperatorError, match="'5'"):
            parse_graph(json.dumps(doc))

    def test_missing_ir_version_rejected(self):
        doc = json.loads(serialize_graph(identity_graph()))
        del doc["ir_version"]
        with pytest.raises(MalformedDocumentError,
                           match="missing 'ir_version'"):
            parse_graph(json.dumps(doc))

    def test_unknown_graph_key_rejected(self):
        doc = json.loads(serialize_graph(identity_graph()))
        doc["opset"] = 13
        with pytest.raises(MalformedDocumentError, match="opset"):
            parse_graph(json.dumps(doc))

    def test_malformed_bytes_rejected(self):
        with pytest.raises(MalformedDocumentError):
            parse_graph(b"{not json")

    def test_i64_data_must_be_integers(self):
        doc = {
            "name": "ints", "ir_version": 1,
            "inputs": [], "outputs": [{"name": "c", "dtype": "i64",
                                       "shape": [2]}],
            "initializers": [{"name": "c", "dtype": "i64", "shape": [2],
                              "data": [1, 2.5]}],
            "nodes": [], "doc": None,
        }
        with pytest.raises(MalformedDocumentError, match="i64"):
            parse_graph(json.dumps(doc))

    def test_f32_data_is_quantized_at_parse(self):
        value = 0.1  # not representable exactly in f32
        doc = {
            "name": "q", "ir_version": 1,
            "inputs": [], "outputs": [{"name": "c", "dtype": "f32",
                                       "shape": [1]}],
            "initializers": [{"name": "c", "dtype": "f32", "shape": [1],
                              "data": [value]}],
            "nodes": [], "doc": None,
        }
        g = parse_graph(json.dumps(doc))
        assert g.initializers[0].data.tolist()[0] == oracle.f32(value)
        assert g.initializers[0].data.tolist()[0] != value

    @pytest.mark.parametrize("dtype,value", [
        ("f32", "1e39"), ("f32", "NaN"), ("f64", "Infinity"), ("f64", "NaN")])
    def test_non_finite_initializer_rejected(self, dtype, value):
        doc = ('{"name": "n", "ir_version": 1, "inputs": [], "outputs": '
               f'[{{"name": "c", "dtype": "{dtype}", "shape": [1]}}], '
               f'"initializers": [{{"name": "c", "dtype": "{dtype}", '
               f'"shape": [1], "data": [{value}]}}], "nodes": [], '
               '"doc": null}')
        with pytest.raises(MalformedDocumentError, match="not a finite"):
            parse_graph(doc)

    @given(st.floats(allow_nan=False, allow_infinity=False, width=32))
    def test_any_f32_value_survives_the_byte_round_trip(self, value):
        g = InterchangeGraph(
            name="one", ir_version=1,
            inputs=(),
            outputs=(Tensor("c", "f32", (1,)),),
            initializers=(Tensor("c", "f32", (1,), (value,)),),
        )
        parsed = parse_graph(serialize_graph(g))
        assert parsed.initializers[0].data.tolist()[0] == oracle.f32(value)


# ---------------------------------------------------------------------------
# composition


class TestCompose:
    def test_identity_composed_with_identity_is_identity(self):
        a = identity_graph(name="a")
        b = identity_graph(name="b")
        composed = compose_graphs(a, b, [("y", "x")])
        assert composed.name == "a+b"
        assert validate_graph(composed).ok
        x = Tensor("a/x", "f32", (1, 2), (3.0, -4.5))
        out = execute(composed, NamedTensorSet.from_tensors([x]))
        (only,) = out.names()
        assert out[only].data.tolist() == x.data.tolist()

    def test_composition_equals_chained_execution_bit_for_bit(self):
        producer = mlp_graph()
        consumer = identity_graph(name="post", shape=(1, 2))
        composed = compose_graphs(producer, consumer, [("out", "x")])

        x = (0.5, -1.25, 2.0, 0.0)
        direct = execute(producer, NamedTensorSet.from_tensors(
            [Tensor("x", "f32", (1, 4), x)]))
        chained = execute(consumer, NamedTensorSet.from_tensors(
            [Tensor("x", "f32", (1, 2), direct["out"].data)]))
        fused = execute(composed, NamedTensorSet.from_tensors(
            [Tensor("mlp/x", "f32", (1, 4), x)]))
        assert fused["post/y"].data.tolist() == chained["y"].data.tolist()

    def test_prefixing_and_result_interface(self):
        producer = mlp_graph()
        consumer = identity_graph(name="next", shape=(1, 2))
        composed = compose_graphs(producer, consumer, [("out", "x")])
        assert [t.name for t in composed.inputs] == ["mlp/x"]
        assert [t.name for t in composed.outputs] == ["next/y"]
        assert all(n.id.startswith(("mlp/", "next/")) for n in composed.nodes)
        assert composed.ir_version == max(producer.ir_version,
                                          consumer.ir_version)

    def test_shape_incompatibility_rejected(self):
        eight_wide = InterchangeGraph(
            name="enc", ir_version=1,
            inputs=(Tensor("x", "f32", (1, 8)),),
            outputs=(Tensor("z", "f32", (1, 8)),),
            nodes=(GraphNode("n0", "Identity", ("x",), ("z",)),),
        )
        four_wide = identity_graph(name="dec", shape=(1, 4))
        with pytest.raises(CompositionError, match="shape mismatch"):
            compose_graphs(eight_wide, four_wide, [("z", "x")])

    def test_binding_must_cover_every_consumer_input(self):
        producer = identity_graph(name="p")
        consumer = InterchangeGraph(
            name="c", ir_version=1,
            inputs=(Tensor("u", "f32", (1, 2)), Tensor("v", "f32", (1, 2))),
            outputs=(Tensor("s", "f32", (1, 2)),),
            nodes=(GraphNode("n0", "Add", ("u", "v"), ("s",)),),
        )
        with pytest.raises(CompositionError, match="does not cover"):
            compose_graphs(producer, consumer, [("y", "u")])

    def test_slash_in_graph_name_rejected(self):
        bad = identity_graph(name="a/b")
        with pytest.raises(CompositionError, match="'/'"):
            compose_graphs(bad, identity_graph(name="c"), [("y", "x")])

    def test_unbound_producer_outputs_stay_exposed(self):
        producer = InterchangeGraph(
            name="two", ir_version=1,
            inputs=(Tensor("x", "f32", (1, 2)),),
            outputs=(Tensor("y1", "f32", (1, 2)),
                     Tensor("y2", "f32", (1, 2))),
            nodes=(
                GraphNode("n1", "Identity", ("x",), ("y1",)),
                GraphNode("n2", "Relu", ("x",), ("y2",)),
            ),
        )
        consumer = identity_graph(name="sink")
        composed = compose_graphs(producer, consumer, [("y1", "x")])
        assert [t.name for t in composed.outputs] == ["sink/y", "two/y2"]
        assert validate_graph(composed).ok

    def test_same_named_pair_with_clashing_node_ids_is_rejected(self):
        with pytest.raises(CompositionError,
                           match="invalid graph: duplicate node id 'a/n0'"):
            compose_graphs(identity_graph(name="a"), identity_graph(name="a"),
                           [("y", "x")])

    def test_same_named_pair_with_disjoint_names_composes(self):
        producer = identity_graph(name="a")
        consumer = InterchangeGraph(
            name="a", ir_version=1,
            inputs=(Tensor("u", "f32", (1, 2)),),
            outputs=(Tensor("v", "f32", (1, 2)),),
            nodes=(GraphNode("m0", "Relu", ("u",), ("v",)),),
        )
        composed = compose_graphs(producer, consumer, [("y", "u")])
        assert validate_graph(composed).ok
        x = Tensor("a/x", "f32", (1, 2), (3.0, -4.5))
        out = execute(composed, NamedTensorSet.from_tensors([x]))
        assert out["a/v"].data.tolist() == [3.0, 0.0]

    def test_random_compositions_stay_valid(self):
        rng = random.Random(7)
        for trial in range(10):
            width = rng.randint(1, 4)
            producer = identity_graph(name=f"p{trial}", shape=(1, width))
            consumer = identity_graph(name=f"c{trial}", shape=(1, width))
            composed = compose_graphs(producer, consumer, [("y", "x")])
            assert validate_graph(composed).ok


# ---------------------------------------------------------------------------
# one fault per graph, as each entry point reports it


def faulty(second, outputs=(Tensor("y", "f32", (1, 2)),), initializers=()):
    """x -> n0 Relu -> h -> ``second`` -> y, where ``second`` (or the other
    arguments) carries at most one fault."""
    return InterchangeGraph(
        name="g", ir_version=1, inputs=(Tensor("x", "f32", (1, 2)),),
        outputs=outputs, initializers=initializers,
        nodes=(GraphNode("n0", "Relu", ("x",), ("h",)), second))


def structural(violation, code="invalid_graph"):
    """How each entry point reports a fault ``validate_graph`` names."""
    return {
        "infer_shapes": (code, violation),
        "execute": ("invalid_graph", "cannot execute invalid graph: "
                    + violation),
        "producer": ("composition_error",
                     f"producer graph 'g' is invalid: {violation}"),
        "consumer": ("composition_error",
                     f"consumer graph 'g' is invalid: {violation}"),
    }


NODE_SHAPE = ("shape_mismatch", "node 'n1' (Add): expected equal shapes "
              "(no broadcasting), got [[1, 2], [1, 3]]")
OUTPUT_SHAPE = ("shape_mismatch", "output 'y': declared shape [2, 1] does "
                "not match inferred [1, 2]")

# name: (graph, {entry point: (code, message), or None where accepted})
FAULT_TABLE = {
    "none": (faulty(GraphNode("n1", "Identity", ("h",), ("y",))),
             dict.fromkeys(("infer_shapes", "execute", "producer",
                            "consumer"))),
    "unproduced": (faulty(GraphNode("n1", "Identity", ("ghost",), ("y",))),
                   structural("node 'n1' consumes tensor 'ghost' which is "
                              "produced nowhere in the graph")),
    "missing-attribute": (faulty(GraphNode("n1", "Softmax", ("h",), ("y",))),
                          structural("node 'n1' (Softmax) is missing "
                                     "required attribute 'axis'")),
    "arity": (faulty(GraphNode("n1", "Add", ("h",), ("y",))),
              structural("node 'n1' (Add) expects 2 inputs, has 1")),
    "duplicate-node-id": (faulty(GraphNode("n0", "Identity", ("h",), ("y",))),
                          structural("duplicate node id 'n0'")),
    "duplicate-output": (faulty(GraphNode("n1", "Identity", ("h",), ("y",)),
                                outputs=(Tensor("y", "f32", (1, 2)),) * 2),
                         structural("duplicate output name 'y'")),
    "cycle": (InterchangeGraph(
        name="g", ir_version=1, inputs=(Tensor("x", "f32", (1, 2)),),
        outputs=(Tensor("y", "f32", (1, 2)),),
        nodes=(GraphNode("n0", "Relu", ("y",), ("h",)),
               GraphNode("n1", "Identity", ("h",), ("y",)))),
        structural("cycle detected involving node 'n0'", code="graph_cycle")),
    "node-shape": (faulty(GraphNode("n1", "Add", ("h", "b"), ("y",)),
                          initializers=(Tensor("b", "f32", (1, 3),
                                               (1.0, 2.0, 3.0)),)),
                   {"infer_shapes": NODE_SHAPE, "execute": NODE_SHAPE,
                    "producer": NODE_SHAPE, "consumer": None}),
    "declared-output-shape": (
        faulty(GraphNode("n1", "Identity", ("h",), ("y",)),
               outputs=(Tensor("y", "f32", (2, 1)),)),
        {"infer_shapes": OUTPUT_SHAPE, "execute": OUTPUT_SHAPE,
         "producer": OUTPUT_SHAPE, "consumer": None}),
    "mixed-dtypes": (faulty(GraphNode("n1", "Add", ("h", "b"), ("y",)),
                            initializers=(Tensor("b", "i64", (1, 2),
                                                 (1, 2)),)),
                     {"infer_shapes": None,
                      "execute": ("execution_error",
                                  "node 'n1': mixed input dtypes f32 and i64"),
                      "producer": None, "consumer": None}),
}

ENTRY_POINTS = {
    "infer_shapes": infer_shapes,
    "execute": lambda g: execute(g, NamedTensorSet.from_tensors(
        [Tensor("x", "f32", (1, 2), (1.0, -2.0))])),
    "producer": lambda g: compose_graphs(g, identity_graph(name="c"),
                                         [("y", "x")]),
    "consumer": lambda g: compose_graphs(identity_graph(name="p"), g,
                                         [("y", "x")]),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("fault", FAULT_TABLE)
def test_a_single_fault_is_reported_alike(fault, entry):
    graph, expected = FAULT_TABLE[fault]
    if expected[entry] is None:
        ENTRY_POINTS[entry](graph)
        return
    with pytest.raises(HpcfairError) as err:
        ENTRY_POINTS[entry](graph)
    assert (err.value.code, str(err.value)) == expected[entry]


# ---------------------------------------------------------------------------
# cross-checks against the naive oracle


def test_mlp_execution_matches_document_oracle():
    g = mlp_graph()
    doc = json.loads(serialize_graph(g))
    x = [0.75, -0.5, 1.0, 0.25]
    got = execute(g, NamedTensorSet.from_tensors(
        [Tensor("x", "f32", (1, 4), tuple(x))]))
    want = oracle.eval_graph_doc(doc, {"x": x})
    shape, flat = want["out"]
    assert got["out"].shape == shape
    assert oracle.all_close(got["out"].data, flat)
