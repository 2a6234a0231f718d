"""Kernel semantics, graph execution, and the inference task."""

import dataclasses
import json
import logging
import textwrap

import numpy as np
import pytest

import oracle
from hpcfair import interchange
from hpcfair.config import load_config, parse_config
from hpcfair.converters import convert_checkpoint_bytes, run_conversion_task
from hpcfair.errors import (
    ConfigError,
    ExecutionError,
    InvalidGraphError,
    MalformedDocumentError,
    MissingTensorError,
    ShapeMismatchError,
    UnknownOperatorError,
)
from hpcfair.interchange import (
    OPERATORS,
    GraphNode,
    InterchangeGraph,
    Tensor,
    parse_graph,
    serialize_graph,
)
from hpcfair.runtime import (
    NamedTensorSet,
    apply_node,
    execute,
    parse_tensor_set,
    prepare,
    run_inference_task,
    serialize_tensor_set,
    to_array,
)
from hpcfair.tasks import Dispatcher


def t(name, shape, data, dtype="f32"):
    return Tensor(name, dtype, tuple(shape), tuple(data))


# ---------------------------------------------------------------------------
# apply_node


class TestApplyNode:
    def test_relu(self):
        node = GraphNode("n", "Relu", ("x",), ("y",))
        (out,) = apply_node(node, [t("x", (3,), (-1.0, 0.0, 2.0))])
        assert out.data.tolist() == [0.0, 0.0, 2.0]

    def test_matmul_by_identity(self):
        node = GraphNode("n", "MatMul", ("a", "b"), ("c",))
        (out,) = apply_node(node, [
            t("a", (2, 2), (1.0, 2.0, 3.0, 4.0)),
            t("b", (2, 2), (1.0, 0.0, 0.0, 1.0)),
        ])
        assert out.data.tolist() == [1.0, 2.0, 3.0, 4.0]
        assert out.shape == (2, 2)

    def test_softmax_of_equal_logits(self):
        node = GraphNode("n", "Softmax", ("x",), ("y",), {"axis": 0})
        (out,) = apply_node(node, [t("x", (2,), (0.0, 0.0))])
        assert out.data.tolist() == [0.5, 0.5]

    def test_concat_rows(self):
        node = GraphNode("n", "Concat", ("a", "b"), ("c",), {"axis": 0})
        (out,) = apply_node(node, [
            t("a", (1, 2), (1.0, 2.0)),
            t("b", (2, 2), (3.0, 4.0, 5.0, 6.0)),
        ])
        assert out.shape == (3, 2)
        assert out.data.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]

    def test_reshape_keeps_flat_data(self):
        node = GraphNode("n", "Reshape", ("x",), ("y",),
                         {"target_shape": (3, 2)})
        (out,) = apply_node(node, [t("x", (2, 3), (1.0, 2.0, 3.0,
                                                   4.0, 5.0, 6.0))])
        assert out.shape == (3, 2)
        assert out.data.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]

    @pytest.mark.parametrize("op,attrs", [
        ("Sigmoid", {}), ("Tanh", {}), ("Softmax", {"axis": 0})])
    def test_float_only_op_rejects_i64(self, op, attrs):
        node = GraphNode("n", op, ("x",), ("y",), attrs)
        with pytest.raises(ExecutionError, match="requires a floating dtype"):
            apply_node(node, [t("x", (2,), (1, 2), dtype="i64")])

    def test_unknown_op_is_typed(self):
        node = GraphNode("n", "Gelu", ("x",), ("y",))
        with pytest.raises(UnknownOperatorError, match="Gelu"):
            apply_node(node, [t("x", (1,), (1.0,))])

    def test_i64_add_stays_integer(self):
        node = GraphNode("n", "Add", ("a", "b"), ("c",))
        (out,) = apply_node(node, [
            t("a", (2,), (1, 2), dtype="i64"),
            t("b", (2,), (10, -2), dtype="i64"),
        ])
        assert out.data.tolist() == [11, 0]
        assert all(isinstance(v, int) for v in out.data.tolist())


def test_every_operator_has_a_shape_rule_and_a_kernel():
    assert len(OPERATORS) == 9
    for name, spec in OPERATORS.items():
        assert callable(spec.shape_rule), name
        assert callable(spec.kernel), name


# ---------------------------------------------------------------------------
# execute


def linear_graph() -> InterchangeGraph:
    """y = x . W^T + b with W = [[1,2],[3,4]], b = 0."""
    wt = Tensor("wt", "f32", (2, 2), (1.0, 3.0, 2.0, 4.0))  # W transposed
    b = Tensor("b", "f32", (1, 2), (0.0, 0.0))
    return InterchangeGraph(
        name="lin", ir_version=1,
        inputs=(Tensor("x", "f32", (1, 2)),),
        outputs=(Tensor("y", "f32", (1, 2)),),
        initializers=(wt, b),
        nodes=(
            GraphNode("mm", "MatMul", ("x", "wt"), ("h",)),
            GraphNode("add", "Add", ("h", "b"), ("y",)),
        ),
    )


class TestExecute:
    def test_identity_graph_returns_input_unchanged(self):
        g = InterchangeGraph(
            name="id", ir_version=1,
            inputs=(Tensor("x", "f32", (2, 2)),),
            outputs=(Tensor("y", "f32", (2, 2)),),
            nodes=(GraphNode("n", "Identity", ("x",), ("y",)),),
        )
        x = t("x", (2, 2), (1.5, -2.0, 0.0, 7.25))
        out = execute(g, NamedTensorSet.from_tensors([x]))
        assert out["y"].data.tolist() == x.data.tolist()

    def test_linear_layer_value(self):
        out = execute(linear_graph(), NamedTensorSet.from_tensors(
            [t("x", (1, 2), (1.0, 0.0))]))
        assert out["y"].data.tolist() == [1.0, 3.0]

    def test_returns_exactly_declared_outputs(self):
        out = execute(linear_graph(), NamedTensorSet.from_tensors(
            [t("x", (1, 2), (1.0, 1.0))]))
        assert out.names() == ["y"]

    def test_missing_input_is_reported(self):
        with pytest.raises(MissingTensorError, match="'x'"):
            execute(linear_graph(), NamedTensorSet.from_tensors([]))

    def test_wrong_input_shape_is_reported(self):
        with pytest.raises(Exception, match="'x'"):
            execute(linear_graph(), NamedTensorSet.from_tensors(
                [t("x", (2, 2), (1.0, 0.0, 0.0, 1.0))]))

    def test_execution_is_deterministic(self):
        x = t("x", (1, 2), (0.123, -4.56))
        a = serialize_tensor_set(execute(
            linear_graph(), NamedTensorSet.from_tensors([x])))
        b = serialize_tensor_set(execute(
            linear_graph(), NamedTensorSet.from_tensors([x])))
        assert a == b


class TestTensorViews:
    def test_to_array_is_a_view_of_the_tensor_data(self):
        x = t("x", (2, 3), range(6))
        arr = to_array(x)
        assert arr.shape == (2, 3)
        assert np.shares_memory(arr, x.data)
        with pytest.raises(ValueError):
            arr[0, 0] = 9.0

    def test_to_array_of_a_spec_is_refused(self):
        with pytest.raises(ExecutionError, match="carries no data"):
            to_array(Tensor("x", "f32", (1,)))

    def test_a_node_output_owns_its_data(self):
        x = t("x", (2,), (1.0, 2.0))
        node = GraphNode("n", "Reshape", ("x",), ("y",),
                         {"target_shape": (2, 1)})
        (out,) = apply_node(node, [x])
        assert not np.shares_memory(out.data, x.data)
        assert not out.data.flags.writeable
        assert out.data.tolist() == [1.0, 2.0]

    def test_a_plan_holds_the_initializers_own_arrays(self):
        g = linear_graph()
        plan = prepare(g)
        assert len(plan.constants) == len(g.initializers) == 2
        for held, init in zip(plan.constants, g.initializers):
            assert held.shape == init.shape
            assert np.shares_memory(held, init.data)
            assert not held.flags.writeable


class TestPlan:
    def test_initializer_is_unchanged_by_runs_of_its_views(self):
        w = t("w", (2, 2), (1.0, -2.0, 3.5, 0.0))
        g = InterchangeGraph(
            name="views", ir_version=1,
            inputs=(Tensor("x", "f32", (2, 2)),),
            outputs=(Tensor("same", "f32", (2, 2)),
                     Tensor("flat", "f32", (4,)),
                     Tensor("sum", "f32", (2, 2))),
            initializers=(w,),
            nodes=(
                GraphNode("a", "Identity", ("w",), ("same",)),
                GraphNode("b", "Reshape", ("w",), ("flat",),
                          {"target_shape": (4,)}),
                GraphNode("c", "Add", ("x", "w"), ("sum",)),
            ),
        )
        plan = prepare(g)
        x = NamedTensorSet.from_tensors([t("x", (2, 2), (1.0,) * 4)])
        runs = [plan.run(x) for _ in range(2)]
        for out in runs:
            assert (out["same"].data.tolist() == out["flat"].data.tolist()
                    == w.data.tolist())
            assert out["sum"].data.tolist() == [2.0, -1.0, 4.5, 1.0]
        (held,) = plan.constants
        assert not held.flags.writeable
        with pytest.raises(ValueError):
            held[0, 0] = 9.0
        assert held.reshape(-1).tolist() == w.data.tolist()

    def test_invalid_graph_is_refused_as_execute_refuses_it(self):
        g = InterchangeGraph(
            name="bad", ir_version=1,
            inputs=(Tensor("x", "f32", (1, 2)),),
            outputs=(Tensor("y", "f32", (1, 2)),),
            nodes=(GraphNode("n", "Relu", ("z",), ("y",)),),
        )
        message = ("cannot execute invalid graph: node 'n' consumes tensor "
                   "'z' which is produced nowhere in the graph")
        with pytest.raises(InvalidGraphError) as prepared:
            prepare(g)
        with pytest.raises(InvalidGraphError) as executed:
            execute(g, NamedTensorSet.from_tensors(
                [t("x", (1, 2), (1.0, 2.0))]))
        assert str(prepared.value) == str(executed.value) == message

    def test_a_kernel_result_of_the_wrong_shape_is_refused(self,
                                                           monkeypatch):
        monkeypatch.setitem(OPERATORS, "Identity", dataclasses.replace(
            OPERATORS["Identity"], kernel=lambda _, x: x[0].reshape(-1)))
        g = InterchangeGraph(
            name="id", ir_version=1,
            inputs=(Tensor("x", "f32", (2, 2)),),
            outputs=(Tensor("y", "f32", (2, 2)),),
            nodes=(GraphNode("n", "Identity", ("x",), ("y",)),),
        )
        with pytest.raises(ShapeMismatchError,
                           match=r"^node 'n': kernel produced shape \[4\], "
                                 r"expected \[2, 2\]$"):
            execute(g, NamedTensorSet.from_tensors(
                [t("x", (2, 2), (1.0, 2.0, 3.0, 4.0))]))

    def test_a_shape_fault_is_named_before_a_dtype_fault(self):
        # shapes come from the one pass; dtypes are checked as nodes bind
        g = InterchangeGraph(
            name="two-faults", ir_version=1,
            inputs=(Tensor("x", "f32", (1, 2)),),
            outputs=(Tensor("y", "f32", (1, 2)),),
            initializers=(t("b", (1, 3), (1, 2, 3), dtype="i64"),),
            nodes=(GraphNode("n", "Add", ("x", "b"), ("y",)),),
        )
        with pytest.raises(ShapeMismatchError, match=r"^node 'n' \(Add\)"):
            prepare(g)

    def test_a_plan_checks_every_run_inputs(self):
        plan = prepare(linear_graph())
        assert plan.run(NamedTensorSet.from_tensors(
            [t("x", (1, 2), (1.0, 0.0))]))["y"].data.tolist() == [1.0, 3.0]
        with pytest.raises(MissingTensorError, match="'x'"):
            plan.run(NamedTensorSet.from_tensors([]))
        with pytest.raises(ExecutionError, match="supplied dtype f64"):
            plan.run(NamedTensorSet.from_tensors(
                [t("x", (1, 2), (1.0, 0.0), dtype="f64")]))
        with pytest.raises(ShapeMismatchError, match="'x'"):
            plan.run(NamedTensorSet.from_tensors(
                [t("x", (1, 3), (1.0, 0.0, 2.0))]))


# ---------------------------------------------------------------------------
# tensor set files


class TestTensorSetFiles:
    def test_round_trip(self):
        ts = NamedTensorSet.from_tensors([
            t("a", (1, 2), (1.0, -0.5)),
            t("b", (3,), (1, 2, 3), dtype="i64"),
        ])
        again = parse_tensor_set(serialize_tensor_set(ts))
        assert again.names() == ts.names()
        for name in ts.names():
            assert again[name] == ts[name]

    @pytest.mark.parametrize("entry", [
        {"name": "x", "dtype": "f32", "shape": [1], "data": ["a"]},
        {"name": "x", "dtype": "f32", "shape": [1], "data": [True]},
        {"name": "x", "dtype": "i64", "shape": [1], "data": [1.5]},
        {"name": "x", "dtype": "f32", "shape": 1, "data": [1.0]},
        {"name": 7, "dtype": "f32", "shape": [1], "data": [1.0]},
        {"name": "x", "dtype": "f32", "shape": [1], "data": [1e39]},
        {"name": "x", "dtype": "f32", "shape": [1]},
        {"name": "x", "dtype": "f32", "shape": [1], "data": [1.0], "y": 1},
        {"name": "x", "dtype": "i64", "shape": [1], "data": [2 ** 63]},
        {"name": "x", "dtype": "i64", "shape": [1], "data": [-2 ** 63 - 1]},
    ])
    def test_malformed_entries_rejected(self, entry):
        with pytest.raises(MalformedDocumentError):
            parse_tensor_set(json.dumps([entry]))

    @pytest.mark.parametrize("value", [2 ** 63 - 1, -2 ** 63])
    def test_i64_at_the_edge_of_its_range_runs(self, value):
        g = InterchangeGraph(
            name="id", ir_version=1,
            inputs=(Tensor("x", "i64", (1,)),),
            outputs=(Tensor("y", "i64", (1,)),),
            nodes=(GraphNode("n", "Identity", ("x",), ("y",)),),
        )
        ts = parse_tensor_set(json.dumps([{"name": "x", "dtype": "i64",
                                           "shape": [1], "data": [value]}]))
        assert execute(g, ts)["y"].data.tolist() == [value]

    def test_non_finite_literal_rejected(self):
        doc = '[{"name": "x", "dtype": "f64", "shape": [1], "data": [NaN]}]'
        with pytest.raises(MalformedDocumentError, match="not a finite f64"):
            parse_tensor_set(doc)

    def test_non_finite_value_is_named_at_serialize(self):
        ts = NamedTensorSet.from_tensors([t("a", (1,), (1.0,)),
                                          t("b", (2,), (0.0, float("inf")))])
        with pytest.raises(ExecutionError, match="tensor 'b'"):
            serialize_tensor_set(ts)

    def test_f32_values_snap_at_parse(self):
        doc = '[{"name": "x", "dtype": "f32", "shape": [1], "data": [0.1]}]'
        assert parse_tensor_set(doc)["x"].data.tolist() == [oracle.f32(0.1)]

    def test_serialization_is_canonical(self):
        ts1 = NamedTensorSet.from_tensors([t("b", (1,), (2.0,)),
                                           t("a", (1,), (1.0,))])
        ts2 = NamedTensorSet.from_tensors([t("a", (1,), (1.0,)),
                                           t("b", (1,), (2.0,))])
        assert serialize_tensor_set(ts1) == serialize_tensor_set(ts2)


# ---------------------------------------------------------------------------
# run_inference_task


def write_inference_setup(root, graph, x):
    (root / "model.onnx").write_bytes(serialize_graph(graph))
    (root / "in.txt").write_bytes(serialize_tensor_set(
        NamedTensorSet.from_tensors([x])))
    text = textwrap.dedent("""\
        general_args:
          task: "inference"
          backend: "onnx"

        device_args:
          worker_num: 1
          device: "cpu"

        task_args:
          model_name: "m"
          model_file: "model.onnx"
          input: "in.txt"

        out_args:
          export_file: "o.txt"
    """)
    cfg = parse_config(text, base_dir=root)
    return cfg


class TestInferenceTask:
    def test_single_model_identity_passes_input_through(self, tmp_path):
        g = InterchangeGraph(
            name="id", ir_version=1,
            inputs=(Tensor("x", "f32", (1, 3)),),
            outputs=(Tensor("y", "f32", (1, 3)),),
            nodes=(GraphNode("n", "Identity", ("x",), ("y",)),),
        )
        x = t("x", (1, 3), (1.0, -2.5, 0.75))
        cfg = write_inference_setup(tmp_path, g, x)
        out_path = run_inference_task(cfg)
        assert out_path == tmp_path / "o.txt"
        written = parse_tensor_set(out_path.read_bytes())
        assert written["y"].data.tolist() == x.data.tolist()

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_f32_overflow_fails_as_execution_error(self, tmp_path):
        g = InterchangeGraph(
            name="add", ir_version=1,
            inputs=(Tensor("x", "f32", (1, 2)),),
            outputs=(Tensor("y", "f32", (1, 2)),),
            nodes=(GraphNode("n", "Add", ("x", "x"), ("y",)),),
        )
        cfg = write_inference_setup(tmp_path, g, t("x", (1, 2), (3e38, 1.0)))
        result = Dispatcher().dispatch(cfg)
        assert result.status == "failed"
        assert result.error["code"] == "execution_error"
        assert "tensor 'y'" in result.error["message"]
        assert not (tmp_path / "o.txt").exists()

    def test_collaboration_demo_writes_decoder_outputs(self, demo_workspace):
        root = demo_workspace.root
        run_conversion_task(load_config(root / "conversion.yaml"))
        out_path = run_inference_task(load_config(root / "collaboration.yaml"))
        assert out_path.name == "out.txt"

        written = parse_tensor_set(out_path.read_bytes())
        (name,) = written.names()
        assert name.endswith("probs")

        h = oracle.eval_sequential_doc(demo_workspace.encoder_doc,
                                       demo_workspace.x)
        want = oracle.eval_layerdag_doc(demo_workspace.decoder_doc,
                                        {"z": h})["probs"][0]
        assert oracle.all_close(written[name].data, want)
        assert abs(sum(written[name].data) - 1.0) <= 1e-6

    def test_collaboration_with_three_models_rejected(self, demo_workspace):
        root = demo_workspace.root
        run_conversion_task(load_config(root / "conversion.yaml"))
        cfg = load_config(root / "collaboration.yaml")
        cfg.task_args["model_file"] = ["encoder.onnx", "decoder.onnx",
                                       "encoder.onnx"]
        with pytest.raises(ConfigError, match="exactly two models, got 3"):
            run_inference_task(cfg)

    def test_two_models_without_tag_rejected(self, demo_workspace):
        import dataclasses
        root = demo_workspace.root
        run_conversion_task(load_config(root / "conversion.yaml"))
        cfg = load_config(root / "collaboration.yaml")
        cfg = dataclasses.replace(
            cfg, general=dataclasses.replace(cfg.general, tag=None))
        with pytest.raises(ConfigError, match="collaboration"):
            run_inference_task(cfg)

    def test_missing_model_file_is_named(self, tmp_path):
        g = InterchangeGraph(
            name="id", ir_version=1,
            inputs=(Tensor("x", "f32", (1, 1)),),
            outputs=(Tensor("y", "f32", (1, 1)),),
            nodes=(GraphNode("n", "Identity", ("x",), ("y",)),),
        )
        cfg = write_inference_setup(tmp_path, g, t("x", (1, 1), (1.0,)))
        cfg.task_args["model_file"] = "gone.onnx"
        with pytest.raises(ExecutionError,
                           match="model file not found: gone.onnx"):
            run_inference_task(cfg)

    def test_gpu_request_runs_on_cpu_with_notice(self, tmp_path, caplog):
        g = InterchangeGraph(
            name="id", ir_version=1,
            inputs=(Tensor("x", "f32", (1, 1)),),
            outputs=(Tensor("y", "f32", (1, 1)),),
            nodes=(GraphNode("n", "Identity", ("x",), ("y",)),),
        )
        x = t("x", (1, 1), (2.0,))
        cfg = write_inference_setup(tmp_path, g, x)
        import dataclasses
        cfg = dataclasses.replace(
            cfg, device=dataclasses.replace(cfg.device, device="gpu"))
        with caplog.at_level(logging.WARNING, logger="hpcfair.runtime"):
            run_inference_task(cfg)
        assert ("executing on cpu (gpu unavailable in reference runtime)"
                in caplog.text)


# ---------------------------------------------------------------------------
# one topological sort per graph checked


@pytest.fixture
def sorts(monkeypatch):
    """The names of the graphs the one topological sort is given."""
    names = []
    sort = interchange._topo_order

    def counted(g):
        names.append(g.name)
        return sort(g)

    monkeypatch.setattr(interchange, "_topo_order", counted)
    return names


@pytest.mark.parametrize("backend,ckpt", [("pt", "encoder.ckpt"),
                                          ("tf", "decoder.ckpt")])
def test_a_conversion_sorts_once(demo_workspace, sorts, backend, ckpt):
    data = (demo_workspace.root / "ckpt" / ckpt).read_bytes()
    convert_checkpoint_bytes(backend, data, "m", ir_version=1)
    assert sorts == ["m"]


def test_a_plan_miss_sorts_once_per_graph(demo_workspace, sorts):
    root = demo_workspace.root
    run_conversion_task(load_config(root / "conversion.yaml"))
    sorts.clear()
    prepare(parse_graph((root / "encoder.onnx").read_bytes()))
    assert sorts == ["encoder"]
    sorts.clear()
    run_inference_task(load_config(root / "collaboration.yaml"))
    assert sorts == ["encoder", "decoder", "encoder+decoder"]


# ---------------------------------------------------------------------------
# full-graph oracle comparison on a hand-built mixed graph


def test_mixed_graph_matches_document_oracle():
    g = InterchangeGraph(
        name="mixed", ir_version=2,
        inputs=(Tensor("x", "f64", (2, 3)),),
        outputs=(Tensor("soft", "f64", (2, 3)),
                 Tensor("wide", "f64", (2, 6))),
        initializers=(Tensor("c", "f64", (2, 3),
                             (0.5, -1.0, 2.0, 0.0, 1.5, -0.25)),),
        nodes=(
            GraphNode("a", "Add", ("x", "c"), ("s",)),
            GraphNode("b", "Tanh", ("s",), ("tn",)),
            GraphNode("c0", "Softmax", ("tn",), ("soft",), {"axis": 1}),
            GraphNode("d", "Concat", ("s", "tn"), ("wide",), {"axis": 1}),
        ),
    )
    doc = json.loads(serialize_graph(g))
    x = [0.25, -0.75, 1.5, 2.0, -2.0, 0.0]
    got = execute(g, NamedTensorSet.from_tensors(
        [t("x", (2, 3), x, dtype="f64")]))
    want = oracle.eval_graph_doc(doc, {"x": x})
    for name in ("soft", "wide"):
        shape, flat = want[name]
        assert got[name].shape == shape
        assert oracle.all_close(got[name].data, flat)
