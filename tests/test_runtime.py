"""Kernel semantics, graph execution, and the inference task."""

import json
import logging
import textwrap

import pytest

import oracle
from hpcfair.config import load_config, parse_config
from hpcfair.converters import run_conversion_task
from hpcfair.errors import (
    ConfigError,
    ExecutionError,
    MalformedDocumentError,
    MissingTensorError,
    UnknownOperatorError,
)
from hpcfair.interchange import (
    OPERATORS,
    GraphNode,
    InterchangeGraph,
    Tensor,
    quantize,
    serialize_graph,
)
from hpcfair.runtime import (
    NamedTensorSet,
    apply_node,
    execute,
    parse_tensor_set,
    run_inference_task,
    serialize_tensor_set,
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
        assert out.data == (0.0, 0.0, 2.0)

    def test_matmul_by_identity(self):
        node = GraphNode("n", "MatMul", ("a", "b"), ("c",))
        (out,) = apply_node(node, [
            t("a", (2, 2), (1.0, 2.0, 3.0, 4.0)),
            t("b", (2, 2), (1.0, 0.0, 0.0, 1.0)),
        ])
        assert out.data == (1.0, 2.0, 3.0, 4.0)
        assert out.shape == (2, 2)

    def test_softmax_of_equal_logits(self):
        node = GraphNode("n", "Softmax", ("x",), ("y",), {"axis": 0})
        (out,) = apply_node(node, [t("x", (2,), (0.0, 0.0))])
        assert out.data == (0.5, 0.5)

    def test_concat_rows(self):
        node = GraphNode("n", "Concat", ("a", "b"), ("c",), {"axis": 0})
        (out,) = apply_node(node, [
            t("a", (1, 2), (1.0, 2.0)),
            t("b", (2, 2), (3.0, 4.0, 5.0, 6.0)),
        ])
        assert out.shape == (3, 2)
        assert out.data == (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)

    def test_reshape_keeps_flat_data(self):
        node = GraphNode("n", "Reshape", ("x",), ("y",),
                         {"target_shape": (3, 2)})
        (out,) = apply_node(node, [t("x", (2, 3), (1.0, 2.0, 3.0,
                                                   4.0, 5.0, 6.0))])
        assert out.shape == (3, 2)
        assert out.data == (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)

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
        assert out.data == (11, 0)
        assert all(isinstance(v, int) for v in out.data)


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
        assert out["y"].data == x.data

    def test_linear_layer_value(self):
        out = execute(linear_graph(), NamedTensorSet.from_tensors(
            [t("x", (1, 2), (1.0, 0.0))]))
        assert out["y"].data == (1.0, 3.0)

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
    ])
    def test_malformed_entries_rejected(self, entry):
        with pytest.raises(MalformedDocumentError):
            parse_tensor_set(json.dumps([entry]))

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
        assert parse_tensor_set(doc)["x"].data == (quantize(0.1, "f32"),)

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
        assert written["y"].data == x.data

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
