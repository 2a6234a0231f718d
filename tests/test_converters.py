"""Checkpoint parsing and conversion to the interchange format."""

import dataclasses
import json
import random
from pathlib import Path

import pytest

import oracle
from hpcfair.config import load_config
from hpcfair.converters import (
    convert_checkpoint_bytes,
    convert_layerdag,
    convert_sequential,
    run_conversion_task,
)
from hpcfair.errors import (
    ConfigError,
    ConversionError,
    InvalidArtifactError,
    MalformedDocumentError,
    UnknownBackendError,
)
from hpcfair.interchange import Tensor, infer_shapes, serialize_graph
from hpcfair.registry import ArtifactDraft
from hpcfair.runtime import NamedTensorSet, execute
from hpcfair.tasks import Dispatcher

from conftest import build_demo_checkpoints


def sequential_doc(layers) -> bytes:
    return json.dumps({"format_tag": "pt-ckpt-v1", "layers": layers}).encode()


def layerdag_doc(inputs, nodes, outputs) -> bytes:
    return json.dumps({
        "format_tag": "tf-ckpt-v1",
        "inputs": inputs, "nodes": nodes, "outputs": outputs,
    }).encode()


IDENTITY_2X2 = {
    "kind": "linear",
    "weight": [[1.0, 0.0], [0.0, 1.0]],
    "bias": [0.0, 0.0],
}


# ---------------------------------------------------------------------------
# sequential (pt) checkpoints


class TestSequential:
    def test_identity_weights_give_identity_function(self):
        g = convert_sequential(sequential_doc([IDENTITY_2X2]), "ident",
                               ir_version=1)
        x = Tensor("x", "f32", (1, 2), (3.5, -2.0))
        out = execute(g, NamedTensorSet.from_tensors([x]))
        assert out[g.outputs[0].name].data.tolist() == x.data.tolist()

    def test_three_layer_shapes(self):
        rng = random.Random(5)
        layers = [
            {"kind": "linear",
             "weight": [[rng.randint(-8, 8) / 16 for _ in range(4)]
                        for _ in range(8)],
             "bias": [0.0] * 8},
            {"kind": "relu"},
            {"kind": "linear",
             "weight": [[rng.randint(-8, 8) / 16 for _ in range(8)]
                        for _ in range(2)],
             "bias": [0.25, -0.25]},
        ]
        doc = json.loads(sequential_doc(layers))
        g = convert_sequential(sequential_doc(layers), "mlp", ir_version=1)
        shapes = infer_shapes(g)
        assert shapes[g.outputs[0].name] == (1, 2)

        # dual route: run the converted graph and the naive row-major oracle
        x = [0.5, -1.0, 0.75, 0.125]
        got = execute(g, NamedTensorSet.from_tensors(
            [Tensor(g.inputs[0].name, "f32", (1, 4), tuple(x))]))
        want = oracle.eval_sequential_doc(doc, [x])
        assert oracle.all_close(got[g.outputs[0].name].data, want[0])

    def test_node_naming_scheme(self):
        ckpt = sequential_doc([IDENTITY_2X2, {"kind": "relu"}])
        g = convert_sequential(ckpt, "m", ir_version=1)
        by_id = {n.id: n for n in g.nodes}
        assert set(by_id) == {"layer0/matmul", "layer0/add", "layer1/relu"}
        assert by_id["layer0/matmul"].outputs == ("layer0/mm",)
        assert by_id["layer0/add"].outputs == ("layer0/out",)

    def test_empty_layers_rejected(self):
        ckpt = sequential_doc([])
        with pytest.raises(ConversionError, match="checkpoint has no layers"):
            convert_sequential(ckpt, "m", ir_version=1)

    def test_activation_only_checkpoint_rejected(self):
        ckpt = sequential_doc([{"kind": "relu"}])
        with pytest.raises(ConversionError,
                           match="no linear layer; input width"):
            convert_sequential(ckpt, "m", ir_version=1)

    def test_unknown_key_rejected(self):
        doc = json.dumps({"format_tag": "pt-ckpt-v1",
                          "layers": [IDENTITY_2X2], "epoch": 7}).encode()
        with pytest.raises(MalformedDocumentError, match="epoch"):
            convert_sequential(doc, "m", ir_version=1)

    def test_ragged_weight_rejected(self):
        bad = {"kind": "linear", "weight": [[1.0, 0.0], [0.0]],
               "bias": [0.0, 0.0]}
        with pytest.raises(MalformedDocumentError):
            convert_sequential(sequential_doc([bad]), "m", ir_version=1)

    @pytest.mark.parametrize("value", ["1e39", "NaN", "-Infinity"])
    def test_non_finite_weight_rejected(self, value):
        doc = ('{"format_tag": "pt-ckpt-v1", "layers": [{"kind": "linear", '
               f'"weight": [[{value}]], "bias": [0.0]}}]}}')
        with pytest.raises(MalformedDocumentError, match="not a finite f32"):
            convert_sequential(doc.encode(), "m", ir_version=1)

    def test_values_are_quantized_to_f32(self):
        layer = {"kind": "linear", "weight": [[0.1]], "bias": [0.0]}
        g = convert_sequential(sequential_doc([layer]), "q", ir_version=1)
        stored = next(t for t in g.initializers
                      if t.name == "layer0/weight")
        assert stored.data.tolist()[0] != 0.1
        assert abs(stored.data.tolist()[0] - 0.1) < 1e-7


# ---------------------------------------------------------------------------
# layer-dag (tf) checkpoints


class TestLayerDag:
    def test_dense_identity(self):
        data = layerdag_doc(
            inputs=[{"name": "x", "shape": [1, 2]}],
            nodes={"d": {"op": "dense", "inbound": ["x"],
                         "params": {"kernel": [[1.0, 0.0], [0.0, 1.0]],
                                    "bias": [0.0, 0.0]}}},
            outputs=["d"],
        )
        g = convert_layerdag(data, "ident", ir_version=1)
        x = Tensor("x", "f32", (1, 2), (4.0, -1.5))
        out = execute(g, NamedTensorSet.from_tensors([x]))
        assert out[g.outputs[0].name].data.tolist() == x.data.tolist()

    def test_concat_widths(self):
        data = layerdag_doc(
            inputs=[{"name": "a", "shape": [1, 3]},
                    {"name": "b", "shape": [1, 5]}],
            nodes={"cat": {"op": "concat", "inbound": ["a", "b"],
                           "attrs": {"axis": 1}}},
            outputs=["cat"],
        )
        g = convert_layerdag(data, "wide", ir_version=1)
        shapes = infer_shapes(g)
        assert shapes[g.outputs[0].name] == (1, 8)

    def test_unresolved_inbound_reference_is_named(self):
        data = layerdag_doc(
            inputs=[{"name": "x", "shape": [1, 2]}],
            nodes={"act": {"op": "relu", "inbound": ["enc0"]}},
            outputs=["act"],
        )
        with pytest.raises(ConversionError, match="enc0"):
            convert_layerdag(data, "m", ir_version=1)

    def test_kernel_orientation_is_input_by_output(self):
        # 1x3 kernel maps width 1 to width 3; the transposed reading would
        # be rejected by shape inference, so a run proves the orientation
        data = layerdag_doc(
            inputs=[{"name": "x", "shape": [1, 1]}],
            nodes={"d": {"op": "dense", "inbound": ["x"],
                         "params": {"kernel": [[2.0, 3.0, 4.0]],
                                    "bias": [0.5, 0.5, 0.5]}}},
            outputs=["d"],
        )
        g = convert_layerdag(data, "m", ir_version=1)
        out = execute(g, NamedTensorSet.from_tensors(
            [Tensor("x", "f32", (1, 1), (1.0,))]))
        assert out[g.outputs[0].name].data.tolist() == [2.5, 3.5, 4.5]

    def test_demo_decoder_matches_oracle(self):
        _, decoder, _ = build_demo_checkpoints(random.Random(42))
        g = convert_layerdag(json.dumps(decoder).encode(), "decoder",
                             ir_version=1)
        z = [0.25, -0.5, 0.125, 1.0, -1.0, 0.75, 0.0, 0.5]
        got = execute(g, NamedTensorSet.from_tensors(
            [Tensor(g.inputs[0].name, "f32", (1, 8), tuple(z))]))
        want = oracle.eval_layerdag_doc(decoder, {"z": [z]})
        out_name = g.outputs[0].name
        assert oracle.all_close(got[out_name].data, want["probs"][0])
        assert abs(sum(got[out_name].data) - 1.0) <= 1e-6


# ---------------------------------------------------------------------------
# one checker: every structural or shape fault is a conversion_error


def dag(nodes, outputs=("d",), inputs=(("x", 2),)) -> bytes:
    return layerdag_doc([{"name": name, "shape": [1, width]}
                         for name, width in inputs], nodes, list(outputs))


def dense(inbound=("x",), kernel=((1.0, 0.0), (0.0, 1.0)), bias=(0.0, 0.0)):
    return {"op": "dense", "inbound": list(inbound),
            "params": {"kernel": [list(row) for row in kernel],
                       "bias": list(bias)}}


SINGLE_FAULTS = {
    "pt-bias-length": ("pt", sequential_doc([
        {"kind": "linear", "weight": [[1.0, 0.0], [0.0, 1.0]],
         "bias": [0.0, 0.0, 0.0]}])),
    "pt-width-chain": ("pt", sequential_doc([
        IDENTITY_2X2,
        {"kind": "linear", "weight": [[1.0, 0.0, 0.0]], "bias": [0.0]}])),
    "pt-softmax-axis": ("pt", sequential_doc([
        IDENTITY_2X2, {"kind": "softmax", "axis": 2}])),
    "tf-kernel-bias": ("tf", dag({"d": dense(bias=(0.0, 0.0, 0.0))})),
    "tf-kernel-rows": ("tf", dag({"d": dense(
        kernel=((1.0, 0.0), (0.0, 1.0), (1.0, 1.0)))})),
    "tf-softmax-axis": ("tf", dag({"d": dense(), "s": {
        "op": "softmax", "inbound": ["d"], "attrs": {"axis": 2}}},
        outputs=["s"])),
    "tf-unresolved-inbound": ("tf", dag({"d": dense(inbound=["enc0"])})),
    "tf-inbound-to-a-lowered-tensor": ("tf", dag({"d": dense(), "r": {
        "op": "relu", "inbound": ["d/mm"]}}, outputs=["r"])),
    "tf-dense-two-inbounds": ("tf", dag({"d": dense(inbound=["x", "x"])})),
    "tf-concat-one-inbound": ("tf", dag({"d": {
        "op": "concat", "inbound": ["x"], "attrs": {"axis": 1}}})),
    "tf-relu-two-inbounds": ("tf", dag({"d": {
        "op": "relu", "inbound": ["x", "x"]}})),
    "tf-output-not-a-node": ("tf", dag({"d": dense()}, outputs=["x"])),
    "tf-duplicate-output": ("tf", dag({"d": dense()}, outputs=["d", "d"])),
    "tf-cycle": ("tf", dag({"d": {"op": "relu", "inbound": ["e"]},
                            "e": {"op": "relu", "inbound": ["d"]}})),
    "tf-node-named-like-input": ("tf", dag(
        {"d": dense()}, inputs=[("x", 2), ("d", 2)])),
}


@pytest.mark.parametrize("backend,data", SINGLE_FAULTS.values(),
                         ids=SINGLE_FAULTS)
def test_single_fault_checkpoints_are_conversion_errors(backend, data,
                                                        store, publisher):
    with pytest.raises(ConversionError):
        convert_checkpoint_bytes(backend, data, "m", ir_version=1)
    draft = ArtifactDraft(title="faulty", artifact_type="model",
                          backend_tag=backend)
    with pytest.raises(InvalidArtifactError, match="not convertible"):
        store.register_artifact(data, draft, publisher)
    assert store.all_records() == []
    assert not [p for p in store.blob_dir.rglob("*") if p.is_file()]


def test_a_duplicate_output_is_named():
    with pytest.raises(ConversionError, match="duplicate output name 'd'"):
        convert_checkpoint_bytes("tf", dag({"d": dense()}, outputs=["d", "d"]),
                                 "m", ir_version=1)


# ---------------------------------------------------------------------------
# format dispatch


class TestDispatch:
    def test_backend_routes_to_parser(self):
        pt = sequential_doc([IDENTITY_2X2])
        g = convert_checkpoint_bytes("pt", pt, "m", ir_version=3)
        assert g.ir_version == 3
        assert g.name == "m"

    def test_unknown_backend_rejected(self):
        with pytest.raises(UnknownBackendError, match="jax"):
            convert_checkpoint_bytes("jax", b"{}", "m", ir_version=1)

    def test_format_tag_mismatch_rejected(self):
        mislabeled = json.dumps({"format_tag": "tf-ckpt-v1",
                                 "layers": [IDENTITY_2X2]}).encode()
        with pytest.raises(MalformedDocumentError, match="format_tag"):
            convert_checkpoint_bytes("pt", mislabeled, "m", ir_version=1)

    def test_conversion_is_deterministic(self):
        pt = sequential_doc([IDENTITY_2X2, {"kind": "softmax", "axis": 1}])
        a = serialize_graph(convert_checkpoint_bytes("pt", pt, "m", 2))
        b = serialize_graph(convert_checkpoint_bytes("pt", pt, "m", 2))
        assert a == b


# ---------------------------------------------------------------------------
# the conversion task


class TestConversionTask:
    def test_demo_config_exports_both_models(self, demo_workspace):
        cfg = load_config(demo_workspace.root / "conversion.yaml")
        paths = run_conversion_task(cfg)
        assert [p.name for p in paths] == ["encoder.onnx", "decoder.onnx"]
        for p in paths:
            assert p.exists()
            doc = json.loads(p.read_text(encoding="utf-8"))
            assert doc["ir_version"] == 10

    @pytest.mark.parametrize("line", ["  onnx_version: null\n", ""],
                             ids=["null", "absent"])
    def test_null_or_absent_onnx_version_converts_at_1(self, demo_workspace,
                                                       line):
        config = demo_workspace.root / "conversion.yaml"
        config.write_text(config.read_text().replace(
            "  onnx_version: 10\n", line))
        result = Dispatcher().dispatch(load_config(config))
        assert result.status == "succeeded", result.error
        for path in result.outputs:
            assert json.loads(Path(path).read_bytes())["ir_version"] == 1

    def test_single_backend_fans_out(self, demo_workspace):
        cfg = load_config(demo_workspace.root / "conversion.yaml")
        assert cfg.general.backend == ["pt", "tf"]
        single = dataclasses.replace(cfg.general, backend="pt")
        cfg = dataclasses.replace(cfg, general=single)
        cfg.task_args["model_name"] = ["encoder", "encoder"]
        cfg.task_args["model_file"] = ["ckpt/encoder.ckpt",
                                       "ckpt/encoder.ckpt"]
        cfg.out["export_file"] = ["a.onnx", "b.onnx"]
        paths = run_conversion_task(cfg)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_missing_model_file_is_named(self, demo_workspace):
        cfg = load_config(demo_workspace.root / "conversion.yaml")
        cfg.task_args["model_file"] = ["ckpt/encoder.ckpt",
                                       "ckpt/missing.ckpt"]
        with pytest.raises(ConversionError,
                           match="model file not found: ckpt/missing.ckpt"):
            run_conversion_task(cfg)

    def test_duplicate_export_paths_rejected(self, demo_workspace):
        cfg = load_config(demo_workspace.root / "conversion.yaml")
        cfg.out["export_file"] = ["same.onnx", "same.onnx"]
        with pytest.raises(ConfigError, match="must be distinct"):
            run_conversion_task(cfg)

    def test_reruns_are_byte_identical(self, demo_workspace):
        cfg = load_config(demo_workspace.root / "conversion.yaml")
        first = [p.read_bytes() for p in run_conversion_task(cfg)]
        second = [p.read_bytes() for p in run_conversion_task(cfg)]
        assert first == second

    def test_worker_num_does_not_change_the_output(self, demo_workspace):
        cfg = load_config(demo_workspace.root / "conversion.yaml")
        assert cfg.device.worker_num == 4
        four = [p.read_bytes() for p in run_conversion_task(cfg)]
        one = dataclasses.replace(
            cfg, device=dataclasses.replace(cfg.device, worker_num=1))
        assert [p.read_bytes() for p in run_conversion_task(one)] == four


# ---------------------------------------------------------------------------
# randomized cross-checks


def random_sequential(rng: random.Random) -> dict:
    width = rng.randint(1, 5)
    layers = []
    for _ in range(rng.randint(1, 4)):
        kind = rng.choice(["linear", "relu", "sigmoid", "tanh"])
        if kind == "linear":
            out_w = rng.randint(1, 5)
            layers.append({
                "kind": "linear",
                "weight": [[rng.randint(-32, 32) / 64 for _ in range(width)]
                           for _ in range(out_w)],
                "bias": [rng.randint(-32, 32) / 64 for _ in range(out_w)],
            })
            width = out_w
        else:
            layers.append({"kind": kind})
    if not any(l["kind"] == "linear" for l in layers):
        layers.insert(0, dict(IDENTITY_2X2))
        width = 2
    return {"format_tag": "pt-ckpt-v1", "layers": layers}


def test_random_sequential_checkpoints_match_oracle():
    rng = random.Random(1234)
    for trial in range(30):
        doc = random_sequential(rng)
        g = convert_sequential(json.dumps(doc).encode(), f"m{trial}", 1)
        in_width = g.inputs[0].shape[1]
        x = [rng.randint(-64, 64) / 64 for _ in range(in_width)]
        got = execute(g, NamedTensorSet.from_tensors(
            [Tensor(g.inputs[0].name, "f32", (1, in_width), tuple(x))]))
        want = oracle.eval_sequential_doc(doc, [x])
        assert oracle.all_close(got[g.outputs[0].name].data, want[0]), \
            f"trial {trial}: {got[g.outputs[0].name].data} vs {want[0]}"
