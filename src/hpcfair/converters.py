"""Checkpoint frontends: translate framework-style model files into graphs.

Two source formats are supported, deliberately asymmetric in their weight
conventions so that orientation is normalized here and not in the runtime:

* ``pt-ckpt-v1`` -- a sequential stack of layers where a linear layer stores
  ``weight`` as [out, in] and computes y = x . W^T + b.
* ``tf-ckpt-v1`` -- a layer DAG where a dense node stores ``kernel`` as
  [in, out] and computes y = x . K + b.

Both are structured-text (JSON) documents with an explicit ``format_tag``.
Converted graphs carry f32 tensors; weights are snapped onto the f32 grid at
parse time so serialization prints exact values.  Linear/dense layers assume
batch-1 inputs [1, n]: the bias is materialized as a [1, out] initializer and
added without broadcasting.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ._canonical import loads_canonical
from .config import TaskConfig, as_list
from .errors import ConfigError, ConversionError, MalformedDocumentError, \
    UnknownBackendError
from .interchange import GraphNode, InterchangeGraph, Tensor, _expect, \
    infer_shapes, quantize, serialize_graph, validate_graph

logger = logging.getLogger(__name__)

SEQUENTIAL_TAG = "pt-ckpt-v1"
LAYERDAG_TAG = "tf-ckpt-v1"

_ACTIVATIONS = ("relu", "sigmoid", "tanh")
_ACT_OP = {"relu": "Relu", "sigmoid": "Sigmoid", "tanh": "Tanh",
           "softmax": "Softmax"}

Matrix = tuple[tuple[float, ...], ...]


@dataclass(frozen=True)
class SequentialLayer:
    kind: str  # "linear" | "relu" | "sigmoid" | "tanh" | "softmax"
    weight: Matrix | None = None  # [out, in]
    bias: tuple[float, ...] | None = None  # [out]
    axis: int | None = None


@dataclass(frozen=True)
class SequentialCheckpoint:
    layers: tuple[SequentialLayer, ...]
    format_tag: str = SEQUENTIAL_TAG


@dataclass(frozen=True)
class DagInput:
    name: str
    shape: tuple[int, ...]


@dataclass(frozen=True)
class DagNode:
    kind: str  # "dense" | "relu" | "sigmoid" | "tanh" | "softmax" | "concat"
    inbound: tuple[str, ...]
    kernel: Matrix | None = None  # [in, out]
    bias: tuple[float, ...] | None = None  # [out]
    axis: int | None = None


@dataclass(frozen=True)
class LayerDagCheckpoint:
    inputs: tuple[DagInput, ...]
    nodes: dict[str, DagNode] = field(default_factory=dict)
    outputs: tuple[str, ...] = ()
    format_tag: str = LAYERDAG_TAG


# ---------------------------------------------------------------------------
# checkpoint document parsing


def _load_doc(data: bytes | str) -> dict[str, Any]:
    try:
        doc = loads_canonical(data)
    except ValueError as exc:
        raise MalformedDocumentError(f"invalid checkpoint document: {exc}")
    _expect(isinstance(doc, dict), "checkpoint document must be an object")
    return doc


def _parse_matrix(raw: Any, where: str) -> Matrix:
    _expect(isinstance(raw, list) and raw and
            all(isinstance(row, list) and row for row in raw),
            f"{where} must be a non-empty 2-D matrix")
    width = len(raw[0])
    rows = []
    for row in raw:
        _expect(len(row) == width, f"{where} rows have unequal lengths")
        rows.append(tuple(_parse_number(x, where) for x in row))
    return tuple(rows)


def _parse_vector(raw: Any, where: str) -> tuple[float, ...]:
    _expect(isinstance(raw, list) and raw, f"{where} must be a non-empty list")
    return tuple(_parse_number(x, where) for x in raw)


def _parse_number(x: Any, where: str) -> float:
    _expect(isinstance(x, (int, float)) and not isinstance(x, bool),
            f"{where} must contain numbers")
    return quantize(float(x), "f32")


def _parse_axis(raw: Any, where: str) -> int:
    _expect(isinstance(raw, int) and not isinstance(raw, bool),
            f"{where}: axis must be an integer")
    return raw


def parse_sequential(data: bytes | str) -> SequentialCheckpoint:
    doc = _load_doc(data)
    unknown = set(doc) - {"format_tag", "layers"}
    _expect(not unknown, f"unknown checkpoint keys {sorted(unknown)}")
    _expect(doc.get("format_tag") == SEQUENTIAL_TAG,
            f"expected format_tag '{SEQUENTIAL_TAG}', "
            f"got {doc.get('format_tag')!r}")
    raw_layers = doc.get("layers")
    _expect(isinstance(raw_layers, list), "'layers' must be a list")

    layers = []
    for i, raw in enumerate(raw_layers):
        where = f"layer {i}"
        _expect(isinstance(raw, dict), f"{where} must be an object")
        kind = raw.get("kind")
        if kind == "linear":
            unknown = set(raw) - {"kind", "weight", "bias"}
            _expect(not unknown, f"{where}: unknown keys {sorted(unknown)}")
            _expect("weight" in raw and "bias" in raw,
                    f"{where}: linear layer needs 'weight' and 'bias'")
            weight = _parse_matrix(raw["weight"], f"{where} weight")
            bias = _parse_vector(raw["bias"], f"{where} bias")
            if len(weight) != len(bias):
                raise ConversionError(
                    f"{where}: weight has {len(weight)} output rows but bias "
                    f"has {len(bias)} entries")
            layers.append(SequentialLayer("linear", weight=weight, bias=bias))
        elif kind in _ACTIVATIONS:
            _expect(set(raw) == {"kind"}, f"{where}: '{kind}' takes no keys")
            layers.append(SequentialLayer(kind))
        elif kind == "softmax":
            _expect(set(raw) == {"kind", "axis"},
                    f"{where}: softmax needs exactly 'kind' and 'axis'")
            layers.append(SequentialLayer(
                "softmax", axis=_parse_axis(raw["axis"], where)))
        else:
            raise MalformedDocumentError(
                f"{where}: unknown layer kind {kind!r}")
    return SequentialCheckpoint(tuple(layers))


def parse_layerdag(data: bytes | str) -> LayerDagCheckpoint:
    doc = _load_doc(data)
    unknown = set(doc) - {"format_tag", "inputs", "nodes", "outputs"}
    _expect(not unknown, f"unknown checkpoint keys {sorted(unknown)}")
    _expect(doc.get("format_tag") == LAYERDAG_TAG,
            f"expected format_tag '{LAYERDAG_TAG}', "
            f"got {doc.get('format_tag')!r}")

    raw_inputs = doc.get("inputs")
    _expect(isinstance(raw_inputs, list) and raw_inputs,
            "'inputs' must be a non-empty list")
    inputs = []
    for raw in raw_inputs:
        _expect(isinstance(raw, dict) and set(raw) == {"name", "shape"},
                "each input must be an object with 'name' and 'shape'")
        name, shape = raw["name"], raw["shape"]
        _expect(isinstance(name, str) and bool(name) and "/" not in name,
                "input names must be non-empty and contain no '/'")
        _expect(isinstance(shape, list) and shape and
                all(isinstance(d, int) and not isinstance(d, bool) and d > 0
                    for d in shape),
                f"input '{name}': shape must be a list of positive integers")
        inputs.append(DagInput(name, tuple(shape)))

    raw_nodes = doc.get("nodes")
    _expect(isinstance(raw_nodes, dict) and raw_nodes,
            "'nodes' must be a non-empty map")
    nodes: dict[str, DagNode] = {}
    for name, raw in raw_nodes.items():
        where = f"node '{name}'"
        _expect(isinstance(name, str) and bool(name) and "/" not in name,
                "node names must be non-empty and contain no '/'")
        _expect(isinstance(raw, dict), f"{where} must be an object")
        unknown = set(raw) - {"op", "inbound", "params", "attrs"}
        _expect(not unknown, f"{where}: unknown keys {sorted(unknown)}")
        kind = raw.get("op")
        _expect(kind in ("dense",) + _ACTIVATIONS + ("softmax", "concat"),
                f"{where}: unknown op {kind!r}")
        inbound_raw = raw.get("inbound")
        _expect(isinstance(inbound_raw, list) and inbound_raw and
                all(isinstance(x, str) for x in inbound_raw),
                f"{where}: 'inbound' must be a non-empty list of names")

        kernel = bias = axis = None
        params = raw.get("params")
        if kind == "dense":
            _expect(isinstance(params, dict) and
                    set(params) == {"kernel", "bias"},
                    f"{where}: dense needs params with 'kernel' and 'bias'")
            kernel = _parse_matrix(params["kernel"], f"{where} kernel")
            bias = _parse_vector(params["bias"], f"{where} bias")
            if len(kernel[0]) != len(bias):
                raise ConversionError(
                    f"{where}: kernel has {len(kernel[0])} output columns "
                    f"but bias has {len(bias)} entries")
        else:
            _expect(params is None, f"{where}: only dense takes params")
        attrs = raw.get("attrs")
        if kind in ("softmax", "concat"):
            _expect(isinstance(attrs, dict) and set(attrs) == {"axis"},
                    f"{where}: {kind} needs attrs with 'axis'")
            axis = _parse_axis(attrs["axis"], where)
        else:
            _expect(attrs is None, f"{where}: '{kind}' takes no attrs")
        nodes[name] = DagNode(kind, tuple(inbound_raw), kernel=kernel,
                              bias=bias, axis=axis)

    raw_outputs = doc.get("outputs")
    _expect(isinstance(raw_outputs, list) and raw_outputs and
            all(isinstance(x, str) for x in raw_outputs),
            "'outputs' must be a non-empty list of node names")
    return LayerDagCheckpoint(tuple(inputs), nodes, tuple(raw_outputs))


# ---------------------------------------------------------------------------
# conversion to interchange graphs


def _check_model_name(model_name: str) -> None:
    if not model_name or "/" in model_name:
        raise ConversionError(
            f"model name {model_name!r} must be non-empty and contain no '/'")


def _weight_tensors(prefix: str, columns_by_row: Matrix,
                    bias: tuple[float, ...]) -> tuple[Tensor, Tensor]:
    # columns_by_row is already [in, out]; callers transpose if needed
    n_in, n_out = len(columns_by_row), len(columns_by_row[0])
    flat = tuple(x for row in columns_by_row for x in row)
    weight = Tensor(f"{prefix}/weight", "f32", (n_in, n_out), flat)
    bias_t = Tensor(f"{prefix}/bias", "f32", (1, n_out), tuple(bias))
    return weight, bias_t


def _transpose(m: Matrix) -> Matrix:
    return tuple(tuple(row[j] for row in m) for j in range(len(m[0])))


def convert_sequential(ckpt: SequentialCheckpoint, model_name: str,
                       ir_version: int) -> InterchangeGraph:
    """Sequential stack -> graph with one input "x" and one output.

    Each linear layer lowers to MatMul(x, W^T) + Add(bias); node ids are
    "layer<i>/<op>".  The input width comes from the first linear layer, so
    a checkpoint with no linear layer at all is underdetermined and rejected.
    """
    _check_model_name(model_name)
    if not ckpt.layers:
        raise ConversionError("checkpoint has no layers")

    width = next((len(layer.weight[0]) for layer in ckpt.layers
                  if layer.kind == "linear"), None)
    if width is None:
        raise ConversionError(
            "checkpoint has no linear layer; input width is underdetermined")

    initializers: list[Tensor] = []
    nodes: list[GraphNode] = []
    current = "x"
    graph_input = Tensor("x", "f32", (1, width))

    for i, layer in enumerate(ckpt.layers):
        prefix = f"layer{i}"
        if layer.kind == "linear":
            assert layer.weight is not None and layer.bias is not None
            n_in = len(layer.weight[0])
            if n_in != width:
                raise ConversionError(
                    f"{prefix}: expects {n_in} inputs but the preceding "
                    f"layer produces {width}")
            weight, bias = _weight_tensors(prefix, _transpose(layer.weight),
                                           layer.bias)
            initializers += [weight, bias]
            nodes.append(GraphNode(f"{prefix}/matmul", "MatMul",
                                   (current, weight.name), (f"{prefix}/mm",)))
            nodes.append(GraphNode(f"{prefix}/add", "Add",
                                   (f"{prefix}/mm", bias.name),
                                   (f"{prefix}/out",)))
            width = len(layer.weight)
        else:
            attrs = {} if layer.axis is None else {"axis": layer.axis}
            nodes.append(GraphNode(f"{prefix}/{layer.kind}",
                                   _ACT_OP[layer.kind],
                                   (current,), (f"{prefix}/out",), attrs))
        current = f"{prefix}/out"

    graph = InterchangeGraph(
        name=model_name,
        ir_version=ir_version,
        inputs=(graph_input,),
        outputs=(Tensor(current, "f32", (1, width)),),
        initializers=tuple(initializers),
        nodes=tuple(nodes),
    )
    report = validate_graph(graph)
    if not report.ok:
        raise ConversionError(
            "conversion produced an invalid graph: " + report.violations[0])
    return graph


def convert_layerdag(ckpt: LayerDagCheckpoint, model_name: str,
                     ir_version: int) -> InterchangeGraph:
    """Layer DAG -> graph whose inputs/outputs mirror the checkpoint's.

    Each dag node produces a tensor carrying its own name, so inbound
    references translate directly; a dense node lowers to a MatMul/Add pair.
    """
    _check_model_name(model_name)
    known = {inp.name for inp in ckpt.inputs} | set(ckpt.nodes)
    for name, node in ckpt.nodes.items():
        for ref in node.inbound:
            if ref not in known:
                raise ConversionError(
                    f"node '{name}' references unresolved name '{ref}'")
    for name in ckpt.outputs:
        if name not in ckpt.nodes:
            raise ConversionError(
                f"checkpoint output '{name}' is not a node")

    initializers: list[Tensor] = []
    nodes: list[GraphNode] = []
    for name, node in ckpt.nodes.items():
        if node.kind == "dense":
            assert node.kernel is not None and node.bias is not None
            if len(node.inbound) != 1:
                raise ConversionError(
                    f"node '{name}': dense takes exactly one inbound, "
                    f"has {len(node.inbound)}")
            weight, bias = _weight_tensors(name, node.kernel, node.bias)
            initializers += [weight, bias]
            nodes.append(GraphNode(f"{name}/matmul", "MatMul",
                                   (node.inbound[0], weight.name),
                                   (f"{name}/mm",)))
            nodes.append(GraphNode(f"{name}/add", "Add",
                                   (f"{name}/mm", bias.name), (name,)))
        elif node.kind == "concat":
            if len(node.inbound) < 2:
                raise ConversionError(
                    f"node '{name}': concat needs at least two inbound names")
            nodes.append(GraphNode(name, "Concat", node.inbound, (name,),
                                   {"axis": node.axis}))
        else:
            if len(node.inbound) != 1:
                raise ConversionError(
                    f"node '{name}': {node.kind} takes exactly one inbound")
            attrs = {} if node.axis is None else {"axis": node.axis}
            nodes.append(GraphNode(name, _ACT_OP[node.kind], node.inbound,
                                   (name,), attrs))

    graph_inputs = tuple(Tensor(inp.name, "f32", inp.shape)
                         for inp in ckpt.inputs)
    skeleton = InterchangeGraph(
        name=model_name,
        ir_version=ir_version,
        inputs=graph_inputs,
        initializers=tuple(initializers),
        nodes=tuple(nodes),
    )
    report = validate_graph(skeleton)
    if not report.ok:
        raise ConversionError(
            "conversion produced an invalid graph: " + report.violations[0])
    shapes = infer_shapes(skeleton)
    outputs = tuple(Tensor(name, "f32", shapes[name])
                    for name in ckpt.outputs)
    return InterchangeGraph(
        name=model_name,
        ir_version=ir_version,
        inputs=graph_inputs,
        outputs=outputs,
        initializers=tuple(initializers),
        nodes=tuple(nodes),
    )


BACKENDS = ("pt", "tf")


def convert_checkpoint_bytes(backend: str, data: bytes, model_name: str,
                             ir_version: int) -> InterchangeGraph:
    """Convert one checkpoint document using the given backend frontend."""
    if backend == "pt":
        return convert_sequential(parse_sequential(data), model_name,
                                  ir_version)
    if backend == "tf":
        return convert_layerdag(parse_layerdag(data), model_name, ir_version)
    raise UnknownBackendError(f"unknown conversion backend {backend!r}")


def run_conversion_task(cfg: TaskConfig) -> list[Path]:
    """Convert every (backend, model_file) pair and write interchange files.

    Items are converted in order, all in memory before any export file is
    written, so a bad checkpoint never leaves partial output behind.
    ``device_args.worker_num`` is not consulted: conversion is pure Python,
    and threads would not make it faster.
    """
    if cfg.general.task != "conversion":
        raise ConfigError(
            f"conversion task got config for task {cfg.general.task!r}")
    names = as_list(cfg.task_args.get("model_name"))
    files = as_list(cfg.task_args.get("model_file"))
    exports = cfg.export_files
    backends = as_list(cfg.general.backend)
    if not backends:
        raise ConfigError("conversion requires general_args.backend")
    if len(backends) == 1:
        backends = backends * len(files)
    lengths = {len(names), len(files), len(exports), len(backends)}
    if len(lengths) != 1:
        raise ConfigError(
            "conversion requires equal-length model_name/model_file/"
            f"export_file/backend sequences, got {len(names)}/{len(files)}/"
            f"{len(exports)}/{len(backends)}")
    if len(set(exports)) != len(exports):
        raise ConfigError("conversion export_file entries must be distinct")
    for backend in backends:
        if backend not in BACKENDS:
            raise UnknownBackendError(
                f"unknown conversion backend {backend!r}")

    ir_version = cfg.task_args.get("onnx_version", 1)
    payloads = []
    for backend, name, path in zip(backends, names, files):
        src = cfg.resolve(path)
        if not src.is_file():
            raise ConversionError(f"model file not found: {path}")
        payloads.append(serialize_graph(convert_checkpoint_bytes(
            backend, src.read_bytes(), name, ir_version)))

    written = []
    for export, payload in zip(exports, payloads):
        dst = cfg.resolve(export)
        dst.parent.mkdir(parents=True, exist_ok=True)
        dst.write_bytes(payload)
        logger.info("converted model written: %s", dst)
        written.append(dst)
    return written
