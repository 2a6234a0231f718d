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
from itertools import chain
from pathlib import Path
from typing import Any

import numpy as np

from ._canonical import INT, LIST, NAME, OBJECT, POSITIVE, STR, Kind, check, \
    fields, loads_canonical
from .config import TaskConfig, as_list
from .errors import ConfigError, ConversionError, MalformedDocumentError, \
    UnknownBackendError
from .interchange import GraphNode, InterchangeGraph, Tensor, _expect, \
    infer_shapes, numbers, serialize_graph, validate_graph

logger = logging.getLogger(__name__)

SEQUENTIAL_TAG = "pt-ckpt-v1"
LAYERDAG_TAG = "tf-ckpt-v1"

_ACTIVATIONS = ("relu", "sigmoid", "tanh")
_DAG_OPS = ("dense",) + _ACTIVATIONS + ("softmax", "concat")
_ACT_OP = {"relu": "Relu", "sigmoid": "Sigmoid", "tanh": "Tanh",
           "softmax": "Softmax"}


@dataclass(frozen=True)
class SequentialLayer:
    kind: str  # "linear" | "relu" | "sigmoid" | "tanh" | "softmax"
    weight: np.ndarray | None = None  # f32 [out, in]
    bias: np.ndarray | None = None  # f32 [out]
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
    kernel: np.ndarray | None = None  # f32 [in, out]
    bias: np.ndarray | None = None  # f32 [out]
    axis: int | None = None


@dataclass(frozen=True)
class LayerDagCheckpoint:
    inputs: tuple[DagInput, ...]
    nodes: dict[str, DagNode] = field(default_factory=dict)
    outputs: tuple[str, ...] = ()
    format_tag: str = LAYERDAG_TAG


# ---------------------------------------------------------------------------
# checkpoint document parsing


_ROW = Kind("a non-empty list", "non-empty lists",
           lambda v: LIST.test(v) and v != [])
_MATRIX = _ROW.list(nonempty=True)
_NAMES = STR.list(nonempty=True)
_AXIS = {"axis": INT}


def _parse_matrix(raw: Any, where: str) -> np.ndarray:
    check(raw, _MATRIX, where, MalformedDocumentError)
    _expect(all(len(row) == len(raw[0]) for row in raw),
            f"{where} rows have unequal lengths")
    flat = numbers(list(chain.from_iterable(raw)), "f32", where)
    return flat.reshape(len(raw), len(raw[0]))


def _parse_vector(raw: Any, where: str) -> np.ndarray:
    return numbers(check(raw, _ROW, where, MalformedDocumentError), "f32",
                   where)


def parse_sequential(data: bytes | str) -> SequentialCheckpoint:
    doc = loads_canonical(data, "checkpoint", MalformedDocumentError)
    tag, raw_layers = fields(doc, "checkpoint", MalformedDocumentError,
                             {"format_tag": None, "layers": LIST})
    _expect(tag == SEQUENTIAL_TAG,
            f"expected format_tag '{SEQUENTIAL_TAG}', got {tag!r}")
    layers = []
    for i, raw in enumerate(raw_layers):
        where = f"layer {i}"
        kind = check(raw, OBJECT, where, MalformedDocumentError).get("kind")
        if kind == "linear":
            _, weight, bias = fields(raw, where, MalformedDocumentError,
                                     {"kind": None, "weight": None,
                                      "bias": None})
            weight = _parse_matrix(weight, f"{where} weight")
            bias = _parse_vector(bias, f"{where} bias")
            if len(weight) != len(bias):
                raise ConversionError(
                    f"{where}: weight has {len(weight)} output rows but bias "
                    f"has {len(bias)} entries")
            layers.append(SequentialLayer("linear", weight=weight, bias=bias))
        elif kind in _ACTIVATIONS:
            fields(raw, where, MalformedDocumentError, {"kind": None})
            layers.append(SequentialLayer(kind))
        elif kind == "softmax":
            _, axis = fields(raw, where, MalformedDocumentError,
                             {"kind": None} | _AXIS)
            layers.append(SequentialLayer("softmax", axis=axis))
        else:
            raise MalformedDocumentError(
                f"{where}: unknown layer kind {kind!r}")
    return SequentialCheckpoint(tuple(layers))


def parse_layerdag(data: bytes | str) -> LayerDagCheckpoint:
    doc = loads_canonical(data, "checkpoint", MalformedDocumentError)
    # outputs are tested after the nodes, which can raise ConversionError
    tag, raw_inputs, raw_nodes, raw_outputs = fields(
        doc, "checkpoint", MalformedDocumentError,
        {"format_tag": None, "inputs": OBJECT.list(nonempty=True),
         "nodes": Kind("a non-empty object", "objects",
                       lambda v: OBJECT.test(v) and v != {})},
        {"outputs": (None, None)})
    _expect(tag == LAYERDAG_TAG,
            f"expected format_tag '{LAYERDAG_TAG}', got {tag!r}")
    inputs = []
    for raw in raw_inputs:
        name, shape = fields(raw, "input", MalformedDocumentError,
                             {"name": NAME,
                              "shape": POSITIVE.list(nonempty=True)})
        _expect("/" not in name, f"input '{name}': name contains '/'")
        inputs.append(DagInput(name, tuple(shape)))

    nodes: dict[str, DagNode] = {}
    for name, raw in raw_nodes.items():
        where = f"node '{name}'"
        _expect(name and "/" not in name,
                "node names must be non-empty and contain no '/'")
        kind, inbound, params, attrs = fields(
            raw, where, MalformedDocumentError,
            {"op": None, "inbound": _NAMES},
            {"params": (None, None), "attrs": (None, None)})
        _expect(kind in _DAG_OPS, f"{where}: unknown op {kind!r}")
        kernel = bias = axis = None
        if kind == "dense":
            kernel, bias = fields(params, f"{where} params",
                                  MalformedDocumentError,
                                  {"kernel": None, "bias": None})
            kernel = _parse_matrix(kernel, f"{where} kernel")
            bias = _parse_vector(bias, f"{where} bias")
            if len(kernel[0]) != len(bias):
                raise ConversionError(
                    f"{where}: kernel has {len(kernel[0])} output columns "
                    f"but bias has {len(bias)} entries")
        else:
            _expect(params is None, f"{where}: only dense takes params")
        if kind in ("softmax", "concat"):
            (axis,) = fields(attrs, f"{where} attrs", MalformedDocumentError,
                             _AXIS)
        else:
            _expect(attrs is None, f"{where}: '{kind}' takes no attrs")
        nodes[name] = DagNode(kind, tuple(inbound), kernel=kernel,
                              bias=bias, axis=axis)

    check(raw_outputs, _NAMES, "checkpoint: 'outputs'",
          MalformedDocumentError)
    return LayerDagCheckpoint(tuple(inputs), nodes, tuple(raw_outputs))


# ---------------------------------------------------------------------------
# conversion to interchange graphs


def _check_model_name(model_name: str) -> None:
    if not model_name or "/" in model_name:
        raise ConversionError(
            f"model name {model_name!r} must be non-empty and contain no '/'")


def _weight_tensors(prefix: str, columns_by_row: np.ndarray,
                    bias: np.ndarray) -> tuple[Tensor, Tensor]:
    # columns_by_row is already [in, out]; callers transpose if needed
    return (Tensor(f"{prefix}/weight", "f32", columns_by_row.shape,
                   columns_by_row),
            Tensor(f"{prefix}/bias", "f32", (1, len(bias)), bias))


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
            weight, bias = _weight_tensors(prefix, layer.weight.T,
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
    and threads would not make it faster.  ``cfg`` has passed
    ``validate_config``, so its lists are aligned.
    """
    names = as_list(cfg.task_args["model_name"])
    files = as_list(cfg.task_args["model_file"])
    exports = cfg.export_files
    backends = as_list(cfg.general.backend)
    if len(backends) == 1:
        backends = backends * len(files)
    if len(set(exports)) != len(exports):
        raise ConfigError("conversion export_file entries must be distinct")
    for backend in backends:
        if backend not in BACKENDS:
            raise UnknownBackendError(
                f"unknown conversion backend {backend!r}")

    # null counts as absent; validate_config rejects 0
    ir_version = cfg.task_args.get("onnx_version") or 1
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
