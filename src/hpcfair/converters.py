"""Checkpoint frontends: translate framework-style model files into graphs.

Two source formats are supported, deliberately asymmetric in their weight
conventions so that orientation is normalized here and not in the runtime:

* ``pt-ckpt-v1`` -- a sequential stack of layers where a linear layer stores
  ``weight`` as [out, in] and computes y = x . W^T + b.
* ``tf-ckpt-v1`` -- a layer DAG where a dense node stores ``kernel`` as
  [in, out] and computes y = x . K + b.

Both are structured-text (JSON) documents with an explicit ``format_tag``.
A frontend reads its document and emits initializers and nodes as it goes,
checking the document itself (``malformed_document``) and, once it is read,
only what a graph cannot show: the model name, a pt stack with no linear
layer, and tf outputs and references that can name no node.  ``_graph``
then builds the interchange graph and leaves every structural and shape
check to the one pass over a graph (``interchange._checked``) that the
runtime runs too; what it refuses is a ``ConversionError`` in either format.
Converted graphs carry f32 tensors; weights are snapped onto the f32 grid as
they are read, so serialization prints exact values.  Linear/dense layers
assume batch-1 inputs [1, n]: the bias is materialized as a [1, out]
initializer and added without broadcasting.
"""

from __future__ import annotations

import logging
from dataclasses import replace
from itertools import chain
from pathlib import Path
from typing import Any

import numpy as np

from ._canonical import INT, LIST, NAME, OBJECT, POSITIVE, STR, Kind, check, \
    fields, loads_canonical
from .config import TaskConfig, as_list
from .errors import ConfigError, ConversionError, InvalidGraphError, \
    MalformedDocumentError, ShapeMismatchError, UnknownBackendError
from .interchange import GraphNode, InterchangeGraph, Tensor, _checked, \
    _expect, numbers, serialize_graph

logger = logging.getLogger(__name__)

SEQUENTIAL_TAG = "pt-ckpt-v1"
LAYERDAG_TAG = "tf-ckpt-v1"

_OP_TYPE = {"relu": "Relu", "sigmoid": "Sigmoid", "tanh": "Tanh",
            "softmax": "Softmax", "concat": "Concat"}
# tuples: `in` must not hash an unhashable kind
_LAYER_KINDS = ("relu", "sigmoid", "tanh", "softmax")
_DAG_OPS = ("dense", "concat") + _LAYER_KINDS

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


def _check_model_name(model_name: str) -> None:
    if not model_name or "/" in model_name:
        raise ConversionError(
            f"model name {model_name!r} must be non-empty and contain no '/'")


def _dense(prefix: str, inbound: tuple[str, ...], kernel: np.ndarray,
           bias: np.ndarray, out: str, initializers: list[Tensor],
           nodes: list[GraphNode]) -> None:
    """Emit out = inbound . kernel + bias as MatMul/Add; kernel is [in, out]
    and every inbound name feeds the MatMul."""
    weight = Tensor(f"{prefix}/weight", "f32", kernel.shape, kernel)
    row = Tensor(f"{prefix}/bias", "f32", (1, len(bias)), bias)
    initializers += [weight, row]
    nodes += [GraphNode(f"{prefix}/matmul", "MatMul", inbound + (weight.name,),
                        (f"{prefix}/mm",)),
              GraphNode(f"{prefix}/add", "Add", (f"{prefix}/mm", row.name),
                        (out,))]


def _graph(model_name: str, ir_version: int, inputs: tuple[Tensor, ...],
           initializers: list[Tensor], nodes: list[GraphNode],
           outputs: list[str]) -> InterchangeGraph:
    """The converted graph, once the interchange pass ``_checked`` accepts
    it; ``outputs`` are declared with their inferred shapes."""
    # checked with its outputs, whose shape () stands in until inferred
    graph = InterchangeGraph(model_name, ir_version, inputs, tuple(
        Tensor(name, "f32", ()) for name in outputs), initializers, nodes)
    try:
        shapes = _checked(graph)[1]
    except (InvalidGraphError, ShapeMismatchError) as exc:
        raise ConversionError(
            f"conversion produced an invalid graph: {exc}") from None
    return replace(graph, outputs=tuple(Tensor(name, "f32", shapes[name])
                                        for name in outputs))


def convert_sequential(data: bytes | str, model_name: str,
                       ir_version: int) -> InterchangeGraph:
    """pt sequential stack -> graph with one input "x" and one output.

    Each linear layer lowers to MatMul(x, W^T) + Add(bias); node ids are
    "layer<i>/<op>".  The input width comes from the first linear layer, so
    a checkpoint with no linear layer at all is underdetermined and rejected.
    """
    doc = loads_canonical(data, "checkpoint", MalformedDocumentError)
    tag, raw_layers = fields(doc, "checkpoint", MalformedDocumentError,
                             {"format_tag": None, "layers": LIST})
    _expect(tag == SEQUENTIAL_TAG,
            f"expected format_tag '{SEQUENTIAL_TAG}', got {tag!r}")
    initializers: list[Tensor] = []
    nodes: list[GraphNode] = []
    width = 0  # the input width: the first linear layer's
    current = "x"
    for i, raw in enumerate(raw_layers):
        where, prefix = f"layer {i}", f"layer{i}"
        kind = check(raw, OBJECT, where, MalformedDocumentError).get("kind")
        if kind == "linear":
            _, weight, bias = fields(raw, where, MalformedDocumentError,
                                     {"kind": None, "weight": None,
                                      "bias": None})
            weight = _parse_matrix(weight, f"{where} weight")
            _dense(prefix, (current,), weight.T,
                   _parse_vector(bias, f"{where} bias"), f"{prefix}/out",
                   initializers, nodes)
            width = width or weight.shape[1]
        elif kind in _LAYER_KINDS:  # softmax alone takes an axis
            _, *axis = fields(raw, where, MalformedDocumentError,
                              {"kind": None}
                              | (_AXIS if kind == "softmax" else {}))
            nodes.append(GraphNode(f"{prefix}/{kind}", _OP_TYPE[kind],
                                   (current,), (f"{prefix}/out",),
                                   dict(zip(_AXIS, axis))))
        else:
            raise MalformedDocumentError(
                f"{where}: unknown layer kind {kind!r}")
        current = f"{prefix}/out"

    _check_model_name(model_name)
    if not raw_layers:
        raise ConversionError("checkpoint has no layers")
    if not width:
        raise ConversionError(
            "checkpoint has no linear layer; input width is underdetermined")
    return _graph(model_name, ir_version, (Tensor("x", "f32", (1, width)),),
                  initializers, nodes, [current])


def convert_layerdag(data: bytes | str, model_name: str,
                     ir_version: int) -> InterchangeGraph:
    """tf layer DAG -> graph whose inputs/outputs mirror the checkpoint's.

    Each dag node produces a tensor carrying its own name, so inbound
    references translate directly; a dense node lowers to a MatMul/Add pair.
    """
    doc = loads_canonical(data, "checkpoint", MalformedDocumentError)
    # outputs are tested after the nodes, so a node's fault is named first
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
        inputs.append(Tensor(name, "f32", shape))

    initializers: list[Tensor] = []
    nodes: list[GraphNode] = []
    # no checkpoint name holds a '/', so one that does could only reach a
    # tensor of the lowering ("<node>/mm")
    unresolved = []
    for name, raw in raw_nodes.items():
        where = f"node '{name}'"
        _expect(name and "/" not in name,
                "node names must be non-empty and contain no '/'")
        kind, inbound, params, attrs = fields(
            raw, where, MalformedDocumentError,
            {"op": None, "inbound": _NAMES},
            {"params": (None, None), "attrs": (None, None)})
        _expect(kind in _DAG_OPS, f"{where}: unknown op {kind!r}")
        unresolved += [(name, ref) for ref in inbound if "/" in ref]
        if kind == "dense":
            kernel, bias = fields(params, f"{where} params",
                                  MalformedDocumentError,
                                  {"kernel": None, "bias": None})
            kernel = _parse_matrix(kernel, f"{where} kernel")
            _dense(name, tuple(inbound), kernel,
                   _parse_vector(bias, f"{where} bias"), name, initializers,
                   nodes)
        else:
            _expect(params is None, f"{where}: only dense takes params")
        if kind in ("softmax", "concat"):
            (axis,) = fields(attrs, f"{where} attrs", MalformedDocumentError,
                             _AXIS)
            attrs = {"axis": axis}
        else:
            _expect(attrs is None, f"{where}: '{kind}' takes no attrs")
        if kind != "dense":
            nodes.append(GraphNode(name, _OP_TYPE[kind], inbound, (name,),
                                   attrs or {}))
    check(raw_outputs, _NAMES, "checkpoint: 'outputs'",
          MalformedDocumentError)

    _check_model_name(model_name)
    if unresolved:
        raise ConversionError(
            "node '%s' references unresolved name '%s'" % unresolved[0])
    for name in raw_outputs:
        if name not in raw_nodes:
            raise ConversionError(
                f"checkpoint output '{name}' is not a node")
    return _graph(model_name, ir_version, tuple(inputs), initializers, nodes,
                  raw_outputs)


BACKENDS = ("pt", "tf")


def convert_checkpoint_bytes(backend: str, data: bytes, model_name: str,
                             ir_version: int) -> InterchangeGraph:
    """Convert one checkpoint document using the given backend frontend."""
    if backend == "pt":
        return convert_sequential(data, model_name, ir_version)
    if backend == "tf":
        return convert_layerdag(data, model_name, ir_version)
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
