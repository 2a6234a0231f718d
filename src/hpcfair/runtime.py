"""Deterministic interpreter for interchange graphs.

Nodes are evaluated in ``topo_sort`` order with numpy kernels operating in
the tensor's own dtype; there is no fusion, reordering, or broadcasting, so
two executions of the same graph on the same inputs produce bit-identical
results.  ``device: "gpu"`` requests are honored on CPU with a logged
warning; this runtime has no accelerator backend.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Sequence

import numpy as np

from ._canonical import LIST, check, dumps_canonical, loads_canonical
from .config import TaskConfig, as_list, is_pid
from .errors import (
    ConfigError,
    ExecutionError,
    InvalidGraphError,
    MalformedDocumentError,
    MissingTensorError,
    ShapeMismatchError,
    UnknownBackendError,
)
from .interchange import (
    NP_DTYPES,
    GraphNode,
    InterchangeGraph,
    Tensor,
    _parse_tensor,
    _tensor_to_doc,
    compose_graphs,
    node_output_shapes,
    op_spec,
    parse_graph,
    topo_sort,
    validate_graph,
)

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class NamedTensorSet:
    """Immutable bundle of uniquely named tensors, all carrying data."""

    entries: dict[str, Tensor] = field(default_factory=dict)

    @classmethod
    def from_tensors(cls, tensors: Iterable[Tensor]) -> "NamedTensorSet":
        entries: dict[str, Tensor] = {}
        for t in tensors:
            if t.name in entries:
                raise ExecutionError(f"duplicate tensor name '{t.name}'")
            if t.data is None:
                raise ExecutionError(f"tensor '{t.name}' carries no data")
            entries[t.name] = t
        return cls(entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, name: str) -> bool:
        return name in self.entries

    def __getitem__(self, name: str) -> Tensor:
        return self.entries[name]

    def names(self) -> list[str]:
        return sorted(self.entries)


def serialize_tensor_set(ts: NamedTensorSet) -> bytes:
    """Canonical bytes: entries sorted by name, interchange number rules."""
    docs = [_tensor_to_doc(ts[name], with_data=True) for name in ts.names()]
    try:
        return dumps_canonical(docs)
    except ValueError:  # only non-finite floats have no JSON form
        bad = next(doc["name"] for doc in docs
                   if not all(math.isfinite(x) for x in doc["data"]))
        raise ExecutionError(f"tensor '{bad}' holds a non-finite value "
                             "(f32 overflow or NaN)") from None


def parse_tensor_set(data: bytes | str) -> NamedTensorSet:
    doc = loads_canonical(data, "tensor document", MalformedDocumentError)
    check(doc, LIST, "tensor document", MalformedDocumentError)
    return NamedTensorSet.from_tensors(
        [_parse_tensor(entry, with_data=True, where="tensor set")
         for entry in doc])


# ---------------------------------------------------------------------------
# node evaluation (the kernels are in interchange.OPERATORS)


def to_array(t: Tensor) -> np.ndarray:
    if t.data is None:
        raise ExecutionError(f"tensor '{t.name}' carries no data")
    return np.array(t.data, dtype=NP_DTYPES[t.dtype]).reshape(t.shape)


def from_array(name: str, dtype: str, arr: np.ndarray) -> Tensor:
    flat = tuple(arr.reshape(-1).tolist())
    return Tensor(name, dtype, tuple(int(d) for d in arr.shape), flat)


def apply_node(node: GraphNode, inputs: Sequence[Tensor]) -> list[Tensor]:
    """Evaluate one node; checks dtype agreement and shape legality."""
    if not inputs:
        raise ExecutionError(f"node '{node.id}' received no inputs")
    dtype = inputs[0].dtype
    for t in inputs[1:]:
        if t.dtype != dtype:
            raise ExecutionError(
                f"node '{node.id}': mixed input dtypes "
                f"{dtype} and {t.dtype}")
    spec = op_spec(node)
    if dtype == "i64" and spec.float_only:
        raise ExecutionError(
            f"node '{node.id}': {node.op_type} requires a floating dtype")

    out_shapes = node_output_shapes(node, [t.shape for t in inputs])
    result = spec.kernel(node.attributes, [to_array(t) for t in inputs])
    out = from_array(node.outputs[0], dtype, result)
    if out.shape != out_shapes[0]:
        raise ShapeMismatchError(
            f"node '{node.id}': kernel produced shape {list(out.shape)}, "
            f"expected {list(out_shapes[0])}")
    return [out]


def execute(g: InterchangeGraph, inputs: NamedTensorSet) -> NamedTensorSet:
    """Run the graph; returns exactly its declared outputs."""
    report = validate_graph(g)
    if not report.ok:
        raise InvalidGraphError(
            "cannot execute invalid graph: " + report.violations[0])

    env: dict[str, Tensor] = {}
    for spec in g.inputs:
        if spec.name not in inputs:
            raise MissingTensorError(
                f"graph input '{spec.name}' not supplied")
        t = inputs[spec.name]
        if t.shape != spec.shape:
            raise ShapeMismatchError(
                f"input '{spec.name}': supplied shape {list(t.shape)} does "
                f"not match declared {list(spec.shape)}")
        if t.dtype != spec.dtype:
            raise ExecutionError(
                f"input '{spec.name}': supplied dtype {t.dtype} does not "
                f"match declared {spec.dtype}")
        env[spec.name] = t
    for init in g.initializers:
        env[init.name] = init

    by_id = {node.id: node for node in g.nodes}
    for node_id in topo_sort(g):
        node = by_id[node_id]
        produced = apply_node(node, [env[name] for name in node.inputs])
        for t in produced:
            env[t.name] = t

    results = []
    for spec in g.outputs:
        t = env[spec.name]
        if t.shape != spec.shape:
            raise ShapeMismatchError(
                f"output '{spec.name}': produced shape {list(t.shape)} does "
                f"not match declared {list(spec.shape)}")
        results.append(t)
    return NamedTensorSet.from_tensors(results)


# ---------------------------------------------------------------------------
# inference task


def _bind_inputs(g: InterchangeGraph, ts: NamedTensorSet) -> NamedTensorSet:
    """Match supplied tensors to graph inputs.

    Exact names win; otherwise a tensor may match by basename (the part
    after the last '/'), which covers composition-prefixed inputs fed from
    user files written against the original model's names.
    """
    bound = []
    for spec in g.inputs:
        if spec.name in ts:
            bound.append(ts[spec.name])
            continue
        base = spec.name.rsplit("/", 1)[-1]
        candidates = [name for name in ts.names()
                      if name.rsplit("/", 1)[-1] == base]
        if len(candidates) != 1:
            raise MissingTensorError(
                f"graph input '{spec.name}' not found in the input set "
                f"(names: {ts.names()})")
        bound.append(ts[candidates[0]].renamed(spec.name))
    return NamedTensorSet.from_tensors(bound)


def _load_model(cfg: TaskConfig, ref: str, store: Any) -> InterchangeGraph:
    # pid references resolve through the store's trusted server-side reader
    if store is not None and is_pid(ref):
        return parse_graph(store.read_blob_by_pid(ref))
    path = cfg.resolve(ref)
    if not path.is_file():
        raise ExecutionError(f"model file not found: {ref}")
    return parse_graph(path.read_bytes())


def run_inference_task(cfg: TaskConfig, store: Any = None) -> Path:
    """Load model(s), optionally compose for collaboration, run, write out.

    With ``tag: "collaboration"`` exactly two models are composed in listed
    order (first feeds second); model references may be registry pids when a
    store is supplied.  ``cfg`` has passed ``validate_config``.
    """
    backend = cfg.general.backend
    if backend != "onnx":
        raise UnknownBackendError(
            f"inference supports backend 'onnx', got {backend!r}")
    if cfg.device.device == "gpu":
        logger.warning("executing on cpu (gpu unavailable in reference "
                       "runtime)")

    graphs = [_load_model(cfg, ref, store)
              for ref in as_list(cfg.task_args["model_file"])]

    if cfg.general.tag == "collaboration":
        if len(graphs) != 2:
            raise ConfigError(
                f"collaboration requires exactly two models, "
                f"got {len(graphs)}")
        producer, consumer = graphs
        binding = [(src.name, dst.name)
                   for src, dst in zip(producer.outputs, consumer.inputs)]
        graph = compose_graphs(producer, consumer, binding)
    elif len(graphs) == 1:
        graph = graphs[0]
    else:
        raise ConfigError(
            "multiple model files require general_args.tag 'collaboration'")

    input_ref = cfg.task_args["input"]
    input_path = cfg.resolve(input_ref)
    if not input_path.is_file():
        raise ExecutionError(f"input file not found: {input_ref}")
    tensor_set = parse_tensor_set(input_path.read_bytes())

    outputs = execute(graph, _bind_inputs(graph, tensor_set))

    out_path = cfg.resolve(cfg.export_files[0])
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_bytes(serialize_tensor_set(outputs))
    logger.info("inference output written: %s", out_path)
    return out_path
