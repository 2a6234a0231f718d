"""Deterministic interpreter for interchange graphs.

Nodes are evaluated in topological order with numpy kernels operating in
the tensor's own dtype; there is no fusion, reordering, or broadcasting, so
two executions of the same graph on the same inputs produce bit-identical
results.  ``prepare`` takes a graph's order and shapes from the one pass
of ``interchange`` and binds it once into a ``Plan``, which ``Plan.run``
then runs on any number of inputs; ``execute`` is the two in one call.
``device: "gpu"`` requests are honored on CPU with a logged warning; this
runtime has no accelerator backend.
"""

from __future__ import annotations

import hashlib
import logging
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

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
    GraphNode,
    InterchangeGraph,
    OpSpec,
    Shape,
    Tensor,
    _check_outputs,
    _checked,
    _parse_tensor,
    _tensor_to_doc,
    compose_graphs,
    node_output_shapes,
    op_spec,
    parse_graph,
)

logger = logging.getLogger(__name__)

_PLAN_BYTES_KEPT = 64 << 20  # summed Plan.nbytes one PlanCache keeps


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
        bad = next(name for name in ts.names()
                   if not np.isfinite(ts[name].data).all())
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
    """The tensor's own read-only data in its shape, not a copy."""
    if t.data is None:
        raise ExecutionError(f"tensor '{t.name}' carries no data")
    return t.data.reshape(t.shape)


def _checked_op(node: GraphNode, dtypes: Sequence[str]) -> OpSpec:
    """The node's op, once its input dtypes agree and suit that op."""
    if not dtypes:
        raise ExecutionError(f"node '{node.id}' received no inputs")
    for dtype in dtypes[1:]:
        if dtype != dtypes[0]:
            raise ExecutionError(
                f"node '{node.id}': mixed input dtypes "
                f"{dtypes[0]} and {dtype}")
    spec = op_spec(node)
    if dtypes[0] == "i64" and spec.float_only:
        raise ExecutionError(
            f"node '{node.id}': {node.op_type} requires a floating dtype")
    return spec


def _check_result(node_id: str, result: np.ndarray, shape: Shape) -> None:
    if result.shape != shape:
        raise ShapeMismatchError(
            f"node '{node_id}': kernel produced shape {list(result.shape)}, "
            f"expected {list(shape)}")


def apply_node(node: GraphNode, inputs: Sequence[Tensor]) -> list[Tensor]:
    """Evaluate one node; checks dtype agreement and shape legality."""
    spec = _checked_op(node, [t.dtype for t in inputs])
    out_shapes = node_output_shapes(node, [t.shape for t in inputs])
    result = spec.kernel(node.attributes, [to_array(t) for t in inputs])
    _check_result(node.id, result, out_shapes[0])
    return [Tensor(node.outputs[0], inputs[0].dtype, result.shape, result)]


@dataclass(frozen=True, slots=True)
class _Step:
    node_id: str
    kernel: Callable[..., np.ndarray]
    attributes: dict[str, Any]
    args: tuple[int, ...]  # slots of the node's inputs
    out: int  # slot of its output
    shape: Shape  # inferred shape of its output


@dataclass(frozen=True, eq=False)
class Plan:
    """A graph checked and bound once by ``prepare``, to be run many times.

    Slots number the graph's inputs, then its initializers, then each
    step's output.  The initializers are the graph tensors' own read-only
    arrays, so no kernel can change them between runs.
    """

    inputs: tuple[Tensor, ...]  # declared graph inputs, without data
    constants: tuple[np.ndarray, ...]
    steps: tuple[_Step, ...]  # in topological order
    outputs: tuple[tuple[str, str, int], ...]  # (name, dtype, slot)

    @property
    def nbytes(self) -> int:
        """The arrays' bytes, plus a nominal 1 KiB per step for the objects
        a step and an array hold, so plans without weights are bounded in
        number too."""
        return sum(a.nbytes for a in self.constants) + 1024 * len(self.steps)

    def run(self, inputs: NamedTensorSet) -> NamedTensorSet:
        """Check the inputs against the declared ones, run every step and
        check its result's shape; returns exactly the declared outputs."""
        env: list[Any] = [_input_array(spec, inputs) for spec in self.inputs]
        env += self.constants
        env += [None] * len(self.steps)
        for step in self.steps:
            result = step.kernel(step.attributes, [env[i] for i in step.args])
            _check_result(step.node_id, result, step.shape)
            env[step.out] = result
        return NamedTensorSet.from_tensors(
            Tensor(name, dtype, env[slot].shape, env[slot])
            for name, dtype, slot in self.outputs)


def _input_array(spec: Tensor, inputs: NamedTensorSet) -> np.ndarray:
    if spec.name not in inputs:
        raise MissingTensorError(f"graph input '{spec.name}' not supplied")
    t = inputs[spec.name]
    if t.shape != spec.shape:
        raise ShapeMismatchError(
            f"input '{spec.name}': supplied shape {list(t.shape)} does "
            f"not match declared {list(spec.shape)}")
    if t.dtype != spec.dtype:
        raise ExecutionError(
            f"input '{spec.name}': supplied dtype {t.dtype} does not "
            f"match declared {spec.dtype}")
    return to_array(t)


def prepare(g: InterchangeGraph) -> Plan:
    """Check ``g`` once and bind each node to its kernel and slots.

    Everything that does not depend on the inputs is checked here.  The
    one pass ``interchange._checked`` checks the graph's structure, sorts
    it and infers every shape; then, along its order, each node's input
    dtypes are checked as it is bound, and last the declared output shapes.
    """
    try:
        order, shapes = _checked(g)
    except InvalidGraphError as exc:  # a CycleError too
        raise InvalidGraphError(
            f"cannot execute invalid graph: {exc}") from None

    known = g.inputs + g.initializers
    slots = {t.name: i for i, t in enumerate(known)}
    dtypes = {t.name: t.dtype for t in known}
    steps = []
    for node in order:
        spec = _checked_op(node, [dtypes[name] for name in node.inputs])
        out = node.outputs[0]
        slots[out] = len(slots)
        dtypes[out] = dtypes[node.inputs[0]]
        steps.append(_Step(node.id, spec.kernel, node.attributes,
                           tuple(slots[name] for name in node.inputs),
                           slots[out], shapes[out]))
    _check_outputs(g, shapes)
    return Plan(g.inputs, tuple(map(to_array, g.initializers)), tuple(steps),
                tuple((t.name, dtypes[t.name], slots[t.name])
                      for t in g.outputs))


def execute(g: InterchangeGraph, inputs: NamedTensorSet) -> NamedTensorSet:
    """Run the graph; returns exactly its declared outputs."""
    return prepare(g).run(inputs)


class PlanCache:
    """Prepared plans, the least recently used dropped first.

    The caller keys a plan by the content digests of the bytes it was built
    from, so a key finds only a plan of those very bytes.  The kept plans'
    ``nbytes`` sum to at most ``_PLAN_BYTES_KEPT``; a larger plan is not
    kept.  Look-ups and inserts hold a lock; builds happen outside it.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._plans: OrderedDict[tuple, Plan] = OrderedDict()
        self._nbytes = 0

    def get(self, key: tuple) -> Plan | None:
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self._plans.move_to_end(key)
            return plan

    def keep(self, key: tuple, plan: Plan) -> None:
        if plan.nbytes > _PLAN_BYTES_KEPT:
            return
        with self._lock:
            if key in self._plans:  # built meanwhile by another task
                return
            self._plans[key] = plan
            self._nbytes += plan.nbytes
            while self._nbytes > _PLAN_BYTES_KEPT:
                self._nbytes -= self._plans.popitem(last=False)[1].nbytes


# ---------------------------------------------------------------------------
# inference task


def _bind_inputs(specs: Sequence[Tensor],
                 ts: NamedTensorSet) -> NamedTensorSet:
    """Match supplied tensors to the declared graph inputs ``specs``.

    Exact names win; otherwise a tensor may match by basename (the part
    after the last '/'), which covers composition-prefixed inputs fed from
    user files written against the original model's names.
    """
    bound = []
    for spec in specs:
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


def _read_model(cfg: TaskConfig, ref: str, store: Any) -> bytes:
    # pid references resolve through the store's trusted server-side reader
    if store is not None and is_pid(ref):
        return store.read_blob_by_pid(ref)
    path = cfg.resolve(ref)
    if not path.is_file():
        raise ExecutionError(f"model file not found: {ref}")
    return path.read_bytes()


def _task_graph(cfg: TaskConfig, blobs: Sequence[bytes]) -> InterchangeGraph:
    graphs = [parse_graph(blob) for blob in blobs]
    if cfg.general.tag == "collaboration":
        if len(graphs) != 2:
            raise ConfigError(
                f"collaboration requires exactly two models, "
                f"got {len(graphs)}")
        producer, consumer = graphs
        binding = [(src.name, dst.name)
                   for src, dst in zip(producer.outputs, consumer.inputs)]
        return compose_graphs(producer, consumer, binding)
    if len(graphs) != 1:
        raise ConfigError(
            "multiple model files require general_args.tag 'collaboration'")
    return graphs[0]


def run_inference_task(cfg: TaskConfig, store: Any = None,
                       plans: PlanCache | None = None) -> Path:
    """Load model(s), optionally compose for collaboration, run, write out.

    With ``tag: "collaboration"`` exactly two models are composed in listed
    order (first feeds second); model references may be registry pids when a
    store is supplied.  The model bytes are read (and a pid's blob verified)
    on every task, and the plan built from them is looked up in ``plans``
    by their sha256 digests, so parsing, composing and preparing happen
    once per set of model bytes.  ``cfg`` has passed ``validate_config``.
    """
    backend = cfg.general.backend
    if backend != "onnx":
        raise UnknownBackendError(
            f"inference supports backend 'onnx', got {backend!r}")
    if cfg.device.device == "gpu":
        logger.warning("executing on cpu (gpu unavailable in reference "
                       "runtime)")
    plans = PlanCache() if plans is None else plans

    blobs = [_read_model(cfg, ref, store)
             for ref in as_list(cfg.task_args["model_file"])]
    key = (cfg.general.tag == "collaboration",
           *(hashlib.sha256(blob).digest() for blob in blobs))
    plan = plans.get(key)
    graph = None if plan else _task_graph(cfg, blobs)

    input_ref = cfg.task_args["input"]
    input_path = cfg.resolve(input_ref)
    if not input_path.is_file():
        raise ExecutionError(f"input file not found: {input_ref}")
    tensor_set = parse_tensor_set(input_path.read_bytes())
    bound = _bind_inputs((plan or graph).inputs, tensor_set)

    if plan is None:
        plan = prepare(graph)
        plans.keep(key, plan)
    outputs = plan.run(bound)

    out_path = cfg.resolve(cfg.export_files[0])
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_bytes(serialize_tensor_set(outputs))
    logger.info("inference output written: %s", out_path)
    return out_path
