"""Framework-neutral computational graph format.

Converted models are expressed as an :class:`InterchangeGraph`: named tensors,
a flat list of nodes drawn from a fixed nine-operator set, and weight
initializers, each holding its numbers as one flat, read-only, owned array.
The module provides structural validation, deterministic topological
ordering, shape inference, a canonical byte serialization (``.onnx`` files
in this system are these documents, not protobuf), and graph composition for
stitching a producer model into a consumer model.  One pass, ``_checked``,
checks, sorts and shapes a graph for conversion, composition,
``infer_shapes`` and ``runtime.prepare``.

All types are immutable values; every operation here is a pure function, so
graphs can be shared freely across threads.
"""

from __future__ import annotations

import copy
import heapq
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from ._canonical import DIM, INT, LIST, NAME, OBJECT, POSITIVE, STR, Kind, \
    check, dumps_canonical, fields, loads_canonical
from .errors import (
    CompositionError,
    CycleError,
    InvalidGraphError,
    MalformedDocumentError,
    ShapeMismatchError,
    UnknownOperatorError,
    ValidationReport,
)

NP_DTYPES = {"f32": np.float32, "f64": np.float64, "i64": np.int64}
DTYPES = tuple(NP_DTYPES)  # a tuple: `in` must not hash an unhashable dtype
_DIMS = DIM.list()
_INTS = INT.list()
_ATTR = Kind("an integer, integer sequence or string", "attributes",
             lambda v: INT.test(v) or STR.test(v) or _INTS.test(v))

Shape = tuple[int, ...]
AttrValue = Any  # int | tuple[int, ...] | str


@dataclass(frozen=True, eq=False)
class Tensor:
    """Dense numeric array; ``data`` is absent for pure specs.

    Otherwise ``data`` is a flat, read-only, owned array of the dtype in
    row-major order, copied once from what the tensor is built from.  An
    empty shape denotes a scalar holding one element.
    """

    name: str
    dtype: str
    shape: Shape
    data: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "shape", tuple(self.shape))
        if self.data is not None:  # an unknown dtype is validate_graph's
            data = np.asarray(self.data, NP_DTYPES.get(self.dtype)).flatten()
            data.flags.writeable = False
            object.__setattr__(self, "data", data)

    def __eq__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        return ((self.name, self.dtype, self.shape, self.data is None)
                == (other.name, other.dtype, other.shape, other.data is None)
                and (self.data is None
                     or np.array_equal(self.data, other.data)))

    @property
    def numel(self) -> int:
        return math.prod(self.shape)

    def renamed(self, name: str) -> "Tensor":
        """The same tensor under ``name``, sharing its read-only data."""
        tensor = copy.copy(self)
        object.__setattr__(tensor, "name", name)
        return tensor


@dataclass(frozen=True)
class GraphNode:
    id: str
    op_type: str
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    attributes: dict[str, AttrValue] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(self, "outputs", tuple(self.outputs))
        attrs = {k: tuple(v) if isinstance(v, (list, tuple)) else v
                 for k, v in self.attributes.items()}
        object.__setattr__(self, "attributes", attrs)


@dataclass(frozen=True)
class InterchangeGraph:
    """A validated graph satisfies single assignment and acyclicity.

    ``initializers`` are kept sorted by tensor name and ``nodes`` by node id,
    so two graphs assembled in different insertion orders compare (and
    serialize) identically.  Input/output order is interface order and is
    preserved as given.
    """

    name: str
    ir_version: int
    inputs: tuple[Tensor, ...] = ()
    outputs: tuple[Tensor, ...] = ()
    initializers: tuple[Tensor, ...] = ()
    nodes: tuple[GraphNode, ...] = ()
    doc: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(self, "outputs", tuple(self.outputs))
        object.__setattr__(
            self, "initializers",
            tuple(sorted(self.initializers, key=lambda t: t.name)))
        object.__setattr__(
            self, "nodes", tuple(sorted(self.nodes, key=lambda n: n.id)))


# ---------------------------------------------------------------------------
# validation


def _check_tensor_spec(t: Tensor, scope: str, *, want_data: bool | None,
                       out: list[str]) -> None:
    where = f"{scope} '{t.name}'"
    if not NAME.test(t.name):
        out.append(f"{scope} has an empty name")
    if t.dtype not in DTYPES:
        out.append(f"{where} has unknown dtype '{t.dtype}'")
    if not _DIMS.test(t.shape):
        out.append(f"{where} has a negative or non-integer dimension")
        return
    if want_data is True:
        if t.data is None:
            out.append(f"{where} is missing data")
        elif t.data.size != t.numel:
            out.append(f"{where} data length {t.data.size} does not match "
                       f"shape {list(t.shape)} (expected {t.numel})")
    elif want_data is False and t.data is not None:
        out.append(f"{where} must not carry data")


def _violations(g: InterchangeGraph) -> list[str]:
    """Every structural fault short of a cycle, each naming its offender."""
    v: list[str] = []

    if not POSITIVE.test(g.ir_version):
        v.append(f"ir_version must be an integer >= 1, got {g.ir_version!r}")

    for t in g.inputs:
        _check_tensor_spec(t, "input", want_data=False, out=v)
    for t in g.initializers:
        _check_tensor_spec(t, "initializer", want_data=True, out=v)
    for t in g.outputs:
        _check_tensor_spec(t, "output", want_data=None, out=v)

    # single assignment: each name produced by exactly one of
    # {graph input, initializer, node output}
    producers: dict[str, list[str]] = {}
    for t in g.inputs:
        producers.setdefault(t.name, []).append("graph input")
    for t in g.initializers:
        producers.setdefault(t.name, []).append("initializer")

    seen_node_ids: set[str] = set()
    for node in g.nodes:
        if not node.id:
            v.append("node has an empty id")
        if node.id in seen_node_ids:
            v.append(f"duplicate node id '{node.id}'")
        seen_node_ids.add(node.id)

        spec = OPERATORS.get(node.op_type)
        if spec is None:
            v.append(f"node '{node.id}' has unknown op_type '{node.op_type}'")
        else:
            v.extend(_contract_violations(node, spec))
        for key, value in node.attributes.items():
            if not _ATTR.test(value):
                v.append(f"node '{node.id}' attribute '{key}' must be an "
                         "integer, integer sequence or string")
        for out_name in node.outputs:
            if not out_name:
                v.append(f"node '{node.id}' produces a tensor with an empty name")
            producers.setdefault(out_name, []).append(f"node '{node.id}'")

    for name, who in sorted(producers.items()):
        if len(who) > 1:
            v.append(f"tensor '{name}' produced more than once: "
                     + ", ".join(who))

    for node in g.nodes:
        for in_name in node.inputs:
            if in_name not in producers:
                v.append(f"node '{node.id}' consumes tensor '{in_name}' which "
                         "is produced nowhere in the graph")

    declared: set[str] = set()
    for t in g.outputs:
        if set(producers.get(t.name, ())) <= {"graph input"}:
            v.append(f"output {t.name} produced by no node or initializer")
        if t.name in declared:
            v.append(f"duplicate output name '{t.name}'")
        declared.add(t.name)
    return v


def validate_graph(g: InterchangeGraph) -> ValidationReport:
    """Check every structural invariant; violations name the offender."""
    v = _violations(g)
    if not any(msg.startswith("duplicate node id") for msg in v):
        try:
            _topo_order(g)
        except CycleError as exc:
            v.append(str(exc))
    return ValidationReport.from_violations(v)


# ---------------------------------------------------------------------------
# topological order


def _topo_order(g: InterchangeGraph) -> list[GraphNode]:
    produced_by: dict[str, str] = {}
    for node in g.nodes:
        for name in node.outputs:
            produced_by[name] = node.id

    static = {t.name for t in g.inputs} | {t.name for t in g.initializers}
    deps: dict[str, set[str]] = {}
    dependents: dict[str, set[str]] = {n.id: set() for n in g.nodes}
    for node in g.nodes:
        needed = {produced_by[name] for name in node.inputs
                  if name not in static and name in produced_by}
        deps[node.id] = needed
    for node_id, needed in deps.items():
        for parent in needed:
            dependents[parent].add(node_id)

    ready = [node_id for node_id, needed in deps.items() if not needed]
    heapq.heapify(ready)
    order: list[str] = []
    pending = {node_id: len(needed) for node_id, needed in deps.items()}
    while ready:
        node_id = heapq.heappop(ready)
        order.append(node_id)
        for child in sorted(dependents[node_id]):
            pending[child] -= 1
            if pending[child] == 0:
                heapq.heappush(ready, child)

    if len(order) < len(g.nodes):
        stuck = {node_id for node_id, n in pending.items() if n > 0}
        on_cycle = _find_cycle_member(deps, stuck)
        raise CycleError(f"cycle detected involving node '{on_cycle}'")
    by_id = {node.id: node for node in g.nodes}
    return [by_id[node_id] for node_id in order]


def _find_cycle_member(deps: dict[str, set[str]], stuck: set[str]) -> str:
    # Follow unsatisfied dependencies; within the stuck set every node has
    # one, so the walk must revisit a node, which then lies on a cycle.
    current = min(stuck)
    seen: dict[str, int] = {}
    path: list[str] = []
    while current not in seen:
        seen[current] = len(path)
        path.append(current)
        current = min(d for d in deps[current] if d in stuck)
    return min(path[seen[current]:])


def topo_sort(g: InterchangeGraph) -> list[str]:
    """Dependency-respecting node order; ties broken by ascending node id."""
    return [node.id for node in _topo_order(g)]


# ---------------------------------------------------------------------------
# operator table: arity, attributes, shape rule and kernel of each op


class _Expected(Exception):
    """Raised by a shape rule with what it expected of its operands."""


def _axis(attrs: Mapping[str, AttrValue], shape: Shape) -> int:
    axis = attrs["axis"]
    if not isinstance(axis, int) or not 0 <= axis < len(shape):
        raise _Expected(f"axis in [0, {len(shape)}), got {axis!r}")
    return axis


def _matmul_shape(attrs, shapes):
    a, b = shapes
    if len(a) != 2 or len(b) != 2:
        raise _Expected("two rank-2 operands")
    if a[1] != b[0]:
        raise _Expected("inner dimensions to agree ([m,k] x [k,n])")
    return (a[0], b[1])


def _add_shape(attrs, shapes):
    a, b = shapes
    if a != b:
        raise _Expected("equal shapes (no broadcasting)")
    return a


def _same_shape(attrs, shapes):
    return shapes[0]


def _softmax_shape(attrs, shapes):
    (a,) = shapes
    _axis(attrs, a)
    return a


def _concat_shape(attrs, shapes):
    first = shapes[0]
    axis = _axis(attrs, first)
    total = first[axis]
    for s in shapes[1:]:
        if len(s) != len(first):
            raise _Expected("operands of equal rank")
        for dim in range(len(first)):
            if dim != axis and s[dim] != first[dim]:
                raise _Expected(f"equal dimensions outside axis {axis}")
        total += s[axis]
    out = list(first)
    out[axis] = total
    return tuple(out)


def _reshape_shape(attrs, shapes):
    (a,) = shapes
    target = attrs["target_shape"]
    if not _DIMS.test(target):
        raise _Expected(f"target_shape of non-negative integers, got {target!r}")
    if math.prod(a) != math.prod(target):
        raise _Expected(f"target_shape with {math.prod(a)} elements, "
                        f"got {list(target)} ({math.prod(target)})")
    return tuple(target)


def _sigmoid(attrs, arrays):
    one = np.ones((), dtype=arrays[0].dtype)
    return one / (one + np.exp(-arrays[0]))


def _softmax(attrs, arrays):
    axis = attrs["axis"]
    shifted = arrays[0] - np.max(arrays[0], axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


@dataclass(frozen=True)
class OpSpec:
    n_inputs: int | None  # None: variadic, at least min_inputs
    shape_rule: Callable[..., Shape]  # (attrs, input shapes) -> output shape
    kernel: Callable[..., np.ndarray]  # (attrs, input arrays) -> output
    min_inputs: int = 0
    required_attrs: tuple[str, ...] = ()
    float_only: bool = False
    n_outputs: int = 1


OPERATORS: dict[str, OpSpec] = {
    "MatMul": OpSpec(2, _matmul_shape, lambda _, x: x[0] @ x[1]),
    "Add": OpSpec(2, _add_shape, lambda _, x: x[0] + x[1]),
    "Relu": OpSpec(1, _same_shape, lambda _, x: np.maximum(
        x[0], np.zeros((), dtype=x[0].dtype))),
    "Sigmoid": OpSpec(1, _same_shape, _sigmoid, float_only=True),
    "Tanh": OpSpec(1, _same_shape, lambda _, x: np.tanh(x[0]),
                   float_only=True),
    "Softmax": OpSpec(1, _softmax_shape, _softmax, required_attrs=("axis",),
                      float_only=True),
    "Concat": OpSpec(None, _concat_shape,
                     lambda a, x: np.concatenate(x, axis=a["axis"]),
                     min_inputs=2, required_attrs=("axis",)),
    "Reshape": OpSpec(1, _reshape_shape,
                      lambda a, x: x[0].reshape(a["target_shape"]),
                      required_attrs=("target_shape",)),
    "Identity": OpSpec(1, _same_shape, lambda _, x: x[0].copy()),
}


def op_spec(node: GraphNode) -> OpSpec:
    """The node's ``OPERATORS`` entry; raises UnknownOperatorError."""
    spec = OPERATORS.get(node.op_type)
    if spec is None:
        raise UnknownOperatorError(
            f"node '{node.id}' has unknown op_type '{node.op_type}'")
    return spec


# ---------------------------------------------------------------------------
# shape inference


def _contract_violations(node: GraphNode, spec: OpSpec) -> list[str]:
    """How the node breaks its op's arity, output count and attributes."""
    head = f"node '{node.id}' ({node.op_type})"
    n_in, n_out = len(node.inputs), len(node.outputs)
    v = []
    if spec.n_inputs not in (None, n_in):
        v.append(f"{head} expects {spec.n_inputs} inputs, has {n_in}")
    if spec.n_inputs is None and n_in < spec.min_inputs:
        v.append(f"{head} expects at least {spec.min_inputs} inputs, "
                 f"has {n_in}")
    if n_out != spec.n_outputs:
        v.append(f"{head} expects {spec.n_outputs} outputs, has {n_out}")
    return v + [f"{head} is missing required attribute '{attr}'"
                for attr in spec.required_attrs if attr not in node.attributes]


def _apply_rule(node: GraphNode, spec: OpSpec,
                input_shapes: Sequence[Shape]) -> Shape:
    try:
        return spec.shape_rule(node.attributes, input_shapes)
    except _Expected as exc:
        actual = ", ".join(str(list(s)) for s in input_shapes)
        raise ShapeMismatchError(
            f"node '{node.id}' ({node.op_type}): expected {exc}, "
            f"got [{actual}]") from None


def node_output_shapes(node: GraphNode,
                       input_shapes: Sequence[Shape]) -> list[Shape]:
    """The op's shape rule; raises ShapeMismatchError naming the node, or
    InvalidGraphError for a node that breaks its op's contract."""
    spec = op_spec(node)
    violations = _contract_violations(node, spec)
    if violations:
        raise InvalidGraphError(violations[0])
    return [_apply_rule(node, spec, input_shapes)]


def _checked(g: InterchangeGraph) -> tuple[list[GraphNode], dict[str, Shape]]:
    """The graph's nodes in topological order and every tensor's shape:
    raises the first ``validate_graph`` violation, sorts once (CycleError)
    and applies each shape rule along that order (ShapeMismatchError)."""
    violations = _violations(g)
    if violations:
        raise InvalidGraphError(violations[0])
    order = _topo_order(g)
    shapes = {t.name: t.shape for t in g.inputs + g.initializers}
    for node in order:
        shapes[node.outputs[0]] = _apply_rule(
            node, OPERATORS[node.op_type],
            [shapes[name] for name in node.inputs])
    return order, shapes


def _check_outputs(g: InterchangeGraph, shapes: Mapping[str, Shape]) -> None:
    """Declared output shapes must be the inferred ones."""
    for t in g.outputs:
        if shapes[t.name] != t.shape:
            raise ShapeMismatchError(
                f"output '{t.name}': declared shape {list(t.shape)} does not "
                f"match inferred {list(shapes[t.name])}")


def infer_shapes(g: InterchangeGraph) -> dict[str, Shape]:
    """Shape of every tensor, from the one pass ``_checked``; the declared
    output shapes must agree (inputs are as declared: no symbolic dims)."""
    shapes = _checked(g)[1]
    _check_outputs(g, shapes)
    return shapes


# ---------------------------------------------------------------------------
# canonical serialization


def _tensor_to_doc(t: Tensor, *, with_data: bool) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "name": t.name,
        "dtype": t.dtype,
        "shape": list(t.shape),
    }
    if with_data:
        doc["data"] = [] if t.data is None else t.data.tolist()
    return doc


def _attr_to_doc(value: AttrValue) -> Any:
    return list(value) if isinstance(value, tuple) else value


def serialize_graph(g: InterchangeGraph) -> bytes:
    """Canonical bytes: byte equality of serializations <=> graph equality."""
    doc = {
        "name": g.name,
        "ir_version": g.ir_version,
        "inputs": [_tensor_to_doc(t, with_data=False) for t in g.inputs],
        "outputs": [_tensor_to_doc(t, with_data=False) for t in g.outputs],
        "initializers": [_tensor_to_doc(t, with_data=True)
                         for t in g.initializers],
        "nodes": [
            {
                "id": n.id,
                "op_type": n.op_type,
                "inputs": list(n.inputs),
                "outputs": list(n.outputs),
                "attributes": {k: _attr_to_doc(n.attributes[k])
                               for k in sorted(n.attributes)},
            }
            for n in g.nodes
        ],
        "doc": g.doc,
    }
    return dumps_canonical(doc)


_TENSOR = {"name": NAME, "dtype": None, "shape": _DIMS}
_INITIALIZER = _TENSOR | {"data": LIST}
_NAMES = STR.list()
# looked up in OPERATORS: unhashable is malformed, any other an unknown op
_OP_TYPE = Kind("a string", "strings",
                lambda v: not isinstance(v, (list, dict)))


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise MalformedDocumentError(message)


def _parse_tensor(doc: Any, *, with_data: bool, where: str) -> Tensor:
    name, dtype, shape, *data = fields(
        doc, where, MalformedDocumentError,
        _INITIALIZER if with_data else _TENSOR)
    _expect(dtype in DTYPES, f"tensor '{name}': unknown dtype {dtype!r}")
    if with_data:
        _expect(len(data[0]) == math.prod(shape),
                f"tensor '{name}': data length {len(data[0])} does not match "
                f"shape {shape}")
        data = [numbers(data[0], dtype, f"tensor '{name}'")]
    return Tensor(name, dtype, tuple(shape), *data)


def numbers(raw: list, dtype: str, where: str) -> np.ndarray:
    """A document's number list as a flat ``dtype`` array, checked at once.

    Items are ints or floats, not bools; i64 items are ints in [-2**63,
    2**63).  Floats pass through float64, so f32 values snap onto the f32
    grid.  A value with no finite ``dtype`` form (NaN, an infinity, an int
    beyond every float) has no JSON form and is rejected, the first named.
    """
    kinds = set(map(type, raw))
    _expect(kinds <= {int, float}, f"{where}: data values must be numbers")
    _expect(dtype != "i64" or float not in kinds,
            f"{where}: i64 data must be integers")
    wide = np.int64 if dtype == "i64" else np.float64
    try:  # OverflowError: an int beyond the range of int64 or float64
        with np.errstate(over="ignore"):  # f32 overflow is an infinity
            values = np.array(raw, wide).astype(NP_DTYPES[dtype], copy=False)
        if np.isfinite(values).all():
            return values
    except OverflowError:
        pass
    for x in raw if len(raw) > 1 else ():  # the first that fails alone
        numbers([x], dtype, where)
    raise MalformedDocumentError(f"value {raw[0]!r} is not a finite {dtype}")


def parse_graph(data: bytes | str) -> InterchangeGraph:
    doc = loads_canonical(data, "interchange document", MalformedDocumentError)
    # nodes first: an unknown op outranks a malformed tensor list or doc
    name, ir_version, nodes, doc_str, inputs, outputs, initializers = fields(
        doc, "graph", MalformedDocumentError,
        {"name": STR, "ir_version": POSITIVE},
        {"nodes": (LIST, []), "doc": (None, None), "inputs": (None, []),
         "outputs": (None, []), "initializers": (None, [])})
    nodes = tuple(_parse_node(n) for n in nodes)
    _expect(doc_str is None or STR.test(doc_str),
            "graph: 'doc' must be a string or null")

    def tensors(key: str, raw: Any) -> tuple[Tensor, ...]:
        check(raw, LIST, f"graph: '{key}'", MalformedDocumentError)
        return tuple(_parse_tensor(t, with_data=key == "initializers",
                                   where=key) for t in raw)

    return InterchangeGraph(name, ir_version, tensors("inputs", inputs),
                            tensors("outputs", outputs),
                            tensors("initializers", initializers),
                            nodes, doc_str)


def _parse_node(doc: Any) -> GraphNode:
    node_id, op_type, inputs, outputs, attrs = fields(
        doc, "node", MalformedDocumentError,
        {"id": NAME, "op_type": _OP_TYPE, "inputs": None, "outputs": None},
        {"attributes": (None, {})})
    where = f"node '{node_id}'"
    if op_type not in OPERATORS:
        raise UnknownOperatorError(f"{where} has unknown op_type '{op_type}'")
    check(inputs, _NAMES, f"{where}: 'inputs'", MalformedDocumentError)
    check(outputs, _NAMES, f"{where}: 'outputs'", MalformedDocumentError)
    check(attrs, OBJECT, f"{where}: 'attributes'", MalformedDocumentError)
    for key, value in attrs.items():
        check(value, _ATTR, f"{where} attribute '{key}'",
              MalformedDocumentError)
    return GraphNode(node_id, op_type, inputs, outputs, attrs)


# ---------------------------------------------------------------------------
# composition


def compose_graphs(producer: InterchangeGraph, consumer: InterchangeGraph,
                   binding: Iterable[tuple[str, str]]) -> InterchangeGraph:
    """Stitch ``producer`` outputs into ``consumer`` inputs.

    Every tensor and node name is prefixed with ``<graph-name>/`` so the two
    namespaces cannot collide; ``/`` is therefore reserved and graph names
    must not contain it.  The result keeps the producer's inputs and exposes
    the consumer's outputs plus any unbound producer outputs.
    """
    binding = list(binding)
    for g, side in ((producer, "producer"), (consumer, "consumer")):
        if "/" in g.name:
            raise CompositionError(
                f"{side} graph name '{g.name}' must not contain '/'")
    try:  # a shape fault passes as it is
        producer_shapes = infer_shapes(producer)
    except InvalidGraphError as exc:  # a CycleError too
        raise CompositionError(
            f"producer graph '{producer.name}' is invalid: {exc}") from None
    report = validate_graph(consumer)
    if not report.ok:
        raise CompositionError(f"consumer graph '{consumer.name}' is "
                               f"invalid: {report.violations[0]}")

    producer_outputs = {t.name: t for t in producer.outputs}
    consumer_inputs = {t.name: t for t in consumer.inputs}

    bound_producer: list[str] = []
    bound_consumer: list[str] = []
    for src, dst in binding:
        if src not in producer_outputs:
            raise CompositionError(
                f"binding source '{src}' is not a producer output")
        if dst not in consumer_inputs:
            raise CompositionError(
                f"binding target '{dst}' is not a consumer input")
        if src in bound_producer or dst in bound_consumer:
            raise CompositionError(
                f"binding is not a bijection: '{src}' -> '{dst}' repeats a name")
        bound_producer.append(src)
        bound_consumer.append(dst)

    unbound_consumer = set(consumer_inputs) - set(bound_consumer)
    if unbound_consumer:
        raise CompositionError(
            "binding does not cover consumer inputs: "
            + ", ".join(sorted(unbound_consumer)))

    for src, dst in binding:
        src_shape = producer_shapes[src]
        dst_shape = consumer_inputs[dst].shape
        if src_shape != dst_shape:
            raise CompositionError(
                f"shape mismatch on binding '{src}' -> '{dst}': "
                f"{list(src_shape)} vs {list(dst_shape)}")
        if producer_outputs[src].dtype != consumer_inputs[dst].dtype:
            raise CompositionError(
                f"dtype mismatch on binding '{src}' -> '{dst}': "
                f"{producer_outputs[src].dtype} vs {consumer_inputs[dst].dtype}")

    p_prefix = producer.name + "/"
    c_prefix = consumer.name + "/"
    # dst (consumer input) name -> the producer tensor that now feeds it
    feed = {c_prefix + dst: p_prefix + src for src, dst in binding}

    def p_name(name: str) -> str:
        return p_prefix + name

    def c_name(name: str) -> str:
        full = c_prefix + name
        return feed.get(full, full)

    new_inputs = tuple(t.renamed(p_name(t.name)) for t in producer.inputs)
    new_initializers = tuple(t.renamed(p_name(t.name))
                             for t in producer.initializers)
    new_initializers += tuple(t.renamed(c_prefix + t.name)
                              for t in consumer.initializers)
    new_nodes = tuple(
        GraphNode(p_name(n.id), n.op_type,
                  tuple(p_name(x) for x in n.inputs),
                  tuple(p_name(x) for x in n.outputs), dict(n.attributes))
        for n in producer.nodes)
    new_nodes += tuple(
        GraphNode(c_prefix + n.id, n.op_type,
                  tuple(c_name(x) for x in n.inputs),
                  tuple(c_prefix + x for x in n.outputs), dict(n.attributes))
        for n in consumer.nodes)

    unbound_outputs = tuple(t.renamed(p_name(t.name)) for t in producer.outputs
                            if t.name not in bound_producer)
    new_outputs = tuple(t.renamed(c_prefix + t.name)
                        for t in consumer.outputs) + unbound_outputs

    composed = InterchangeGraph(
        name=f"{producer.name}+{consumer.name}",
        ir_version=max(producer.ir_version, consumer.ir_version),
        inputs=new_inputs,
        outputs=new_outputs,
        initializers=new_initializers,
        nodes=new_nodes,
        doc=f"composed: {producer.name} -> {consumer.name}",
    )
    # two valid graphs under distinct prefixes compose into a valid graph;
    # under one prefix their names may clash
    if producer.name == consumer.name:
        report = validate_graph(composed)
        if not report.ok:
            raise CompositionError("composition produced an invalid graph: "
                                   + report.violations[0])
    return composed
