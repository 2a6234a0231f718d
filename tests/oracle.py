"""Independent reference arithmetic for the test suite.

Everything here is deliberately naive: plain Python lists, triple-loop
matmul, scan-based topological evaluation over the serialized document
form. Nothing imports the package under test, so a bug in the package
kernels cannot hide in the expected values.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct

REL_TOL = 1e-6
ABS_FLOOR = 1e-9


# ---------------------------------------------------------------------------
# comparisons


def close(a: float, b: float, rel: float = REL_TOL,
          floor: float = ABS_FLOOR) -> bool:
    """|a - b| <= max(floor, rel * max(|a|, |b|))."""
    return abs(a - b) <= max(floor, rel * max(abs(a), abs(b)))


def all_close(xs, ys, rel: float = REL_TOL, floor: float = ABS_FLOOR) -> bool:
    xs, ys = list(xs), list(ys)
    if len(xs) != len(ys):
        return False
    return all(close(x, y, rel, floor) for x, y in zip(xs, ys))


def f32(x: float) -> float:
    """``x`` rounded to the nearest f32, by a struct round trip."""
    return struct.unpack("f", struct.pack("f", x))[0]


def max_rel_err(xs, ys) -> float:
    worst = 0.0
    for x, y in zip(xs, ys):
        denom = max(abs(x), abs(y), ABS_FLOOR)
        worst = max(worst, abs(x - y) / denom)
    return worst


# ---------------------------------------------------------------------------
# flat-list tensor helpers (row-major, like the package's serialized form)


def numel(shape) -> int:
    n = 1
    for d in shape:
        n *= d
    return n


def unflatten(flat, shape):
    """Nested-list view of a row-major flat list (rank <= 2 is all we need)."""
    if len(shape) == 1:
        return list(flat)
    rows, cols = shape
    return [list(flat[r * cols:(r + 1) * cols]) for r in range(rows)]


def flatten(nested):
    if not nested or not isinstance(nested[0], list):
        return list(nested)
    out = []
    for row in nested:
        out.extend(row)
    return out


# ---------------------------------------------------------------------------
# naive per-op arithmetic on (shape, flat) pairs


def matmul(a_shape, a, b_shape, b):
    m, k = a_shape
    k2, n = b_shape
    assert k == k2, "oracle matmul shape mismatch"
    am = unflatten(a, a_shape)
    bm = unflatten(b, b_shape)
    out = []
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for t in range(k):
                acc += am[i][t] * bm[t][j]
            out.append(acc)
    return (m, n), out


def add(shape, a, b):
    return tuple(shape), [x + y for x, y in zip(a, b)]


def relu(shape, a):
    zero = 0 if all(isinstance(x, int) for x in a) else 0.0
    return tuple(shape), [x if x > zero else zero for x in a]


def sigmoid(shape, a):
    return tuple(shape), [1.0 / (1.0 + math.exp(-x)) for x in a]


def tanh_(shape, a):
    return tuple(shape), [math.tanh(x) for x in a]


def softmax(shape, a, axis):
    rank = len(shape)
    if axis < 0:
        axis += rank
    if rank == 1:
        m = max(a)
        exps = [math.exp(x - m) for x in a]
        s = sum(exps)
        return tuple(shape), [e / s for e in exps]
    rows, cols = shape
    grid = unflatten(a, shape)
    if axis == 1:
        out_rows = []
        for row in grid:
            m = max(row)
            exps = [math.exp(x - m) for x in row]
            s = sum(exps)
            out_rows.append([e / s for e in exps])
        return tuple(shape), flatten(out_rows)
    # axis == 0: softmax down each column
    out = [[0.0] * cols for _ in range(rows)]
    for j in range(cols):
        col = [grid[i][j] for i in range(rows)]
        m = max(col)
        exps = [math.exp(x - m) for x in col]
        s = sum(exps)
        for i in range(rows):
            out[i][j] = exps[i] / s
    return tuple(shape), flatten(out)


def concat(shapes, flats, axis):
    rank = len(shapes[0])
    if axis < 0:
        axis += rank
    if rank == 1:
        out = []
        for f in flats:
            out.extend(f)
        return (len(out),), out
    if axis == 0:
        cols = shapes[0][1]
        rows = sum(s[0] for s in shapes)
        out = []
        for f in flats:
            out.extend(f)
        return (rows, cols), out
    # axis == 1: stitch rows side by side
    rows = shapes[0][0]
    grids = [unflatten(f, s) for s, f in zip(shapes, flats)]
    out_rows = []
    for r in range(rows):
        row = []
        for g in grids:
            row.extend(g[r])
        out_rows.append(row)
    return (rows, len(out_rows[0])), flatten(out_rows)


def reshape(shape, a, target):
    assert numel(shape) == numel(target), "oracle reshape size mismatch"
    return tuple(target), list(a)


def identity(shape, a):
    return tuple(shape), list(a)


# ---------------------------------------------------------------------------
# whole-document evaluation (operates on the parsed JSON dict, not on any
# package object, with its own scan-based topological order)


def eval_graph_doc(doc: dict, inputs: dict[str, list]) -> dict[str, tuple]:
    """Evaluate a serialized graph document.

    inputs maps graph input name -> flat value list. Returns a map of
    graph output name -> (shape tuple, flat value list).
    """
    values: dict[str, tuple] = {}
    for spec in doc["inputs"]:
        name = spec["name"]
        shape = tuple(spec["shape"])
        flat = list(inputs[name])
        assert len(flat) == numel(shape), f"bad input payload for {name}"
        values[name] = (shape, flat)
    for init in doc["initializers"]:
        values[init["name"]] = (tuple(init["shape"]), list(init["data"]))

    pending = list(doc["nodes"])
    while pending:
        ready = None
        for node in pending:
            if all(t in values for t in node["inputs"]):
                ready = node
                break
        assert ready is not None, "oracle found no runnable node (cycle?)"
        pending.remove(ready)
        values[ready["outputs"][0]] = _eval_node(ready, values)

    return {spec["name"]: values[spec["name"]] for spec in doc["outputs"]}


def _eval_node(node: dict, values: dict) -> tuple:
    op = node["op_type"]
    attrs = node.get("attributes", {})
    operands = [values[name] for name in node["inputs"]]
    if op == "MatMul":
        (sa, a), (sb, b) = operands
        return matmul(sa, a, sb, b)
    if op == "Add":
        (sa, a), (_sb, b) = operands
        return add(sa, a, b)
    if op == "Relu":
        return relu(*operands[0])
    if op == "Sigmoid":
        return sigmoid(*operands[0])
    if op == "Tanh":
        return tanh_(*operands[0])
    if op == "Identity":
        return identity(*operands[0])
    if op == "Softmax":
        return softmax(*operands[0], attrs["axis"])
    if op == "Concat":
        return concat([s for s, _ in operands], [f for _, f in operands],
                      attrs["axis"])
    if op == "Reshape":
        return reshape(*operands[0], attrs["target_shape"])
    raise AssertionError(f"oracle has no rule for op {op}")


# ---------------------------------------------------------------------------
# checkpoint evaluation straight from the document (no conversion step)


def eval_sequential_doc(doc: dict, x: list[list[float]]) -> list[list[float]]:
    """pt-style stack: linear layers compute y = x W^T + b."""
    cur_shape = (len(x), len(x[0]))
    cur = flatten(x)
    for layer in doc["layers"]:
        kind = layer["kind"]
        if kind == "linear":
            w = layer["weight"]                    # [out, in]
            wt = [[w[i][j] for i in range(len(w))] for j in range(len(w[0]))]
            cur_shape, cur = matmul(cur_shape, cur,
                                    (len(wt), len(wt[0])), flatten(wt))
            bias = layer["bias"] * cur_shape[0]
            cur_shape, cur = add(cur_shape, cur, bias)
        elif kind == "relu":
            cur_shape, cur = relu(cur_shape, cur)
        elif kind == "sigmoid":
            cur_shape, cur = sigmoid(cur_shape, cur)
        elif kind == "tanh":
            cur_shape, cur = tanh_(cur_shape, cur)
        elif kind == "softmax":
            cur_shape, cur = softmax(cur_shape, cur, layer["axis"])
        else:
            raise AssertionError(f"oracle has no rule for layer {kind}")
    return unflatten(cur, cur_shape)


def eval_layerdag_doc(doc: dict, feeds: dict[str, list[list[float]]]) -> dict:
    """tf-style dag: dense nodes compute y = x K + b."""
    values = {}
    for spec in doc["inputs"]:
        x = feeds[spec["name"]]
        values[spec["name"]] = ((len(x), len(x[0])), flatten(x))

    pending = dict(doc["nodes"])
    while pending:
        name = next(n for n, nd in pending.items()
                    if all(i in values for i in nd["inbound"]))
        node = pending.pop(name)
        op = node["op"]
        operands = [values[i] for i in node["inbound"]]
        if op == "dense":
            k = node["params"]["kernel"]           # [in, out]
            shape, flat = operands[0]
            shape, flat = matmul(shape, flat, (len(k), len(k[0])), flatten(k))
            bias = node["params"]["bias"] * shape[0]
            values[name] = add(shape, flat, bias)
        elif op == "relu":
            values[name] = relu(*operands[0])
        elif op == "sigmoid":
            values[name] = sigmoid(*operands[0])
        elif op == "tanh":
            values[name] = tanh_(*operands[0])
        elif op == "softmax":
            values[name] = softmax(*operands[0], node["attrs"]["axis"])
        elif op == "concat":
            values[name] = concat(
                [s for s, _ in operands], [f for _, f in operands],
                node["attrs"]["axis"])
        else:
            raise AssertionError(f"oracle has no rule for node op {op}")

    return {name: unflatten(flat, shape)
            for name, (shape, flat) in values.items()
            if name in doc["outputs"]}


# ---------------------------------------------------------------------------
# hashes recomputed from first principles


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def pid_of(content: bytes) -> str:
    return "hpcf-" + sha256_hex(content)[:20]


def tree_digest(files: list[tuple[str, bytes]], manifest: bytes = b"") -> str:
    """Framed digest over (relpath, bytes) pairs sorted by relpath."""
    h = hashlib.sha256()
    for relpath, data in sorted(files):
        h.update(relpath.encode("utf-8") + b"\n")
        h.update(str(len(data)).encode("ascii") + b"\n")
        h.update(data + b"\n")
    h.update(manifest)
    return h.hexdigest()


def content_digest(payloads: list[bytes]) -> str:
    """Framed digest over file contents in the given order."""
    h = hashlib.sha256()
    for data in payloads:
        h.update(str(len(data)).encode("ascii") + b"\n")
        h.update(data + b"\n")
    return h.hexdigest()


def canonical_json(obj) -> bytes:
    text = json.dumps(obj, separators=(",", ":"), ensure_ascii=False,
                      allow_nan=False)
    return text.encode("utf-8") + b"\n"
