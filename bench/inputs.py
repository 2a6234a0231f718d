"""Seeded input generators for the benchmark workloads.

Every generator takes a ``random.Random`` and returns plain documents or
bytes, so the same seed always yields the same inputs.  Sizes are fixed by
the workload definitions; the seed only draws values, orders and token
positions, so the cost of a round does not depend on the seed.

Model weights lie on binary grids and every layer is checked against the
f32 mantissa budget (``_F32_EXACT``), as the acceptance demo does: the
runtime's f32 arithmetic is then exact through the logits and only the
final softmax differs from the naive f64 oracle, at ulp level.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

_F32_EXACT = 2 ** 24


@dataclass(frozen=True)
class PairShape:
    """Layer plan of one pt encoder + tf decoder pair.

    ``encoder`` and ``decoder`` list ``(width, nnz, max_int, scale_exp,
    relu)`` per dense layer: each output unit has ``nnz`` nonzero weights
    drawn from the integers in [-max_int, max_int] times 2**-scale_exp.
    """

    in_width: int
    in_max_int: int
    in_exp: int
    encoder: tuple[tuple[int, int, int, int, bool], ...]
    decoder: tuple[tuple[int, int, int, int, bool], ...]


# Deep and narrow: 100 8-wide encoder layers and 20 decoder layers, each a
# signed permutation plus bias, so per-node costs dominate.
DEEP = PairShape(
    in_width=8, in_max_int=63, in_exp=6,
    encoder=tuple((8, 1, 1, 0, i % 2 == 1) for i in range(100)),
    decoder=tuple((8, 1, 1, 0, i % 2 == 1) for i in range(20)),
)

# Short: the same layers, 48 in the encoder and 12 in the decoder.  A remote
# collaboration then computes for about 25 ms, half the client's 50 ms poll
# sleep: it rarely ends before the first poll, and ends by the second on a
# machine twice as slow.
SHORT = PairShape(
    in_width=8, in_max_int=63, in_exp=6,
    encoder=tuple((8, 1, 1, 0, i % 2 == 1) for i in range(48)),
    decoder=tuple((8, 1, 1, 0, i % 2 == 1) for i in range(12)),
)


class _Budget:
    """Tracks |value| in grid units and the grid exponent of a tensor."""

    def __init__(self, bound: int, exp: int):
        self.bound = bound
        self.exp = exp

    def dense(self, nnz: int, max_int: int, scale_exp: int,
              bias_max: int) -> None:
        self.bound = nnz * max_int * self.bound + bias_max
        self.exp += scale_exp
        if self.bound >= _F32_EXACT:
            raise ValueError("layer plan exceeds the f32 mantissa budget")


def _sparse_rows(rng: random.Random, rows: int, cols: int, nnz: int,
                 max_int: int, scale_exp: int) -> list[list[float]]:
    scale = 2.0 ** -scale_exp
    out = []
    for _ in range(rows):
        row = [0.0] * cols
        for j in rng.sample(range(cols), nnz):
            value = 0
            while value == 0:
                value = rng.randint(-max_int, max_int)
            row[j] = value * scale
        out.append(row)
    return out


def _bias(rng: random.Random, n: int, exp: int) -> tuple[list[float], int]:
    bias_max = 4
    return [rng.randint(-bias_max, bias_max) * 2.0 ** -exp
            for _ in range(n)], bias_max


def model_pair(rng: random.Random, shape: PairShape
               ) -> tuple[dict, dict, list[float]]:
    """A pt encoder document, a tf decoder document and one input row."""
    budget = _Budget(shape.in_max_int, shape.in_exp)
    x = [rng.randint(-shape.in_max_int, shape.in_max_int)
         * 2.0 ** -shape.in_exp for _ in range(shape.in_width)]

    layers = []
    width = shape.in_width
    for out, nnz, max_int, scale_exp, relu in shape.encoder:
        weight = _sparse_rows(rng, out, width, nnz, max_int, scale_exp)
        bias, bias_max = _bias(rng, out, budget.exp + scale_exp)
        budget.dense(nnz, max_int, scale_exp, bias_max)
        layers.append({"kind": "linear", "weight": weight, "bias": bias})
        if relu:
            layers.append({"kind": "relu"})
        width = out
    encoder = {"format_tag": "pt-ckpt-v1", "layers": layers}

    nodes = {}
    prev = "z"
    for i, (out, nnz, max_int, scale_exp, relu) in enumerate(shape.decoder):
        rows = _sparse_rows(rng, out, width, nnz, max_int, scale_exp)
        kernel = [list(col) for col in zip(*rows)]  # [in, out]
        bias, bias_max = _bias(rng, out, budget.exp + scale_exp)
        budget.dense(nnz, max_int, scale_exp, bias_max)
        nodes[f"dense{i}"] = {"op": "dense", "inbound": [prev],
                              "params": {"kernel": kernel, "bias": bias}}
        prev = f"dense{i}"
        if relu:
            nodes[f"relu{i}"] = {"op": "relu", "inbound": [prev]}
            prev = f"relu{i}"
        width = out
    nodes["probs"] = {"op": "softmax", "inbound": [prev],
                      "attrs": {"axis": 1}}
    encoder_width = shape.encoder[-1][0]
    decoder = {"format_tag": "tf-ckpt-v1",
               "inputs": [{"name": "z", "shape": [1, encoder_width]}],
               "nodes": nodes, "outputs": ["probs"]}
    return encoder, decoder, x


def small_pt_model(rng: random.Random, label: int) -> bytes:
    """A distinct 4->4 pt checkpoint; ``label`` keeps contents unique."""
    weight = [[rng.randint(-8, 8) / 8 for _ in range(4)] for _ in range(4)]
    bias = [label / 1024, 0.0, 0.0, 0.0]
    doc = {"format_tag": "pt-ckpt-v1", "layers": [
        {"kind": "linear", "weight": weight, "bias": bias},
        {"kind": "relu"}]}
    return json.dumps(doc).encode()


def small_tf_model(rng: random.Random, label: int) -> bytes:
    """A distinct 4->4 tf checkpoint; ``label`` keeps contents unique."""
    kernel = [[rng.randint(-8, 8) / 8 for _ in range(4)] for _ in range(4)]
    bias = [label / 1024, 0.0, 0.0, 0.0]
    doc = {"format_tag": "tf-ckpt-v1",
           "inputs": [{"name": "x", "shape": [1, 4]}],
           "nodes": {"d": {"op": "dense", "inbound": ["x"],
                           "params": {"kernel": kernel, "bias": bias}},
                     "a": {"op": "tanh", "inbound": ["d"]}},
           "outputs": ["a"]}
    return json.dumps(doc).encode()


TAG_POOL = ("nlp", "vision", "audio", "encoder", "decoder", "large",
            "small", "v2")


def dataset_bytes(rng: random.Random, label: int, size: int) -> bytes:
    """``size`` bytes of seeded payload, unique per ``label``."""
    head = f"dataset {label}\n".encode()
    return head + rng.randbytes(size - len(head))


def draft(rng: random.Random, label: int, artifact_type: str,
          backend: str) -> dict:
    """Artifact metadata with 1 to 4 tags from ``TAG_POOL``."""
    tags = sorted(rng.sample(TAG_POOL, rng.randint(1, 4)))
    return {"title": f"{artifact_type} {label}",
            "artifact_type": artifact_type, "backend_tag": backend,
            "tags": tags}


def write_project(rng: random.Random, project: Path, n_files: int,
                  size: int) -> None:
    """A container project tree: ``n_files`` seeded files in two folders,
    plus the declared input ``data.bin``."""
    paths = [f"src/m{i % 2}/f{i:04d}.dat" for i in range(n_files)]
    for rel in paths + ["data.bin"]:
        path = project / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(rng.randbytes(size))
