"""Golden bytes of converted graphs and of a tensor set.

The fixtures were written by the code before tensors held numpy arrays;
any change to the tensor store must reproduce them byte for byte.  Run
this file as a script to rewrite them, which is only right when the
canonical format itself changes on purpose.
"""

import sys
from pathlib import Path

import numpy as np

from hpcfair.converters import convert_checkpoint_bytes
from hpcfair.interchange import Tensor, parse_graph, serialize_graph
from hpcfair.runtime import NamedTensorSet, parse_tensor_set, \
    serialize_tensor_set

FIXTURES = Path(__file__).parent / "fixtures"
CHECKPOINTS = {"pt": ("encoder_pt", "enc"), "tf": ("decoder_tf", "dec")}


def converted_bytes(backend: str) -> bytes:
    stem, model_name = CHECKPOINTS[backend]
    data = (FIXTURES / f"{stem}.ckpt").read_bytes()
    return serialize_graph(convert_checkpoint_bytes(backend, data,
                                                    model_name, 1))


def golden_tensor_set() -> NamedTensorSet:
    """f32 0.1, -0.0, the smallest subnormal and 3.4e38; i64 +-(2**63-1);
    an f64 scalar of shape []."""
    return NamedTensorSet.from_tensors([
        Tensor("edges", "f32", (2, 2),
               np.array([0.1, -0.0, 1e-45, 3.4e38], np.float32)),
        Tensor("ints", "i64", (2,),
               np.array([2**63 - 1, -(2**63 - 1)], np.int64)),
        Tensor("scalar", "f64", (), np.array([1 / 3], np.float64)),
    ])


def test_converted_checkpoints_keep_their_golden_bytes():
    for backend, (stem, _) in CHECKPOINTS.items():
        golden = (FIXTURES / f"{stem}.golden.onnx").read_bytes()
        assert converted_bytes(backend) == golden, backend
        assert serialize_graph(parse_graph(golden)) == golden, backend


def test_tensor_set_keeps_its_golden_bytes():
    golden = (FIXTURES / "tensors.golden.txt").read_bytes()
    assert serialize_tensor_set(golden_tensor_set()) == golden
    assert serialize_tensor_set(parse_tensor_set(golden)) == golden


if __name__ == "__main__":
    if sys.argv[1:] != ["--rewrite"]:
        sys.exit("usage: python tests/test_golden.py --rewrite")
    for backend, (stem, _) in CHECKPOINTS.items():
        (FIXTURES / f"{stem}.golden.onnx").write_bytes(
            converted_bytes(backend))
    (FIXTURES / "tensors.golden.txt").write_bytes(
        serialize_tensor_set(golden_tensor_set()))
