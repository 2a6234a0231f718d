"""Shared fixtures: demo model artifacts, stores, and a running service.

The demo checkpoints use seeded weights drawn from coarse binary grids so
the whole pt+tf collaboration pipeline is exactly representable in f32
through the logits; only the final softmax differs from the f64 oracle, at
ulp level.
"""

from __future__ import annotations

import json
import random
import threading
from dataclasses import dataclass
from pathlib import Path

import pytest

from hpcfair.interchange import Tensor
from hpcfair.registry import Registry
from hpcfair.runtime import NamedTensorSet, serialize_tensor_set
from hpcfair.server import HpcfairServer

FIXTURES = Path(__file__).parent / "fixtures"


# ---------------------------------------------------------------------------
# acceptance criteria report lines


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    marker = getattr(report, "_acceptance", None)
    if marker is None:
        return
    num, desc = marker
    status = "PASS" if report.passed else "FAIL"
    print(f"\nacceptance {num:02d} {status} {desc}", flush=True)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    marker = item.get_closest_marker("acceptance")
    if marker is not None:
        report._acceptance = marker.args


# ---------------------------------------------------------------------------
# demo model pair: pt encoder + tf decoder


@dataclass
class DemoWorkspace:
    root: Path
    encoder_doc: dict
    decoder_doc: dict
    x: list  # the [1, 4] input row
    conversion_cfg: Path
    collaboration_cfg: Path
    container_cfg: Path


def build_demo_checkpoints(rng: random.Random) -> tuple[dict, dict, list]:
    """Encoder linear(4->8)+relu+linear(8->8), decoder dense(8->4)+softmax."""

    def grid(lo_int, hi_int, denom):
        return rng.randint(lo_int, hi_int) / denom

    w1 = [[grid(-16, 16, 64) for _ in range(4)] for _ in range(8)]
    b1 = [grid(-16, 16, 64) for _ in range(8)]
    w2 = [[grid(-4, 4, 64) for _ in range(8)] for _ in range(8)]
    b2 = [grid(-16, 16, 64) for _ in range(8)]
    encoder = {"format_tag": "pt-ckpt-v1", "layers": [
        {"kind": "linear", "weight": w1, "bias": b1},
        {"kind": "relu"},
        {"kind": "linear", "weight": w2, "bias": b2},
    ]}

    kernel = [[grid(-8, 8, 32) for _ in range(4)] for _ in range(8)]
    bd = [grid(-8, 8, 32) for _ in range(4)]
    decoder = {"format_tag": "tf-ckpt-v1",
               "inputs": [{"name": "z", "shape": [1, 8]}],
               "nodes": {
                   "dense0": {"op": "dense", "inbound": ["z"],
                              "params": {"kernel": kernel, "bias": bd}},
                   "probs": {"op": "softmax", "inbound": ["dense0"],
                             "attrs": {"axis": 1}},
               },
               "outputs": ["probs"]}

    x = [grid(-64, 64, 64) for _ in range(4)]
    return encoder, decoder, x


def build_demo_workspace(root: Path, seed: int = 42) -> DemoWorkspace:
    rng = random.Random(seed)
    encoder, decoder, x = build_demo_checkpoints(rng)

    (root / "ckpt").mkdir(parents=True)
    (root / "ckpt" / "encoder.ckpt").write_text(json.dumps(encoder))
    (root / "ckpt" / "decoder.ckpt").write_text(json.dumps(decoder))
    (root / "input.txt").write_bytes(serialize_tensor_set(
        NamedTensorSet.from_tensors(
            [Tensor("x", "f32", (1, 4), tuple(x))])))

    conversion = root / "conversion.yaml"
    conversion.write_text(
        (FIXTURES / "conversion.yaml").read_text())
    collaboration = root / "collaboration.yaml"
    collaboration.write_text(
        (FIXTURES / "collaboration.yaml").read_text())

    write_container_project(root)
    container = root / "container.yaml"
    container.write_text("""general_args:
  task: "container"
  backend: "mlcube"

device_args:
  device: 'gpu'

task_args:
  work_dir: "project_dir"
  build_file: "project_dir/build.yaml"
  build_tag: "image_name"
  volume: "/app"
out_args:
  export_file: "out_container.txt"
""")
    return DemoWorkspace(root, encoder, decoder, [x],
                         conversion, collaboration, container)


def write_container_project(root: Path, deterministic: bool = True,
                            name: str = "project_dir") -> Path:
    """A runnable project: gen.py reads data.txt and writes result.txt."""
    project = root / name
    project.mkdir(parents=True)
    if deterministic:
        body = ("import pathlib\n"
                "text = pathlib.Path('data.txt').read_text()\n"
                "pathlib.Path('result.txt').write_text(text.upper())\n")
    else:
        body = ("import pathlib, time\n"
                "pathlib.Path('result.txt').write_text(str(time.time_ns()))\n")
    (project / "gen.py").write_text(body)
    (project / "data.txt").write_text("payload v1\n")
    (project / "build.yaml").write_text(
        "build_tag: image_name\n"
        "entrypoint: python3 gen.py\n"
        "env: {}\n"
        "inputs: [data.txt]\n"
        "outputs: [result.txt]\n"
        "volume: /app\n")
    return project


def absolute_config(ws: DemoWorkspace, name: str) -> Path:
    """A copy of the workspace's config ``name`` with every relative path
    made absolute, as a remote task needs; returns the copy's path."""
    text = (ws.root / name).read_text().replace('"./ckpt/',
                                                f'"{ws.root}/ckpt/')
    for path in ("encoder.onnx", "decoder.onnx", "input.txt", "out.txt",
                 "project_dir", "project_dir/build.yaml",
                 "out_container.txt"):
        text = text.replace(f'"{path}"', f'"{ws.root}/{path}"')
    copy = ws.root / f"absolute-{name}"
    copy.write_text(text)
    return copy


@pytest.fixture
def demo_workspace(tmp_path) -> DemoWorkspace:
    return build_demo_workspace(tmp_path)


# ---------------------------------------------------------------------------
# registry and service


@pytest.fixture
def store(tmp_path) -> Registry:
    return Registry(tmp_path / "store")


@pytest.fixture
def publisher(store):
    return store.issue_token("alice", "publisher", ttl_seconds=3600)


@pytest.fixture
def reader(store):
    return store.issue_token("bob", "reader", ttl_seconds=3600)


@pytest.fixture
def server(store):
    srv = HpcfairServer(store).start()
    yield srv
    srv.stop()


def hold_tasks(server: HpcfairServer) -> threading.Event:
    """Hold every task the server runs until the returned event is set."""
    release = threading.Event()
    real_run = server._run_task

    def run_task(cfg, task_id):
        release.wait(timeout=10)
        real_run(cfg, task_id)

    server._run_task = run_task
    return release


def make_model_checkpoint(label: str) -> bytes:
    """A tiny distinct pt checkpoint; label only varies the bias."""
    seed = sum(label.encode())
    doc = {"format_tag": "pt-ckpt-v1", "layers": [
        {"kind": "linear",
         "weight": [[1.0, 0.0], [0.0, 1.0]],
         "bias": [seed / 16, -seed / 16]},
    ]}
    return json.dumps(doc).encode()
