"""The benchmark workloads.

Each workload builds its inputs and store from the seed in ``setup``
(timed; ``run.py`` sets up three times and reports the median), computes
the values its checks expect in ``prepare_checks`` (untimed), then yields
the operations of one round from ``round``.  A round is a fixed multiset
of operations in a seeded order, so every run attempts whole rounds of
the same mix whatever the seed and the run length.  An operation is
``(kind, call, check)``: ``call()`` is the timed part and returns what
``check`` needs; ``check`` runs untimed and raises ``CheckFailed``.

service    one keep-alive client against ``hpcfair serve`` in its own
           process: searches, metadata reads, pulls, pushes and remote
           collaboration, conversion and container tasks over a store of
           about 2,000 records and 2,000 tokens.
tasks      the same server and store (with shorter model pairs), and only
           the remote tasks of the ``service`` round:
           ``ModelAPI(address=...)`` submits each and polls until it ends.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import inputs
from checks import (
    check_container,
    check_converted,
    check_probs,
    check_pulled,
    check_pushed,
    check_search,
    expect,
    expect_project,
    expected_probs,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size (VmHWM) of a process, in MiB."""
    status = Path(f"/proc/{pid}/status").read_text()
    kib = int(re.search(r"^VmHWM:\s+(\d+) kB", status, re.M).group(1))
    return kib / 1024


def last_run(runs_log: Path) -> dict:
    """The last record of a sandbox ``runs.log``."""
    with open(runs_log, "rb") as fh:
        fh.seek(max(0, fh.seek(0, os.SEEK_END) - 4096))
        return json.loads(fh.read().splitlines()[-1])


def tensor_doc(name: str, x: list[float]) -> bytes:
    """An input tensor-set document, written without the package."""
    return json.dumps([{"name": name, "dtype": "f32", "shape": [1, len(x)],
                        "data": x}], separators=(",", ":")).encode() + b"\n"


@dataclass
class Pair:
    encoder: dict
    decoder: dict
    x: list
    want: list | None = None  # oracle output, computed on first check

    def expected(self) -> list:
        if self.want is None:
            self.want = expected_probs(self.encoder, self.decoder, self.x)
        return self.want


CONVERSION_YAML = """general_args:
  task: "conversion"
  backend: ["pt", "tf"]
device_args:
  worker_num: 1
  device: "cpu"
model_args:
  model_name: ["encoder", "decoder"]
  model_file: [{encoder}, {decoder}]
  onnx_version: 10
out_args:
  export_file: [{encoder_out}, {decoder_out}]
"""

COLLABORATION_YAML = """general_args:
  task: "inference"
  tag: "collaboration"
  backend: "onnx"
device_args:
  worker_num: 1
  device: "cpu"
task_args:
  model_name: ["encoder", "decoder"]
  model_file: [{encoder}, {decoder}]
  input: {input}
out_args:
  export_file: {output}
"""

CONTAINER_YAML = """general_args:
  task: "container"
  backend: "mlcube"
device_args:
  device: "cpu"
task_args:
  work_dir: {work_dir}
  build_file: {build_file}
  build_tag: "bench-copy"
  volume: "/app"
out_args:
  export_file: {export}
"""


# the project of the remote container task: its entrypoint copies its input
PROJECT_MANIFEST = {"build_tag": "bench-copy",
                    "entrypoint": "cp data.bin out.bin", "env": {},
                    "inputs": ["data.bin"], "outputs": ["out.bin"],
                    "volume": "/app"}


class Service:
    """A seeded mix of reads and writes against ``hpcfair serve``."""

    name = "service"
    # operations of one round, by kind.  The shares are an assumption, not
    # observed traffic: reads outnumber pushes six to one, and the four
    # remote tasks (two collaborations, a conversion and a container run)
    # stay under a tenth of the round so that p90 falls inside the HTTP
    # operations, not between the two classes, which keeps it steady
    MIX = {"search": 16, "metadata": 16, "pull": 16, "push": 8, "task": 4}
    PUSHES = ("dataset", "dataset", "pt", "tf") * 2
    PAIR = inputs.DEEP  # of the remote collaborations and the conversion

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.n_datasets = 40 if smoke else 1900
        self.n_models = 2 if smoke else 50  # of each backend
        self.n_tokens = 40 if smoke else 2000
        self.tracer = None  # the runner's, in a traced run
        self.traced_to = None  # spans file of a traced server
        self.proc = None
        self.session = None

    # -- set-up --------------------------------------------------------------

    def setup(self, root: Path) -> None:
        from hpcfair.registry import ArtifactDraft, Registry

        rng = random.Random(self.seed)
        self.root = root
        self.rng = rng
        registry = Registry(root / "store")
        # the store owner's token comes first; client tokens are issued
        # after the records, at seeded positions spread over the table
        admin = registry.issue_token("owner", "publisher", 86400)
        self.records: list[dict] = []
        self.hashes: dict[str, str] = {}  # primary pid -> content sha256
        self.label = 0

        def register(content: bytes, kind: str, backend: str) -> list:
            meta = inputs.draft(rng, self.label, kind, backend)
            records = [r.to_dict() for r in registry.register_artifact(
                content, ArtifactDraft.from_dict(meta), admin)]
            self.label += 1
            self.records.extend(records)
            self.hashes[records[0]["pid"]] = \
                hashlib.sha256(content).hexdigest()
            return records

        for _ in range(self.n_datasets):
            register(inputs.dataset_bytes(rng, self.label, 1024),
                     "dataset", "csv")
        for _ in range(self.n_models):
            register(inputs.small_pt_model(rng, self.label), "model", "pt")
            register(inputs.small_tf_model(rng, self.label), "model", "tf")

        # remote collaboration: two deep pairs referenced by companion pid;
        # remote conversion: the first pair's checkpoints, by path
        self.tasks = []
        for i in range(2):
            encoder, decoder, x = inputs.model_pair(rng, self.PAIR)
            enc = register(json.dumps(encoder).encode(), "model", "pt")
            dec = register(json.dumps(decoder).encode(), "model", "tf")
            (root / f"input{i}.txt").write_bytes(tensor_doc("x", x))
            config = root / f"task{i}.yaml"
            config.write_text(COLLABORATION_YAML.format(
                encoder=json.dumps(enc[1]["pid"]),
                decoder=json.dumps(dec[1]["pid"]),
                input=json.dumps(str(root / f"input{i}.txt")),
                output=json.dumps(str(root / f"task{i}.out"))))
            self.tasks.append((config, Pair(encoder, decoder, x)))
        config, self.converted = root / "convert.yaml", self.tasks[0][1]
        (root / "encoder.ckpt").write_text(json.dumps(self.converted.encoder))
        (root / "decoder.ckpt").write_text(json.dumps(self.converted.decoder))
        config.write_text(CONVERSION_YAML.format(**{
            key: json.dumps(str(root / name)) for key, name in (
                ("encoder", "encoder.ckpt"), ("decoder", "decoder.ckpt"),
                ("encoder_out", "encoder.onnx"),
                ("decoder_out", "decoder.onnx"))}))
        self.conversion = config

        # remote container run: a small project, staged in the store
        inputs.write_project(rng, root / "project", 2, 65536)
        (root / "project" / "build.yaml").write_text(
            json.dumps(PROJECT_MANIFEST))
        self.container_config = root / "container.yaml"
        self.container_config.write_text(CONTAINER_YAML.format(
            work_dir=json.dumps(str(root / "project")),
            build_file=json.dumps(str(root / "project" / "build.yaml")),
            export=json.dumps(str(root / "exported.bin"))))
        self.pullable = list(self.hashes)

        self.tokens = self._issue_tokens(registry, rng)
        self._start_server(root)

    def prepare_checks(self) -> None:
        self.project = expect_project(self.root / "project",
                                      PROJECT_MANIFEST)

    def _issue_tokens(self, registry, rng: random.Random) -> dict:
        """Fill the token table; each authenticated kind of operation gets
        one token per use in a round, one in each equal slice of the
        table, so a round scans the same share of it whatever the seed."""
        n = self.n_tokens - 1
        wanted = {"pull": self.MIX["pull"], "push": self.MIX["push"],
                  "task": self.MIX["task"]}
        slots: dict[int, str] = {}
        for kind, k in wanted.items():
            for i in range(k):
                pos = int((i + rng.random()) * n / k)
                while pos in slots:
                    pos = (pos + 1) % n
                slots[pos] = kind
        tokens: dict[str, list] = {kind: [] for kind in wanted}
        for pos in range(n):
            kind = slots.get(pos)
            role = "publisher" if kind == "push" or (
                kind is None and rng.random() < 0.5) else "reader"
            cred = registry.issue_token(f"user{pos}", role, 86400)
            if kind is not None:
                tokens[kind].append(cred.token)
        for kind in tokens:
            rng.shuffle(tokens[kind])
        return tokens

    def _start_server(self, root: Path) -> None:
        import requests

        listen = ["--store", str(root / "store"), "serve",
                  "--listen", "127.0.0.1:0"]
        if self.traced_to is None:
            argv = [sys.executable, "-m", "hpcfair.cli"] + listen
        else:
            argv = [sys.executable, str(Path(__file__).parent / "serve.py"),
                    str(self.traced_to), "--"] + listen
        env = dict(os.environ, PYTHONPATH=str(SRC))
        log = root / "server.log"
        with open(log, "wb") as err:
            self.proc = subprocess.Popen(argv, env=env, stderr=err,
                                         stdout=subprocess.DEVNULL)
        deadline = time.monotonic() + 60
        while True:
            found = re.search(rb"serving on (http://\S+)", log.read_bytes())
            if found:
                break
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError("server did not start: "
                                   + log.read_text(errors="replace"))
            time.sleep(0.005)
        self.base = found.group(1).decode()
        self.session = requests.Session()
        while True:  # ready once it answers
            try:
                self.session.get(f"{self.base}/v1/artifacts/none", timeout=5)
                return
            except requests.ConnectionError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.005)

    # -- operations ------------------------------------------------------------

    def _headers(self, token: str | None = None) -> dict:
        headers = {}
        if token is not None:
            headers["Authorization"] = f"Bearer {token}"
        if self.tracer is not None and self.tracer.current()[0] is not None:
            from spans import OP_HEADER

            headers[OP_HEADER] = str(self.tracer.current()[0])
        return headers

    def _get(self, path: str, token: str | None = None, **kwargs):
        return self.session.get(self.base + path, timeout=30,
                                headers=self._headers(token), **kwargs)

    def search(self, tags):
        response = self._get("/v1/search", params={"tags": ",".join(tags)})
        expect(response.status_code == 200, f"search: {response.text}")
        return response.json()["data"]["records"]

    def metadata(self, pid):
        response = self._get(f"/v1/artifacts/{pid}")
        expect(response.status_code == 200, f"metadata: {response.text}")
        return response.json()["data"]["record"]

    def pull(self, pid, token):
        response = self._get(f"/v1/artifacts/{pid}/content", token)
        expect(response.status_code == 200, f"pull: {response.text}")
        return response.content

    def push(self, meta, content, token):
        body = json.dumps(meta).encode() + b"\n" + content
        response = self.session.post(f"{self.base}/v1/artifacts", data=body,
                                     headers=self._headers(token), timeout=30)
        expect(response.status_code == 201, f"push: {response.text}")
        records = response.json()["data"]["records"]
        self.records.extend(records)
        self.hashes[records[0]["pid"]] = hashlib.sha256(content).hexdigest()
        return records

    def task(self, config, token):
        from hpcfair.client import ModelAPI

        return ModelAPI(address=self.base, token=token).collaborate(config)

    def container(self, token):
        from hpcfair.client import ModelAPI

        return ModelAPI(address=self.base, token=token).container(
            self.container_config)

    def check_container(self, result) -> None:
        run = last_run(self.root / "store" / "runs.log")
        expect(f"run {run['run_id']}:" in " ".join(result.log),
               "runs.log does not end with this task's run")
        check_container(Path(result.outputs[0]).read_bytes(), run,
                        self.project)

    def convert(self, token):
        from hpcfair.client import ModelAPI

        return ModelAPI(address=self.base, token=token).conversion(
            self.conversion)

    def _push_op(self, kind: str, token: str):
        rng, label = self.rng, self.label
        self.label += 1
        if kind == "dataset":
            content = inputs.dataset_bytes(rng, label, 1024)
            meta = inputs.draft(rng, label, "dataset", "csv")
        else:
            make = inputs.small_pt_model if kind == "pt" \
                else inputs.small_tf_model
            content = make(rng, label)
            meta = inputs.draft(rng, label, "model", kind)
        return ("push",
                lambda: self.push(meta, content, token),
                lambda records: check_pushed(records, content, meta))

    def round(self):
        rng = self.rng
        ops = []
        for _ in range(self.MIX["search"]):
            tags = tuple(sorted(rng.sample(inputs.TAG_POOL, 2)))
            ops.append(("search",
                        lambda t=tags: self.search(t),
                        lambda got, t=tags: check_search(got, self.records,
                                                         t)))
        for _ in range(self.MIX["metadata"]):
            record = rng.choice(self.records)
            ops.append(("metadata",
                        lambda p=record["pid"]: self.metadata(p),
                        lambda got, r=record: expect(
                            got == r, f"metadata of {r['pid']} differs")))
        for token in self.tokens["pull"]:
            pid = rng.choice(self.pullable)
            ops.append(("pull",
                        lambda p=pid, t=token: self.pull(p, t),
                        lambda blob, p=pid: check_pulled(blob, p,
                                                         self.hashes[p])))
        for kind, token in zip(self.PUSHES, self.tokens["push"]):
            ops.append(self._push_op(kind, token))
        tokens = self.tokens["task"]
        for (config, pair), token in zip(self.tasks, tokens):
            ops.append(("task",
                        lambda c=config, t=token: self.task(c, t),
                        lambda result, pair=pair: check_probs(
                            Path(result.outputs[0]).read_bytes(),
                            pair.expected())))
        ops.append(("sandbox",
                    lambda t=tokens[3]: self.container(t),
                    self.check_container))
        ops.append(("convert",
                    lambda t=tokens[2]: self.convert(t),
                    lambda result: check_converted(
                        [Path(p).read_bytes() for p in result.outputs],
                        self.converted.encoder, self.converted.decoder,
                        self.converted.x)))
        rng.shuffle(ops)
        return ops

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def teardown(self) -> None:
        if self.proc is None:
            return
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc = None
        if self.session is not None:
            self.session.close()


class Tasks(Service):
    """Only the remote tasks of a ``service`` round, on the same store.

    Each round submits the two collaborations, the conversion and the
    container run through ``ModelAPI(address=...)``, which posts the task
    on a fresh connection and polls it every 50 ms until it ends.  This is
    the paper's "run inference jobs through a small API" path; it runs
    ``converters``, ``interchange``, ``runtime`` and ``sandbox`` inside the
    server and leaves out the searches, reads and pushes.
    """

    name = "tasks"
    MIX = {"search": 0, "metadata": 0, "pull": 0, "push": 0, "task": 4}
    # with ``DEEP`` pairs a collaboration computes for about 50 ms, at the
    # edge of the poll sleep: on a slower machine a quarter of them took a
    # third poll, and that share changed from run to run
    PAIR = inputs.SHORT


WORKLOADS = {w.name: w for w in (Service, Tasks)}
