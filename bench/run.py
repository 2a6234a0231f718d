"""hpcfair benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload {service,tasks} --seed N
                         --seconds S --trace {0,1} [--smoke]

Sets the workload up three times (``setup_s`` is the median; the values the
checks expect are computed afterwards, untimed), runs one untimed warm-up
round, measures the store and output footprint (``disk_mb``), then runs
whole rounds until S seconds have passed.  Every operation's result is
checked against ``checks.py``.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` -- the
end-to-end metrics untraced, the per-layer metrics of ``spans.py`` with
``--trace 1``.  ``--smoke`` uses tiny inputs.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUPS = 3


def disk_mb(root: Path) -> float:
    """Sum of the sizes of the files under ``root``, in MiB."""
    total = 0
    for dirpath, _dirs, files in os.walk(root):
        total += sum(os.lstat(os.path.join(dirpath, f)).st_size
                     for f in files)
    return total / 2 ** 20


def machine() -> dict:
    import numpy

    return {"cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__}


class Tally:
    """Operation outcomes and the latencies of the timed ones."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.timed = 0
        self.latencies: list[float] = []
        self.errors: list[str] = []  # operations that raised
        self.wrong: list[str] = []  # results that failed their check

    def run(self, ops, tracer=None, op_ids=None, timed: bool = False):
        for kind, call, check in ops:
            op = next(op_ids) if timed and op_ids is not None else None
            self.attempted += 1
            self.timed += timed
            try:
                if tracer is None:
                    start = time.perf_counter()
                    result = call()
                    elapsed = time.perf_counter() - start
                else:
                    with tracer.span(f"op.{kind}", op=op):
                        start = time.perf_counter()
                        result = call()
                        elapsed = time.perf_counter() - start
            except Exception as exc:  # a failed operation, not a crash
                self.failed += 1
                self.errors.append(f"{kind}: {exc!r}")
                continue
            if timed:
                self.latencies.append(elapsed)
            try:
                check(result)
            except Exception as exc:
                self.wrong.append(f"{kind}: {exc!r}")


def run(name: str, seed: int, seconds: float, trace: bool,
        smoke: bool = False) -> tuple[dict, dict]:
    """Run one workload; returns the result object and a summary."""
    import spans
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, smoke=smoke)
    work = ROOT / ".bench_tmp" / f"{name}-{seed}-{os.getpid()}"
    out = ROOT / ".bench_out"
    server_spans = out / f"server-spans-{name}-{seed}-{os.getpid()}.json"
    if trace:  # the server records its own spans
        out.mkdir(exist_ok=True)
        workload.traced_to = server_spans
    tally = Tally()
    try:
        # each set-up gets a fresh directory; the one before is removed
        setup_times = []
        for i in range(SETUPS):
            if i:
                workload.teardown()
                shutil.rmtree(work / f"setup{i - 1}")
            start = time.perf_counter()
            workload.setup(work / f"setup{i}")
            setup_times.append(time.perf_counter() - start)
        work_dir = work / f"setup{SETUPS - 1}"
        workload.prepare_checks()

        tracer = None
        if trace:
            tracer = spans.Tracer()
            spans.install(tracer)
            workload.tracer = tracer
        tally.run(workload.round(), tracer)  # warm-up round
        disk = disk_mb(work_dir)

        op_ids = itertools.count(1)
        rounds = 0
        start = time.perf_counter()
        while rounds == 0 or time.perf_counter() - start < seconds:
            tally.run(workload.round(), tracer, op_ids, timed=True)
            rounds += 1
        elapsed = time.perf_counter() - start
        rss = workload.peak_rss_mb()
    finally:
        workload.teardown()
        shutil.rmtree(work, ignore_errors=True)

    # a closed loop: throughput is completed operations per second spent
    # inside them, leaving out the benchmark's own checks between them
    done = len(tally.latencies)
    ops_per_s = done / sum(tally.latencies)
    ms = sorted(x * 1000 for x in tally.latencies)
    summary = {"workload": name, "seed": seed, "rounds": rounds,
               "timed_ops": tally.timed, "wall_s": elapsed,
               "ops_per_s": ops_per_s, "machine": machine()}
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "ops_per_s": (ops_per_s, "ops/s"),
            "latency_p50_ms": (statistics.median(ms), "ms"),
            "latency_p90_ms": (statistics.quantiles(ms, n=10)[8], "ms"),
            "peak_rss_mb": (rss, "MiB"),
            "disk_mb": (disk, "MiB"),
        }
    else:
        doc = json.loads(server_spans.read_text())
        server_spans.unlink()
        tracer.spans.extend(tuple(s) for s in doc["spans"])
        tracer.counts.extend(tuple(c) for c in doc["counts"])
        out.mkdir(exist_ok=True)
        tracer.dump(out / f"trace-{name}-{seed}.json")
        kinds = {m: spans.LAYER_UNITS[k]
                 for m, (k, _) in spans.LAYER_METRICS.items()}
        metrics = {m: (v, kinds[m]) for m, v in
                   spans.layer_metrics(tracer.spans, tracer.counts,
                                       tally.timed).items()}
    result = {
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    summary["errors"] = tally.errors[:3]
    summary["wrong"] = tally.wrong[:3]
    return result, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("service", "tasks"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    for needed in (ROOT / "src" / "hpcfair", ROOT / "tests" / "oracle.py"):
        if not needed.exists():
            print(f"error: {needed.relative_to(ROOT)} is missing; run from "
                  "a checkout of the repository", file=sys.stderr)
            return 2
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

    result, summary = run(args.workload, args.seed, args.seconds,
                          bool(args.trace), smoke=args.smoke)
    print(json.dumps(summary))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
