"""Steadiness mode: run one workload repeatedly and report its spread.

    python3 bench/steady.py --workload service [--runs 10] [--seconds 45]
                            [--first-seed 1] [--trace 0]

Each run is a fresh ``run.py`` process with the next seed.  Between runs a
fixed pure-Python calibration loop is timed, so that a drift of the machine
(the loop slows too) can be told apart from noise in the program (it does
not).  Prints every run, then for every metric its median, quartiles and
spread -- the distance between the quartiles as a share of the median,
from ``statistics.quantiles(values, n=4)`` -- and writes the same to
``.bench_out/steady-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
OUT = BENCH.parent / ".bench_out"


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python loop (median of five)."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc += i * i % 7
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=45)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    runs = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        calibration = calibrate()
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        run = {"seed": seed, "wall_s": wall, "calibration_s": calibration,
               "correct": result["correct"],
               "failed_share": result["failed"] / result["attempted"],
               "metrics": {k: v["value"]
                           for k, v in result["metrics"].items()}}
        runs.append(run)
        print(json.dumps(run), flush=True)

    names = list(runs[0]["metrics"])
    report = {
        "workload": args.workload, "seconds": args.seconds,
        "seeds": [r["seed"] for r in runs],
        "calibration_s": spread([r["calibration_s"] for r in runs]),
        "wall_s": spread([r["wall_s"] for r in runs]),
        "metrics": {n: spread([r["metrics"][n] for r in runs])
                    for n in names},
        "runs": runs,
    }
    for name, s in [("calibration_s", report["calibration_s"]),
                    ("wall_s", report["wall_s"])] + \
            list(report["metrics"].items()):
        print(f"{name:40s} median {s['median']:12.5g}  q1 {s['q1']:12.5g}  "
              f"q3 {s['q3']:12.5g}  spread {s['spread']:.3f}")
    OUT.mkdir(exist_ok=True)
    (OUT / f"steady-{args.workload}.json").write_text(
        json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
