"""Smoke mode: the benchmark's own tests, on tiny inputs.

    python3 bench/smoke.py

1. Runs ``run.py --smoke`` on every workload, untraced and traced, and
   checks that each exits 0 with a correct result, no failed operation
   and exactly the metrics ``BENCHMARK.json`` lists.
2. Runs real operations of each workload in-process, checks that their
   results pass, then corrupts each result -- a perturbed tensor, a wrong
   digest, a missing search hit and more -- and checks that the output
   check rejects it.

Exits 0 when everything holds; prints one line per case.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from checks import CheckFailed, check_container  # noqa: E402
from workloads import Service, last_run  # noqa: E402

failures = []


def report(ok: bool, case: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {case}", flush=True)
    if not ok:
        failures.append(case)


def rejects(check, corrupted, case: str) -> None:
    try:
        check(corrupted)
    except CheckFailed:
        report(True, f"{case} is rejected")
        return
    report(False, f"{case} is rejected")


def smoke_runs() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in spec[key]}
        for workload in ("service", "tasks"):
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload",
                 workload, "--seed", "7", "--seconds", "1", "--trace",
                 str(trace), "--smoke"],
                capture_output=True, text=True, timeout=170)
            case = f"run {workload} --trace {trace}"
            if proc.returncode != 0:
                report(False, f"{case}: exit {proc.returncode}\n"
                       + proc.stderr[-2000:])
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            report(result["correct"] and result["failed"] == 0
                   and result["attempted"] > 0 and got == wanted,
                   f"{case}: correct, nothing failed, metrics as listed")


def first(ops, kind: str):
    return next((call, check) for k, call, check in ops if k == kind)


def perturb_output(result) -> None:
    out = Path(result.outputs[0])
    doc = json.loads(out.read_bytes())
    doc[0]["data"][0] *= 1 + 1e-4
    out.write_text(json.dumps(doc))


def corrupted_results(work: Path) -> None:
    service = Service(3, smoke=True)
    service.setup(work / "service")
    service.prepare_checks()
    service.tracer = None
    try:
        ops = service.round()
        searches = [(call, check) for kind, call, check in ops
                    if kind == "search"]
        hits = next((got, check) for got, check in
                    ((call(), check) for call, check in searches) if got)
        hits[1](hits[0])
        report(True, "search result passes its check")
        rejects(hits[1], hits[0][:-1], "a search missing one hit")
        rejects(hits[1], hits[0][::-1] if len(hits[0]) > 1 else [],
                "a search in the wrong order")

        call, check = first(ops, "pull")
        blob = call()
        check(blob)
        rejects(check, blob[:-1] + bytes([blob[-1] ^ 1]),
                "pulled bytes with one bit flipped")

        call, check = first(ops, "metadata")
        record = call()
        check(record)
        rejects(check, dict(record, title="other"), "a changed record")

        pushes = [(call, check) for kind, call, check in ops
                  if kind == "push"]
        for call, check in pushes:
            records = call()
            check(records)
            if len(records) == 2:
                model_push = check, records
        check, records = model_push
        rejects(check, records[:1], "a model push without companion")
        rejects(check, [records[0], dict(records[1], provenance=[])],
                "a companion without converted-from edge")

        call, check = first(ops, "task")
        result = call()
        check(result)
        report(True, "remote task output passes its check")
        perturb_output(result)
        rejects(check, result, "a perturbed remote task tensor")

        call, check = first(ops, "sandbox")
        result = call()
        check(result)
        report(True, "remote container output passes its check")
        run = last_run(service.root / "store" / "runs.log")
        exported = Path(result.outputs[0]).read_bytes()

        def with_run(**changes):
            return lambda _: check_container(exported, dict(run, **changes),
                                             service.project)
        rejects(with_run(output_digest="0" * 64), None,
                "a wrong output digest")
        rejects(with_run(image_digest="0" * 64), None, "a wrong image digest")
        Path(result.outputs[0]).write_bytes(b"changed")
        rejects(check, result, "a changed remote container export")

        call, check = first(ops, "convert")
        result = call()
        check(result)
        report(True, "remote conversion output passes its check")
        # the bias added last before the softmax feeds one logit directly;
        # +100 survives the relu between them
        decoder = Path(result.outputs[1])
        doc = json.loads(decoder.read_bytes())
        producer = {n["outputs"][0]: n for n in doc["nodes"]}
        node = producer[doc["outputs"][0]["name"]]
        while node["op_type"] != "Add":
            node = producer[node["inputs"][0]]
        bias = next(t for t in doc["initializers"]
                    if t["name"] == node["inputs"][1])
        bias["data"][0] += 100.0
        decoder.write_text(json.dumps(doc))
        rejects(check, result, "a converted graph with one bias changed")
    finally:
        service.teardown()


def main() -> int:
    smoke_runs()
    work = ROOT / ".bench_tmp" / "smoke"
    shutil.rmtree(work, ignore_errors=True)
    try:
        corrupted_results(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(failures)} failed" if failures else "smoke: all ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
