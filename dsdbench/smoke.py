#!/usr/bin/env python3
"""Smoke check of the benchmark itself.

Runs every workload named in BENCHMARK.json at a tiny budget, traced and
untraced, and asserts that
  * each run passes its checks and emits exactly the metrics that
    BENCHMARK.json names for its mode, each with the listed unit;
  * a deliberately corrupted cost (`--corrupt-cost`) is caught: the run
    reports a failed operation, `correct: false`, and exits nonzero.

Run it from the root of the repository:  python3 dsdbench/smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Budgets small enough that a solve takes well under a second.
TINY_BUDGET = {"case_study": 20, "fleet32": 1, "fleet32_portfolio": 1}


def run(command, extra):
    proc = subprocess.run(
        command + extra, cwd=ROOT, capture_output=True, text=True, timeout=600
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stderr


def expect(condition, message, failures):
    if not condition:
        failures.append(message)


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    command = bench["command"]
    catalogue = {
        "0": {m["name"]: m["unit"] for m in bench["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    failures = []
    for workload in (w["name"] for w in bench["workloads"]):
        base = ["--workload", workload, "--seed", "7", "--seconds", "1",
                "--budget", str(TINY_BUDGET[workload])]
        for trace in ("0", "1"):
            tag = f"{workload} --trace {trace}"
            code, result, stderr = run(command, base + ["--trace", trace])
            expect(code == 0, f"{tag}: exit {code}\n{stderr}", failures)
            if result is None:
                failures.append(f"{tag}: no result line")
                continue
            expect(result["correct"] and result["failed"] == 0,
                   f"{tag}: run not correct: {result}", failures)
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(emitted == catalogue[trace],
                   f"{tag}: metrics differ from BENCHMARK.json: "
                   f"missing {sorted(set(catalogue[trace]) - set(emitted))}, "
                   f"extra {sorted(set(emitted) - set(catalogue[trace]))}, "
                   f"units {[(k, u) for k, u in emitted.items() if catalogue[trace].get(k, u) != u]}",
                   failures)
        tag = f"{workload} --corrupt-cost"
        code, result, _ = run(command, base + ["--trace", "0", "--corrupt-cost"])
        expect(code != 0, f"{tag}: exited 0", failures)
        expect(result is not None and not result["correct"] and result["failed"] >= 1,
               f"{tag}: corrupted cost not reported as failed: {result}", failures)
        print(f"{workload}: checked", flush=True)
    for f in failures:
        print("FAIL", f)
    print("smoke:", "ok" if not failures else f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
