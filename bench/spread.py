#!/usr/bin/env python3
"""Run-to-run spread of the benchmark, and the committed baseline.

    python3 bench/spread.py --runs 5 --workload dump-readback
    python3 bench/spread.py --runs 10 --baseline bench/baseline.json

Runs BENCHMARK.json's command once per seed (0, 1, ... runs-1) on each
workload, for BENCHMARK.json's run_seconds, and prints for every
end-to-end metric its median and the distance between its first and third
quartile as a share of the median, next to the metric's bound. A spread
above a third of the bound is marked. With --baseline it also makes two
traced runs per workload on the default seed, checks that the exact
counters repeat between them, and writes everything to the given file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import run

ROOT = run.ROOT
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def invoke(workload: str, seed: int, trace: int) -> dict:
    cmd = SPEC["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace),
    ]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    print(f"{workload:>13} seed {seed} trace {trace}: {time.perf_counter() - t0:.1f} s",
          file=sys.stderr, flush=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-500:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        print(proc.stdout, file=sys.stderr)
        raise SystemExit(f"{' '.join(cmd)} reported a failure")
    return result


def spread(values) -> tuple[float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=list(run.WORKLOADS))
    parser.add_argument("--baseline", type=Path)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    out = {"machine": run.machine(), "run_seconds": SPEC["run_seconds"], "workloads": {}}
    steady = True
    for workload in args.workload or list(run.WORKLOADS):
        values: dict[str, list] = {name: [] for name in bounds}
        for seed in range(args.runs):
            metrics = invoke(workload, seed, 0)["metrics"]
            for name in bounds:
                values[name].append(metrics[name]["value"])
        entry = {}
        for name, vals in values.items():
            median, iqr = spread(vals)
            flag = "" if name == "setup_s" or iqr < bounds[name] / 3 else "  <- above bound/3"
            steady = steady and (flag == "")
            print(f"{workload:>13} {name:<13} median {median:12.6g}  spread {iqr:7.4f}"
                  f"  bound {bounds[name]:.2f}{flag}")
            entry[name] = {"median": median, "spread": iqr, "values": vals}
        out["workloads"][workload] = {"end_to_end": entry}
        if args.baseline:
            first, second = (invoke(workload, run.DEFAULT_SEED, 1)["metrics"] for _ in range(2))
            for name in run.EXACT_COUNTERS:
                if first[name]["value"] != second[name]["value"]:
                    raise SystemExit(f"{workload}: counter {name} did not repeat")
            out["workloads"][workload]["per_layer"] = {
                name: [first[name]["value"], second[name]["value"]] for name in first
            }
            print(f"{workload:>13} exact counters repeated between two traced runs")
    if args.baseline:
        args.baseline.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
        print(f"wrote {args.baseline}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
