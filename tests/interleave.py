#!/usr/bin/env python3
"""Interleaved timing of two checkouts of dyadreg in one interpreter.

    python3 tests/interleave.py OLD_SRC NEW_SRC [--pairs 20] [--seed 1]

OLD_SRC and NEW_SRC are the `src` directories of two checkouts. Both
packages are loaded side by side under their own names, and each pair of
operations runs one side and then the other, alternating which side goes
first. An operation is one `run_experiment` of a workload of
`bench/run.py` into a fresh directory, then its read-back through
`cli.main`: the commands `bench/run.py` issues after a run. The workloads
and the read-back commands are imported from `bench/run.py` and used as they
are.

For each workload it prints each side's median and quartiles of the run
time and of the read-back time, the median of the per-pair ratios new/old,
and the number of pairs the new side won. Sequential runs on a small shared
host can drift by up to 2x; within a pair both sides meet the same drift.
This is a tool for finding and sizing a change while it is written. It is
not the referee of a speed claim: that is `bench/run.py`, run on both
commits.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib.util
import io
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_package(src: Path, alias: str):
    """The dyadreg package under `src`, imported as `alias` with its cli,
    harness and config modules; its relative imports resolve inside it."""
    init = src / "dyadreg" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        alias, init, submodule_search_locations=[str(init.parent)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[alias] = package
    spec.loader.exec_module(package)
    for name in ("config", "harness", "cli"):
        importlib.import_module(f"{alias}.{name}")
    return package


def load_bench():
    """bench/run.py as a module, for its WORKLOADS and read_commands."""
    sys.path.insert(0, str(ROOT / "bench"))
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    bench = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = bench
    spec.loader.exec_module(bench)
    return bench


def operation(package, bench, workload, seed: int, work: Path) -> tuple:
    """One run of `workload` and its read-back: their wall seconds."""
    config = package.config.ExperimentConfig(
        **dict(workload.config, seed=seed), out_dir=str(work / "run")
    )
    shutil.rmtree(work / "run", ignore_errors=True)
    gc.collect()
    t0 = time.perf_counter()
    package.harness.run_experiment(config)
    t1 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in bench.read_commands(config, work / "run"):
            if package.cli.main(argv) != 0:
                raise SystemExit(f"{package.__name__}: {' '.join(argv)} failed")
    return t1 - t0, time.perf_counter() - t1


def quartiles(values) -> str:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{q2:.4f} [{q1:.4f}-{q3:.4f}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    parser.add_argument("--pairs", type=int, default=20)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    sides = {"old": load_package(args.old_src, "dyadreg_old"),
             "new": load_package(args.new_src, "dyadreg_new")}
    bench = load_bench()
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name, workload in bench.WORKLOADS.items():
            for package in sides.values():  # fill caches and lazy imports
                operation(package, bench, workload, args.seed, work)
            times = {side: [] for side in sides}
            for pair in range(args.pairs):
                order = list(sides) if pair % 2 == 0 else list(sides)[::-1]
                for side in order:
                    times[side].append(operation(sides[side], bench, workload, args.seed, work))
            for i, label in enumerate(("run_s", "read_s")):
                old = [t[i] for t in times["old"]]
                new = [t[i] for t in times["new"]]
                ratio = statistics.median(n / o for o, n in zip(old, new))
                wins = sum(n < o for o, n in zip(old, new))
                print(
                    f"{name:>13} {label:<6} old {quartiles(old)}  new {quartiles(new)}  "
                    f"ratio {ratio:.3f}  new won {wins}/{args.pairs}"
                )
    return 0


if __name__ == "__main__":
    sys.exit(main())
