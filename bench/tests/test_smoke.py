"""Smoke tests of bench/run.py at a tiny size.

    python -m pytest bench/tests
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import hostspeed  # noqa: E402
import run  # noqa: E402

TINY = run.Workload(
    "tiny",
    "two conditions, two short trials with belief dumps",
    dict(conditions=("mhng", "b-led"), trials=2, iterations=55, workers=1, dump_beliefs=True),
)
SEED = 3


def test_untraced_loop_reports_every_end_to_end_metric():
    result = run.run_workload(TINY, SEED, seconds=0, trace=False)
    assert result["correct"], result["problems"]
    assert result["failed"] == 0
    # warm-up and one timed run, each read back READS_PER_RUN + 1 times in all
    assert result["attempted"] == 2 + (1 + run.READS_PER_RUN) * (1 + 4)
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    samples = result["samples"]
    assert set(samples) == set(run.UNITS)
    # one calibration pass after the warm-up, one after the run and each read-back
    assert len(samples["cal_s"]) == 1 + 1 + run.READS_PER_RUN
    assert len(samples["setup_s"]) == len(samples["setup_wall_s"]) == run.SETUP_REPEATS
    assert len(samples["read_ref_s"]) == len(samples["read_s"]) == run.READS_PER_RUN


def test_host_clock_scales_by_the_passes_around_an_operation():
    clock = hostspeed.HostClock()
    clock.samples[:] = [0.2]
    clock.samples.append(0.3)
    assert clock.factor() == hostspeed.REF_CAL_S / 0.25
    assert clock.tick() > 0
    assert len(clock.samples) == 3


def test_traced_run_reports_every_layer_metric():
    result = run.run_workload(TINY, SEED, seconds=0, trace=True)
    assert result["correct"], result["problems"]
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert set(metrics) == set(run.PER_LAYER)
    assert metrics["trace.coverage"] >= 0.9
    assert metrics["agents.efe_per_action.per_round"] > 0
    assert (BENCH.parent / result["spans"]).is_file()


def test_changed_artifact_bytes_fail_the_run(monkeypatch):
    session = run.Session(run.load_program(), TINY, SEED)
    run.warm_up(session)
    assert session.failed == 0
    monkeypatch.setattr(session.program.harness, "_fmt", lambda x: f"{x:.4g}")
    _, run_dir, _ = session.run(session.config())
    assert run_dir is None
    assert session.failed == 1
    assert "differ" in session.problems[0]


def test_unlisted_file_in_the_run_directory_fails_the_run(monkeypatch):
    session = run.Session(run.load_program(), TINY, SEED)
    harness = session.program.harness
    emit_plots = harness.emit_plots

    def emit_with_leftover(out, config, summary):
        (Path(out) / "trials" / "mhng_t07.csv").write_text("left over\n")
        return emit_plots(out, config, summary)

    monkeypatch.setattr(harness, "emit_plots", emit_with_leftover)
    _, run_dir, _ = session.run(session.config())
    assert run_dir is None
    assert session.failed == 1
    assert "trials/mhng_t07.csv" in session.problems[0]


def test_exits_nonzero_without_the_program_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "grid", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "no dyadreg source" in proc.stderr
