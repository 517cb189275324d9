#!/usr/bin/env python3
"""Benchmark of the dyadreg batch simulator.

    python3 bench/run.py --workload grid --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 20 --trace 0

Every workload is a closed loop with one client: one batch invocation of
``harness.run_experiment`` at a time, then its read-back through
``cli.main`` (``report``, plus ``shuffle-control`` for every trial whose
beliefs were dumped). The next run starts when the previous read-back has
ended. The program only ever receives the generated ``ExperimentConfig``;
the root seed comes from ``--seed``.

``--trace 0`` times the loop with no instrument installed and prints the
end-to-end metrics. ``--trace 1`` makes a separate traced run and prints
the per-layer metrics, named by module (see ``bench/spans.py``). The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

Every run writes into a fresh, empty directory, which must then hold
exactly ``manifest.artifacts`` plus ``manifest.json``. Each reproducible
artifact is hashed (``manifest.json`` without its ``timings``) together
with the standard output of every read command. For the default seed the
digests must equal ``bench/reference.json``; for any seed they must repeat
between runs and between worker counts. A mismatch fails the operation.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import pickle
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

from hostspeed import HostClock
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_out"
BENCH = Path(__file__).resolve().parent
REFERENCE = BENCH / "reference.json"

# The seed whose digests are kept in reference.json; ExperimentConfig's default.
DEFAULT_SEED = 0
# Read-backs per run: a read-back is ~3% of a run, so one per run would
# leave read_s with a fraction of the samples run_s has.
READS_PER_RUN = 3
# Fresh interpreters started per set-up measurement; the median is reported.
SETUP_REPEATS = 11
POOL_WORKERS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict

    def reference_config(self) -> dict:
        """The config its reference digests were made with; the worker
        count cannot change artifacts, so it is left out."""
        return dict(self.config, workers=1)


# The paper's grid is 3 conditions x 10 trials x 1000 iterations (~40 s
# serial); the grid workload keeps every condition and the per-round mix but
# runs 4 trials x 250 iterations, so one run of the benchmark holds several.
# The two-worker pool is timed and checked in the traced run only: its run
# time follows the speed of two cores, which the one-core calibration loop
# cannot scale, so as a timed workload it spread past its bound.

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "grid",
            "the paper's three-condition grid, scaled to 4 trials x 250 iterations, "
            "at workers=1 plus report; ~95% of run time is the per-round path",
            dict(trials=4, iterations=250, workers=1),
        ),
        Workload(
            "dump-readback",
            "many short trials with belief dumps, non-default branches and a "
            "shuffle-control per trial; weights per-trial and CSV costs",
            dict(
                trials=10,
                iterations=60,
                workers=1,
                dump_beliefs=True,
                mh_current_w="persistent",
                round_order="parent-first",
                preference_mode="softmax",
            ),
        ),
    )
}

# The result line's metrics. Times are reference seconds: wall seconds
# scaled by the host's speed, timed next to each operation (hostspeed.py).
END_TO_END = {
    "run_ref_s": "s",
    "rounds_per_ref_s": "1/s",
    "read_ref_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# Printed in the table beside them: the same operations in wall seconds,
# and the calibration loop's own time.
WALL = {
    "run_s": "s",
    "rounds_per_s": "1/s",
    "read_s": "s",
    "setup_wall_s": "s",
    "cal_s": "s",
}
UNITS = END_TO_END | WALL

PER_LAYER = {
    "probability.categorical_per_round": "count",
    "probability.categorical.us": "us",
    "environment.step.us": "us",
    "environment.build_world.ms": "ms",
    "agents.efe_per_action.us": "us",
    "agents.symbol_posterior.us": "us",
    "agents.assimilate.us": "us",
    "agents.learn_A.us": "us",
    "agents.learn_B.us": "us",
    "agents.init_agent.us": "us",
    "agents.efe_per_action.per_round": "count",
    "agents.symbol_posterior.hit_ratio": "ratio",
    "dialogue.run_round.us": "us",
    "dialogue.run_iteration.us": "us",
    "metrics.kld_A_error.us": "us",
    "metrics.kld_B_error.us": "us",
    "metrics.jsd_latent.us": "us",
    "metrics.c_norm.us": "us",
    "metrics.round_metrics.us": "us",
    "metrics.kld_B_useful_ratio": "ratio",
    "metrics.shuffle_control.ms": "ms",
    "metrics.aggregate_conditions.calls": "count",
    "harness.run_trial.p50_s": "s",
    "harness.run_trial.p90_s": "s",
    "harness.record.us": "us",
    "harness.write_csv.ms": "ms",
    "harness.load_csv.ms": "ms",
    "harness.build_summary.ms": "ms",
    "harness.artifact_bytes": "bytes",
    "harness.triallog_pickle_bytes": "bytes",
    "harness.simulate_s": "s",
    "harness.pool_speedup": "x",
    "plots.emit_plots.ms": "ms",
    "cli.report.s": "s",
    "trace.overhead": "x",
    "trace.coverage": "ratio",
}

# Counts that depend only on the config and seed; they must repeat exactly.
EXACT_COUNTERS = (
    "probability.categorical_per_round",
    "agents.efe_per_action.per_round",
    "agents.symbol_posterior.hit_ratio",
    "metrics.kld_B_useful_ratio",
    "harness.triallog_pickle_bytes",
    "harness.artifact_bytes",
)

SETUP_PROBE = """\
import json, sys, time
sys.path.insert(0, sys.argv[2])
t0 = time.perf_counter()
from dyadreg.agents import AgentKind, init_agent
from dyadreg.config import ExperimentConfig
from dyadreg.harness import build_world
config = ExperimentConfig.from_json(sys.argv[1])
world, pref = build_world(config)
for kind in (AgentKind.PARENT, AgentKind.INFANT):
    init_agent(kind, world, pref, config.dirichlet_prior, config.preference_mode)
elapsed = time.perf_counter() - t0
import dyadreg
sys.path.insert(0, sys.argv[3])
from hostspeed import HostClock
clock = HostClock()
clock.tick()
print(json.dumps({"seconds": elapsed, "factor": clock.factor(), "module": dyadreg.__file__}))
"""


class BenchError(Exception):
    """The benchmark cannot run here (for example, no program source)."""


def load_program() -> SimpleNamespace:
    """Import dyadreg from this checkout's src/, never from elsewhere."""
    if not (SRC / "dyadreg" / "__init__.py").is_file():
        raise BenchError(f"no dyadreg source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import dyadreg
    from dyadreg import agents, cli, config, dialogue, environment, harness, probability

    if SRC.resolve() not in Path(dyadreg.__file__).resolve().parents:
        raise BenchError(f"dyadreg was imported from {dyadreg.__file__}, not {SRC}")
    return SimpleNamespace(
        agents=agents,
        cli=cli,
        config=config,
        dialogue=dialogue,
        environment=environment,
        harness=harness,
        probability=probability,
    )


def machine() -> dict:
    src_lines = sum(
        len(p.read_text().splitlines()) for p in sorted((SRC / "dyadreg").glob("*.py"))
    )
    import numpy

    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "src_lines": src_lines,
    }


# -- one operation -----------------------------------------------------------


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def artifact_digests(run_dir: Path, manifest) -> dict:
    """SHA-256 of every reproducible artifact: each file the manifest lists,
    and manifest.json itself without its wall-clock `timings`."""
    digests = {name: sha256((run_dir / name).read_bytes()) for name in manifest.artifacts}
    body = json.loads((run_dir / "manifest.json").read_text())
    body.pop("timings", None)
    digests["manifest.json"] = sha256(json.dumps(body, sort_keys=True).encode())
    return digests


def stray_files(run_dir: Path, manifest) -> list:
    """Files present but not listed, and files listed but missing."""
    present = {p.relative_to(run_dir).as_posix() for p in run_dir.rglob("*") if p.is_file()}
    expected = set(manifest.artifacts) | {"manifest.json"}
    return sorted(present ^ expected)


def read_commands(config, run_dir: Path) -> list:
    commands = [["report", "--run", str(run_dir)]]
    if config.dump_beliefs:
        for cond in config.conditions:
            for t in range(config.trials):
                commands.append(
                    ["shuffle-control", "--run", str(run_dir), "--condition", cond,
                     "--trial-index", str(t)]
                )
    return commands


def command_key(command: list) -> str:
    """A read command without `--run <directory>`, which differs per run."""
    return " ".join([command[0], *command[3:]])


@dataclass
class Session:
    """Counts operations and failures and holds the expected digests."""

    program: SimpleNamespace
    workload: Workload
    seed: int
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    expected_artifacts: dict | None = None
    expected_reads: dict = field(default_factory=dict)
    check_reference: bool = True

    def __post_init__(self):
        WORK.mkdir(exist_ok=True)
        if self.check_reference and self.seed == DEFAULT_SEED:
            key = self.workload.name
            ref = json.loads(REFERENCE.read_text())["workloads"].get(key)
            if ref is None:
                raise BenchError(f"{REFERENCE.name} has no digests for {key}")
            if ref["config"] != self.workload.reference_config():
                raise BenchError(f"{REFERENCE.name} was made with another config for {key}")
            self.expected_artifacts = ref["artifacts"]
            self.expected_reads = ref["reads"]

    def config(self, **changes):
        cfg = dict(self.workload.config, seed=self.seed, **changes)
        return self.program.config.ExperimentConfig(**cfg)

    def fail(self, message: str):
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    def run(self, config, timer=None):
        """One run into a fresh directory. Returns (seconds, run_dir, manifest),
        all None when the run failed. The caller removes run_dir."""
        self.attempted += 1
        run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
        gc.collect()
        try:
            with timer or contextlib.nullcontext():
                t0 = time.perf_counter()
                manifest = self.program.harness.run_experiment(
                    config.replaced(out_dir=str(run_dir))
                )
                seconds = time.perf_counter() - t0
        except Exception as exc:  # a failed operation, counted and reported
            problem = f"run raised {exc!r}"
        else:
            problem = self.check_artifacts(run_dir, manifest)
        if problem:
            shutil.rmtree(run_dir)
            self.fail(problem)
            return None, None, None
        return seconds, run_dir, manifest

    def check_artifacts(self, run_dir: Path, manifest) -> str:
        stray = stray_files(run_dir, manifest)
        if stray:
            return f"run directory does not match manifest.artifacts: {stray[:5]}"
        digests = artifact_digests(run_dir, manifest)
        if self.expected_artifacts is None:
            self.expected_artifacts = digests
        diff = sorted(
            k for k in digests.keys() | self.expected_artifacts.keys()
            if digests.get(k) != self.expected_artifacts.get(k)
        )
        return f"artifact digests differ from the reference: {diff[:5]}" if diff else ""

    def read_back(self, config, run_dir: Path, span=None) -> float:
        """Every read command over a finished run; returns their wall seconds."""
        total = 0.0
        for command in read_commands(config, run_dir):
            self.attempted += 1
            out, err = io.StringIO(), io.StringIO()
            gc.collect()
            with span(command[0]) if span else contextlib.nullcontext():
                t0 = time.perf_counter()
                try:
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        code = self.program.cli.main(command)
                except Exception as exc:  # a failed operation, counted and reported
                    code = repr(exc)
                total += time.perf_counter() - t0
            key = command_key(command)
            if code != 0:
                self.fail(f"{key} exited {code}: {err.getvalue().strip()[:200]}")
                continue
            digest = sha256(out.getvalue().encode())
            if self.expected_reads.setdefault(key, digest) != digest:
                self.fail(f"{key} printed other output than the reference")
        return total

    def result(self, metrics: dict, extra_problems=()) -> dict:
        problems = self.problems + list(extra_problems)
        return {
            "correct": self.failed == 0 and not problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
            "problems": problems,
        }


def rounds_of(config) -> int:
    return 2 * config.iterations * config.trials * len(config.conditions)


def peak_rss_mb() -> float:
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


def measure_setup(session: Session) -> tuple[list, list]:
    """Wall and reference seconds, in fresh interpreters, to import dyadreg,
    validate the config and do the first build_world and init_agent. Each
    interpreter then times the calibration loop itself, so the set-up is
    scaled by the speed of the core it ran on."""
    times, scaled = [], []
    config_json = session.config().to_json()
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_PROBE, config_json, str(SRC), str(BENCH)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-300:]}")
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        if SRC.resolve() not in Path(report["module"]).resolve().parents:
            raise BenchError(f"set-up probe imported {report['module']}")
        times.append(report["seconds"])
        scaled.append(report["seconds"] * report["factor"])
    return times, scaled


def warm_up(session: Session):
    """One serial run and read-back before timing: it fills caches, and for a
    seed without a reference it fixes the digests later runs must repeat,
    also at another worker count."""
    serial = session.config(workers=1)
    _, run_dir, _ = session.run(serial)
    if run_dir is not None:
        session.read_back(serial, run_dir)
        shutil.rmtree(run_dir)


# -- the untraced closed loop -------------------------------------------------


def measure(session: Session, seconds: float) -> dict:
    """The closed loop: a run and its read-backs, with a calibration pass
    after each. Each operation is also scaled by the passes on either side
    of it."""
    setup_wall, setup = measure_setup(session)
    config = session.config()
    rounds = rounds_of(config)
    warm_up(session)
    clock = HostClock()
    samples = {name: [] for name in UNITS}
    start = time.perf_counter()
    while not samples["run_s"] or time.perf_counter() - start < seconds:
        run_s, run_dir, _ = session.run(config)
        clock.tick()
        if run_dir is None:
            if time.perf_counter() - start >= seconds:
                break
            continue
        run_ref_s = run_s * clock.factor()
        samples["run_s"].append(run_s)
        samples["rounds_per_s"].append(rounds / run_s)
        samples["run_ref_s"].append(run_ref_s)
        samples["rounds_per_ref_s"].append(rounds / run_ref_s)
        for _ in range(READS_PER_RUN):
            read_s = session.read_back(config, run_dir)
            clock.tick()
            samples["read_s"].append(read_s)
            samples["read_ref_s"].append(read_s * clock.factor())
        shutil.rmtree(run_dir)
    samples["setup_wall_s"], samples["setup_s"] = setup_wall, setup
    samples["peak_rss_mb"] = [peak_rss_mb()]
    samples["cal_s"] = clock.samples
    return session.result(
        {name: {"value": statistics.median(samples[name]), "unit": unit}
         for name, unit in END_TO_END.items() if samples[name]},
    ) | {"samples": samples}


# -- the traced run ------------------------------------------------------------


def trace_points(program, tracer: Tracer, counts: dict, logs: list) -> list:
    """Where the traced run puts its wrappers: every name a caller looks up
    on the way from run_experiment and cli.main into each module."""
    h, d, a, c = program.harness, program.dialogue, program.agents, program.cli
    sleep = program.environment.Action.SLEEP

    def start_trial(args):
        tracer.begin_trial(f"{args[1]}:{args[2]}")

    def end_trial(log):
        tracer.trial[0] = -1
        logs.append(log)

    def count_step(args):
        counts["steps"] += 1
        counts["sleep_steps"] += args[2] == sleep

    return [
        (h, "run_trial", "harness.run_trial", start_trial, end_trial),
        (h, "build_world", "environment.build_world"),
        (h, "init_agent", "agents.init_agent"),
        (h, "run_iteration", "dialogue.run_iteration"),
        (d, "run_round", "dialogue.run_round"),
        (d, "step", "environment.step", count_step),
        (a.Agent, "efe_per_action", "agents.efe_per_action"),
        (a.Agent, "symbol_posterior", "agents.symbol_posterior"),
        (a.Agent, "assimilate", "agents.assimilate"),
        (a.Agent, "learn_A", "agents.learn_A"),
        (a.Agent, "learn_B", "agents.learn_B"),
        (program.probability.Categorical, "__init__", "probability.Categorical"),
        (h, "c_norm", "metrics.c_norm"),
        (h, "jsd_latent", "metrics.jsd_latent"),
        (h, "kld_A_error", "metrics.kld_A_error"),
        (h, "kld_B_error", "metrics.kld_B_error"),
        (h, "RoundRecord", "harness.record"),
        (h, "IterationMetrics", "harness.record"),
        (h, "write_trial_csv", "harness.write_csv"),
        (h, "write_beliefs_csv", "harness.write_csv"),
        (h, "build_summary", "harness.build_summary"),
        (h, "shuffle_control", "metrics.shuffle_control"),
        (c, "shuffle_control", "metrics.shuffle_control"),
        (h, "aggregate_conditions", "metrics.aggregate_conditions"),
        (c, "aggregate_conditions", "metrics.aggregate_conditions"),
        (h, "emit_plots", "plots.emit_plots"),
        (c, "load_trial_csv", "harness.load_csv"),
        (c, "load_beliefs_csv", "harness.load_csv"),
    ]


def simulate_seconds(tracer: Tracer) -> float:
    """From entering run_experiment to its first CSV write: the simulate
    phase, including the pool's start and shutdown when there is one."""
    names = [tracer.names[i] for i in tracer.name_col]
    run = names.index("harness.run_experiment")
    if "harness.write_csv" not in names:
        return tracer.end_col[run] - tracer.start_col[run]
    return tracer.start_col[names.index("harness.write_csv")] - tracer.start_col[run]


def phase_run(session: Session, config, phase: Tracer):
    """An untraced run whose only instrument marks the end of simulation."""
    phase.reset()
    with phase.installed([(session.program.harness, "write_trial_csv", "harness.write_csv")]):
        run_s, run_dir, _ = session.run(config, timer=phase.span("harness.run_experiment"))
    if run_dir is None:
        return None, None
    shutil.rmtree(run_dir)
    return run_s, simulate_seconds(phase)


def per_op_counters(tracer: Tracer, since: int, config, counts, logs, artifact_bytes) -> dict:
    rounds = rounds_of(config)
    posterior = tracer.summary(since).get("agents.symbol_posterior")
    hit_ratio = 0.0
    if posterior:
        misses = posterior["with_child"].get("agents.efe_per_action", 0)
        hit_ratio = 1.0 - misses / posterior["calls"]
    return {
        "probability.categorical_per_round": tracer.count_within(
            "probability.Categorical", "dialogue.run_iteration", since
        ) / rounds,
        "agents.efe_per_action.per_round": tracer.count_within(
            "agents.efe_per_action", "dialogue.run_iteration", since
        ) / rounds,
        "agents.symbol_posterior.hit_ratio": hit_ratio,
        "metrics.kld_B_useful_ratio": counts["sleep_steps"] / counts["steps"],
        "harness.triallog_pickle_bytes": statistics.fmean(
            len(pickle.dumps(log)) for log in logs
        ),
        "harness.artifact_bytes": artifact_bytes,
    }


def traced(session: Session, seconds: float, tracer: Tracer) -> dict:
    """Cycles of three runs until `seconds` have passed, at least two cycles:
    an untraced serial run, a traced serial run with its read-back, and an
    untraced pool run. The untraced runs only mark where simulation ends."""
    program = session.program
    serial, pool = session.config(workers=1), session.config(workers=POOL_WORKERS)
    warm_up(session)
    phase = Tracer()
    untraced_run_s, traced_run_s, simulate = [], [], {1: [], POOL_WORKERS: []}
    op_counters = []
    cycles = 0
    start = time.perf_counter()
    while cycles < 2 or time.perf_counter() - start < seconds:
        cycles += 1
        run_s, sim_s = phase_run(session, serial, phase)
        if run_s is not None:
            untraced_run_s.append(run_s)
            simulate[1].append(sim_s)

        counts, logs = {"steps": 0, "sleep_steps": 0}, []
        since = len(tracer)
        with tracer.installed(trace_points(program, tracer, counts, logs)):
            run_s, run_dir, manifest = session.run(
                serial, timer=tracer.span("harness.run_experiment")
            )
            if run_dir is not None:
                session.read_back(serial, run_dir, span=lambda name: tracer.span(f"cli.{name}"))
        if run_dir is not None:
            artifact_bytes = sum((run_dir / n).stat().st_size for n in manifest.artifacts)
            shutil.rmtree(run_dir)
            traced_run_s.append(run_s)
            op_counters.append(
                per_op_counters(tracer, since, serial, counts, logs, artifact_bytes)
            )

        run_s, sim_s = phase_run(session, pool, phase)
        if run_s is not None:
            simulate[POOL_WORKERS].append(sim_s)

    problems = []
    for later in op_counters[1:]:
        for name in EXACT_COUNTERS:
            if later[name] != op_counters[0][name]:
                problems.append(
                    f"counter {name} did not repeat: {op_counters[0][name]!r} vs {later[name]!r}"
                )
    if not op_counters or not untraced_run_s or not simulate[POOL_WORKERS]:
        return session.result({}, problems + ["no traced, serial or pool run completed"])
    metrics = layer_metrics(tracer, serial, len(traced_run_s))
    metrics.update(op_counters[0])
    metrics["harness.simulate_s"] = statistics.median(simulate[session.workload.config["workers"]])
    metrics["harness.pool_speedup"] = statistics.median(simulate[1]) / statistics.median(
        simulate[POOL_WORKERS]
    )
    metrics["trace.overhead"] = statistics.median(traced_run_s) / statistics.median(
        untraced_run_s
    )
    spans_path = WORK / f"spans-{session.workload.name}-seed{session.seed}.tsv.gz"
    tracer.write(spans_path)
    return session.result(
        {name: {"value": metrics[name], "unit": unit} for name, unit in PER_LAYER.items()},
        problems,
    ) | {"spans": str(spans_path.relative_to(ROOT))}


def layer_metrics(tracer: Tracer, config, runs: int) -> dict:
    """Per-layer numbers over every traced run: self time per call unless
    the name says otherwise. A layer the program no longer calls reads 0."""
    s = tracer.summary()
    rounds = rounds_of(config) * runs

    def self_per_call(name, scale):
        e = s.get(name)
        return e["self_s"] / e["calls"] * scale if e else 0.0

    def total(name):
        return s[name]["total_s"] if name in s else 0.0

    def calls(name):
        return s[name]["calls"] if name in s else 0

    trial = s["harness.run_trial"]
    trial_durations = sorted(trial["durations"])
    round_metrics = ("metrics.c_norm", "metrics.jsd_latent", "metrics.kld_A_error",
                     "metrics.kld_B_error")
    us, ms = 1e6, 1e3
    return {
        "probability.categorical.us": self_per_call("probability.Categorical", us),
        "environment.step.us": self_per_call("environment.step", us),
        "environment.build_world.ms": self_per_call("environment.build_world", ms),
        "agents.efe_per_action.us": self_per_call("agents.efe_per_action", us),
        "agents.symbol_posterior.us": self_per_call("agents.symbol_posterior", us),
        "agents.assimilate.us": self_per_call("agents.assimilate", us),
        "agents.learn_A.us": self_per_call("agents.learn_A", us),
        "agents.learn_B.us": self_per_call("agents.learn_B", us),
        "agents.init_agent.us": self_per_call("agents.init_agent", us),
        "dialogue.run_round.us": self_per_call("dialogue.run_round", us),
        "dialogue.run_iteration.us": self_per_call("dialogue.run_iteration", us),
        "metrics.kld_A_error.us": self_per_call("metrics.kld_A_error", us),
        "metrics.kld_B_error.us": self_per_call("metrics.kld_B_error", us),
        "metrics.jsd_latent.us": self_per_call("metrics.jsd_latent", us),
        "metrics.c_norm.us": self_per_call("metrics.c_norm", us),
        "metrics.round_metrics.us": sum(map(total, round_metrics)) / rounds * us,
        "metrics.shuffle_control.ms": self_per_call("metrics.shuffle_control", ms),
        "metrics.aggregate_conditions.calls": calls("metrics.aggregate_conditions") / runs,
        "harness.run_trial.p50_s": statistics.median(trial_durations),
        "harness.run_trial.p90_s": percentile(trial_durations, 90),
        "harness.record.us": self_per_call("harness.record", us),
        "harness.write_csv.ms": total("harness.write_csv")
        / (config.trials * len(config.conditions) * runs) * ms,
        "harness.load_csv.ms": self_per_call("harness.load_csv", ms),
        "harness.build_summary.ms": self_per_call("harness.build_summary", ms),
        "plots.emit_plots.ms": self_per_call("plots.emit_plots", ms),
        "cli.report.s": total("cli.report") / s["cli.report"]["calls"],
        "trace.coverage": trial["child_s"] / trial["total_s"],
    }


# -- statistics and output ------------------------------------------------------


def percentile(values, p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def upper_percentile(values):
    """The highest of p99/p95/p90/p75/p50 with at least ten samples beyond it."""
    for p in (99, 95, 90, 75, 50):
        if len(values) * (100 - p) / 100 >= 10:
            return f"p{p}", percentile(values, p)
    return "max", max(values)


def print_end_to_end(name: str, result: dict):
    for metric, values in result["samples"].items():
        if not values:
            continue
        label, upper = upper_percentile(values)
        print(
            f"{name:>13} {metric:<16} median {statistics.median(values):12.6g} "
            f"{UNITS[metric]:<4} {label} {upper:12.6g}  n={len(values)}"
        )
    frac = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    print(
        f"{name:>13} {'failed_frac':<16} {frac:.6g} "
        f"({result['failed']} of {result['attempted']} operations)"
    )


def print_layers(name: str, result: dict):
    for metric, entry in result["metrics"].items():
        print(f"{name:>13} {metric:<36} {entry['value']:14.6g} {entry['unit']}")
    if "spans" in result:
        print(f"{name:>13} spans written to {result['spans']}")


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    session = Session(load_program(), workload, seed)
    if trace:
        return traced(session, seconds, Tracer())
    return measure(session, seconds)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be an unsigned 64-bit integer")
    if args.seconds < 0:
        parser.error("--seconds must not be negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {n: run_workload(WORKLOADS[n], args.seed, args.seconds, args.trace) for n in names}
        info = machine()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("machine " + json.dumps(info, sort_keys=True))
    for name, result in results.items():
        (print_layers if args.trace else print_end_to_end)(name, result)
        for problem in result["problems"]:
            print(f"{name:>13} PROBLEM {problem}")
    if len(results) == 1:
        (only,) = results.values()
        metrics = only["metrics"]
    else:
        metrics = {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
