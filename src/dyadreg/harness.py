"""Trial and experiment orchestration.

A trial is a fully seeded simulation of one condition; an experiment maps
trials over conditions, writes CSV and JSON artifacts, and records a
manifest. Every random draw descends from the root seed through labelled
sub-seeds, so reruns and parallel runs produce identical artifacts.
"""

from __future__ import annotations

import dataclasses
import json
import re
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .agents import AgentKind, init_agent
from .config import ExperimentConfig, save_config
from .dialogue import CONDITION_NAMES, ROUND_SPEAKERS, DialogueOutcome
from .dialogue import condition_codes, place_uniforms, run_iteration
from .environment import (
    N_LEVELS,
    N_STATES,
    START_STATE,
    PriorPreference,
    build_prior_preference,
    build_transition_model,
    to_xy,
)
from .metrics import (
    ALIGNMENT_WINDOW,
    ROUND_DTYPE,
    SPIKE_RANGE,
    TrialLog,
    aggregate_conditions,
    auc_window,
    c_norm,
    jsd_latent,
    shuffle_control,
    trial_files,
)
from .plots import emit_plots
from .probability import RENORM_TOL, derive_seed, make_rng

CSV_HEADER = list(ROUND_DTYPE.names)
# The trial CSV's columns as its cells parse: flags are written as 0/1 and
# read as int8, since the text "0" would cast to True.
CSV_READ_DTYPE = [(n, "i1" if ROUND_DTYPE[n] == bool else ROUND_DTYPE[n]) for n in CSV_HEADER]

BELIEF_HEADER = ["iteration", "round"] + [f"q{i:02d}" for i in range(N_STATES)]
# The belief dump's columns as they parse: iteration and round, then the belief as one field.
BELIEF_READ_DTYPE = np.dtype(CSV_READ_DTYPE[2:4] + [("belief", "f8", N_STATES)], align=True)


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def trial_seed(root_seed: int, condition: str, trial_index: int) -> int:
    """Sub-seed of one trial, stable across orderings and worker counts."""
    return derive_seed(root_seed, condition, trial_index)


def shuffle_seed(root_seed: int, condition: str, trial_index: int, k: int = 0) -> int:
    """Sub-seed of the k-th shuffle permutation for one trial."""
    return derive_seed(root_seed, condition, trial_index, "shuffle", k)


def shuffle_seeds(config: ExperimentConfig, condition: str, trial_index: int) -> list:
    """The sub-seeds of a trial's config.shuffle_permutations permutations."""
    return [
        shuffle_seed(config.seed, condition, trial_index, k)
        for k in range(config.shuffle_permutations)
    ]


def shuffled_window(parent_seq, infant_states, seeds, lo: int, hi: int) -> tuple:
    """The time-shuffle control over the inclusive 0-based iteration window
    [lo, hi]: the AUC and the median of the shuffled belief divergence,
    each the mean over one permutation per seed. summary.json and the
    shuffle-control command both come from here. Each permutation is drawn
    over the whole series, but only the window's rows are computed."""
    n = len(parent_seq)
    aucs, medians = [], []
    for seed in seeds:
        rows = make_rng(seed).permutation(n)[lo : hi + 1]
        shuffled = shuffle_control(parent_seq[lo : hi + 1], infant_states[rows])
        aucs.append(auc_window(shuffled, 0, hi - lo))
        medians.append(np.median(shuffled))
    return float(np.mean(aucs)), float(np.mean(medians))


def build_world(config: ExperimentConfig):
    """Transition model and preference surface described by a config."""
    world = build_transition_model(config.branch_prob, config.eat_gain, config.temp_high_min)
    if config.c_values is not None:
        pref = PriorPreference(np.asarray(config.c_values, dtype=float))
    else:
        pref = build_prior_preference(config.c_sigma, config.c_floor)
    return world, pref


def run_trial(config: ExperimentConfig, conditions, trials) -> list:
    """The seeded trials `trials`, trial trials[i] under conditions[i], run
    as one batch in the world build_world(config) builds: each `iterations`
    two-round exchanges from the fixed start state. Returns their TrialLogs
    in that order; a trial's log does not depend on its batch.

    Each round writes its cells into the record in place: the outcome, the
    parent's beliefs, the landing states and the two model errors. The
    other columns are derived after the last round."""
    codes = condition_codes(conditions)
    names = [CONDITION_NAMES[code] for code in codes]
    world, pref = build_world(config)
    count, n = len(names), 2 * config.iterations
    seeds = list(map(trial_seed, [config.seed] * count, names, trials))
    persist = config.mh_current_w == "persistent"
    draws = iter(place_uniforms(seeds, codes, config.iterations, persist).T)
    parent, infant = (
        init_agent(kind, world, pref, config.dirichlet_prior, config.preference_mode, count)
        for kind in (AgentKind.PARENT, AgentKind.INFANT)
    )
    rounds = np.zeros((count, n), ROUND_DTYPE)
    parent_round_beliefs = np.empty((count, n, N_STATES))
    states = np.empty((count, n), int)
    written = (*DialogueOutcome._fields, "rare_branch", "kld_A", "kld_B_sleep")
    record = [rounds[name] for name in written]
    row = 0

    def on_round(speaker, outcome, z, rare):
        nonlocal row
        parent_round_beliefs[:, row] = parent.belief
        states[:, row] = z
        kld_A = np.add.reduce(parent.map_kls, axis=1) / N_STATES
        kld_B_sleep = np.add.reduce(infant.sleep_kls, axis=1) / N_STATES
        values = (*outcome, rare, kld_A, kld_B_sleep)
        for i, column in enumerate(record):
            column[:, row] = values[i]
        row += 1

    z, current_w = np.array([START_STATE] * count), None
    for _ in range(config.iterations):
        z, current_w = run_iteration(
            parent, infant, world, z, codes, draws, config.round_order, current_w, persist,
            on_round=on_round,
        )
    del parent, infant, draws  # the derived columns below reuse their memory
    index = np.arange(n)
    rounds["condition"] = np.array(names).reshape(count, 1)
    rounds["trial"] = np.array(trials).reshape(count, 1)
    rounds["iteration"] = index // 2 + 1
    rounds["round"] = index % 2 + 1
    speakers = [kind.value for kind in ROUND_SPEAKERS[config.round_order]]
    rounds["speaker"] = speakers * config.iterations
    # The action column: symbol w names action w.
    rounds["action"] = rounds["shared_w"]
    rounds["true_x"], rounds["true_y"] = to_xy(states)
    rounds["c_norm"] = c_norm(states, pref)
    for i in range(count):
        rounds[i]["jsd_z"] = jsd_latent(parent_round_beliefs[i], states[i])
    return [
        TrialLog(names[i], trials[i], seeds[i], rounds[i], parent_round_beliefs[i])
        for i in range(count)
    ]


# -- the run directory and its CSV tables --------------------------------------


def _write_csv(path, header, line, rows):
    """Write the header, then `line % row` for each row, as one text in one
    call, each line ending in CRLF as the csv module ends it. No cell the
    program writes needs quoting, and "%.9g" formats a float as _fmt does."""
    line += "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write("".join([",".join(header) + "\r\n", *(line % row for row in rows)]))


def _load_csv(path, header, dtype) -> np.ndarray:
    """The rows of a CSV under `header`, parsed by np.loadtxt into the
    structured `dtype`. ValueError names the file for another header, no
    data rows, a row with another number of cells, a cell that does not
    parse, or rows that are not rounds 1 and 2 of iterations 1, 2, ..."""
    with open(path) as fh:
        first, *lines = fh.read().removesuffix("\n").split("\n")
    if first.split(",") != header:
        raise ValueError(f"{path}: unexpected CSV header")
    if not lines:
        raise ValueError(f"{path}: no data rows")
    # np.loadtxt skips a blank line, so this count alone refuses one.
    if {line.count(",") for line in lines} != {len(header) - 1}:
        raise ValueError(f"{path}: every row needs {len(header)} cells")
    try:
        # Older numpy casts a float in an int column and only warns about it.
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            rows = np.loadtxt(lines, delimiter=",", comments=None, dtype=dtype, ndmin=1)
    except ValueError as exc:
        # numpy counts rows from 0 over the data lines, and columns from 1.
        where = re.fullmatch(r"(.*) at row (\d+), column (\d+)\.", str(exc))
        if where is None:
            raise ValueError(f"{path}: {exc}") from None
        line, column = int(where[2]) + 2, header[int(where[3]) - 1]
        raise ValueError(f"{path}: line {line}, column {column}: {where[1]}") from None
    index = np.arange(len(rows))
    if len(rows) % 2 or not (
        np.array_equal(rows["iteration"], index // 2 + 1)
        and np.array_equal(rows["round"], index % 2 + 1)
    ):
        raise ValueError(f"{path}: rows must be rounds 1 and 2 of iterations 1, 2, ... in order")
    return rows


def write_trial_csv(log: TrialLog, path):
    """The trial CSV: a row per round, its flags as 0/1 (tolist gives a
    bool, which "%s" would print as True) and its floats as _fmt cells."""
    kinds = [ROUND_DTYPE[name].kind for name in CSV_HEADER]
    line = ",".join({"f": "%.9g", "U": "%s"}.get(kind, "%d") for kind in kinds)
    _write_csv(path, CSV_HEADER, line, log.rounds.tolist())


def load_trial_csv(path) -> np.ndarray:
    """A trial CSV's rows, with dtype ROUND_DTYPE. The file must load as
    _load_csv loads it, its condition and speaker cells must name a
    condition and an agent, and its true_x and true_y cells must lie in
    [0, N_LEVELS); otherwise ValueError names it."""
    rounds = _load_csv(path, CSV_HEADER, CSV_READ_DTYPE).astype(ROUND_DTYPE)
    if not (
        np.isin(rounds["condition"], CONDITION_NAMES).all()
        and np.isin(rounds["speaker"], [kind.value for kind in AgentKind]).all()
    ):
        raise ValueError(f"{path}: a condition or speaker cell names no condition or agent")
    if not all(((rounds[n] >= 0) & (rounds[n] < N_LEVELS)).all() for n in ("true_x", "true_y")):
        raise ValueError(f"{path}: a true_x or true_y cell lies outside [0, {N_LEVELS})")
    return rounds


def write_beliefs_csv(log: TrialLog, path):
    """The belief dump: the parent's belief after every round, its +0.0
    cells, most of them, as "0" and only the others (-0.0 too) as _fmt cells.
    The infant's belief is one-hot at the trial CSV's state, so it is not repeated."""
    cells = np.full(log.parent_round_beliefs.shape, "0", object)
    formatted = log.parent_round_beliefs.view(np.uint64) != 0
    cells[formatted] = list(map(_fmt, log.parent_round_beliefs[formatted].tolist()))
    rows = enumerate(map(",".join, cells.tolist()))
    _write_csv(path, BELIEF_HEADER, "%d,%d,%s", ((i // 2 + 1, i % 2 + 1, q) for i, q in rows))


def load_beliefs_csv(path) -> np.ndarray:
    """The parent's belief after every round, a (rounds, states) array; an
    iteration's are its [1::2] rows. The file must load as _load_csv loads
    it, and every belief must be finite and non-negative and sum to 1 within
    RENORM_TOL; otherwise ValueError names the file."""
    values = _load_csv(path, BELIEF_HEADER, BELIEF_READ_DTYPE)["belief"]
    # A NaN or infinite cell fails one of the two tests.
    bad = ~((values >= 0.0).all(axis=1) & (np.abs(values.sum(axis=1) - 1.0) < RENORM_TOL))
    if bad.any():
        raise ValueError(
            f"{path}: line {np.flatnonzero(bad)[0] + 2}: a belief must be finite "
            "and non-negative and sum to 1"
        )
    return values


def write_trial_files(log: TrialLog, out: Path, dump_beliefs: bool) -> list:
    """Write one trial's CSV into the run directory `out`, and its belief
    dump when `dump_beliefs`; return their run-relative names."""
    names = trial_files(log.condition, log.trial_index)[: 1 + dump_beliefs]
    (out / names[0]).parent.mkdir(parents=True, exist_ok=True)
    write_trial_csv(log, out / names[0])
    if dump_beliefs:
        write_beliefs_csv(log, out / names[1])
    return list(names)


# -- summaries ---------------------------------------------------------------


def _alignment_stats(config: ExperimentConfig, log: TrialLog) -> dict:
    """Windowed alignment numbers for one trial: divergence median and AUC
    in the alignment window, the shuffled AUC, and the rare-vs-ordinary
    divergence means over the spike range."""
    series = log.iteration_series("jsd_z")
    n = series.size
    lo, hi = ALIGNMENT_WINDOW[0] - 1, ALIGNMENT_WINDOW[1] - 1
    out: dict = {"trial": log.trial_index}
    if hi < n:
        out["jsd_median"] = float(np.median(series[lo : hi + 1]))
        out["auc_original"] = auc_window(series, lo, hi)
        seeds = shuffle_seeds(config, log.condition, log.trial_index)
        out["auc_shuffled"], _ = shuffled_window(
            log.parent_round_beliefs[1::2], log.landing_states()[1::2], seeds, lo, hi
        )
    s_lo, s_hi = SPIKE_RANGE[0] - 1, min(SPIKE_RANGE[1] - 1, n - 1)
    if s_lo <= s_hi:
        rare = log.iteration_series("rare_branch")[s_lo : s_hi + 1]
        window = series[s_lo : s_hi + 1]
        if rare.any() and not rare.all():
            out["jsd_mean_rare"] = float(window[rare].mean())
            out["jsd_mean_ordinary"] = float(window[~rare].mean())
    return out


def build_summary(config: ExperimentConfig, logs, agg) -> dict:
    """Cross-trial summary: comfort moments per condition, their ranking,
    metric snapshots, and per-trial alignment statistics. `agg` is
    aggregate_conditions(logs)."""
    conditions: dict[str, dict] = {}
    for cond, data in agg.items():
        entry = {
            "n_trials": data["n_trials"],
            "mean_c_norm": data["mean_c_norm"],
            "std_c_norm": data["std_c_norm"],
            "sem_c_norm": data["sem_c_norm"],
            "per_trial_mean_c_norm": [float(v) for v in data["per_trial_mean_c_norm"]],
            "trials": [
                _alignment_stats(config, log)
                for log in sorted(logs, key=lambda lg: lg.trial_index)
                if log.condition == cond
            ],
        }
        curves = data["curves"]
        snapshots = {}
        for name in ("kld_A", "kld_B_sleep"):
            curve = curves[name]
            snap = {"first": float(curve[0]), "last": float(curve[-1])}
            if curve.size >= ALIGNMENT_WINDOW[0]:
                snap["iter20"] = float(curve[ALIGNMENT_WINDOW[0] - 1])
            snapshots[name] = snap
        entry["kld_snapshots"] = snapshots
        conditions[cond] = entry
    ranking = sorted(conditions, key=lambda c: conditions[c]["mean_c_norm"], reverse=True)
    return {
        "iterations": config.iterations,
        "conditions": conditions,
        "c_norm_ranking": ranking,
    }


# -- the full experiment -----------------------------------------------------


@dataclass
class RunManifest:
    """What a run produced and how to reproduce it. The timings entry is
    wall-clock bookkeeping and is not reproducible."""

    version: str
    config: dict
    trial_seeds: dict
    artifacts: list
    timings: dict

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "RunManifest":
        """ValueError unless the text is a JSON object with every field, of its JSON type."""
        data = json.loads(text)
        names = [f.name for f in dataclasses.fields(cls)]
        if not isinstance(data, dict) or not data.keys() >= set(names):
            raise ValueError(f"a manifest is a JSON object with the keys {', '.join(names)}")
        seeds, artifacts = data["trial_seeds"], data["artifacts"]
        for name, kind, ok in (
            ("version", "a string", isinstance(data["version"], str)),
            ("config", "an object", isinstance(data["config"], dict)),
            ("timings", "an object", isinstance(data["timings"], dict)),
            ("trial_seeds", "an object of integer lists", isinstance(seeds, dict) and all(
                isinstance(v, list) and all(type(s) is int for s in v) for v in seeds.values())),
            ("artifacts", "a list of strings",
             isinstance(artifacts, list) and all(type(a) is str for a in artifacts)),
        ):
            if not ok:
                raise ValueError(f"a manifest's {name} must be {kind}")
        return cls(**{name: data[name] for name in names})


def _is_number_list(values) -> bool:
    """Whether a JSON value is a list of numbers (true and false are not)."""
    return isinstance(values, list) and all(type(v) in (int, float) for v in values)


def _is_trial_entry(trial) -> bool:
    """Whether a summary.json trials entry is an object with both AUC numbers or neither."""
    if not isinstance(trial, dict):
        return False
    aucs = [trial[key] for key in ("auc_original", "auc_shuffled") if key in trial]
    return not aucs or len(aucs) == 2 and _is_number_list(aucs)


@dataclass(frozen=True)
class FinishedRun:
    """A finished run as open_run found it. Each reader checks what it reads
    against the manifest and its config, and ValueError names the file at fault."""

    path: Path
    manifest: RunManifest
    config: ExperimentConfig

    def _listed_path(self, condition: str, index: int, name: str) -> Path:
        """The path of `name`, a file of a trial the manifest must list."""
        if not 0 <= index < len(self.manifest.trial_seeds.get(condition, [])):
            manifest = self.path / "manifest.json"
            raise ValueError(f"{manifest}: lists no trial {index} of {condition}")
        return self.path / name

    def _whole(self, path: Path, rows: np.ndarray) -> np.ndarray:
        """The rows of `path`, which must hold the config's iterations."""
        if len(rows) != 2 * self.config.iterations:
            raise ValueError(
                f"{path}: holds {len(rows) // 2} iterations; "
                f"the manifest's config has {self.config.iterations}"
            )
        return rows

    def trial(self, condition: str, index: int) -> TrialLog:
        """A listed trial's CSV as a TrialLog with the manifest's seed."""
        name = trial_files(condition, index)[0]
        path = self._listed_path(condition, index, name)
        if name not in self.manifest.artifacts:
            raise ValueError(f"{self.path / 'manifest.json'}: does not list {name}")
        rounds = self._whole(path, load_trial_csv(path))
        if not (np.all(rounds["condition"] == condition) and np.all(rounds["trial"] == index)):
            raise ValueError(
                f"{path}: every row must be condition {condition}, trial {index}, "
                "as manifest.json names the file"
            )
        return TrialLog(condition, index, self.manifest.trial_seeds[condition][index], rounds)

    def parent_beliefs(self, condition: str, index: int) -> np.ndarray:
        """A listed trial's belief dump as load_beliefs_csv reads it."""
        name = trial_files(condition, index)[1]
        path = self._listed_path(condition, index, name)
        if name not in self.manifest.artifacts:
            raise FileNotFoundError(f"{path} not found; rerun with --dump-beliefs")
        return self._whole(path, load_beliefs_csv(path))

    def summary_conditions(self, agg: dict) -> dict:
        """summary.json's conditions: an entry per condition of the manifest
        whose trials name each listed trial once, with both AUC numbers or
        neither, and whose per_trial_mean_c_norm agrees with `agg`, the
        aggregate_conditions of the listed trials."""
        path = self.path / "summary.json"
        try:
            summary = json.loads(path.read_text())
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        seeds = self.manifest.trial_seeds
        conditions = summary.get("conditions") if isinstance(summary, dict) else None
        if not isinstance(conditions, dict) or conditions.keys() != seeds.keys():
            raise ValueError(f"{path}: its conditions must be the manifest's: {', '.join(seeds)}")
        for cond, entry in conditions.items():
            trials = entry.get("trials") if isinstance(entry, dict) else None
            if not isinstance(trials, list):
                raise ValueError(f"{path}: the {cond} entry needs a trials list")
            if not all(map(_is_trial_entry, trials)):
                raise ValueError(f"{path}: a trials entry must hold both AUC numbers or neither")
            named, listed = [t.get("trial") for t in trials], [*range(len(seeds[cond]))]
            if not all(type(t) is int for t in named) or sorted(named) != listed:
                raise ValueError(f"{path}: the trials of {cond} must name each listed trial once")
            recorded = entry.get("per_trial_mean_c_norm")
            if not _is_number_list(recorded):
                raise ValueError(f"{path}: per_trial_mean_c_norm must be a list of numbers")
            means = agg[cond]["per_trial_mean_c_norm"] if listed else []
            if len(recorded) != len(means) or not np.allclose(means, recorded, rtol=0, atol=1e-8):
                raise ValueError(
                    f"{path}: per_trial_mean_c_norm of {cond} disagrees with its trial CSVs"
                )
        return conditions


def open_run(run_dir) -> FinishedRun:
    """A finished run, its manifest and config parsed once. The manifest is
    written last, so a directory without one holds no finished run
    (FileNotFoundError). ValueError names the manifest if it does not parse,
    a field is missing or bad, its config is invalid, or it lists no trials."""
    run_dir = Path(run_dir)
    path = run_dir / "manifest.json"
    if not path.is_file():
        raise FileNotFoundError(f"no manifest.json under {run_dir}: not a finished run")
    try:
        manifest = RunManifest.from_json(path.read_text())
        config = ExperimentConfig.from_dict(manifest.config)
    except (ValueError, TypeError) as exc:
        raise ValueError(f"{path}: {exc}") from None
    if not any(manifest.trial_seeds.values()):
        raise ValueError(f"{path}: lists no trials")
    return FinishedRun(run_dir, manifest, config)


def _remove_previous_run(out: Path):
    """Delete what an earlier run into `out` wrote, as its manifest lists
    it: the manifest first, so an interrupted clean-up leaves none, then
    each listed file that resolves inside `out`. Files the manifest does
    not list are kept, and a manifest that from_json rejects lists none."""
    path = out / "manifest.json"
    try:
        artifacts = RunManifest.from_json(path.read_text()).artifacts
    except FileNotFoundError:
        return
    except ValueError:
        artifacts = []
    path.unlink()
    root = out.resolve()
    for rel in artifacts:
        target = (out / rel).resolve()
        if target.is_relative_to(root) and target.is_file():
            target.unlink()


def run_experiment(config: ExperimentConfig) -> RunManifest:
    """Run every (condition, trial) pair, in batches, and write all artifacts.

    Artifacts are byte-stable for a given config regardless of the worker
    count; only the manifest's timings entry varies between runs. The files
    of an earlier run into the same directory are removed first, and the
    manifest is written last, so a run that stops midway leaves none.
    """
    t0 = time.perf_counter()
    out = Path(config.out_dir)
    _remove_previous_run(out)
    # The run's (condition, trial) pairs in min(workers, pairs) contiguous
    # batches, condition-major and trial-ascending, so the logs keep the
    # serial order. Each batch builds its own world.
    pairs = [(cond, t) for cond in config.conditions for t in range(config.trials)]
    batches = np.array_split(np.arange(len(pairs)), min(config.workers, len(pairs)))
    jobs = [(config, [pairs[i][0] for i in b], [pairs[i][1] for i in b]) for b in batches]
    workers = len(jobs)
    if workers > 1:
        # Imported only for a pool: with multiprocessing, socket and logging
        # it would add 15-20 ms to every start-up, serial runs included.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            batch_logs = list(pool.map(run_trial, *zip(*jobs)))
    else:
        batch_logs = [run_trial(*job) for job in jobs]
    logs = [log for batch in batch_logs for log in batch]

    artifacts = ["config.json", "summary.json", "summary_cnorm.csv", "summary_auc.csv"]
    for log in logs:
        artifacts.extend(write_trial_files(log, out, config.dump_beliefs))

    agg = aggregate_conditions(logs)
    summary = build_summary(config, logs, agg)
    (out / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n"
    )
    # The snapshot normalizes the two knobs that cannot change the results
    # (where the run lives, how many processes computed it), so artifacts
    # are byte-identical across locations and worker counts.
    snapshot = config.replaced(out_dir=".", workers=1)
    save_config(snapshot, out / "config.json")

    conditions = summary["conditions"]
    stats = ("mean_c_norm", "std_c_norm", "sem_c_norm")
    _write_csv(
        out / "summary_cnorm.csv",
        ["condition", *stats, "n_trials"],
        "%s,%s,%s,%s,%d",
        (
            (cond, *(_fmt(conditions[cond][k]) for k in stats), conditions[cond]["n_trials"])
            for cond in config.conditions
        ),
    )
    _write_csv(
        out / "summary_auc.csv",
        ["condition", "trial", "auc_original", "auc_shuffled"],
        "%s,%d,%s,%s",
        (
            (cond, row["trial"], _fmt(row["auc_original"]), _fmt(row["auc_shuffled"]))
            for cond in config.conditions
            for row in conditions[cond]["trials"]
            if "auc_original" in row
        ),
    )
    for cond in config.conditions:
        curves = agg[cond]["curves"]
        name = f"curves_{cond}.csv"
        columns = [map(_fmt, curve.tolist()) for curve in curves.values()]
        iterations = range(1, config.iterations + 1)
        line = "%d" + ",%s" * len(curves)
        _write_csv(out / name, ["iteration", *curves], line, zip(iterations, *columns))
        artifacts.append(name)

    artifacts.extend(emit_plots(out, config, summary))

    manifest = RunManifest(
        version=__version__,
        config=snapshot.to_dict(),
        # The logs are condition-major and trial-ascending.
        trial_seeds={
            cond: [log.seed for log in logs if log.condition == cond] for cond in config.conditions
        },
        artifacts=sorted(artifacts),
        timings={"total_seconds": round(time.perf_counter() - t0, 3)},
    )
    (out / "manifest.json").write_text(manifest.to_json())
    return manifest
