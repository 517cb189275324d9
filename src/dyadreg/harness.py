"""Trial and experiment orchestration.

A trial is a fully seeded simulation of one condition; an experiment maps
trials over conditions, writes CSV and JSON artifacts, and records a
manifest. Every random draw descends from the root seed through labelled
sub-seeds, so reruns and parallel runs produce identical artifacts.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import re
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .agents import AgentKind, init_agent
from .config import MAX_TRIALS, ExperimentConfig, save_config
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
    AUC_DTYPE,
    CNORM_DTYPE,
    CURVES_DTYPE,
    ROUND_DTYPE,
    SPIKE_RANGE,
    TrialLog,
    auc_window,
    c_norm,
    iteration_rows,
    jsd_latent,
    round_rows,
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


def digest(data: bytes) -> str:
    """The SHA-256 of `data` in hex: the seal manifest.json records of each artifact."""
    return hashlib.sha256(data).hexdigest()


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


def shuffled_window(parent_seqs, infant_states, seeds, lo: int, hi: int) -> tuple:
    """The time-shuffle control of a stack of trials over the inclusive
    0-based iteration window [lo, hi]. Trial i has the parent's beliefs
    parent_seqs[i], an (iterations, states) array, the states its infant
    sensed infant_states[i], and its seeds seeds[i], as many for each trial.
    Returns the AUC and the median of the window's belief divergence, two
    (trials, seeds) arrays, under one permutation per seed; a seed of None
    keeps time order. summary.json and the shuffle-control command both come
    from here. Each permutation is drawn over the whole series, but only the
    window's rows are computed, all in one shuffle_control call."""
    window = np.arange(lo, hi + 1)
    infant = np.array([
        [states[window if seed is None else make_rng(seed).permutation(len(states))[lo : hi + 1]]
         for seed in trial_seeds]
        for states, trial_seeds in zip(infant_states, seeds)
    ])
    parent = np.array([seq[lo : hi + 1] for seq in parent_seqs])[:, None]
    shuffled = shuffle_control(np.broadcast_to(parent, infant.shape + parent.shape[-1:]), infant)
    return auc_window(shuffled, 0, hi - lo), np.median(shuffled, axis=-1)


def build_world(config: ExperimentConfig):
    """Transition model and preference surface described by a config."""
    world = build_transition_model(config.branch_prob, config.eat_gain, config.temp_high_min)
    if config.c_values is not None:
        pref = PriorPreference(np.asarray(config.c_values, dtype=float))
    else:
        pref = build_prior_preference(config.c_sigma, config.c_floor)
    return world, pref


def _check_batch(conditions, trials):
    """ValueError, in one line that names the argument, unless `conditions`
    is a non-empty sequence of names, not one str, and `trials` holds as
    many integer indices in [0, MAX_TRIALS), the trial CSV's trial column."""
    if isinstance(conditions, str) or not len(conditions):
        raise ValueError(f"conditions must be a non-empty sequence of names, not {conditions!r}")
    if len(trials) != len(conditions):
        counts = f"{len(trials)} for {len(conditions)}"
        raise ValueError(f"trials must hold one index per condition, not {counts}")
    for t in trials:
        if isinstance(t, bool) or not isinstance(t, (int, np.integer)) or not 0 <= t < MAX_TRIALS:
            raise ValueError(f"trials must be integers in [0, {MAX_TRIALS}), not {t!r}")


def run_trial(config: ExperimentConfig, conditions, trials) -> list:
    """The seeded trials `trials`, trial trials[i] under conditions[i], run
    as one batch in the world build_world(config) builds: each `iterations`
    two-round exchanges from the fixed start state. Returns their TrialLogs
    in that order; a trial's log does not depend on its batch.

    Each round writes its cells into the record in place: the outcome, the
    parent's beliefs, the landing states and the two model errors. The
    other columns are derived after the last round."""
    _check_batch(conditions, trials)
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
    rounds["condition"] = np.array(names).reshape(count, 1)
    rounds["trial"] = np.array(trials).reshape(count, 1)
    rounds["iteration"], rounds["round"] = round_rows(n)
    speakers = [kind.value for kind in ROUND_SPEAKERS[config.round_order]]
    rounds["speaker"] = speakers * config.iterations
    # The action column: symbol w names action w.
    rounds["action"] = rounds["shared_w"]
    rounds["true_x"], rounds["true_y"] = to_xy(states)
    rounds["c_norm"] = c_norm(states, pref)
    rounds["jsd_z"] = jsd_latent(parent_round_beliefs, states)
    return [
        TrialLog(names[i], trials[i], seeds[i], rounds[i], parent_round_beliefs[i])
        for i in range(count)
    ]


# -- the run directory and its CSV tables --------------------------------------


def _write_lines(path, header, lines):
    """Write the header, then `lines`, as one text in one call, each line
    ending in CRLF as the csv module ends it."""
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join([",".join(header), *lines, ""]))


def _write_csv(path, table):
    """Write the structured array `table`: its field names as the header,
    then a line per row, each cell by its field's kind. That is the one cell
    rule of every table but the belief dump: a float as "%.9g" writes it in
    C, the text _fmt gives; a string as it is; any other cell as an integer,
    so a flag is 0/1 (tolist gives a bool, which "%s" would print as True).
    No cell the program writes needs quoting."""
    names = table.dtype.names
    line = ",".join({"f": "%.9g", "U": "%s"}.get(table.dtype[n].kind, "%d") for n in names)
    _write_lines(path, names, [line % row for row in table.tolist()])


def _load_csv(path, data, header, dtype) -> np.ndarray:
    """The rows of `data`, the bytes of the CSV at `path`, under `header`,
    parsed by np.loadtxt into the structured `dtype`; its lines end in LF,
    CRLF or CR, as open() reads them. ValueError names the file for another
    header, no data rows, a row with another number of cells, a cell that
    does not parse, or rows that are not rounds 1 and 2 of iterations 1, 2, ...,
    and for bytes that are not UTF-8 text."""
    try:
        text = data.decode()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: byte {exc.start} is not UTF-8 text") from None
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    first, *lines = text.removesuffix("\n").split("\n")
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
    iteration, round_ = round_rows(len(rows))
    if len(rows) % 2 or not (
        np.array_equal(rows["iteration"], iteration) and np.array_equal(rows["round"], round_)
    ):
        raise ValueError(f"{path}: rows must be rounds 1 and 2 of iterations 1, 2, ... in order")
    return rows


def write_trial_csv(log: TrialLog, path):
    """The trial CSV: the record, a row per round, as _write_csv writes it."""
    _write_csv(path, log.rounds)


def load_trial_csv(path, data=None) -> np.ndarray:
    """A trial CSV's rows, with dtype ROUND_DTYPE; `data` is its bytes when
    the caller has read them. The file must load as _load_csv loads it, its
    condition and speaker cells must name a condition and an agent, and its
    true_x and true_y cells must lie in [0, N_LEVELS); otherwise ValueError
    names it."""
    data = Path(path).read_bytes() if data is None else data
    rounds = _load_csv(path, data, CSV_HEADER, CSV_READ_DTYPE).astype(ROUND_DTYPE)
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
    beliefs = log.parent_round_beliefs
    cells = np.full(beliefs.shape, "0", object)
    formatted = beliefs.view(np.uint64) != 0
    cells[formatted] = list(map(_fmt, beliefs[formatted].tolist()))
    iteration, round_ = round_rows(len(beliefs))
    rows = zip(iteration.tolist(), round_.tolist(), map(",".join, cells.tolist()))
    _write_lines(path, BELIEF_HEADER, ["%d,%d,%s" % row for row in rows])


def load_beliefs_csv(path, data=None) -> np.ndarray:
    """The parent's belief after every round, a (rounds, states) array; an
    iteration's are its iteration_rows. `data` is the dump's bytes when the
    caller has read them. The file must load as _load_csv loads it, and every
    belief must be finite and non-negative and sum to 1 within RENORM_TOL;
    otherwise ValueError names the file."""
    data = Path(path).read_bytes() if data is None else data
    values = _load_csv(path, data, BELIEF_HEADER, BELIEF_READ_DTYPE)["belief"]
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


def build_summary(config: ExperimentConfig, logs) -> tuple:
    """summary.json and the run's summary tables from `logs`, TrialLogs all
    of one length. Conditions keep their first-appearance order in `logs`,
    and each condition's trials keep log order. A condition's entry holds
    the moments of its trials' mean comfort, snapshots of its mean error
    curves, and per trial, where the run reaches them, the window numbers:
    the divergence median, AUC and mean shuffled AUC over the alignment
    window, and the rare-vs-ordinary divergence means over the spike range.
    c_norm_ranking lists the conditions by mean comfort, highest first; a
    tie keeps their order. `tables` maps each table's file name to its
    structured array. Each per-iteration series is stacked once, a row per
    trial, and every number is read from those stacks. ValueError if `logs`
    is empty."""
    if not logs:
        raise ValueError("no trial logs to summarise")
    names = CURVES_DTYPE.names[1:] + ("rare_branch",)
    stacks = {name: np.array([log.iteration_series(name) for log in logs]) for name in names}
    jsd, n = stacks["jsd_z"], stacks["jsd_z"].shape[1]
    stats = [{"trial": log.trial_index} for log in logs]
    lo, hi = ALIGNMENT_WINDOW[0] - 1, ALIGNMENT_WINDOW[1] - 1
    if hi < n:
        seeds = [shuffle_seeds(config, log.condition, log.trial_index) for log in logs]
        shuffled, _ = shuffled_window(
            [iteration_rows(log.parent_round_beliefs) for log in logs],
            [iteration_rows(log.landing_states()) for log in logs],
            seeds, lo, hi,
        )
        medians, aucs = np.median(jsd[:, lo : hi + 1], axis=1), auc_window(jsd, lo, hi)
        for i, entry in enumerate(stats):
            entry["jsd_median"], entry["auc_original"] = float(medians[i]), float(aucs[i])
            entry["auc_shuffled"] = float(shuffled[i].mean())
    # An empty spike range leaves every trial's rare flags empty.
    spike = slice(SPIKE_RANGE[0] - 1, SPIKE_RANGE[1])
    for entry, window, rare in zip(stats, jsd[:, spike], stacks["rare_branch"][:, spike]):
        if rare.any() and not rare.all():
            entry["jsd_mean_rare"] = float(window[rare].mean())
            entry["jsd_mean_ordinary"] = float(window[~rare].mean())

    # The snapshots' 0-based iterations; a run shorter than 20 has no iter20.
    snapshot_at = {"first": 0, "iter20": ALIGNMENT_WINDOW[0] - 1, "last": n - 1}
    conditions, tables, cnorm, auc = {}, {}, [], []
    for cond in dict.fromkeys(log.condition for log in logs):
        rows = [i for i, log in enumerate(logs) if log.condition == cond]
        per_trial, count = stacks["c_norm"][rows].mean(axis=1), len(rows)
        std = float(per_trial.std(ddof=1)) if count > 1 else 0.0
        curve = tables[f"curves_{cond}.csv"] = np.rec.fromarrays(
            [np.arange(1, n + 1)] + [stacks[k][rows].mean(axis=0) for k in CURVES_DTYPE.names[1:]],
            dtype=CURVES_DTYPE,
        )
        entry = conditions[cond] = {
            "n_trials": count,
            "mean_c_norm": float(per_trial.mean()),
            "std_c_norm": std,
            "sem_c_norm": std / np.sqrt(count) if count > 1 else 0.0,
            "per_trial_mean_c_norm": per_trial.tolist(),
            "trials": [stats[i] for i in rows],
            "kld_snapshots": {
                name: {key: float(curve[name][i]) for key, i in snapshot_at.items() if i < n}
                for name in ("kld_A", "kld_B_sleep")
            },
        }
        # A summary table's columns after the condition are summary.json keys: of a
        # condition's entry in summary_cnorm.csv, of one of its trials' in summary_auc.csv.
        cnorm.append((cond, *(entry[k] for k in CNORM_DTYPE.names[1:])))
        if hi < n:
            auc += [(cond, *(t[k] for k in AUC_DTYPE.names[1:])) for t in entry["trials"]]
    tables["summary_cnorm.csv"] = np.array(cnorm, CNORM_DTYPE)
    tables["summary_auc.csv"] = np.array(auc, AUC_DTYPE)
    ranking = sorted(conditions, key=lambda c: conditions[c]["mean_c_norm"], reverse=True)
    summary = {"iterations": config.iterations, "conditions": conditions, "c_norm_ranking": ranking}
    return summary, tables


# -- the full experiment -----------------------------------------------------


@dataclass
class RunManifest:
    """What a run produced and how to reproduce it: `artifacts` maps each
    file the run wrote to the digest of its bytes. The timings entry is
    wall-clock bookkeeping and is not reproducible."""

    version: str
    config: dict
    trial_seeds: dict
    artifacts: dict
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
            ("artifacts", "an object of SHA-256 digests",
             isinstance(artifacts, dict) and all(type(d) is str for d in artifacts.values())),
        ):
            if not ok:
                raise ValueError(f"a manifest's {name} must be {kind}")
        return cls(**{name: data[name] for name in names})


@dataclass(frozen=True)
class FinishedRun:
    """A finished run as open_run found it. Each reader checks the bytes of
    every file it opens against the digest the manifest records, and
    ValueError names a file that differs."""

    path: Path
    manifest: RunManifest
    config: ExperimentConfig

    def _listed_path(self, condition: str, index: int, name: str) -> Path:
        """The path of `name`, a file of a trial the manifest must list."""
        if not 0 <= index < len(self.manifest.trial_seeds.get(condition, [])):
            manifest = self.path / "manifest.json"
            raise ValueError(f"{manifest}: lists no trial {index} of {condition}")
        return self.path / name

    def _sealed(self, name: str) -> bytes:
        """The bytes of `name`, a listed file, read once and checked to be
        those the manifest sealed."""
        if name not in self.manifest.artifacts:
            raise ValueError(f"{self.path / 'manifest.json'}: does not list {name}")
        data = (self.path / name).read_bytes()
        if digest(data) != self.manifest.artifacts[name]:
            raise ValueError(f"{self.path / name}: differs from the SHA-256 manifest.json records")
        return data

    def check(self) -> dict:
        """Check every listed file against its digest, and return summary.json
        as the run wrote it, parsed from the bytes that were checked."""
        for name in self.manifest.artifacts:
            if name != "summary.json":
                self._sealed(name)
        return json.loads(self._sealed("summary.json"))

    def trial(self, condition: str, index: int) -> TrialLog:
        """A listed trial's CSV as a TrialLog with the manifest's seed."""
        name = trial_files(condition, index)[0]
        path = self._listed_path(condition, index, name)
        rounds = load_trial_csv(path, self._sealed(name))
        return TrialLog(condition, index, self.manifest.trial_seeds[condition][index], rounds)

    def parent_beliefs(self, condition: str, index: int) -> np.ndarray:
        """A listed trial's belief dump as load_beliefs_csv reads it."""
        name = trial_files(condition, index)[1]
        path = self._listed_path(condition, index, name)
        if name not in self.manifest.artifacts:
            raise FileNotFoundError(f"{path} not found; rerun with --dump-beliefs")
        return load_beliefs_csv(path, self._sealed(name))


def open_run(run_dir) -> FinishedRun:
    """A finished run, its manifest and config parsed once. The manifest is
    written last, so a directory without one holds no finished run
    (FileNotFoundError). ValueError names the manifest if it does not parse,
    a field is missing or bad, its config is invalid, it lists no trials, or
    its trial_seeds name other conditions than its config."""
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
    if sorted(manifest.trial_seeds) != sorted(config.conditions):
        raise ValueError(f"{path}: trial_seeds must name the config's conditions")
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
    manifest is written last, so a run that stops midway leaves none. It
    seals the run: the digest of every file, taken after the last write.
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

    artifacts = ["config.json", "summary.json"]
    for log in logs:
        artifacts.extend(write_trial_files(log, out, config.dump_beliefs))

    summary, tables = build_summary(config, logs)
    (out / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n"
    )
    # The snapshot normalizes the two knobs that cannot change the results
    # (where the run lives, how many processes computed it), so artifacts
    # are byte-identical across locations and worker counts.
    snapshot = config.replaced(out_dir=".", workers=1)
    save_config(snapshot, out / "config.json")
    for name, table in tables.items():
        _write_csv(out / name, table)
    artifacts.extend(tables)

    artifacts.extend(emit_plots(out, config, summary))

    manifest = RunManifest(
        version=__version__,
        config=snapshot.to_dict(),
        # The logs are condition-major and trial-ascending.
        trial_seeds={
            cond: [log.seed for log in logs if log.condition == cond] for cond in config.conditions
        },
        artifacts={name: digest((out / name).read_bytes()) for name in sorted(artifacts)},
        timings={"total_seconds": round(time.perf_counter() - t0, 3)},
    )
    (out / "manifest.json").write_text(manifest.to_json())
    return manifest
