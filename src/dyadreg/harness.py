"""Trial and experiment orchestration.

A trial is a fully seeded simulation of one condition; an experiment maps
trials over conditions, writes CSV and JSON artifacts, and records a
manifest. Every random draw descends from the root seed through labelled
sub-seeds, so reruns and parallel runs produce identical artifacts.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .agents import AgentKind, init_agent
from .config import ExperimentConfig, save_config
from .dialogue import ROUND_SPEAKERS, Condition, run_iteration
from .environment import (
    Action,
    N_LEVELS,
    N_STATES,
    PriorPreference,
    VisceralState,
    build_prior_preference,
    build_transition_model,
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
    kld_A_error,
    kld_B_error,
    shuffle_control,
)
from .plots import emit_plots
from .probability import RENORM_TOL, derive_seed, make_rng

START_STATE = VisceralState(2, 2)

CSV_HEADER = list(ROUND_DTYPE.names)

BELIEF_HEADER = ["iteration", "round", "agent"] + [f"q{i:02d}" for i in range(N_STATES)]


def _fmt(x: float) -> str:
    return f"{x:.9g}"


# The cells of a one-hot belief at each state, as the belief dump writes them.
ONE_HOT_CELLS = tuple(",".join(map(_fmt, row)) for row in np.eye(N_STATES).tolist())


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


def run_trial(config: ExperimentConfig, condition, trial_index: int, env=None) -> TrialLog:
    """One seeded trial: `iterations` two-round exchanges from the fixed
    start state, with metrics recorded after every round. `env` is
    build_world(config), built here unless given.

    Each round keeps what the dialogue produced, the parent's belief and
    the two errors that read the agents as they are then; the other
    columns are derived after the last round from the landing states and
    the parent's recorded beliefs."""
    cond = Condition(condition)
    world, pref = build_world(config) if env is None else env
    seed = trial_seed(config.seed, cond.value, trial_index)
    rng = make_rng(seed)
    parent, infant = (
        init_agent(kind, world, pref, config.dirichlet_prior, config.preference_mode)
        for kind in (AgentKind.PARENT, AgentKind.INFANT)
    )
    parent_round_beliefs = np.empty((2 * config.iterations, N_STATES))
    recorded = []
    # Learning changes only the acted slice of the infant's dynamics, and
    # from a sensed previous state only its source column, so the Sleep
    # error moves only after a Sleep round, by that column's KL.
    sleep_kls = np.empty(N_STATES)
    kld_B_sleep = kld_B_error(world.tensor, infant.B, Action.SLEEP, sleep_kls, range(N_STATES))
    prev_state = infant.state

    def on_round(speaker, outcome, z, rare):
        nonlocal kld_B_sleep, prev_state
        if outcome.shared_w == Action.SLEEP:
            # Learning from the uniform start belief touched every column.
            columns = range(N_STATES) if prev_state is None else (prev_state,)
            kld_B_sleep = kld_B_error(world.tensor, infant.B, Action.SLEEP, sleep_kls, columns)
        prev_state = infant.state
        parent_round_beliefs[len(recorded)] = parent.belief
        recorded.append(
            (
                outcome.proposed_w,
                outcome.listener_own_w,
                outcome.accepted,
                outcome.acceptance_prob,
                outcome.shared_w,
                z,
                rare,
                kld_A_error(parent.A),
                kld_B_sleep,
            )
        )

    persist = config.mh_current_w == "persistent"
    z = START_STATE.flat
    current_w = None
    for _ in range(config.iterations):
        z, current_w = run_iteration(
            parent,
            infant,
            world,
            z,
            cond,
            rng,
            round_order=config.round_order,
            current_w=current_w,
            persist_w=persist,
            on_round=on_round,
        )
    proposed, own, accepted, prob, shared, states, rare, kld_A, kld_B = map(
        np.array, zip(*recorded)
    )
    index = np.arange(states.size)
    speakers = [kind.value for kind in ROUND_SPEAKERS[config.round_order]]
    columns = {
        "condition": cond.value,
        "trial": trial_index,
        "iteration": index // 2 + 1,
        "round": index % 2 + 1,
        "speaker": speakers * config.iterations,
        "proposed_w": proposed,
        "listener_own_w": own,
        "accepted": accepted,
        "acceptance_prob": prob,
        "shared_w": shared,
        # The action column: symbol w names action w.
        "action": shared,
        "true_x": states % N_LEVELS,
        "true_y": states // N_LEVELS,
        "rare_branch": rare,
        "c_norm": c_norm(states, pref),
        "jsd_z": jsd_latent(parent_round_beliefs, states),
        "kld_A": kld_A,
        "kld_B_sleep": kld_B,
    }
    rounds = np.empty(states.size, ROUND_DTYPE)
    for name in CSV_HEADER:
        rounds[name] = columns[name]
    return TrialLog(cond.value, trial_index, seed, rounds, parent_round_beliefs)


# -- the run directory and its CSV tables --------------------------------------


def trial_files(condition: str, trial_index: int) -> tuple:
    """Run-relative paths of one trial's CSV and of its belief dump."""
    stem = f"trials/{condition}_t{trial_index:02d}"
    return f"{stem}.csv", f"{stem}_beliefs.csv"


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _read_csv(path, header) -> list:
    """The data rows of a CSV under `header`. ValueError names the file for
    another header, no data rows, or a row with another number of cells."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != header:
            raise ValueError(f"{path}: unexpected CSV header")
        rows = list(reader)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    if set(map(len, rows)) != {len(header)}:
        raise ValueError(f"{path}: every row needs {len(header)} cells")
    return rows


def write_trial_csv(log: TrialLog, path):
    columns = []
    for name in CSV_HEADER:
        column = log.rounds[name]
        kind = column.dtype.kind
        if kind == "b":  # flags are written as 0/1
            column = column.astype(int)
        columns.append(map(_fmt, column.tolist()) if kind == "f" else column.tolist())
    _write_csv(path, CSV_HEADER, zip(*columns))


def load_trial_csv(path, seed: int = -1) -> TrialLog:
    """Rebuild a trial log from its CSV.

    Every cell must parse, and the rows must be rounds 1 and 2 of
    iterations 1, 2, ... in order; otherwise ValueError names the file.
    The beliefs are not part of the CSV; the seed is unknown unless supplied."""
    rows = _read_csv(path, CSV_HEADER)
    rounds = np.empty(len(rows), ROUND_DTYPE)
    for name, cells in zip(CSV_HEADER, zip(*rows)):
        # Cells parse as int() and float() parse them. Flags are written as
        # 0/1 and go through int, since the text "0" would cast to True.
        dtype = np.int8 if ROUND_DTYPE[name].kind == "b" else ROUND_DTYPE[name]
        try:
            rounds[name] = np.array(cells, dtype=object).astype(dtype)
        except (ValueError, OverflowError) as exc:
            raise ValueError(f"{path}: column {name}: {exc}") from None
    index = np.arange(len(rows))
    if len(rows) % 2 or not (
        np.array_equal(rounds["iteration"], index // 2 + 1)
        and np.array_equal(rounds["round"], index % 2 + 1)
    ):
        raise ValueError(
            f"{path}: rows must be rounds 1 and 2 of iterations 1, 2, ... in order"
        )
    return TrialLog(str(rounds["condition"][0]), int(rounds["trial"][0]), seed, rounds)


def write_beliefs_csv(log: TrialLog, path):
    """The belief dump, as _write_csv would write it: no cell needs quoting,
    and "%.9g" formats a float as _fmt does. The infant's belief is one-hot
    at the landing state, so its cells are one of ONE_HOT_CELLS."""
    pair = "%d,%d,parent" + ",%.9g" * N_STATES + "\r\n%d,%d,infant,%s\r\n"
    rounds = zip(log.parent_round_beliefs.tolist(), log.landing_states().tolist())
    cells = ONE_HOT_CELLS
    with open(path, "w", newline="") as fh:
        fh.write(",".join(BELIEF_HEADER) + "\r\n")
        fh.writelines(
            pair % (row // 2 + 1, row % 2 + 1, *belief, row // 2 + 1, row % 2 + 1, cells[k])
            for row, (belief, k) in enumerate(rounds)
        )


def load_beliefs_csv(path) -> tuple:
    """The parent's belief after every round, a (rounds, states) array, and
    the state the infant sensed after every round, one per round; an
    iteration's are its [1::2] rows.

    The rows must be the parent's, then the infant's, for rounds 1 and 2 of
    iterations 1, 2, ... in order, every cell must parse, every belief
    must be finite and non-negative and sum to 1 within RENORM_TOL, and
    every infant belief must be exactly one-hot; otherwise ValueError
    names the file."""
    rows = _read_csv(path, BELIEF_HEADER)
    try:
        labels = [(int(row[0]), int(row[1]), row[2]) for row in rows]
        values = np.array([row[3:] for row in rows], dtype=object).astype(float)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    expected = [
        (i // 4 + 1, i // 2 % 2 + 1, ("parent", "infant")[i % 2]) for i in range(len(rows))
    ]
    if len(rows) % 4 or labels != expected:
        raise ValueError(
            f"{path}: rows must be parent then infant, rounds 1 and 2 of "
            "iterations 1, 2, ... in order"
        )
    # A NaN or infinite cell fails one of the two tests.
    bad = ~((values >= 0.0).all(axis=1) & (np.abs(values.sum(axis=1) - 1.0) < RENORM_TOL))
    if bad.any():
        raise ValueError(
            f"{path}: line {np.flatnonzero(bad)[0] + 2}: a belief must be finite "
            "and non-negative and sum to 1"
        )
    infant = values[1::2]
    states = infant.argmax(axis=1)
    bad = (infant != np.eye(N_STATES)[states]).any(axis=1)
    if bad.any():
        line = 2 * np.flatnonzero(bad)[0] + 3
        raise ValueError(f"{path}: line {line}: an infant belief must be one-hot")
    return values[0::2], states


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


def build_summary(config: ExperimentConfig, logs, agg=None) -> dict:
    """Cross-trial summary: comfort moments per condition, their ranking,
    metric snapshots, and per-trial alignment statistics. `agg` is
    aggregate_conditions(logs), computed here unless given."""
    if agg is None:
        agg = aggregate_conditions(logs)
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


def load_manifest(run_dir) -> RunManifest:
    """The index of a finished run. It is written last, so a directory
    without one holds an unfinished run (FileNotFoundError). ValueError
    names the file if it does not parse or a field is missing or bad."""
    path = Path(run_dir) / "manifest.json"
    if not path.is_file():
        raise FileNotFoundError(f"no manifest.json under {run_dir}: not a finished run")
    try:
        manifest = RunManifest.from_json(path.read_text())
        ExperimentConfig.from_dict(manifest.config)
    except (ValueError, TypeError) as exc:
        raise ValueError(f"{path}: {exc}") from None
    return manifest


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


def _run_job(args) -> TrialLog:
    return run_trial(*args)


def run_experiment(config: ExperimentConfig) -> RunManifest:
    """Run every (condition, trial) pair and write all artifacts.

    Artifacts are byte-stable for a given config regardless of the worker
    count; only the manifest's timings entry varies between runs. The files
    of an earlier run into the same directory are removed first, and the
    manifest is written last, so a run that stops midway leaves none.
    """
    t0 = time.perf_counter()
    out = Path(config.out_dir)
    _remove_previous_run(out)
    env = build_world(config)
    jobs = [(config, cond, t, env) for cond in config.conditions for t in range(config.trials)]
    workers = min(config.workers, len(jobs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            logs = list(pool.map(_run_job, jobs))
    else:
        logs = [_run_job(job) for job in jobs]

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
        (
            [cond, *(_fmt(conditions[cond][k]) for k in stats), conditions[cond]["n_trials"]]
            for cond in config.conditions
        ),
    )
    _write_csv(
        out / "summary_auc.csv",
        ["condition", "trial", "auc_original", "auc_shuffled"],
        (
            [cond, row["trial"], _fmt(row["auc_original"]), _fmt(row["auc_shuffled"])]
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
        _write_csv(out / name, ["iteration", *curves], zip(iterations, *columns))
        artifacts.append(name)

    artifacts.extend(emit_plots(out, config, summary))

    manifest = RunManifest(
        version=__version__,
        config=snapshot.to_dict(),
        trial_seeds={
            cond: [trial_seed(config.seed, cond, t) for t in range(config.trials)]
            for cond in config.conditions
        },
        artifacts=sorted(artifacts),
        timings={"total_seconds": round(time.perf_counter() - t0, 3)},
    )
    (out / "manifest.json").write_text(manifest.to_json())
    return manifest
