"""Command-line interface.

Subcommands: `run` executes a full experiment and writes all artifacts,
`trial` runs a single seeded trial, `shuffle-control` recomputes the
time-shuffled divergence from a recorded belief dump, and `report` prints
a digest of a finished run. Flag values win over the DYADREG_OUT
environment variable, which wins over the config file.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from pathlib import Path

import numpy as np

from .config import CONDITION_NAMES, ConfigError, ExperimentConfig, load_config
from .harness import (
    load_beliefs_csv,
    load_manifest,
    load_trial_csv,
    run_experiment,
    run_trial,
    shuffle_seeds,
    shuffled_window,
    trial_files,
    write_trial_files,
)
from .metrics import (
    ALIGNMENT_WINDOW, ROUND_DTYPE, aggregate_conditions, auc_window, shuffle_control
)

ENV_OUT = "DYADREG_OUT"


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; parse_args keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="dyadreg",
        description="Simulate a parent-infant dyad co-regulating a shared "
        "visceral state through a naming game.",
    )
    sub = parser.add_subparsers(dest="command")

    def add_common(p, single_condition=False):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="root seed")
        p.add_argument("--iterations", type=int, help="two-round exchanges per trial")
        p.add_argument("--out", help="artifact directory")
        p.add_argument(
            "--dump-beliefs",
            action="store_true",
            default=None,
            help="also write per-round belief vectors",
        )
        if single_condition:
            p.add_argument(
                "--condition",
                choices=CONDITION_NAMES,
                default=None,
                help="negotiation rule (default: the config's first condition)",
            )
        else:
            p.add_argument(
                "--conditions",
                nargs="+",
                choices=CONDITION_NAMES,
                default=None,
                help="negotiation rules to run",
            )

    p_run = sub.add_parser("run", help="run a full experiment")
    add_common(p_run)
    p_run.add_argument("--trials", type=int, help="seeded repetitions per condition")
    p_run.add_argument("--workers", type=int, help="trial-level processes")
    p_run.add_argument(
        "--print-default-config",
        action="store_true",
        help="print the default config as JSON and exit",
    )

    p_trial = sub.add_parser("trial", help="run one seeded trial")
    add_common(p_trial, single_condition=True)
    p_trial.add_argument("--trial-index", type=int, default=0)

    p_shuf = sub.add_parser(
        "shuffle-control", help="recompute the time-shuffled divergence for a trial"
    )
    p_shuf.add_argument("--run", required=True, help="run directory with artifacts")
    p_shuf.add_argument("--condition", choices=CONDITION_NAMES, default="mhng")
    p_shuf.add_argument("--trial-index", type=int, default=0)
    p_shuf.add_argument(
        "--seed",
        type=int,
        help="use one permutation with this seed instead of the run's "
        "shuffle_permutations permutations",
    )
    p_shuf.add_argument(
        "--window-start", type=int, default=ALIGNMENT_WINDOW[0], help="first iteration"
    )
    p_shuf.add_argument(
        "--window-end", type=int, default=ALIGNMENT_WINDOW[1], help="last iteration"
    )

    p_rep = sub.add_parser("report", help="print a digest of a finished run")
    p_rep.add_argument("--run", required=True, help="run directory with artifacts")
    return parser


def _resolve_config(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    changes = {}
    for name in ("seed", "iterations", "trials", "workers"):
        value = getattr(args, name, None)
        if value is not None:
            changes[name] = value
    if getattr(args, "conditions", None):
        changes["conditions"] = tuple(args.conditions)
    if getattr(args, "condition", None):
        changes["conditions"] = (args.condition,)
    if getattr(args, "dump_beliefs", None):
        changes["dump_beliefs"] = True
    if getattr(args, "out", None):
        changes["out_dir"] = args.out
    elif os.environ.get(ENV_OUT):
        changes["out_dir"] = os.environ[ENV_OUT]
    return cfg.replaced(**changes)


def _cmd_run(args) -> int:
    if args.print_default_config:
        print(ExperimentConfig().to_json(), end="")
        return 0
    config = _resolve_config(args)
    manifest = run_experiment(config)
    summary = json.loads((Path(config.out_dir) / "summary.json").read_text())
    for cond in config.conditions:
        e = summary["conditions"][cond]
        print(
            f"{cond:>6}: mean c_norm {e['mean_c_norm']:.4f} "
            f"+/- {e['std_c_norm']:.4f} over {e['n_trials']} trials"
        )
    print(f"ranking: {' > '.join(summary['c_norm_ranking'])}")
    print(f"artifacts: {config.out_dir} ({len(manifest.artifacts)} files)")
    return 0


def _cmd_trial(args) -> int:
    config = _resolve_config(args)
    out = Path(config.out_dir)
    if (out / "manifest.json").exists():
        raise ValueError(f"{out} holds a finished run; give trial another --out")
    limit = np.iinfo(ROUND_DTYPE["trial"]).max + 1  # the trial CSV column's bound
    if not 0 <= args.trial_index < limit:
        raise ConfigError(f"--trial-index must lie in [0, {limit}), not {args.trial_index}")
    condition = config.conditions[0]
    log = run_trial(config, condition, args.trial_index)
    for name in write_trial_files(log, out, config.dump_beliefs):
        print(f"wrote {out / name}")
    mean_c = float(log.iteration_series("c_norm").mean())
    print(f"{condition} trial {args.trial_index}: seed {log.seed}, mean c_norm {mean_c:.4f}")
    return 0


def _cmd_shuffle(args) -> int:
    if args.seed is not None and not 0 <= args.seed < 2**64:
        raise ConfigError(f"--seed must lie in [0, 2**64), not {args.seed}")
    run_dir = Path(args.run)
    manifest = load_manifest(run_dir)
    if not 0 <= args.trial_index < len(manifest.trial_seeds.get(args.condition, [])):
        raise ValueError(
            f"{run_dir / 'manifest.json'}: lists no trial {args.trial_index} of {args.condition}"
        )
    name = trial_files(args.condition, args.trial_index)[1]
    if name not in manifest.artifacts:
        raise FileNotFoundError(f"{run_dir / name} not found; rerun with --dump-beliefs")
    config = ExperimentConfig.from_dict(manifest.config)
    parent_seq, infant_states = (rounds[1::2] for rounds in load_beliefs_csv(run_dir / name))
    n = parent_seq.shape[0]
    if n != config.iterations:
        raise ValueError(
            f"{run_dir / name}: holds {n} iterations; "
            f"the manifest's config has {config.iterations}"
        )
    lo, hi = args.window_start - 1, args.window_end - 1
    window = f"window [{args.window_start}, {args.window_end}]"
    if not 0 <= lo < hi:
        raise ValueError(f"{window} needs 1 <= start < end")
    if hi >= n:
        raise ValueError(f"{window} needs more than the {n} recorded iterations")
    if args.seed is not None:
        seeds = [args.seed]
    else:
        seeds = shuffle_seeds(config, args.condition, args.trial_index)
    original = shuffle_control(parent_seq[lo : hi + 1], infant_states[lo : hi + 1])
    auc_shuffled, median_shuffled = shuffled_window(parent_seq, infant_states, seeds, lo, hi)
    result = {
        "condition": args.condition,
        "trial": args.trial_index,
        # The first seed; the shuffled numbers average over all of them.
        "permutation_seed": seeds[0],
        "window": [args.window_start, args.window_end],
        "auc_original": auc_window(original, 0, hi - lo),
        "auc_shuffled": auc_shuffled,
        "jsd_median_original": float(np.median(original)),
        "jsd_median_shuffled": median_shuffled,
    }
    print(json.dumps(result, indent=2, sort_keys=True))
    return 0


def _is_number_list(values) -> bool:
    """Whether a JSON value is a list of numbers (true and false are not)."""
    return isinstance(values, list) and all(type(v) in (int, float) for v in values)


def _is_trial_entry(trial) -> bool:
    """Whether a summary.json trials entry is an object with both AUC numbers or neither."""
    if not isinstance(trial, dict):
        return False
    aucs = [trial[key] for key in ("auc_original", "auc_shuffled") if key in trial]
    return not aucs or len(aucs) == 2 and _is_number_list(aucs)


def _cmd_report(args) -> int:
    run_dir = Path(args.run)
    manifest = load_manifest(run_dir)
    if not any(manifest.trial_seeds.values()):
        raise ValueError(f"{run_dir / 'manifest.json'}: lists no trials")
    iterations = ExperimentConfig.from_dict(manifest.config).iterations
    logs = []
    for cond, seeds in manifest.trial_seeds.items():
        for t in range(len(seeds)):
            name = trial_files(cond, t)[0]
            if name not in manifest.artifacts:
                raise ValueError(f"{run_dir / 'manifest.json'}: does not list {name}")
            path = run_dir / name
            log = load_trial_csv(path)
            rounds = log.rounds
            if not (np.all(rounds["condition"] == cond) and np.all(rounds["trial"] == t)):
                raise ValueError(
                    f"{path}: every row must be condition {cond}, trial {t}, "
                    "as manifest.json names the file"
                )
            if len(rounds) != 2 * iterations:
                raise ValueError(
                    f"{path}: holds {len(rounds) // 2} iterations; "
                    f"the manifest's config has {iterations}"
                )
            logs.append(log)
    path = run_dir / "summary.json"
    try:
        summary = json.loads(path.read_text())
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    conditions = summary.get("conditions") if isinstance(summary, dict) else None
    if not isinstance(conditions, dict) or not all(
        isinstance(entry, dict) and isinstance(entry.get("trials"), list)
        for entry in conditions.values()
    ):
        raise ValueError(f"{path}: needs a conditions object whose entries hold trials lists")
    if not all(_is_trial_entry(t) for entry in conditions.values() for t in entry["trials"]):
        raise ValueError(f"{path}: a trials entry must hold both AUC numbers or neither")
    listed = (entry.get("per_trial_mean_c_norm") for entry in conditions.values())
    if not all(map(_is_number_list, listed)):
        raise ValueError(f"{path}: per_trial_mean_c_norm must be a list of numbers")
    agg = aggregate_conditions(logs)
    for cond, e in agg.items():
        means = e["per_trial_mean_c_norm"]
        recorded = np.asarray(conditions.get(cond, {}).get("per_trial_mean_c_norm"))
        if means.shape != recorded.shape or not np.allclose(means, recorded, rtol=0, atol=1e-8):
            raise ValueError(
                f"{path}: per_trial_mean_c_norm of {cond} disagrees with its trial CSVs"
            )
    ranking = sorted(agg, key=lambda c: agg[c]["mean_c_norm"], reverse=True)
    print(f"{'condition':>10} {'trials':>6} {'mean':>8} {'std':>8} {'sem':>8}")
    for cond in ranking:
        e = agg[cond]
        print(
            f"{cond:>10} {e['n_trials']:>6} {e['mean_c_norm']:>8.4f} "
            f"{e['std_c_norm']:>8.4f} {e['sem_c_norm']:>8.4f}"
        )
    print(f"ranking: {' > '.join(ranking)}")
    for cond, entry in sorted(conditions.items()):
        aucs = [t for t in entry["trials"] if "auc_original" in t]
        if aucs:
            orig = np.mean([t["auc_original"] for t in aucs])
            shuf = np.mean([t["auc_shuffled"] for t in aucs])
            print(f"{cond}: mean AUC original {orig:.3f}, shuffled {shuf:.3f}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command is None:
        parser.print_help(sys.stderr)
        return 2
    handlers = {
        "run": _cmd_run,
        "trial": _cmd_trial,
        "shuffle-control": _cmd_shuffle,
        "report": _cmd_report,
    }
    try:
        code = handlers[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader of stdout has gone (`dyadreg run | head`). As the
        # Python docs advise for SIGPIPE: point stdout at devnull so the
        # flush at shutdown cannot fail again, and exit nonzero quietly.
        with contextlib.suppress(OSError, ValueError):
            fd = sys.stdout.fileno()
            os.dup2(os.open(os.devnull, os.O_WRONLY), fd)
        return 1
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        # A file that cannot be read or written, or a damaged input file.
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
