"""Command-line interface.

Subcommands: `run` executes a full experiment and writes all artifacts,
`trial` runs a single seeded trial, `shuffle-control` recomputes the
time-shuffled divergence from a recorded belief dump, and `report` prints
the summary of a finished run. Flag values win over the DYADREG_OUT
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

from .config import CONDITION_NAMES, MAX_TRIALS, ConfigError, ExperimentConfig, load_config
from .harness import (
    open_run,
    run_experiment,
    run_trial,
    shuffle_seeds,
    shuffled_window,
    write_trial_files,
)
from .metrics import ALIGNMENT_WINDOW, iteration_rows

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
    p_run.add_argument("--workers", type=int, help="processes that run batches of trials")
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

    p_rep = sub.add_parser("report", help="print the summary of a finished run")
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
    if not 0 <= args.trial_index < MAX_TRIALS:
        raise ConfigError(f"--trial-index must lie in [0, {MAX_TRIALS}), not {args.trial_index}")
    condition = config.conditions[0]
    (log,) = run_trial(config, [condition], [args.trial_index])
    for name in write_trial_files(log, out, config.dump_beliefs):
        print(f"wrote {out / name}")
    mean_c = float(log.iteration_series("c_norm").mean())
    print(f"{condition} trial {args.trial_index}: seed {log.seed}, mean c_norm {mean_c:.4f}")
    return 0


def _cmd_shuffle(args) -> int:
    if args.seed is not None and not 0 <= args.seed < 2**64:
        raise ConfigError(f"--seed must lie in [0, 2**64), not {args.seed}")
    run = open_run(args.run)
    parent_seq = iteration_rows(run.parent_beliefs(args.condition, args.trial_index))
    infant_states = iteration_rows(run.trial(args.condition, args.trial_index).landing_states())
    n = parent_seq.shape[0]
    lo, hi = args.window_start - 1, args.window_end - 1
    window = f"window [{args.window_start}, {args.window_end}]"
    if not 0 <= lo < hi:
        raise ValueError(f"{window} needs 1 <= start < end")
    if hi >= n:
        raise ValueError(f"{window} needs more than the {n} recorded iterations")
    if args.seed is not None:
        seeds = [args.seed]
    else:
        seeds = shuffle_seeds(run.config, args.condition, args.trial_index)
    # The original window is the one a seed of None leaves in time order.
    aucs, medians = shuffled_window([parent_seq], [infant_states], [[None, *seeds]], lo, hi)
    result = {
        "condition": args.condition,
        "trial": args.trial_index,
        # The first seed; the shuffled numbers average over all of them.
        "permutation_seed": seeds[0],
        "window": [args.window_start, args.window_end],
        "auc_original": float(aucs[0, 0]),
        "auc_shuffled": float(aucs[0, 1:].mean()),
        "jsd_median_original": float(medians[0, 0]),
        "jsd_median_shuffled": float(medians[0, 1:].mean()),
    }
    print(json.dumps(result, indent=2, sort_keys=True))
    return 0


def _cmd_report(args) -> int:
    run = open_run(args.run)
    summary = run.check()
    conditions, ranking = summary["conditions"], summary["c_norm_ranking"]
    print(f"{'condition':>10} {'trials':>6} {'mean':>8} {'std':>8} {'sem':>8}")
    for cond in ranking:
        e = conditions[cond]
        print(
            f"{cond:>10} {e['n_trials']:>6} {e['mean_c_norm']:>8.4f} "
            f"{e['std_c_norm']:>8.4f} {e['sem_c_norm']:>8.4f}"
        )
    print(f"ranking: {' > '.join(ranking)}")
    for cond in run.config.conditions:
        aucs = [t for t in conditions[cond]["trials"] if "auc_original" in t]
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
