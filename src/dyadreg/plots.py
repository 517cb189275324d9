"""Plot scripts over the run artifacts.

Emits plain gnuplot scripts next to the CSVs they read, so the figures
can be rendered later without this package: comfort bars per condition,
learning-error curves, the belief-divergence trajectory with rare
transitions marked, and original-vs-shuffled AUC bars.
"""

from __future__ import annotations

from pathlib import Path

from .metrics import AUC_DTYPE, CNORM_DTYPE, CURVES_DTYPE, ROUND_DTYPE, trial_files


def _columns(dtype, *names) -> tuple:
    """CSV column numbers (1-based, gnuplot convention) of `names` in a table of `dtype`."""
    return tuple(dtype.names.index(name) + 1 for name in names)


COL_ITERATION, COL_ROUND, COL_RARE, COL_JSD = _columns(
    ROUND_DTYPE, "iteration", "round", "rare_branch", "jsd_z"
)

_PREAMBLE = """\
# gnuplot script; run from this directory: gnuplot {name}
set datafile separator ","
set terminal pngcairo size 900,600
set output "{output}"
set key outside top
"""


def emit_plots(run_dir, config, summary) -> list:
    """Write the four standard plot scripts into <run_dir>/plots.

    Returns the artifact paths relative to the run directory. Scripts that
    need data the run did not produce (AUC needs the full alignment
    window) are skipped.
    """
    run_dir = Path(run_dir)
    plots = run_dir / "plots"
    plots.mkdir(parents=True, exist_ok=True)
    written: list[str] = []

    def emit(name: str, body: str):
        (plots / name).write_text(_PREAMBLE.format(name=name, output=name[:-3] + ".png") + body)
        written.append(f"plots/{name}")

    label, mean, sd = _columns(CNORM_DTYPE, "condition", "mean_c_norm", "std_c_norm")
    emit(
        "cnorm_bars.gp",
        f"""\
set title "Mean comfort of the true state per condition"
set style fill solid 0.6 border -1
set boxwidth 0.6
set yrange [0:1]
set ylabel "mean c_norm"
plot "../summary_cnorm.csv" skip 1 using 0:{mean}:{sd}:xtic({label}) with boxerrorbars title "mean +/- sd"
""",
    )

    lead = config.conditions[0]
    curve_cond = "mhng" if "mhng" in config.conditions else lead
    iteration, kld_A, kld_B = _columns(CURVES_DTYPE, "iteration", "kld_A", "kld_B_sleep")
    emit(
        "kld_curves.gp",
        f"""\
set title "Learning error of the imprecise matrices ({curve_cond})"
set xlabel "iteration"
set ylabel "mean KL (nats)"
plot "../curves_{curve_cond}.csv" skip 1 using {iteration}:{kld_A} with lines lw 2 title "sensory map (parent)", \\
     "../curves_{curve_cond}.csv" skip 1 using {iteration}:{kld_B} with lines lw 2 title "dynamics, Sleep slice (infant)"
""",
    )

    trial_rel = "../" + trial_files(curve_cond, 0)[0]
    emit(
        "jsd_trajectory.gp",
        f"""\
set title "Belief divergence between the agents ({curve_cond}, trial 0)"
set xlabel "iteration"
set ylabel "JSD (nats)"
# Second-round rows carry the per-iteration value; rare-branch rows get a marker.
plot "{trial_rel}" skip 1 using (${COL_ROUND}==2?${COL_ITERATION}:1/0):{COL_JSD} with lines lw 1 title "JSD", \\
     "{trial_rel}" skip 1 using (${COL_ROUND}==2&&${COL_RARE}==1?${COL_ITERATION}:1/0):{COL_JSD} with points pt 7 ps 1.2 title "rare transition"
""",
    )

    has_auc = any(
        "auc_original" in row
        for cond in config.conditions
        for row in summary["conditions"][cond]["trials"]
    )
    if has_auc:
        trial, original, shuffled = _columns(AUC_DTYPE, "trial", "auc_original", "auc_shuffled")
        emit(
            "auc_bars.gp",
            f"""\
set title "Divergence AUC, original vs time-shuffled ({curve_cond})"
set style data histogram
set style histogram clustered gap 1
set style fill solid 0.6 border -1
set xlabel "trial"
set ylabel "AUC of JSD, alignment window"
plot "< grep '^{curve_cond},' ../summary_auc.csv" using {original}:xtic({trial}) title "original", \\
     "" using {shuffled} title "shuffled"
""",
        )

    return written
