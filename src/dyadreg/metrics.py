"""Measures taken during and after trials.

Comfort of the true state, learning error of each agent's imprecise
matrix, divergence between the two agents' beliefs, windowed AUC, the
temporal-shuffle control, and the columnar trial log with the run-relative
paths of its files.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .environment import PriorPreference, to_flat
from .probability import KL_FLOOR, column_kl

# Iteration window (1-based, inclusive) for alignment medians and AUC.
ALIGNMENT_WINDOW = (20, 50)
# Iteration range scanned when comparing rare-branch vs ordinary rounds.
SPIKE_RANGE = (20, 1000)


def c_norm(states, pref: PriorPreference) -> np.ndarray:
    """Comfort of each flat true state, scaled so the best cell scores 1."""
    return pref.values[states] / pref.max_value


def kld_A_error(columns: np.ndarray, states: np.ndarray) -> np.ndarray:
    """KL(e_j || q_j) = -ln(q_jj / sum_i q_ij) of each row q_j of `columns`,
    a column of a learned sensory map A[obs, z] as a row over obs, j its
    state in `states`, with q floored at KL_FLOOR: the true map is the
    identity. The floored copy is C-ordered, so each row is summed pairwise
    whatever the layout of `columns`."""
    q = np.maximum(columns, KL_FLOOR, order="C")
    return 0.0 - np.log(q[np.arange(len(q)), states] / np.add.reduce(q, axis=1))


def kld_B_error(true_columns: np.ndarray, means: np.ndarray) -> np.ndarray:
    """KL(p_j || q_j) of each true column p_j, a row of `true_columns`, to
    q_j, its learned column, the row of `means` floored at KL_FLOOR and
    renormalized, each sum taken in order."""
    q = np.maximum(means, KL_FLOOR)
    q /= q.cumsum(axis=-1)[..., -1:]
    return column_kl(true_columns, np.log(q, out=q))


def _js_half(v: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Per row, the sum of v (ln v - ln m) over the cells where v and m are
    both positive: a subnormal cell whose half rounds to 0 in m is left out.

    Each row's terms are summed as one contiguous block of their own count,
    the order a 1-d sum of that row's terms takes, so every row gets the
    bits of the scalar sum whatever rows stand beside it. Rows are grouped
    by how many terms they have."""
    mask = (v > 0.0) & (m > 0.0)
    counts = mask.sum(axis=1)
    vm, mm = v[mask], m[mask]
    terms = vm * (np.log(vm) - np.log(mm))
    starts = counts.cumsum() - counts
    out = np.zeros(len(v))
    for count in np.unique(counts[counts > 0]):
        rows = np.flatnonzero(counts == count)
        out[rows] = terms[starts[rows, None] + np.arange(count)].sum(axis=1)
    return out


# Rows jsd_latent takes in one slab, so that its temporaries, a few copies
# of a slab, do not grow with the stack. On a default run's 60,000 rows
# (2 CPUs, numpy 2.4), slabs of 512 rows took 27.0 ms, of 2,048 to 16,384
# rows 22.3-22.9 ms, and one call 25.3 ms; the call's allocation peak read
# 1.6 MiB at 2,048 rows and 32 MiB in one slab. Slabs of 2,048 rows, about one
# default trial's, kept a run's peak RSS flat; slabs of 4,096 added 0.9 MB.
JSD_SLAB_ROWS = 2048


def jsd_latent(parent_beliefs: np.ndarray, infant_states: np.ndarray) -> np.ndarray:
    """Jensen-Shannon divergence in nats between each row of a (..., states)
    stack of the parent's beliefs and the infant's belief, one-hot at the
    state k that row's infant senses, in the shape of `infant_states`. It is
    computed against the even mixture m with no smoothing: symmetric,
    bounded by ln 2.

    The mixture is half the parent's row off k, and the infant's half of
    the divergence is one cell's, 0 - ln m_k. A row's value depends on that
    row alone, to the bit (see _js_half), so the rows are taken in slabs of
    at most JSD_SLAB_ROWS.
    """
    p = parent_beliefs.reshape(-1, parent_beliefs.shape[-1])
    k = infant_states.reshape(-1)
    out = np.empty(len(k))
    for start in range(0, len(k), JSD_SLAB_ROWS):
        slab = slice(start, start + JSD_SLAB_ROWS)
        out[slab] = _jsd_rows(p[slab], k[slab])
    return out.reshape(infant_states.shape)


def _jsd_rows(p: np.ndarray, k: np.ndarray) -> np.ndarray:
    """jsd_latent of the (rows, states) beliefs `p` and the states `k`."""
    rows = np.arange(len(p))
    m = 0.5 * p
    m[rows, k] = 0.5 * (p[rows, k] + 1.0)
    infant_half = 0.0 - np.log(m[rows, k])
    return np.maximum(0.5 * _js_half(p, m) + 0.5 * infant_half, 0.0)


def auc_window(series, start: int, end: int):
    """Trapezoidal area of a series, or of each series of a stack along its
    last axis, over the inclusive 0-based index window [start, end], with
    unit spacing between samples."""
    s = np.asarray(series, dtype=float)
    if s.ndim == 0:
        raise ValueError("series must be at least 1-d")
    if not (0 <= start < end < s.shape[-1]):
        raise ValueError(f"window [{start}, {end}] out of range for length {s.shape[-1]}")
    return np.trapezoid(s[..., start : end + 1], axis=-1)


def shuffle_control(parent_seq, infant_states) -> np.ndarray:
    """Belief divergence of each row of a (..., steps, states) stack of the
    parent's belief sequences and the infant's aligned sensed states, in the
    shape of `infant_states`.

    Fed the infant side permuted in time (harness.shuffled_window), this is
    the time-shuffle control: breaking simultaneity tells apart genuine
    moment-to-moment coupling from two sequences that merely share a
    stationary profile.
    """
    p_seq = np.asarray(parent_seq, dtype=float)
    states = np.asarray(infant_states)
    if p_seq.ndim < 2 or states.shape != p_seq.shape[:-1]:
        raise ValueError("need a (..., steps, states) stack of beliefs and one infant state per step")
    # Each row is renormalized first: the artifacts depend on these bits.
    return jsd_latent(p_seq / p_seq.sum(axis=-1, keepdims=True), states)


# The per-round trial log, one column per trial-CSV column, in CSV order.
# Six characters hold every condition and speaker name.
ROUND_DTYPE = np.dtype(
    [
        ("condition", "U6"),
        ("trial", "i4"),
        ("iteration", "i4"),
        ("round", "i1"),
        ("speaker", "U6"),
        ("proposed_w", "i1"),
        ("listener_own_w", "i1"),
        ("accepted", "?"),
        ("acceptance_prob", "f8"),
        ("shared_w", "i1"),
        ("action", "i1"),
        ("true_x", "i1"),
        ("true_y", "i1"),
        ("rare_branch", "?"),
        ("c_norm", "f8"),
        ("jsd_z", "f8"),
        ("kld_A", "f8"),
        ("kld_B_sleep", "f8"),
    ]
)


def round_rows(rows: int) -> tuple:
    """The iteration and the round of each of `rows` per-round rows: row i
    is round i % 2 + 1 of iteration i // 2 + 1."""
    index = np.arange(rows)
    return index // 2 + 1, index % 2 + 1


def iteration_rows(rows):
    """The per-round `rows` that carry each iteration's value: its second round's."""
    return rows[1::2]


# The run's other tables, one field per column in CSV order: summary_cnorm.csv,
# summary_auc.csv, and curves_<cond>.csv, per iteration the mean of trial-CSV columns.
CNORM_DTYPE = np.dtype(
    [("condition", ROUND_DTYPE["condition"])]
    + [(name, "f8") for name in ("mean_c_norm", "std_c_norm", "sem_c_norm")]
    + [("n_trials", "i4")]
)
AUC_DTYPE = np.dtype(
    [("condition", ROUND_DTYPE["condition"]), ("trial", ROUND_DTYPE["trial"])]
    + [(name, "f8") for name in ("auc_original", "auc_shuffled")]
)
CURVES_DTYPE = np.dtype(
    [(name, ROUND_DTYPE[name]) for name in ("iteration", "c_norm", "jsd_z", "kld_A", "kld_B_sleep")]
)


@dataclass
class TrialLog:
    """Full record of one seeded trial. `rounds` holds two rows per
    iteration, its rounds 1 and 2 in order, with dtype ROUND_DTYPE, and
    `parent_round_beliefs` the parent's belief after each such round."""

    condition: str
    trial_index: int
    seed: int
    rounds: np.ndarray
    parent_round_beliefs: Optional[np.ndarray] = None

    def landing_states(self) -> np.ndarray:
        """The flat true state each round landed in, from its true_x and true_y."""
        return to_flat(self.rounds["true_x"], self.rounds["true_y"])

    def iteration_series(self, name: str) -> np.ndarray:
        """One value per iteration: the second round's, except that the
        rare flag is raised if either round branched."""
        column = self.rounds[name]
        if name == "rare_branch":
            return column[0::2] | iteration_rows(column)
        return iteration_rows(column).astype(float)


def trial_files(condition: str, trial_index: int) -> tuple:
    """Run-relative paths of one trial's CSV and of its belief dump."""
    stem = f"trials/{condition}_t{trial_index:02d}"
    return f"{stem}.csv", f"{stem}_beliefs.csv"
