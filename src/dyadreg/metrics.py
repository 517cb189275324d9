"""Measures taken during and after trials.

Comfort of the true state, learning error of each agent's imprecise
matrix, divergence between the two agents' beliefs, windowed AUC, the
temporal-shuffle control, the columnar trial log, and cross-trial
aggregation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .environment import PriorPreference
from .probability import KL_FLOOR, Categorical, js_divergence

# Iteration window (1-based, inclusive) for alignment medians and AUC.
ALIGNMENT_WINDOW = (20, 50)
# Iteration range scanned when comparing rare-branch vs ordinary rounds.
SPIKE_RANGE = (20, 1000)


def c_norm(z: int, pref: PriorPreference) -> float:
    """Comfort of the flat true state z, scaled so the best cell scores 1."""
    return float(pref.values[z] / pref.max_value)


def mean_column_kl(true_cols: np.ndarray, learned_cols: np.ndarray) -> float:
    """Average KL between matching columns of two column-stochastic
    matrices, the vectorized twin of the scalar divergence: learned cells
    are floored at KL_FLOOR and renormalized per column."""
    p = np.asarray(true_cols, dtype=float)
    q = np.asarray(learned_cols, dtype=float)
    if p.shape != q.shape or p.ndim != 2:
        raise ValueError(f"column shapes must match: {p.shape} vs {q.shape}")
    q = np.maximum(q, KL_FLOOR)
    q = q / q.sum(axis=0, keepdims=True)
    terms = np.where(p > 0.0, p * (np.log(np.where(p > 0.0, p, 1.0)) - np.log(q)), 0.0)
    return float(terms.sum(axis=0).mean())


def kld_A_error(learned_sensory: np.ndarray) -> float:
    """mean_column_kl(identity, learned_sensory): the true sensory map is
    the identity, so each column's KL is its diagonal term alone."""
    q = np.maximum(learned_sensory, KL_FLOOR)
    return float((0.0 - np.log(np.diagonal(q) / q.sum(axis=0))).mean())


def kld_B_error(
    dynamics_true: np.ndarray, dynamics_learned: np.ndarray, action: int
) -> float:
    """Mean per-state KL between the exact and learned transition columns
    of one action."""
    if dynamics_true.shape != dynamics_learned.shape or dynamics_true.ndim != 3:
        raise ValueError("dynamics tensors must share a (n, n, actions) shape")
    return mean_column_kl(dynamics_true[:, :, action], dynamics_learned[:, :, action])


def jsd_latent(parent_belief: np.ndarray, infant_belief: np.ndarray) -> float:
    """Jensen-Shannon divergence between the two agents' beliefs."""
    return js_divergence(parent_belief, infant_belief)


def auc_window(series, start: int, end: int) -> float:
    """Trapezoidal area of series over the inclusive 0-based index window
    [start, end], with unit spacing between samples."""
    s = np.asarray(series, dtype=float)
    if s.ndim != 1:
        raise ValueError("series must be 1-d")
    if not (0 <= start < end < s.size):
        raise ValueError(f"window [{start}, {end}] out of range for length {s.size}")
    return float(np.trapezoid(s[start : end + 1]))


def shuffle_control(parent_seq, infant_seq) -> np.ndarray:
    """Belief divergence of two aligned sequences, row by row.

    Fed the infant side permuted in time (harness.shuffled_window), this is
    the time-shuffle control: breaking simultaneity tells apart genuine
    moment-to-moment coupling from two sequences that merely share a
    stationary profile.
    """
    p_seq = np.asarray(parent_seq, dtype=float)
    i_seq = np.asarray(infant_seq, dtype=float)
    if p_seq.shape != i_seq.shape or p_seq.ndim != 2:
        raise ValueError("belief sequences must share a (steps, states) shape")
    return np.array(
        [
            js_divergence(Categorical(p), Categorical(q))
            for p, q in zip(p_seq, i_seq)
        ]
    )


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


@dataclass
class TrialLog:
    """Full record of one seeded trial. `rounds` holds two rows per
    iteration, its rounds 1 and 2 in order, with dtype ROUND_DTYPE."""

    condition: str
    trial_index: int
    seed: int
    rounds: np.ndarray
    parent_beliefs: Optional[np.ndarray] = None
    infant_beliefs: Optional[np.ndarray] = None
    parent_round_beliefs: Optional[np.ndarray] = None
    infant_round_beliefs: Optional[np.ndarray] = None
    final_obs_concentration: Optional[np.ndarray] = None
    final_trans_concentration: Optional[np.ndarray] = None

    def iteration_series(self, name: str) -> np.ndarray:
        """One value per iteration: the second round's, except that the
        rare flag is raised if either round branched."""
        column = self.rounds[name]
        if name == "rare_branch":
            return column[0::2] | column[1::2]
        return column[1::2].astype(float)


def aggregate_conditions(logs: Iterable[TrialLog]) -> dict:
    """Cross-trial summary per condition.

    For each condition: the per-trial mean comfort with mean, sample
    standard deviation and standard error across trials, plus pointwise
    mean curves of every per-iteration metric.
    """
    groups: dict[str, list[TrialLog]] = {}
    for log in logs:
        groups.setdefault(log.condition, []).append(log)
    if not groups:
        raise ValueError("no trial logs to aggregate")
    out: dict[str, dict] = {}
    for condition, members in groups.items():
        per_trial = np.array(
            [log.iteration_series("c_norm").mean() for log in members]
        )
        n = per_trial.size
        std = float(per_trial.std(ddof=1)) if n > 1 else 0.0
        curves = {
            name: np.vstack([log.iteration_series(name) for log in members]).mean(axis=0)
            for name in ("c_norm", "jsd_z", "kld_A", "kld_B_sleep")
        }
        out[condition] = {
            "n_trials": n,
            "per_trial_mean_c_norm": per_trial,
            "mean_c_norm": float(per_trial.mean()),
            "std_c_norm": std,
            "sem_c_norm": std / np.sqrt(n) if n > 1 else 0.0,
            "curves": curves,
        }
    return out
