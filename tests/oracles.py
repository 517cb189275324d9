"""Reference forms the tests check the program against.

The program never calls these: each is the plain, general form of a
quantity that the program computes in a faster or more specialised way,
or a helper that reaches into a trial for what its log does not keep.
"""

import numpy as np

from dyadreg import harness
from dyadreg.metrics import column_kls
from dyadreg.probability import KL_FLOOR, digamma


def entropy(p: np.ndarray) -> float:
    """Shannon entropy in nats, with the 0 * ln 0 = 0 convention."""
    nz = p[p > 0.0]
    return float(-(nz * np.log(nz)).sum())


def kl_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """KL(p || q) in nats.

    Entries of q below KL_FLOOR are clamped up and q is renormalized, so
    the result is finite even when q has empty cells. Supports must match.
    """
    if p.size != q.size:
        raise ValueError(f"support mismatch: {p.size} vs {q.size}")
    if np.any(q < KL_FLOOR):
        q = np.maximum(q, KL_FLOOR)
        q = q / q.sum()
    mask = p > 0.0
    val = float((p[mask] * (np.log(p[mask]) - np.log(q[mask]))).sum())
    return max(val, 0.0)


def dirichlet_expected_entropy(concentrations) -> float:
    """Expected Shannon entropy of a Dirichlet-distributed probability
    vector: psi(c0 + 1) - sum_i (c_i / c0) psi(c_i + 1).

    This is the entropy of the Dirichlet mean minus the information one
    draw from the vector carries about it, so it falls below the entropy of
    the mean by exactly what is still to be learned.
    """
    c = np.asarray(concentrations, dtype=float)
    c0 = c.sum()
    return float(digamma(c0 + 1.0) - (c * digamma(c + 1.0)).sum() / c0)


def mean_column_kl(true_cols: np.ndarray, learned_cols: np.ndarray) -> float:
    """Average of column_kls."""
    return float(column_kls(true_cols, learned_cols).mean())


def run_trial_keeping_agents(monkeypatch, config, condition, trial_index):
    """harness.run_trial, plus the two agents it built: `(log, (parent,
    infant))`. The log does not keep the agents' final Dirichlet counts,
    so this wraps harness.init_agent to hold on to the agents."""
    agents = []
    init_agent = harness.init_agent

    def keep(*args, **kwargs):
        agents.append(init_agent(*args, **kwargs))
        return agents[-1]

    with monkeypatch.context() as patch:
        patch.setattr(harness, "init_agent", keep)
        log = harness.run_trial(config, condition, trial_index)
    parent, infant = agents
    return log, (parent, infant)
