"""Reference forms the tests check the program against.

The program never calls these: each is the plain, general form of a
quantity that the program computes in a faster or more specialised way,
or a helper that reaches into a trial for what its log does not keep.
"""

import numpy as np

from dyadreg import harness
from dyadreg.environment import N_ACTIONS, N_STATES
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


def js_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """Jensen-Shannon divergence in nats: symmetric, bounded by ln 2.

    Computed directly against the even mixture, with no smoothing; where
    p or q is zero the corresponding term vanishes, and so does a
    subnormal cell's whose half rounds to zero.
    """
    if p.size != q.size:
        raise ValueError(f"support mismatch: {p.size} vs {q.size}")
    m = 0.5 * (p + q)

    def _half(v: np.ndarray) -> float:
        mask = (v > 0.0) & (m > 0.0)
        return float((v[mask] * (np.log(v[mask]) - np.log(m[mask]))).sum())

    return max(0.5 * _half(p) + 0.5 * _half(q), 0.0)


def jsd_latent(parent_belief: np.ndarray, infant_state: int) -> float:
    """js_divergence of the parent's belief and the infant's, which is
    one-hot at the state k it senses. The mixture is half the parent's
    belief off k, and the infant's half of the divergence is one cell's,
    0 - log m_k.
    """
    p, k = parent_belief, infant_state
    m = 0.5 * p
    m[k] = 0.5 * (p[k] + 1.0)
    # A subnormal cell's half can round to 0: that term is left out.
    mask = (p > 0.0) & (m > 0.0)
    p_half = float((p[mask] * (np.log(p[mask]) - np.log(m[mask]))).sum())
    infant_half = 0.0 - float(np.log(m[k]))
    return max(0.5 * p_half + 0.5 * infant_half, 0.0)


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


def one_hot_index(p: np.ndarray) -> int | None:
    """The index of the single 1 if p is exactly a one-hot vector, else None."""
    i = int(p.argmax())
    return i if p[i] == 1.0 and np.count_nonzero(p) == 1 else None


def column_kls(true_cols: np.ndarray, learned_cols: np.ndarray) -> np.ndarray:
    """KL(p_j || q_j) = sum_i p_ij (ln p_ij - ln q_ij) between matching
    columns of two column-stochastic matrices: learned cells are floored at
    KL_FLOOR and renormalized per column."""
    p = np.asarray(true_cols, dtype=float)
    q = np.asarray(learned_cols, dtype=float)
    if p.shape != q.shape or p.ndim != 2:
        raise ValueError(f"column shapes must match: {p.shape} vs {q.shape}")
    q = np.maximum(q, KL_FLOOR)
    q = q / q.sum(axis=0, keepdims=True)
    terms = np.where(p > 0.0, p * (np.log(np.where(p > 0.0, p, 1.0)) - np.log(q)), 0.0)
    return terms.sum(axis=0)


def mean_column_kl(true_cols: np.ndarray, learned_cols: np.ndarray) -> float:
    """Average of column_kls."""
    return float(column_kls(true_cols, learned_cols).mean())


def outer_product_learn_B(agent, prev, post, action):
    """Agent.learn_B's general form, whatever the beliefs: count the outer
    product, renormalize the whole action slice, copy it into the rows."""
    agent.trans_concentration[:, :, action] += np.outer(post, prev)
    slice_a = agent.trans_concentration[:, :, action]
    agent.B[:, :, action] = slice_a / slice_a.sum(axis=0, keepdims=True)
    agent._B_rows[:, action::N_ACTIONS] = agent.B[:, :, action].T


def write_beliefs_csv(log, path):
    """The belief dump with every line formatted from its 36 floats, the
    infant's one-hot at the state each round landed in."""
    line = "%d,%d,%s" + ",%.9g" * N_STATES + "\r\n"
    infant = np.eye(N_STATES)[log.landing_states()]
    rounds = zip(log.parent_round_beliefs.tolist(), infant.tolist())
    with open(path, "w", newline="") as fh:
        fh.write(",".join(harness.BELIEF_HEADER) + "\r\n")
        fh.writelines(
            line % (row // 2 + 1, row % 2 + 1, agent, *belief)
            for row, pair in enumerate(rounds)
            for agent, belief in zip(("parent", "infant"), pair)
        )


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
