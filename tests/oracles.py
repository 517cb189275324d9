"""Reference forms the tests check the program against.

The program never calls these: each is the plain, general form of a
quantity that the program computes in a faster or more specialised way,
or a helper that reaches into a trial for what its log does not keep.
"""

import csv

import numpy as np

from dyadreg import harness
from dyadreg.environment import N_ACTIONS, N_STATES
from dyadreg.harness import BELIEF_HEADER, CSV_HEADER
from dyadreg.metrics import ROUND_DTYPE
from dyadreg.probability import KL_FLOOR, RENORM_TOL, Categorical, digamma


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


def set_belief(agent, probs):
    """Give an agent a belief no round gave it: `probs` must be a probability
    vector over the states. The agent then has no sensed state, so its
    expected free energy takes the general path until its next cue."""
    belief = Categorical(probs).probs
    if belief.size != N_STATES:
        raise ValueError("belief support must match the state space")
    agent.belief = belief
    agent.state = None


def outer_product_learn_B(agent, prev, post, action):
    """Agent.learn_B's general form, whatever the beliefs: count the outer
    product, renormalize the whole action slice, copy it into the rows."""
    agent.trans_concentration[:, :, action] += np.outer(post, prev)
    slice_a = agent.trans_concentration[:, :, action]
    agent.B[:, :, action] = slice_a / slice_a.sum(axis=0, keepdims=True)
    agent._B_rows[:, action::N_ACTIONS] = agent.B[:, :, action].T


def write_beliefs_csv(log, path):
    """The belief dump as the csv module writes it: per round, its iteration
    and round, then the parent's belief as _fmt formats each float."""
    rows = (
        [row // 2 + 1, row % 2 + 1, *map(harness._fmt, belief)]
        for row, belief in enumerate(log.parent_round_beliefs.tolist())
    )
    harness._write_csv(path, BELIEF_HEADER, rows)


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


# The CSV loaders as they read every cell into a Python object first: the
# program's one-pass loaders must give their bytes.


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


def load_trial_csv(path) -> np.ndarray:
    """A trial CSV's rows, with dtype ROUND_DTYPE.

    Every cell must parse, and the rows must be rounds 1 and 2 of
    iterations 1, 2, ... in order; otherwise ValueError names the file."""
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
    return rounds


def load_beliefs_csv(path) -> np.ndarray:
    """The parent's belief after every round, a (rounds, states) array.

    The rows must be rounds 1 and 2 of iterations 1, 2, ... in order, every
    cell must parse, and every belief must be finite and non-negative and
    sum to 1 within RENORM_TOL; otherwise ValueError names the file."""
    rows = _read_csv(path, BELIEF_HEADER)
    try:
        labels = [(int(row[0]), int(row[1])) for row in rows]
        values = np.array([row[2:] for row in rows], dtype=object).astype(float)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if len(rows) % 2 or labels != [(i // 2 + 1, i % 2 + 1) for i in range(len(rows))]:
        raise ValueError(f"{path}: rows must be rounds 1 and 2 of iterations 1, 2, ... in order")
    # A NaN or infinite cell fails one of the two tests.
    bad = ~((values >= 0.0).all(axis=1) & (np.abs(values.sum(axis=1) - 1.0) < RENORM_TOL))
    if bad.any():
        raise ValueError(
            f"{path}: line {np.flatnonzero(bad)[0] + 2}: a belief must be finite "
            "and non-negative and sum to 1"
        )
    return values
