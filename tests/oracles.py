"""Reference forms the tests check the program against.

The program never calls these: each is the plain, general form of a
quantity that the program computes in a faster or more specialised way,
or a helper that reaches into a trial for what its log does not keep.
"""

import csv
from bisect import bisect_right

import numpy as np

from dyadreg import harness
from dyadreg.agents import AgentKind, Infant
from dyadreg.dialogue import Condition, DialogueOutcome
from dyadreg.environment import Action, N_ACTIONS, N_STATES
from dyadreg.harness import BELIEF_HEADER, CSV_HEADER
from dyadreg.metrics import ROUND_DTYPE, auc_window, shuffle_control
from dyadreg.probability import KL_FLOOR, RENORM_TOL, Categorical, digamma, kl_terms, make_rng


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


def shuffled_window(parent_seq, infant_states, seeds, lo: int, hi: int) -> tuple:
    """One trial's time-shuffle control over the inclusive 0-based iteration
    window [lo, hi], one shuffle_control call per seed: the AUC and the
    median of the shuffled divergence, each the mean over one permutation
    per seed, drawn over the whole series. harness.shuffled_window, which
    takes a stack of trials and all their seeds in one call, must give the
    bits of these means."""
    n = len(parent_seq)
    aucs, medians = [], []
    for seed in seeds:
        rows = make_rng(seed).permutation(n)[lo : hi + 1]
        shuffled = shuffle_control(parent_seq[lo : hi + 1], infant_states[rows])
        aucs.append(auc_window(shuffled, 0, hi - lo))
        medians.append(np.median(shuffled))
    return float(np.mean(aucs)), float(np.mean(medians))


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


def identity_sensory_map() -> np.ndarray:
    """Exact observation model: each state emits its own one-hot cue. The
    program never builds it: the infant senses its state directly."""
    eye = np.eye(N_STATES)
    eye.setflags(write=False)
    return eye


def digamma_by_reduce(x) -> np.ndarray:
    """probability.digamma with its ten recurrence terms summed by
    np.add.reduce along a last axis of ten."""
    x = np.asarray(x, dtype=float)
    shift = np.add.reduce(1.0 / np.add.outer(x, np.arange(10.0)), axis=-1)
    y = x + 10.0
    inv2 = 1.0 / (y * y)
    series = inv2 * (1 / 12 - inv2 * (1 / 120 - inv2 * (1 / 252 - inv2 * (1 / 240 - inv2 / 132))))
    return np.log(y) - 0.5 / y - series - shift


def column_kls(true_cols: np.ndarray, learned_cols: np.ndarray) -> np.ndarray:
    """KL(p_j || q_j) = sum_i p_ij (ln p_ij - ln q_ij) between matching
    columns of two column-stochastic matrices: learned cells are floored at
    KL_FLOOR and renormalized per column. Each column is summed as
    sum(axis=0) sums it in the input's layout: in order for C order, and
    pairwise for a transposed view, such as the parent's map, as kld_A_error
    sums each column whatever its layout."""
    p = np.asarray(true_cols, dtype=float)
    q = np.asarray(learned_cols, dtype=float)
    if p.shape != q.shape or p.ndim != 2:
        raise ValueError(f"column shapes must match: {p.shape} vs {q.shape}")
    q = np.maximum(q, KL_FLOOR)
    q = q / q.sum(axis=0, keepdims=True)
    terms = np.where(p > 0.0, p * (np.log(np.where(p > 0.0, p, 1.0)) - np.log(q)), 0.0)
    return terms.sum(axis=0)


def floored_kld_A(floored: np.ndarray) -> np.ndarray:
    """The mean map error of each of a stack of maps A[t, obs, z] already
    floored at KL_FLOOR, as it was computed on every whole map each round:
    each column summed with np.add.reduce in the map's own layout, pairwise
    in the parent's."""
    kls = 0.0 - np.log(floored.diagonal(axis1=-2, axis2=-1) / np.add.reduce(floored, axis=-2))
    return np.add.reduce(kls, axis=-1) / kls.shape[-1]


def mean_column_kl(true_cols: np.ndarray, learned_cols: np.ndarray) -> float:
    """Average of column_kls."""
    return float(column_kls(true_cols, learned_cols).mean())


def sensory_refresh(counts: np.ndarray) -> tuple:
    """The parent's sensory map A[t, obs, z], the ambiguity of each state's
    column and the cells' c psi(c + 1) terms, all recomputed from its counts
    counts[t, z, obs], as every round once recomputed them: the map a
    transposed view of a [t, z, obs] buffer, every digamma in one call."""
    c0 = np.add.reduce(counts, axis=2)
    psi_terms = counts * digamma(counts + 1.0)
    sensory = np.empty(counts.shape).swapaxes(1, 2)
    np.divide(counts, c0[:, :, None], out=sensory.swapaxes(1, 2))
    ambiguity = digamma(c0 + 1.0) - np.add.reduce(psi_terms, axis=2) / c0
    return sensory, ambiguity, psi_terms


def trial_major_efe(parent) -> np.ndarray:
    """The parent's free energy per action with the predicted cues A @ q_pred
    trial-major, (trial, obs, action), and the risk summed over that middle
    axis, in order: the program's form before it went observation-major."""
    q_pred = np.matmul(parent.belief[:, None, :], parent._B_rows).reshape(-1, N_STATES, N_ACTIONS)
    risk = np.add.reduce(kl_terms(parent.A @ q_pred, parent._log_pref[:, None]), axis=1)
    return np.matmul(parent._sensory_entropy[:, None, :], q_pred)[:, 0] + risk


def set_belief(agent, probs):
    """Give a parent a belief no round gave it, in every trial of its batch:
    `probs` must be a probability vector over the states."""
    belief = Categorical(probs).probs
    if belief.size != N_STATES:
        raise ValueError("belief support must match the state space")
    agent.belief = np.tile(belief, (len(agent.belief), 1))


def learned_dynamics(infant) -> np.ndarray:
    """The infant's learned dynamics B[t, z', z, a] per trial, C-contiguous:
    the mean of its counts[t, z, a, z'], each column summed in order."""
    counts = infant.trans_concentration
    return np.ascontiguousarray((counts / counts.cumsum(axis=-1)[..., -1:]).transpose(0, 3, 1, 2))


def outer_product_learn_B(counts, prev, post, action):
    """learn_B's general form, whatever the beliefs: count the outer product
    of consecutive beliefs into counts[z', z, a] for `action`, and return
    the renormalized slice, summed in C order whatever the layout of
    `counts`."""
    counts[:, :, action] += np.outer(post, prev)
    slice_a = np.ascontiguousarray(counts[:, :, action])
    return slice_a / slice_a.sum(axis=0, keepdims=True)


def infant_start(prior, preferred_obs, trials=1) -> tuple:
    """A fresh infant's risk table and start free energy, `trials` copies of
    one, built from the exact mean of a flat Dirichlet over the dynamics,
    beta / beta.sum(axis=0): the table by summing the risk terms of every
    column, the start by predicting from the uniform belief through the
    (z, (z', a)) rows of that mean."""
    log_pref = np.log(np.maximum(preferred_obs, KL_FLOOR))
    beta = np.full((N_STATES, N_STATES, N_ACTIONS), prior)
    transitions = beta / beta.sum(axis=0)
    rows = np.ascontiguousarray(transitions.transpose(1, 0, 2)).reshape(N_STATES, -1)
    risk = kl_terms(transitions, log_pref[:, None, None]).sum(axis=0)
    q_pred = np.full((1, N_STATES), 1.0 / N_STATES).dot(rows).reshape(N_STATES, N_ACTIONS)
    start = np.add.reduce(kl_terms(q_pred, log_pref[:, None]), axis=0)
    return np.tile(risk, (trials, 1, 1)), np.tile(start, (trials, 1))


def omniscient_infant(world, preferred_obs) -> Infant:
    """An infant of one trial whose risk table is that of the exact dynamics
    world.tensor, so its free energy from each state it senses is the exact
    one; for directional checks. Its counts do not match that table, so it
    is not one to learn."""
    true_sleep = world.tensor[:, :, Action.SLEEP].T
    infant = Infant(preferred_obs, np.ones((N_STATES, N_ACTIONS, N_STATES)), true_sleep)
    log_pref = np.log(np.maximum(preferred_obs, KL_FLOOR))
    infant._risk[0] = kl_terms(world.tensor, log_pref[:, None, None]).sum(axis=0)
    return infant


def identity_efe(transitions, preferred_obs, belief) -> np.ndarray:
    """The expected free energy of every action from a belief, for an agent
    that senses its state through the identity map and knows
    `transitions`, by the general product: a one-step prediction, the
    identity map applied to it, no ambiguity, and the risk of the result."""
    rows = np.ascontiguousarray(transitions.transpose(1, 0, 2)).reshape(N_STATES, -1)
    q_pred = belief.reshape(1, N_STATES).dot(rows).reshape(N_STATES, N_ACTIONS)
    q_obs = identity_sensory_map() @ q_pred
    log_pref = np.log(np.maximum(preferred_obs, KL_FLOOR))
    logs = np.log(q_obs, out=np.zeros(q_obs.shape), where=q_obs > 0.0)
    risk = np.add.reduce(q_obs * (logs - log_pref[:, None]), axis=0)
    return np.zeros(N_STATES) @ q_pred + risk


# The one-trial forms of the round path: the program runs each on a batch
# of trials, and must give every trial these bits.


def predict_belief(belief: np.ndarray, transitions: np.ndarray, action: int) -> np.ndarray:
    """Push a belief one step through the dynamics for the given action."""
    p = transitions[:, :, action] @ belief
    return np.divide(p, np.add.reduce(p), out=p)


def update_belief(belief_pred: np.ndarray, sensory: np.ndarray, obs: int) -> np.ndarray:
    """Bayes correction of a predicted belief by an observed cue.

    If the likelihood wipes out the entire prediction, the normalized
    likelihood row is used alone so the belief never degenerates.
    """
    like = sensory[obs, :]
    post = like * belief_pred
    total = np.add.reduce(post)
    if total <= 0.0:
        post = like
        total = np.add.reduce(post)
        if total <= 0.0:
            raise ValueError(f"observation {obs} has an all-zero likelihood row")
    post = post / total
    return np.divide(post, np.add.reduce(post), out=post)


def sample(p: np.ndarray, rng) -> int:
    """Draw one index from p, consuming exactly one uniform from rng: the
    first whose cumulative probability exceeds the uniform."""
    idx = bisect_right(p.cumsum().tolist(), rng.random())
    return min(idx, p.size - 1)


def mh_accept(proposed_w: int, current_w: int, listener_posterior: np.ndarray, rng):
    """Metropolis-Hastings acceptance using only the listener's posterior,
    consuming one uniform: min(1, P(proposed) / P(current)), and certain
    acceptance for a zero denominator."""
    num = float(listener_posterior[proposed_w])
    den = float(listener_posterior[current_w])
    prob = 1.0 if den <= 0.0 else min(1.0, num / den)
    return bool(rng.random() < prob), prob


def run_round(speaker, listener, condition, rng, current_w=None) -> DialogueOutcome:
    """One naming-game round of one trial, between agents whose
    symbol_posterior is a vector, drawing its uniforms from rng."""
    proposed = sample(speaker.symbol_posterior(), rng)
    mhng = condition is Condition.MHNG
    posterior = listener.symbol_posterior() if mhng or current_w is None else None
    own = sample(posterior, rng) if current_w is None else int(current_w)
    if mhng:
        accepted, prob = mh_accept(proposed, own, posterior, rng)
    else:
        leader = AgentKind.PARENT if condition is Condition.A_LED else AgentKind.INFANT
        if listener.kind is leader:
            accepted = proposed == own
            prob = 1.0 if accepted else 0.0
        else:
            accepted, prob = True, 1.0
    shared = proposed if accepted else own
    return DialogueOutcome(proposed, own, accepted, prob, shared)


def write_csv(path, header, rows):
    """A CSV as the csv module writes it: the header, then each row, every
    line ending in CRLF. harness._write_csv must give its bytes."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_beliefs_csv(log, path):
    """The belief dump as the csv module writes it: per round, its iteration
    and round, then the parent's belief as _fmt formats each float."""
    rows = (
        [row // 2 + 1, row % 2 + 1, *map(harness._fmt, belief)]
        for row, belief in enumerate(log.parent_round_beliefs.tolist())
    )
    write_csv(path, BELIEF_HEADER, rows)


def write_trial_csv(log, path):
    """The trial CSV as the csv module writes it: per round, its cells in
    CSV_HEADER order, flags as 0/1 and each float as _fmt formats it."""
    columns = []
    for name in CSV_HEADER:
        column = log.rounds[name]
        kind = column.dtype.kind
        if kind == "b":
            column = column.astype(int)
        columns.append(map(harness._fmt, column.tolist()) if kind == "f" else column.tolist())
    write_csv(path, CSV_HEADER, zip(*columns))


def run_trial_keeping_agents(monkeypatch, config, condition, trial_index):
    """harness.run_trial of one trial, plus the two agents it built, each a
    batch of one: `(log, (parent, infant))`. The log does not keep the
    agents' final Dirichlet counts, so this wraps harness.init_agent to
    hold on to the agents."""
    agents = []
    init_agent = harness.init_agent

    def keep(*args, **kwargs):
        agents.append(init_agent(*args, **kwargs))
        return agents[-1]

    with monkeypatch.context() as patch:
        patch.setattr(harness, "init_agent", keep)
        log = harness.run_trial(config, [condition], [trial_index])[0]
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
