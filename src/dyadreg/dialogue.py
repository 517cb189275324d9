"""Symbol negotiation between the two agents.

One round: the speaker samples a symbol from its posterior, the listener
accepts or rejects it (Metropolis-Hastings, or a fixed one-sided rule),
and the agreed symbol is executed as an action. One iteration runs two
rounds with the speaker role swapped, filtering and learning after each.
Each call advances a batch of trials, each under its own condition, and
`draws` yields the trials' uniforms in the order they are consumed, one
per trial a time.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, Iterator, NamedTuple, Optional

import numpy as np

from .agents import Agent, AgentKind, Infant
from .environment import TransitionModel, step
from .probability import make_rng, sample


class Condition(Enum):
    """Who can say no: nobody is privileged under MHNG, the parent under
    A_LED, the infant under B_LED."""

    MHNG = "mhng"
    A_LED = "a-led"
    B_LED = "b-led"


CONDITION_NAMES = tuple(c.value for c in Condition)
# A batch carries each trial's condition as a code, its index in
# CONDITION_NAMES. Indexed by code, these tables say which conditions decide
# by a one-sided rule, and under which a listener of each kind leads.
ONE_SIDED = np.array([c is not Condition.MHNG for c in Condition])
LEADS = {
    AgentKind.PARENT: np.array([c is Condition.A_LED for c in Condition]),
    AgentKind.INFANT: np.array([c is Condition.B_LED for c in Condition]),
}
# The speakers of rounds 1 and 2 of every iteration, per round order.
ROUND_SPEAKERS = {
    "infant-first": (AgentKind.INFANT, AgentKind.PARENT),
    "parent-first": (AgentKind.PARENT, AgentKind.INFANT),
}
ROUND_ORDERS = tuple(ROUND_SPEAKERS)


class DialogueOutcome(NamedTuple):
    proposed_w: np.ndarray
    listener_own_w: np.ndarray
    accepted: np.ndarray
    acceptance_prob: np.ndarray
    shared_w: np.ndarray


def condition_codes(conditions) -> np.ndarray:
    """The code of each condition named in `conditions`, one per trial."""
    return np.array([CONDITION_NAMES.index(Condition(c).value) for c in conditions])


def place_uniforms(seeds, codes, iterations: int, persist: bool) -> np.ndarray:
    """The uniforms of a batch's `iterations`, a row per trial, seeded by
    `seeds`, and a column per draw its rounds take: the speaker's, the
    listener's own unless it persists past the first round, the MH test's,
    and the world step's. A one-sided trial skips the MH column:
    rng.random(k) gives the bits of its k single draws, in the order it
    takes them. run_round and run_iteration take them as iter(u.T)."""
    widths = np.full(2 * iterations, 3 if persist else 4)
    widths[0] = 4
    mh = np.zeros(widths.sum(), bool)
    mh[widths.cumsum() - 2] = True
    used = ~mh
    u = np.zeros((len(seeds), mh.size))
    for row, seed, code in zip(u, seeds, codes):
        if ONE_SIDED[code]:
            row[used] = make_rng(seed).random(mh.size - widths.size)
        else:
            make_rng(seed).random(out=row)
    return u


def mh_accept(
    proposed_w: np.ndarray, current_w: np.ndarray, listener_posterior: np.ndarray, u: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Metropolis-Hastings acceptance using only the listener's posterior,
    each trial by its uniform in `u`.

    The acceptance probability is min(1, P(proposed) / P(current)); a zero
    denominator counts as certain acceptance.
    """
    rows = np.arange(len(u))
    num = listener_posterior[rows, proposed_w]
    den = listener_posterior[rows, current_w]
    prob = np.minimum(np.divide(num, den, out=np.full(len(u), np.inf), where=den > 0.0), 1.0)
    return u < prob, prob


def run_round(
    speaker: Agent | Infant, listener: Agent | Infant, conditions: np.ndarray, draws: Iterator,
    current_w=None,
) -> DialogueOutcome:
    """One naming-game round in every trial of the batch, each trial under
    the condition its code in `conditions` names.

    The listener pits the proposal against `current_w` when given and
    against a fresh draw from its own posterior otherwise. The agreed
    symbol doubles as the executed action: symbol w names action w. Every
    trial takes an MH uniform; a one-sided trial's decides nothing.
    """
    proposed = sample(speaker.symbol_posterior(), next(draws))
    # Each posterior costs one EFE evaluation, and each serves every trial.
    posterior = listener.symbol_posterior()
    own = sample(posterior, next(draws)) if current_w is None else current_w
    accepted, prob = mh_accept(proposed, own, posterior, next(draws))
    # A leader never yields: it keeps its own symbol unless the proposal
    # already matches. The other side accepts every proposal.
    one_sided = ONE_SIDED[conditions]
    np.copyto(accepted, (proposed == own) | ~LEADS[listener.kind][conditions], where=one_sided)
    np.copyto(prob, accepted, where=one_sided)
    shared = own + (proposed - own) * accepted
    return DialogueOutcome(proposed, own, accepted, prob, shared)


def run_iteration(
    parent: Agent,
    infant: Infant,
    world: TransitionModel,
    z: np.ndarray,
    conditions: np.ndarray,
    draws: Iterator[np.ndarray],
    round_order: str = "infant-first",
    current_w: Optional[np.ndarray] = None,
    persist_w: bool = False,
    *,
    on_round: Callable,
) -> tuple[np.ndarray, np.ndarray]:
    """Two rounds with swapped speakers, in the order ROUND_SPEAKERS gives
    for round_order, each trial under its condition code, each round
    followed by one world step per trial from its flat true state in z.
    Returns the landing states and the last agreed symbols.

    After every round both agents assimilate their own cue of the landing
    state (emission is the identity, so the cue is the state's flat index),
    and each learns. With persist_w the agreed symbol carries over as the
    listener's stance for the next round and iteration; otherwise every
    round starts from a fresh draw. on_round, which every caller passes,
    fires after learning, once per round, with the speaker, the outcome,
    the landing states and whether each trial's rare branch fired.
    """
    for kind in ROUND_SPEAKERS[round_order]:
        speaker, listener = (parent, infant) if kind is AgentKind.PARENT else (infant, parent)
        outcome = run_round(
            speaker, listener, conditions, draws, current_w if persist_w else None
        )
        action = outcome.shared_w
        steps = zip(z.tolist(), action.tolist(), next(draws).tolist())
        z, rare = np.array([step(world, *args) for args in steps]).T
        prev_state, _ = infant.assimilate(action, z)
        parent.assimilate(action, z)
        parent.learn_A(parent.belief, z)
        infant.learn_B(prev_state, z, action)
        if persist_w:
            current_w = action
        on_round(speaker, outcome, z, rare == 1)
    return z, outcome.shared_w
