"""Symbol negotiation between the two agents.

One round: the speaker samples a symbol from its posterior, the listener
accepts or rejects it (Metropolis-Hastings, or a fixed one-sided rule),
and the agreed symbol is executed as an action. One iteration runs two
rounds with the speaker role swapped, filtering and learning after each.
Each call advances a batch of trials of one condition, and `draws` yields
the trials' uniforms in the order they are consumed, one per trial a time.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, Iterator, NamedTuple, Optional

import numpy as np

from .agents import Agent, AgentKind, Infant
from .environment import TransitionModel, step
from .probability import sample


class Condition(Enum):
    """Who can say no: nobody is privileged under MHNG, the parent under
    A_LED, the infant under B_LED."""

    MHNG = "mhng"
    A_LED = "a-led"
    B_LED = "b-led"


CONDITION_NAMES = tuple(c.value for c in Condition)
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
    speaker: Agent | Infant, listener: Agent | Infant, condition: Condition, draws: Iterator,
    current_w=None,
) -> DialogueOutcome:
    """One naming-game round in every trial of the batch.

    The listener pits the proposal against `current_w` when given and
    against a fresh draw from its own posterior otherwise. The agreed
    symbol doubles as the executed action: symbol w names action w.
    """
    proposed = sample(speaker.symbol_posterior(), next(draws))
    mhng = condition is Condition.MHNG
    # Each posterior costs one EFE evaluation: the listener's is computed
    # at most once, and only when a fresh draw or the MH test reads it.
    posterior = listener.symbol_posterior() if mhng or current_w is None else None
    own = sample(posterior, next(draws)) if current_w is None else current_w
    if mhng:
        accepted, prob = mh_accept(proposed, own, posterior, next(draws))
    else:
        leader = AgentKind.PARENT if condition is Condition.A_LED else AgentKind.INFANT
        # The leader never yields: it keeps its own symbol unless the
        # proposal already matches. The other side accepts every proposal.
        accepted = proposed == own if listener.kind is leader else np.full(len(own), True)
        prob = accepted * 1.0
    shared = own + (proposed - own) * accepted
    return DialogueOutcome(proposed, own, accepted, prob, shared)


def run_iteration(
    parent: Agent,
    infant: Infant,
    world: TransitionModel,
    z: np.ndarray,
    condition: Condition,
    draws: Iterator[np.ndarray],
    round_order: str = "infant-first",
    current_w: Optional[np.ndarray] = None,
    persist_w: bool = False,
    on_round: Optional[Callable] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Two rounds with swapped speakers, in the order ROUND_SPEAKERS gives
    for round_order, each followed by one world step per trial from its
    flat true state in z. Returns the landing states and the last agreed
    symbols.

    After every round both agents assimilate their own cue of the landing
    state (emission is the identity, so the cue is the state's flat index),
    and each learns. With persist_w the agreed symbol carries over as the
    listener's stance for the next round and iteration; otherwise every
    round starts from a fresh draw. on_round fires after learning, once per
    round, with the speaker, the outcome, the landing states and whether
    each trial's rare branch fired.
    """
    for kind in ROUND_SPEAKERS[round_order]:
        speaker, listener = (parent, infant) if kind is AgentKind.PARENT else (infant, parent)
        outcome = run_round(
            speaker, listener, condition, draws, current_w if persist_w else None
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
        if on_round is not None:
            on_round(speaker, outcome, z, rare == 1)
    return z, outcome.shared_w
