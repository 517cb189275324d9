"""Symbol negotiation between the two agents.

One round: the speaker samples a symbol from its posterior, the listener
accepts or rejects it (Metropolis-Hastings, or a fixed one-sided rule),
and the agreed symbol is executed as an action. One iteration runs two
rounds with the speaker role swapped, filtering and learning after each.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, NamedTuple, Optional

import numpy as np

from .agents import Agent, AgentKind
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
    proposed_w: int
    listener_own_w: int
    accepted: bool
    acceptance_prob: float
    shared_w: int


def mh_accept(
    proposed_w: int,
    current_w: int,
    listener_posterior: np.ndarray,
    rng: np.random.Generator,
) -> tuple[bool, float]:
    """Metropolis-Hastings acceptance using only the listener's posterior.

    The acceptance probability is min(1, P(proposed) / P(current)); a zero
    denominator counts as certain acceptance. Always consumes one uniform
    so the stream stays aligned.
    """
    num = float(listener_posterior[proposed_w])
    den = float(listener_posterior[current_w])
    prob = 1.0 if den <= 0.0 else min(1.0, num / den)
    return bool(rng.random() < prob), prob


def run_round(
    speaker: Agent,
    listener: Agent,
    condition: Condition,
    rng: np.random.Generator,
    current_w: Optional[int] = None,
) -> DialogueOutcome:
    """One naming-game round.

    The listener pits the proposal against `current_w` when given and
    against a fresh draw from its own posterior otherwise. The agreed
    symbol doubles as the executed action: symbol w names action w.
    """
    proposed = sample(speaker.symbol_posterior(), rng)
    mhng = condition is Condition.MHNG
    # Each posterior costs one EFE evaluation: the listener's is computed
    # at most once, and only when a fresh draw or the MH test reads it.
    posterior = listener.symbol_posterior() if mhng or current_w is None else None
    own = sample(posterior, rng) if current_w is None else int(current_w)
    if mhng:
        accepted, prob = mh_accept(proposed, own, posterior, rng)
    else:
        leader = AgentKind.PARENT if condition is Condition.A_LED else AgentKind.INFANT
        if listener.kind is leader:
            # The leader never yields: it keeps its own symbol unless the
            # proposal already matches.
            accepted = proposed == own
            prob = 1.0 if accepted else 0.0
        else:
            accepted, prob = True, 1.0
    shared = proposed if accepted else own
    return DialogueOutcome(proposed, own, accepted, prob, shared)


def run_iteration(
    parent: Agent,
    infant: Agent,
    world: TransitionModel,
    z: int,
    condition: Condition,
    rng: np.random.Generator,
    round_order: str = "infant-first",
    current_w: Optional[int] = None,
    persist_w: bool = False,
    on_round: Optional[Callable[[Agent, DialogueOutcome, int, bool], None]] = None,
) -> tuple[int, int]:
    """Two rounds with swapped speakers, in the order ROUND_SPEAKERS gives
    for round_order, each followed by one world step from the flat true
    state z. Returns the landing state and the last agreed symbol.

    After every round both agents assimilate their own cue of the landing
    state (emission is the identity, so the cue is the state's flat index),
    the parent updates its sensory counts, and the infant updates its
    dynamics counts. With persist_w the agreed symbol carries over as the
    listener's stance for the next round (and is returned for the next
    iteration); otherwise every round starts from a fresh draw. on_round
    fires after learning, once per round, with the speaker, the outcome,
    the landing state and whether the rare branch fired.
    """
    for kind in ROUND_SPEAKERS[round_order]:
        speaker, listener = (parent, infant) if kind is AgentKind.PARENT else (infant, parent)
        outcome = run_round(
            speaker, listener, condition, rng, current_w if persist_w else None
        )
        action = outcome.shared_w
        z, rare = step(world, z, action, rng)
        prev_infant, _ = infant.assimilate(action, z)
        parent.assimilate(action, z)
        parent.learn_A(parent.belief, z)
        infant.learn_B(prev_infant, infant.belief, action)
        if persist_w:
            current_w = action
        if on_round is not None:
            on_round(speaker, outcome, z, rare)
    return z, outcome.shared_w
