"""Symbol negotiation between the two agents.

One round: the speaker samples a symbol from its posterior, the listener
accepts or rejects it (Metropolis-Hastings, or a fixed one-sided rule),
and the agreed symbol is executed as an action. One iteration runs two
rounds with the speaker role swapped, filtering and learning after each.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .agents import Agent, AgentKind
from .environment import StepOutcome, TransitionModel, VisceralState, step
from .probability import sample


class Condition(Enum):
    """Who can say no: nobody is privileged under MHNG, the parent under
    A_LED, the infant under B_LED."""

    MHNG = "mhng"
    A_LED = "a-led"
    B_LED = "b-led"


CONDITION_NAMES = tuple(c.value for c in Condition)
ROUND_ORDERS = ("infant-first", "parent-first")


@dataclass(frozen=True)
class DialogueOutcome:
    speaker: AgentKind
    proposed_w: int
    listener_own_w: int
    accepted: bool
    acceptance_prob: float
    shared_w: int
    action: int


@dataclass
class IterationResult:
    outcomes: list
    steps: list
    state: VisceralState
    shared_w: int


def propose(agent: Agent, rng: np.random.Generator) -> int:
    """Sample a symbol from the agent's own symbol posterior."""
    return sample(agent.symbol_posterior(), rng)


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
    proposed = propose(speaker, rng)
    if current_w is None:
        own = propose(listener, rng)
    else:
        own = int(current_w)
    if condition is Condition.MHNG:
        accepted, prob = mh_accept(proposed, own, listener.symbol_posterior(), rng)
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
    return DialogueOutcome(speaker.kind, proposed, own, accepted, prob, shared, shared)


def run_iteration(
    parent: Agent,
    infant: Agent,
    world: TransitionModel,
    state: VisceralState,
    condition: Condition,
    rng: np.random.Generator,
    round_order: str = "infant-first",
    current_w: Optional[int] = None,
    persist_w: bool = False,
    on_round: Optional[Callable[[int, DialogueOutcome, StepOutcome], None]] = None,
) -> IterationResult:
    """Two rounds with swapped speakers, each followed by one world step.

    After every round both agents assimilate their own cue of the landing
    state, the parent updates its sensory counts, and the infant updates
    its dynamics counts. With persist_w the agreed symbol carries over as
    the listener's stance for the next round (and is returned for the next
    iteration); otherwise every round starts from a fresh draw. on_round
    fires after learning, once per round.
    """
    if round_order not in ROUND_ORDERS:
        raise ValueError(f"unknown round order: {round_order!r}")
    if round_order == "infant-first":
        pairs = ((infant, parent), (parent, infant))
    else:
        pairs = ((parent, infant), (infant, parent))
    outcomes: list[DialogueOutcome] = []
    steps: list[StepOutcome] = []
    for idx, (speaker, listener) in enumerate(pairs):
        outcome = run_round(
            speaker, listener, condition, rng, current_w if persist_w else None
        )
        result = step(world, state, outcome.action, rng)
        obs = result.next_state.flat
        prev_infant, _ = infant.assimilate(outcome.action, obs)
        parent.assimilate(outcome.action, obs)
        parent.learn_A(parent.belief, obs)
        infant.learn_B(prev_infant, infant.belief, outcome.action)
        state = result.next_state
        if persist_w:
            current_w = outcome.shared_w
        outcomes.append(outcome)
        steps.append(result)
        if on_round is not None:
            on_round(idx, outcome, result)
    return IterationResult(outcomes, steps, state, outcomes[-1].shared_w)
