"""Ground-truth visceral world.

A 6x6 grid of internal states (energy x temperature), each known by its
flat index, and the start state; five caregiving actions with deterministic
main effects and a rare temperature branch; identity observation emission;
and the prior preference surface that defines which states count as
comfortable, with the modes that turn it into a distribution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from .probability import Categorical

N_LEVELS = 6
N_STATES = N_LEVELS * N_LEVELS
N_ACTIONS = 5
# The default dynamics; build_transition_model says what each knob does.
BRANCH_PROB = 0.2
EAT_GAIN = 2
TEMP_HIGH_MIN = 3
# The comfort bump: its default width and floor, and its centre on either axis.
C_SIGMA = 1.25
C_FLOOR = 0.01
COMFORT_CENTRE = (N_LEVELS - 1) / 2


class Action(IntEnum):
    COOL = 0
    WARM = 1
    EAT = 2
    PLAY = 3
    SLEEP = 4


def to_flat(x, y):
    """The flat index of cell (x, y); ints or arrays alike."""
    return y * N_LEVELS + x


def to_xy(z):
    """The (x, y) cell of flat index z; ints or arrays alike."""
    return z % N_LEVELS, z // N_LEVELS


# Every trial starts in the middle of the grid.
START_STATE = to_flat(2, 2)


@dataclass(frozen=True)
class TransitionModel:
    """Exact dynamics as a stochastic tensor plus branch lookup tables.

    tensor[z_next, z_prev, a] is the transition probability; main_next and
    rare_next give the flat successor per (z_prev, a), with rare_next = -1
    where no distinct rare branch exists.
    """

    tensor: np.ndarray
    main_next: np.ndarray
    rare_next: np.ndarray
    branch_prob: float


def _clamp(v: int) -> int:
    return min(max(v, 0), N_LEVELS - 1)


def build_transition_model(
    branch_prob: float = BRANCH_PROB, eat_gain: int = EAT_GAIN, temp_high_min: int = TEMP_HIGH_MIN
) -> TransitionModel:
    """Assemble the exact transition tensor from the action rules.

    Cool and Warm trade one unit of energy for a temperature step down or
    up. Eat, Play and Sleep change energy by +eat_gain, -1 and 0, and with
    probability branch_prob also push temperature away from the middle
    (down when y < temp_high_min, up otherwise). Coordinates clamp to the
    grid; when clamping collapses the branch onto the main successor the
    two merge into a single certain transition.
    """
    if not 0.0 <= branch_prob <= 1.0:
        raise ValueError("branch_prob must lie in [0, 1]")
    tensor = np.zeros((N_STATES, N_STATES, N_ACTIONS))
    main_next = np.zeros((N_STATES, N_ACTIONS), dtype=np.int64)
    rare_next = np.full((N_STATES, N_ACTIONS), -1, dtype=np.int64)
    energy_delta = {Action.EAT: eat_gain, Action.PLAY: -1, Action.SLEEP: 0}
    for z in range(N_STATES):
        x, y = to_xy(z)
        for action in Action:
            if action is Action.COOL:
                main, rare = (x - 1, y - 1), None
            elif action is Action.WARM:
                main, rare = (x - 1, y + 1), None
            else:
                dx = energy_delta[action]
                dy = 1 if y >= temp_high_min else -1
                main, rare = (x + dx, y), (x + dx, y + dy)
            m = to_flat(_clamp(main[0]), _clamp(main[1]))
            main_next[z, action] = m
            if rare is None:
                tensor[m, z, action] = 1.0
                continue
            r = to_flat(_clamp(rare[0]), _clamp(rare[1]))
            if r == m:
                tensor[m, z, action] = 1.0
            else:
                tensor[m, z, action] = 1.0 - branch_prob
                tensor[r, z, action] = branch_prob
                rare_next[z, action] = r
    for arr in (tensor, main_next, rare_next):
        arr.setflags(write=False)
    return TransitionModel(tensor, main_next, rare_next, branch_prob)


def step(model: TransitionModel, z: int, action: int, u: float) -> tuple[int, bool]:
    """Advance the flat true state z by one action, by one uniform u.
    Returns (z_next, rare): rare is set only when a distinct rare successor
    was sampled.
    """
    rare = model.rare_next.item(z, action)
    fired = rare >= 0 and u < model.branch_prob
    return (rare if fired else model.main_next.item(z, action)), fired


@dataclass(frozen=True)
class PriorPreference:
    """Strictly positive comfort score per state, flat-indexed, and the
    largest of them."""

    values: np.ndarray
    max_value: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (N_STATES,):
            raise ValueError(f"preference must have shape ({N_STATES},)")
        if not np.isfinite(v).all() or (v <= 0.0).any():
            raise ValueError("preference values must be finite and positive")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "max_value", float(v.max()))


def build_prior_preference(sigma: float = C_SIGMA, floor: float = C_FLOOR) -> PriorPreference:
    """Radial comfort bump centred between the four middle cells.

    Each cell scores exp(-d^2 / (2 sigma^2)) for its Euclidean distance d
    from (COMFORT_CENTRE, COMFORT_CENTRE), floored at `floor` so every state keeps support.
    """
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    if floor <= 0.0:
        raise ValueError("floor must be positive")
    xs = np.arange(N_LEVELS, dtype=float)
    gx, gy = np.meshgrid(xs, xs)
    d2 = (gx - COMFORT_CENTRE) ** 2 + (gy - COMFORT_CENTRE) ** 2
    vals = np.maximum(np.exp(-d2 / (2.0 * sigma * sigma)), floor)
    return PriorPreference(vals.reshape(-1))


# The modes preferred_obs_distribution accepts.
PREFERENCE_MODES = ("linear", "softmax")


def preferred_obs_distribution(pref: PriorPreference, mode: str = "linear") -> np.ndarray:
    """Preference surface as a distribution over observations.

    "linear" divides by the sum; "softmax" exponentiates first (with max
    subtraction) and then normalizes.
    """
    if mode == "linear":
        return Categorical(pref.values / pref.values.sum()).probs
    if mode == "softmax":
        w = np.exp(pref.values - pref.values.max())
        return Categorical(w / w.sum()).probs
    raise ValueError(f"unknown preference mode: {mode!r}")
