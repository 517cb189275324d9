"""Experiment configuration: a flat dataclass with JSON round-tripping.

Every knob of a run lives here so a config file plus a seed pins the
entire experiment.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .agents import DIRICHLET_PRIOR
from .dialogue import CONDITION_NAMES, ROUND_ORDERS
from .environment import BRANCH_PROB, C_FLOOR, C_SIGMA, COMFORT_CENTRE, EAT_GAIN, TEMP_HIGH_MIN
from .environment import N_LEVELS, N_STATES, PREFERENCE_MODES
from .metrics import ROUND_DTYPE

CURRENT_W_MODES = ("fresh", "persistent")
# The most processes a run may start; each is a full interpreter.
MAX_WORKERS = 64
# The trial CSV's iteration column bounds a trial's length, and its trial
# column a condition's trials: indices in [0, MAX_TRIALS).
MAX_ITERATIONS = int(np.iinfo(ROUND_DTYPE["iteration"]).max)
MAX_TRIALS = int(np.iinfo(ROUND_DTYPE["trial"]).max) + 1
FLOAT_MAX = sys.float_info.max
# The largest squared distance of a cell from the comfort bump's centre, a corner's.
_CORNER_D2 = 2 * COMFORT_CENTRE ** 2


class ConfigError(ValueError):
    pass


def _sums_finitely(values) -> bool:
    """Whether numpy sums these preferences finitely, as preferred_obs_distribution does."""
    with np.errstate(over="ignore"):
        return bool(np.isfinite(np.asarray(values, dtype=float).sum()))


def _type_error(name: str, value, kind: str) -> str | None:
    """Why a config value lacks the type its field annotation `kind` names,
    or None. A bool is not a number; an int is accepted where a float is."""
    if kind.endswith(" | None"):
        return None if value is None else _type_error(name, value, kind.removesuffix(" | None"))
    if kind.startswith("tuple["):
        if not isinstance(value, tuple):
            return f"{name} must be a list, not {value!r}"
        item = kind.removeprefix("tuple[").removesuffix(", ...]")
        errors = (_type_error(f"{name}[{i}]", v, item) for i, v in enumerate(value))
        return next(filter(None, errors), None)
    if isinstance(value, bool):
        ok = kind == "bool"
    else:
        ok = isinstance(value, {"int": int, "float": (int, float), "str": str, "bool": bool}[kind])
    return None if ok else f"{name} must be {kind}, not {value!r}"


@dataclass
class ExperimentConfig:
    """All knobs of one experiment.

    conditions       which negotiation rules to run
    trials           seeded repetitions per condition
    iterations       two-round exchanges per trial
    seed             root seed; every trial derives its own from it
    round_order      which agent speaks in the first round
    mh_current_w     "fresh" draws the listener's stance every round,
                     "persistent" carries the agreed symbol forward
    preference_mode  how the comfort surface becomes a distribution
    shuffle_permutations  permutations averaged in the shuffle control
    dirichlet_prior  flat Dirichlet concentration of every cell of the
                     learned matrices; the default 1/36 gives each
                     36-cell column the prior weight of one observation
    branch_prob / eat_gain / temp_high_min  world dynamics knobs
    c_sigma / c_floor  comfort bump shape; c_values overrides it outright
    out_dir          artifact directory for full runs
    dump_beliefs     also write per-round belief vectors
    workers          processes; the run's (condition, trial) pairs run in
                     this many batches (fewer if there are fewer pairs)
    """

    conditions: tuple[str, ...] = CONDITION_NAMES
    trials: int = 10
    iterations: int = 1000
    seed: int = 0
    round_order: str = "infant-first"
    mh_current_w: str = "fresh"
    preference_mode: str = "linear"
    shuffle_permutations: int = 1
    dirichlet_prior: float = DIRICHLET_PRIOR
    branch_prob: float = BRANCH_PROB
    eat_gain: int = EAT_GAIN
    temp_high_min: int = TEMP_HIGH_MIN
    c_sigma: float = C_SIGMA
    c_floor: float = C_FLOOR
    c_values: tuple[float, ...] | None = None
    out_dir: str = "runs/latest"
    dump_beliefs: bool = False
    workers: int = 1

    def __post_init__(self):
        if isinstance(self.conditions, str):
            self.conditions = (self.conditions,)
        for name in ("conditions", "c_values"):
            if isinstance(getattr(self, name), list):
                setattr(self, name, tuple(getattr(self, name)))
        self.validate()
        if self.c_values is not None:
            self.c_values = tuple(float(v) for v in self.c_values)

    def validate(self):
        for f in dataclasses.fields(self):
            error = _type_error(f.name, getattr(self, f.name), f.type)
            if error:
                raise ConfigError(error)
        if not self.conditions:
            raise ConfigError("need at least one condition")
        for c in self.conditions:
            if c not in CONDITION_NAMES:
                raise ConfigError(f"unknown condition {c!r}, expected {CONDITION_NAMES}")
        if len(set(self.conditions)) != len(self.conditions):
            raise ConfigError("conditions must be unique")
        if not 1 <= self.trials <= MAX_TRIALS:
            raise ConfigError(f"trials must be an integer in [1, {MAX_TRIALS}]")
        if not 1 <= self.iterations <= MAX_ITERATIONS:
            raise ConfigError(f"iterations must be an integer in [1, {MAX_ITERATIONS}]")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must be an unsigned 64-bit integer")
        if self.round_order not in ROUND_ORDERS:
            raise ConfigError(f"round_order must be one of {ROUND_ORDERS}")
        if self.mh_current_w not in CURRENT_W_MODES:
            raise ConfigError(f"mh_current_w must be one of {CURRENT_W_MODES}")
        if self.preference_mode not in PREFERENCE_MODES:
            raise ConfigError(f"preference_mode must be one of {PREFERENCE_MODES}")
        if self.shuffle_permutations < 1:
            raise ConfigError("shuffle_permutations must be a positive integer")
        # digamma squares its argument plus 10. Its largest argument is a
        # parent's column total plus 1: N_STATES priors and at most one count
        # per round, which a float sum rounds up by at most N_STATES ulps.
        top = math.sqrt(FLOAT_MAX) / (1.0 + N_STATES * sys.float_info.epsilon)
        max_prior = (top - 2 * self.iterations - 11) / N_STATES
        if not 0.0 < self.dirichlet_prior <= max_prior:
            raise ConfigError(
                f"dirichlet_prior must lie in (0, {max_prior:.4g}], not {self.dirichlet_prior!r}"
            )
        if not 0.0 <= self.branch_prob <= 1.0:
            raise ConfigError("branch_prob must lie in [0, 1]")
        if self.eat_gain < 0:
            raise ConfigError("eat_gain must be a non-negative integer")
        if not 0 <= self.temp_high_min <= N_LEVELS:
            raise ConfigError(f"temp_high_min must lie in [0, {N_LEVELS}]")
        # The comfort bump divides each squared distance by 2 c_sigma**2, finitely.
        spread = 2.0 * self.c_sigma * self.c_sigma if 0.0 < self.c_sigma <= FLOAT_MAX else 0.0
        if not (0.0 < spread and _CORNER_D2 / spread < math.inf):
            least = math.sqrt(_CORNER_D2 / 2.0 / FLOAT_MAX)
            raise ConfigError(
                f"c_sigma must lie in [{least:.4g}, {FLOAT_MAX:.4g}], not {self.c_sigma!r}"
            )
        # Every preference is at least c_floor, and their sum must be finite.
        if not (0.0 < self.c_floor <= FLOAT_MAX and _sums_finitely([self.c_floor] * N_STATES)):
            raise ConfigError(
                f"c_floor must lie in (0, {FLOAT_MAX / N_STATES:.4g}], not {self.c_floor!r}"
            )
        if self.c_values is not None:
            if len(self.c_values) != N_STATES:
                raise ConfigError(f"c_values needs exactly {N_STATES} entries")
            finite = all(0.0 < v <= FLOAT_MAX for v in self.c_values)
            if not (finite and _sums_finitely(self.c_values)):
                raise ConfigError("c_values must be positive and finite, with a finite sum")
        if not 1 <= self.workers <= MAX_WORKERS:
            raise ConfigError(f"workers must be an integer in [1, {MAX_WORKERS}]")

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["conditions"] = list(self.conditions)
        if self.c_values is not None:
            d["c_values"] = list(self.c_values)
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config JSON must be an object")
        return cls.from_dict(data)

    def replaced(self, **changes) -> "ExperimentConfig":
        return dataclasses.replace(self, **changes)


def load_config(path) -> ExperimentConfig:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    return ExperimentConfig.from_json(p.read_text())


def save_config(config: ExperimentConfig, path):
    Path(path).write_text(config.to_json())
