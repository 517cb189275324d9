"""Active-inference agents, each for a batch of trials: every per-trial
array has a leading trial axis.

Each agent scores candidate actions by expected free energy (ambiguity
plus risk against its comfort preference), turns those scores into a
posterior over symbols, and learns whichever generative matrix it lacks
through Dirichlet count updates: the parent filters a belief over the 36
latent states and learns the observation map, the infant senses its state
and learns the dynamics.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .environment import (
    N_ACTIONS,
    N_STATES,
    PriorPreference,
    TransitionModel,
    preferred_obs_distribution,
)
from .probability import KL_FLOOR, digamma, softmax_neg

# Flat Dirichlet concentration of every learned cell: 1/36 per cell gives
# each 36-cell column a total prior weight of one observation (Perks'
# prior), so a column's own counts outweigh the prior from its first visit.
DIRICHLET_PRIOR = 1.0 / N_STATES


class AgentKind(Enum):
    PARENT = "parent"
    INFANT = "infant"


def predict_belief(beliefs: np.ndarray, sources: tuple, actions: np.ndarray) -> np.ndarray:
    """Push each trial's belief one step through the dynamics for its action,
    `sources` being prediction_sources(transitions). Each cell sums its
    products in order over the source states, as transitions[:, :, a] @
    belief does without BLAS on that strided slice (a BLAS product of the
    gathered slices rounds differently). Exact-zero products leave such a
    sum as it is, so only the sources that reach a cell are added, row after
    row along an outer axis."""
    index, weight = sources
    rows = np.arange(len(actions))[:, None, None]
    p = np.add.reduce(weight[actions] * beliefs[rows, index[actions]], axis=1)
    return np.divide(p, np.add.reduce(p, axis=1, keepdims=True), out=p)


def prediction_sources(transitions: np.ndarray) -> tuple:
    """index[a, k, z'], the states that reach z' under action a in ascending
    order, padded with states that do not, and weight[a, k, z'], theirs."""
    empty = transitions.transpose(2, 1, 0) == 0.0
    reach = np.add.reduce(~empty, axis=1).max()
    index = np.argsort(empty, axis=1, kind="stable")[:, :reach]
    return index, np.take_along_axis(transitions.transpose(2, 1, 0), index, axis=1)


def update_belief(belief_pred: np.ndarray, sensory: np.ndarray, obs: np.ndarray) -> np.ndarray:
    """Bayes correction of each trial's predicted belief by its observed
    cue; `sensory` holds each trial's map A[obs, z].

    Where the likelihood wipes out the entire prediction, the normalized
    likelihood row is used alone so the belief never degenerates.
    """
    like = sensory[np.arange(len(obs)), obs]
    post = like * belief_pred
    total = np.add.reduce(post, axis=1, keepdims=True)
    if np.minimum.reduce(total, axis=None) <= 0.0:
        dead = total[:, 0] <= 0.0
        post[dead], total[dead] = like[dead], np.add.reduce(like[dead], axis=1, keepdims=True)
        if np.minimum.reduce(total, axis=None) <= 0.0:
            raise ValueError("an observation has an all-zero likelihood row")
    post = post / total
    # Normalized a second time, as a validating constructor would: the
    # artifacts depend on these exact bits.
    return np.divide(post, np.add.reduce(post, axis=1, keepdims=True), out=post)


def _risk_terms(q_obs: np.ndarray, log_pref: np.ndarray) -> np.ndarray:
    """q_obs * (log q_obs - log_pref) cell by cell, with log_pref shaped to
    broadcast along the observation axis. Summed over that axis in order,
    each distribution gives its KL to the comfort distribution."""
    terms = np.log(q_obs, out=np.zeros(q_obs.shape), where=q_obs > 0.0)
    terms -= log_pref
    terms *= q_obs
    return terms


def _column_risk(columns: np.ndarray, log_pref: np.ndarray) -> np.ndarray:
    """The KL of each distribution along the last axis of `columns` to the
    comfort distribution, its cells summed in order."""
    return _risk_terms(columns, log_pref).cumsum(axis=-1)[..., -1]


class Agent:
    """The parent in each of a batch of trials. It knows the dynamics
    B[z', z, a], filters a belief over the latent states, and learns its
    sensory map A[obs, z] as the mean of its counts `concentration` over
    (z, obs). It keeps the generic name because the benchmark traces
    Agent.efe_per_action by it."""

    kind = AgentKind.PARENT

    def __init__(
        self, transitions: np.ndarray, preferred_obs: np.ndarray, concentration: np.ndarray
    ):
        self._log_pref = np.log(np.maximum(preferred_obs, KL_FLOOR))
        self._trials = np.arange(len(concentration))
        # B[z', z, a] as rows z of (z', a) cells, for a belief's free energy.
        self._B_rows = np.ascontiguousarray(transitions.transpose(1, 0, 2)).reshape(N_STATES, -1)
        self._sources = prediction_sources(transitions)
        self.belief = np.full((len(concentration), N_STATES), 1.0 / N_STATES)
        self.obs_concentration = concentration
        self._refresh_sensory()

    def assimilate(self, action: np.ndarray, obs: np.ndarray) -> tuple:
        """Predict each trial's belief under `action` and correct it by the
        cue `obs`. Returns the previous and the new belief."""
        prev = self.belief
        self.belief = update_belief(predict_belief(prev, self._sources, action), self.A, obs)
        return prev, self.belief

    def efe_per_action(self) -> np.ndarray:
        """Expected free energy of every action from each trial's belief:
        ambiguity, the entropy of the sensory columns in expectation under the
        Dirichlet, weighted by the one-step prediction, plus risk, the KL from
        the predicted observation distribution to the comfort distribution."""
        q_pred = np.matmul(self.belief[:, None, :], self._B_rows).reshape(-1, N_STATES, N_ACTIONS)
        risk = np.add.reduce(_risk_terms(self.A @ q_pred, self._log_pref[:, None]), axis=1)
        return np.matmul(self._sensory_entropy[:, None, :], q_pred)[:, 0] + risk

    def symbol_posterior(self) -> np.ndarray:
        """Distribution over symbols per trial: softmax of minus each action's free energy."""
        return softmax_neg(self.efe_per_action())

    def learn_A(self, posterior: np.ndarray, obs: np.ndarray):
        """Accumulate each trial's belief mass into its counts for its cue."""
        column = self.obs_concentration[self._trials, :, obs] + posterior
        self.obs_concentration[self._trials, :, obs] = column
        self._refresh_sensory(obs, column)

    def _refresh_sensory(self, obs: np.ndarray | None = None, column: np.ndarray | None = None):
        """The parent's sensory map, the mean of its Dirichlet
        concentrations, and the ambiguity of each state's column.

        A column's ambiguity is its expected entropy under the parent's
        Dirichlet, psi(c0 + 1) - sum_o c_o psi(c_o + 1) / c0, with
        c0 = sum_o c_o. The entropy of the Dirichlet mean would count the
        parent's own ignorance of a cue as noise in the cue, and so steer it
        away from exactly the states whose cues it has yet to learn. The
        cells' c psi(c + 1) terms are cached, so learning from each trial's
        cue `obs` recomputes only that column of them, `column` its counts.
        """
        c = self.obs_concentration
        c0 = np.add.reduce(c, axis=2)
        if obs is None:
            # A is rewritten in place; one trial at a time, digamma holds ten c's.
            self.A = np.empty(c.shape).swapaxes(1, 2)
            self._psi_terms = np.array([counts * digamma(counts + 1.0) for counts in c])
            psi_c0 = digamma(c0 + 1.0)
        else:
            psi = digamma(np.concatenate((column, c0), axis=1) + 1.0)
            self._psi_terms[self._trials, :, obs] = column * psi[:, :N_STATES]
            psi_c0 = psi[:, N_STATES:]
        np.divide(c, c0[:, :, None], out=self.A.swapaxes(1, 2))
        self._sensory_entropy = psi_c0 - np.add.reduce(self._psi_terms, axis=2) / c0


class Infant:
    """The infant in each of a batch of trials. It senses its `state` (None
    before its first cue, when its belief is uniform) and learns the dynamics
    B[z', z, a] as the mean of its counts `concentration` over (z, a, z').
    Sensing exactly, from a state s its free energy is its risk row _risk[t, s]."""

    kind = AgentKind.INFANT

    def __init__(self, preferred_obs: np.ndarray, concentration: np.ndarray):
        self._log_pref = np.log(np.maximum(preferred_obs, KL_FLOOR))
        self._trials = np.arange(len(concentration))
        self.state: np.ndarray | None = None
        self.trans_concentration = concentration
        self._risk = np.empty((len(concentration), N_STATES, N_ACTIONS))
        self._start_efe = np.empty((len(concentration), N_ACTIONS))
        # One trial at a time, so that no temporary holds T trials' counts.
        # From the uniform start, each action predicts the average of its columns.
        uniform = np.full((1, N_STATES), 1.0 / N_STATES)
        for counts, risk, start in zip(concentration, self._risk, self._start_efe):
            mean = counts / counts.cumsum(axis=-1)[..., -1:]
            risk[:] = _column_risk(mean, self._log_pref)
            q_pred = uniform.dot(mean.reshape(N_STATES, -1)).reshape(N_ACTIONS, N_STATES)
            start[:] = _column_risk(q_pred, self._log_pref)

    def assimilate(self, action: np.ndarray, obs: np.ndarray) -> tuple:
        """Adopt each trial's cue as its state; returns the previous and the new."""
        prev, self.state = self.state, obs
        return prev, obs

    def efe_per_action(self) -> np.ndarray:
        """Expected free energy of every action from each trial's state:
        the risk of its learned prediction, or of the uniform start."""
        return self._start_efe if self.state is None else self._risk[self._trials, self.state]

    def symbol_posterior(self) -> np.ndarray:
        """Distribution over symbols per trial, as the parent's."""
        return softmax_neg(self.efe_per_action())

    def learn_B(self, prev: np.ndarray | None, obs: np.ndarray, action: np.ndarray):
        """Count the outer product of each trial's consecutive beliefs under
        `action`: one unit at (prev, action, obs) from the sensed state prev,
        and 1/36 at (s, action, obs) for every s from the uniform start
        (prev None). Each column counted is renormalized, its cells summed
        in order, and its risk cell renewed."""
        trials, weight = self._trials, 1.0
        if prev is None:
            trials, prev, weight = trials[:, None], np.arange(N_STATES), 1.0 / N_STATES
            action, obs = action[:, None], obs[:, None]
        counts = self.trans_concentration
        counts[trials, prev, action, obs] += weight
        columns = counts[trials, prev, action]
        columns /= columns.cumsum(axis=-1)[..., -1:]
        self._risk[trials, prev, action] = _column_risk(columns, self._log_pref)


def init_agent(
    kind: AgentKind,
    truth: TransitionModel,
    preference: PriorPreference,
    prior_concentration: float = DIRICHLET_PRIOR,
    preference_mode: str = "linear",
    trials: int = 1,
) -> Agent | Infant:
    """A fresh agent of `kind` for a batch of `trials` trials, with a uniform
    belief in each. The parent keeps the exact dynamics and starts a flat
    Dirichlet over the sensory map; the infant senses its state exactly and
    starts a flat Dirichlet over the dynamics, at its mean."""
    if not 0.0 < prior_concentration < math.inf:
        raise ValueError("prior concentration must be positive and finite")
    preferred = preferred_obs_distribution(preference, preference_mode)
    if kind is AgentKind.PARENT:
        counts = np.full((trials, N_STATES, N_STATES), prior_concentration)
        return Agent(truth.tensor, preferred, counts)
    return Infant(preferred, np.full((trials, N_STATES, N_ACTIONS, N_STATES), prior_concentration))
