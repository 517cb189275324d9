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
    Action,
    N_ACTIONS,
    N_STATES,
    PriorPreference,
    TransitionModel,
    preferred_obs_distribution,
)
from .metrics import kld_A_error, kld_B_error
from .probability import KL_FLOOR, column_kl, digamma, kl_terms, softmax_neg

# Flat Dirichlet concentration of every learned cell: 1/36 per cell gives
# each 36-cell column a total prior weight of one observation (Perks'
# prior), so a column's own counts outweigh the prior from its first visit.
DIRICHLET_PRIOR = 1.0 / N_STATES
# numpy compares and indexes by an int faster than by an IntEnum.
SLEEP = int(Action.SLEEP)


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
    # One gather from the flattened beliefs, where trial t's cells start at t * 36.
    offsets = np.arange(0, beliefs.size, N_STATES)[:, None, None]
    terms = beliefs.take(index[actions] + offsets)
    terms *= weight[actions]
    p = np.add.reduce(terms, axis=1)
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


class Agent:
    """The parent in each of `trials` trials. It knows the dynamics
    B[z', z, a], filters a belief over the latent states, and learns its
    sensory map A[obs, z] as the mean of its counts over (z, obs), in every
    trial from one trial's `concentration`. `map_kls[t, z]` is the error of
    state z's column of the map in trial t, renewed with that column. It
    keeps the generic name, by which the benchmark traces it."""

    kind = AgentKind.PARENT

    def __init__(
        self, transitions: np.ndarray, preferred_obs: np.ndarray, concentration: np.ndarray,
        trials: int = 1,
    ):
        self._log_pref = np.log(np.maximum(preferred_obs, KL_FLOOR))
        # B[z', z, a] as rows z of (z', a) cells, for a belief's free energy.
        self._B_rows = np.ascontiguousarray(transitions.transpose(1, 0, 2)).reshape(N_STATES, -1)
        self._sources = prediction_sources(transitions)
        self.belief = np.full((trials, N_STATES), 1.0 / N_STATES)
        # np.repeat stacks C-ordered copies, so the counts, the c psi(c + 1)
        # cache and the map are also read through views as one row per (trial,
        # state), row t * 36 + z, and their cells by the flat index row * 36 + obs.
        self.obs_concentration = np.repeat(concentration[None], trials, axis=0)
        psi_terms = concentration * digamma(concentration + 1.0)
        self._psi_terms = np.repeat(psi_terms[None], trials, axis=0)
        self.A = np.empty(self.obs_concentration.shape).swapaxes(1, 2)
        self._count_rows = self.obs_concentration.reshape(-1, N_STATES)
        self._psi_rows = self._psi_terms.reshape(-1, N_STATES)
        self._A_rows = self.A.swapaxes(1, 2).reshape(-1, N_STATES)
        self._sensory_entropy = np.empty(self.belief.shape)
        self.map_kls = np.empty(self.belief.shape)
        # Trial 0's uniform belief reaches every state; the other trials copy its start.
        self._refresh_sensory(*self.belief[:1].nonzero())
        for start in (self.A, self._sensory_entropy, self.map_kls):
            start[1:] = start[0]

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
        # The predicted cues observation-major, (obs, trial, action): the
        # risk sums over the outer axis, in order, as it would over the
        # middle axis of (trial, obs, action), but in fewer, longer passes.
        obs_pred = np.empty((N_STATES, len(q_pred), N_ACTIONS))
        np.matmul(self.A, q_pred, out=obs_pred.transpose(1, 0, 2))
        risk = np.add.reduce(kl_terms(obs_pred, self._log_pref[:, None, None]), axis=0)
        return np.matmul(self._sensory_entropy[:, None, :], q_pred)[:, 0] + risk

    def symbol_posterior(self) -> np.ndarray:
        """Distribution over symbols per trial: softmax of minus each action's free energy."""
        return softmax_neg(self.efe_per_action())

    def learn_A(self, posterior: np.ndarray, obs: np.ndarray):
        """Accumulate each trial's belief mass into its counts for its cue.
        Only the states the belief reaches gain mass, so only their rows of
        the map are renewed: a count plus an exact 0 keeps its bits."""
        t, z = posterior.nonzero()
        obs = obs[t]
        row = t * N_STATES + z
        cell = row * N_STATES + obs
        cells = self.obs_concentration.take(cell) + posterior.take(row)
        self.obs_concentration.put(cell, cells)
        self._refresh_sensory(t, z, obs, cells)

    def _refresh_sensory(self, t, z, obs=None, cells=None):
        """Renew the parent's sensory map, the mean of its Dirichlet
        concentrations, and the ambiguity and the error of each state's
        column, in the rows (t[i], z[i]): state z[i]'s column in trial t[i].

        A column's ambiguity is its expected entropy under the parent's
        Dirichlet, psi(c0 + 1) - sum_o c_o psi(c_o + 1) / c0, with
        c0 = sum_o c_o. The entropy of the Dirichlet mean would count the
        parent's own ignorance of a cue as noise in the cue, and so steer it
        away from exactly the states whose cues it has yet to learn. The
        cells' c psi(c + 1) terms are cached, so learning a row's cue `obs`
        recomputes only that cell of them, `cells` its counts; without `obs`
        the cache must already hold every row's.
        """
        row = t * N_STATES + z
        rows = self._count_rows.take(row, axis=0)
        c0 = np.add.reduce(rows, axis=1)
        if obs is None:
            psi_c0 = digamma(c0 + 1.0)
        else:
            psi = digamma(np.concatenate((cells, c0)) + 1.0)
            self._psi_terms.put(row * N_STATES + obs, cells * psi[: len(t)])
            psi_c0 = psi[len(t) :]
        self._A_rows[row] = np.divide(rows, c0[:, None], out=rows)
        self.map_kls.put(row, kld_A_error(rows, z))
        psi_rows = self._psi_rows.take(row, axis=0)
        self._sensory_entropy.put(row, psi_c0 - np.add.reduce(psi_rows, axis=1) / c0)


class Infant:
    """The infant in each of `trials` trials. It senses its `state` (None
    before its first cue, when its belief is uniform) and learns the dynamics
    B[z', z, a] as the mean of its counts over (z, a, z'), in every trial
    from one trial's `concentration`. Sensing exactly, from a state s its
    free energy is its risk row _risk[t, s]. `sleep_kls[t, z]` is the error of
    its Sleep column from state z in trial t against the true one, row z of
    `true_sleep`, renewed with that column."""

    kind = AgentKind.INFANT

    def __init__(
        self, preferred_obs: np.ndarray, concentration: np.ndarray, true_sleep: np.ndarray,
        trials: int = 1,
    ):
        self._log_pref = np.log(np.maximum(preferred_obs, KL_FLOOR))
        self._true_sleep = true_sleep
        self._trials = np.arange(trials)
        self.state: np.ndarray | None = None
        self.trans_concentration = np.repeat(concentration[None], trials, axis=0)
        mean = concentration / concentration.cumsum(axis=-1)[..., -1:]
        self._risk = np.repeat(column_kl(mean, self._log_pref)[None], trials, axis=0)
        self.sleep_kls = np.repeat(kld_B_error(true_sleep, mean[:, SLEEP])[None], trials, axis=0)
        # From the uniform start, each action predicts the average of its columns.
        uniform = np.full((1, N_STATES), 1.0 / N_STATES)
        q_pred = uniform.dot(mean.reshape(N_STATES, -1)).reshape(N_ACTIONS, N_STATES)
        self._start_efe = np.repeat(column_kl(q_pred, self._log_pref)[None], trials, axis=0)

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
        (prev None), one trial at a time, so that no temporary holds T
        trials' columns. The Sleep errors of the Sleep columns counted are
        renewed from their new means."""
        if prev is None:
            for t in self._trials:
                means = self._count(t, np.arange(N_STATES), action[t], obs[t], 1.0 / N_STATES)
                if action[t] == SLEEP:
                    self.sleep_kls[t] = kld_B_error(self._true_sleep, means)
        else:
            means = self._count(self._trials, prev, action, obs, 1.0)
            slept = (action == SLEEP).nonzero()[0]
            sources = prev[slept]
            self.sleep_kls[slept, sources] = kld_B_error(self._true_sleep[sources], means[slept])

    def _count(self, trials, sources, action, obs, weight: float) -> np.ndarray:
        """Add `weight` at (trials, sources, action, obs), renormalize each
        column counted, its cells summed in order, and renew its risk cell.
        Returns the columns' means."""
        counts = self.trans_concentration
        counts[trials, sources, action, obs] += weight
        columns = counts[trials, sources, action]
        columns /= columns.cumsum(axis=-1)[..., -1:]
        self._risk[trials, sources, action] = column_kl(columns, self._log_pref)
        return columns


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
    starts a flat Dirichlet over the dynamics, at its mean, and is handed
    the true Sleep columns its error is measured against."""
    if not 0.0 < prior_concentration < math.inf:
        raise ValueError("prior concentration must be positive and finite")
    preferred = preferred_obs_distribution(preference, preference_mode)
    prior = float(prior_concentration)  # an integer prior would make integer counts
    if kind is AgentKind.PARENT:
        return Agent(truth.tensor, preferred, np.full((N_STATES, N_STATES), prior), trials)
    counts = np.full((N_STATES, N_ACTIONS, N_STATES), prior)
    return Infant(preferred, counts, truth.tensor[:, :, SLEEP].T, trials)
