"""Active-inference agents.

Each agent filters a belief over the 36 latent states, scores candidate
actions by expected free energy (ambiguity plus risk against its comfort
preference), turns those scores into a posterior over symbols, and learns
whichever generative matrix it lacks through Dirichlet count updates: the
parent learns the observation map, the infant learns the dynamics.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .environment import (
    N_ACTIONS,
    N_STATES,
    PriorPreference,
    TransitionModel,
    identity_sensory_map,
    preferred_obs_distribution,
)
from .probability import KL_FLOOR, Categorical, digamma, dirichlet_mean, softmax_neg

# Flat Dirichlet concentration of every learned cell: 1/36 per cell gives
# each 36-cell column a total prior weight of one observation (Perks'
# prior), so a column's own counts outweigh the prior from its first visit.
DIRICHLET_PRIOR = 1.0 / N_STATES


class AgentKind(Enum):
    PARENT = "parent"
    INFANT = "infant"


def predict_belief(belief: np.ndarray, transitions: np.ndarray, action: int) -> np.ndarray:
    """Push a belief one step through the dynamics for the given action."""
    p = transitions[:, :, action] @ belief
    return p / p.sum()


def update_belief(belief_pred: np.ndarray, sensory: np.ndarray, obs: int) -> np.ndarray:
    """Bayes correction of a predicted belief by an observed cue.

    If the likelihood wipes out the entire prediction, the normalized
    likelihood row is used alone so the belief never degenerates.
    """
    like = sensory[obs, :]
    post = like * belief_pred
    total = post.sum()
    if total <= 0.0:
        post = like
        total = post.sum()
        if total <= 0.0:
            raise ValueError(f"observation {obs} has an all-zero likelihood row")
    post = post / total
    # Normalized a second time, as Categorical() would: the artifacts
    # depend on these exact bits.
    return post / post.sum()


class Agent:
    """One member of the dyad.

    Holds the sensory map A[obs, z], the dynamics B[z', z, a], the comfort
    preference, a persistent belief, and the Dirichlet concentrations
    behind whichever of A or B is being learned. The learned matrix is
    always the mean of its concentrations, so batch replay of the same
    updates reproduces it exactly. Symbol w names action w. Beliefs and
    posteriors are plain probability vectors.
    """

    def __init__(
        self,
        kind: AgentKind,
        sensory: np.ndarray,
        transitions: np.ndarray,
        preferred_obs: Categorical,
        obs_concentration: np.ndarray | None = None,
        trans_concentration: np.ndarray | None = None,
    ):
        self.kind = kind
        self.preferred_obs = preferred_obs
        self._log_pref = np.log(np.maximum(preferred_obs.probs, KL_FLOOR))
        self.obs_concentration = obs_concentration
        self.trans_concentration = trans_concentration
        self.A = sensory
        self.B = transitions
        # B[z', z, a] as rows z of (z', a) cells: the C-contiguous array
        # np.tensordot(belief, B, axes=(0, 1)) would copy out on every
        # call. learn_B keeps it current.
        self._B_rows = np.ascontiguousarray(transitions.transpose(1, 0, 2)).reshape(N_STATES, -1)
        # An exact, unlearned identity map means the agent senses its state:
        # its ambiguity is 0, its predicted cue is its predicted state, and
        # every observation leaves it certain of the state observed.
        self._senses_state = obs_concentration is None and np.array_equal(
            sensory, identity_sensory_map()
        )
        self._known_state: int | None = None
        self._belief = Categorical.uniform(N_STATES).probs
        self._refresh_sensory()

    # -- belief ----------------------------------------------------------

    @property
    def belief(self) -> np.ndarray:
        return self._belief

    @belief.setter
    def belief(self, value):
        """Set the belief from any probability vector, validated here."""
        probs = Categorical(value).probs
        if probs.size != N_STATES:
            raise ValueError("belief support must match the state space")
        self._belief = probs
        self._known_state = None

    def assimilate(self, action: int, obs: int) -> tuple[np.ndarray, np.ndarray]:
        """Predict through `action`, correct by `obs`, adopt the result.

        Returns (previous belief, new belief); the pair is what dynamics
        learning needs.
        """
        prev = self._belief
        if self._senses_state:
            # What update_belief gives under an identity map: pred[obs] /
            # pred[obs] = 1 at obs, 0 elsewhere, and the same vector from its
            # fallback when pred[obs] = 0.
            self._belief = np.zeros(N_STATES)
            self._belief[obs] = 1.0
            self._known_state = obs
        else:
            self._belief = update_belief(predict_belief(prev, self.B, action), self.A, obs)
        return prev, self._belief

    # -- action and symbol scoring ----------------------------------------

    def efe_per_action(self) -> np.ndarray:
        """Expected free energy of every action from the current belief.

        Ambiguity is the belief-weighted entropy of the sensory columns
        after the one-step prediction, taken in expectation under the
        Dirichlet where the agent is learning them; risk is the KL from the
        predicted observation distribution to the comfort distribution.
        """
        if self._known_state is not None:
            # A one-hot belief picks one row out of the product below.
            q_pred = self._B_rows[self._known_state]
        else:
            q_pred = np.dot(self._belief.reshape(1, N_STATES), self._B_rows)
        q_pred = q_pred.reshape(N_STATES, N_ACTIONS)
        q_obs = q_pred if self._senses_state else self.A @ q_pred
        logs = np.where(q_obs > 0.0, np.log(np.where(q_obs > 0.0, q_obs, 1.0)), 0.0)
        risk = (q_obs * (logs - self._log_pref[:, None])).sum(axis=0)
        if self._senses_state:
            return risk
        return self._sensory_entropy @ q_pred + risk

    def symbol_posterior(self) -> np.ndarray:
        """Distribution over symbols: softmax of minus the free energy of
        the action each symbol names."""
        return softmax_neg(self.efe_per_action())

    # -- learning ----------------------------------------------------------

    def learn_A(self, posterior: np.ndarray, obs: int):
        """Accumulate belief mass into the observation counts for `obs`."""
        if self.obs_concentration is None:
            raise ValueError(f"{self.kind.value} does not learn the sensory map")
        self.obs_concentration[:, obs] += posterior
        self._refresh_sensory(obs)

    def learn_B(self, prev_posterior: np.ndarray, posterior: np.ndarray, action: int):
        """Accumulate the outer product of consecutive beliefs into the
        transition counts for `action`."""
        if self.trans_concentration is None:
            raise ValueError(f"{self.kind.value} does not learn the dynamics")
        self.trans_concentration[:, :, action] += np.outer(posterior, prev_posterior)
        slice_a = self.trans_concentration[:, :, action]
        self.B[:, :, action] = slice_a / slice_a.sum(axis=0, keepdims=True)
        self._B_rows[:, action::N_ACTIONS] = self.B[:, :, action].T

    def _refresh_sensory(self, obs: int | None = None):
        """Ambiguity of each state's sensory column, and for a learned map
        the map itself, the mean of its Dirichlet concentrations.

        A known column's ambiguity is its entropy. A learned column's is its
        expected entropy under the agent's Dirichlet, psi(c0 + 1) - sum_o
        c_o psi(c_o + 1) / c0 (see dirichlet_expected_entropy). The entropy
        of the Dirichlet mean would count the agent's own ignorance of a cue
        as noise in the cue, and so steer it away from exactly the states
        whose cues it has yet to learn. The cells' c psi(c + 1) terms are
        cached, so learning from observation `obs` recomputes only that
        column of them.
        """
        c = self.obs_concentration
        if c is None:
            a = self.A
            self._sensory_entropy = -np.where(a > 0.0, a * np.log(np.where(a > 0.0, a, 1.0)), 0.0).sum(axis=0)
            return
        c0 = c.sum(axis=1)
        self.A = (c / c0[:, None]).T
        if obs is None:
            self._psi_terms = c * digamma(c + 1.0)
            psi_c0 = digamma(c0 + 1.0)
        else:
            psi = digamma(np.concatenate((c[:, obs], c0)) + 1.0)
            self._psi_terms[:, obs] = c[:, obs] * psi[: c.shape[0]]
            psi_c0 = psi[c.shape[0] :]
        self._sensory_entropy = psi_c0 - self._psi_terms.sum(axis=1) / c0


def init_agent(
    kind: AgentKind,
    truth: TransitionModel,
    preference: PriorPreference,
    prior_concentration: float = DIRICHLET_PRIOR,
    preference_mode: str = "linear",
) -> Agent:
    """Fresh agent with a uniform belief.

    The parent keeps the exact dynamics and starts a flat Dirichlet over
    the sensory map; the infant keeps the exact (identity) sensory map and
    starts a flat Dirichlet over the dynamics.
    """
    if prior_concentration <= 0.0:
        raise ValueError("prior concentration must be positive")
    preferred = preferred_obs_distribution(preference, preference_mode)
    if kind is AgentKind.PARENT:
        alpha = np.full((N_STATES, N_STATES), prior_concentration)
        return Agent(
            kind,
            sensory=dirichlet_mean(alpha, axis=1).T,
            transitions=truth.tensor,
            preferred_obs=preferred,
            obs_concentration=alpha,
        )
    if kind is AgentKind.INFANT:
        beta = np.full((N_STATES, N_STATES, N_ACTIONS), prior_concentration)
        return Agent(
            kind,
            sensory=identity_sensory_map(),
            transitions=dirichlet_mean(beta, axis=0),
            preferred_obs=preferred,
            trans_concentration=beta,
        )
    raise ValueError(f"unknown agent kind: {kind!r}")
