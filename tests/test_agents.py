import math

import numpy as np
import pytest

from dyadreg.agents import (
    Agent,
    AgentKind,
    init_agent,
    predict_belief,
    update_belief,
)
from dyadreg.environment import (
    Action,
    N_STATES,
    VisceralState,
    build_prior_preference,
    build_transition_model,
    preferred_obs_distribution,
)
from dyadreg.probability import KL_FLOOR, Categorical, make_rng
from oracles import dirichlet_expected_entropy, kl_divergence, outer_product_learn_B, set_belief


@pytest.fixture(scope="module")
def world():
    return build_transition_model()


@pytest.fixture(scope="module")
def pref():
    return build_prior_preference()


# A unit prior per cell keeps the count oracles below readable; the
# experiment's default prior is a config knob (dirichlet_prior).
def fresh_parent(world, pref):
    return init_agent(AgentKind.PARENT, world, pref, prior_concentration=1.0)


def fresh_infant(world, pref):
    return init_agent(AgentKind.INFANT, world, pref, prior_concentration=1.0)


def omniscient(world, pref):
    # An infant with the exact dynamics and no counts: both matrices exact,
    # no learning. Useful for directional checks.
    return Agent(AgentKind.INFANT, world.tensor, preferred_obs_distribution(pref))


class TestInit:
    def test_parent_starts_flat_sensory(self, world, pref):
        p = fresh_parent(world, pref)
        assert np.allclose(p.A, 1.0 / N_STATES)
        assert p.B is world.tensor
        assert np.allclose(p.belief, 1.0 / N_STATES)
        assert p.obs_concentration is not None
        assert p.trans_concentration is None

    def test_infant_starts_flat_dynamics(self, world, pref):
        i = fresh_infant(world, pref)
        assert np.array_equal(i.A, np.eye(N_STATES))
        assert np.allclose(i.B, 1.0 / N_STATES)
        assert i.trans_concentration is not None
        assert i.obs_concentration is None

    def test_rejects_bad_prior(self, world, pref):
        for kind in AgentKind:
            for prior in (0.0, -1.0, math.nan, math.inf):
                with pytest.raises(ValueError, match="prior concentration"):
                    init_agent(kind, world, pref, prior_concentration=prior)

    def test_parent_without_counts_is_refused(self, world, pref):
        with pytest.raises(ValueError, match="counts over its sensory map"):
            Agent(AgentKind.PARENT, world.tensor, preferred_obs_distribution(pref))

    def test_infant_without_counts_keeps_its_dynamics(self, world, pref):
        agent = omniscient(world, pref)
        assert agent.B is world.tensor
        assert np.array_equal(agent.A, np.eye(N_STATES))
        uniform = np.full(N_STATES, 1.0 / N_STATES)
        with pytest.raises(ValueError, match="does not learn the dynamics"):
            agent.learn_B(uniform, uniform, 0)


class TestFiltering:
    def test_predict_splits_on_branch(self, world):
        q = np.eye(N_STATES)[VisceralState(3, 3).flat]
        out = predict_belief(q, world.tensor, Action.SLEEP)
        assert out[VisceralState(3, 3).flat] == pytest.approx(0.8)
        assert out[VisceralState(3, 4).flat] == pytest.approx(0.2)

    def test_predict_keeps_normalization(self, world):
        rng = make_rng(0)
        for _ in range(20):
            q = Categorical(rng.dirichlet(np.ones(N_STATES))).probs
            for a in range(5):
                out = predict_belief(q, world.tensor, a)
                assert out.sum() == pytest.approx(1.0, abs=1e-9)

    def test_update_with_identity_pins_to_obs(self):
        pred = Categorical([0.25, 0.25, 0.5]).probs
        post = update_belief(pred, np.eye(3), 2)
        assert np.array_equal(post, [0.0, 0.0, 1.0])

    def test_update_falls_back_on_dead_product(self):
        pred = np.eye(3)[0]
        post = update_belief(pred, np.eye(3), 2)
        assert np.array_equal(post, [0.0, 0.0, 1.0])

    def test_update_rejects_zero_likelihood_row(self):
        sensory = np.zeros((3, 3))
        sensory[0, 0] = 1.0
        with pytest.raises(ValueError):
            update_belief(np.full(3, 1.0 / 3), sensory, 2)

    def test_update_weighs_soft_likelihoods(self):
        sensory = np.array([[0.9, 0.1], [0.1, 0.9]])
        post = update_belief(Categorical([0.5, 0.5]).probs, sensory, 0)
        assert post[0] == pytest.approx(0.9)

    def test_assimilate_returns_prev_and_new(self, world, pref):
        i = fresh_infant(world, pref)
        set_belief(i, np.eye(N_STATES)[14])
        prev, new = i.assimilate(Action.SLEEP, 20)
        assert np.array_equal(prev, np.eye(N_STATES)[14])
        assert new[20] == 1.0
        assert i.belief is new


class TestExpectedFreeEnergy:
    def test_matches_explicit_sums(self, world, pref):
        # Independent route: loop the decomposition term by term with the
        # scalar primitives. A learned sensory column's ambiguity is its
        # expected entropy under the parent's Dirichlet over it.
        parent = fresh_parent(world, pref)
        rng = make_rng(33)
        for _ in range(5):
            parent.learn_A(
                Categorical(rng.dirichlet(np.ones(N_STATES))).probs, int(rng.integers(36))
            )
        set_belief(parent, Categorical(rng.dirichlet(np.ones(N_STATES))).probs)
        vec = parent.efe_per_action()
        for a in range(5):
            q_pred = predict_belief(parent.belief, parent.B, a)
            ambiguity = sum(
                q_pred[z] * dirichlet_expected_entropy(parent.obs_concentration[z])
                for z in range(N_STATES)
            )
            q_obs = parent.A @ q_pred
            risk = kl_divergence(q_obs, parent.preferred_obs)
            assert vec[a] == pytest.approx(ambiguity + risk, abs=1e-9)
            assert parent.efe_per_action()[a] == pytest.approx(vec[a], abs=1e-12)

    def test_identity_sensing_has_zero_ambiguity(self, world, pref):
        agent = omniscient(world, pref)
        set_belief(agent, np.eye(N_STATES)[VisceralState(2, 2).flat])
        for a in range(5):
            q_pred = predict_belief(agent.belief, agent.B, a)
            risk = kl_divergence(agent.A @ q_pred, agent.preferred_obs)
            assert agent.efe_per_action()[a] == pytest.approx(risk, abs=1e-12)

    def test_sleep_preferred_at_comfort_peak(self, world, pref):
        agent = omniscient(world, pref)
        set_belief(agent, np.eye(N_STATES)[VisceralState(2, 2).flat])
        vec = agent.efe_per_action()
        assert int(vec.argmin()) == Action.SLEEP
        assert agent.symbol_posterior().argmax() == Action.SLEEP

    def test_flat_parent_scores_all_actions_equally(self, world, pref):
        # A uniform sensory map erases any information the prediction
        # carries, so every action looks alike at first.
        parent = fresh_parent(world, pref)
        vec = parent.efe_per_action()
        assert np.allclose(vec, vec[0], atol=1e-12)
        assert np.allclose(parent.symbol_posterior(), 0.2, atol=1e-12)


class TestSymbolPosterior:
    def test_softmax_of_negative_scores(self, world, pref):
        agent = omniscient(world, pref)
        set_belief(agent, np.eye(N_STATES)[VisceralState(4, 4).flat])
        g = agent.efe_per_action()
        expect = np.exp(-(g - g.min()))
        expect /= expect.sum()
        assert np.allclose(agent.symbol_posterior(), expect, atol=1e-12)

    def test_cache_invalidated_by_belief_change(self, world, pref):
        agent = omniscient(world, pref)
        set_belief(agent, np.eye(N_STATES)[VisceralState(2, 2).flat])
        first = agent.symbol_posterior()
        set_belief(agent, np.eye(N_STATES)[VisceralState(5, 0).flat])
        second = agent.symbol_posterior()
        assert not np.allclose(first, second)

    def test_cache_invalidated_by_learning(self, world, pref):
        infant = fresh_infant(world, pref)
        first = infant.symbol_posterior()
        infant.learn_B(
            np.eye(N_STATES)[0],
            np.eye(N_STATES)[6],
            Action.EAT,
        )
        assert not np.array_equal(infant.symbol_posterior(), first)


class TestLearning:
    def test_first_sensory_update_counts(self, world, pref):
        parent = fresh_parent(world, pref)
        parent.learn_A(np.eye(N_STATES)[7], obs=7)
        assert parent.obs_concentration[7, 7] == 2.0
        assert parent.A[7, 7] == pytest.approx(2.0 / 37.0)
        assert parent.A[3, 7] == pytest.approx(1.0 / 37.0)
        assert parent.A[:, 7].sum() == pytest.approx(1.0)

    def test_uniform_posterior_keeps_columns_equal(self, world, pref):
        parent = fresh_parent(world, pref)
        parent.learn_A(np.full(N_STATES, 1.0 / N_STATES), obs=11)
        assert np.allclose(parent.A, parent.A[:, :1])

    def test_sensory_learning_never_touches_dynamics(self, world, pref):
        parent = fresh_parent(world, pref)
        for k in range(10):
            parent.learn_A(np.eye(N_STATES)[k], obs=k)
        assert parent.B is world.tensor
        assert np.array_equal(parent.B, world.tensor)

    def test_first_dynamics_update_counts(self, world, pref):
        infant = fresh_infant(world, pref)
        infant.learn_B(
            np.eye(N_STATES)[4],
            np.eye(N_STATES)[9],
            Action.WARM,
        )
        assert infant.trans_concentration[9, 4, Action.WARM] == 2.0
        assert infant.B[9, 4, Action.WARM] == pytest.approx(2.0 / 37.0)
        # Other actions stay flat.
        assert np.allclose(infant.B[:, :, Action.COOL], 1.0 / N_STATES)

    def test_dynamics_columns_stay_stochastic(self, world, pref):
        infant = fresh_infant(world, pref)
        rng = make_rng(8)
        for _ in range(50):
            prev = Categorical(rng.dirichlet(np.ones(N_STATES))).probs
            curr = Categorical(rng.dirichlet(np.ones(N_STATES))).probs
            infant.learn_B(prev, curr, int(rng.integers(5)))
        sums = infant.B.sum(axis=0)
        assert np.allclose(sums, 1.0, atol=1e-9)
        assert np.all(infant.B >= 0.0)

    def test_dynamics_learning_never_touches_sensing(self, world, pref):
        infant = fresh_infant(world, pref)
        uniform = np.full(N_STATES, 1.0 / N_STATES)
        infant.learn_B(uniform, uniform, 0)
        assert np.array_equal(infant.A, np.eye(N_STATES))

    def test_online_equals_batch_replay(self, world, pref):
        # The learned matrix is a pure function of the accumulated counts.
        rng = make_rng(21)
        events = [
            (Categorical(rng.dirichlet(np.ones(N_STATES))).probs, int(rng.integers(36)))
            for _ in range(40)
        ]
        online = fresh_parent(world, pref)
        for q, obs in events:
            online.learn_A(q, obs)
        alpha = np.ones((N_STATES, N_STATES))
        for q, obs in events:
            alpha[:, obs] += q
        batch = alpha / alpha.sum(axis=1, keepdims=True)
        assert np.allclose(online.A, batch.T, atol=1e-9)

    def test_wrong_role_raises(self, world, pref):
        with pytest.raises(ValueError):
            uniform = np.full(N_STATES, 1.0 / N_STATES)
            fresh_parent(world, pref).learn_B(uniform, uniform, 0)
        with pytest.raises(ValueError):
            fresh_infant(world, pref).learn_A(np.full(N_STATES, 1.0 / N_STATES), 0)


def general_efe(agent, belief=None):
    """The expected free energy by the general formula, for a known sensory
    map: tensordot prediction, column-entropy ambiguity, A @ prediction.
    From the agent's belief unless another is given."""
    q_pred = np.tensordot(agent.belief if belief is None else belief, agent.B, axes=(0, 1))
    a = agent.A
    ambiguity = -np.where(a > 0.0, a * np.log(np.where(a > 0.0, a, 1.0)), 0.0).sum(axis=0) @ q_pred
    q_obs = a @ q_pred
    logs = np.where(q_obs > 0.0, np.log(np.where(q_obs > 0.0, q_obs, 1.0)), 0.0)
    log_pref = np.log(np.maximum(agent.preferred_obs, KL_FLOOR))
    return ambiguity + (q_obs * (logs - log_pref[:, None])).sum(axis=0)


def random_belief(rng):
    return Categorical(rng.dirichlet(np.ones(N_STATES))).probs


def infant_rounds(infant, rng, steps=150):
    """A seeded run of rounds for an infant as a trial drives it: its
    uniform start belief first, then the one-hot beliefs its cues give,
    with a belief set through set_belief halfway. Yields each round's
    (prev, new, action) after assimilate and before learn_B."""
    for step in range(steps):
        if step == steps // 2:
            set_belief(infant, random_belief(rng))
        action, obs = int(rng.integers(5)), int(rng.integers(N_STATES))
        prev, new = infant.assimilate(action, obs)
        yield prev, new, action


class TestStructureShortcuts:
    """The infant senses its state through the exact identity map and
    takes exact shortcuts; each must give the general path's bits."""

    def learned_infant(self, world, pref, seed):
        infant = fresh_infant(world, pref)
        rng = make_rng(seed)
        for _ in range(30):
            infant.learn_B(random_belief(rng), random_belief(rng), int(rng.integers(5)))
        return infant, rng

    def test_identity_efe_equals_general_formula(self, world, pref):
        infant, rng = self.learned_infant(world, pref, 41)
        for _ in range(20):
            set_belief(infant, random_belief(rng))
            assert np.array_equal(infant.efe_per_action(), general_efe(infant))
            # After an observation the belief is one-hot and EFE reads one
            # row of the cached dynamics layout.
            infant.assimilate(int(rng.integers(5)), int(rng.integers(N_STATES)))
            assert np.array_equal(infant.efe_per_action(), general_efe(infant))
            prev = infant.belief
            infant.learn_B(prev, random_belief(rng), int(rng.integers(5)))
            assert np.array_equal(infant.efe_per_action(), general_efe(infant))

    def test_infant_belief_is_one_hot_after_every_assimilate(self, world, pref):
        infant, rng = self.learned_infant(world, pref, 47)
        for _ in range(200):
            if rng.random() < 0.3:
                set_belief(infant, random_belief(rng))
            action, obs = int(rng.integers(5)), int(rng.integers(N_STATES))
            expect = update_belief(predict_belief(infant.belief, infant.B, action), infant.A, obs)
            _, new = infant.assimilate(action, obs)
            assert np.array_equal(new, np.eye(N_STATES)[obs])
            assert np.array_equal(new, expect)

    def test_zero_likelihood_fallback_is_one_hot(self, world, pref):
        # Under the exact dynamics, Sleep from the comfort peak cannot land
        # on the far corner, so update_belief falls back to the likelihood.
        agent = omniscient(world, pref)
        start, far = VisceralState(2, 2).flat, VisceralState(5, 5).flat
        set_belief(agent, np.eye(N_STATES)[start])
        pred = predict_belief(agent.belief, agent.B, Action.SLEEP)
        assert pred[far] == 0.0
        _, new = agent.assimilate(Action.SLEEP, far)
        assert np.array_equal(new, update_belief(pred, agent.A, far))
        assert np.array_equal(new, np.eye(N_STATES)[far])

    def test_risk_table_equals_general_formula(self, world, pref):
        # Every row of the table, after every round's learning: the first
        # from the uniform start belief and one from a belief set halfway
        # learn all 36 source columns, the others one column.
        infant = init_agent(AgentKind.INFANT, world, pref)
        states = np.eye(N_STATES)
        for prev, new, action in infant_rounds(infant, make_rng(59)):
            infant.learn_B(prev, new, action)
            assert np.array_equal(infant.efe_per_action(), general_efe(infant))
            table = np.array([general_efe(infant, states[s]) for s in range(N_STATES)])
            assert np.array_equal(infant._risk, table)

    def test_one_column_learning_equals_outer_product(self, world, pref):
        infant = init_agent(AgentKind.INFANT, world, pref)
        twin = init_agent(AgentKind.INFANT, world, pref)
        one_column = 0
        for prev, new, action in infant_rounds(infant, make_rng(61)):
            one_column += np.count_nonzero(prev) == 1
            infant.learn_B(prev, new, action)
            outer_product_learn_B(twin, prev, new, action)
            assert np.array_equal(infant.trans_concentration, twin.trans_concentration)
            assert np.array_equal(infant.B, twin.B)
            assert np.array_equal(infant._B_rows, twin._B_rows)
        # Every round but the first and the one after set_belief.
        assert one_column == 148

    def test_setter_returns_to_the_general_path(self, world, pref):
        infant, rng = self.learned_infant(world, pref, 53)
        infant.assimilate(Action.EAT, 7)
        one_hot_efe = infant.efe_per_action()
        set_belief(infant, random_belief(rng))
        assert np.array_equal(infant.efe_per_action(), general_efe(infant))
        assert not np.array_equal(infant.efe_per_action(), one_hot_efe)
