import math

import numpy as np
import pytest

from dyadreg import dialogue
from dyadreg.agents import (
    Agent,
    AgentKind,
    init_agent,
    predict_belief,
    prediction_sources,
    update_belief,
)
from dyadreg.environment import (
    Action,
    N_STATES,
    build_prior_preference,
    build_transition_model,
    preferred_obs_distribution,
    to_flat,
)
from dyadreg.config import ExperimentConfig
from dyadreg.dialogue import CONDITION_NAMES
from dyadreg.harness import run_trial
from dyadreg.probability import KL_FLOOR, Categorical, digamma, make_rng, sample
import oracles
from oracles import (
    dirichlet_expected_entropy,
    identity_sensory_map,
    kl_divergence,
    infant_start,
    learned_dynamics,
    omniscient_infant,
    outer_product_learn_B,
    set_belief,
)


@pytest.fixture(scope="module")
def world():
    return build_transition_model()


@pytest.fixture(scope="module")
def pref():
    return build_prior_preference()


@pytest.fixture(scope="module")
def comfort(pref):
    return preferred_obs_distribution(pref)


# A unit prior per cell keeps the count oracles below readable; the
# experiment's default prior is a config knob (dirichlet_prior). Each agent
# is a batch of one trial unless a test says otherwise.
def fresh_parent(world, pref):
    return init_agent(AgentKind.PARENT, world, pref, prior_concentration=1.0)


def fresh_infant(world, pref):
    return init_agent(AgentKind.INFANT, world, pref, prior_concentration=1.0)


def at(*values):
    """One value per trial of a batch."""
    return np.array(values)


class TestInit:
    def test_parent_starts_flat_sensory(self, world, pref):
        p = fresh_parent(world, pref)
        assert np.allclose(p.A, 1.0 / N_STATES)
        assert np.allclose(p.belief, 1.0 / N_STATES)

    def test_infant_starts_flat_dynamics(self, world, pref):
        i = fresh_infant(world, pref)
        # It senses its state, and has sensed none yet.
        assert i.state is None
        assert np.allclose(learned_dynamics(i), 1.0 / N_STATES)

    def test_rejects_bad_prior(self, world, pref):
        for kind in AgentKind:
            for prior in (0.0, -1.0, math.nan, math.inf):
                with pytest.raises(ValueError, match="prior concentration"):
                    init_agent(kind, world, pref, prior_concentration=prior)

    def test_infant_without_counts_keeps_its_dynamics(self, world, comfort):
        agent = omniscient_infant(world, comfort)
        # Its free energy from every state is the exact dynamics' own.
        states = np.eye(N_STATES)
        for s in range(N_STATES):
            agent.state = at(s)
            expect = general_efe(identity_sensory_map(), world.tensor, comfort, states[s])
            assert np.array_equal(agent.efe_per_action()[0], expect)

    @pytest.mark.parametrize("mode", ["linear", "softmax"])
    def test_infant_start_equals_the_flat_mean_construction(self, world, pref, mode):
        # The risk table and start free energy, built from the counts' mean,
        # equal the former construction from beta / beta.sum(axis=0), bit
        # for bit.
        comfort = preferred_obs_distribution(pref, mode)
        for prior in (1 / 36, 1.0, 1e-3, 0.37, 7.5, 1e-300, 3e-7, 123.456):
            infant = init_agent(AgentKind.INFANT, world, pref, prior, mode, trials=3)
            risk, start = infant_start(prior, comfort, trials=3)
            assert infant._risk.tobytes() == risk.tobytes(), prior
            assert infant._start_efe.tobytes() == start.tobytes(), prior
            assert np.array_equal(infant.efe_per_action(), start)

    @pytest.mark.parametrize("prior", [1 / 36, 1.0, 1])
    @pytest.mark.parametrize("kind", AgentKind)
    def test_a_batch_starts_as_its_trials_would_alone(self, world, pref, kind, prior):
        # Every trial of a batch starts from one trial's start, copied: each
        # array the constructor fills per trial is the stack of one-trial
        # agents' arrays, bit for bit, an integer prior included.
        filled = {
            AgentKind.PARENT: [
                "belief", "obs_concentration", "_psi_terms", "A", "_sensory_entropy", "map_kls"
            ],
            AgentKind.INFANT: ["trans_concentration", "_risk", "_start_efe", "sleep_kls"],
        }[kind]
        trials = 5
        batch = init_agent(kind, world, pref, prior, trials=trials)
        alone = [init_agent(kind, world, pref, prior) for _ in range(trials)]
        per_trial = {
            name for name, value in vars(batch).items()
            if isinstance(value, np.ndarray) and value.shape[:1] == (trials,)
        }
        assert per_trial - {"_trials"} == set(filled)
        for name in filled:
            stacked = np.concatenate([getattr(one, name) for one in alone])
            assert getattr(batch, name).shape == stacked.shape, name
            assert getattr(batch, name).tobytes() == stacked.tobytes(), name


class TestFiltering:
    def test_predict_splits_on_branch(self, world):
        q = np.eye(N_STATES)[[to_flat(3, 3)]]
        (out,) = predict_belief(q, prediction_sources(world.tensor), at(Action.SLEEP))
        assert out[to_flat(3, 3)] == pytest.approx(0.8)
        assert out[to_flat(3, 4)] == pytest.approx(0.2)

    def test_predict_keeps_normalization(self, world):
        rng = make_rng(0)
        sources = prediction_sources(world.tensor)
        beliefs = np.array([Categorical(rng.dirichlet(np.ones(N_STATES))).probs for _ in range(20)])
        for a in range(5):
            out = predict_belief(beliefs, sources, np.full(20, a))
            assert np.allclose(out.sum(axis=1), 1.0, atol=1e-9, rtol=0.0)

    def test_update_with_identity_pins_to_obs(self):
        pred = Categorical([0.25, 0.25, 0.5]).probs
        post = update_belief(pred[None], np.eye(3)[None], at(2))
        assert np.array_equal(post, [[0.0, 0.0, 1.0]])

    def test_update_falls_back_on_dead_product(self):
        pred = np.eye(3)[[0]]
        post = update_belief(pred, np.eye(3)[None], at(2))
        assert np.array_equal(post, [[0.0, 0.0, 1.0]])

    def test_update_rejects_zero_likelihood_row(self):
        sensory = np.zeros((1, 3, 3))
        sensory[0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            update_belief(np.full((1, 3), 1.0 / 3), sensory, at(2))

    def test_update_weighs_soft_likelihoods(self):
        sensory = np.array([[[0.9, 0.1], [0.1, 0.9]]])
        post = update_belief(Categorical([0.5, 0.5]).probs[None], sensory, at(0))
        assert post[0, 0] == pytest.approx(0.9)

    def test_assimilate_returns_prev_and_new(self, world, pref):
        i = fresh_infant(world, pref)
        i.state = at(14)
        prev, new = i.assimilate(at(Action.SLEEP), at(20))
        assert prev.tolist() == [14]
        assert new.tolist() == [20]
        assert i.state is new


class TestExpectedFreeEnergy:
    def test_matches_explicit_sums(self, world, pref):
        # Independent route: loop the decomposition term by term with the
        # scalar primitives. A learned sensory column's ambiguity is its
        # expected entropy under the parent's Dirichlet over it.
        parent = fresh_parent(world, pref)
        rng = make_rng(33)
        for _ in range(5):
            parent.learn_A(
                Categorical(rng.dirichlet(np.ones(N_STATES))).probs[None], at(rng.integers(36))
            )
        set_belief(parent, Categorical(rng.dirichlet(np.ones(N_STATES))).probs)
        vec = parent.efe_per_action()[0]
        for a in range(5):
            q_pred = oracles.predict_belief(parent.belief[0], world.tensor, a)
            ambiguity = sum(
                q_pred[z] * dirichlet_expected_entropy(parent.obs_concentration[0, z])
                for z in range(N_STATES)
            )
            q_obs = parent.A[0] @ q_pred
            risk = kl_divergence(q_obs, preferred_obs_distribution(pref))
            assert vec[a] == pytest.approx(ambiguity + risk, abs=1e-9)
            assert parent.efe_per_action()[0, a] == pytest.approx(vec[a], abs=1e-12)

    def test_identity_sensing_has_zero_ambiguity(self, world, comfort):
        agent = omniscient_infant(world, comfort)
        start = to_flat(2, 2)
        agent.state = at(start)
        for a in range(5):
            q_pred = oracles.predict_belief(np.eye(N_STATES)[start], world.tensor, a)
            risk = kl_divergence(identity_sensory_map() @ q_pred, comfort)
            assert agent.efe_per_action()[0, a] == pytest.approx(risk, abs=1e-12)

    def test_sleep_preferred_at_comfort_peak(self, world, comfort):
        agent = omniscient_infant(world, comfort)
        agent.state = at(to_flat(2, 2))
        vec = agent.efe_per_action()[0]
        assert int(vec.argmin()) == Action.SLEEP
        assert agent.symbol_posterior()[0].argmax() == Action.SLEEP

    def test_flat_parent_scores_all_actions_equally(self, world, pref):
        # A uniform sensory map erases any information the prediction
        # carries, so every action looks alike at first.
        parent = fresh_parent(world, pref)
        vec = parent.efe_per_action()[0]
        assert np.allclose(vec, vec[0], atol=1e-12)
        assert np.allclose(parent.symbol_posterior(), 0.2, atol=1e-12)


class TestSymbolPosterior:
    def test_softmax_of_negative_scores(self, world, comfort):
        agent = omniscient_infant(world, comfort)
        agent.state = at(to_flat(4, 4))
        g = agent.efe_per_action()[0]
        expect = np.exp(-(g - g.min()))
        expect /= expect.sum()
        assert np.allclose(agent.symbol_posterior()[0], expect, atol=1e-12)

    def test_cache_invalidated_by_belief_change(self, world, comfort):
        agent = omniscient_infant(world, comfort)
        agent.state = at(to_flat(2, 2))
        first = agent.symbol_posterior()
        agent.state = at(to_flat(5, 0))
        second = agent.symbol_posterior()
        assert not np.allclose(first, second)

    def test_cache_invalidated_by_learning(self, world, pref):
        infant = fresh_infant(world, pref)
        infant.state = at(0)
        first = infant.symbol_posterior()
        infant.learn_B(at(0), at(6), at(Action.EAT))
        assert not np.array_equal(infant.symbol_posterior(), first)


class TestLearning:
    def test_first_sensory_update_counts(self, world, pref):
        parent = fresh_parent(world, pref)
        parent.learn_A(np.eye(N_STATES)[[7]], at(7))
        assert parent.obs_concentration[0, 7, 7] == 2.0
        assert parent.A[0, 7, 7] == pytest.approx(2.0 / 37.0)
        assert parent.A[0, 3, 7] == pytest.approx(1.0 / 37.0)
        assert parent.A[0, :, 7].sum() == pytest.approx(1.0)

    def test_counts_in_any_layout_learn_as_c_ordered_counts(self, world, pref):
        # Learning reads and writes the counts through flat (trial, state)
        # rows, so a parent built from a transposed prior keeps C-ordered
        # copies of it and learns as one built from C-ordered counts.
        rng = make_rng(5)
        counts = 1.0 + rng.random((N_STATES, N_STATES))
        comfort = preferred_obs_distribution(pref)
        c_order = Agent(world.tensor, comfort, counts.copy(), trials=3)
        f_order = Agent(world.tensor, comfort, np.asfortranarray(counts), trials=3)
        for _ in range(5):
            posterior, obs = rng.dirichlet(np.ones(N_STATES), size=3), rng.integers(N_STATES, size=3)
            c_order.learn_A(posterior, obs)
            f_order.learn_A(posterior, obs)
        assert f_order.obs_concentration.tobytes() == c_order.obs_concentration.tobytes()
        assert f_order.A.tobytes() == c_order.A.tobytes()
        assert f_order._sensory_entropy.tobytes() == c_order._sensory_entropy.tobytes()

    def test_uniform_posterior_keeps_columns_equal(self, world, pref):
        parent = fresh_parent(world, pref)
        parent.learn_A(np.full((1, N_STATES), 1.0 / N_STATES), at(11))
        assert np.allclose(parent.A[0], parent.A[0][:, :1])

    def test_sensory_learning_never_touches_dynamics(self, world, pref):
        parent = fresh_parent(world, pref)
        for k in range(10):
            parent.learn_A(np.eye(N_STATES)[[k]], at(k))
        # Its dynamics are the rows and sources it was built with.
        fresh = fresh_parent(world, pref)
        assert np.array_equal(parent._B_rows, fresh._B_rows)
        assert all(map(np.array_equal, parent._sources, fresh._sources))

    def test_first_dynamics_update_counts(self, world, pref):
        infant = fresh_infant(world, pref)
        infant.learn_B(at(4), at(9), at(Action.WARM))
        assert infant.trans_concentration[0, 4, Action.WARM, 9] == 2.0
        learned = learned_dynamics(infant)[0]
        assert learned[9, 4, Action.WARM] == pytest.approx(2.0 / 37.0)
        # Other actions stay flat.
        assert np.allclose(learned[:, :, Action.COOL], 1.0 / N_STATES)

    def test_dynamics_columns_stay_stochastic(self, world, pref):
        infant = fresh_infant(world, pref)
        rng = make_rng(8)
        prev = None
        for _ in range(50):
            obs = at(rng.integers(N_STATES))
            infant.learn_B(prev, obs, at(rng.integers(5)))
            prev = obs
        learned = learned_dynamics(infant)
        assert np.allclose(learned.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(learned >= 0.0)

    def test_dynamics_learning_never_touches_sensing(self, world, pref):
        # Learning the dynamics leaves the state the infant senses as it is.
        infant = fresh_infant(world, pref)
        infant.learn_B(None, at(5), at(0))
        assert infant.state is None
        infant.assimilate(at(0), at(5))
        sensed = infant.state
        infant.learn_B(at(5), at(7), at(0))
        assert infant.state is sensed and sensed.tolist() == [5]

    def test_online_equals_batch_replay(self, world, pref):
        # The learned matrix is a pure function of the accumulated counts.
        rng = make_rng(21)
        events = [
            (Categorical(rng.dirichlet(np.ones(N_STATES))).probs, int(rng.integers(36)))
            for _ in range(40)
        ]
        online = fresh_parent(world, pref)
        for q, obs in events:
            online.learn_A(q[None], at(obs))
        alpha = np.ones((N_STATES, N_STATES))
        for q, obs in events:
            alpha[:, obs] += q
        batch = alpha / alpha.sum(axis=1, keepdims=True)
        assert np.allclose(online.A[0], batch.T, atol=1e-9)


def general_efe(sensory, transitions, preferred_obs, belief):
    """The expected free energy by the general formula, for a known sensory
    map: tensordot prediction, column-entropy ambiguity, A @ prediction."""
    q_pred = np.tensordot(belief, transitions, axes=(0, 1))
    a = sensory
    ambiguity = -np.where(a > 0.0, a * np.log(np.where(a > 0.0, a, 1.0)), 0.0).sum(axis=0) @ q_pred
    q_obs = a @ q_pred
    logs = np.where(q_obs > 0.0, np.log(np.where(q_obs > 0.0, q_obs, 1.0)), 0.0)
    log_pref = np.log(np.maximum(preferred_obs, KL_FLOOR))
    return ambiguity + (q_obs * (logs - log_pref[:, None])).sum(axis=0)


def infant_efe(infant, comfort, belief):
    """general_efe of the infant's learned dynamics in its first trial."""
    return general_efe(identity_sensory_map(), learned_dynamics(infant)[0], comfort, belief)


def infant_rounds(infant, rng, steps=150):
    """A seeded run of rounds for an infant as a trial drives it: its
    uniform start belief first, then the states its cues give. Yields each
    round's (prev, new, action) after assimilate and before learn_B."""
    for _ in range(steps):
        action, obs = int(rng.integers(5)), int(rng.integers(N_STATES))
        prev, new = infant.assimilate(at(action), at(obs))
        yield prev, new, at(action)


class TestStructureShortcuts:
    """The infant senses its state through the exact identity map and
    takes exact shortcuts; each must give the general path's bits."""

    def learned_infant(self, world, pref, seed):
        infant = fresh_infant(world, pref)
        rng = make_rng(seed)
        for prev, new, action in infant_rounds(infant, rng, 30):
            infant.learn_B(prev, new, action)
        return infant, rng

    def test_identity_efe_equals_general_formula(self, world, pref, comfort):
        # From its uniform start belief, and from every state it senses
        # after that, before and after learning.
        infant = fresh_infant(world, pref)
        uniform = np.full(N_STATES, 1.0 / N_STATES)
        assert np.array_equal(infant.efe_per_action()[0], infant_efe(infant, comfort, uniform))
        rng = make_rng(41)
        states = np.eye(N_STATES)
        for prev, new, action in infant_rounds(infant, rng, 20):
            assert np.array_equal(infant.efe_per_action()[0], infant_efe(infant, comfort, states[new[0]]))
            infant.learn_B(prev, new, action)
            assert np.array_equal(infant.efe_per_action()[0], infant_efe(infant, comfort, states[new[0]]))

    def test_infant_belief_is_one_hot_after_every_assimilate(self, world, pref):
        # The state it adopts is what the general update gives under the
        # identity map: one-hot at the cue, bit for bit.
        infant, rng = self.learned_infant(world, pref, 47)
        dynamics = learned_dynamics(infant)[0]
        states = np.eye(N_STATES)
        for _ in range(200):
            action, obs = int(rng.integers(5)), int(rng.integers(N_STATES))
            prior = states[infant.state[0]]
            pred = oracles.predict_belief(prior, dynamics, action)
            expect = oracles.update_belief(pred, identity_sensory_map(), obs)
            _, new = infant.assimilate(at(action), at(obs))
            assert new.tolist() == [obs]
            assert np.array_equal(states[new[0]], expect)

    def test_zero_likelihood_fallback_is_one_hot(self, world, comfort):
        # Under the exact dynamics, Sleep from the comfort peak cannot land
        # on the far corner, so the update falls back to the likelihood.
        agent = omniscient_infant(world, comfort)
        start, far = to_flat(2, 2), to_flat(5, 5)
        agent.state = at(start)
        pred = oracles.predict_belief(np.eye(N_STATES)[start], world.tensor, Action.SLEEP)
        assert pred[far] == 0.0
        _, new = agent.assimilate(at(Action.SLEEP), at(far))
        expect = oracles.update_belief(pred, identity_sensory_map(), far)
        assert np.array_equal(np.eye(N_STATES)[new[0]], expect)
        assert np.array_equal(expect, np.eye(N_STATES)[far])

    def test_risk_table_equals_general_formula(self, world, pref, comfort):
        # Every row of the table, after every round's learning: the first,
        # from the uniform start belief, learns all 36 source columns, the
        # others one column.
        infant = init_agent(AgentKind.INFANT, world, pref)
        states = np.eye(N_STATES)
        for prev, new, action in infant_rounds(infant, make_rng(59)):
            infant.learn_B(prev, new, action)
            assert np.array_equal(infant.efe_per_action()[0], infant_efe(infant, comfort, states[new[0]]))
            table = np.array([infant_efe(infant, comfort, states[s]) for s in range(N_STATES)])
            assert np.array_equal(infant._risk[0], table)

    def test_one_column_learning_equals_outer_product(self, world, pref):
        infant = init_agent(AgentKind.INFANT, world, pref)
        twin = np.full((N_STATES, N_STATES, 5), infant.trans_concentration[0, 0, 0, 0])
        states = np.eye(N_STATES)
        one_column = 0
        for prev, new, action in infant_rounds(infant, make_rng(61)):
            prev_belief = np.full(N_STATES, 1.0 / N_STATES) if prev is None else states[prev[0]]
            one_column += np.count_nonzero(prev_belief) == 1
            infant.learn_B(prev, new, action)
            slice_a = outer_product_learn_B(twin, prev_belief, states[new[0]], action[0])
            assert np.array_equal(infant.trans_concentration[0].transpose(2, 0, 1), twin)
            assert np.array_equal(learned_dynamics(infant)[0][:, :, action[0]], slice_a)
        # Every round but the first.
        assert one_column == 149


class TestBitTraps:
    """Each batched form must give every trial the bits of its one-trial
    form, including where an equivalent batched form would not."""

    def test_prediction_equals_the_strided_matmul(self, world):
        # transitions[:, :, a] @ belief runs on a strided slice, which numpy
        # sums in order without BLAS; a BLAS product of the gathered slices
        # rounds differently, and this data shows it.
        rng = make_rng(83)
        sources = prediction_sources(world.tensor)
        by_action = world.tensor.transpose(2, 0, 1)
        mismatched = 0
        for trials in (1, 3, 10, 40):
            for _ in range(3000 // trials // 4 + 1):
                beliefs = rng.dirichlet(np.full(N_STATES, 0.3), size=trials)
                actions = rng.integers(5, size=trials)
                scalar = np.array(
                    [oracles.predict_belief(b.copy(), world.tensor, a) for b, a in zip(beliefs, actions)]
                )
                batched = predict_belief(beliefs, sources, actions)
                assert batched.tobytes() == scalar.tobytes()
                gathered = (by_action[actions] @ beliefs[:, :, None])[:, :, 0]
                gathered /= gathered.sum(axis=1, keepdims=True)
                mismatched += (gathered != scalar).any(axis=1).sum()
        assert mismatched > 0

    def test_learn_B_totals_and_risk_cells_equal_the_cumsum_forms(self, world, pref):
        # A batch of infants with different counts each learn one column;
        # each column total is summed in order, as counts.cumsum()[-1] sums
        # it, and so is each risk cell.
        rng = make_rng(89)
        trials = 40
        infant = init_agent(AgentKind.INFANT, world, pref, trials=trials)
        infant.trans_concentration += rng.random(infant.trans_concentration.shape) * 3.0
        log_pref = np.log(np.maximum(preferred_obs_distribution(pref), KL_FLOOR))
        for _ in range(25):
            prev, obs = rng.integers(N_STATES, size=(2, trials))
            action = rng.integers(5, size=trials)
            infant.learn_B(prev, obs, action)
            for t in range(trials):
                counts = infant.trans_concentration[t, prev[t], action[t]].copy()
                column = counts / counts.cumsum()[-1]
                logs = np.log(column, out=np.zeros(N_STATES), where=column > 0.0)
                risk = (column * (logs - log_pref)).cumsum()[-1]
                assert infant._risk[t, prev[t], action[t]] == risk

    def test_outer_product_oracle_gives_the_same_bits_in_either_layout(self):
        # sum(axis=0) is pairwise along a contiguous axis and in order along
        # an outer one, so the oracle copies its slice to C order first: an
        # F-ordered copy of the counts gives the C-ordered array's bits.
        rng = make_rng(2)
        counts = rng.random((N_STATES, N_STATES, 5)) * 3.0
        prev, post = rng.dirichlet(np.ones(N_STATES), size=2)
        for action in range(5):
            c_slice = outer_product_learn_B(counts.copy(), prev, post, action)
            f_slice = outer_product_learn_B(np.asfortranarray(counts), prev, post, action)
            assert f_slice.tobytes() == c_slice.tobytes()

    @staticmethod
    def mixed_batch(**changes):
        """A 30-trial batch of the three conditions, ten trials each."""
        config = ExperimentConfig(conditions=CONDITION_NAMES, iterations=40, seed=3, **changes)
        return run_trial(config, [c for c in CONDITION_NAMES for _ in range(10)], [*range(10)] * 3)

    @pytest.mark.parametrize("mh_current_w", ["fresh", "persistent"])
    def test_observation_major_risk_equals_the_trial_major_sum(self, monkeypatch, mh_current_w):
        # Summing the risk over the outer axis of (obs, trial, action) adds
        # each cell's 36 terms in the order the middle axis of (trial, obs,
        # action) adds them, so every evaluation of a run keeps its bits.
        efe, evaluations = Agent.efe_per_action, []

        def checked(agent):
            got = efe(agent)
            evaluations.append(got.tobytes() == oracles.trial_major_efe(agent).tobytes())
            return got

        monkeypatch.setattr(Agent, "efe_per_action", checked)
        self.mixed_batch(mh_current_w=mh_current_w)
        assert len(evaluations) == 80 and all(evaluations)

    def test_stacked_sample_equals_a_call_per_agent(self, monkeypatch):
        # A fresh round draws the speaker's and the listener's symbols in one
        # call over both posteriors; each half must get the bits a call of
        # its own gives.
        stacked = []

        def checked(p, u):
            got = sample(p, u)
            if len(p) == 60:
                halves = np.concatenate((sample(p[:30], u[:30]), sample(p[30:], u[30:])))
                stacked.append(got.tobytes() == halves.tobytes())
            return got

        monkeypatch.setattr(dialogue, "sample", checked)
        self.mixed_batch()
        assert len(stacked) == 80 and all(stacked)

    def test_digamma_on_a_batch_equals_it_row_by_row(self):
        rng = make_rng(97)
        x = np.concatenate(
            [rng.random((30, 72)) * 50.0 + 1.0, 1.0 + 10.0 ** rng.uniform(-12, 6, (30, 72))]
        )
        rows = np.array([digamma(row) for row in x])
        assert digamma(x).tobytes() == rows.tobytes()
        assert digamma(x).tobytes() == oracles.digamma_by_reduce(x).tobytes()
        assert digamma(x[0, 0]) == rows[0, 0]
