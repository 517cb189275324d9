import numpy as np
import pytest

import oracles
from dyadreg.agents import Agent, AgentKind, Infant, init_agent
from dyadreg.dialogue import Condition, condition_codes, mh_accept, run_iteration, run_round
from dyadreg.environment import (
    build_prior_preference,
    build_transition_model,
    to_flat,
)
from dyadreg.probability import Categorical, make_rng, sample

START = to_flat(2, 2)


@pytest.fixture(scope="module")
def world():
    return build_transition_model()


@pytest.fixture(scope="module")
def pref():
    return build_prior_preference()


def make_dyad(world, pref, trials=1):
    return (
        init_agent(AgentKind.PARENT, world, pref, trials=trials),
        init_agent(AgentKind.INFANT, world, pref, trials=trials),
    )


def at(*values):
    """One value per trial of a batch."""
    return np.array(values)


def ignore(*seen):
    """An on_round hook that keeps nothing."""


def under(condition, trials=1):
    """The condition codes of a batch whose trials all run under `condition`."""
    return condition_codes([condition] * trials)


class Draws:
    """A batch's uniforms, one per trial at a time, as the harness hands
    them out; counts how many were taken."""

    def __init__(self, seed, trials=1, rounds=64):
        self._rows = iter(make_rng(seed).random((4 * rounds, trials)))
        self.taken = 0

    def __iter__(self):
        return self

    def __next__(self):
        self.taken += 1
        return next(self._rows)


class Stream:
    """One trial's uniforms, drawn one at a time as from a generator."""

    def __init__(self, u):
        self._u = iter(u.tolist())

    def random(self):
        return next(self._u)


class FakeAgent:
    """Stand-in with a pinned symbol posterior in every trial of a batch."""

    def __init__(self, kind, probs, trials=1):
        self.kind = kind
        self._posterior = np.tile(Categorical(probs).probs, (trials, 1))

    def symbol_posterior(self):
        return self._posterior


class TestMhAccept:
    def test_better_symbol_always_accepted(self):
        post = np.tile(Categorical([0.1, 0.6, 0.3]).probs, (50, 1))
        accepted, prob = mh_accept(np.full(50, 1), np.full(50, 0), post, make_rng(0).random(50))
        assert accepted.all() and (prob == 1.0).all()

    def test_acceptance_rate_matches_ratio(self):
        post = np.tile(Categorical([0.6, 0.3, 0.1]).probs, (20000, 1))
        hits, _ = mh_accept(np.full(20000, 1), np.full(20000, 0), post, make_rng(1).random(20000))
        assert np.mean(hits) == pytest.approx(0.5, abs=0.01)
        assert mh_accept(at(1), at(0), post[:1], make_rng(2).random(1))[1][0] == pytest.approx(0.5)

    def test_zero_current_support_accepts(self):
        post = Categorical([0.5, 0.5, 0.0]).probs[None]
        accepted, prob = mh_accept(at(0), at(2), post, make_rng(3).random(1))
        assert accepted[0] and prob[0] == 1.0

    def test_consumes_one_uniform(self):
        # Each trial decides by its own one uniform: accepted below the
        # acceptance probability, refused from it on.
        post = np.tile(Categorical([0.9, 0.1]).probs, (4, 1))
        ratio = post[0, 1] / post[0, 0]
        u = np.array([0.0, np.nextafter(ratio, 0.0), ratio, 0.99])
        accepted, prob = mh_accept(np.full(4, 1), np.full(4, 0), post, u)
        assert (prob == ratio).all()
        assert accepted.tolist() == [True, True, False, False]


class TestPropose:
    def test_samples_from_posterior(self):
        agent = FakeAgent(AgentKind.PARENT, [0.1, 0.6, 0.3, 0.0, 0.0], trials=20000)
        draws = sample(agent.symbol_posterior(), make_rng(5).random(20000))
        freqs = np.bincount(draws, minlength=5) / draws.size
        assert np.allclose(freqs, agent.symbol_posterior()[0], atol=0.02)


class TestRunRound:
    def test_shared_follows_acceptance(self):
        speaker = FakeAgent(AgentKind.INFANT, [0.2, 0.2, 0.2, 0.2, 0.2], 500)
        listener = FakeAgent(AgentKind.PARENT, [0.7, 0.1, 0.1, 0.05, 0.05], 500)
        out = run_round(speaker, listener, under(Condition.MHNG, 500), Draws(6, 500))
        shared = np.where(out.accepted, out.proposed_w, out.listener_own_w)
        assert np.array_equal(out.shared_w, shared)
        assert ((0.0 <= out.acceptance_prob) & (out.acceptance_prob <= 1.0)).all()

    def test_parent_led_listener_parent_never_yields(self):
        infant = FakeAgent(AgentKind.INFANT, [0.2] * 5, 500)
        parent = FakeAgent(AgentKind.PARENT, [0.05, 0.05, 0.8, 0.05, 0.05], 500)
        out = run_round(infant, parent, under(Condition.A_LED, 500), Draws(7, 500))
        assert np.array_equal(out.shared_w, out.listener_own_w)
        assert np.array_equal(out.accepted, out.proposed_w == out.listener_own_w)

    def test_parent_led_listener_infant_always_accepts(self):
        parent = FakeAgent(AgentKind.PARENT, [0.05, 0.05, 0.8, 0.05, 0.05], 500)
        infant = FakeAgent(AgentKind.INFANT, [0.2] * 5, 500)
        out = run_round(parent, infant, under(Condition.A_LED, 500), Draws(8, 500))
        assert out.accepted.all() and (out.acceptance_prob == 1.0).all()
        assert np.array_equal(out.shared_w, out.proposed_w)

    def test_infant_led_mirrors(self):
        parent = FakeAgent(AgentKind.PARENT, [0.2] * 5, 500)
        infant = FakeAgent(AgentKind.INFANT, [0.8, 0.05, 0.05, 0.05, 0.05], 500)
        draws = Draws(9, 500)
        out = run_round(parent, infant, under(Condition.B_LED, 500), draws)
        assert np.array_equal(out.shared_w, out.listener_own_w)
        out = run_round(infant, parent, under(Condition.B_LED, 500), draws)
        assert np.array_equal(out.shared_w, out.proposed_w)

    def test_current_w_replaces_fresh_draw(self):
        speaker = FakeAgent(AgentKind.INFANT, [0.2] * 5)
        listener = FakeAgent(AgentKind.PARENT, [0.2] * 5)
        out = run_round(speaker, listener, under(Condition.MHNG), Draws(10), current_w=at(3))
        assert out.listener_own_w.tolist() == [3]

    def test_a_condition_in_place_of_codes_is_refused(self):
        # The rules are tables indexed by each trial's code, so a Condition
        # cannot pass for one and decide every trial by the wrong rule.
        speaker = FakeAgent(AgentKind.INFANT, [0.2] * 5)
        listener = FakeAgent(AgentKind.PARENT, [0.2] * 5)
        with pytest.raises(IndexError):
            run_round(speaker, listener, Condition.MHNG, Draws(11))

    def test_draw_counts_per_condition(self):
        # Fresh: speaker draw, listener draw, acceptance draw, under every
        # condition. A one-sided rule decides deterministically, so its
        # trial's acceptance uniform decides nothing.
        speaker = FakeAgent(AgentKind.INFANT, [0.2] * 5)
        listener = FakeAgent(AgentKind.PARENT, [0.2] * 5)
        for condition, n in ((Condition.MHNG, 3), (Condition.A_LED, 3), (Condition.B_LED, 3)):
            draws = Draws(11)
            run_round(speaker, listener, under(condition), draws)
            assert draws.taken == n, condition

    @pytest.mark.parametrize("condition", [*Condition, "mixed"])
    @pytest.mark.parametrize("persistent", [False, True])
    def test_every_trial_equals_the_one_trial_round(self, condition, persistent):
        # Trials with their own posteriors and uniforms, against the
        # one-trial oracle fed each trial's uniforms in the order drawn. A
        # one-sided trial's acceptance uniform comes last and is left unread.
        rng = make_rng(12)
        trials = 300
        if condition == "mixed":
            conditions = [list(Condition)[k] for k in rng.integers(3, size=trials)]
        else:
            conditions = [condition] * trials
        speaker, listener = (FakeAgent(kind, [0.2] * 5, trials) for kind in AgentKind)
        for agent in (speaker, listener):
            agent._posterior = rng.dirichlet(np.full(5, 0.5), size=trials)
            agent._posterior[rng.random(trials) < 0.1, 2] = 0.0
        current = rng.integers(5, size=trials) if persistent else None
        u = rng.random((3, trials))
        out = run_round(speaker, listener, condition_codes(conditions), iter(u), current)
        for t in range(trials):
            one = (FakeAgent(agent.kind, [0.2] * 5) for agent in (speaker, listener))
            one_speaker, one_listener = one
            one_speaker._posterior = speaker._posterior[t]
            one_listener._posterior = listener._posterior[t]
            own = None if current is None else current[t]
            stream = Stream(u[:, t])
            expect = oracles.run_round(one_speaker, one_listener, conditions[t], stream, own)
            assert tuple(field[t] for field in out) == expect


class TestPersistentChain:
    def test_chain_converges_to_product_of_posteriors(self):
        # With the agreed symbol carried across rounds this is a textbook
        # Metropolis sampler whose stationary law is the normalized
        # product of the two posteriors. A batch runs 100 chains.
        ps = [0.1, 0.2, 0.3, 0.2, 0.2]
        pl = [0.3, 0.3, 0.2, 0.1, 0.1]
        chains = 100
        speaker = FakeAgent(AgentKind.INFANT, ps, chains)
        listener = FakeAgent(AgentKind.PARENT, pl, chains)
        draws, mhng = Draws(12, chains, rounds=1000), under(Condition.MHNG, chains)
        current = np.zeros(chains, int)
        counts = np.zeros(5)
        burn = 500
        n = 500
        for i in range(burn + n):
            out = run_round(speaker, listener, mhng, draws, current_w=current)
            current = out.shared_w
            if i >= burn:
                counts += np.bincount(current, minlength=5)
        target = np.array(ps) * np.array(pl)
        target /= target.sum()
        assert np.allclose(counts / counts.sum(), target, atol=0.02)


def run_recorded(parent, infant, world, seed, trials=1, **kwargs):
    """run_iteration from START, with what on_round saw: per round the
    speaker, the outcome, the landing states and the rare flags."""
    seen = []
    result = run_iteration(
        parent,
        infant,
        world,
        np.full(trials, START),
        under(Condition.MHNG, trials),
        Draws(seed, trials),
        on_round=lambda *args: seen.append(args),
        **kwargs,
    )
    return result, seen


class TestRunIteration:
    def test_two_rounds_swap_speakers(self, world, pref):
        parent, infant = make_dyad(world, pref)
        _, seen = run_recorded(parent, infant, world, 13)
        assert [r[0] for r in seen] == [infant, parent]

    def test_parent_first_order(self, world, pref):
        parent, infant = make_dyad(world, pref)
        _, seen = run_recorded(parent, infant, world, 14, round_order="parent-first")
        assert [r[0] for r in seen] == [parent, infant]

    def test_state_tracks_last_step(self, world, pref):
        parent, infant = make_dyad(world, pref, trials=3)
        (z, shared_w), seen = run_recorded(parent, infant, world, 16, trials=3)
        assert np.array_equal(z, seen[-1][2])
        assert np.array_equal(shared_w, seen[-1][1].shared_w)

    def test_both_agents_learn_each_round(self, world, pref):
        parent, infant = make_dyad(world, pref, trials=3)
        alpha_before = parent.obs_concentration.sum(axis=(1, 2))
        beta_before = infant.trans_concentration.sum(axis=(1, 2, 3))
        run_iteration(
            parent, infant, world, np.full(3, START), under(Condition.MHNG, 3), Draws(17, 3),
            on_round=ignore,
        )
        assert parent.obs_concentration.sum(axis=(1, 2)) == pytest.approx(alpha_before + 2.0)
        assert infant.trans_concentration.sum(axis=(1, 2, 3)) == pytest.approx(beta_before + 2.0)

    def test_infant_belief_pins_to_truth(self, world, pref):
        # Identity sensing makes the infant's sensed state the landing
        # state after every round.
        parent, infant = make_dyad(world, pref, trials=3)
        (z, _), _ = run_recorded(parent, infant, world, 18, trials=3)
        assert np.array_equal(infant.state, z)

    def test_on_round_callback_sees_both_rounds(self, world, pref):
        parent, infant = make_dyad(world, pref, trials=3)
        _, seen = run_recorded(parent, infant, world, 19, trials=3)
        assert len(seen) == 2
        for speaker, outcome, z, rare in seen:
            assert isinstance(speaker, (Agent, Infant))
            assert ((0 <= outcome.shared_w) & (outcome.shared_w < 5)).all()
            assert ((0 <= z) & (z < 36)).all() and z.shape == (3,)
            assert rare.dtype == bool and rare.shape == (3,)

    def test_persist_w_threads_the_symbol(self, world, pref):
        parent, infant = make_dyad(world, pref)
        _, seen = run_recorded(parent, infant, world, 20, current_w=at(4), persist_w=True)
        first, second = seen[0][1], seen[1][1]
        assert first.listener_own_w.tolist() == [4]
        assert np.array_equal(second.listener_own_w, first.shared_w)

    def test_draw_counts_fresh_vs_persistent(self, world, pref):
        # Fresh: (3 dialogue + 1 world) x 2. Persistent skips the
        # listener's own draw: (2 + 1) x 2.
        for persist, n in ((False, 8), (True, 6)):
            parent, infant = make_dyad(world, pref)
            draws = Draws(21)
            run_iteration(
                parent,
                infant,
                world,
                at(START),
                under(Condition.MHNG),
                draws,
                current_w=at(0) if persist else None,
                persist_w=persist,
                on_round=ignore,
            )
            assert draws.taken == n, persist

    @pytest.mark.parametrize(
        "condition, persist, per_round",
        [
            (Condition.MHNG, False, 2),
            (Condition.MHNG, True, 2),
            (Condition.A_LED, False, 2),
            (Condition.A_LED, True, 1),
            (Condition.B_LED, True, 1),
        ],
    )
    def test_efe_evaluations_per_round(
        self, world, pref, monkeypatch, condition, persist, per_round
    ):
        # One symbol posterior per agent a round: the speaker's, and the
        # listener's, which an MHNG trial's MH test or a fresh stance reads.
        # A batch of one-sided trials with a persisting stance reads only the
        # speaker's. Each evaluation serves every trial of the batch.
        calls = []
        for cls in (Agent, Infant):
            def counted(agent, efe=cls.efe_per_action):
                calls.append(agent.kind)
                return efe(agent)

            monkeypatch.setattr(cls, "efe_per_action", counted)
        parent, infant = make_dyad(world, pref, trials=3)
        draws, z, current_w = Draws(22, 3), np.full(3, START), np.zeros(3, int)
        for _ in range(5):
            z, current_w = run_iteration(
                parent,
                infant,
                world,
                z,
                under(condition, 3),
                draws,
                current_w=current_w if persist else None,
                persist_w=persist,
                on_round=ignore,
            )
        assert len(calls) == 10 * per_round
