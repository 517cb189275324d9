import numpy as np
import pytest

from dyadreg.agents import Agent, AgentKind, init_agent
from dyadreg.dialogue import Condition, mh_accept, run_iteration, run_round
from dyadreg.environment import (
    VisceralState,
    build_prior_preference,
    build_transition_model,
)
from dyadreg.probability import Categorical, make_rng, sample

START = VisceralState(2, 2).flat


@pytest.fixture(scope="module")
def world():
    return build_transition_model()


@pytest.fixture(scope="module")
def pref():
    return build_prior_preference()


def make_dyad(world, pref):
    return (
        init_agent(AgentKind.PARENT, world, pref),
        init_agent(AgentKind.INFANT, world, pref),
    )


class FakeAgent:
    """Stand-in with a pinned symbol posterior."""

    def __init__(self, kind, probs):
        self.kind = kind
        self._posterior = Categorical(probs).probs

    def symbol_posterior(self):
        return self._posterior


class TestMhAccept:
    def test_better_symbol_always_accepted(self):
        post = Categorical([0.1, 0.6, 0.3]).probs
        rng = make_rng(0)
        for _ in range(50):
            accepted, prob = mh_accept(1, 0, post, rng)
            assert accepted and prob == 1.0

    def test_acceptance_rate_matches_ratio(self):
        post = Categorical([0.6, 0.3, 0.1]).probs
        rng = make_rng(1)
        hits = [mh_accept(1, 0, post, rng)[0] for _ in range(20000)]
        assert np.mean(hits) == pytest.approx(0.5, abs=0.01)
        assert mh_accept(1, 0, post, make_rng(2))[1] == pytest.approx(0.5)

    def test_zero_current_support_accepts(self):
        post = Categorical([0.5, 0.5, 0.0]).probs
        accepted, prob = mh_accept(0, 2, post, make_rng(3))
        assert accepted and prob == 1.0

    def test_consumes_one_uniform(self):
        post = Categorical([0.9, 0.1]).probs
        a, b = make_rng(4), make_rng(4)
        mh_accept(0, 1, post, a)
        b.random()
        assert a.random() == b.random()


class TestPropose:
    def test_samples_from_posterior(self):
        agent = FakeAgent(AgentKind.PARENT, [0.1, 0.6, 0.3, 0.0, 0.0])
        rng = make_rng(5)
        draws = np.array([sample(agent.symbol_posterior(), rng) for _ in range(20000)])
        freqs = np.bincount(draws, minlength=5) / draws.size
        assert np.allclose(freqs, agent.symbol_posterior(), atol=0.02)


class TestRunRound:
    def test_shared_follows_acceptance(self):
        speaker = FakeAgent(AgentKind.INFANT, [0.2, 0.2, 0.2, 0.2, 0.2])
        listener = FakeAgent(AgentKind.PARENT, [0.7, 0.1, 0.1, 0.05, 0.05])
        rng = make_rng(6)
        for _ in range(500):
            out = run_round(speaker, listener, Condition.MHNG, rng)
            assert out.shared_w == (out.proposed_w if out.accepted else out.listener_own_w)
            assert 0.0 <= out.acceptance_prob <= 1.0

    def test_parent_led_listener_parent_never_yields(self):
        infant = FakeAgent(AgentKind.INFANT, [0.2] * 5)
        parent = FakeAgent(AgentKind.PARENT, [0.05, 0.05, 0.8, 0.05, 0.05])
        rng = make_rng(7)
        for _ in range(500):
            out = run_round(infant, parent, Condition.A_LED, rng)
            assert out.shared_w == out.listener_own_w
            assert out.accepted == (out.proposed_w == out.listener_own_w)

    def test_parent_led_listener_infant_always_accepts(self):
        parent = FakeAgent(AgentKind.PARENT, [0.05, 0.05, 0.8, 0.05, 0.05])
        infant = FakeAgent(AgentKind.INFANT, [0.2] * 5)
        rng = make_rng(8)
        for _ in range(500):
            out = run_round(parent, infant, Condition.A_LED, rng)
            assert out.accepted and out.acceptance_prob == 1.0
            assert out.shared_w == out.proposed_w

    def test_infant_led_mirrors(self):
        parent = FakeAgent(AgentKind.PARENT, [0.2] * 5)
        infant = FakeAgent(AgentKind.INFANT, [0.8, 0.05, 0.05, 0.05, 0.05])
        rng = make_rng(9)
        for _ in range(500):
            out = run_round(parent, infant, Condition.B_LED, rng)
            assert out.shared_w == out.listener_own_w
        for _ in range(500):
            out = run_round(infant, parent, Condition.B_LED, rng)
            assert out.shared_w == out.proposed_w

    def test_current_w_replaces_fresh_draw(self):
        speaker = FakeAgent(AgentKind.INFANT, [0.2] * 5)
        listener = FakeAgent(AgentKind.PARENT, [0.2] * 5)
        out = run_round(speaker, listener, Condition.MHNG, make_rng(10), current_w=3)
        assert out.listener_own_w == 3

    def test_draw_counts_per_condition(self):
        # Fresh MHNG: speaker draw, listener draw, acceptance draw.
        # One-sided rules decide deterministically, so two draws only.
        speaker = FakeAgent(AgentKind.INFANT, [0.2] * 5)
        listener = FakeAgent(AgentKind.PARENT, [0.2] * 5)
        for condition, n in ((Condition.MHNG, 3), (Condition.A_LED, 2)):
            a, b = make_rng(11), make_rng(11)
            run_round(speaker, listener, condition, a)
            for _ in range(n):
                b.random()
            assert a.random() == b.random(), condition


class TestPersistentChain:
    def test_chain_converges_to_product_of_posteriors(self):
        # With the agreed symbol carried across rounds this is a textbook
        # Metropolis sampler whose stationary law is the normalized
        # product of the two posteriors.
        ps = [0.1, 0.2, 0.3, 0.2, 0.2]
        pl = [0.3, 0.3, 0.2, 0.1, 0.1]
        speaker = FakeAgent(AgentKind.INFANT, ps)
        listener = FakeAgent(AgentKind.PARENT, pl)
        rng = make_rng(12)
        current = 0
        counts = np.zeros(5)
        burn = 500
        n = 50000
        for i in range(burn + n):
            out = run_round(speaker, listener, Condition.MHNG, rng, current_w=current)
            current = out.shared_w
            if i >= burn:
                counts[current] += 1
        target = np.array(ps) * np.array(pl)
        target /= target.sum()
        assert np.allclose(counts / n, target, atol=0.02)


def run_recorded(parent, infant, world, seed, **kwargs):
    """run_iteration from START, with what on_round saw: per round the
    speaker, the outcome, the landing state and the rare flag."""
    seen = []
    result = run_iteration(
        parent,
        infant,
        world,
        START,
        Condition.MHNG,
        make_rng(seed),
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
        parent, infant = make_dyad(world, pref)
        (z, shared_w), seen = run_recorded(parent, infant, world, 16)
        assert z == seen[-1][2]
        assert shared_w == seen[-1][1].shared_w

    def test_both_agents_learn_each_round(self, world, pref):
        parent, infant = make_dyad(world, pref)
        alpha_before = parent.obs_concentration.sum()
        beta_before = infant.trans_concentration.sum()
        run_iteration(parent, infant, world, START, Condition.MHNG, make_rng(17))
        assert parent.obs_concentration.sum() == pytest.approx(alpha_before + 2.0)
        assert infant.trans_concentration.sum() == pytest.approx(beta_before + 2.0)

    def test_infant_belief_pins_to_truth(self, world, pref):
        # Identity sensing makes the infant posterior one-hot at the
        # landing state after every round.
        parent, infant = make_dyad(world, pref)
        (z, _), _ = run_recorded(parent, infant, world, 18)
        assert infant.belief[z] == 1.0

    def test_on_round_callback_sees_both_rounds(self, world, pref):
        parent, infant = make_dyad(world, pref)
        _, seen = run_recorded(parent, infant, world, 19)
        assert len(seen) == 2
        for speaker, outcome, z, rare in seen:
            assert isinstance(speaker, Agent)
            assert 0 <= outcome.shared_w < 5
            assert 0 <= z < 36
            assert isinstance(rare, bool)

    def test_persist_w_threads_the_symbol(self, world, pref):
        parent, infant = make_dyad(world, pref)
        _, seen = run_recorded(parent, infant, world, 20, current_w=4, persist_w=True)
        first, second = seen[0][1], seen[1][1]
        assert first.listener_own_w == 4
        assert second.listener_own_w == first.shared_w

    def test_draw_counts_fresh_vs_persistent(self, world, pref):
        # Fresh: (3 dialogue + 1 world) x 2. Persistent skips the
        # listener's own draw: (2 + 1) x 2.
        for persist, n in ((False, 8), (True, 6)):
            parent, infant = make_dyad(world, pref)
            a, b = make_rng(21), make_rng(21)
            run_iteration(
                parent,
                infant,
                world,
                START,
                Condition.MHNG,
                a,
                current_w=0 if persist else None,
                persist_w=persist,
            )
            for _ in range(n):
                b.random()
            assert a.random() == b.random(), persist

    @pytest.mark.parametrize(
        "condition, persist, per_round",
        [
            (Condition.MHNG, False, 2),
            (Condition.MHNG, True, 2),
            (Condition.A_LED, False, 2),
            (Condition.A_LED, True, 1),
        ],
    )
    def test_efe_evaluations_per_round(
        self, world, pref, monkeypatch, condition, persist, per_round
    ):
        # One symbol posterior per agent that a round reads: the speaker's,
        # and the listener's only for a fresh draw or the MH test.
        calls = []
        efe = Agent.efe_per_action

        def counted(agent):
            calls.append(agent.kind)
            return efe(agent)

        monkeypatch.setattr(Agent, "efe_per_action", counted)
        parent, infant = make_dyad(world, pref)
        rng, z, current_w = make_rng(22), START, 0
        for _ in range(5):
            z, current_w = run_iteration(
                parent,
                infant,
                world,
                z,
                condition,
                rng,
                current_w=current_w if persist else None,
                persist_w=persist,
            )
        assert len(calls) == 10 * per_round
