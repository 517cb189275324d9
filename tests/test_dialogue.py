import numpy as np
import pytest

from dyadreg.agents import AgentKind, init_agent
from dyadreg.dialogue import (
    Condition,
    IterationResult,
    mh_accept,
    propose,
    run_iteration,
    run_round,
)
from dyadreg.environment import (
    VisceralState,
    build_prior_preference,
    build_transition_model,
)
from dyadreg.probability import Categorical, make_rng


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
        draws = np.array([propose(agent, rng) for _ in range(20000)])
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
            assert out.action == out.shared_w
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


class TestRunIteration:
    def test_two_rounds_swap_speakers(self, world, pref):
        parent, infant = make_dyad(world, pref)
        res = run_iteration(
            parent, infant, world, VisceralState(2, 2), Condition.MHNG, make_rng(13)
        )
        assert isinstance(res, IterationResult)
        assert [o.speaker for o in res.outcomes] == [AgentKind.INFANT, AgentKind.PARENT]
        assert len(res.steps) == 2

    def test_parent_first_order(self, world, pref):
        parent, infant = make_dyad(world, pref)
        res = run_iteration(
            parent,
            infant,
            world,
            VisceralState(2, 2),
            Condition.MHNG,
            make_rng(14),
            round_order="parent-first",
        )
        assert [o.speaker for o in res.outcomes] == [AgentKind.PARENT, AgentKind.INFANT]

    def test_unknown_order_rejected(self, world, pref):
        parent, infant = make_dyad(world, pref)
        with pytest.raises(ValueError):
            run_iteration(
                parent,
                infant,
                world,
                VisceralState(2, 2),
                Condition.MHNG,
                make_rng(15),
                round_order="alphabetical",
            )

    def test_state_tracks_last_step(self, world, pref):
        parent, infant = make_dyad(world, pref)
        res = run_iteration(
            parent, infant, world, VisceralState(2, 2), Condition.MHNG, make_rng(16)
        )
        assert res.state == res.steps[-1].next_state
        assert res.shared_w == res.outcomes[-1].shared_w

    def test_both_agents_learn_each_round(self, world, pref):
        parent, infant = make_dyad(world, pref)
        alpha_before = parent.obs_concentration.sum()
        beta_before = infant.trans_concentration.sum()
        run_iteration(
            parent, infant, world, VisceralState(2, 2), Condition.MHNG, make_rng(17)
        )
        assert parent.obs_concentration.sum() == pytest.approx(alpha_before + 2.0)
        assert infant.trans_concentration.sum() == pytest.approx(beta_before + 2.0)

    def test_infant_belief_pins_to_truth(self, world, pref):
        # Identity sensing makes the infant posterior one-hot at the
        # landing state after every round.
        parent, infant = make_dyad(world, pref)
        res = run_iteration(
            parent, infant, world, VisceralState(2, 2), Condition.MHNG, make_rng(18)
        )
        assert infant.belief[res.state.flat] == 1.0

    def test_on_round_callback_sees_both_rounds(self, world, pref):
        parent, infant = make_dyad(world, pref)
        seen = []
        run_iteration(
            parent,
            infant,
            world,
            VisceralState(2, 2),
            Condition.MHNG,
            make_rng(19),
            on_round=lambda idx, out, stp: seen.append((idx, out.shared_w, stp.next_state)),
        )
        assert [s[0] for s in seen] == [0, 1]

    def test_persist_w_threads_the_symbol(self, world, pref):
        parent, infant = make_dyad(world, pref)
        res = run_iteration(
            parent,
            infant,
            world,
            VisceralState(2, 2),
            Condition.MHNG,
            make_rng(20),
            current_w=4,
            persist_w=True,
        )
        assert res.outcomes[0].listener_own_w == 4
        assert res.outcomes[1].listener_own_w == res.outcomes[0].shared_w

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
                VisceralState(2, 2),
                Condition.MHNG,
                a,
                current_w=0 if persist else None,
                persist_w=persist,
            )
            for _ in range(n):
                b.random()
            assert a.random() == b.random(), persist
