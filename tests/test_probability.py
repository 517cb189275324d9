import numpy as np
import pytest

from dyadreg.probability import (
    Categorical,
    derive_seed,
    digamma,
    make_rng,
    sample,
    softmax_neg,
)
from oracles import dirichlet_expected_entropy, entropy, js_divergence, kl_divergence

LN2 = 0.6931471805599453
LN36 = 3.58351893845611


class TestCategorical:
    def test_normalizes_small_drift(self):
        c = Categorical([0.5, 0.5 + 1e-9])
        assert c.probs.sum() == pytest.approx(1.0, abs=1e-15)

    def test_rejects_large_drift(self):
        with pytest.raises(ValueError):
            Categorical([0.5, 0.6])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Categorical([1.1, -0.1])

    def test_rejects_nan_and_inf(self):
        with pytest.raises(ValueError):
            Categorical([np.nan, 1.0])
        with pytest.raises(ValueError):
            Categorical([np.inf, 0.0])

    def test_rejects_empty_and_2d(self):
        with pytest.raises(ValueError):
            Categorical([])
        with pytest.raises(ValueError):
            Categorical(np.ones((2, 2)) / 4)

    def test_immutable(self):
        c = Categorical(np.full(4, 0.25))
        with pytest.raises(ValueError):
            c.probs[0] = 0.9

    def test_does_not_alias_input(self):
        raw = np.array([0.25, 0.75])
        c = Categorical(raw)
        raw[0] = 9.0
        assert c.probs[0] == 0.25


class TestEntropy:
    def test_one_hot_zero(self):
        assert entropy(np.eye(8)[2]) == 0.0

    def test_uniform_is_log_n(self):
        assert entropy(np.full(36, 1.0 / 36)) == pytest.approx(LN36, abs=1e-12)

    def test_between_bounds(self):
        rng = make_rng(11)
        for _ in range(50):
            p = rng.dirichlet(np.ones(12))
            h = entropy(p)
            assert 0.0 <= h <= np.log(12) + 1e-12


class TestKl:
    def test_frozen_value(self):
        p = np.array([0.8, 0.2])
        q = np.array([0.5, 0.5])
        assert kl_divergence(p, q) == pytest.approx(0.19274475702175753, abs=1e-12)

    def test_zero_iff_equal(self):
        p = np.array([0.3, 0.7])
        assert kl_divergence(p, p) == 0.0

    def test_asymmetric(self):
        p = np.array([0.8, 0.2])
        q = np.array([0.5, 0.5])
        assert kl_divergence(p, q) != pytest.approx(kl_divergence(q, p))

    def test_finite_against_zero_support(self):
        p = np.array([0.5, 0.5])
        q = np.array([1.0, 0.0])
        v = kl_divergence(p, q)
        assert np.isfinite(v) and v > 0.0

    def test_support_mismatch(self):
        with pytest.raises(ValueError):
            kl_divergence(np.full(3, 1.0 / 3), np.full(4, 0.25))

    def test_non_negative_random(self):
        rng = make_rng(3)
        for _ in range(100):
            p = rng.dirichlet(np.ones(9))
            q = rng.dirichlet(np.ones(9))
            assert kl_divergence(p, q) >= 0.0


class TestJs:
    def test_frozen_value(self):
        p = np.array([0.5, 0.5])
        q = np.array([1.0, 0.0])
        assert js_divergence(p, q) == pytest.approx(0.21576155433883565, abs=1e-12)

    def test_uniform_vs_one_hot_36(self):
        # Direct evaluation against the even mixture; also equals
        # H(m) - (H(p) + H(q)) / 2.
        p = np.full(36, 1.0 / 36)
        q = np.eye(36)[0]
        v = js_divergence(p, q)
        assert v == pytest.approx(0.629296055790274, abs=1e-12)
        m = 0.5 * (p + q)
        alt = entropy(m) - 0.5 * entropy(p) - 0.5 * entropy(q)
        assert v == pytest.approx(alt, abs=1e-12)

    def test_symmetric_and_bounded(self):
        rng = make_rng(5)
        for _ in range(100):
            p = rng.dirichlet(np.ones(36))
            q = rng.dirichlet(np.ones(36))
            a = js_divergence(p, q)
            b = js_divergence(q, p)
            assert a == pytest.approx(b, abs=1e-15)
            assert 0.0 <= a <= LN2 + 1e-12

    def test_disjoint_supports_hit_ln2(self):
        p = np.eye(4)[0]
        q = np.eye(4)[3]
        assert js_divergence(p, q) == pytest.approx(LN2, abs=1e-12)

    def test_zero_iff_equal(self):
        p = np.array([0.2, 0.3, 0.5])
        assert js_divergence(p, p) == 0.0

    def test_support_mismatch(self):
        with pytest.raises(ValueError):
            js_divergence(np.full(2, 0.5), np.full(3, 1.0 / 3))

    def test_subnormal_cells_stay_finite(self):
        # Half of the smallest subnormal rounds to a zero mixture cell; the
        # term it would make infinite is left out, in either argument.
        tiny = np.nextafter(0.0, 1.0)
        p = np.array([tiny, 0.5, 0.5, 0.0])
        q = np.array([0.0, 0.0, 1.0, tiny])
        with np.errstate(divide="raise", invalid="raise"):
            for a, b in ((p, q), (q, p)):
                v = js_divergence(a, b)
                assert np.isfinite(v) and 0.0 <= v <= LN2 + 1e-9
        assert js_divergence(p, q) == js_divergence(q, p)


class TestSoftmaxNeg:
    def test_equal_values_uniform(self):
        out = softmax_neg(np.full(5, 3.7))
        assert np.allclose(out, 0.2)

    def test_orders_inversely(self):
        out = softmax_neg(np.array([1.0, 2.0, 0.5]))
        assert out[2] > out[0] > out[1]

    def test_shift_invariance(self):
        a = softmax_neg(np.array([1.0, 2.0, 3.0]))
        b = softmax_neg(np.array([1001.0, 1002.0, 1003.0]))
        assert np.allclose(a, b, atol=1e-12)

    def test_no_overflow_on_large_spread(self):
        out = softmax_neg(np.array([0.0, 800.0]))
        assert out[0] == pytest.approx(1.0)
        assert np.all(np.isfinite(out))



class TestSample:
    def test_respects_frequencies(self):
        rng = make_rng(17)
        p = np.array([0.1, 0.6, 0.3])
        draws = np.array([sample(p, rng) for _ in range(20000)])
        freqs = np.bincount(draws, minlength=3) / draws.size
        assert np.allclose(freqs, p, atol=0.02)

    def test_one_hot_always_hits(self):
        rng = make_rng(1)
        p = np.eye(6)[4]
        assert all(sample(p, rng) == 4 for _ in range(200))

    def test_consumes_one_uniform(self):
        p = np.full(3, 1.0 / 3)
        a = make_rng(9)
        b = make_rng(9)
        sample(p, a)
        b.random()
        assert a.random() == b.random()

    def test_stream_reproducible(self):
        p = np.array([0.2, 0.5, 0.3])
        xs = [sample(p, make_rng(42)) for _ in range(5)]
        assert len(set(xs)) == 1


class TestDigamma:
    def test_closed_forms(self):
        gamma = 0.5772156649015329
        assert digamma(1.0) == pytest.approx(-gamma, abs=1e-13)
        assert digamma(0.5) == pytest.approx(-gamma - 2.0 * np.log(2.0), abs=1e-13)

    def test_recurrence(self):
        x = np.geomspace(1e-3, 1e3, 50)
        assert np.allclose(digamma(x + 1.0) - digamma(x), 1.0 / x, rtol=0, atol=1e-10)


class TestDirichletExpectedEntropy:
    def test_uniform_on_two_cells(self):
        # p ~ U(0, 1): E[-p ln p - (1 - p) ln(1 - p)] = 2 * 1/4.
        assert dirichlet_expected_entropy(np.array([1.0, 1.0])) == pytest.approx(0.5, abs=1e-12)

    def test_matches_monte_carlo(self):
        rng = make_rng(5)
        c = np.array([0.3, 2.0, 0.05, 1.0])
        draws = np.maximum(rng.dirichlet(c, 200_000), 1e-300)
        mc = float(-(draws * np.log(draws)).sum(axis=1).mean())
        assert dirichlet_expected_entropy(c) == pytest.approx(mc, abs=3e-3)

    def test_below_entropy_of_mean_and_meets_it_with_data(self):
        # With the weight of one observation, half the mean's entropy is
        # still to be learned; with plenty of data none is.
        mean = np.array([0.5, 0.3, 0.2])
        plain = entropy(mean)
        assert dirichlet_expected_entropy(mean) < plain - 0.5
        assert dirichlet_expected_entropy(1e6 * mean) == pytest.approx(plain, abs=1e-5)


class TestSeeds:
    def test_derivation_is_stable(self):
        assert derive_seed(0, "mhng", 0) == derive_seed(0, "mhng", 0)

    def test_labels_change_seed(self):
        base = derive_seed(7, "mhng", 3)
        assert derive_seed(7, "mhng", 4) != base
        assert derive_seed(7, "a-led", 3) != base
        assert derive_seed(8, "mhng", 3) != base

    def test_label_boundaries_do_not_collide(self):
        assert derive_seed(1, "ab", "c") != derive_seed(1, "a", "bc")

    def test_fits_in_64_bits(self):
        s = derive_seed(123, "x", 9)
        assert 0 <= s < 2**64

    def test_make_rng_deterministic(self):
        assert make_rng(5).random() == make_rng(5).random()
