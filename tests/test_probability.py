import numpy as np
import pytest

from dyadreg.probability import (
    Categorical,
    column_kl,
    derive_seed,
    digamma,
    make_rng,
    sample,
    softmax_neg,
)
import oracles
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


def in_order_kl(p, log_q) -> float:
    """sum_i p_i (ln p_i - log_q_i) over the cells where p_i > 0, added
    one cell at a time from the first."""
    log_p = np.log(np.where(p > 0.0, p, 1.0))
    total = 0.0
    for p_i, log_p_i, log_q_i in zip(p.tolist(), log_p.tolist(), log_q.tolist()):
        if p_i > 0.0:
            total += p_i * (log_p_i - log_q_i)
    return total


def columns_with_zeros(seed, count=40, cells=36):
    """Seeded random columns, about a third of each column's cells exactly 0."""
    rng = make_rng(seed)
    p = rng.dirichlet(np.ones(cells), size=count)
    p[rng.random(p.shape) < 0.3] = 0.0
    return p / p.sum(axis=1, keepdims=True)


class TestColumnKl:
    def test_equals_the_in_order_sum(self):
        p = columns_with_zeros(71)
        assert (p == 0.0).any(axis=1).all()
        log_q = np.log(make_rng(72).dirichlet(np.ones(36), size=len(p)))
        got = column_kl(p, log_q)
        assert got.tolist() == [in_order_kl(pj, qj) for pj, qj in zip(p, log_q)]
        # One q for every column, as the infant's comfort distribution.
        got = column_kl(p, log_q[0])
        assert got.tolist() == [in_order_kl(pj, log_q[0]) for pj in p]

    def test_a_zero_cell_contributes_nothing(self):
        p = columns_with_zeros(73)
        log_q = np.log(make_rng(74).dirichlet(np.ones(36), size=len(p)))
        other = np.where(p == 0.0, -700.0, log_q)
        assert column_kl(p, other).tolist() == column_kl(p, log_q).tolist()

    def test_a_column_against_its_own_logs_is_zero(self):
        p = columns_with_zeros(75)
        assert column_kl(p, np.log(np.where(p > 0.0, p, 1.0))).tolist() == [0.0] * len(p)


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
        p = np.tile([0.1, 0.6, 0.3], (20000, 1))
        draws = sample(p, rng.random(20000))
        freqs = np.bincount(draws, minlength=3) / draws.size
        assert np.allclose(freqs, p[0], atol=0.02)

    def test_one_hot_always_hits(self):
        rng = make_rng(1)
        p = np.tile(np.eye(6)[4], (200, 1))
        assert (sample(p, rng.random(200)) == 4).all()

    def test_consumes_one_uniform(self):
        # Each row is drawn by its own one uniform, as the one-trial form
        # draws it from a generator, whatever the other rows hold.
        rng = make_rng(9)
        p = rng.dirichlet(np.full(5, 0.5), size=2000)
        p[rng.random(2000) < 0.1, 4] = 0.0
        u = rng.random(2000)
        u[:10] = (0.0, 1.0 - 2**-53, *p[:8].cumsum(axis=1)[:, 1])
        expect = [oracles.sample(row, Uniform(v)) for row, v in zip(p, u.tolist())]
        assert sample(p, u).tolist() == expect

    def test_stream_reproducible(self):
        p = np.array([[0.2, 0.5, 0.3]])
        xs = [sample(p, make_rng(42).random(1))[0] for _ in range(5)]
        assert len(set(xs)) == 1


class Uniform:
    """A generator stand-in whose one draw is `value`."""

    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


class TestDigamma:
    def test_closed_forms(self):
        gamma = 0.5772156649015329
        assert digamma(1.0) == pytest.approx(-gamma, abs=1e-13)
        assert digamma(0.5) == pytest.approx(-gamma - 2.0 * np.log(2.0), abs=1e-13)

    def test_recurrence(self):
        x = np.geomspace(1e-3, 1e3, 50)
        assert np.allclose(digamma(x + 1.0) - digamma(x), 1.0 / x, rtol=0, atol=1e-10)

    def test_equals_the_reduce_oracle_bit_for_bit(self):
        # The ten recurrence terms are formed in one buffer and summed as
        # np.add.reduce sums a row of ten: pairs, then quads, then the last
        # two. Seeded arguments spanning the program's counts plus 1, as one
        # 1-d and one 2-d array and one at a time, 0-d and as floats.
        rng = make_rng(103)
        x = 1.0 + 10.0 ** rng.uniform(-14, 6, 10_000)
        for shaped in (x, x.reshape(125, 80)):
            assert digamma(shaped).tobytes() == oracles.digamma_by_reduce(shaped).tobytes()
        expected = oracles.digamma_by_reduce(x).tolist()
        assert [float(digamma(np.array(v))) for v in x] == expected
        assert [float(digamma(v)) for v in x.tolist()] == expected


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
