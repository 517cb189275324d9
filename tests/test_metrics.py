import numpy as np
import pytest

from dyadreg.agents import AgentKind, init_agent
from dyadreg.environment import (
    Action,
    N_STATES,
    VisceralState,
    build_prior_preference,
    build_transition_model,
)
from dyadreg.harness import shuffled_window
from dyadreg.metrics import (
    ROUND_DTYPE,
    TrialLog,
    aggregate_conditions,
    auc_window,
    c_norm,
    jsd_latent,
    kld_A_error,
    kld_B_error,
    shuffle_control,
)
from dyadreg.probability import KL_FLOOR, make_rng
from oracles import column_kls, floored_kld_A, js_divergence, kl_divergence, learned_dynamics
from oracles import mean_column_kl
from oracles import jsd_latent as scalar_jsd_latent


@pytest.fixture(scope="module")
def world():
    return build_transition_model()


@pytest.fixture(scope="module")
def pref():
    return build_prior_preference()


class TestCNorm:
    def test_peak_scores_one(self, pref):
        assert c_norm(VisceralState(2, 2).flat, pref) == pytest.approx(1.0)

    def test_corner_value(self, pref):
        # exp(-4) / exp(-0.16) for the default preference bump.
        assert c_norm(VisceralState(0, 0).flat, pref) == pytest.approx(
            0.021493601345089916, abs=1e-15
        )

    def test_bounded(self, pref):
        for z in range(N_STATES):
            v = c_norm(z, pref)
            assert 0.0 < v <= 1.0


class TestMeanColumnKl:
    def test_zero_on_identical(self):
        rng = make_rng(0)
        m = rng.dirichlet(np.ones(6), size=6).T
        assert mean_column_kl(m, m) == pytest.approx(0.0, abs=1e-12)

    def test_matches_scalar_route(self):
        rng = make_rng(1)
        p = rng.dirichlet(np.ones(8), size=8).T
        q = rng.dirichlet(np.ones(8), size=8).T
        expect = np.mean(
            [
                kl_divergence(p[:, j], q[:, j])
                for j in range(8)
            ]
        )
        assert mean_column_kl(p, q) == pytest.approx(expect, abs=1e-12)

    def test_finite_against_sparse_columns(self):
        p = np.eye(4)
        q = np.full((4, 4), 0.25)
        q2 = np.eye(4)
        assert np.isfinite(mean_column_kl(p, q))
        assert np.isfinite(mean_column_kl(q, q2))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mean_column_kl(np.eye(3), np.eye(4))


class TestModelErrors:
    def test_fresh_parent_error_is_log_n(self, world, pref):
        parent = init_agent(AgentKind.PARENT, world, pref)
        v = mean_column_kl(np.eye(N_STATES), parent.A[0])
        assert v == pytest.approx(np.log(N_STATES), abs=1e-12)

    def test_diagonal_kld_A_equals_column_kl(self):
        # Dirichlet-random maps, some with cells below the floor, their
        # columns given as rows in both memory layouts. The oracle reads the
        # map in the parent's layout, a transposed view of those rows.
        rng = make_rng(61)
        for k in range(200):
            alpha = 10.0 ** rng.uniform(-3, 1)
            columns = rng.dirichlet(np.full(N_STATES, alpha), size=N_STATES)
            sensory = columns.T
            if k % 2:
                columns = np.asfortranarray(columns)
            kls = kld_A_error(columns, np.arange(N_STATES))
            assert np.add.reduce(kls) / N_STATES == mean_column_kl(np.eye(N_STATES), sensory)

    def test_kld_A_of_a_batch_equals_it_map_by_map(self, world, pref):
        # The columns of a batch of parents' maps in one call, as rows of
        # their buffer, against each map's columns alone.
        parent = init_agent(AgentKind.PARENT, world, pref, trials=20)
        rng = make_rng(63)
        parent.obs_concentration[:] = 10.0 ** rng.uniform(-14, 1, (20, N_STATES, N_STATES))
        parent.learn_A(rng.dirichlet(np.ones(N_STATES), size=20), rng.integers(N_STATES, size=20))
        states = np.arange(N_STATES)
        each = [kld_A_error(sensory.T, states).tolist() for sensory in parent.A]
        rows = parent.A.swapaxes(1, 2).reshape(-1, N_STATES)
        assert kld_A_error(rows, np.tile(states, 20)).reshape(20, N_STATES).tolist() == each

    @pytest.mark.parametrize("prior", [1.0 / N_STATES, 1e-300])
    def test_kld_A_skips_the_floor_with_the_floored_bits(self, world, pref, prior):
        # kld_A_error floors every cell, but np.maximum leaves a cell at or
        # above KL_FLOOR as it is: the mean of a map's rows has the bits of
        # the whole-map form on the map floored in the parent's layout (a
        # transposed view), with or without cells below the floor.
        parent = init_agent(AgentKind.PARENT, world, pref, prior, trials=8)
        rng = make_rng(67)
        for _ in range(30):
            parent.learn_A(rng.dirichlet(np.ones(N_STATES), size=8), rng.integers(N_STATES, size=8))
        assert (parent.A < KL_FLOOR).any() == (prior < KL_FLOOR)
        floored = np.maximum(parent.A, KL_FLOOR)
        assert floored.strides == parent.A.strides
        rows = parent.A.swapaxes(1, 2).reshape(-1, N_STATES)
        kls = kld_A_error(rows, np.tile(np.arange(N_STATES), 8)).reshape(8, N_STATES)
        assert (np.add.reduce(kls, axis=1) / N_STATES).tobytes() == floored_kld_A(floored).tobytes()

    def test_kld_A_does_not_depend_on_the_layout_of_its_columns(self):
        # Each row is summed pairwise in a C-ordered floored copy: the same
        # rows in F order or read through a stride give the same bits.
        rng = make_rng(69)
        for _ in range(2000):
            count = rng.integers(1, 40)
            alpha = 10.0 ** rng.uniform(-3, 1)
            columns = rng.dirichlet(np.full(N_STATES, alpha), size=count)
            states = rng.integers(N_STATES, size=count)
            strided = np.zeros((count, 2 * N_STATES))
            strided[:, ::2] = columns
            expected = kld_A_error(columns, states).tobytes()
            assert kld_A_error(np.asfortranarray(columns), states).tobytes() == expected
            assert kld_A_error(strided[:, ::2], states).tobytes() == expected

    def test_fresh_infant_sleep_error(self, world, pref):
        # 12 rail columns are one-hot (KL = ln 36), the other 24 hold the
        # 0.8 / 0.2 pair.
        infant = init_agent(AgentKind.INFANT, world, pref)
        means = learned_dynamics(infant)[0, :, :, Action.SLEEP].T
        kls = kld_B_error(world.tensor[:, :, Action.SLEEP].T, means)
        two_point = 0.8 * np.log(0.8 * 36) + 0.2 * np.log(0.2 * 36)
        expect = (12 * np.log(36) + 24 * two_point) / 36
        assert kls.shape == (N_STATES,)
        assert kls.mean() == pytest.approx(expect, abs=1e-12)
        assert infant.sleep_kls[0].tobytes() == kls.tobytes()

    def test_error_vanishes_at_truth(self, world):
        means = world.tensor.transpose(1, 2, 0)[:, Action.SLEEP]
        kls = kld_B_error(world.tensor[:, :, Action.SLEEP].T, means)
        assert np.abs(kls).max() == pytest.approx(0.0, abs=1e-9)

    def test_sleep_error_by_column_equals_kld_B_error(self, world, pref):
        # A seeded run of rounds for a batch of infants, about half of each
        # trial's rounds Sleep. The infant's per-column cache is renewed as
        # it learns: the first round, from the uniform start belief, renews
        # every column, the others only the one learned, and only in the
        # trials that slept. After every round it equals the errors of the
        # learned Sleep columns.
        trials = 3
        infant = init_agent(AgentKind.INFANT, world, pref, trials=trials)
        rng = make_rng(67)
        true_sleep = world.tensor[:, :, Action.SLEEP]
        one_column = 0
        for step in range(200):
            sleep = (rng.random(trials) < 0.5) | (step == 0)
            action = np.where(sleep, Action.SLEEP, rng.integers(4, size=trials))
            prev, new = infant.assimilate(action, rng.integers(N_STATES, size=trials))
            infant.learn_B(prev, new, action)
            one_column += prev is not None and sleep.any()
            got = np.add.reduce(infant.sleep_kls, axis=1) / N_STATES
            for t in range(trials):
                learned_sleep = learned_dynamics(infant)[t, :, :, Action.SLEEP]
                assert got[t] == mean_column_kl(true_sleep, learned_sleep)
                assert np.array_equal(infant.sleep_kls[t], column_kls(true_sleep, learned_sleep))
        assert one_column > 150


def assert_batched_equals_scalar(parents, states):
    """The row-batched divergence against the scalar oracles row by row,
    bit for bit."""
    parents, states = np.array(parents), np.array(states)
    eye = np.eye(N_STATES)
    expected = np.array([scalar_jsd_latent(p, k) for p, k in zip(parents, states)])
    general = np.array([js_divergence(p, eye[k]) for p, k in zip(parents, states)])
    assert general.tobytes() == expected.tobytes()
    assert jsd_latent(parents, states).tobytes() == expected.tobytes()


class TestJsdLatent:
    def test_identical_beliefs(self):
        assert jsd_latent(np.eye(N_STATES)[[14]], np.array([14])).tolist() == [0.0]

    def test_frozen_uniform_vs_pinned(self):
        (v,) = jsd_latent(np.full((1, N_STATES), 1.0 / N_STATES), np.array([14]))
        assert v == pytest.approx(0.629296055790274, abs=1e-12)

    def test_one_hot_infant_equals_js_divergence(self, world, pref):
        # The two agents' beliefs over a seeded run of rounds: the infant's
        # one-hot beliefs at the states its cues give.
        parent = init_agent(AgentKind.PARENT, world, pref)
        infant = init_agent(AgentKind.INFANT, world, pref)
        assert infant.state is None
        rng = make_rng(71)
        eye = np.eye(N_STATES)
        parents, states = [], []
        for step in range(300):
            action, obs = rng.integers(5, size=1), rng.integers(N_STATES, size=1)
            infant.assimilate(action, obs)
            parent.assimilate(action, obs)
            parent.learn_A(parent.belief, obs)
            assert infant.state.tolist() == obs.tolist()
            p, k = parent.belief[0], int(infant.state[0])
            assert scalar_jsd_latent(p, k) == js_divergence(p, eye[k])
            parents.append(p.copy())
            states.append(k)
        assert_batched_equals_scalar(parents, states)

    def test_one_hot_infant_against_sparse_parents(self):
        # Parent beliefs with exact zeros, subnormal cells, or the infant's
        # own one-hot vector or another one. Halving a subnormal cell can
        # give a zero mixture cell; both forms leave its term out.
        rng = make_rng(73)
        eye = np.eye(N_STATES)
        parents, states = [], []
        for _ in range(2000):
            k = int(rng.integers(N_STATES))
            p = rng.dirichlet(np.full(N_STATES, 10.0 ** rng.uniform(-3, 1)))
            p[rng.random(N_STATES) < 0.3] = 0.0
            p = p / p.sum() if p.sum() > 0.0 else eye[k]
            for parent in (p, eye[k], eye[(k + 1) % N_STATES]):
                v = scalar_jsd_latent(parent, k)
                assert v == js_divergence(parent, eye[k])
                assert np.isfinite(v) and v <= np.log(2) + 1e-9
                parents.append(parent)
                states.append(k)
        assert_batched_equals_scalar(parents, states)

    def test_every_count_of_summed_cells(self):
        # Rows with 1 to 36 positive cells, shuffled so that rows of one
        # count are not adjacent: each count is summed as its own block.
        rng = make_rng(79)
        p = np.zeros((N_STATES, N_STATES))
        for row, count in enumerate(rng.permutation(N_STATES) + 1):
            p[row, rng.choice(N_STATES, count, replace=False)] = rng.dirichlet(np.ones(count))
        assert sorted((p > 0.0).sum(axis=1)) == list(range(1, N_STATES + 1))
        assert_batched_equals_scalar(p, rng.integers(N_STATES, size=N_STATES))


class TestAucWindow:
    def test_ramp(self):
        series = np.arange(11, dtype=float)
        assert auc_window(series, 0, 10) == pytest.approx(50.0)

    def test_constant(self):
        assert auc_window(np.ones(20), 2, 7) == pytest.approx(5.0)

    def test_subwindow(self):
        series = np.arange(100, dtype=float)
        assert auc_window(series, 19, 49) == pytest.approx((19 + 49) / 2 * 30)

    def test_out_of_range(self):
        series = np.ones(10)
        for bad in ((-1, 5), (0, 10), (5, 5), (7, 3)):
            with pytest.raises(ValueError):
                auc_window(series, *bad)


class TestShuffleControl:
    def _sequences(self, n=30):
        # The parent's beliefs and the states the infant senses.
        rng = make_rng(2)
        return rng.dirichlet(np.ones(N_STATES), size=n), rng.integers(N_STATES, size=n)

    def test_identity_permutation_is_noop(self):
        # shuffle_control pairs the rows as given; shuffled_window does the
        # permuting.
        p_seq, i_seq = self._sequences()
        base = shuffle_control(p_seq, i_seq)
        eye = np.eye(N_STATES)
        direct = [
            js_divergence(p_seq[t], eye[i_seq[t]]) for t in range(30)
        ]
        assert np.allclose(base, direct, atol=1e-12)

    def test_reordered_rows(self):
        # The window's parent rows meet the infant rows that each seed's
        # permutation of the whole series puts there.
        p_seq, i_seq = self._sequences()
        lo, hi = 4, 20
        aucs, medians = [], []
        eye = np.eye(N_STATES)
        for seed in (3, 4):
            perm = make_rng(seed).permutation(30)
            series = [
                js_divergence(p_seq[t], eye[i_seq[perm[t]]])
                for t in range(lo, hi + 1)
            ]
            aucs.append(auc_window(series, 0, hi - lo))
            medians.append(np.median(series))
        auc, median = shuffled_window(p_seq, i_seq, (3, 4), lo, hi)
        assert auc == pytest.approx(np.mean(aucs), abs=1e-12)
        assert median == pytest.approx(np.mean(medians), abs=1e-12)

    def test_rejects_shape_mismatch(self):
        p_seq, i_seq = self._sequences(5)
        with pytest.raises(ValueError):
            shuffle_control(p_seq[:4], i_seq)


def synthetic_log(condition, trial, values):
    # Two rounds per iteration; the per-iteration values sit in round 2.
    rounds = np.zeros(2 * len(values), dtype=ROUND_DTYPE)
    rounds["iteration"] = np.arange(rounds.size) // 2 + 1
    rounds["round"] = np.arange(rounds.size) % 2 + 1
    rounds["c_norm"][1::2] = values
    rounds["jsd_z"][1::2] = np.asarray(values) / 2
    rounds["kld_A"] = 1.0
    rounds["kld_B_sleep"] = 2.0
    return TrialLog(condition=condition, trial_index=trial, seed=trial, rounds=rounds)


class TestAggregate:
    def test_groups_and_moments(self):
        logs = [
            synthetic_log("mhng", 0, [0.2, 0.4]),
            synthetic_log("mhng", 1, [0.6, 0.8]),
            synthetic_log("a-led", 0, [0.5, 0.5]),
        ]
        out = aggregate_conditions(logs)
        assert set(out) == {"mhng", "a-led"}
        mh = out["mhng"]
        assert mh["n_trials"] == 2
        assert np.allclose(mh["per_trial_mean_c_norm"], [0.3, 0.7])
        assert mh["mean_c_norm"] == pytest.approx(0.5)
        assert mh["std_c_norm"] == pytest.approx(np.std([0.3, 0.7], ddof=1))
        assert mh["sem_c_norm"] == pytest.approx(mh["std_c_norm"] / np.sqrt(2))
        assert np.allclose(mh["curves"]["c_norm"], [0.4, 0.6])

    def test_single_trial_has_zero_spread(self):
        out = aggregate_conditions([synthetic_log("b-led", 0, [0.1, 0.3])])
        assert out["b-led"]["std_c_norm"] == 0.0
        assert out["b-led"]["sem_c_norm"] == 0.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            aggregate_conditions([])

    def test_iteration_series_dtype(self):
        log = synthetic_log("mhng", 0, [0.2])
        assert log.iteration_series("rare_branch").dtype == bool
        assert log.iteration_series("c_norm").dtype == float
