import numpy as np
import pytest

from dyadreg.environment import (
    Action,
    EnvParams,
    N_ACTIONS,
    N_STATES,
    PriorPreference,
    VisceralState,
    build_prior_preference,
    build_transition_model,
    identity_sensory_map,
    preferred_obs_distribution,
    step,
)
from dyadreg.probability import make_rng


@pytest.fixture(scope="module")
def model():
    return build_transition_model()


class TestVisceralState:
    def test_flat_round_trip(self):
        for z in range(N_STATES):
            assert VisceralState.from_flat(z).flat == z

    def test_flat_layout(self):
        assert VisceralState(x=3, y=1).flat == 9

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            VisceralState(6, 0)
        with pytest.raises(ValueError):
            VisceralState(0, -1)
        with pytest.raises(ValueError):
            VisceralState.from_flat(36)


class TestTransitionModel:
    def test_columns_are_stochastic(self, model):
        sums = model.tensor.sum(axis=0)
        assert sums.shape == (N_STATES, N_ACTIONS)
        assert np.allclose(sums, 1.0, atol=1e-12)
        assert np.all(model.tensor >= 0.0)

    def test_cool_and_warm_are_deterministic(self, model):
        for a in (Action.COOL, Action.WARM):
            assert np.all(model.rare_next[:, a] == -1)
            assert np.all(np.isin(model.tensor[:, :, a], [0.0, 1.0]))

    def test_interior_moves(self, model):
        z = VisceralState(3, 3).flat
        assert model.main_next[z, Action.COOL] == VisceralState(2, 2).flat
        assert model.main_next[z, Action.WARM] == VisceralState(2, 4).flat
        assert model.main_next[z, Action.EAT] == VisceralState(5, 3).flat
        assert model.main_next[z, Action.PLAY] == VisceralState(2, 3).flat
        assert model.main_next[z, Action.SLEEP] == VisceralState(3, 3).flat

    def test_branch_direction_splits_on_temperature(self, model):
        hot = VisceralState(3, 3).flat
        cold = VisceralState(1, 2).flat
        assert model.rare_next[hot, Action.SLEEP] == VisceralState(3, 4).flat
        assert model.rare_next[cold, Action.SLEEP] == VisceralState(1, 1).flat
        assert model.rare_next[cold, Action.EAT] == VisceralState(3, 1).flat

    def test_branch_probability_mass(self, model):
        z = VisceralState(3, 3).flat
        r = int(model.rare_next[z, Action.SLEEP])
        m = int(model.main_next[z, Action.SLEEP])
        assert model.tensor[m, z, Action.SLEEP] == pytest.approx(0.8)
        assert model.tensor[r, z, Action.SLEEP] == pytest.approx(0.2)

    def test_clamping_at_edges(self, model):
        origin = VisceralState(0, 0).flat
        assert model.main_next[origin, Action.COOL] == origin
        far = VisceralState(5, 2).flat
        assert model.main_next[far, Action.EAT] == far

    def test_merged_branches_at_temperature_rails(self, model):
        # y = 0 branches downward and y = 5 upward, both off the grid, so
        # the rare successor collapses onto the main one.
        for x in range(6):
            for y in (0, 5):
                z = VisceralState(x, y).flat
                for a in (Action.EAT, Action.PLAY, Action.SLEEP):
                    assert model.rare_next[z, a] == -1
                    m = int(model.main_next[z, a])
                    assert model.tensor[m, z, a] == 1.0

    def test_sleep_slice_shape(self, model):
        # Sleep keeps energy fixed: away from the rails each column holds
        # exactly the 0.8 / 0.2 pair, on the rails a single 1.
        sl = model.tensor[:, :, Action.SLEEP]
        counts = (sl > 0).sum(axis=0)
        assert sorted(set(counts.tolist())) == [1, 2]
        assert (counts == 1).sum() == 12

    def test_custom_params(self):
        m = build_transition_model(EnvParams(branch_prob=0.5, eat_gain=1))
        z = VisceralState(2, 2).flat
        assert m.main_next[z, Action.EAT] == VisceralState(3, 2).flat
        r = int(m.rare_next[z, Action.SLEEP])
        assert m.tensor[r, z, Action.SLEEP] == pytest.approx(0.5)

    def test_tensor_is_read_only(self, model):
        with pytest.raises(ValueError):
            model.tensor[0, 0, 0] = 0.5


class TestStep:
    def test_deterministic_action(self, model):
        z, rare = step(model, VisceralState(3, 3).flat, Action.COOL, make_rng(0))
        assert z == VisceralState(2, 2).flat
        assert rare is False

    def test_observations_match_landing_state(self, model):
        # Both agents observe the landing state through the identity
        # emission, so its cue is its own flat index.
        emission = identity_sensory_map()
        rng = make_rng(2)
        for _ in range(50):
            z, _ = step(model, VisceralState(2, 3).flat, Action.SLEEP, rng)
            assert int(emission[:, z].argmax()) == z

    def test_consumes_one_uniform_even_when_deterministic(self, model):
        a, b = make_rng(7), make_rng(7)
        step(model, VisceralState(3, 3).flat, Action.COOL, a)
        b.random()
        assert a.random() == b.random()

    def test_branch_frequency(self, model):
        rng = make_rng(123)
        fired = [
            step(model, VisceralState(3, 3).flat, Action.SLEEP, rng)[1]
            for _ in range(20000)
        ]
        assert np.mean(fired) == pytest.approx(0.2, abs=0.01)

    def test_rare_flag_matches_landing(self, model):
        rng = make_rng(4)
        s = VisceralState(3, 3).flat
        for _ in range(200):
            z, rare = step(model, s, Action.SLEEP, rng)
            expected = VisceralState(3, 4) if rare else VisceralState(3, 3)
            assert z == expected.flat

    def test_no_rare_flag_on_merged_rail(self, model):
        rng = make_rng(5)
        for _ in range(100):
            z, rare = step(model, VisceralState(3, 0).flat, Action.SLEEP, rng)
            assert rare is False
            assert z == VisceralState(3, 0).flat


class TestPriorPreference:
    def test_peak_at_centre_cells(self):
        pref = build_prior_preference()
        vals = pref.values.reshape(6, 6)
        peak = 0.8521437889662113
        for x, y in ((2, 2), (3, 2), (2, 3), (3, 3)):
            assert vals[y, x] == pytest.approx(peak, abs=1e-12)
        assert pref.max_value == pytest.approx(peak, abs=1e-12)

    def test_corner_value(self):
        pref = build_prior_preference()
        assert pref.values[0] == pytest.approx(0.01831563888873418, abs=1e-15)

    def test_floor_binds_for_tiny_sigma(self):
        pref = build_prior_preference(sigma=0.3, floor=0.01)
        assert pref.values[0] == 0.01

    def test_symmetry(self):
        vals = build_prior_preference().values.reshape(6, 6)
        assert np.allclose(vals, vals.T)
        assert np.allclose(vals, vals[::-1, ::-1])

    def test_strictly_positive(self):
        assert np.all(build_prior_preference().values > 0.0)

    def test_rejects_bad_vectors(self):
        with pytest.raises(ValueError):
            PriorPreference(np.zeros(N_STATES))
        with pytest.raises(ValueError):
            PriorPreference(np.ones(35))
        with pytest.raises(ValueError):
            build_prior_preference(sigma=0.0)

    def test_values_read_only(self):
        pref = build_prior_preference()
        with pytest.raises(ValueError):
            pref.values[0] = 2.0


class TestPreferredObs:
    def test_linear_is_proportional(self):
        pref = build_prior_preference()
        dist = preferred_obs_distribution(pref, "linear")
        assert np.allclose(dist.probs, pref.values / pref.values.sum())

    def test_softmax_sharper_than_linear(self):
        pref = build_prior_preference()
        lin = preferred_obs_distribution(pref, "linear")
        soft = preferred_obs_distribution(pref, "softmax")
        assert lin.probs.argmax() == soft.probs.argmax()
        assert soft.probs.min() > 0.0

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            preferred_obs_distribution(build_prior_preference(), "quadratic")


def test_identity_sensory_map():
    eye = identity_sensory_map()
    assert eye.shape == (N_STATES, N_STATES)
    assert np.array_equal(eye, np.eye(N_STATES))
    with pytest.raises(ValueError):
        eye[0, 0] = 0.0
