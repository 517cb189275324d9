import numpy as np
import pytest

from dyadreg.environment import (
    Action,
    N_ACTIONS,
    N_STATES,
    PriorPreference,
    build_prior_preference,
    build_transition_model,
    preferred_obs_distribution,
    step,
    to_flat,
    to_xy,
)
from dyadreg.probability import make_rng
from oracles import identity_sensory_map


@pytest.fixture(scope="module")
def model():
    return build_transition_model()


class TestFlatLayout:
    def test_flat_round_trip(self):
        for z in [*range(N_STATES), np.arange(N_STATES)]:
            assert np.array_equal(to_flat(*to_xy(z)), z)

    def test_flat_layout(self):
        assert to_flat(3, 1) == 9


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
        z = to_flat(3, 3)
        assert model.main_next[z, Action.COOL] == to_flat(2, 2)
        assert model.main_next[z, Action.WARM] == to_flat(2, 4)
        assert model.main_next[z, Action.EAT] == to_flat(5, 3)
        assert model.main_next[z, Action.PLAY] == to_flat(2, 3)
        assert model.main_next[z, Action.SLEEP] == to_flat(3, 3)

    def test_branch_direction_splits_on_temperature(self, model):
        hot = to_flat(3, 3)
        cold = to_flat(1, 2)
        assert model.rare_next[hot, Action.SLEEP] == to_flat(3, 4)
        assert model.rare_next[cold, Action.SLEEP] == to_flat(1, 1)
        assert model.rare_next[cold, Action.EAT] == to_flat(3, 1)

    def test_branch_probability_mass(self, model):
        z = to_flat(3, 3)
        r = int(model.rare_next[z, Action.SLEEP])
        m = int(model.main_next[z, Action.SLEEP])
        assert model.tensor[m, z, Action.SLEEP] == pytest.approx(0.8)
        assert model.tensor[r, z, Action.SLEEP] == pytest.approx(0.2)

    def test_clamping_at_edges(self, model):
        origin = to_flat(0, 0)
        assert model.main_next[origin, Action.COOL] == origin
        far = to_flat(5, 2)
        assert model.main_next[far, Action.EAT] == far

    def test_merged_branches_at_temperature_rails(self, model):
        # y = 0 branches downward and y = 5 upward, both off the grid, so
        # the rare successor collapses onto the main one.
        for x in range(6):
            for y in (0, 5):
                z = to_flat(x, y)
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
        m = build_transition_model(branch_prob=0.5, eat_gain=1)
        z = to_flat(2, 2)
        assert m.main_next[z, Action.EAT] == to_flat(3, 2)
        r = int(m.rare_next[z, Action.SLEEP])
        assert m.tensor[r, z, Action.SLEEP] == pytest.approx(0.5)

    @pytest.mark.parametrize("branch_prob", [1.5, -0.1])
    def test_rejects_branch_prob_outside_unit_interval(self, branch_prob):
        with pytest.raises(ValueError, match="branch_prob"):
            build_transition_model(branch_prob=branch_prob)

    def test_tensor_is_read_only(self, model):
        with pytest.raises(ValueError):
            model.tensor[0, 0, 0] = 0.5


class TestStep:
    def test_deterministic_action(self, model):
        z, rare = step(model, to_flat(3, 3), Action.COOL, make_rng(0).random())
        assert z == to_flat(2, 2)
        assert rare is False

    def test_observations_match_landing_state(self, model):
        # Both agents observe the landing state through the identity
        # emission, so its cue is its own flat index.
        emission = identity_sensory_map()
        rng = make_rng(2)
        for _ in range(50):
            z, _ = step(model, to_flat(2, 3), Action.SLEEP, rng.random())
            assert int(emission[:, z].argmax()) == z

    def test_consumes_one_uniform_even_when_deterministic(self, model):
        # A deterministic action is given its round's uniform like any
        # other, and lands the same whatever its value.
        rng = make_rng(7)
        s = to_flat(3, 3)
        landed = {step(model, s, Action.COOL, u) for u in (0.0, *rng.random(20), 1.0 - 2**-53)}
        assert landed == {(to_flat(2, 2), False)}

    def test_branch_frequency(self, model):
        rng = make_rng(123)
        fired = [
            step(model, to_flat(3, 3), Action.SLEEP, rng.random())[1]
            for _ in range(20000)
        ]
        assert np.mean(fired) == pytest.approx(0.2, abs=0.01)

    def test_rare_flag_matches_landing(self, model):
        rng = make_rng(4)
        s = to_flat(3, 3)
        for _ in range(200):
            z, rare = step(model, s, Action.SLEEP, rng.random())
            assert z == (to_flat(3, 4) if rare else to_flat(3, 3))

    def test_no_rare_flag_on_merged_rail(self, model):
        rng = make_rng(5)
        for _ in range(100):
            z, rare = step(model, to_flat(3, 0), Action.SLEEP, rng.random())
            assert rare is False
            assert z == to_flat(3, 0)


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
        assert np.allclose(dist, pref.values / pref.values.sum())

    def test_softmax_sharper_than_linear(self):
        pref = build_prior_preference()
        lin = preferred_obs_distribution(pref, "linear")
        soft = preferred_obs_distribution(pref, "softmax")
        assert lin.argmax() == soft.argmax()
        assert soft.min() > 0.0

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            preferred_obs_distribution(build_prior_preference(), "quadratic")


def test_identity_sensory_map():
    eye = identity_sensory_map()
    assert eye.shape == (N_STATES, N_STATES)
    assert np.array_equal(eye, np.eye(N_STATES))
    with pytest.raises(ValueError):
        eye[0, 0] = 0.0
