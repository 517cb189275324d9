import dataclasses
import json
import math

import numpy as np
import pytest

from dyadreg.agents import AgentKind, init_agent
from dyadreg.config import (
    MAX_ITERATIONS,
    MAX_WORKERS,
    ConfigError,
    ExperimentConfig,
    load_config,
    save_config,
)
from dyadreg.harness import build_world, run_trial


class TestDefaults:
    def test_valid_out_of_the_box(self):
        cfg = ExperimentConfig()
        assert cfg.conditions == ("mhng", "a-led", "b-led")
        assert cfg.trials == 10
        assert cfg.iterations == 1000
        # One observation's weight per 36-cell learned column.
        assert cfg.dirichlet_prior == pytest.approx(1.0 / 36.0)
        assert cfg.branch_prob == 0.2
        assert cfg.mh_current_w == "fresh"

    def test_list_conditions_coerced_to_tuple(self):
        cfg = ExperimentConfig(conditions=["mhng"])
        assert cfg.conditions == ("mhng",)

    def test_string_condition_coerced(self):
        cfg = ExperimentConfig(conditions="mhng")
        assert cfg.conditions == ("mhng",)


class TestValidation:
    @pytest.mark.parametrize(
        "changes",
        [
            {"conditions": ()},
            {"conditions": ("mhng", "mhng")},
            {"conditions": ("telepathy",)},
            {"trials": 0},
            {"iterations": 0},
            {"seed": -1},
            {"seed": 2**64},
            {"round_order": "simultaneous"},
            {"mh_current_w": "sticky"},
            {"preference_mode": "cubic"},
            {"shuffle_permutations": 0},
            {"dirichlet_prior": 0.0},
            {"branch_prob": 1.5},
            {"eat_gain": -1},
            {"temp_high_min": 7},
            {"c_sigma": 0.0},
            {"c_floor": 0.0},
            {"c_values": (1.0,) * 35},
            {"c_values": (0.0,) + (1.0,) * 35},
            {"workers": 0},
            {"workers": MAX_WORKERS + 1},
            {"workers": 10**12},
            {"branch_prob": "high"},
            {"c_sigma": None},
            {"conditions": 5},
            {"conditions": ("mhng", 3)},
            {"dump_beliefs": "no"},
            {"trials": True},
            {"seed": 1.5},
            {"c_values": (1.0,) * 35 + (True,)},
            {"c_values": "high"},
            {"out_dir": 3},
            {"dirichlet_prior": float("inf")},
            {"c_floor": float("inf")},
            # Values a run cannot compute without an overflow.
            {"dirichlet_prior": 1e200},
            {"dirichlet_prior": 1e306},
            {"dirichlet_prior": 10**400},
            {"c_sigma": 1e-160},
            {"c_sigma": 1e-200},
            {"c_sigma": 10**400},
            {"c_floor": 5e306},
            {"c_floor": 1e307},
            {"c_values": (5e306,) * 36},
            {"c_values": (5e306,) * 36, "preference_mode": "softmax"},
            {"c_values": (10**400,) * 36},
            {"iterations": MAX_ITERATIONS + 1},
        ],
    )
    def test_rejects(self, changes):
        with pytest.raises(ConfigError):
            ExperimentConfig(**changes)

    @pytest.mark.parametrize(
        "field, accepted, refused",
        [
            ("dirichlet_prior", 1.0, 1e200),
            ("dirichlet_prior", 1.0, 0.0),
            ("c_sigma", 1.0, 1e-200),
            ("c_sigma", 1.0, math.inf),
            ("c_floor", 1.0, 1e307),
            ("c_floor", 1.0, 0.0),
            ("c_values", 1.0, 1e307),
            ("c_values", 1.0, 0.0),
        ],
    )
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_trial_runs_at_each_accepted_extreme(self, field, accepted, refused):
        # Bisect the floats between an accepted and a refused value down to
        # the accepted one next to the boundary; every condition's trial
        # must run there with no numpy warning.
        def config(bits):
            value = float(np.int64(bits).view(np.float64))
            value = [value] * 36 if field == "c_values" else value
            return ExperimentConfig(iterations=30, **{field: value})

        good, bad = (int(np.float64(v).view(np.int64)) for v in (accepted, refused))
        while abs(bad - good) > 1:
            middle = (good + bad) // 2
            try:
                config(middle)
                good = middle
            except ConfigError:
                bad = middle
        cfg = config(good)
        for condition in cfg.conditions:
            log = run_trial(cfg, condition, 0)
            assert np.isfinite(log.parent_round_beliefs).all()

    def test_int_accepted_where_float_expected(self):
        cfg = ExperimentConfig(branch_prob=1, dirichlet_prior=2, c_values=[1] * 36)
        assert cfg.branch_prob == 1 and cfg.dirichlet_prior == 2
        assert all(isinstance(v, float) for v in cfg.c_values)

    def test_fuzz_every_field(self):
        # Seeded fuzz: each draw sets one field to a JSON value of any type
        # or a number of any magnitude. The config either fails with
        # ConfigError or loads, round-trips and builds its world and agents.
        rng = np.random.default_rng(44)
        fields = [f.name for f in dataclasses.fields(ExperimentConfig)]
        pool = [None, True, False, "", "mhng", "fresh", [], ["mhng"], [1.0] * 36, {"k": 1}]
        pool += [float("nan"), float("inf"), -float("inf")]
        for _ in range(1500):
            name = fields[rng.integers(len(fields))]
            if rng.random() < 0.5:
                value = pool[rng.integers(len(pool))]
            else:
                value = float(rng.normal() * 10.0 ** rng.integers(-12, 13))
                if rng.random() < 0.5:
                    value = int(value)
            try:
                cfg = ExperimentConfig.from_json(json.dumps({name: value}))
            except ConfigError:
                continue
            assert ExperimentConfig.from_json(cfg.to_json()) == cfg, (name, value)
            world, pref = build_world(cfg)
            for kind in AgentKind:
                init_agent(kind, world, pref, cfg.dirichlet_prior, cfg.preference_mode)

    def test_c_values_accepted(self):
        cfg = ExperimentConfig(c_values=[0.5] * 36)
        assert len(cfg.c_values) == 36
        assert all(isinstance(v, float) for v in cfg.c_values)


class TestRoundTrip:
    def test_json_round_trip(self):
        cfg = ExperimentConfig(seed=42, trials=3, conditions=("a-led",), c_values=[1.0] * 36)
        again = ExperimentConfig.from_json(cfg.to_json())
        assert again == cfg

    def test_file_round_trip(self, tmp_path):
        cfg = ExperimentConfig(seed=7, iterations=25)
        path = tmp_path / "config.json"
        save_config(cfg, path)
        assert load_config(path) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"speed": 9000})

    def test_non_object_json_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json("[1, 2]")
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json("{not json")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.json")

    def test_replaced_validates(self):
        cfg = ExperimentConfig()
        assert cfg.replaced(seed=9).seed == 9
        with pytest.raises(ConfigError):
            cfg.replaced(trials=-2)
