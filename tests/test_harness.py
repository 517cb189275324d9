import json
import re
from pathlib import Path

import numpy as np
import pytest

from dyadreg import dialogue, harness
from dyadreg.config import ExperimentConfig
from dyadreg.environment import Action, build_prior_preference, build_transition_model
from dyadreg.harness import (
    CSV_HEADER,
    START_STATE,
    build_summary,
    load_beliefs_csv,
    load_manifest,
    load_trial_csv,
    run_experiment,
    run_trial,
    shuffle_seed,
    trial_seed,
    write_beliefs_csv,
    write_trial_csv,
)
from dyadreg.metrics import kld_B_error
from dyadreg.probability import derive_seed

ITERATION_SERIES = ("c_norm", "jsd_z", "kld_A", "kld_B_sleep", "rare_branch")


def small_config(**changes):
    base = dict(conditions=("mhng",), trials=1, iterations=30, seed=3)
    base.update(changes)
    return ExperimentConfig(**base)


@pytest.fixture(scope="module")
def mhng_log():
    return run_trial(small_config(dump_beliefs=True), "mhng", 0)


class TestSeeds:
    def test_trial_seed_is_derived(self):
        assert trial_seed(5, "mhng", 2) == derive_seed(5, "mhng", 2)

    def test_distinct_across_grid(self):
        seeds = {
            trial_seed(0, cond, t)
            for cond in ("mhng", "a-led", "b-led")
            for t in range(10)
        }
        assert len(seeds) == 30

    def test_shuffle_seed_differs_from_trial_seed(self):
        assert shuffle_seed(0, "mhng", 0) != trial_seed(0, "mhng", 0)


class TestRunTrial:
    def test_shapes(self, mhng_log):
        assert len(mhng_log.iteration_series("jsd_z")) == 30
        assert len(mhng_log.rounds) == 60
        assert mhng_log.parent_beliefs.shape == (30, 36)
        assert mhng_log.parent_round_beliefs.shape == (60, 36)
        assert mhng_log.seed == trial_seed(3, "mhng", 0)

    def test_round_bookkeeping(self, mhng_log):
        for i, r in enumerate(mhng_log.rounds):
            assert r["iteration"] == i // 2 + 1
            assert r["round"] == i % 2 + 1
            assert r["condition"] == "mhng"
        # Default order: infant speaks first, then the parent.
        assert mhng_log.rounds[0]["speaker"] == "infant"
        assert mhng_log.rounds[1]["speaker"] == "parent"

    def test_iteration_metrics_take_second_round(self, mhng_log):
        m = {name: mhng_log.iteration_series(name) for name in ITERATION_SERIES}
        for i in range(30):
            second = mhng_log.rounds[2 * i + 1]
            first = mhng_log.rounds[2 * i]
            assert m["c_norm"][i] == second["c_norm"]
            assert m["jsd_z"][i] == second["jsd_z"]
            assert m["kld_A"][i] == second["kld_A"]
            assert m["kld_B_sleep"][i] == second["kld_B_sleep"]
            assert m["rare_branch"][i] == (first["rare_branch"] or second["rare_branch"])

    def test_beliefs_are_valid_rows(self, mhng_log):
        for mat in (mhng_log.parent_beliefs, mhng_log.infant_beliefs):
            assert np.all(mat >= 0.0)
            assert np.allclose(mat.sum(axis=1), 1.0, atol=1e-9)
        # Identity sensing pins the infant to one state per round.
        assert np.allclose(mhng_log.infant_beliefs.max(axis=1), 1.0)

    def test_infant_belief_matches_true_state(self, mhng_log):
        for i in range(30):
            r = mhng_log.rounds[2 * i + 1]
            flat = r["true_y"] * 6 + r["true_x"]
            assert mhng_log.infant_beliefs[i][flat] == 1.0

    def test_final_counts_recorded(self, mhng_log):
        # Two unit-mass learning events per iteration per agent, on top of
        # the flat prior.
        prior = small_config().dirichlet_prior
        assert mhng_log.final_obs_concentration.sum() == pytest.approx(
            36 * 36 * prior + 60
        )
        assert mhng_log.final_trans_concentration.sum() == pytest.approx(
            36 * 36 * 5 * prior + 60
        )

    def test_deterministic_per_seed(self):
        a = run_trial(small_config(), "mhng", 0)
        b = run_trial(small_config(), "mhng", 0)
        assert np.array_equal(a.rounds, b.rounds)
        c = run_trial(small_config(), "mhng", 1)
        assert not np.array_equal(c.rounds, a.rounds)

    def test_start_state(self):
        assert (START_STATE.x, START_STATE.y) == (2, 2)

    def test_persistent_mode_threads_symbols(self):
        log = run_trial(small_config(mh_current_w="persistent"), "mhng", 0)
        # From the second round on, the listener's standing symbol is the
        # previous round's agreement, across iteration boundaries too.
        for prev, curr in zip(log.rounds, log.rounds[1:]):
            assert curr["listener_own_w"] == prev["shared_w"]

    def test_parent_led_overrides(self):
        log = run_trial(small_config(conditions=("a-led",)), "a-led", 0)
        for r in log.rounds:
            if r["speaker"] == "infant":
                assert r["shared_w"] == r["listener_own_w"]
            else:
                assert r["accepted"] and r["shared_w"] == r["proposed_w"]


class TestTrialCsv:
    def test_round_trip(self, mhng_log, tmp_path):
        path = tmp_path / "trial.csv"
        write_trial_csv(mhng_log, path)
        again = load_trial_csv(path, seed=mhng_log.seed)
        assert again.condition == "mhng"
        assert again.trial_index == 0
        assert len(again.rounds) == len(mhng_log.rounds)
        exact = ["iteration", "round", "speaker", "proposed_w", "listener_own_w", "accepted",
                 "shared_w", "action", "true_x", "true_y", "rare_branch"]
        for a, b in zip(again.rounds, mhng_log.rounds):
            for name in exact:
                assert a[name] == b[name]
            assert a["jsd_z"] == pytest.approx(b["jsd_z"], rel=1e-8)
            assert a["kld_A"] == pytest.approx(b["kld_A"], rel=1e-8)
        for name in ("rare_branch", "c_norm"):
            a, b = again.iteration_series(name), mhng_log.iteration_series(name)
            assert a.shape == b.shape
            assert np.allclose(a, b, rtol=1e-8, atol=0.0)

    def test_header_written(self, mhng_log, tmp_path):
        path = tmp_path / "trial.csv"
        write_trial_csv(mhng_log, path)
        assert path.read_text().splitlines()[0] == ",".join(CSV_HEADER)

    def test_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            load_trial_csv(path)

    def test_rejects_empty_body(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(",".join(CSV_HEADER) + "\n")
        with pytest.raises(ValueError):
            load_trial_csv(path)


class TestSleepOnlyKldB:
    def test_equals_recomputing_every_round(self, monkeypatch):
        every_round, actions = [], []

        def run_iteration(parent, infant, world, *args, on_round, **kwargs):
            def record(speaker, outcome, z, rare):
                every_round.append(kld_B_error(world.tensor, infant.B, Action.SLEEP))
                actions.append(outcome.shared_w)
                on_round(speaker, outcome, z, rare)

            return dialogue.run_iteration(parent, infant, world, *args, on_round=record, **kwargs)

        monkeypatch.setattr(harness, "run_iteration", run_iteration)
        log = run_trial(small_config(iterations=120), "mhng", 0)
        assert 0 < actions.count(Action.SLEEP) < len(actions)
        assert np.array_equal(log.rounds["kld_B_sleep"], every_round)


class TestTrialCsvFuzz:
    def test_damaged_files_fail_naming_the_file(self, mhng_log, tmp_path):
        # Cut after a random row, swap two rows, or corrupt a numeric cell.
        good = tmp_path / "good.csv"
        write_trial_csv(mhng_log, good)
        header, *rows = good.read_text().splitlines()
        numeric = [i for i, name in enumerate(CSV_HEADER) if name not in ("condition", "speaker")]
        rng = np.random.default_rng(2024)
        for case in range(90):
            lines = list(rows)
            kind = case % 3
            if kind == 0:
                kept = int(rng.integers(1, len(lines)))
                lines = lines[:kept]
            elif kind == 1:
                i, j = rng.choice(len(lines), size=2, replace=False)
                lines[i], lines[j] = lines[j], lines[i]
            else:
                i = int(rng.integers(len(lines)))
                cells = lines[i].split(",")
                cells[int(rng.choice(numeric))] = str(rng.choice(["", "x", "1.5.2", "0x1f", "--"]))
                lines[i] = ",".join(cells)
            path = tmp_path / f"case{case}.csv"
            path.write_text("\n".join([header, *lines]) + "\n")
            if kind == 0 and kept % 2 == 0:
                # A cut between iterations leaves a shorter, valid trial.
                assert load_trial_csv(path).iteration_series("jsd_z").size == kept // 2
                continue
            with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
                load_trial_csv(path)

    def test_ragged_row_rejected(self, mhng_log, tmp_path):
        path = tmp_path / "trial.csv"
        write_trial_csv(mhng_log, path)
        path.write_text(path.read_text() + "mhng,0\n")
        with pytest.raises(ValueError, match="cells"):
            load_trial_csv(path)


class TestBeliefsCsv:
    def test_round_trip(self, mhng_log, tmp_path):
        path = tmp_path / "beliefs.csv"
        write_beliefs_csv(mhng_log, path)
        data = load_beliefs_csv(path)
        assert data["parent_rounds"].shape == (60, 36)
        assert np.allclose(data["parent_rounds"], mhng_log.parent_round_beliefs, atol=1e-9)
        assert np.allclose(data["infant_rounds"], mhng_log.infant_round_beliefs, atol=1e-9)
        # The iteration view is every second round.
        assert np.allclose(data["parent_iterations"], mhng_log.parent_beliefs, atol=1e-9)

    def test_requires_dump(self, tmp_path):
        log = run_trial(small_config(), "mhng", 0)
        with pytest.raises(ValueError):
            write_beliefs_csv(log, tmp_path / "x.csv")

    def test_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n1,2\n")
        with pytest.raises(ValueError):
            load_beliefs_csv(path)

    def test_damaged_files_fail_naming_the_file(self, mhng_log, tmp_path):
        # Drop an iteration, swap two rows, corrupt a cell, or make a row
        # ragged.
        good = tmp_path / "good.csv"
        write_beliefs_csv(mhng_log, good)
        header, *rows = good.read_text().splitlines()
        rng = np.random.default_rng(2025)
        for case in range(80):
            lines = list(rows)
            kind = case % 4
            if kind == 0:
                # Any iteration but the last, whose loss leaves a valid,
                # shorter dump.
                it = int(rng.integers(len(lines) // 4 - 1))
                del lines[4 * it : 4 * it + 4]
            elif kind == 1:
                i, j = rng.choice(len(lines), size=2, replace=False)
                lines[i], lines[j] = lines[j], lines[i]
            elif kind == 2:
                i = int(rng.integers(len(lines)))
                cells = lines[i].split(",")
                bad = ["", "x", "1.5.2", "--", "child"]
                cells[int(rng.integers(len(cells)))] = str(rng.choice(bad))
                lines[i] = ",".join(cells)
            else:
                i = int(rng.integers(len(lines)))
                cells = lines[i].split(",")
                lines[i] = ",".join(cells[:-1] if rng.random() < 0.5 else cells + ["0"])
            path = tmp_path / f"case{case}.csv"
            path.write_text("\n".join([header, *lines]) + "\n")
            with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
                load_beliefs_csv(path)


class TestBuildWorld:
    def test_default_config_builds_the_default_world(self):
        world, pref = harness.build_world(ExperimentConfig())
        default = build_transition_model()
        for name in ("tensor", "main_next", "rare_next", "branch_prob"):
            assert np.array_equal(getattr(world, name), getattr(default, name)), name
        assert np.array_equal(pref.values, build_prior_preference().values)


class TestSummary:
    def test_windows_present_when_long_enough(self):
        cfg = small_config(iterations=60)
        logs = [run_trial(cfg, "mhng", 0)]
        summary = build_summary(cfg, logs)
        entry = summary["conditions"]["mhng"]["trials"][0]
        assert {"jsd_median", "auc_original", "auc_shuffled"} <= set(entry)
        assert summary["c_norm_ranking"] == ["mhng"]

    def test_windows_absent_when_short(self):
        cfg = small_config(iterations=30)
        summary = build_summary(cfg, [run_trial(cfg, "mhng", 0)])
        entry = summary["conditions"]["mhng"]["trials"][0]
        assert "auc_original" not in entry

    def test_shuffled_auc_uses_mean_of_permutations(self):
        cfg = small_config(iterations=60)
        log = run_trial(cfg, "mhng", 0)
        one = build_summary(cfg, [log])["conditions"]["mhng"]["trials"][0]
        many_cfg = cfg.replaced(shuffle_permutations=4)
        many = build_summary(many_cfg, [log])["conditions"]["mhng"]["trials"][0]
        assert one["auc_original"] == many["auc_original"]
        assert one["auc_shuffled"] != many["auc_shuffled"]

    def test_kld_snapshots(self):
        cfg = small_config(iterations=25)
        summary = build_summary(cfg, [run_trial(cfg, "mhng", 0)])
        snaps = summary["conditions"]["mhng"]["kld_snapshots"]
        assert set(snaps) == {"kld_A", "kld_B_sleep"}
        assert snaps["kld_A"]["first"] > snaps["kld_A"]["last"]
        assert "iter20" in snaps["kld_A"]


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("exp") / "run"
    cfg = ExperimentConfig(
        conditions=("mhng", "b-led"),
        trials=2,
        iterations=60,
        seed=11,
        out_dir=str(out),
        dump_beliefs=True,
    )
    manifest = run_experiment(cfg)
    return out, cfg, manifest


class TestRunExperiment:
    def test_manifest_lists_real_files(self, run_dir):
        out, _, manifest = run_dir
        for rel in manifest.artifacts:
            assert (out / rel).is_file(), rel
        assert manifest.version

    def test_manifest_round_trips(self, run_dir):
        out, cfg, manifest = run_dir
        loaded = load_manifest(out)
        assert loaded.artifacts == manifest.artifacts
        assert loaded.trial_seeds == {
            c: [trial_seed(cfg.seed, c, t) for t in range(2)] for c in cfg.conditions
        }

    def test_summary_json_parses(self, run_dir):
        out, cfg, _ = run_dir
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary["conditions"]) == set(cfg.conditions)
        assert summary["iterations"] == 60

    def test_curves_have_one_row_per_iteration(self, run_dir):
        out, cfg, _ = run_dir
        lines = (out / "curves_mhng.csv").read_text().splitlines()
        assert len(lines) == cfg.iterations + 1

    def test_config_snapshot_is_location_free(self, run_dir):
        out, cfg, _ = run_dir
        snapshot = ExperimentConfig.from_json((out / "config.json").read_text())
        assert snapshot == cfg.replaced(out_dir=".", workers=1)

    def test_rerun_is_byte_identical(self, run_dir, tmp_path):
        out, cfg, manifest = run_dir
        again = tmp_path / "again"
        run_experiment(cfg.replaced(out_dir=str(again)))
        for rel in manifest.artifacts:
            assert (again / rel).read_bytes() == (out / rel).read_bytes(), rel

    def test_rerun_removes_only_what_the_manifest_listed(self, tmp_path):
        out = tmp_path / "run"
        cfg = small_config(trials=2, iterations=5, out_dir=str(out))
        run_experiment(cfg)
        (out / "notes.txt").write_text("mine\n")
        outside = tmp_path / "outside.txt"
        outside.write_text("mine\n")
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["artifacts"].append("../outside.txt")
        (out / "manifest.json").write_text(json.dumps(manifest))
        rerun = run_experiment(cfg.replaced(trials=1))
        assert sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()) == sorted(
            rerun.artifacts + ["manifest.json", "notes.txt"]
        )
        assert outside.read_text() == "mine\n"
        # A manifest cut short by a crash while it was written lists nothing.
        (out / "manifest.json").write_text('{"version": "0')
        run_experiment(cfg.replaced(trials=2))
        assert (out / "notes.txt").is_file()
        assert json.loads((out / "manifest.json").read_text())["artifacts"]

    @pytest.mark.parametrize("dump_beliefs", [False, True])
    def test_directory_holds_exactly_the_manifest_artifacts(self, tmp_path, dump_beliefs):
        out = tmp_path / "run"
        cfg = small_config(
            conditions=("mhng", "a-led"), trials=2, iterations=60, out_dir=str(out),
            dump_beliefs=dump_beliefs,
        )
        manifest = run_experiment(cfg)
        present = sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file())
        assert present == sorted(manifest.artifacts + ["manifest.json"])
        assert any(name.endswith("_beliefs.csv") for name in present) == dump_beliefs

    def test_workers_do_not_change_artifacts(self, run_dir, tmp_path):
        out, cfg, manifest = run_dir
        par = tmp_path / "par"
        run_experiment(cfg.replaced(out_dir=str(par), workers=2))
        for rel in manifest.artifacts:
            assert (par / rel).read_bytes() == (out / rel).read_bytes(), rel
