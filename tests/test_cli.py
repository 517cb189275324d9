import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import dyadreg
from dyadreg import cli
from dyadreg.cli import main
from dyadreg.config import ExperimentConfig
from dyadreg.harness import CSV_HEADER, run_experiment, shuffle_seeds


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "run"
    code = run_cli(
        "run",
        "--conditions",
        "mhng",
        "--trials",
        "2",
        "--iterations",
        "60",
        "--seed",
        "4",
        "--out",
        str(out),
        "--dump-beliefs",
    )
    assert code == 0
    return out


class TestRun:
    def test_print_default_config(self, capsys):
        assert run_cli("run", "--print-default-config") == 0
        printed = json.loads(capsys.readouterr().out)
        assert ExperimentConfig.from_dict(printed) == ExperimentConfig()

    def test_full_run_reports_ranking(self, finished_run, capsys):
        # The fixture already ran; run again into the same place to grab
        # the stdout digest.
        code = run_cli(
            "run",
            "--conditions",
            "mhng",
            "--trials",
            "1",
            "--iterations",
            "10",
            "--seed",
            "4",
            "--out",
            str(finished_run.parent / "digest"),
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "mean c_norm" in out
        assert "ranking:" in out

    def test_artifacts_exist(self, finished_run):
        assert (finished_run / "manifest.json").is_file()
        assert (finished_run / "trials" / "mhng_t01_beliefs.csv").is_file()

    def test_flag_overrides_config_file(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            ExperimentConfig(conditions=("mhng",), trials=1, iterations=5, seed=1).to_json()
        )
        out = tmp_path / "o"
        assert (
            run_cli("run", "--config", str(cfg_path), "--seed", "9", "--out", str(out))
            == 0
        )
        snapshot = ExperimentConfig.from_json((out / "config.json").read_text())
        assert snapshot.seed == 9
        assert snapshot.iterations == 5

    def test_env_var_sets_out_dir(self, tmp_path, monkeypatch):
        target = tmp_path / "from_env"
        monkeypatch.setenv("DYADREG_OUT", str(target))
        assert (
            run_cli(
                "run", "--conditions", "mhng", "--trials", "1", "--iterations", "5",
                "--seed", "1",
            )
            == 0
        )
        assert (target / "manifest.json").is_file()

    def test_flag_beats_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DYADREG_OUT", str(tmp_path / "ignored"))
        chosen = tmp_path / "chosen"
        assert (
            run_cli(
                "run", "--conditions", "mhng", "--trials", "1", "--iterations", "5",
                "--seed", "1", "--out", str(chosen),
            )
            == 0
        )
        assert (chosen / "manifest.json").is_file()
        assert not (tmp_path / "ignored").exists()


class TestTrial:
    def test_writes_single_trial(self, tmp_path, capsys):
        out = tmp_path / "t"
        code = run_cli(
            "trial", "--condition", "a-led", "--iterations", "8", "--seed", "3",
            "--out", str(out),
        )
        assert code == 0
        assert (out / "trials" / "a-led_t00.csv").is_file()
        assert "a-led trial 0" in capsys.readouterr().out

    def test_dump_beliefs_writes_second_file(self, tmp_path):
        out = tmp_path / "t"
        code = run_cli(
            "trial", "--iterations", "8", "--seed", "3", "--out", str(out),
            "--dump-beliefs", "--trial-index", "2",
        )
        assert code == 0
        assert (out / "trials" / "mhng_t02_beliefs.csv").is_file()

    @pytest.mark.parametrize("index", ["-3", "2147483648", "3000000000"])
    def test_trial_index_outside_the_csv_column_is_refused(self, tmp_path, capsys, index):
        # The trial CSV's trial column is a 32-bit integer; the index is
        # checked before anything is simulated or written.
        out = tmp_path / "t"
        code = run_cli("trial", "--iterations", "8", "--out", str(out), "--trial-index", index)
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: --trial-index must lie in [0, 2147483648), not {index}\n"
        )
        assert not out.exists()

    def test_largest_trial_index_is_written(self, tmp_path):
        out = tmp_path / "t"
        code = run_cli(
            "trial", "--iterations", "2", "--out", str(out), "--trial-index", "2147483647"
        )
        assert code == 0
        assert (out / "trials" / "mhng_t2147483647.csv").is_file()


class TestShuffleControl:
    def test_reports_aucs(self, finished_run, capsys):
        code = run_cli("shuffle-control", "--run", str(finished_run))
        assert code == 0
        result = json.loads(capsys.readouterr().out)
        assert result["window"] == [20, 50]
        assert result["auc_shuffled"] > 0.0
        assert result["auc_original"] > 0.0

    def test_seed_override_changes_shuffle(self, finished_run, capsys):
        assert run_cli("shuffle-control", "--run", str(finished_run)) == 0
        base = json.loads(capsys.readouterr().out)
        assert (
            run_cli("shuffle-control", "--run", str(finished_run), "--seed", "123") == 0
        )
        override = json.loads(capsys.readouterr().out)
        assert override["permutation_seed"] == 123
        assert override["auc_original"] == base["auc_original"]

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_outside_the_run_seed_range_is_refused(self, tmp_path, capsys, seed):
        # Checked before any file is read: the run directory does not exist.
        code = run_cli("shuffle-control", "--run", str(tmp_path / "none"), "--seed", seed)
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --seed must lie in [0, 2**64), not {seed}\n"

    def test_largest_seed_is_used(self, finished_run, capsys):
        seed = 2**64 - 1
        assert run_cli("shuffle-control", "--run", str(finished_run), "--seed", str(seed)) == 0
        assert json.loads(capsys.readouterr().out)["permutation_seed"] == seed

    def test_missing_beliefs_is_actionable(self, tmp_path, capsys):
        # A trial the run lists, whose beliefs it did not dump.
        out = tmp_path / "run"
        args = ("--conditions", "mhng", "--trials", "1", "--iterations", "5", "--out", str(out))
        assert run_cli("run", *args) == 0
        capsys.readouterr()
        code = run_cli("shuffle-control", "--run", str(out))
        assert code == 1
        assert "--dump-beliefs" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "condition, index", [("mhng", "7"), ("mhng", "2"), ("mhng", "-1"), ("b-led", "0")]
    )
    def test_trial_the_run_lacks_is_named(self, finished_run, capsys, condition, index):
        # The run has trials 0 and 1 of mhng only; --dump-beliefs would not help.
        code = run_cli(
            "shuffle-control", "--run", str(finished_run),
            "--condition", condition, "--trial-index", index,
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {finished_run / 'manifest.json'}: lists no trial {index} of {condition}\n"
        )

    def test_window_out_of_range(self, finished_run, capsys):
        code = run_cli(
            "shuffle-control", "--run", str(finished_run), "--window-end", "500"
        )
        assert code == 1
        assert "window" in capsys.readouterr().err

    @pytest.mark.parametrize("start, end", [(0, 50), (30, 30), (40, 20)])
    def test_window_must_be_ordered_from_one(self, finished_run, capsys, start, end):
        code = run_cli(
            "shuffle-control", "--run", str(finished_run),
            "--window-start", str(start), "--window-end", str(end),
        )
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: window [{start}, {end}] needs 1 <= start < end\n"
        )

    def test_missing_run_dir(self, tmp_path, capsys):
        assert run_cli("shuffle-control", "--run", str(tmp_path / "nope")) == 1
        assert "manifest.json" in capsys.readouterr().err


    @pytest.mark.parametrize("damage", ["dropped iteration", "cell"])
    def test_damaged_belief_csv_fails_in_one_line(self, finished_run, tmp_path, capsys, damage):
        run = tmp_path / "run"
        shutil.copytree(finished_run, run)
        path = run / "trials" / "mhng_t00_beliefs.csv"
        lines = path.read_text().splitlines()
        if damage == "dropped iteration":
            # Iteration 30's two rows; the window 20-50 would slide past it.
            del lines[1 + 2 * 29 : 1 + 2 * 30]
        else:
            cells = lines[9].split(",")
            cells[7] = "abc"
            lines[9] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        assert run_cli("shuffle-control", "--run", str(run)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "line, probs",
        [
            # Iteration 30's second round, inside the window.
            (1 + 2 * 29 + 1, ["nan"] + ["0"] * 35),
            (1 + 2 * 29 + 1, ["-0.1", "1.1"] + ["0"] * 34),
            (1 + 2 * 29 + 1, ["1.1"] + ["0"] * 35),
            # Iteration 55's first round, which no shuffle reads.
            (1 + 2 * 54, ["0.5"] * 36),
        ],
        ids=["nan", "negative", "sum 1.1", "outside the window"],
    )
    def test_invalid_belief_fails_in_one_line(self, finished_run, tmp_path, capsys, line, probs):
        run = tmp_path / "run"
        shutil.copytree(finished_run, run)
        path = run / "trials" / "mhng_t00_beliefs.csv"
        lines = path.read_text().splitlines()
        lines[line] = ",".join(lines[line].split(",")[:2] + probs)
        path.write_text("\n".join(lines) + "\n")
        assert run_cli("shuffle-control", "--run", str(run)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: line {line + 1}: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("column, value", [("true_x", -1), ("true_x", 6), ("true_y", 6)])
    def test_state_cell_out_of_range_fails_in_one_line(
        self, finished_run, tmp_path, capsys, column, value
    ):
        # The infant's states come from the trial CSV; iteration 30's second
        # round is inside the window, where a state indexes the parent's belief.
        run = tmp_path / "run"
        shutil.copytree(finished_run, run)
        path = run / "trials" / "mhng_t00.csv"
        lines = path.read_text().splitlines()
        line = 1 + 2 * 29 + 1
        cells = lines[line].split(",")
        cells[CSV_HEADER.index(column)] = str(value)
        lines[line] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        assert run_cli("shuffle-control", "--run", str(run)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: a true_x or true_y cell lies outside [0, 6)\n"

    def test_averages_the_runs_permutations_like_the_summary(self, tmp_path, capsys):
        out = tmp_path / "run"
        run_experiment(
            ExperimentConfig(
                conditions=("mhng",), trials=1, iterations=60, seed=4,
                shuffle_permutations=2, dump_beliefs=True, out_dir=str(out),
            )
        )
        assert run_cli("shuffle-control", "--run", str(out)) == 0
        result = json.loads(capsys.readouterr().out)
        summary = json.loads((out / "summary.json").read_text())
        expect = summary["conditions"]["mhng"]["trials"][0]["auc_shuffled"]
        # The CLI reads beliefs back from a CSV written with 9 digits.
        assert result["auc_shuffled"] == pytest.approx(expect, rel=1e-7)
        seed = str(result["permutation_seed"])
        assert run_cli("shuffle-control", "--run", str(out), "--seed", seed) == 0
        first_only = json.loads(capsys.readouterr().out)
        assert first_only["auc_shuffled"] != pytest.approx(expect, rel=1e-7)


class TestReport:
    def test_prints_table_and_ranking(self, finished_run, capsys):
        assert run_cli("report", "--run", str(finished_run)) == 0
        out = capsys.readouterr().out
        assert "condition" in out
        assert "ranking: mhng" in out
        assert "AUC" in out

    def test_missing_dir_fails(self, tmp_path, capsys):
        assert run_cli("report", "--run", str(tmp_path / "void")) == 1
        assert "error" in capsys.readouterr().err

    def test_smaller_rerun_leaves_no_stale_trials(self, tmp_path, capsys):
        out = tmp_path / "run"
        common = ("--conditions", "mhng", "--iterations", "5", "--seed", "4", "--out", str(out))
        assert run_cli("run", "--trials", "3", *common) == 0
        (out / "trials" / "notes.txt").write_text("mine\n")
        assert run_cli("run", "--trials", "1", *common) == 0
        assert sorted(p.name for p in (out / "trials").iterdir()) == ["mhng_t00.csv", "notes.txt"]
        capsys.readouterr()
        assert run_cli("report", "--run", str(out)) == 0
        row = next(line for line in capsys.readouterr().out.splitlines() if "mhng" in line)
        assert row.split()[:2] == ["mhng", "1"]


    @pytest.mark.parametrize("damage", ["cut", "cell"])
    def test_damaged_trial_csv_fails_in_one_line(self, finished_run, tmp_path, capsys, damage):
        run = tmp_path / "run"
        shutil.copytree(finished_run, run)
        path = run / "trials" / "mhng_t00.csv"
        lines = path.read_text().splitlines()
        if damage == "cut":
            # The header, iteration 1, and the first round of iteration 2.
            lines = lines[:4]
        else:
            cells = lines[5].split(",")
            cells[15] = "oops"
            lines[5] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        assert run_cli("report", "--run", str(run)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ")
        assert err.count("\n") == 1


class TestRunDirectory:
    """report and shuffle-control open a run through its manifest.json."""

    @pytest.fixture
    def run_copy(self, finished_run, tmp_path):
        run = tmp_path / "run"
        shutil.copytree(finished_run, run)
        return run

    def test_report_ignores_an_unlisted_trial_csv(self, run_copy, capsys):
        trials = run_copy / "trials"
        shutil.copy(trials / "mhng_t00.csv", trials / "mhng_t07.csv")
        assert run_cli("report", "--run", str(run_copy)) == 0
        row = next(line for line in capsys.readouterr().out.splitlines() if "mhng" in line)
        assert row.split()[:2] == ["mhng", "2"]

    def test_report_refuses_an_unlisted_trial_csv(self, run_copy, capsys):
        # The file is there, but the manifest does not list it.
        path = run_copy / "manifest.json"
        body = json.loads(path.read_text())
        body["artifacts"].remove("trials/mhng_t00.csv")
        path.write_text(json.dumps(body))
        assert run_cli("report", "--run", str(run_copy)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: does not list trials/mhng_t00.csv\n"

    # Fields of another JSON type than the readers of a run index them by.
    MISTYPED = {
        "seeds list": ("trial_seeds", []),
        "seeds not lists": ("trial_seeds", {"mhng": 3}),
        "artifacts null": ("artifacts", None),
    }

    @pytest.mark.parametrize("command", ["report", "shuffle-control"])
    @pytest.mark.parametrize(
        "damage", ["missing", "cut", "key removed", "bad config", *MISTYPED]
    )
    def test_damaged_manifest_fails_in_one_line(self, run_copy, capsys, command, damage):
        path = run_copy / "manifest.json"
        if damage == "missing":
            path.unlink()
        elif damage == "cut":
            path.write_text(path.read_text()[:200])
        else:
            body = json.loads(path.read_text())
            if damage == "key removed":
                del body["trial_seeds"]
            elif damage == "bad config":
                body["config"]["trials"] = 0
            else:
                key, value = self.MISTYPED[damage]
                body[key] = value
            path.write_text(json.dumps(body))
        assert run_cli(command, "--run", str(run_copy)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "manifest.json" in captured.err
        assert captured.err.count("\n") == 1

    def test_run_over_a_manifest_without_an_artifact_list(self, run_copy):
        # Such a manifest lists nothing to remove, as one that does not parse.
        path = run_copy / "manifest.json"
        body = json.loads(path.read_text())
        body["artifacts"] = None
        path.write_text(json.dumps(body))
        args = ("--conditions", "mhng", "--trials", "1", "--iterations", "5", "--out")
        assert run_cli("run", *args, str(run_copy)) == 0
        assert json.loads(path.read_text())["artifacts"]
        assert (run_copy / "trials" / "mhng_t01.csv").is_file()

    # per_trial_mean_c_norm values that are not a list of numbers, one per trial.
    NOT_NUMBER_LISTS = {
        "string cells": ["a", "b"], "string": "ab", "null": None, "flags": [True, False]
    }

    @pytest.mark.parametrize(
        "damage",
        ["empty object", "cut", *NOT_NUMBER_LISTS, "condition not run", "trial not run"],
    )
    def test_damaged_summary_is_named(self, run_copy, capsys, damage):
        # The last two name what the run does not hold; read as the run's,
        # report would print an a-led AUC line, or average trial 5's AUCs
        # into mhng's.
        path = run_copy / "summary.json"
        summary = json.loads(path.read_text())
        mhng = summary["conditions"]["mhng"]
        if damage in self.NOT_NUMBER_LISTS:
            mhng["per_trial_mean_c_norm"] = self.NOT_NUMBER_LISTS[damage]
            path.write_text(json.dumps(summary))
        elif damage == "condition not run":
            summary["conditions"]["a-led"] = mhng
            path.write_text(json.dumps(summary))
        elif damage == "trial not run":
            mhng["trials"].append({"trial": 5, "auc_original": 100.0, "auc_shuffled": 100.0})
            path.write_text(json.dumps(summary))
        else:
            path.write_text("{}" if damage == "empty object" else path.read_text()[:50])
        assert run_cli("report", "--run", str(run_copy)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: ")
        assert captured.err.count("\n") == 1
        if damage in self.NOT_NUMBER_LISTS:
            message = "per_trial_mean_c_norm must be a list of numbers"
            assert captured.err == f"error: {path}: {message}\n"

    @pytest.mark.parametrize(
        "entry",
        [
            {"auc_original": 1.0},
            {"auc_shuffled": 2.0},
            {"auc_original": "1", "auc_shuffled": 2.0},
            {"auc_original": None, "auc_shuffled": 2.0},
            3,
        ],
        ids=["original only", "shuffled only", "string", "null", "not an object"],
    )
    def test_half_filled_auc_entry_is_named(self, run_copy, capsys, entry):
        path = run_copy / "summary.json"
        summary = json.loads(path.read_text())
        summary["conditions"]["mhng"]["trials"][1] = entry
        path.write_text(json.dumps(summary))
        assert run_cli("report", "--run", str(run_copy)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {path}: a trials entry must hold both AUC numbers or neither\n"
        )

    @pytest.mark.parametrize("seeds", [{"mhng": []}, {}], ids=["empty list", "empty object"])
    def test_manifest_without_trials_is_named(self, run_copy, capsys, seeds):
        path = run_copy / "manifest.json"
        body = json.loads(path.read_text())
        body["trial_seeds"] = seeds
        path.write_text(json.dumps(body))
        assert run_cli("report", "--run", str(run_copy)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: lists no trials\n"

    def test_listed_trial_csv_that_is_gone_is_named(self, run_copy, capsys):
        path = run_copy / "trials" / "mhng_t01.csv"
        path.unlink()
        assert run_cli("report", "--run", str(run_copy)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert str(path) in captured.err
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "old, new, count",
        [("mhng,0,", "b-led,0,", -1), ("mhng,0,", "mhng,1,", -1), ("mhng,0,", "b-led,0,", 1)],
        ids=["condition", "trial", "one row"],
    )
    def test_relabelled_trial_csv_is_named(self, run_copy, capsys, old, new, count):
        # A trial CSV whose rows name another condition or trial than the
        # manifest entry that lists the file is not averaged anywhere.
        path = run_copy / "trials" / "mhng_t00.csv"
        header, body = path.read_text().split("\n", 1)
        path.write_text(header + "\n" + body.replace(old, new, count))
        assert run_cli("report", "--run", str(run_copy)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("damage", ["c_norm cell", "summary entry"])
    def test_edited_c_norm_disagrees_with_summary(self, run_copy, capsys, damage):
        # report ranks from the trial CSVs and takes its AUCs from
        # summary.json; the two must agree on every per-trial mean.
        if damage == "c_norm cell":
            path = run_copy / "trials" / "mhng_t01.csv"
            lines = path.read_text().splitlines()
            cells = lines[2].split(",")  # iteration 1, round 2
            cells[CSV_HEADER.index("c_norm")] = str(float(cells[CSV_HEADER.index("c_norm")]) / 2)
            lines[2] = ",".join(cells)
            path.write_text("\n".join(lines) + "\n")
        else:
            path = run_copy / "summary.json"
            summary = json.loads(path.read_text())
            del summary["conditions"]["mhng"]
            path.write_text(json.dumps(summary))
        assert run_cli("report", "--run", str(run_copy)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {run_copy / 'summary.json'}: ")
        assert "mhng" in captured.err
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "command, name",
        [
            ("report", "mhng_t00.csv"),
            ("shuffle-control", "mhng_t00_beliefs.csv"),
            # The dump is whole, but the trial CSV it is paired with is not.
            ("shuffle-control", "mhng_t00.csv"),
        ],
    )
    def test_file_cut_at_an_iteration_boundary_is_named(self, run_copy, capsys, command, name):
        # A shorter file that is whole in itself: 55 of the run's 60
        # iterations, two rows each. Read as it is, it would give numbers
        # for another run.
        path = run_copy / "trials" / name
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[: 1 + 55 * 2]) + "\n")
        assert run_cli(command, "--run", str(run_copy)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {path}: holds 55 iterations; the manifest's config has 60\n"
        )

    @pytest.mark.parametrize("command", ["report", "shuffle-control"])
    def test_config_is_parsed_once(self, finished_run, capsys, monkeypatch, command):
        # open_run parses the manifest's config once, for every reader.
        parsed = []
        from_dict = ExperimentConfig.from_dict

        def counted(data):
            parsed.append(data)
            return from_dict(data)

        monkeypatch.setattr(ExperimentConfig, "from_dict", counted)
        assert run_cli(command, "--run", str(finished_run)) == 0
        assert len(parsed) == 1

    def test_trial_output_is_not_a_finished_run(self, tmp_path, capsys):
        out = tmp_path / "t"
        assert run_cli("trial", "--iterations", "60", "--out", str(out), "--dump-beliefs") == 0
        capsys.readouterr()
        for command in ("report", "shuffle-control"):
            assert run_cli(command, "--run", str(out)) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.count("\n") == 1
            assert "manifest.json" in captured.err

    def test_trial_refuses_a_finished_run(self, run_copy, capsys):
        # trial and run share the default --out; a trial written over a
        # run's files would leave it reporting numbers of mixed origin.
        manifest = json.loads((run_copy / "manifest.json").read_text())
        names = ["manifest.json", *manifest["artifacts"]]
        before = {name: (run_copy / name).read_bytes() for name in names}
        code = run_cli("trial", "--seed", "9", "--dump-beliefs", "--out", str(run_copy))
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {run_copy} holds a finished run; give trial another --out\n"
        )
        assert {name: (run_copy / name).read_bytes() for name in names} == before


class TestShortRuns:
    """Runs too short for the alignment window still finish and report;
    only the shuffle control, which needs the window, refuses them."""

    @pytest.mark.parametrize("iterations", [1, 19, 20, 49])
    def test_run_report_and_shuffle_control(self, tmp_path, capsys, iterations):
        out = tmp_path / "run"
        code = run_cli(
            "run", "--trials", "1", "--iterations", str(iterations), "--seed", "6",
            "--out", str(out), "--dump-beliefs",
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        for entry in summary["conditions"].values():
            assert all("auc_original" not in trial for trial in entry["trials"])
        assert (out / "summary_auc.csv").read_bytes() == (
            b"condition,trial,auc_original,auc_shuffled\r\n"
        )
        assert run_cli("report", "--run", str(out)) == 0
        capsys.readouterr()
        assert run_cli("shuffle-control", "--run", str(out)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: window [20, 50] needs more than the {iterations} recorded iterations\n"
        )


class BrokenStdout(io.TextIOBase):
    """A stdout whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


class TestBrokenPipe:
    def test_closed_stdout_exits_nonzero_quietly(self, finished_run, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdout", BrokenStdout())
        code = run_cli("report", "--run", str(finished_run))
        assert code != 0
        assert capsys.readouterr().err == ""

    def test_closed_pipe_leaves_no_shutdown_message(self, finished_run):
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = dict(os.environ, PYTHONPATH=str(Path(dyadreg.__file__).parents[1]))
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "dyadreg.cli", "report", "--run", str(finished_run)],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.returncode != 0
        assert proc.stderr == b""


class TestOneParser:
    def test_parses_leave_no_state_behind(self, finished_run, capsys):
        cli.build_parser.cache_clear()
        run = ("--run", str(finished_run))
        manifest = json.loads((finished_run / "manifest.json").read_text())
        own_seed = shuffle_seeds(ExperimentConfig.from_dict(manifest["config"]), "mhng", 0)[0]
        assert run_cli("shuffle-control", *run, "--seed", "5") == 0
        assert json.loads(capsys.readouterr().out)["permutation_seed"] == 5
        assert run_cli("shuffle-control", *run) == 0
        assert json.loads(capsys.readouterr().out)["permutation_seed"] == own_seed
        assert run_cli("report", *run) == 0
        report = capsys.readouterr().out
        assert run_cli("--help") == 0
        assert capsys.readouterr().out.startswith("usage: dyadreg")
        assert run_cli("report", *run) == 0
        assert capsys.readouterr().out == report
        assert cli.build_parser.cache_info().misses == 1


class TestEntrypoints:
    def test_no_command_prints_help(self, capsys):
        assert run_cli() == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_condition_rejected(self):
        assert run_cli("trial", "--condition", "osmosis") == 2

    def test_bad_config_file_reports(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"trials": 0}')
        assert run_cli("run", "--config", str(bad)) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "body, field",
        [
            ({"branch_prob": "high"}, "branch_prob"),
            ({"c_sigma": None}, "c_sigma"),
            ({"conditions": 5}, "conditions"),
            ({"dump_beliefs": "no"}, "dump_beliefs"),
            ({"trials": True}, "trials"),
        ],
    )
    def test_wrongly_typed_config_fails_in_one_line(self, tmp_path, capsys, body, field):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(body))
        out = tmp_path / "out"
        code = run_cli(
            "run", "--config", str(bad), "--iterations", "3", "--trials", "1", "--out", str(out)
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {field} must be ")
        assert captured.err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "body, field",
        [
            ({"dirichlet_prior": 1e306}, "dirichlet_prior"),
            ({"dirichlet_prior": 1e200}, "dirichlet_prior"),
            ({"c_sigma": 1e-200}, "c_sigma"),
            ({"c_floor": 1e307}, "c_floor"),
            ({"c_values": [5e306] * 36}, "c_values"),
        ],
    )
    def test_config_the_model_cannot_compute_leaves_the_previous_run(
        self, tmp_path, capsys, body, field
    ):
        out = tmp_path / "out"
        small = ("--iterations", "3", "--trials", "1", "--conditions", "mhng", "--out", str(out))
        assert run_cli("run", *small) == 0
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        capsys.readouterr()
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(body))
        assert run_cli("run", "--config", str(bad), *small) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {field} ")
        assert captured.err.count("\n") == 1
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before

    def test_too_many_workers_fails_in_one_line(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("run", "--workers", "100000", "--trials", "1", "--out", str(out)) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: workers must be ")
        assert captured.err.count("\n") == 1
        assert not out.exists()

    def test_help_exits_zero(self):
        assert run_cli("--help") == 0
