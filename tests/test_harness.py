import concurrent.futures
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from dyadreg import agents, dialogue, harness
from dyadreg.agents import Agent, AgentKind, init_agent
from dyadreg.config import MAX_WORKERS, ExperimentConfig
from dyadreg.dialogue import CONDITION_NAMES, ROUND_ORDERS, DialogueOutcome, condition_codes
from dyadreg.environment import (
    Action,
    N_STATES,
    START_STATE,
    build_prior_preference,
    build_transition_model,
    to_xy,
)
from dyadreg.harness import (
    CSV_HEADER,
    build_summary,
    build_world,
    load_beliefs_csv,
    load_trial_csv,
    open_run,
    run_experiment,
    run_trial,
    shuffle_seed,
    trial_seed,
    write_beliefs_csv,
    write_trial_csv,
    write_trial_files,
)
from dyadreg.metrics import ROUND_DTYPE, TrialLog, aggregate_conditions, trial_files
from dyadreg.probability import KL_FLOOR, derive_seed, make_rng
import oracles
from oracles import column_kls, floored_kld_A, jsd_latent, learned_dynamics, mean_column_kl
from oracles import run_trial_keeping_agents
from oracles import write_beliefs_csv as write_beliefs_csv_generic
from oracles import write_trial_csv as write_trial_csv_generic

ITERATION_SERIES = ("c_norm", "jsd_z", "kld_A", "kld_B_sleep", "rare_branch")


def small_config(**changes):
    base = dict(conditions=("mhng",), trials=1, iterations=30, seed=3)
    base.update(changes)
    return ExperimentConfig(**base)


@pytest.fixture(scope="module")
def mhng_log():
    return run_trial(small_config(dump_beliefs=True), ["mhng"], [0])[0]


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
        assert mhng_log.parent_round_beliefs.shape == (60, 36)
        assert mhng_log.landing_states().shape == (60,)
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

    def test_outcome_fields_are_round_columns_in_order(self):
        # run_trial writes each outcome field by name into the record:
        # every field is a record column, in ROUND_DTYPE order, and all of
        # them come before rare_branch.
        names = list(ROUND_DTYPE.names)
        positions = [names.index(field) for field in DialogueOutcome._fields]
        assert positions == sorted(positions)
        assert positions[-1] < names.index("rare_branch")

    def test_beliefs_are_valid_rows(self, mhng_log):
        mat = mhng_log.parent_round_beliefs
        assert np.all(mat >= 0.0)
        assert np.allclose(mat.sum(axis=1), 1.0, atol=1e-9)

    @pytest.mark.parametrize("round_order", ROUND_ORDERS)
    @pytest.mark.parametrize("condition", CONDITION_NAMES)
    def test_infant_belief_is_the_landing_state(self, condition, round_order):
        # The log keeps only TrialLog.landing_states() for the infant, on
        # this ground: after every round its belief is one-hot at the state
        # the world landed in, the state it holds.
        world, pref = build_world(ExperimentConfig())
        parent, infant = (init_agent(kind, world, pref, trials=3) for kind in AgentKind)
        draws = iter(make_rng(derive_seed(17, condition, round_order)).random((1600, 3)))
        landed = []

        def on_round(speaker, outcome, z, rare):
            assert infant.state.tolist() == z.tolist()
            landed.append(z)

        z = np.full(3, START_STATE)
        for _ in range(200):
            z, _ = dialogue.run_iteration(
                parent, infant, world, z, condition_codes([condition] * 3), draws, round_order,
                on_round=on_round,
            )
        assert len(landed) == 400

    def test_final_counts_recorded(self, monkeypatch):
        # Two unit-mass learning events per iteration per agent, on top of
        # the flat prior.
        prior = small_config().dirichlet_prior
        _, (parent, infant) = run_trial_keeping_agents(monkeypatch, small_config(), "mhng", 0)
        assert parent.obs_concentration.sum() == pytest.approx(
            36 * 36 * prior + 60
        )
        assert infant.trans_concentration.sum() == pytest.approx(
            36 * 36 * 5 * prior + 60
        )

    def test_deterministic_per_seed(self):
        a = run_trial(small_config(), ["mhng"], [0])[0]
        b = run_trial(small_config(), ["mhng"], [0])[0]
        assert np.array_equal(a.rounds, b.rounds)
        c = run_trial(small_config(), ["mhng"], [1])[0]
        assert not np.array_equal(c.rounds, a.rounds)

    def test_an_integer_prior_runs_as_its_float(self):
        # JSON gives a whole-number prior as an int; the agents' counts are
        # floats all the same, so learning neither truncates nor fails.
        int_log, float_log = (
            run_trial(small_config(iterations=10, dirichlet_prior=prior), ["mhng"], [0])[0]
            for prior in (1, 1.0)
        )
        assert int_log.rounds.tobytes() == float_log.rounds.tobytes()

    def test_start_state(self):
        assert to_xy(START_STATE) == (2, 2)

    def test_persistent_mode_threads_symbols(self):
        log = run_trial(small_config(mh_current_w="persistent"), ["mhng"], [0])[0]
        # From the second round on, the listener's standing symbol is the
        # previous round's agreement, across iteration boundaries too.
        for prev, curr in zip(log.rounds, log.rounds[1:]):
            assert curr["listener_own_w"] == prev["shared_w"]

    def test_parent_led_overrides(self):
        log = run_trial(small_config(conditions=("a-led",)), ["a-led"], [0])[0]
        for r in log.rounds:
            if r["speaker"] == "infant":
                assert r["shared_w"] == r["listener_own_w"]
            else:
                assert r["accepted"] and r["shared_w"] == r["proposed_w"]


class TestTrialCsv:
    def test_round_trip(self, mhng_log, tmp_path):
        path = tmp_path / "trial.csv"
        write_trial_csv(mhng_log, path)
        rounds = load_trial_csv(path)
        again = TrialLog(str(rounds["condition"][0]), int(rounds["trial"][0]), mhng_log.seed, rounds)
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

    @pytest.mark.parametrize("condition", CONDITION_NAMES)
    def test_bytes_equal_the_csv_writer(self, condition, tmp_path):
        # The line template against the csv module's rows of _fmt cells,
        # with exact-zero, one and subnormal cells in every float column.
        log = run_trial(small_config(), [condition], [0])[0]
        for name in ("acceptance_prob", "c_norm", "jsd_z", "kld_A", "kld_B_sleep"):
            log.rounds[name][:4] = (0.0, 1.0, 5e-324, 2.5e-310)
        write_trial_csv(log, tmp_path / "fast.csv")
        write_trial_csv_generic(log, tmp_path / "csv.csv")
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "csv.csv").read_bytes()

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
    @pytest.mark.parametrize("mh_current_w", ["fresh", "persistent"])
    @pytest.mark.parametrize("round_order", ROUND_ORDERS)
    def test_equals_recomputing_every_round(self, monkeypatch, round_order, mh_current_w):
        # The first round learns from the infant's uniform start belief and
        # renews every Sleep column of each trial that sleeps in it: mhng
        # trial 0 and b-led trial 1 do under either round order, and a-led
        # trial 0 does not, so its columns keep the prior's. Each later Sleep
        # round renews one column per Sleep trial. After every round, each
        # trial's per-column errors equal those of its learned Sleep columns.
        sleep = Action.SLEEP
        every_round, slept = [], []

        def run_iteration(parent, infant, world, *args, on_round, **kwargs):
            def record(speaker, outcome, z, rare):
                learned_sleep = learned_dynamics(infant)[..., sleep]
                true_sleep = world.tensor[:, :, sleep]
                every_round.append([mean_column_kl(true_sleep, q) for q in learned_sleep])
                by_column = np.array([column_kls(true_sleep, q) for q in learned_sleep])
                assert infant.sleep_kls.tobytes() == by_column.tobytes()
                slept.append(outcome.shared_w == sleep)
                on_round(speaker, outcome, z, rare)

            return dialogue.run_iteration(parent, infant, world, *args, on_round=record, **kwargs)

        monkeypatch.setattr(harness, "run_iteration", run_iteration)
        config = small_config(iterations=120, round_order=round_order, mh_current_w=mh_current_w)
        logs = run_trial(config, CONDITION_NAMES, [0, 0, 1])
        assert slept[0].tolist() == [True, False, True]
        assert all(0 < n < len(slept) - 1 for n in np.sum(slept[1:], axis=0))
        recomputed = np.array(every_round).T
        for log, expected in zip(logs, recomputed):
            assert log.rounds["kld_B_sleep"].tobytes() == expected.tobytes()

    def test_the_first_round_renews_one_trial_at_a_time(self, monkeypatch):
        # In a 30-trial mixed batch, the infant's construction takes one
        # trial's 36 prior Sleep errors, which every trial copies, and round 1
        # renews the 36 of each trial that slept in it, with one kld_B_error
        # call per trial, so that no temporary holds the batch's columns; a
        # later round renews one column per Sleep trial in one call.
        calls, slept, agents_kld_B_error = [[]], [], agents.kld_B_error

        def kld_B_error(true_columns, means):
            calls[-1].append(len(true_columns))
            return agents_kld_B_error(true_columns, means)

        def run_iteration(*args, on_round, **kwargs):
            def record(speaker, outcome, *rest):
                on_round(speaker, outcome, *rest)
                slept.append(int(np.add.reduce(outcome.shared_w == Action.SLEEP)))
                calls.append([])

            if not slept:
                calls.append([])
            return dialogue.run_iteration(*args, on_round=record, **kwargs)

        monkeypatch.setattr(agents, "kld_B_error", kld_B_error)
        monkeypatch.setattr(harness, "run_iteration", run_iteration)
        conditions = [cond for cond in CONDITION_NAMES for _ in range(10)]
        run_trial(small_config(iterations=5), conditions, [*range(10)] * 3)
        construction, first, *later, _ = calls
        assert construction == [N_STATES]
        assert 0 < slept[0] < 30
        assert first == [N_STATES] * slept[0]
        assert later == [[n] for n in slept[1:]]
        assert max(n for columns in calls for n in columns) <= N_STATES


class TestSparseSensoryRefresh:
    """A round's learning moves only the rows of the parent's map of the
    states its belief reaches, and only those rows are renewed, in the map,
    its ambiguity and the round's map error: every other row must already
    hold what a full recompute from the counts gives."""

    @staticmethod
    def mixed_batch(**changes):
        """A 30-trial batch of the three conditions, ten trials each."""
        config = small_config(conditions=CONDITION_NAMES, **changes)
        conditions = [cond for cond in CONDITION_NAMES for _ in range(10)]
        return run_trial(config, conditions, [*range(10)] * 3)

    @pytest.mark.parametrize("mh_current_w", ["fresh", "persistent"])
    @pytest.mark.parametrize("round_order", ROUND_ORDERS)
    def test_equals_the_full_refresh_after_every_round(
        self, monkeypatch, round_order, mh_current_w
    ):
        # Trial 0's belief gets a subnormal cell in each round where it has a
        # zero cell, and its learning must count that state as reached.
        assimilate, subnormal, injected = Agent.assimilate, np.nextafter(0.0, 1.0), []
        expected_kld_A = []

        def with_a_subnormal_cell(self, action, obs):
            prev, belief = assimilate(self, action, obs)
            zeros = (belief[0] == 0.0).nonzero()[0]
            belief[0, zeros[:1]] = subnormal
            injected.append(zeros.size > 0)
            return prev, belief

        def run_iteration(parent, infant, world, *args, on_round, **kwargs):
            def record(speaker, outcome, z, rare):
                sensory, ambiguity, psi_terms = oracles.sensory_refresh(parent.obs_concentration)
                assert parent.A.strides == sensory.strides
                assert parent.A.tobytes() == sensory.tobytes()
                assert parent._sensory_entropy.tobytes() == ambiguity.tobytes()
                assert parent._psi_terms.tobytes() == psi_terms.tobytes()
                expected_kld_A.append(floored_kld_A(np.maximum(sensory, KL_FLOOR)))
                by_column = np.array([column_kls(np.eye(N_STATES), A) for A in sensory])
                assert parent.map_kls.tobytes() == by_column.tobytes()
                on_round(speaker, outcome, z, rare)

            return dialogue.run_iteration(parent, infant, world, *args, on_round=record, **kwargs)

        monkeypatch.setattr(Agent, "assimilate", with_a_subnormal_cell)
        monkeypatch.setattr(harness, "run_iteration", run_iteration)
        logs = self.mixed_batch(iterations=30, round_order=round_order, mh_current_w=mh_current_w)
        assert sum(injected) >= 30
        for log, kld_A in zip(logs, np.array(expected_kld_A).T):
            assert log.rounds["kld_A"].tobytes() == kld_A.tobytes()

    def test_only_the_rows_the_belief_reaches_are_renewed(self, monkeypatch):
        # The parent's construction renews every row of trial 0, and every
        # such row's map error, under its uniform belief, and the other
        # trials copy them. Then each round's learning renews exactly the
        # (trial, state) rows where the parent's belief is positive, in the
        # map and in its error.
        refresh, kld_A_error = Agent._refresh_sensory, agents.kld_A_error
        refreshed, errors, rounds = [], [], []

        def spy_refresh(self, t, z, *args):
            refreshed.append(((self.belief > 0.0).nonzero(), (t, z)))
            return refresh(self, t, z, *args)

        def spy_kld_A_error(columns, states):
            errors.append((columns.copy(), states.copy()))
            return kld_A_error(columns, states)

        def run_iteration(parent, infant, world, *args, on_round, **kwargs):
            def record(*round_args):
                on_round(*round_args)
                t, z = (parent.belief > 0.0).nonzero()
                rounds.append((errors[:], z, parent.A.swapaxes(1, 2)[t, z]))
                del errors[:]

            if not rounds:
                rounds.append((errors[:], None, parent.A.swapaxes(1, 2).copy()))
                del errors[:]
            return dialogue.run_iteration(parent, infant, world, *args, on_round=record, **kwargs)

        monkeypatch.setattr(Agent, "_refresh_sensory", spy_refresh)
        monkeypatch.setattr(agents, "kld_A_error", spy_kld_A_error)
        monkeypatch.setattr(harness, "run_iteration", run_iteration)
        self.mixed_batch(iterations=10)
        (start_calls, _, prior_columns), *later = rounds
        assert len(refreshed) == 1 + len(later) == 21
        (_, start_rows), *refreshed = refreshed
        assert [a.tolist() for a in start_rows] == [[0] * N_STATES, [*range(N_STATES)]]
        for reached, renewed in refreshed:
            assert [a.tolist() for a in renewed] == [a.tolist() for a in reached]
        ((given, states),) = start_calls
        assert states.tolist() == [*range(N_STATES)]
        assert given.tobytes() == prior_columns[0].tobytes()
        assert all(columns.tobytes() == given.tobytes() for columns in prior_columns)
        for calls, reached, columns in later:
            ((given, states),) = calls
            assert states.tolist() == reached.tolist()
            assert given.tobytes() == columns.tobytes()
        assert max(len(reached) for _, reached, _ in later) < 30 * N_STATES


class TestColumnsDerivedAfterTheLoop:
    @pytest.mark.parametrize("mh_current_w", ["fresh", "persistent"])
    @pytest.mark.parametrize("round_order", ROUND_ORDERS)
    @pytest.mark.parametrize("condition", CONDITION_NAMES)
    def test_equal_the_oracles_round_by_round(
        self, monkeypatch, condition, round_order, mh_current_w
    ):
        # What each round saw, with the scalar oracles applied to the live
        # agents, against the columns run_trial fills after the last round.
        config = small_config(iterations=40, round_order=round_order, mh_current_w=mh_current_w)
        _, pref = build_world(config)
        seen = []

        def run_iteration(parent, infant, world, *args, on_round, **kwargs):
            def record(speaker, outcome, z, rare):
                (state,) = z.tolist()
                seen.append(
                    (
                        speaker.kind.value,
                        state % 6,
                        state // 6,
                        # The comfort of the landing state over the best cell's.
                        float(pref.values[state] / pref.max_value),
                        jsd_latent(parent.belief[0].copy(), state),
                    )
                )
                on_round(speaker, outcome, z, rare)

            return dialogue.run_iteration(parent, infant, world, *args, on_round=record, **kwargs)

        monkeypatch.setattr(harness, "run_iteration", run_iteration)
        rounds = run_trial(config, [condition], [0])[0].rounds
        speaker, true_x, true_y, c_norm, jsd_z = map(np.array, zip(*seen))
        assert rounds["speaker"].tolist() == speaker.tolist()
        assert np.array_equal(rounds["true_x"], true_x)
        assert np.array_equal(rounds["true_y"], true_y)
        assert rounds["c_norm"].tobytes() == c_norm.tobytes()
        assert rounds["jsd_z"].tobytes() == jsd_z.tobytes()


class TestBatchReferee:
    """A trial's artifacts do not depend on the batch it ran in: a batch of
    one and a batch of several, of one condition or of all three, give the
    same bytes."""

    @staticmethod
    def files(log, out):
        out.mkdir()
        return [(out / name).read_bytes() for name in write_trial_files(log, out, True)]

    def assert_alone_equals(self, config, batch, out):
        """Each log of `batch` against its trial run as a batch of one."""
        for k, log in enumerate(batch):
            (alone,) = run_trial(config, [log.condition], [log.trial_index])
            assert (alone.seed, alone.condition) == (log.seed, log.condition)
            assert self.files(alone, out / f"alone{k}") == self.files(log, out / f"batch{k}")

    @pytest.mark.parametrize("preference_mode", ["linear", "softmax"])
    @pytest.mark.parametrize("mh_current_w", ["fresh", "persistent"])
    @pytest.mark.parametrize("round_order", ROUND_ORDERS)
    @pytest.mark.parametrize("condition", CONDITION_NAMES)
    def test_a_batch_of_one_equals_a_batch_of_four(
        self, tmp_path, condition, round_order, mh_current_w, preference_mode
    ):
        config = small_config(
            iterations=25,
            round_order=round_order,
            mh_current_w=mh_current_w,
            preference_mode=preference_mode,
        )
        batch = run_trial(config, [condition] * 4, range(4))
        assert [log.trial_index for log in batch] == [0, 1, 2, 3]
        self.assert_alone_equals(config, batch, tmp_path)

    @pytest.mark.parametrize("preference_mode", ["linear", "softmax"])
    @pytest.mark.parametrize("mh_current_w", ["fresh", "persistent"])
    @pytest.mark.parametrize("round_order", ROUND_ORDERS)
    def test_a_mixed_batch_equals_batches_of_one(
        self, tmp_path, round_order, mh_current_w, preference_mode
    ):
        # All three conditions, two trials each, advance through each round
        # together: the MH trials take the acceptance rule, the others the
        # one-sided rule, and each its own uniforms.
        config = small_config(
            conditions=CONDITION_NAMES,
            iterations=25,
            round_order=round_order,
            mh_current_w=mh_current_w,
            preference_mode=preference_mode,
        )
        conditions = [cond for cond in CONDITION_NAMES for _ in range(2)]
        batch = run_trial(config, conditions, [0, 1] * 3)
        assert [(log.condition, log.trial_index) for log in batch] == [
            (cond, t) for cond in CONDITION_NAMES for t in (0, 1)
        ]
        assert all((log.rounds["condition"] == log.condition).all() for log in batch)
        self.assert_alone_equals(config, batch, tmp_path)

    def test_a_condition_name_is_not_a_list_of_conditions(self):
        with pytest.raises(ValueError, match="'m' is not a valid Condition"):
            run_trial(small_config(), "mhng", [0])

    @pytest.mark.parametrize("mh_current_w", ["fresh", "persistent"])
    def test_a_one_sided_trial_draws_in_a_mixed_batch_what_it_draws_alone(
        self, monkeypatch, mh_current_w
    ):
        # Every uniform row the round path takes, and every trial's
        # generator: a one-sided trial skips its rounds' MH rows and draws
        # from its generator exactly the uniforms it reads, as it does alone.
        config = small_config(iterations=25, mh_current_w=mh_current_w)

        def run(conditions, trials):
            rows, generators = [], []
            make_rng, run_iteration = dialogue.make_rng, harness.run_iteration

            def keep(seed):
                generators.append(make_rng(seed))
                return generators[-1]

            def recording(*args, **kwargs):
                draws = map(lambda row: rows.append(row.copy()) or row, args[5])
                return run_iteration(*args[:5], draws, *args[6:], **kwargs)

            with monkeypatch.context() as patch:
                patch.setattr(dialogue, "make_rng", keep)
                patch.setattr(harness, "run_iteration", recording)
                logs = run_trial(config, conditions, trials)
            return np.array(rows), generators, logs

        mixed, generators, logs = run(["mhng", "a-led", "b-led", "a-led"], [0, 0, 0, 1])
        rounds = 2 * config.iterations
        widths = [4] + [3 if mh_current_w == "persistent" else 4] * (rounds - 1)
        mh_rows = np.cumsum(widths) - 2
        assert len(mixed) == sum(widths)

        def state_after(seed, k):
            rng = make_rng(seed)
            return rng.random(k), rng.bit_generator.state

        drawn, state = state_after(logs[0].seed, len(mixed))
        assert mixed[:, 0].tobytes() == drawn.tobytes()
        assert generators[0].bit_generator.state == state
        for t in (1, 2, 3):
            alone, alone_generators, _ = run([logs[t].condition], [logs[t].trial_index])
            assert alone[:, 0].tobytes() == mixed[:, t].tobytes()
            drawn, state = state_after(logs[t].seed, len(mixed) - rounds)
            assert np.delete(mixed[:, t], mh_rows).tobytes() == drawn.tobytes()
            assert generators[t].bit_generator.state == state
            assert alone_generators[0].bit_generator.state == state

    def test_a_run_split_into_two_batches_of_pairs_equals_a_serial_run(
        self, tmp_path, monkeypatch
    ):
        # A stand-in pool runs the jobs in order in this process, as
        # --workers 2 would in two: the run's 15 (condition, trial) pairs,
        # condition-major, as the contiguous batches of 8 and 7 pairs.
        batches = []

        class InlinePool:
            def __init__(self, max_workers):
                assert max_workers == 2

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                batches.extend(zip(iterables[1], iterables[2]))
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        config = small_config(
            conditions=CONDITION_NAMES, trials=5, iterations=20, dump_beliefs=True,
            mh_current_w="persistent", round_order="parent-first", preference_mode="softmax",
        )
        serial = run_experiment(config.replaced(out_dir=str(tmp_path / "serial")))
        split = run_experiment(config.replaced(out_dir=str(tmp_path / "split"), workers=2))
        pairs = [(c, t) for c in CONDITION_NAMES for t in range(5)]
        assert [list(zip(*batch)) for batch in batches] == [pairs[:8], pairs[8:]]
        assert split.artifacts == serial.artifacts
        for rel in serial.artifacts:
            assert (tmp_path / "split" / rel).read_bytes() == (tmp_path / "serial" / rel).read_bytes()

    def test_a_mixed_batch_of_thirty_stays_within_its_memory(self):
        # One 30-trial mixed batch of 60 iterations holds its world, 30
        # infants' counts, 52 KB each, the parents' maps, the uniforms and
        # the record. Each agent computes one trial's start and copies it,
        # and learn_B's all-column work from the uniform start runs one
        # trial at a time, so the peak of what numpy allocates stays below
        # 4,915 KiB: 4,774 KiB, reached in round 1, whose belief reaches
        # most states, and 5,091 KiB with learn_B's counting batched for the
        # whole batch. A warm-up call first fills every cache.
        config = ExperimentConfig(iterations=60, mh_current_w="persistent")
        conditions = [cond for cond in config.conditions for _ in range(10)]
        trials = [*range(10)] * len(config.conditions)
        run_trial(config, conditions, trials)
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            logs = run_trial(config, conditions, trials)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(logs) == 30
        assert (peak - start) / 1024 <= 4915


def trap_lines(rows, row, cells):
    """Copies of a CSV's data lines, each with one edit at line `row` that a
    general CSV or number reader would take and the loaders refuse: a blank
    line before it, the line commented out or given a trailing comma, or one
    (column, text) of `cells` in place of that cell, such as a quoted number
    or digit underscores."""
    yield rows[:row] + [""] + rows[row:]
    yield rows[:row] + ["#" + rows[row]] + rows[row + 1 :]
    yield rows[:row] + [rows[row] + ","] + rows[row + 1 :]
    for column, text in cells:
        line = rows[row].split(",")
        line[column] = text
        yield rows[:row] + [",".join(line)] + rows[row + 1 :]


class TestTrialCsvFuzz:
    def test_damaged_files_fail_naming_the_file(self, mhng_log, tmp_path):
        # Cut after a random row, swap two rows, or corrupt a numeric cell.
        good = tmp_path / "good.csv"
        write_trial_csv(mhng_log, good)
        header, *rows = good.read_text().splitlines()
        # The file is written with CRLF line ends; it loads the same with LF.
        lf = tmp_path / "lf.csv"
        lf.write_text("\n".join([header, *rows]) + "\n")
        assert load_trial_csv(lf).tobytes() == load_trial_csv(good).tobytes()
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
                assert load_trial_csv(path)["jsd_z"][1::2].size == kept // 2
                continue
            with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
                load_trial_csv(path)

    # Under Python's default filters, as the CLI runs: the loader itself must
    # refuse a float in an int column, not a test-only warning filter.
    @pytest.mark.filterwarnings("default::DeprecationWarning")
    def test_cells_a_general_reader_takes_fail_naming_the_file(self, mhng_log, tmp_path):
        good = tmp_path / "good.csv"
        write_trial_csv(mhng_log, good)
        header, *rows = good.read_text().splitlines()
        # Row 18 is iteration 10's first, round 1. int() and float() read 1_0
        # as 10; a cast would read 10.0 and 10.5 as 10, 1.0 as 1, 0.7 as 0
        # and 200 as -56 in the int8 action column.
        column = CSV_HEADER.index
        cells = [
            (column("acceptance_prob"), '"0.5"'),
            (column("iteration"), "1_0"),
            (column("c_norm"), "1_0"),
            (column("iteration"), "10.0"),
            (column("iteration"), "10.5"),
            (column("round"), "1.0"),
            (column("accepted"), "0.7"),
            (column("action"), "200"),
            (column("action"), "nan"),
            (column("trial"), "3000000000"),
        ]
        for case, lines in enumerate(trap_lines(rows, 18, cells)):
            path = tmp_path / f"trap{case}.csv"
            path.write_text("\n".join([header, *lines]) + "\n")
            with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
                load_trial_csv(path)
        # A cell that does not parse is named by its file line and column.
        with pytest.raises(ValueError) as exc:
            load_trial_csv(path)
        assert str(exc.value) == (
            f"{path}: line 20, column trial: could not convert string '3000000000' to int32"
        )

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
        parent_rounds = load_beliefs_csv(path)
        assert parent_rounds.shape == (60, 36)
        assert np.allclose(parent_rounds, mhng_log.parent_round_beliefs, atol=1e-9)

    def test_one_line_per_round_of_the_parent(self, mhng_log, tmp_path):
        # The infant's belief is one-hot at the state the trial CSV holds.
        path = tmp_path / "beliefs.csv"
        write_beliefs_csv(mhng_log, path)
        header, *rows = path.read_text().splitlines()
        assert header == ",".join(["iteration", "round"] + [f"q{i:02d}" for i in range(36)])
        assert [row.split(",", 2)[:2] for row in rows[:3]] == [["1", "1"], ["1", "2"], ["2", "1"]]
        assert len(rows) == len(mhng_log.rounds)

    def test_bytes_equal_the_csv_writer(self, tmp_path):
        # The per-row template against the csv module's rows of _fmt cells,
        # with one-hot, uniform and exact-zero rows, and a row whose exact
        # zeros sit beside -0.0, subnormal, smallest normal and one cells:
        # only +0.0 has the bits of the cell "0".
        log = run_trial(small_config(dump_beliefs=True), ["mhng"], [0])[0]
        log.parent_round_beliefs[:3] = np.eye(36)[[0, 35, 7]]
        log.parent_round_beliefs[3] = np.full(36, 1.0 / 36)
        log.parent_round_beliefs[4] = 0.0
        tiny = np.finfo(float).tiny
        log.parent_round_beliefs[4, [1, 3, 5, 7, 9]] = (-0.0, 5e-324, 2.5e-310, tiny, 1.0)
        write_beliefs_csv(log, tmp_path / "fast.csv")
        write_beliefs_csv_generic(log, tmp_path / "csv.csv")
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "csv.csv").read_bytes()

    @pytest.mark.parametrize("condition", CONDITION_NAMES)
    def test_bytes_equal_the_generic_writer(self, condition, tmp_path):
        log = run_trial(small_config(dump_beliefs=True), [condition], [0])[0]
        write_beliefs_csv(log, tmp_path / "fast.csv")
        write_beliefs_csv_generic(log, tmp_path / "generic.csv")
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "generic.csv").read_bytes()
        parent_rounds = load_beliefs_csv(tmp_path / "fast.csv")
        assert np.allclose(parent_rounds, log.parent_round_beliefs, atol=1e-9)

    def test_same_bytes_with_or_without_the_dump_flag(self, mhng_log, tmp_path):
        # Every trial records the parent's beliefs; the flag only decides
        # whether a run writes them.
        write_beliefs_csv(mhng_log, tmp_path / "dump.csv")
        write_beliefs_csv(run_trial(small_config(), ["mhng"], [0])[0], tmp_path / "plain.csv")
        assert (tmp_path / "plain.csv").read_bytes() == (tmp_path / "dump.csv").read_bytes()

    def test_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n1,2\n")
        with pytest.raises(ValueError):
            load_beliefs_csv(path)
        # A dump with an agent column and infant rows is not this format.
        header = ["iteration", "round", "agent"] + [f"q{i:02d}" for i in range(36)]
        path.write_text(",".join(header) + "\n1,1,parent" + ",0" * 35 + ",1\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: unexpected CSV header"):
            load_beliefs_csv(path)

    def test_damaged_files_fail_naming_the_file(self, mhng_log, tmp_path):
        # Drop an iteration, swap two rows, corrupt a cell, or make a row
        # ragged.
        good = tmp_path / "good.csv"
        write_beliefs_csv(mhng_log, good)
        header, *rows = good.read_text().splitlines()
        # The file is written with CRLF line ends; it loads the same with LF.
        lf = tmp_path / "lf.csv"
        lf.write_text("\n".join([header, *rows]) + "\n")
        assert load_beliefs_csv(lf).tobytes() == load_beliefs_csv(good).tobytes()
        rng = np.random.default_rng(2025)
        for case in range(80):
            lines = list(rows)
            kind = case % 4
            if kind == 0:
                # Any iteration but the last, whose loss leaves a valid,
                # shorter dump.
                it = int(rng.integers(len(lines) // 2 - 1))
                del lines[2 * it : 2 * it + 2]
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
        # Row 18 is iteration 10's first. int() reads 1_0 as 10, and float()
        # reads 0_0 as 0, which leaves the belief as it was.
        zero = rows[18].split(",").index("0", 2)
        cells = [(zero, '"0"'), (0, "1_0"), (zero, "1_0"), (zero, "0_0"), (0, "10.0")]
        for case, lines in enumerate(trap_lines(rows, 18, cells)):
            path = tmp_path / f"trap{case}.csv"
            path.write_text("\n".join([header, *lines]) + "\n")
            with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
                load_beliefs_csv(path)
        # A cell that does not parse is named by its file line and column.
        path = tmp_path / "bad_cell.csv"
        line = rows[18].split(",")
        line[2 + 5] = "x"
        path.write_text("\n".join([header, *rows[:18], ",".join(line), *rows[19:]]) + "\n")
        with pytest.raises(ValueError) as exc:
            load_beliefs_csv(path)
        assert str(exc.value) == (
            f"{path}: line 20, column q05: could not convert string 'x' to float64"
        )


class TestLoadersEqualTheOracles:
    """The one-pass loaders give the bytes of the cell-by-cell loaders."""

    @staticmethod
    def assert_same_bytes(log, tmp_path):
        trial, beliefs = tmp_path / "trial.csv", tmp_path / "beliefs.csv"
        write_trial_csv(log, trial)
        write_beliefs_csv(log, beliefs)
        new, old = load_trial_csv(trial), oracles.load_trial_csv(trial)
        assert new.tobytes() == old.tobytes()
        assert (new["condition"][0], new["trial"][0]) == (old["condition"][0], old["trial"][0])
        a, b = load_beliefs_csv(beliefs), oracles.load_beliefs_csv(beliefs)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())

    @pytest.mark.parametrize("mh_current_w", ["fresh", "persistent"])
    @pytest.mark.parametrize("round_order", ROUND_ORDERS)
    @pytest.mark.parametrize("condition", CONDITION_NAMES)
    def test_every_condition_and_order(self, tmp_path, condition, round_order, mh_current_w):
        config = small_config(round_order=round_order, mh_current_w=mh_current_w)
        self.assert_same_bytes(run_trial(config, [condition], [3])[0], tmp_path)

    def test_exact_zeros_and_subnormal_cells(self, tmp_path):
        log = run_trial(small_config(), ["mhng"], [0])[0]
        beliefs = log.parent_round_beliefs
        beliefs[:4] = np.eye(36)[[0, 35, 7, 12]]
        beliefs[0, 1:4] = [5e-324, 2.5e-310, np.finfo(float).smallest_normal]
        beliefs[1, :3] = [1e-320, 0.0, 1e-309]
        self.assert_same_bytes(log, tmp_path)
        assert "4.94065646e-324" in (tmp_path / "beliefs.csv").read_text()


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
        logs = run_trial(cfg, ["mhng"], [0])
        summary = build_summary(cfg, logs, aggregate_conditions(logs))
        entry = summary["conditions"]["mhng"]["trials"][0]
        assert {"jsd_median", "auc_original", "auc_shuffled"} <= set(entry)
        assert summary["c_norm_ranking"] == ["mhng"]

    def test_windows_absent_when_short(self):
        cfg = small_config(iterations=30)
        logs = run_trial(cfg, ["mhng"], [0])
        summary = build_summary(cfg, logs, aggregate_conditions(logs))
        entry = summary["conditions"]["mhng"]["trials"][0]
        assert "auc_original" not in entry

    def test_shuffled_auc_uses_mean_of_permutations(self):
        cfg = small_config(iterations=60)
        logs = run_trial(cfg, ["mhng"], [0])
        agg = aggregate_conditions(logs)
        one = build_summary(cfg, logs, agg)["conditions"]["mhng"]["trials"][0]
        many_cfg = cfg.replaced(shuffle_permutations=4)
        many = build_summary(many_cfg, logs, agg)["conditions"]["mhng"]["trials"][0]
        assert one["auc_original"] == many["auc_original"]
        assert one["auc_shuffled"] != many["auc_shuffled"]

    def test_kld_snapshots(self):
        cfg = small_config(iterations=25)
        logs = run_trial(cfg, ["mhng"], [0])
        summary = build_summary(cfg, logs, aggregate_conditions(logs))
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


class TestWriteCsv:
    def test_every_table_equals_the_csv_module(self, tmp_path, monkeypatch):
        # Every CSV of a run goes through _write_csv. The summary tables'
        # templates, as run_experiment passes them, must give the csv
        # module's bytes for an exact zero, a subnormal, 1e300 and a
        # negative value in every float column.
        templates = {}
        write_csv = harness._write_csv

        def record(path, header, line, rows):
            templates[Path(path).name] = (header, line)
            write_csv(path, header, line, rows)

        monkeypatch.setattr(harness, "_write_csv", record)
        out = tmp_path / "run"
        run_experiment(small_config(iterations=5, dump_beliefs=True, out_dir=str(out)))
        assert sorted(templates) == sorted(path.name for path in out.rglob("*.csv"))

        def cell(column, k, value):
            if column == "condition":
                return CONDITION_NAMES[k % len(CONDITION_NAMES)]
            return k if column in ("trial", "n_trials", "iteration") else harness._fmt(value)

        for name in ("summary_cnorm.csv", "summary_auc.csv", "curves_mhng.csv"):
            header, line = templates[name]
            rows = [
                tuple(cell(column, k, value) for column in header)
                for k, value in enumerate((0.0, 5e-324, 1e300, -0.25))
            ]
            write_csv(tmp_path / "fast.csv", header, line, rows)
            oracles.write_csv(tmp_path / "csv.csv", header, rows)
            assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "csv.csv").read_bytes()


class TestRunExperiment:
    def test_manifest_lists_real_files(self, run_dir):
        out, _, manifest = run_dir
        for rel in manifest.artifacts:
            assert (out / rel).is_file(), rel
        assert manifest.version

    def test_manifest_round_trips(self, run_dir):
        out, cfg, manifest = run_dir
        run = open_run(out)
        assert run.manifest.artifacts == manifest.artifacts
        assert run.manifest.trial_seeds == {
            c: [trial_seed(cfg.seed, c, t) for t in range(2)] for c in cfg.conditions
        }
        assert run.config == cfg.replaced(out_dir=".", workers=1)

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

    def test_dump_flag_changes_only_which_files_are_written(self, run_dir, tmp_path):
        out, cfg, manifest = run_dir
        plain = tmp_path / "plain"
        plain_manifest = run_experiment(cfg.replaced(out_dir=str(plain), dump_beliefs=False))
        extra = set(manifest.artifacts) - set(plain_manifest.artifacts)
        assert extra == {trial_files(c, t)[1] for c in cfg.conditions for t in range(2)}
        for rel in plain_manifest.artifacts:
            if rel != "config.json":
                assert (plain / rel).read_bytes() == (out / rel).read_bytes(), rel
        bodies = [json.loads((d / "manifest.json").read_text()) for d in (out, plain)]
        for body in bodies:
            for key in ("timings", "config", "artifacts"):
                del body[key]
        assert bodies[0] == bodies[1]

    def test_workers_do_not_change_artifacts(self, run_dir, tmp_path):
        out, cfg, manifest = run_dir
        par = tmp_path / "par"
        run_experiment(cfg.replaced(out_dir=str(par), workers=2))
        for rel in manifest.artifacts:
            assert (par / rel).read_bytes() == (out / rel).read_bytes(), rel

    @pytest.mark.parametrize("workers, trials, started", [(MAX_WORKERS, 3, [3]), (8, 1, [])])
    def test_pool_starts_at_most_one_process_per_trial(
        self, tmp_path, monkeypatch, workers, trials, started
    ):
        # A stand-in pool that records its size and runs the jobs in order,
        # so no process is started.
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        # run_experiment imports the pool only when it starts one.
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        cfg = small_config(trials=trials, iterations=3, workers=workers, out_dir=str(tmp_path))
        run_experiment(cfg)
        assert sizes == started

    def test_world_is_built_once_per_run(self, tmp_path, monkeypatch):
        # Each batch builds its world, and a serial run is one batch.
        built = []

        def counting_build_world(config):
            built.append(config)
            return build_world(config)

        monkeypatch.setattr(harness, "build_world", counting_build_world)
        cfg = small_config(conditions=("mhng", "b-led"), trials=2, iterations=3)
        run_experiment(cfg.replaced(out_dir=str(tmp_path)))
        assert len(built) == 1
