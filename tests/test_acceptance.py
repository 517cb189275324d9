"""End-to-end acceptance battery.

Eight headline checks over the default experiment grid (10 trials of
1,000 iterations per condition, repeated over 3 root seeds where the
check demands it). Each check prints one PASS/FAIL line with its pinned
tolerances; the asserts carry the same numbers.
"""

from pathlib import Path

import numpy as np
import pytest

import conftest

from dyadreg.agents import Agent, AgentKind
from dyadreg.config import ExperimentConfig
from dyadreg.dialogue import Condition, run_round
from dyadreg.environment import (
    Action,
    build_prior_preference,
    build_transition_model,
    preferred_obs_distribution,
)
from dyadreg.harness import (
    START_STATE,
    build_summary,
    open_run,
    run_experiment,
    run_trial,
)
from dyadreg.probability import (
    Categorical,
    make_rng,
)
from dyadreg.metrics import jsd_latent
from oracles import js_divergence, kl_divergence, run_trial_keeping_agents, set_belief
from oracles import jsd_latent as scalar_jsd_latent

SEEDS = (0, 1, 2)
DEFAULT_SEED = 0
CONDITIONS = ("mhng", "a-led", "b-led")
TRIALS = 10


def verdict(num: int, ok: bool, detail: str) -> None:
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    conftest.criterion_verdicts.append(line)


@pytest.fixture(scope="module")
def grid():
    runs = {}
    for seed in SEEDS:
        cfg = ExperimentConfig(seed=seed)
        runs[seed] = {
            cond: [run_trial(cfg, cond, t) for t in range(TRIALS)]
            for cond in CONDITIONS
        }
    return runs


@pytest.fixture(scope="module")
def mhng_summary(grid):
    cfg = ExperimentConfig(seed=DEFAULT_SEED)
    return build_summary(cfg, grid[DEFAULT_SEED]["mhng"])


def mean_curve(logs, name):
    return np.vstack([lg.iteration_series(name) for lg in logs]).mean(axis=0)


def test_criterion_1_condition_ordering(grid):
    details = []
    ok = True
    for seed in SEEDS:
        means = {
            cond: float(
                np.mean(
                    [lg.iteration_series("c_norm").mean() for lg in grid[seed][cond]]
                )
            )
            for cond in CONDITIONS
        }
        gap = means["mhng"] - means["b-led"]
        ordered = means["mhng"] > means["a-led"] > means["b-led"]
        ok = ok and ordered and gap > 0.02
        details.append(
            f"seed {seed}: {means['mhng']:.4f} > {means['a-led']:.4f} > "
            f"{means['b-led']:.4f}, gap {gap:.4f}"
        )
    verdict(1, ok, "; ".join(details) + " (need strict order, gap > 0.02)")
    for seed in SEEDS:
        means = {
            cond: float(
                np.mean(
                    [lg.iteration_series("c_norm").mean() for lg in grid[seed][cond]]
                )
            )
            for cond in CONDITIONS
        }
        assert means["mhng"] > means["a-led"], f"seed {seed}: {means}"
        assert means["a-led"] > means["b-led"], f"seed {seed}: {means}"
        assert means["mhng"] - means["b-led"] > 0.02, f"seed {seed}: {means}"


def sleep_column_counts(log, iterations):
    """Sleep actions counted by the state they were taken from, which is the
    infant transition column they teach, over the first `iterations`
    iterations of a trial."""
    counts = np.zeros(36)
    prev = START_STATE.flat
    for rec in log.rounds[: 2 * iterations]:
        if rec["action"] == Action.SLEEP:
            counts[prev] += 1
        prev = rec["true_y"] * 6 + rec["true_x"]
    return counts


def test_criterion_2_generative_model_convergence(grid):
    logs = grid[DEFAULT_SEED]["mhng"]
    ka = mean_curve(logs, "kld_A")
    kb = mean_curve(logs, "kld_B_sleep")
    ratio_a = ka[499] / ka[0]
    ratio_b = kb[499] / kb[0]
    window = np.ones(50) / 50
    smooth_ok = all(
        np.all(np.diff(np.convolve(curve, window, mode="valid")) <= 1e-9)
        for curve in (ka, kb)
    )
    ok = ratio_a < 0.25 and ratio_b < 0.25 and smooth_ok
    sleep_counts = np.array([sleep_column_counts(lg, 500) for lg in logs])
    unvisited = float((sleep_counts == 0).sum(axis=1).mean())
    verdict(
        2,
        ok,
        f"kld_A@500/@1 = {ratio_a:.3f}, kld_B_sleep@500/@1 = {ratio_b:.3f} "
        f"(need < 0.25 each), MA(50) non-increasing = {smooth_ok}; "
        f"by iteration 500, per trial: {unvisited:.1f} of 36 Sleep columns "
        f"unvisited, {sleep_counts.mean():.2f} Sleep counts per column",
    )
    assert smooth_ok, "smoothed learning-error curves must be non-increasing"
    assert ratio_a < 0.25, (
        f"kld_A at iteration 500 is {ratio_a:.1%} of its iteration-1 value "
        f"({ka[499]:.4f} vs {ka[0]:.4f}); threshold 25%"
    )
    assert ratio_b < 0.25, (
        f"kld_B_sleep at iteration 500 is {ratio_b:.1%} of its iteration-1 value "
        f"({kb[499]:.4f} vs {kb[0]:.4f}); threshold 25%"
    )


def test_criterion_3_rapid_latent_alignment(grid, mhng_summary):
    logs = grid[DEFAULT_SEED]["mhng"]
    medians = [t["jsd_median"] for t in mhng_summary["conditions"]["mhng"]["trials"]]
    aligned = sum(m < 0.1 for m in medians)
    ka = mean_curve(logs, "kld_A")
    kb = mean_curve(logs, "kld_B_sleep")
    early_a = ka[19] / ka[0]
    early_b = kb[19] / kb[0]
    ok = aligned >= 8 and early_a > 0.5 and early_b > 0.5
    verdict(
        3,
        ok,
        f"median jsd_z(20-50) < 0.1 in {aligned}/10 trials (need >= 8); "
        f"kld@20/@1: A {early_a:.2f}, B {early_b:.2f} (need > 0.5)",
    )
    assert aligned >= 8, f"only {aligned}/10 trials aligned; medians {medians}"
    assert early_a > 0.5 and early_b > 0.5, "alignment must precede model learning"


def test_criterion_4_shuffle_control(mhng_summary):
    trials = mhng_summary["conditions"]["mhng"]["trials"]
    wins = sum(t["auc_shuffled"] > t["auc_original"] for t in trials)
    verdict(4, wins >= 9, f"shuffled AUC > original in {wins}/10 trials (need >= 9)")
    assert wins >= 9, [
        (t["auc_original"], t["auc_shuffled"]) for t in trials
    ]


def test_batched_divergence_on_every_round_of_the_grid(grid):
    # The row-batched divergence gives the scalar oracle's bits on all
    # 180,000 rounds of the grid.
    for runs in grid.values():
        for logs in runs.values():
            for log in logs:
                p, k = log.parent_round_beliefs, log.landing_states()
                expected = np.array([scalar_jsd_latent(*pair) for pair in zip(p, k)]).tobytes()
                assert log.rounds["jsd_z"].tobytes() == expected
                assert jsd_latent(p, k).tobytes() == expected


def test_criterion_5_spike_association(mhng_summary):
    trials = mhng_summary["conditions"]["mhng"]["trials"]
    wins = sum(t["jsd_mean_rare"] > t["jsd_mean_ordinary"] for t in trials)
    verdict(
        5,
        wins >= 8,
        f"rare-iteration jsd_z mean > ordinary mean in {wins}/10 trials (need >= 8)",
    )
    assert wins >= 8, [
        (t["jsd_mean_rare"], t["jsd_mean_ordinary"]) for t in trials
    ]


class PinnedAgent:
    """A dyad role and an agent's symbol posterior, computed once: with the
    belief frozen, every round would recompute the same vector. The role
    decides who speaks; the agent need not be of that kind."""

    def __init__(self, kind, agent):
        self.kind = kind
        self._posterior = agent.symbol_posterior()

    def symbol_posterior(self):
        return self._posterior


def test_criterion_6_mh_stationarity_oracle():
    # Frozen beliefs, the agreed symbol carried between rounds: the chain
    # must sample the normalized product of the two symbol posteriors.
    world = build_transition_model()
    pref = build_prior_preference()
    fixture_rng = make_rng(606)
    worst = 0.0
    for fixture in range(5):
        agents = []
        for kind in (AgentKind.PARENT, AgentKind.INFANT):
            agent = Agent(AgentKind.INFANT, world.tensor, preferred_obs_distribution(pref))
            set_belief(agent, Categorical(fixture_rng.dirichlet(np.ones(36))).probs)
            agents.append(PinnedAgent(kind, agent))
        parent, infant = agents
        target = parent.symbol_posterior() * infant.symbol_posterior()
        target = target / target.sum()
        rng = make_rng(7000 + fixture)
        current = 0
        counts = np.zeros(5)
        for _ in range(100_000):
            out = run_round(infant, parent, Condition.MHNG, rng, current_w=current)
            current = out.shared_w
            counts[current] += 1
        tv = 0.5 * float(np.abs(counts / counts.sum() - target).sum())
        worst = max(worst, tv)
        assert tv <= 0.02, f"fixture {fixture}: TV {tv:.4f} vs PoE target {target}"
    verdict(6, True, f"worst TV over 5 fixtures = {worst:.4f} (need <= 0.02)")


def test_criterion_7_dirichlet_counting_oracle(monkeypatch):
    cfg = ExperimentConfig(seed=DEFAULT_SEED, dump_beliefs=True)
    log, (parent, infant_agent) = run_trial_keeping_agents(monkeypatch, cfg, "mhng", 0)
    alpha = np.full((36, 36), cfg.dirichlet_prior)
    beta = np.full((36, 36, 5), cfg.dirichlet_prior)
    prev_infant = np.full(36, 1.0 / 36.0)
    infant = np.eye(36)[log.landing_states()]
    for r, rec in enumerate(log.rounds):
        obs = rec["true_y"] * 6 + rec["true_x"]
        alpha[:, obs] += log.parent_round_beliefs[r]
        beta[:, :, rec["action"]] += np.outer(infant[r], prev_infant)
        prev_infant = infant[r]
    alpha_err = float(np.abs(alpha - parent.obs_concentration).max())
    beta_err = float(np.abs(beta - infant_agent.trans_concentration).max())
    a_batch = (alpha / alpha.sum(axis=1, keepdims=True)).T
    a_online = (
        parent.obs_concentration
        / parent.obs_concentration.sum(axis=1, keepdims=True)
    ).T
    b_batch = beta / beta.sum(axis=0, keepdims=True)
    b_online = infant_agent.trans_concentration / infant_agent.trans_concentration.sum(
        axis=0, keepdims=True
    )
    a_mat_err = float(np.abs(a_batch - a_online).max())
    b_mat_err = float(np.abs(b_batch - b_online).max())
    ok = max(alpha_err, beta_err, a_mat_err, b_mat_err) < 1e-9
    verdict(
        7,
        ok,
        f"batch replay vs online: count gaps {alpha_err:.2e}/{beta_err:.2e}, "
        f"matrix gaps {a_mat_err:.2e}/{b_mat_err:.2e} (need < 1e-9)",
    )
    assert alpha_err < 1e-9 and beta_err < 1e-9
    assert a_mat_err < 1e-9 and b_mat_err < 1e-9
    # Exactly one unit of mass lands per learning call.
    assert parent.obs_concentration.sum() == pytest.approx(
        36 * 36 * cfg.dirichlet_prior + 2 * cfg.iterations
    )


def test_criterion_8_property_battery(tmp_path):
    # Divergence bounds and symmetry under fuzz.
    rng = make_rng(808)
    for _ in range(200):
        p = rng.dirichlet(np.ones(36))
        q = rng.dirichlet(np.ones(36))
        js_pq = js_divergence(p, q)
        assert 0.0 <= js_pq <= np.log(2) + 1e-9
        assert js_pq == pytest.approx(js_divergence(q, p), abs=1e-12)
        assert kl_divergence(p, q) >= 0.0
        assert kl_divergence(p, p) == 0.0

    # Transition columns stay stochastic across parameter variants.
    for params in (
        {},
        {"branch_prob": 0.0},
        {"branch_prob": 0.5},
        {"eat_gain": 1, "temp_high_min": 0},
    ):
        tensor = build_transition_model(**params).tensor
        assert np.allclose(tensor.sum(axis=0), 1.0, atol=1e-12)
        assert np.all(tensor >= 0.0)

    # Beliefs stay valid categoricals through 10,000 fuzzed updates.
    world = build_transition_model()
    pref = build_prior_preference()
    from dyadreg.agents import init_agent

    parent = init_agent(AgentKind.PARENT, world, pref)
    infant = init_agent(AgentKind.INFANT, world, pref)
    fuzz = make_rng(909)
    for step_i in range(10_000):
        action = int(fuzz.integers(5))
        obs = int(fuzz.integers(36))
        for agent in (parent, infant):
            prev, post = agent.assimilate(action, obs)
            assert np.all(post >= 0.0)
            assert abs(post.sum() - 1.0) <= 1e-9
        if step_i % 7 == 0:
            parent.learn_A(parent.belief, obs)
            infant.learn_B(prev, infant.belief, action)

    # Repeated runs produce byte-identical artifacts (manifest timings
    # excepted, as wall-clock bookkeeping).
    cfg = ExperimentConfig(
        conditions=("mhng", "b-led"),
        trials=2,
        iterations=60,
        seed=17,
        dump_beliefs=True,
        out_dir=str(tmp_path / "first"),
    )
    first = run_experiment(cfg)
    run_experiment(cfg.replaced(out_dir=str(tmp_path / "second")))
    for rel in first.artifacts:
        a = (tmp_path / "first" / rel).read_bytes()
        b = (tmp_path / "second" / rel).read_bytes()
        assert a == b, f"artifact differs between runs: {rel}"
    m1, m2 = (open_run(tmp_path / name).manifest for name in ("first", "second"))
    m1.timings = m2.timings = {}
    assert m1.to_json() == m2.to_json()

    verdict(
        8,
        True,
        "divergence fuzz, column stochasticity, 10k-step belief fuzz, "
        "byte-identical reruns all hold",
    )
