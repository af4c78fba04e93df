import functools
import json
import math
from concurrent.futures import Future

import numpy as np
import pytest

from microgrid_ems import assess
from microgrid_ems.assess import (
    AssessmentReport,
    run_assessment,
    simulate_policy,
    split_scenarios,
)
from microgrid_ems.config import day_config, parse_config
from microgrid_ems.model import State, Uncertainty
from microgrid_ems.policies import (
    HeuristicPolicy,
    MpcPolicy,
    PolicyDecision,
    SddpPolicy,
    StoppingRule,
    ValueFunctions,
    sddp_train,
)
from microgrid_ems.scenarios import (
    ScenarioSet,
    fit_ar,
    generate_scenarios,
    quantize_stagewise,
    scenario_means,
)

from helpers import (
    ReferenceHeuristic,
    battery_params,
    battery_x0,
    reference_simulate,
    two_point_dists,
)


class _ConstantCostPolicy:
    """Zero-control policy; used for hand-checkable statistics."""

    def decide(self, t, x, w_obs):
        from microgrid_ems.model import Control
        return PolicyDecision(control=Control(0.0, 0.0, 0.0),
                              predicted_cost=0.0)


def _scenario(values):
    p = battery_params()
    scen = np.zeros((p.horizon_steps + 1, 2))
    scen[1:, 0] = values
    return scen


class TestSimulatePolicy:
    def test_zero_demand_zero_cost(self):
        p = battery_params()
        res = simulate_policy(_ConstantCostPolicy(), _scenario(0.0),
                              battery_x0(), p)
        assert res.total_cost == pytest.approx(0.0, abs=1e-12)

    def test_single_import_step_priced(self):
        # 2 kW at one step: pi_e[t] * 0.25 * 2
        p = battery_params()
        scen = _scenario(0.0)
        scen[3, 0] = 2.0  # realized over step t=2
        res = simulate_policy(_ConstantCostPolicy(), scen, battery_x0(), p)
        assert res.total_cost == pytest.approx(p.pi_e[2] * 0.25 * 2.0,
                                               abs=1e-12)

    def test_deterministic(self):
        p = battery_params()
        pol = HeuristicPolicy(p, battery_x0())
        scen = _scenario(np.array([1.0, -0.5, 2.0, 0.3, 1.1]))
        a = simulate_policy(pol, scen, battery_x0(), p)
        b = simulate_policy(pol, scen, battery_x0(), p)
        assert a.total_cost == b.total_cost

    def test_records_trajectory(self):
        p = battery_params()
        res = simulate_policy(_ConstantCostPolicy(), _scenario(1.0),
                              battery_x0(), p, record=True)
        assert res.trajectory.shape == (p.horizon_steps + 1, 4)
        assert res.imports.shape == (p.horizon_steps,)
        np.testing.assert_allclose(res.imports, 1.0, atol=1e-12)

    def test_shape_check(self):
        p = battery_params()
        with pytest.raises(ValueError):
            simulate_policy(_ConstantCostPolicy(), np.zeros((3, 2)),
                            battery_x0(), p)

    @pytest.mark.parametrize("day", ["summer", "winter"])
    def test_the_reference_loop_plays_the_same_days(self, day):
        # each policy and a twin built the same way play the same held-out
        # days, one through simulate_policy, the other through the
        # dataclass loop (the heuristic's twin clips with a ControlBox)
        cfg = parse_config(day_config(day))
        p, x0 = cfg.system, cfg.initial_state
        opt, sim = split_scenarios(generate_scenarios(cfg.generator, 24, 5), 20, 42)
        dists = quantize_stagewise(opt, s=5, seed=3)
        vf, _ = sddp_train(p, dists, x0, StoppingRule(max_iters=4, lb_tol=0.0), seed=1)
        ar, means = fit_ar(opt), scenario_means(opt)
        pairs = {
            "heuristic": (HeuristicPolicy(p, x0, cfg.heuristic_margin),
                          ReferenceHeuristic(p, x0, cfg.heuristic_margin)),
            "mpc": (MpcPolicy(p, x0, ar, means), MpcPolicy(p, x0, ar, means)),
            "sddp": (SddpPolicy(p, vf, dists), SddpPolicy(p, vf, dists)),
        }
        for scenario in sim.data:
            for name, (played, twin) in pairs.items():
                res = simulate_policy(played, scenario, x0, p, record=True)
                bill, traj, imports = reference_simulate(twin, scenario, x0, p)
                assert res.total_cost == bill, name
                assert np.array_equal(res.trajectory, traj), name
                assert np.array_equal(res.imports, imports), name


def _report_from_costs(costs_by_policy):
    costs = {k: np.asarray(v, dtype=float) for k, v in costs_by_policy.items()}
    n = len(next(iter(costs.values())))
    mean = {k: float(np.mean(v)) for k, v in costs.items()}
    std = {k: float(np.std(v, ddof=1)) for k, v in costs.items()}
    ci = {k: 1.96 * std[k] / math.sqrt(n) for k in costs}
    return costs, mean, std, ci


class TestStatistics:
    def test_hand_example(self):
        # costs {1, 3}: mean 2, sample std sqrt(2), ci95 = 1.96*sqrt(2)/sqrt(2)
        costs, mean, std, ci = _report_from_costs({"p": [1.0, 3.0]})
        assert mean["p"] == pytest.approx(2.0)
        assert std["p"] == pytest.approx(math.sqrt(2.0))
        assert ci["p"] == pytest.approx(1.96)

    def test_identical_scenarios_zero_spread(self):
        p = battery_params()
        scen = _scenario(1.0)
        data = np.stack([scen, scen])
        sim = ScenarioSet(data, role="assessment")
        report = run_assessment({"p": _ConstantCostPolicy()}, sim,
                                battery_x0(), p)
        assert report.std["p"] == 0.0
        assert report.ci95["p"] == 0.0

    def test_two_pass_identity(self):
        rng = np.random.default_rng(0)
        vals = rng.uniform(1, 10, 64)
        mean1 = float(np.mean(vals))
        mean2 = math.fsum(vals) / len(vals)
        var1 = float(np.var(vals, ddof=1))
        var2 = math.fsum((v - mean2) ** 2 for v in vals) / (len(vals) - 1)
        assert abs(mean1 - mean2) <= 1e-12
        assert abs(var1 - var2) <= 1e-12


class _InlinePool:
    """Stands in for ProcessPoolExecutor: records its `max_workers` in
    `made` and runs each submitted call in this process, starting none."""

    def __init__(self, made, max_workers):
        made.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


class TestRunAssessment:
    def _sddp_setup(self):
        p = battery_params()
        x0 = battery_x0()
        dists = two_point_dists()
        vf, _ = sddp_train(p, dists, x0,
                           StoppingRule(max_iters=15, lb_tol=1e-12,
                                        patience=5), seed=0)
        return p, x0, vf, dists

    def _scenarios(self, p, n=6):
        rng = np.random.default_rng(1)
        data = np.zeros((n, p.horizon_steps + 1, 2))
        data[:, 1:, 0] = rng.choice([0.5, 2.0], size=(n, p.horizon_steps))
        return ScenarioSet(data, role="assessment")

    def test_self_comparison(self):
        p, x0, vf, dists = self._sddp_setup()
        sim = self._scenarios(p)
        report = run_assessment(
            {"sddp": SddpPolicy(p, vf, dists), "mpc": SddpPolicy(p, vf, dists)},
            sim, x0, p)
        np.testing.assert_allclose(report.gaps, 0.0, atol=1e-12)
        assert report.win_fraction == 0.0  # strict inequality

    def test_gap_statistics_and_report(self, tmp_path):
        p, x0, vf, dists = self._sddp_setup()
        sim = self._scenarios(p)
        policies = {"sddp": SddpPolicy(p, vf, dists),
                    "heuristic": HeuristicPolicy(p, x0),
                    "mpc": SddpPolicy(p, vf, dists)}
        report = run_assessment(policies, sim, x0, p,
                                record_trajectories=True)
        assert set(report.costs) == set(policies)
        assert report.gap_bins is not None
        report.save(tmp_path / "report.json")
        report.save_costs_csv(tmp_path / "costs.csv")
        report.save_gaps_csv(tmp_path / "gaps.csv")
        report.save_trajectories_csv(tmp_path / "traj.csv")
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["n_scenarios"] == sim.n
        assert "sddp_vs_mpc" in doc
        for name in policies:
            entry = doc["policies"][name]
            assert 0.0 < entry["p50_ms"] <= entry["p99_ms"]
        header = (tmp_path / "traj.csv").read_text().splitlines()[0]
        assert header == "policy,scenario,t,b,h,theta_w,theta_i,f_ne"

    def test_parallel_matches_sequential(self):
        p, x0, vf, dists = self._sddp_setup()
        sim = self._scenarios(p, n=8)
        policies = {"sddp": SddpPolicy(p, vf, dists),
                    "heuristic": HeuristicPolicy(p, x0)}
        seq = run_assessment(policies, sim, x0, p, threads=1)
        par = run_assessment(policies, sim, x0, p, threads=2)
        for name in policies:
            np.testing.assert_allclose(seq.costs[name], par.costs[name],
                                       atol=1e-9)

    @pytest.mark.parametrize("threads, n, workers", [(6, 2, 2), (64, 32, 32), (3, 8, 3)])
    def test_no_more_workers_than_scenarios(self, monkeypatch, threads, n, workers):
        p, x0 = battery_params(), battery_x0()
        sim = self._scenarios(p, n=n)
        policies = {"heuristic": HeuristicPolicy(p, x0)}
        pools = []
        monkeypatch.setattr(assess, "ProcessPoolExecutor",
                            functools.partial(_InlinePool, pools))
        par = run_assessment(policies, sim, x0, p, threads=threads)
        assert pools == [workers]
        seq = run_assessment(policies, sim, x0, p, threads=1)
        assert np.array_equal(par.costs["heuristic"], seq.costs["heuristic"])

    def test_needs_two_scenarios(self):
        p, x0, vf, dists = self._sddp_setup()
        sim = ScenarioSet(np.zeros((1, p.horizon_steps + 1, 2)),
                          role="assessment")
        with pytest.raises(ValueError):
            run_assessment({"sddp": SddpPolicy(p, vf, dists)}, sim, x0, p)


class TestSplit:
    def test_sizes_disjoint_exhaustive(self):
        data = np.arange(2000 * 3 * 2, dtype=float).reshape(2000, 3, 2)
        data[:, :, 1] = np.abs(data[:, :, 1])
        pool = ScenarioSet(data, role="pool")
        opt, sim = split_scenarios(pool, 1000, seed=0)
        assert opt.n == 1000 and sim.n == 1000
        assert opt.role == "optimization" and sim.role == "assessment"
        union = np.concatenate([opt.data, sim.data])
        assert (np.sort(union[:, 0, 0]) == np.sort(data[:, 0, 0])).all()

    def test_deterministic(self):
        data = np.abs(np.random.default_rng(0).standard_normal((20, 3, 2)))
        pool = ScenarioSet(data)
        a1, b1 = split_scenarios(pool, 8, seed=5)
        a2, b2 = split_scenarios(pool, 8, seed=5)
        np.testing.assert_array_equal(a1.data, a2.data)
        np.testing.assert_array_equal(b1.data, b2.data)

    def test_validation(self):
        pool = ScenarioSet(np.zeros((5, 3, 2)))
        with pytest.raises(ValueError):
            split_scenarios(pool, 5, seed=0)
        with pytest.raises(ValueError):
            split_scenarios(pool, 0, seed=0)
