"""End-to-end acceptance suite.

Each test covers one headline property and prints an unmistakable
PASS/FAIL line (outside pytest's capture) so the verdicts are visible in
plain test logs.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from microgrid_ems.assess import run_assessment, simulate_policy, split_scenarios
from microgrid_ems.config import load_config
from microgrid_ems.model import State, Uncertainty, recourse, step
from microgrid_ems.policies import (
    Cut,
    HeuristicPolicy,
    MpcPolicy,
    SddpPolicy,
    StoppingRule,
    perfect_foresight_cost,
    sddp_train,
)
from microgrid_ems import scenarios as sc
from microgrid_ems.lp import LinearProgram, solve
from microgrid_ems import stagelp

from helpers import (
    battery_params,
    battery_x0,
    pin_columns,
    random_bounded_lp,
    tree_optimal_value,
    tree_policy_expected_cost,
    two_point_dists,
    vertex_enumeration_optimum,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
DAYS = ("winter", "spring", "summer")


def _verdict(capsys, ok: bool, label: str):
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, label


# ---------------------------------------------------------------------------
# Shared artifacts

@pytest.fixture(scope="module")
def small_instance():
    p = battery_params()
    x0 = battery_x0()
    dists = two_point_dists()
    tic = time.perf_counter()
    vf, log = sddp_train(p, dists, x0,
                         StoppingRule(max_iters=120, lb_tol=1e-12,
                                      patience=15), seed=11)
    elapsed = time.perf_counter() - tic
    return p, x0, dists, vf, log, elapsed


@pytest.fixture(scope="module")
def day_runs():
    """Full pipeline on every bundled day config, with wall-clock totals."""
    runs = {}
    for day in DAYS:
        tic = time.perf_counter()
        cfg = load_config(CONFIG_DIR / f"{day}.json")
        pool = sc.generate_scenarios(cfg.generator, cfg.n_opt + cfg.n_sim,
                                     cfg.generator_seed)
        opt, sim = split_scenarios(pool, cfg.n_opt, cfg.split_seed)
        dists = sc.quantize_stagewise(opt, s=cfg.sddp_s_offline,
                                      seed=cfg.sddp_seed)
        stop = StoppingRule(max_iters=cfg.sddp_max_iters,
                            lb_tol=cfg.sddp_lb_tol,
                            patience=cfg.sddp_patience)
        vf, log = sddp_train(cfg.system, dists, cfg.initial_state,
                             stop=stop, seed=cfg.sddp_seed)
        policies = {
            "heuristic": HeuristicPolicy(cfg.system, cfg.initial_state,
                                         cfg.heuristic_margin),
            "mpc": MpcPolicy(cfg.system, cfg.initial_state, sc.fit_ar(opt),
                             sc.scenario_means(opt)),
            "sddp": SddpPolicy(cfg.system, vf, dists),
        }
        report = run_assessment(policies, sim, cfg.initial_state, cfg.system)
        runs[day] = {
            "cfg": cfg, "sim": sim, "policies": policies, "report": report,
            "log": log, "elapsed": time.perf_counter() - tic,
        }
    return runs


# ---------------------------------------------------------------------------
# Criteria

def test_small_instance_oracle_optimality(small_instance, capsys):
    p, x0, dists, vf, log, train_s = small_instance
    tic = time.perf_counter()
    opt = tree_optimal_value(p, dists, 0, x0.b)
    policy_cost = tree_policy_expected_cost(SddpPolicy(p, vf, dists),
                                            p, dists, x0)
    elapsed = train_s + (time.perf_counter() - tic)
    lb = log.lower_bounds[-1]
    ok = (abs(lb - opt) <= 1e-6 and abs(policy_cost - opt) <= 1e-6
          and elapsed < 10.0)
    _verdict(capsys, ok,
             f"small-instance optimality: tree={opt:.8f} lb={lb:.8f} "
             f"policy={policy_cost:.8f} runtime={elapsed:.2f}s (<10s)")


def test_cut_validity(small_instance, capsys):
    p, x0, dists, vf, _, _ = small_instance
    rng = np.random.default_rng(21)
    worst = -np.inf
    for t in range(p.horizon_steps):
        for _ in range(10):
            b = rng.uniform(p.b_min, p.b_max)
            approx = vf.evaluate(t, State(b, 0.0, 15.0, 15.0))
            exact = tree_optimal_value(p, dists, t, b)
            worst = max(worst, approx - exact)
    ok = worst <= 1e-6
    _verdict(capsys, ok,
             f"cut validity: max(V_lower - V_exact) = {worst:.2e} over "
             f"50 states x {p.horizon_steps} stages (<= 1e-6)")


def test_lower_bound_monotonicity(capsys):
    cfg = load_config(CONFIG_DIR / "summer.json")
    pool = sc.generate_scenarios(cfg.generator, cfg.n_opt + cfg.n_sim,
                                 cfg.generator_seed)
    opt, _ = split_scenarios(pool, cfg.n_opt, cfg.split_seed)
    dists = sc.quantize_stagewise(opt, s=cfg.sddp_s_offline,
                                  seed=cfg.sddp_seed)
    stop = StoppingRule(max_iters=100, lb_tol=0.0, patience=10 ** 9)
    _, log = sddp_train(cfg.system, dists, cfg.initial_state, stop=stop,
                        seed=cfg.sddp_seed)
    diffs = np.diff(log.lower_bounds)
    ok = log.iterations == 100 and bool(np.all(diffs >= -1e-7))
    _verdict(capsys, ok,
             f"lower-bound monotonicity: 100 iterations on summer, "
             f"min increment {diffs.min():.2e} (>= -1e-7)")


def test_ordering_reproduction(day_runs, capsys):
    lines = []
    ok = True
    total = sum(run["elapsed"] for run in day_runs.values())
    for day, run in day_runs.items():
        r = run["report"]
        n = len(r.costs["sddp"])
        for name in ("sddp", "mpc"):
            gap = r.mean["heuristic"] - r.mean[name]
            se = np.sqrt(r.std[name] ** 2 + r.std["heuristic"] ** 2) / np.sqrt(n)
            ok = ok and gap > 2.0 * se
            lines.append(f"{day}:{name} {r.mean[name]:.3f} vs heuristic "
                         f"{r.mean['heuristic']:.3f} (gap {gap:.3f} > 2SE "
                         f"{2 * se:.3f})")
    ok = ok and total < 300.0
    _verdict(capsys, ok,
             "ordering reproduction (200 scenarios/day): "
             + "; ".join(lines) + f"; total {total:.0f}s (<300s)")


def test_perfect_foresight_bound(day_runs, capsys):
    run = day_runs["winter"]
    cfg = run["cfg"]
    scens = run["sim"].data[:50]
    worst = -np.inf
    for scen in scens:
        pf = perfect_foresight_cost(cfg.system, cfg.initial_state, scen)
        for name, pol in run["policies"].items():
            res = simulate_policy(pol, scen, cfg.initial_state, cfg.system)
            worst = max(worst, pf - res.total_cost)
    ok = worst <= 1e-6
    _verdict(capsys, ok,
             f"perfect-foresight bound: max(pf - realized) = {worst:.2e} "
             f"over 50 scenarios x 3 policies (<= 1e-6)")


def test_lp_solver_oracle(capsys):
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(200):
        c, a_eq, rhs, lower, upper, a_ub, b_ub = random_bounded_lp(rng, 6)
        lp = LinearProgram(c=c, a_eq=a_eq, rhs=rhs, lower=lower,
                           upper=upper, a_ub=a_ub, b_ub=b_ub)
        sol = solve(lp)
        assert sol.optimal
        oracle = vertex_enumeration_optimum(c, a_eq, rhs, lower, upper,
                                            a_ub, b_ub)
        worst = max(worst, abs(sol.objective - oracle))
    ok = worst <= 1e-7

    trials = 0
    sub_worst = -np.inf
    while trials < 100:
        c, _, _, lower, upper, a_ub, b_ub = random_bounded_lp(rng, 5)
        # the slope in pinned columns (lower = upper) is their reduced cost
        x_pin = lower[:2] + 0.5 * (upper - lower)[:2]
        sol = solve(LinearProgram(*pin_columns(c, lower, upper, a_ub, b_ub, x_pin)))
        if not sol.optimal:
            continue
        value, grad = sol.objective, sol.reduced_costs[:2]
        d = rng.uniform(-0.05, 0.05, 2)
        pert = solve(LinearProgram(*pin_columns(c, lower, upper, a_ub, b_ub, x_pin + d)))
        if not pert.optimal:
            continue
        sub_worst = max(sub_worst, value + grad @ d - pert.objective)
        trials += 1
    ok = ok and sub_worst <= 1e-7
    _verdict(capsys, ok,
             f"lp solver: max |objective - vertex oracle| = {worst:.2e} over "
             f"200 LPs (<= 1e-7); max subgradient violation = {sub_worst:.2e} "
             f"over 100 trials (<= 1e-7)")


def test_lloyd_max(capsys):
    result = sc.lloyd_max(np.array([0.0, 0.0, 10.0, 10.0]), s=2, seed=0)
    d = result.distribution
    exact = (np.allclose(d.points[:, 0], [0.0, 10.0], atol=0)
             and np.allclose(d.weights, [0.5, 0.5], atol=0))
    rng = np.random.default_rng(13)
    monotone = True
    for trial in range(50):
        pts = rng.standard_normal((80, 2)) * rng.uniform(0.5, 4.0)
        res = sc.lloyd_max(pts, s=int(rng.integers(2, 7)), seed=trial)
        monotone = monotone and bool(np.all(np.diff(res.distortions) <= 1e-12))
    ok = exact and monotone
    _verdict(capsys, ok,
             f"lloyd-max: 4-point example exact ({exact}); distortion "
             f"non-increasing on 50 random clouds ({monotone})")


def test_conservation(day_runs, capsys):
    run = day_runs["winter"]
    cfg = run["cfg"]
    p, x0 = cfg.system, cfg.initial_state
    scen = run["sim"].data[0]
    worst = 0.0
    in_bounds = True
    for name, pol in run["policies"].items():
        if hasattr(pol, "reset"):
            pol.reset()
        x = x0
        for t in range(p.horizon_steps):
            u = pol.decide(t, x, Uncertainty(*scen[t])).control
            w = Uncertainty(*scen[t + 1])
            rec = recourse(u, w)
            residual = abs(rec.f_ne - rec.spill - u.f_b - u.f_t - u.f_h
                           - w.d_el_net)
            worst = max(worst, residual)
            x = step(t, x, u, w, p)
            in_bounds = in_bounds and (p.b_min - 1e-7 <= x.b <= p.b_max + 1e-7)
            in_bounds = in_bounds and (-1e-7 <= x.h <= p.h_max + 1e-7)
    ok = worst <= 1e-12 and in_bounds
    _verdict(capsys, ok,
             f"conservation: max balance residual {worst:.2e} (<= 1e-12) over "
             f"96 steps x 3 policies; states in bounds ({in_bounds})")


def test_sddp_online_timing(capsys):
    cfg = load_config(CONFIG_DIR / "winter.json")
    p = cfg.system
    rng = np.random.default_rng(3)
    # S_online = 20 noise points, 400 distinct cuts at realistic scales
    pts = np.column_stack([rng.uniform(-1, 3, 20), rng.uniform(0, 2.5, 20)])
    dist = sc.DiscreteDistribution(points=pts, weights=np.full(20, 0.05))
    cuts = [Cut(np.array([rng.uniform(-0.3, 0), rng.uniform(-0.3, 0),
                          rng.uniform(-0.05, 0), rng.uniform(-0.5, 0)]),
                rng.uniform(0, 15)) for _ in range(400)]
    lambdas = np.array([c.lam for c in cuts])
    betas = np.array([c.beta for c in cuts])
    problem = stagelp.OneStageDecision(p, 40, dist, lambdas, betas)
    states = [State(rng.uniform(p.b_min, p.b_max), rng.uniform(0.7, p.h_max),
                    rng.uniform(10, 25), rng.uniform(14, 24))
              for _ in range(30)]
    problem.solve(states[0])  # build + first factorization
    times = []
    for x in states:
        tic = time.perf_counter()
        problem.solve(x)
        times.append(time.perf_counter() - tic)
    mean_ms = 1000 * float(np.mean(times))
    worst_ms = 1000 * float(np.max(times))
    ok = mean_ms < 50.0
    _verdict(capsys, ok,
             f"online timing: S=20, 400 cuts -> mean {mean_ms:.2f} ms, "
             f"max {worst_ms:.2f} ms per decision (< 50 ms)")
