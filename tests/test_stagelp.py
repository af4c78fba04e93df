import dataclasses
import functools
import logging
import pickle

import numpy as np
import pytest
import scipy.sparse as sp

from microgrid_ems import lp as lpmod
from microgrid_ems.assess import simulate_policy, split_scenarios
from microgrid_ems.config import day_config, parse_config
from microgrid_ems.model import State, admissible_controls
from microgrid_ems.policies import (
    HeuristicPolicy,
    MpcPolicy,
    SddpPolicy,
    StoppingRule,
    perfect_foresight_cost,
    sddp_train,
)
from microgrid_ems.scenarios import (
    DiscreteDistribution,
    fit_ar,
    generate_scenarios,
    quantize_stagewise,
    scenario_means,
    update_forecast,
)
from microgrid_ems.stagelp import (
    STORAGE_TIE_BREAK,
    ChainTemplate,
    DeterministicChain,
    OneStageDecision,
)

from helpers import (
    INDEX_DIGITS,
    CountingCore,
    IndexBasis,
    RecordingCore,
    battery_params,
    battery_x0,
    chain_labels,
    concatenated_limits,
    full_state_chain_value,
    held_answer,
    loop_built_chain,
    loop_built_stage,
    pinned_row_stage_value,
    scripted_run,
    seeded_indices,
    strided_day_config,
    table_answer,
    two_point_dists,
)

TOL = 1e-9


@pytest.fixture(scope="module")
def summer():
    return parse_config(day_config("summer")).system


@pytest.fixture(scope="module")
def summer_mpc():
    """Summer config, an AR model and means fitted on 20 scenarios, and 4
    held-out scenarios."""
    cfg = parse_config(day_config("summer"))
    opt, sim = split_scenarios(generate_scenarios(cfg.generator, 24, 5), 20, 42)
    return cfg, fit_ar(opt), scenario_means(opt), sim.data


@pytest.fixture(scope="module")
def summer_sddp():
    """Summer config, cuts trained for 6 iterations on the stage laws of 20
    scenarios, and 4 held-out scenarios."""
    cfg = parse_config(day_config("summer"))
    opt, sim = split_scenarios(generate_scenarios(cfg.generator, 24, 5), 20, 42)
    dists = quantize_stagewise(opt, s=5, seed=3)
    vf, _ = sddp_train(cfg.system, dists, cfg.initial_state,
                       StoppingRule(max_iters=6, lb_tol=0.0), seed=1)
    return cfg, vf, dists, sim.data


class Recorder:
    """Passes decisions through and records each call."""

    def __init__(self, policy):
        self.policy = policy
        self.name = policy.name
        self.calls = []

    def decide(self, t, x, w_obs):
        decision = self.policy.decide(t, x, w_obs)
        self.calls.append((t, x, w_obs, decision))
        return decision


def iterations(problem):
    """Simplex iterations of a chain's or a stage LP's last solve."""
    return problem._persistent._solver.getInfo().simplex_iteration_count


def random_dist(rng, s=6):
    pts = np.column_stack([rng.uniform(-2, 3, s), rng.uniform(0, 2.5, s)])
    return DiscreteDistribution(points=pts, weights=np.full(s, 1.0 / s))


def random_cuts(rng, count):
    lambdas = np.column_stack([rng.uniform(-0.3, 0, count), rng.uniform(-0.3, 0, count),
                               rng.uniform(-0.05, 0, count), rng.uniform(-0.5, 0, count)])
    return lambdas, rng.uniform(0, 15, count)


def random_state(rng, p):
    return State(rng.uniform(p.b_min, p.b_max), rng.uniform(0, p.h_max),
                 rng.uniform(12, 26), rng.uniform(14, 26))


def set_basis(persistent, basis):
    """Hand `persistent`'s HiGHS the status codes `basis`, as a basis that
    needs no repair."""
    cols, rows = basis
    core = lpmod._highs_core
    kinds = core.HighsBasisStatus
    status = [kinds.kLower, kinds.kBasic, kinds.kUpper, kinds.kZero]
    highs_basis = core.HighsBasis()
    highs_basis.col_status = [status[c] for c in cols]
    highs_basis.row_status = [status[r] for r in rows]
    highs_basis.alien = False
    persistent._solver.setBasis(highs_basis)


def assert_same(a, b, tol=TOL):
    assert a.objective == pytest.approx(b.objective, abs=tol)
    np.testing.assert_allclose(a.duals, b.duals, atol=tol)


def test_matches_pinned_row_formulation(summer):
    rng = np.random.default_rng(11)
    p = summer
    worst_value = worst_slope = 0.0
    for _ in range(120):
        t = int(rng.integers(0, p.horizon_steps))
        dist = random_dist(rng)
        lambdas, betas = random_cuts(rng, int(rng.integers(1, 30)))
        x = random_state(rng, p)
        sol = OneStageDecision(p, t, dist, lambdas, betas).solve(x)
        value, grad = pinned_row_stage_value(p, t, x, dist, lambdas, betas)
        worst_value = max(worst_value, abs(sol.objective - value))
        worst_slope = max(worst_slope, float(np.abs(sol.duals - grad).max()))
    assert worst_value <= TOL and worst_slope <= TOL


def test_stage_rows_match_loop_oracle(summer):
    rng = np.random.default_rng(12)
    p = summer
    for t in (0, 1, p.horizon_steps // 2, p.horizon_steps - 1):
        dist = random_dist(rng)
        lambdas, betas = random_cuts(rng, 6)
        stage = OneStageDecision(p, t, dist, lambdas, betas)
        x = random_state(rng, p)
        stage.solve(x)
        oracle = loop_built_stage(p, t, x, dist, lambdas, betas)
        s_count, n = stage.s_count, stage.n
        cut_rows, cut_rhs = stage._cut_rows(stage._lambdas, stage._betas)
        indptr, indices, data = lpmod.stack_rows(stage._rows, cut_rows)
        rows = sp.csr_matrix((data, indices, indptr), shape=(indptr.size - 1, n))
        # the oracle's cut rows are scenario-major, the stage LP's cut-major
        oracle_cuts = oracle["a_ub"][4:].reshape(s_count, 6, n).transpose(1, 0, 2)
        expected = np.vstack([oracle["a_eq"][4:], oracle["a_ub"][:4],
                              oracle_cuts.reshape(-1, n)])
        assert np.array_equal(rows.toarray(), expected), t
        assert rows.nnz == np.count_nonzero(expected), t
        np.testing.assert_allclose(stage.b_eq, oracle["b_eq"][4:], rtol=1e-14, atol=1e-14)
        assert np.array_equal(stage._b_box, oracle["b_ub"][:4]), t
        assert np.array_equal(cut_rhs, oracle["b_ub"][4:].reshape(s_count, 6).T.ravel()), t
        for name, vector in (("c", stage.c), ("lower", stage._persistent._lower),
                             ("upper", stage._persistent._upper)):
            assert np.array_equal(vector[4:], oracle[name][4:]), (t, name)


def test_appended_cuts_match_fresh_build(summer):
    rng = np.random.default_rng(13)
    dist = random_dist(rng)
    lambdas, betas = random_cuts(rng, 25)
    grown = OneStageDecision(summer, 50, dist, lambdas[:1], betas[:1])
    for k in range(1, 25):
        grown.solve(random_state(rng, summer))
        grown.add_cut(lambdas[k], betas[k])
    fresh = OneStageDecision(summer, 50, dist, lambdas, betas)
    assert grown.n_cuts == fresh.n_cuts == 25
    for _ in range(20):
        x = random_state(rng, summer)
        assert_same(grown.solve(x), fresh.solve(x))


def test_slope_is_a_subgradient(summer):
    rng = np.random.default_rng(15)
    p = summer
    checked = 0
    while checked < 100:
        t = int(rng.integers(0, p.horizon_steps))
        dist = random_dist(rng)
        lambdas, betas = random_cuts(rng, 15)
        problem = OneStageDecision(p, t, dist, lambdas, betas)
        x = random_state(rng, p)
        sol = problem.solve(x)
        d = rng.uniform(-0.05, 0.05, 4)
        y = x.as_array() + d
        if not (p.b_min <= y[0] <= p.b_max and 0.0 <= y[1] <= p.h_max):
            continue
        moved = problem.solve(State.from_array(y))
        assert moved.objective >= sol.objective + sol.duals @ d - TOL
        checked += 1


def test_control_is_admissible(summer):
    rng = np.random.default_rng(17)
    lambdas, betas = random_cuts(rng, 20)
    problem = OneStageDecision(summer, 40, random_dist(rng), lambdas, betas)
    for _ in range(50):
        x = random_state(rng, summer)
        assert admissible_controls(x, summer).contains(problem.solve(x).control, tol=0.0)


def test_solves_hand_over_the_bounds_a_fresh_copy_gave(summer, monkeypatch):
    # the stage LP hands its persistent LP the state and the tank floors it
    # rewrote: the LP holds, bit for bit, the bounds the base bounds' copy
    # gave, and gets costs only when the previous solve used others
    p = dataclasses.replace(summer, h_floor=0.5 * summer.h_max)  # floors often out of reach
    rng = np.random.default_rng(25)
    problem = OneStageDecision(p, 40, random_dist(rng), *random_cuts(rng, 6))
    handed = []
    real_solve = lpmod.PersistentLp.solve

    def solve(self, **kwargs):
        handed.append((kwargs["cols"], kwargs["cost"]))
        return real_solve(self, **kwargs)

    monkeypatch.setattr(lpmod.PersistentLp, "solve", solve)
    moving = np.concatenate([np.arange(4), problem._next[:, 1]])
    relaxed, prefer = 0, False
    for k in range(40):
        x = random_state(rng, p)
        previous, prefer = prefer, k % 5 == 4
        problem.solve(x, prefer_storage=prefer)
        lower, upper = problem._lower_base.copy(), problem._upper_base.copy()
        lower[:4] = upper[:4] = x.as_array()
        reach = x.h + p.delta * (p.beta_h * admissible_controls(x, p).f_h_max
                                 - problem.points[:, 1])
        lower[problem._next[:, 1]] = np.minimum(p.h_floor, reach)
        relaxed += bool((reach < p.h_floor).any())
        held = problem._persistent
        assert np.array_equal(held._lower, lower) and np.array_equal(held._upper, upper), k
        cols, cost = handed[-1]
        assert (cols is None) == (k == 0), k  # the first solve builds the LP at x
        if cols is not None:
            assert np.isin(cols[0], moving).all(), k
        expected = problem._c_decide if prefer else problem.c if previous else None
        assert cost is expected, k
    assert 0 < relaxed < 40


def test_storage_tie_break_charges_on_a_price_tie(summer):
    p, t = summer, 20
    # a cut valuing stored energy at exactly its import price makes every
    # charging rate equally cheap
    lam = np.array([[-p.pi_e[t] / p.rho_c, 0.0, 0.0, 0.0]])
    dist = DiscreteDistribution(points=np.array([[1.0, 0.1], [1.5, 0.2]]),
                                weights=np.array([0.5, 0.5]))
    problem = OneStageDecision(p, t, dist, lam, np.array([5.0]))
    x = State(p.b_min, p.h_max / 2, 20.0, 20.0)
    exact = problem.solve(x)
    tied = problem.solve(x, prefer_storage=True)
    assert tied.control.f_b == pytest.approx(admissible_controls(x, p).f_b_max, abs=TOL)
    assert tied.objective == pytest.approx(exact.objective, abs=TOL)
    assert tied.duals is None


def test_storage_tie_break_costs_at_most_its_weight(summer):
    rng = np.random.default_rng(19)
    p = summer
    slack = STORAGE_TIE_BREAK * (p.b_max - p.b_min + p.h_max)
    for _ in range(30):
        t = int(rng.integers(0, p.horizon_steps))
        lambdas, betas = random_cuts(rng, 15)
        problem = OneStageDecision(p, t, random_dist(rng), lambdas, betas)
        x = random_state(rng, p)
        exact = problem.solve(x)
        tied = problem.solve(x, prefer_storage=True)
        assert exact.objective - TOL <= tied.objective <= exact.objective + slack + TOL
        assert admissible_controls(x, p).contains(tied.control, tol=0.0)
        # the next exact solve sees the exact costs again
        assert_same(problem.solve(x), exact)


# ---------------------------------------------------------------------------
# MPC chains


@pytest.mark.parametrize("day", ["summer", "winter"])
def test_sliced_chain_matches_loop_oracle(day):
    cfg = parse_config(day_config(day))
    p, x0 = cfg.system, cfg.initial_state
    rng = np.random.default_rng(20)
    T = p.horizon_steps
    # runs of large hot-water draws between quiet spells: the planned reach
    # tops out at h_max, then falls below the floor
    draws = np.where(np.arange(T) % 23 < 15, 0.0, 6.0) + rng.uniform(0, 0.2, T)
    path = np.column_stack([rng.uniform(-2, 3, T), draws])
    template = ChainTemplate(p, x0, path)
    relaxed = 0
    for t0 in (0, 1, T // 2, T - 2, T - 1):
        chain = DeterministicChain(template, t0)
        x = random_state(rng, p)
        first = rng.uniform((-2.0, 0.0), (3.0, 6.0))
        chain.solve(x, first.tolist())
        demands = np.vstack([first, path[t0 + 1:]])
        oracle = loop_built_chain(p, t0, x0, p.h_floor, x, demands)
        relaxed += np.count_nonzero(oracle["lower_at_x"] < oracle["lower"])
        for name, vector in (("rhs", chain._persistent._rhs),
                             ("lower_at_x", chain._persistent._lower),
                             ("upper_at_x", chain._persistent._upper)):
            assert np.array_equal(vector, oracle[name]), (t0, name)
        indptr, indices, data = chain._rows
        rows = sp.csr_matrix((data, indices, indptr), shape=(indptr.size - 1, chain.c.size))
        n_eq = 4 * chain.ns - 1
        for name, matrix in (("a_eq", rows[:n_eq]), ("a_ub", rows[n_eq:])):
            assert matrix.shape == oracle[name].shape, (t0, name)
            assert matrix.nnz == oracle[name].nnz, (t0, name)
            assert np.array_equal(matrix.toarray(), oracle[name].toarray()), (t0, name)
        # the path's rows outside the head, which the template wrote once
        assert np.array_equal(np.delete(chain.b_eq, chain._head_rows),
                              np.delete(oracle["rhs"], chain._head_rows)), t0
        for name, vector in (("b_ub", chain.b_ub), ("c", chain.c),
                             ("lower", chain._lower_base), ("upper", chain._upper_base)):
            assert np.array_equal(vector, oracle[name]), (t0, name)
    assert relaxed > 0


@pytest.mark.parametrize("day, stride", [("summer", 1), ("winter", 1), ("spring", 2)])
def test_chain_optimum_is_the_full_state_optimum(day, stride):
    # at the states a played MPC visits, and at the forecasts it plans on,
    # the compact chain's optimum plus the first step's discomfort is that
    # of the chain with the wall temperature and a discomfort epigraph
    cfg = parse_config(strided_day_config(day, stride))
    p, x0 = cfg.system, cfg.initial_state
    T = p.horizon_steps
    opt, sim = split_scenarios(generate_scenarios(cfg.generator, 23, 5), 20, 42)
    ar, means = fit_ar(opt), scenario_means(opt)
    played = Recorder(MpcPolicy(p, x0, ar, means))
    tail = np.maximum(means, [-np.inf, 0.0])
    for scenario in sim.data:
        played.calls.clear()
        simulate_policy(played, scenario, x0, p)
        for t, x, w_obs, decision in played.calls[::T // 12]:
            first = update_forecast(ar, t, w_obs.as_array())
            value = full_state_chain_value(p, t, x0, p.h_floor, x,
                                           np.vstack([first, tail[t + 2:]]))
            assert decision.predicted_cost == pytest.approx(value, rel=1e-9, abs=0.0), t


def test_perfect_foresight_is_the_full_state_optimum(summer, summer_days):
    x0 = parse_config(day_config("summer")).initial_state
    for scenario in summer_days:
        value = full_state_chain_value(summer, 0, x0, 0.0, x0, scenario[1:])
        assert perfect_foresight_cost(summer, x0, scenario) == pytest.approx(value, rel=1e-9,
                                                                             abs=0.0)


@pytest.mark.parametrize("day, stride", [("summer", 1), ("spring", 2)])
def test_chain_rows_are_the_sparse_slice(day, stride):
    # the chain at t0 renumbers the template's columns instead of slicing a
    # scipy matrix; the arrays handed to HiGHS are the slice's, dtypes included
    cfg = parse_config(strided_day_config(day, stride))
    p = cfg.system
    T = p.horizon_steps
    template = ChainTemplate(p, cfg.initial_state, np.zeros((T, 2)))
    indptr, indices, data = template.rows
    a = sp.csr_matrix((data, indices, indptr), shape=(4 * T + 1, 10 * T))
    for t0 in range(T):
        chain = DeterministicChain(template, t0)
        cols = np.r_[6 * t0:6 * T, 6 * T + 4 * t0:10 * T]
        a_eq, a_ub = a[:4 * T - 1][4 * t0:][:, cols], a[4 * T - 1:][:, cols]
        expected = lpmod.stack_rows((a_eq.indptr, a_eq.indices, a_eq.data),
                                    (a_ub.indptr, a_ub.indices, a_ub.data))
        for got, want in zip(chain._rows, expected):
            assert got.dtype == want.dtype, t0
            assert np.array_equal(got, want), t0
        for name, vector in (("c", template.c), ("_lower_base", template.lower),
                             ("_upper_base", template.upper)):
            assert np.array_equal(getattr(chain, name), vector[cols]), (t0, name)


def test_chain_solves_hand_over_what_a_loop_built_chain_gives(summer_mpc, counting_core):
    # a re-solve writes the head rows and the first step's bounds, and the tank
    # floors only when they may have moved: after each solve the LP holds,
    # bit for bit, the rhs and bounds of the chain assembled entry by entry
    # at that state and forecast
    cfg, ar, _, _ = summer_mpc
    p = dataclasses.replace(cfg.system, h_floor=0.5 * cfg.system.h_max)  # often out of reach
    x0 = cfg.initial_state
    t0 = 60
    rng = np.random.default_rng(31)
    path = rng.uniform((-2.0, 0.0), (3.0, 2.0), (p.horizon_steps, 2))
    chain = DeterministicChain(ChainTemplate(p, x0, path), t0)
    relaxed = restored = 0
    was_relaxed = False
    for k in range(40):
        x = random_state(rng, p)
        first = update_forecast(ar, t0, rng.uniform((-2.0, 0.0), (3.0, 2.0)))
        calls = counting_core.calls.copy()
        chain.solve(x, first)
        oracle = loop_built_chain(p, t0, x0, p.h_floor, x, np.vstack([first, path[t0 + 1:]]))
        held, n_eq = chain._persistent, 4 * chain.ns - 1
        in_highs = held._solver.getLp()  # what HiGHS solved
        for name, vector in (("rhs", held._rhs), ("lower_at_x", held._lower),
                             ("upper_at_x", held._upper), ("rhs", in_highs.row_lower_[:n_eq]),
                             ("rhs", in_highs.row_upper_[:n_eq]),
                             ("lower_at_x", in_highs.col_lower_),
                             ("upper_at_x", in_highs.col_upper_)):
            assert np.array_equal(vector, oracle[name]), (k, name)
        is_relaxed = bool((oracle["lower_at_x"] < oracle["lower"]).any())
        relaxed += is_relaxed
        restored += was_relaxed and not is_relaxed
        was_relaxed = is_relaxed
        if k > 0:
            # only the head rows, and at most one call for the bounds
            assert counting_core.calls["changeRowBounds"] - calls["changeRowBounds"] <= 5, k
            assert counting_core.calls["changeColsBounds"] - calls["changeColsBounds"] <= 1, k
    assert relaxed > 0 and restored > 0
    # the same state and forecast again: nothing differs, nothing is sent
    calls = counting_core.calls.copy()
    chain.solve(x, first)
    for name in ("changeRowBounds", "changeColsBounds"):
        assert counting_core.calls[name] == calls[name], name


def test_seeded_first_solves_match_cold_chains(summer_mpc):
    cfg, ar, means, scenarios = summer_mpc
    p, x0 = cfg.system, cfg.initial_state
    policy = MpcPolicy(p, x0, ar, means)
    played = Recorder(policy)
    simulate_policy(played, scenarios[0], x0, p)
    seeded_iters = cold_iters = 0
    for t, x, w_obs, decision in played.calls:
        # a chain built without a predecessor starts cold
        cold = DeterministicChain(policy._template, t)
        ref = cold.solve(x, update_forecast(ar, t, w_obs.as_array()))
        assert decision.predicted_cost == pytest.approx(ref.objective, abs=1e-9), t
        if t > 0:
            seeded_iters += iterations(policy._chains[t])
            cold_iters += iterations(cold)
    # the shifted basis is nearly optimal
    assert seeded_iters * 10 < cold_iters


@pytest.fixture
def recording_core(monkeypatch):
    """HiGHS bindings that record the basis each new LP is seeded with."""
    core = RecordingCore(lpmod._highs_core)
    monkeypatch.setattr(lpmod, "_highs_core", core)
    return core


def test_seed_is_the_shifted_basis(summer, recording_core):
    T = summer.horizon_steps
    template = ChainTemplate(summer, State(1.0, 2.0, 20.0, 20.0),
                             np.column_stack([np.ones(T), np.full(T, 0.1)]))
    x = State(1.5, 2.0, 20.0, 20.0)
    for t0 in (1, 2, T // 2, T - 1):
        del recording_core.seeds[:]
        for digit in range(INDEX_DIGITS):
            prev = DeterministicChain(template, t0 - 1)
            prev._persistent = IndexBasis(prev.c.size, prev._rows[0].size - 1, digit)
            DeterministicChain(template, t0, prev).solve(x, (1.0, 0.1))
        for prev_labels, labels, seed in zip(chain_labels(summer, t0 - 1),
                                             chain_labels(summer, t0),
                                             seeded_indices(recording_core.seeds)):
            # each entry of the new chain starts from the status of the same
            # column or row of the chain at t0 - 1
            assert seed.tolist() == [prev_labels.index(label) for label in labels], t0


def test_sddp_seeded_first_solves_match_cold_stages(summer_sddp):
    cfg, vf, dists, scenarios = summer_sddp
    p, x0 = cfg.system, cfg.initial_state
    policy = SddpPolicy(p, vf, dists)
    played = Recorder(policy)
    simulate_policy(played, scenarios[0], x0, p)
    seeded_iters = cold_iters = 0
    for t, x, _, decision in played.calls:
        # a stage LP built without a predecessor starts cold
        cold = OneStageDecision(p, t, dists[t], *vf.arrays(t + 1))
        assert decision.predicted_cost == pytest.approx(cold.solve(x).objective, abs=1e-9), t
        if t > 0:
            seeded_iters += iterations(policy._problems[t])
            cold_iters += iterations(cold)
    # the previous stage's basis is nearly optimal: 223 against 761
    # iterations when this was written
    assert seeded_iters * 2 < cold_iters


def test_stage_seed_keeps_the_previous_basis(summer, recording_core):
    rng = np.random.default_rng(23)
    for t in (1, 2, summer.horizon_steps // 2, summer.horizon_steps - 1):
        prev = OneStageDecision(summer, t - 1, random_dist(rng), *random_cuts(rng, 7))
        s_count = prev.s_count
        fixed = 5 * s_count + 4  # equality and box rows
        dist = random_dist(rng)
        lambdas, betas = random_cuts(rng, 9)
        x = random_state(rng, summer)
        del recording_core.seeds[:]
        for digit in range(INDEX_DIGITS):
            prev._persistent = IndexBasis(prev.n, fixed + 7 * s_count, digit)
            OneStageDecision(summer, t, dist, lambdas, betas, prev).solve(x)
        cols, rows = seeded_indices(recording_core.seeds)
        # the columns, equality rows and box rows keep their statuses at t - 1
        assert cols.tolist() == list(range(prev.n)), t
        assert rows[:fixed].tolist() == list(range(fixed)), t
        # prev's cut rows are dropped; per scenario, the row of this stage's
        # cut maximal at x is nonbasic and the other cut rows basic
        expected = np.full((9, s_count), lpmod.BASIS_BASIC)
        expected[np.argmax(lambdas @ x.as_array() + betas)] = lpmod.BASIS_UPPER
        for _, seeded_rows in recording_core.seeds:
            assert seeded_rows[fixed:] == expected.ravel().tolist(), t
    # another scenario count is another column layout: no seed
    OneStageDecision(summer, t, random_dist(rng, s=5), lambdas, betas, prev).solve(x)
    assert len(recording_core.seeds) == INDEX_DIGITS


def test_stage_seed_is_the_basis_that_answered(summer_sddp, summer_days):
    # after an answer from a kept basis other than the one HiGHS holds, the
    # basis handed to the next stage LP is the one that answered: a fresh
    # stage LP started from it takes no pivot
    cfg, vf, dists, scenarios = summer_sddp
    p, x0 = cfg.system, cfg.initial_state
    policy = SddpPolicy(p, vf, dists)
    handed = []

    class Checked:
        name = "sddp"

        def decide(self, t, x, w_obs):
            decision = policy.decide(t, x, w_obs)
            persistent = policy._problems[t]._persistent
            entry, n = persistent._answer, persistent._cost.size
            if entry is not None:
                _, basic = persistent._solver.getBasicVariables()
                if not np.array_equal(np.sort(np.where(basic >= 0, basic, n - 1 - basic)),
                                      entry.ext):
                    handed.append((t, x, decision.predicted_cost, persistent.basis()))
            return decision

    for scenario in (scenarios[0], *summer_days[:4]):
        simulate_policy(Checked(), scenario, x0, p)
    assert len(handed) >= 10
    for t, x, value, basis in handed[::len(handed) // 10][:10]:
        cols, rows = basis
        assert np.count_nonzero(cols == lpmod.BASIS_BASIC) + np.count_nonzero(
            rows == lpmod.BASIS_BASIC) == rows.size, t
        fresh = OneStageDecision(p, t, dists[t], *vf.arrays(t + 1))
        fresh.solve(x)
        set_basis(fresh._persistent, basis)
        fresh._persistent._forget()
        assert fresh.solve(x).objective == pytest.approx(value, abs=TOL), t
        assert iterations(fresh) == 0, t


STAGE_ARRAYS = ("c", "_c_decide", "b_eq", "_b_box", "_lower_base", "_upper_base",
                "_theta", "_next")


def test_stage_built_with_prev_shares_the_layout(summer):
    rng = np.random.default_rng(24)
    prev = OneStageDecision(summer, 0, random_dist(rng), *random_cuts(rng, 3))
    for t in range(1, summer.horizon_steps):
        dist = random_dist(rng)
        lambdas, betas = random_cuts(rng, 4)
        shared = OneStageDecision(summer, t, dist, lambdas, betas, prev)
        fresh = OneStageDecision(summer, t, dist, lambdas, betas)
        for name in STAGE_ARRAYS:
            got, want = getattr(shared, name), getattr(fresh, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), (t, name)
        for got, want in zip(shared._rows, fresh._rows):
            assert got.dtype == want.dtype and np.array_equal(got, want), t
        assert shared._rows is prev._rows, t
        prev = shared
    # another scenario count is another layout, other params other rows:
    # nothing is shared
    winter = parse_config(day_config("winter")).system
    theirs = [getattr(prev, name) for name in STAGE_ARRAYS] + list(prev._rows)
    for p, dist in ((summer, random_dist(rng, s=5)), (winter, random_dist(rng))):
        other = OneStageDecision(p, 5, dist, lambdas, betas, prev)
        mine = [getattr(other, name) for name in STAGE_ARRAYS] + list(other._rows)
        assert not any(np.shares_memory(a, b) for a in mine for b in theirs)


@pytest.mark.parametrize("kind", ["mpc", "sddp"])
def test_pickled_played_policy_bills_as_a_pickled_fresh_one(kind, request):
    # a worker receives the policy pickled; one that has played already must
    # not carry its LPs there, built or not
    if kind == "mpc":
        cfg, ar, means, scenarios = request.getfixturevalue("summer_mpc")
        make = functools.partial(MpcPolicy, cfg.system, cfg.initial_state, ar, means)
    else:
        cfg, vf, dists, scenarios = request.getfixturevalue("summer_sddp")
        make = functools.partial(SddpPolicy, cfg.system, vf, dists)
    p, x0 = cfg.system, cfg.initial_state
    played = make()
    simulate_policy(played, scenarios[0], x0, p)
    copy, fresh = pickle.loads(pickle.dumps(played)), pickle.loads(pickle.dumps(make()))
    for scenario in scenarios[1:]:
        assert (simulate_policy(copy, scenario, x0, p).total_cost
                == simulate_policy(fresh, scenario, x0, p).total_cost)


@pytest.fixture(scope="module")
def summer_days(summer_sddp):
    """Twelve more summer days, none of them seen in training."""
    return generate_scenarios(summer_sddp[0].generator, 12, 9).data


@pytest.fixture
def counting_core(monkeypatch):
    """HiGHS bindings that count the runs of every LP built afterwards."""
    core = CountingCore(lpmod._highs_core)
    monkeypatch.setattr(lpmod, "_highs_core", core)
    return core


def keep_no_basis(monkeypatch):
    """Every pinned solve runs HiGHS, as before bases were kept."""
    monkeypatch.setattr(lpmod.PersistentLp, "_table_answer", lambda *args: None)


def test_kept_basis_answers_as_a_forced_run(summer_sddp, summer_days, counting_core,
                                            monkeypatch):
    cfg, vf, dists, scenarios = summer_sddp
    p, x0 = cfg.system, cfg.initial_state
    policy = SddpPolicy(p, vf, dists)
    simulate_policy(policy, scenarios[0], x0, p)  # builds the stage LPs
    real_solve = lpmod.PersistentLp.solve
    answers = []

    def solve(self, *args, **kwargs):
        runs = counting_core.runs
        sol = real_solve(self, *args, **kwargs)
        if counting_core.runs == runs:
            # answered without a run: run HiGHS at the same bounds from the
            # basis that answered, which must then take no pivot
            kept = self._kept
            set_basis(self, self.basis())
            self._forget()
            answers.append((sol, real_solve(self, *args, **kwargs)))
            assert counting_core.runs == runs + 1
            assert self._solver.getInfoValue("simplex_iteration_count")[1] == 0
            # HiGHS no longer holds the last run's basis: keep only read bases
            self._kept = [entry for entry in kept if entry.factor is not None]
        return sol

    monkeypatch.setattr(lpmod.PersistentLp, "solve", solve)
    for scenario in summer_days:
        simulate_policy(policy, scenario, x0, p)
    assert 2 * len(answers) >= len(summer_days) * p.horizon_steps
    for sol, ref in answers:
        assert sol.objective == pytest.approx(ref.objective, abs=TOL)
        np.testing.assert_allclose(sol.x_star[4:8], ref.x_star[4:8], atol=TOL)  # control
        np.testing.assert_allclose(sol.reduced_costs, ref.reduced_costs, atol=TOL)


def test_answers_are_the_concatenated_arithmetic_bit_for_bit(summer_sddp, monkeypatch):
    # every try of a kept basis decides as the concatenated limits and the
    # basis solve of the first kept-basis answers do, and an answer is their
    # vertex, with equal floats: the table's first optimal read entry, else
    # the basis of the last run, which HiGHS still holds and the table keeps
    # unread. A basis answers only at the bounds of the run that found it,
    # the pinned ones apart, and carries the limits gathered from them.
    # Played on 20 held-out summer days, then at states that relax the tank
    # floors of a stage LP and restore them: each write that moves a floor
    # empties the table
    cfg, vf, dists, _ = summer_sddp
    p, x0 = cfg.system, cfg.initial_state
    real_solve, real_try = lpmod.PersistentLp.solve, lpmod.PersistentLp._table_answer
    seen = {"table": 0, "held": 0, "refused": 0, "moved": 0}
    found = {}  # each kept basis: the bounds, pinned ones as 0, of its run

    def same(sol, oracle):
        x, objective, reduced_costs = oracle
        assert (sol.x_star == x).all()
        assert sol.objective == objective
        assert (sol.reduced_costs == reduced_costs).all()

    def read_entries(persistent):
        return [entry for entry in persistent._kept if entry.factor is not None]

    def table_try(self, x_pin):
        # the unread basis is tried when no read one answers
        held = [entry for entry in self._kept if entry.factor is None]
        tried = held and table_answer(self, read_entries(self)) is None
        oracle = held_answer(self, held[0]) if tried else None
        sol = real_try(self, x_pin)
        if tried:
            answered = sol is not None and self._answer is held[0]
            assert answered == (oracle is not None)
            if answered:
                same(sol, oracle)
                seen["held"] += 1
            else:
                seen["refused"] += 1
        return sol

    def solve(self, *args, **kwargs):
        table = read_entries(self)
        before = concatenated_limits(self)[0]  # the bounds the last solve left
        sol = real_solve(self, *args, **kwargs)
        bounds, limits = concatenated_limits(self)
        entry = self._answer
        if not (bounds == before).all():
            # a floor moved: no basis kept before answers, and none stays
            seen["moved"] += 1
            assert entry is None and all(kept not in found for kept in self._kept)
            table = []
        oracle = table_answer(self, table)
        if entry is None or all(entry is not kept for kept in table):
            assert oracle is None  # the table refused, as before
        else:
            assert oracle is not None and oracle[0] is entry
            same(sol, oracle[1:])
            seen["table"] += 1
        if entry is not None:
            assert (found[entry] == bounds).all()
            assert (entry.lo == limits[0, entry.ext]).all()
            assert (entry.hi == limits[1, entry.ext]).all()
        for kept in self._kept:  # a run's basis, kept at the bounds of the run
            found.setdefault(kept, bounds)
        return sol

    monkeypatch.setattr(lpmod.PersistentLp, "solve", solve)
    monkeypatch.setattr(lpmod.PersistentLp, "_table_answer", table_try)
    policy = SddpPolicy(p, vf, dists)
    for day in generate_scenarios(cfg.generator, 20, 13).data:
        simulate_policy(policy, day, x0, p)
    assert 2 * seen["table"] >= 20 * p.horizon_steps
    assert seen["held"] > 0 and seen["refused"] > 0
    # in the hot-water windows a nearly empty tank relaxes the floors, one a
    # little fuller relaxes them less, and a full one restores them; each
    # state is solved twice, so the basis of a run is tried too
    low, full = State(2.0, 0.02 * p.h_max, 22.0, 21.0), State(2.8, 0.97 * p.h_max, 24.0, 23.0)
    fuller = dataclasses.replace(low, h=0.03 * p.h_max)
    moved = seen["moved"]
    for t in (28, 32, 76, 80):
        problem = policy._problems[t]
        for x in (low, low, fuller, fuller, full, full, low, low, full, full):
            problem.solve(x)
    # each LP's floors move at least at its first low, both fulls and the low between
    assert seen["moved"] >= moved + 4 * 4


def test_scripted_run_is_repeatable():
    # a training and a play make the same HiGHS calls, with the same values,
    # each time they run in one process: what the digest compares between
    # two trees is theirs alone
    first, second = scripted_run(), scripted_run()
    assert first["calls"]["training"]["run"] > 0 and first["calls"]["mpc"]["run"] > 0
    assert first["calls"] == second["calls"]
    assert first["digests"] == second["digests"]
    assert first["lower_bound"] == second["lower_bound"]
    assert first["bills"] == second["bills"]


def test_kept_basis_falls_back_outside_its_region(summer_sddp, summer_days, counting_core):
    cfg, vf, dists, _ = summer_sddp
    p, x0 = cfg.system, cfg.initial_state
    policy = SddpPolicy(p, vf, dists)
    for scenario in summer_days[:3]:
        simulate_policy(policy, scenario, x0, p)
    t = 40
    problem = policy._problems[t]
    assert any(entry.factor is not None for entry in problem._persistent._kept)
    # kept at states the policy reached; this one is far from all of them
    x = State(p.b_max, 0.1 * p.h_max, 28.0, 27.0)
    runs = counting_core.runs
    sol = problem.solve(x)
    assert counting_core.runs == runs + 1
    assert_same(sol, OneStageDecision(p, t, dists[t], *vf.arrays(t + 1)).solve(x))


def test_fresh_policies_answer_half_the_spring_decisions(counting_core):
    # half-resolution spring played as two chunks of 16 days, each by a
    # fresh policy: the stage LPs keep bases from their first days on
    doc = strided_day_config("spring", 2)
    for section in ("generator", "sddp", "assessment"):
        doc.setdefault(section, {})["seed"] = 1
    cfg = parse_config(doc)
    p, x0 = cfg.system, cfg.initial_state
    opt, sim = split_scenarios(generate_scenarios(cfg.generator, 232, cfg.generator_seed),
                               200, cfg.split_seed)
    dists = quantize_stagewise(opt, s=cfg.sddp_s_offline, seed=cfg.sddp_seed)
    vf, _ = sddp_train(p, dists, x0, StoppingRule(max_iters=8, lb_tol=0.0),
                       seed=cfg.sddp_seed)
    runs = counting_core.runs
    for chunk in np.array_split(sim.data, 2):
        policy = SddpPolicy(p, vf, dists)
        for scenario in chunk:
            simulate_policy(policy, scenario, x0, p)
    decisions = sim.n * p.horizon_steps
    assert 2 * (decisions - (counting_core.runs - runs)) >= decisions


def test_training_keeps_no_basis(summer_sddp, monkeypatch):
    # training flips the costs between its passes and appends cuts, so it
    # never keeps a basis, and trains as it did without kept bases
    cfg, _, dists, _ = summer_sddp
    kept = []
    real_init = lpmod._KeptBasis.__init__
    monkeypatch.setattr(lpmod._KeptBasis, "__init__",
                        lambda self, *args: kept.append(args) or real_init(self, *args))

    def train():
        return sddp_train(cfg.system, dists, cfg.initial_state,
                          StoppingRule(max_iters=6, lb_tol=0.0), seed=1)

    vf, log = train()
    assert not kept
    keep_no_basis(monkeypatch)
    vf_off, log_off = train()
    assert log.lower_bounds == log_off.lower_bounds
    assert log.forward_costs == log_off.forward_costs
    for t in range(cfg.system.horizon_steps + 1):
        for a, b in zip(vf.arrays(t), vf_off.arrays(t)):
            assert np.array_equal(a, b), t


def test_bills_match_with_no_basis_kept(summer_sddp, summer_mpc, summer_days, monkeypatch):
    cfg, vf, dists, _ = summer_sddp
    _, ar, means, _ = summer_mpc
    p, x0 = cfg.system, cfg.initial_state

    def bills():
        played = {"heuristic": HeuristicPolicy(p, x0), "mpc": MpcPolicy(p, x0, ar, means),
                  "sddp": SddpPolicy(p, vf, dists)}
        return {name: [simulate_policy(policy, scenario, x0, p).total_cost
                       for scenario in summer_days[:8]] for name, policy in played.items()}

    kept = bills()
    keep_no_basis(monkeypatch)
    run = bills()
    assert kept["heuristic"] == run["heuristic"]
    assert kept["mpc"] == run["mpc"]
    # answers differ from HiGHS's by rounding only; on other days that can
    # flip a later LP tie to another optimal vertex, which none of these has
    np.testing.assert_allclose(kept["sddp"], run["sddp"], rtol=1e-9, atol=0.0)


class TestColdPath:
    def test_warns_once(self, monkeypatch, caplog):
        monkeypatch.setattr(lpmod, "_highs_core", None)
        monkeypatch.setattr(lpmod, "_cold_path_warned", False)
        p = battery_params()
        with caplog.at_level(logging.WARNING, logger="microgrid_ems.lp"):
            for _ in range(3):
                OneStageDecision(p, 0, two_point_dists()[0], np.zeros((1, 4)),
                                 np.zeros(1)).solve(battery_x0())
        warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 1 and "HiGHS" in warnings[0].getMessage()

    def test_matches_warm_path(self, summer, monkeypatch):
        rng = np.random.default_rng(18)
        dist = random_dist(rng)
        lambdas, betas = random_cuts(rng, 12)
        states = [random_state(rng, summer) for _ in range(20)]

        def play(core):
            monkeypatch.setattr(lpmod, "_highs_core", core)
            problem = OneStageDecision(summer, 60, dist, lambdas[:3], betas[:3])
            problem.solve(states[0])
            for lam, beta in zip(lambdas[3:], betas[3:]):
                problem.add_cut(lam, beta)
            assert (problem._persistent._solver is None) == (core is None)
            return [(problem.solve(x), problem.solve(x, prefer_storage=True))
                    for x in states]

        warm = play(lpmod._highs_core)
        monkeypatch.setattr(lpmod, "_cold_path_warned", True)
        cold = play(None)
        for (a, a_tied), (b, b_tied) in zip(warm, cold):
            assert_same(a, b)
            np.testing.assert_allclose(a.control.as_array(), b.control.as_array(), atol=TOL)
            assert a_tied.objective == pytest.approx(b_tied.objective, abs=TOL)

    def test_mpc_matches_warm_path(self, summer_mpc, monkeypatch):
        cfg, ar, means, scenarios = summer_mpc
        p, x0 = cfg.system, cfg.initial_state
        played = Recorder(MpcPolicy(p, x0, ar, means))
        simulate_policy(played, scenarios[1], x0, p)
        monkeypatch.setattr(lpmod, "_highs_core", None)
        monkeypatch.setattr(lpmod, "_cold_path_warned", True)
        cold = MpcPolicy(p, x0, ar, means)
        # Fed the same states, the cold path finds the same optima. Bills may
        # differ where the plan has ties: each path may pick another vertex.
        for t, x, w_obs, decision in played.calls:
            assert cold.decide(t, x, w_obs).predicted_cost == pytest.approx(
                decision.predicted_cost, abs=1e-7), t
            # seeding is a no-op: there is no basis to hand on or to set
            assert cold._chains[t]._persistent.basis() is None

    def test_sddp_matches_warm_path(self, summer_sddp, monkeypatch):
        cfg, vf, dists, scenarios = summer_sddp
        p, x0 = cfg.system, cfg.initial_state
        played = Recorder(SddpPolicy(p, vf, dists))
        simulate_policy(played, scenarios[1], x0, p)
        monkeypatch.setattr(lpmod, "_highs_core", None)
        monkeypatch.setattr(lpmod, "_cold_path_warned", True)
        cold = SddpPolicy(p, vf, dists)
        # fed the same states, the cold path finds the same optima
        for t, x, w_obs, decision in played.calls:
            assert cold.decide(t, x, w_obs).predicted_cost == pytest.approx(
                decision.predicted_cost, abs=1e-7), t
            # seeding is a no-op: there is no basis to hand on or to set
            assert cold._problems[t]._persistent.basis() is None

    def test_sddp_trains_on_cold_path(self, monkeypatch):
        monkeypatch.setattr(lpmod, "_highs_core", None)
        monkeypatch.setattr(lpmod, "_cold_path_warned", True)
        p = battery_params()
        vf, log = sddp_train(p, two_point_dists(), battery_x0(),
                             StoppingRule(max_iters=8, lb_tol=0.0), seed=0)
        assert log.iterations == 8
        assert all(b >= a - 1e-7 for a, b in zip(log.lower_bounds, log.lower_bounds[1:]))
        assert len(log.iteration_seconds) == 8
