import numpy as np
import pytest

from microgrid_ems import stagelp
from microgrid_ems.model import (
    State,
    Uncertainty,
    admissible_controls,
    stage_cost,
    step,
    terminal_cost,
)
from microgrid_ems.policies import (
    Cut,
    HeuristicPolicy,
    MpcPolicy,
    SddpPolicy,
    StoppingRule,
    ValueFunctions,
    perfect_foresight_cost,
    sddp_train,
)
from microgrid_ems.scenarios import DiscreteDistribution, fit_ar, scenario_means, ScenarioSet

from helpers import (
    battery_params,
    battery_x0,
    grid_search_cost,
    tree_optimal_value,
    two_point_dists,
)


class TestValueFunctions:
    def test_initial_zero_everywhere(self):
        p = battery_params()
        vf = ValueFunctions.initial(p, battery_x0())
        for t in range(p.horizon_steps):
            assert vf.evaluate(t, State(2.0, 0.0, 10.0, 10.0)) == 0.0

    def test_terminal_pieces_exact(self):
        p = battery_params(kappa=2.0)
        x0 = battery_x0()
        vf = ValueFunctions.initial(p, x0)
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = State(rng.uniform(0.9, 3.0), rng.uniform(0.0, 1.0), 0.0, 0.0)
            assert vf.evaluate(p.horizon_steps, x) == pytest.approx(
                terminal_cost(x, x0, p.kappa), abs=1e-12)

    def test_max_of_two_affine(self):
        # 1-D cuts {(1,0), (-1,2)}: value at 0.5 is max(0.5, 1.5) = 1.5
        cuts = [[Cut(np.array([1.0, 0, 0, 0]), 0.0),
                 Cut(np.array([-1.0, 0, 0, 0]), 2.0)]] * 2
        vf = ValueFunctions(cuts)
        assert vf.evaluate(0, State(0.5, 0, 0, 0)) == pytest.approx(1.5)

    def test_adding_cut_monotone(self):
        p = battery_params()
        vf = ValueFunctions.initial(p, battery_x0())
        rng = np.random.default_rng(1)
        states = [State(rng.uniform(0.9, 3), rng.uniform(0, 1), 0, 0)
                  for _ in range(100)]
        before = [vf.evaluate(1, x) for x in states]
        vf.add_cut(1, Cut(rng.standard_normal(4) * 0.1, 0.05))
        after = [vf.evaluate(1, x) for x in states]
        assert all(after[i] >= before[i] for i in range(len(states)))

    def test_json_round_trip(self, tmp_path):
        p = battery_params()
        vf = ValueFunctions.initial(p, battery_x0())
        vf.add_cut(0, Cut(np.array([0.1, -0.2, 0.0, 0.3]), 1.5))
        path = tmp_path / "cuts.json"
        vf.to_json(path)
        loaded = ValueFunctions.from_json(path)
        assert loaded.cut_counts() == vf.cut_counts()
        x = State(1.1, 0.2, 3.0, 4.0)
        for t in range(p.horizon_steps + 1):
            assert loaded.evaluate(t, x) == vf.evaluate(t, x)

    def test_cut_stored_once(self):
        lam = np.array([0.1, -0.2, 0.0, 0.3])
        cut = Cut(lam, 1.5)
        # a duplicate inside the initial set is dropped too
        vf = ValueFunctions([[cut, Cut(lam, 2.5), cut]])
        assert vf.cut_counts() == [2]
        # a slope equal up to rounding to 12 decimals is the same cut
        assert not vf.add_cut(0, Cut(lam + 1e-14, 1.5))
        assert vf.add_cut(0, Cut(lam, 3.5))
        assert vf.cut_counts() == [3]

    def test_cut_validation(self):
        with pytest.raises(ValueError):
            Cut(np.array([1.0, 2.0]), 0.0)
        with pytest.raises(ValueError):
            Cut(np.zeros(4), float("nan"))


class TestHeuristic:
    def test_surplus_charges(self):
        p = battery_params()
        pol = HeuristicPolicy(p, battery_x0())
        u = pol.decide(0, State(1.5, 0, 15, 15), Uncertainty(-1.0, 0.0)).control
        assert u.f_b == pytest.approx(1.0)

    def test_deficit_discharges(self):
        p = battery_params()
        pol = HeuristicPolicy(p, battery_x0())
        u = pol.decide(0, State(1.5, 0, 15, 15), Uncertainty(2.0, 0.0)).control
        box = admissible_controls(State(1.5, 0, 15, 15), p)
        assert u.f_b == pytest.approx(max(-2.0, box.f_b_min))

    def test_full_battery_no_charge(self):
        p = battery_params()
        pol = HeuristicPolicy(p, battery_x0())
        u = pol.decide(0, State(3.0, 0, 15, 15), Uncertainty(-2.0, 0.0)).control
        assert u.f_b == 0.0

    def test_hysteresis(self):
        from microgrid_ems.config import day_config, parse_config
        cfg = parse_config(day_config("winter"))
        p, x0 = cfg.system, cfg.initial_state
        pol = HeuristicPolicy(p, x0, margin_deg_c=1.0)
        # cold: heater on at full power (t=30 is daytime, setpoint 20)
        u = pol.decide(30, State(1.5, 2.8, 18.0, 19.0), Uncertainty(0, 0)).control
        assert u.f_t == p.f_t_max
        # inside the margin band: stays on
        u = pol.decide(31, State(1.5, 2.8, 18.0, 20.5), Uncertainty(0, 0)).control
        assert u.f_t == p.f_t_max
        # above setpoint + margin: off
        u = pol.decide(32, State(1.5, 2.8, 18.0, 21.5), Uncertainty(0, 0)).control
        assert u.f_t == 0.0
        # back inside the band: stays off
        u = pol.decide(33, State(1.5, 2.8, 18.0, 20.5), Uncertainty(0, 0)).control
        assert u.f_t == 0.0

    def test_always_admissible(self):
        p = battery_params()
        pol = HeuristicPolicy(p, battery_x0())
        rng = np.random.default_rng(2)
        for _ in range(200):
            x = State(rng.uniform(0.9, 3), rng.uniform(0, 1), 0, 0)
            w = Uncertainty(rng.uniform(-4, 4), 0.0)
            u = pol.decide(0, x, w).control
            assert admissible_controls(x, p).contains(u)


class TestMpc:
    @pytest.mark.parametrize("malformed", ["one column", "T rows", "T + 2 rows", "NaN"])
    def test_malformed_means_are_rejected(self, malformed):
        # a (T + 1, 1) array used to broadcast into both demands, and a NaN
        # was played; both are refused by name, as are too few or too many rows
        p = battery_params()
        T = p.horizon_steps
        data = np.zeros((4, T + 1, 2))
        data[:, 1:, 0] = np.random.default_rng(5).uniform(0.5, 2, (4, T))
        opt = ScenarioSet(data, role="optimization")
        ar, means = fit_ar(opt), scenario_means(opt)
        MpcPolicy(p, battery_x0(), ar, means)
        nan = means.copy()
        nan[T // 2, 0] = np.nan
        bad = {"one column": means[:, :1], "T rows": means[:-1],
               "T + 2 rows": np.vstack([means, means[-1:]]), "NaN": nan}[malformed]
        with pytest.raises(ValueError, match=rf"^means must be a finite array of shape "
                                             rf"\({T + 1}, 2\), got "):
            MpcPolicy(p, battery_x0(), ar, bad)

    def test_last_stage_nothing_to_do(self):
        p = battery_params()
        x = State(2.0, 0.5, 15.0, 15.0)
        x_ref = State(1.0, 0.2, 15.0, 15.0)  # stocks above reference
        t = p.horizon_steps - 1
        path = np.zeros((p.horizon_steps, 2))
        chain = stagelp.DeterministicChain(stagelp.ChainTemplate(p, x_ref, path), t)
        dec = chain.solve(x, (0.0, 0.0))
        assert dec.objective == pytest.approx(0.0, abs=1e-9)
        # any optimal control realizes zero cost on the zero scenario
        w = Uncertainty(0.0, 0.0)
        realized = (stage_cost(t, x, dec.control, w, p)
                    + terminal_cost(step(t, x, dec.control, w, p), x_ref,
                                    p.kappa))
        assert realized == pytest.approx(0.0, abs=1e-9)

    def test_single_step_import_priced(self):
        p = battery_params()
        x = State(0.9, 0.0, 15.0, 15.0)  # empty stocks
        x_ref = State(0.9, 0.0, 15.0, 15.0)
        t = p.horizon_steps - 1
        path = np.zeros((p.horizon_steps, 2))
        chain = stagelp.DeterministicChain(stagelp.ChainTemplate(p, x_ref, path), t)
        dec = chain.solve(x, (2.0, 0.0))
        assert dec.objective == pytest.approx(p.pi_e[t] * p.delta * 2.0, abs=1e-9)

    def test_perfect_foresight_matches_grid_search(self):
        p = battery_params()
        x0 = battery_x0()
        rng = np.random.default_rng(4)
        demands = np.zeros((p.horizon_steps + 1, 2))
        demands[1:, 0] = rng.uniform(-1.0, 2.5, p.horizon_steps)
        lp_cost = perfect_foresight_cost(p, x0, demands)
        grid = grid_search_cost(p, x0, demands[1:], n_grid=13)
        assert lp_cost <= grid + 1e-9           # LP at least as good
        assert lp_cost == pytest.approx(grid, abs=0.05)  # grid resolution

    def test_policy_reproducible_and_admissible(self):
        p = battery_params()
        x0 = battery_x0()
        rng = np.random.default_rng(5)
        data = np.zeros((6, p.horizon_steps + 1, 2))
        data[:, :, 0] = rng.uniform(-1, 2, (6, p.horizon_steps + 1))
        opt = ScenarioSet(data, role="optimization")
        ar, means = fit_ar(opt), scenario_means(opt)
        pol = MpcPolicy(p, x0, ar, means)
        x = State(1.8, 0.0, 15.0, 15.0)
        d1 = pol.decide(2, x, Uncertainty(1.0, 0.0))
        d2 = pol.decide(2, x, Uncertainty(1.0, 0.0))
        assert d1.control == d2.control
        assert admissible_controls(x, p).contains(d1.control)


class TestSddpTraining:
    def test_deterministic_noise_equals_deterministic_lp(self):
        # single-point noise: SDDP reduces to the deterministic problem
        p = battery_params()
        x0 = battery_x0()
        point = DiscreteDistribution(points=np.array([[1.0, 0.0]]),
                                     weights=np.array([1.0]))
        dists = [point] * p.horizon_steps
        vf, log = sddp_train(p, dists, x0,
                             StoppingRule(max_iters=10, lb_tol=1e-12,
                                          patience=3), seed=0)
        demands = np.zeros((p.horizon_steps + 1, 2))
        demands[1:, 0] = 1.0
        det = perfect_foresight_cost(p, x0, demands)
        assert log.lower_bounds[-1] == pytest.approx(det, abs=1e-7)

    def test_zero_demand_zero_cost(self):
        p = battery_params()
        x0 = battery_x0()
        point = DiscreteDistribution(points=np.array([[0.0, 0.0]]),
                                     weights=np.array([1.0]))
        vf, log = sddp_train(p, [point] * p.horizon_steps, x0,
                             StoppingRule(max_iters=5, lb_tol=1e-12,
                                          patience=2), seed=0)
        assert log.lower_bounds[-1] == pytest.approx(0.0, abs=1e-9)

    def test_lower_bound_monotone_and_converges(self):
        p = battery_params()
        x0 = battery_x0()
        dists = two_point_dists()
        vf, log = sddp_train(p, dists, x0,
                             StoppingRule(max_iters=100, lb_tol=1e-12,
                                          patience=10), seed=3)
        lbs = np.array(log.lower_bounds)
        assert np.all(np.diff(lbs) >= -1e-9)
        opt = tree_optimal_value(p, dists, 0, x0.b)
        assert lbs[-1] == pytest.approx(opt, abs=1e-6)

    def test_each_cut_stored_once(self):
        # near convergence the backward pass derives some cuts again; the
        # store keeps one copy of each, as the stage LPs do
        p = battery_params()
        dists = two_point_dists()
        vf, log = sddp_train(p, dists, battery_x0(),
                             StoppingRule(max_iters=30, lb_tol=1e-12,
                                          patience=30), seed=1)
        counts = vf.cut_counts()
        assert log.cut_counts[-1] == sum(counts)
        for t in range(1, p.horizon_steps + 1):
            stage = stagelp.OneStageDecision(p, t - 1, dists[t - 1], *vf.arrays(t))
            assert counts[t] == stage.n_cuts, t
        lambdas, betas = vf.arrays(1)
        assert not vf.add_cut(1, Cut(lambdas[-1], betas[-1]))
        assert vf.cut_counts() == counts

    def test_distribution_count_checked(self):
        p = battery_params()
        with pytest.raises(ValueError):
            sddp_train(p, two_point_dists()[:2], battery_x0())


class TestSddpPolicy:
    def test_one_point_matches_deterministic_one_step(self):
        # single noise point, terminal pieces as the only future value: the
        # online decision coincides with the deterministic one-step LP
        p = battery_params()
        x = State(1.2, 0.0, 15.0, 15.0)
        x_ref = battery_x0()
        t = p.horizon_steps - 1
        dist = DiscreteDistribution(points=np.array([[2.0, 0.0]]),
                                    weights=np.array([1.0]))
        vf = ValueFunctions.initial(p, x_ref)
        pol = SddpPolicy(p, vf, [dist] * p.horizon_steps)
        dec = pol.decide(t, x, Uncertainty(0.0, 0.0))
        path = np.zeros((p.horizon_steps, 2))
        chain = stagelp.DeterministicChain(stagelp.ChainTemplate(p, x_ref, path), t)
        det = chain.solve(x, (2.0, 0.0))
        assert dec.predicted_cost == pytest.approx(det.objective, abs=1e-7)
        w = Uncertainty(2.0, 0.0)
        for u in (dec.control, det.control):
            realized = (stage_cost(t, x, u, w, p)
                        + terminal_cost(step(t, x, u, w, p), x_ref, p.kappa))
            assert realized == pytest.approx(dec.predicted_cost, abs=1e-7)

    def test_decisions_in_box_random_sweep(self):
        p = battery_params()
        x0 = battery_x0()
        dists = two_point_dists()
        vf, _ = sddp_train(p, dists, x0,
                           StoppingRule(max_iters=30, lb_tol=1e-12,
                                        patience=5), seed=1)
        pol = SddpPolicy(p, vf, dists)
        rng = np.random.default_rng(6)
        for _ in range(200):
            t = int(rng.integers(0, p.horizon_steps))
            x = State(rng.uniform(0.9, 3), 0.0, 15.0, 15.0)
            u = pol.decide(t, x, Uncertainty(0.0, 0.0)).control
            assert admissible_controls(x, p).contains(u)

    def test_nonanticipativity_bitwise(self):
        # two scenarios sharing a prefix: identical decisions on the prefix
        # from fresh policy instances of each kind
        p = battery_params()
        x0 = battery_x0()
        dists = two_point_dists()
        vf, _ = sddp_train(p, dists, x0,
                           StoppingRule(max_iters=20, lb_tol=1e-12,
                                        patience=5), seed=2)
        rng = np.random.default_rng(7)
        prefix = rng.uniform(0.5, 2.0, 3)
        scen_a = np.zeros((p.horizon_steps + 1, 2))
        scen_b = np.zeros((p.horizon_steps + 1, 2))
        scen_a[1:4, 0] = prefix
        scen_b[1:4, 0] = prefix
        scen_a[4:, 0] = 0.5
        scen_b[4:, 0] = 2.0

        data = np.zeros((4, p.horizon_steps + 1, 2))
        data[:, 1:, 0] = rng.uniform(0.5, 2, (4, p.horizon_steps))
        opt = ScenarioSet(data, role="optimization")
        ar, means = fit_ar(opt), scenario_means(opt)

        def roll(policy_factory, scen):
            pol = policy_factory()
            x, controls = x0, []
            for t in range(3):
                u = pol.decide(t, x, Uncertainty(*scen[t])).control
                controls.append(u)
                x = step(t, x, u, Uncertainty(*scen[t + 1]), p)
            return controls

        factories = {
            "heuristic": lambda: HeuristicPolicy(p, x0),
            "mpc": lambda: MpcPolicy(p, x0, ar, means),
            "sddp": lambda: SddpPolicy(p, vf, dists),
        }
        for name, factory in factories.items():
            ca = roll(factory, scen_a)
            cb = roll(factory, scen_b)
            assert ca == cb, name


class TestCutValiditySmallInstance:
    def test_cuts_below_exact_value(self):
        p = battery_params()
        x0 = battery_x0()
        dists = two_point_dists()
        vf, _ = sddp_train(p, dists, x0,
                           StoppingRule(max_iters=60, lb_tol=1e-12,
                                        patience=10), seed=4)
        rng = np.random.default_rng(8)
        for t in range(p.horizon_steps):
            for _ in range(10):
                b = rng.uniform(0.9, 3.0)
                approx = vf.evaluate(t, State(b, 0.0, 15.0, 15.0))
                exact = tree_optimal_value(p, dists, t, b)
                assert approx <= exact + 1e-6
