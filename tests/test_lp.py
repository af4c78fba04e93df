import numpy as np
import pytest
import scipy.sparse as sp

from microgrid_ems import lp as lpmod
from microgrid_ems.lp import (
    BASIS_BASIC,
    BASIS_UPPER,
    LinearProgram,
    LpError,
    LpStatus,
    PersistentLp,
    parametric_duals,
    solve,
)

from helpers import (
    CountingCore,
    IndexBasis,
    RecordingCore,
    random_bounded_lp,
    vertex_enumeration_optimum,
)


def persistent_lp(lp: LinearProgram) -> PersistentLp:
    """The persistent LP of a validated program: its rows handed over as one
    CSR triple, equalities first."""
    a = lp.a_eq if lp.a_ub is None else sp.vstack([lp.a_eq, lp.a_ub], format="csr")
    rows = (a.indptr.astype(np.int32), a.indices.astype(np.int32), a.data)
    return PersistentLp(lp.c, lp.lower, lp.upper, lp.rhs, rows, lp.b_ub)


def simple_pin(value: float) -> LinearProgram:
    # min y subject to y >= x, x pinned at `value`
    return LinearProgram(
        c=np.array([0.0, 1.0]),
        a_eq=np.array([[1.0, 0.0]]),
        rhs=np.array([value]),
        lower=np.array([-10.0, -10.0]),
        upper=np.array([10.0, 10.0]),
        a_ub=np.array([[1.0, -1.0]]),
        b_ub=np.array([0.0]),
    )


def v_pin(value: float) -> LinearProgram:
    # min y subject to y >= x and y >= 1 - x, z = x + y, with x pinned at
    # `value` by its bounds; columns (x, y, z)
    return LinearProgram(
        c=np.array([0.0, 1.0, 0.0]),
        a_eq=np.array([[-1.0, -1.0, 1.0]]),
        rhs=np.array([0.0]),
        lower=np.array([value, -10.0, -np.inf]),
        upper=np.array([value, 10.0, np.inf]),
        a_ub=np.array([[1.0, -1.0, 0.0], [-1.0, -1.0, 0.0]]),
        b_ub=np.array([0.0, -1.0]),
    )


class TestSolve:
    def test_pinned_epigraph(self):
        sol = solve(simple_pin(3.0))
        assert sol.optimal
        assert sol.objective == pytest.approx(3.0, abs=1e-9)
        _, grad = parametric_duals(simple_pin(3.0), [0])
        assert grad[0] == pytest.approx(1.0, abs=1e-9)

    def test_gradient_zero_when_objective_independent(self):
        lp = LinearProgram(
            c=np.array([0.0, 1.0]),
            a_eq=np.array([[1.0, 0.0]]),
            rhs=np.array([3.0]),
            lower=np.array([-10.0, 0.5]),
            upper=np.array([10.0, 10.0]),
        )
        value, grad = parametric_duals(lp, [0])
        assert value == pytest.approx(0.5, abs=1e-9)
        assert grad[0] == pytest.approx(0.0, abs=1e-9)

    def test_two_piece_kink_subgradient(self):
        # min y s.t. y >= -x + 1, y >= x - 1, x pinned at the kink x = 1
        def make(pin):
            return LinearProgram(
                c=np.array([0.0, 1.0]),
                a_eq=np.array([[1.0, 0.0]]),
                rhs=np.array([pin]),
                lower=np.array([-10.0, -10.0]),
                upper=np.array([10.0, 10.0]),
                a_ub=np.array([[-1.0, -1.0], [1.0, -1.0]]),
                b_ub=np.array([-1.0, 1.0]),
            )

        value, grad = parametric_duals(make(1.0), [0])
        assert value == pytest.approx(0.0, abs=1e-9)
        assert -1.0 - 1e-9 <= grad[0] <= 1.0 + 1e-9
        for d in (0.1, -0.1):
            v_pert, _ = parametric_duals(make(1.0 + d), [0])
            assert v_pert >= value + grad[0] * d - 1e-9

    def test_infeasible_reported(self):
        lp = LinearProgram(
            c=np.array([1.0]),
            a_eq=np.array([[1.0]]),
            rhs=np.array([5.0]),
            lower=np.array([0.0]),
            upper=np.array([1.0]),
        )
        sol = solve(lp)
        assert sol.status is LpStatus.INFEASIBLE
        assert not sol.optimal
        with pytest.raises(LpError):
            parametric_duals(lp, [0], sol)

    def test_unbounded_reported(self):
        lp = LinearProgram(
            c=np.array([-1.0]),
            a_eq=np.zeros((0, 1)),
            rhs=np.zeros(0),
            lower=np.array([0.0]),
            upper=np.array([np.inf]),
        )
        assert solve(lp).status is LpStatus.UNBOUNDED

    def test_determinism(self):
        rng = np.random.default_rng(5)
        c, a_eq, rhs, lower, upper, a_ub, b_ub = random_bounded_lp(rng)
        lp = LinearProgram(c=c, a_eq=a_eq, rhs=rhs, lower=lower,
                           upper=upper, a_ub=a_ub, b_ub=b_ub)
        s1, s2 = solve(lp), solve(lp)
        assert s1.objective == s2.objective
        assert np.array_equal(s1.x_star, s2.x_star)
        assert np.array_equal(s1.duals, s2.duals)


class TestOracle:
    def test_vertex_enumeration_agreement(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            c, a_eq, rhs, lower, upper, a_ub, b_ub = random_bounded_lp(rng, 5)
            lp = LinearProgram(c=c, a_eq=a_eq, rhs=rhs, lower=lower,
                               upper=upper, a_ub=a_ub, b_ub=b_ub)
            sol = solve(lp)
            assert sol.optimal
            oracle = vertex_enumeration_optimum(c, a_eq, rhs, lower, upper,
                                                a_ub, b_ub)
            assert sol.objective == pytest.approx(oracle, abs=1e-7)

    def test_subgradient_inequality(self):
        rng = np.random.default_rng(7)
        done = 0
        while done < 30:
            c, _, _, lower, upper, a_ub, b_ub = random_bounded_lp(rng, 5)
            n = c.size
            x_pin = lower + 0.5 * (upper - lower)
            a_eq = np.eye(n)[:2]
            rhs = x_pin[:2]
            lp = LinearProgram(c=c, a_eq=a_eq, rhs=rhs, lower=lower,
                               upper=upper, a_ub=a_ub, b_ub=b_ub)
            sol = solve(lp)
            if not sol.optimal:
                continue
            value, grad = parametric_duals(lp, [0, 1], sol)
            for _ in range(20):
                d = rng.uniform(-0.05, 0.05, 2)
                pert = LinearProgram(c=c, a_eq=a_eq, rhs=rhs + d, lower=lower,
                                     upper=upper, a_ub=a_ub, b_ub=b_ub)
                psol = solve(pert)
                if psol.optimal:
                    assert psol.objective >= value + grad @ d - 1e-7
            done += 1


class TestPersistent:
    def test_matches_cold_solves(self):
        rng = np.random.default_rng(9)
        c, a_eq, rhs, lower, upper, a_ub, b_ub = random_bounded_lp(rng, 4)
        while rhs.size == 0:
            c, a_eq, rhs, lower, upper, a_ub, b_ub = random_bounded_lp(rng, 4)
        lp = LinearProgram(c=c, a_eq=a_eq, rhs=rhs, lower=lower,
                           upper=upper, a_ub=a_ub, b_ub=b_ub)
        persistent = persistent_lp(lp)
        for _ in range(10):
            new_rhs = rhs + rng.uniform(-0.05, 0.05, rhs.size)
            warm = persistent.solve(rhs=new_rhs)
            cold = solve(LinearProgram(c=c, a_eq=a_eq, rhs=new_rhs,
                                       lower=lower, upper=upper,
                                       a_ub=a_ub, b_ub=b_ub))
            assert warm.status == cold.status
            if cold.optimal:
                assert warm.objective == pytest.approx(cold.objective, abs=1e-9)
                row_dual = persistent._solver.getSolution().row_dual[:rhs.size]
                np.testing.assert_allclose(row_dual, cold.duals, atol=1e-7)

    def test_bound_updates(self):
        lp = simple_pin(3.0)
        persistent = persistent_lp(lp)
        assert persistent.solve().objective == pytest.approx(3.0, abs=1e-9)
        assert persistent.solve(rhs=np.array([4.0])).objective == pytest.approx(
            4.0, abs=1e-9)
        # tighten the epigraph variable's lower bound above the pin
        sol = persistent.solve(lower=np.array([-10.0, 6.0]))
        assert sol.objective == pytest.approx(6.0, abs=1e-9)

    def test_cost_updates(self):
        persistent = persistent_lp(simple_pin(3.0))
        assert persistent.solve().objective == pytest.approx(3.0, abs=1e-9)
        # a negative cost on the epigraph variable drives it to its upper bound
        assert persistent.solve(cost=np.array([0.0, -1.0])).objective == pytest.approx(
            -10.0, abs=1e-9)
        assert persistent.solve(cost=np.array([0.0, 1.0])).objective == pytest.approx(
            3.0, abs=1e-9)
        with pytest.raises(LpError):
            persistent.solve(cost=np.array([1.0]))

    def test_reads_only_what_is_asked(self):
        persistent = persistent_lp(simple_pin(3.0))
        sol = persistent.solve()
        assert sol.duals is None and sol.reduced_costs is None
        sol = persistent.solve(reduced_costs=True)
        assert sol.duals is None and sol.reduced_costs.shape == (2,)

    def test_basis_hand_over(self):
        rng = np.random.default_rng(21)
        handed = 0
        while handed < 10:
            c, a_eq, rhs, lower, upper, a_ub, b_ub = random_bounded_lp(rng, 5)
            lp = LinearProgram(c=c, a_eq=a_eq, rhs=rhs, lower=lower, upper=upper,
                               a_ub=a_ub, b_ub=b_ub)
            first = persistent_lp(lp)
            sol = first.solve()
            if not sol.optimal:
                assert first.basis() is None
                continue
            second = persistent_lp(lp)
            second.seed(first)
            again = second.solve()
            assert again.objective == pytest.approx(sol.objective, abs=1e-9)
            # the optimal basis needs no further pivots
            assert second._solver.getInfo().simplex_iteration_count == 0
            handed += 1

    def test_seed_maps_the_basis(self, monkeypatch):
        core = RecordingCore(lpmod._highs_core)
        monkeypatch.setattr(lpmod, "_highs_core", core)
        persistent = persistent_lp(simple_pin(3.0))  # 2 columns, 2 rows
        # each status code of the stand-in is the entry's own index
        prev = IndexBasis(4, 3)
        persistent.seed(prev, drop_cols=[0, 2], drop_rows=[1])
        persistent.seed(prev, drop_cols=np.s_[:2], drop_rows=np.s_[1:],
                        more_rows=[BASIS_UPPER, BASIS_BASIC])
        assert core.seeds == [([1, 3], [0, 2]), ([2, 3], [0, BASIS_UPPER, BASIS_BASIC])]
        # nothing to hand on: no LP, or one without a basis
        persistent.seed(None)
        persistent.seed(persistent_lp(simple_pin(3.0)))
        assert len(core.seeds) == 2

    def test_seed_is_a_no_op_on_the_cold_path(self, monkeypatch):
        monkeypatch.setattr(lpmod, "_highs_core", None)
        monkeypatch.setattr(lpmod, "_cold_path_warned", True)
        persistent = persistent_lp(simple_pin(3.0))
        persistent.seed(IndexBasis(2, 2))
        assert persistent.solve().objective == pytest.approx(3.0, abs=1e-9)

    def test_logicals_are_minus_the_row_activities(self):
        # a kept basis reads a row's logical variable as minus the row's
        # activity: then -B^-1 a_x, HiGHS's basis solve, is the rate at which
        # the basic values move with the pinned x
        persistent = persistent_lp(v_pin(0.7))
        persistent.solve()
        solver = persistent._solver
        _, basic = solver.getBasicVariables()
        _, rate = solver.getReducedColumn(0)

        def basic_values():
            sol = solver.getSolution()
            values = np.concatenate([sol.col_value, -np.asarray(sol.row_value)])
            return values[np.where(basic >= 0, basic, 3 - 1 - basic)]

        before = basic_values()
        persistent.solve(lower=v_pin(0.8).lower, upper=v_pin(0.8).upper)
        assert solver.getBasicVariables()[1].tolist() == basic.tolist()
        # y, z and the logical of y >= 1 - x are basic, and all three move
        assert np.count_nonzero(rate) == 3
        np.testing.assert_allclose(basic_values() - before, -0.1 * rate, atol=1e-12)

    def test_pinned_solves_skip_the_run_while_the_basis_holds(self, monkeypatch):
        core = CountingCore(lpmod._highs_core)
        monkeypatch.setattr(lpmod, "_highs_core", core)
        persistent = persistent_lp(v_pin(0.7))
        pinned = np.array([0])

        def at(x, **kwargs):
            lp = v_pin(x)
            return persistent.solve(lower=lp.lower, upper=lp.upper, pinned=pinned, **kwargs)

        def expect(x, value, runs, **kwargs):
            sol = at(x, **kwargs)
            assert sol.objective == pytest.approx(value, abs=1e-12), x
            assert core.runs == runs, x
            return sol

        expect(0.7, 0.7, 1)
        assert persistent._solver.getInfoValue("simplex_iteration_count")[1] == 0
        # no pivot (presolve solved it): the basis is kept, and answers while it holds
        for x in (0.75, 0.9, 0.6, 1.0, 0.5):
            sol = expect(x, x, 1)
            np.testing.assert_allclose(sol.x_star, [x, x, 2 * x], atol=1e-12)
        # outside the basis's region: a run, with pivots, which keeps nothing
        expect(0.2, 0.8, 2)
        assert persistent._solver.getInfoValue("simplex_iteration_count")[1] > 0
        expect(0.3, 0.7, 3)
        expect(0.35, 0.65, 3)
        # appended rows, new costs and a solve without `pinned` drop the basis
        persistent.add_rows((np.array([0, 1], dtype=np.int32), np.array([1], dtype=np.int32),
                             np.array([1.0])), np.array([5.0]))
        expect(0.4, 0.6, 4)
        expect(0.45, 0.55, 4)
        expect(0.4, 1.2, 5, cost=np.array([0.0, 2.0, 0.0]))
        expect(0.3, 1.4, 6, cost=np.array([0.0, 2.0, 0.0]))
        expect(0.35, 1.3, 6, cost=np.array([0.0, 2.0, 0.0]))
        persistent.solve(lower=v_pin(0.3).lower, upper=v_pin(0.3).upper)
        expect(0.35, 1.3, 8, cost=np.array([0.0, 2.0, 0.0]))
        # a basis kept without reduced costs does not answer for them
        expect(0.3, 1.4, 8, cost=np.array([0.0, 2.0, 0.0]))
        sol = expect(0.35, 1.3, 9, cost=np.array([0.0, 2.0, 0.0]), reduced_costs=True)
        assert sol.reduced_costs is not None

    def test_rhs_shape_guard(self):
        persistent = persistent_lp(simple_pin(3.0))
        with pytest.raises(LpError):
            persistent.solve(rhs=np.array([1.0, 2.0]))


class TestValidationAndDump:
    def test_shape_mismatch(self):
        with pytest.raises(LpError):
            LinearProgram(c=np.array([1.0, 2.0]), a_eq=np.array([[1.0]]),
                          rhs=np.array([1.0]), lower=np.zeros(2),
                          upper=np.ones(2))

    def test_crossed_bounds(self):
        with pytest.raises(LpError):
            LinearProgram(c=np.array([1.0]), a_eq=np.zeros((0, 1)),
                          rhs=np.zeros(0), lower=np.array([2.0]),
                          upper=np.array([1.0]))
