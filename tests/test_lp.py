import numpy as np
import pytest
import scipy.sparse as sp

from microgrid_ems import lp as lpmod
from microgrid_ems.lp import (
    BASIS_BASIC,
    BASIS_LOWER,
    BASIS_UPPER,
    LinearProgram,
    LpError,
    LpStatus,
    PersistentLp,
    solve,
)

from helpers import (
    CountingCore,
    IndexBasis,
    RecordingCore,
    pin_columns,
    random_bounded_lp,
    vertex_enumeration_optimum,
)


def persistent_lp(lp: LinearProgram, pinned=None) -> PersistentLp:
    """The persistent LP of a validated program: its rows handed over as one
    CSR triple, equalities first."""
    a = lp.a_eq if lp.a_ub is None else sp.vstack([lp.a_eq, lp.a_ub], format="csr")
    rows = (a.indptr.astype(np.int32), a.indices.astype(np.int32), a.data)
    return PersistentLp(lp.c, lp.lower, lp.upper, lp.rhs, rows, lp.b_ub, pinned)


def all_cols(lp: LinearProgram):
    """The bounds of every column of `lp`, as `PersistentLp.solve` takes them."""
    return np.arange(lp.n_vars), lp.lower, lp.upper


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
    # the slope of the optimal value in a pinned column (lower = upper) is
    # that column's reduced cost
    def test_pinned_epigraph(self):
        # min y subject to y >= x, x pinned at 3 by its bounds
        sol = solve(LinearProgram(
            c=np.array([0.0, 1.0]),
            a_eq=np.zeros((0, 2)),
            rhs=np.zeros(0),
            lower=np.array([3.0, -10.0]),
            upper=np.array([3.0, 10.0]),
            a_ub=np.array([[1.0, -1.0]]),
            b_ub=np.array([0.0]),
        ))
        assert sol.optimal
        assert sol.objective == pytest.approx(3.0, abs=1e-9)
        assert sol.reduced_costs[0] == pytest.approx(1.0, abs=1e-9)

    def test_gradient_zero_when_objective_independent(self):
        lp = LinearProgram(
            c=np.array([0.0, 1.0]),
            a_eq=np.zeros((0, 2)),
            rhs=np.zeros(0),
            lower=np.array([3.0, 0.5]),
            upper=np.array([3.0, 10.0]),
        )
        sol = solve(lp)
        assert sol.objective == pytest.approx(0.5, abs=1e-9)
        assert sol.reduced_costs[0] == pytest.approx(0.0, abs=1e-9)

    def test_two_piece_kink_subgradient(self):
        # min y s.t. y >= -x + 1, y >= x - 1, x pinned at the kink x = 1
        def make(pin):
            return LinearProgram(
                c=np.array([0.0, 1.0]),
                a_eq=np.zeros((0, 2)),
                rhs=np.zeros(0),
                lower=np.array([pin, -10.0]),
                upper=np.array([pin, 10.0]),
                a_ub=np.array([[-1.0, -1.0], [1.0, -1.0]]),
                b_ub=np.array([-1.0, 1.0]),
            )

        sol = solve(make(1.0))
        value, grad = sol.objective, sol.reduced_costs
        assert value == pytest.approx(0.0, abs=1e-9)
        assert -1.0 - 1e-9 <= grad[0] <= 1.0 + 1e-9
        for d in (0.1, -0.1):
            v_pert = solve(make(1.0 + d)).objective
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
        assert np.array_equal(s1.reduced_costs, s2.reduced_costs)


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
            x_pin = (lower + 0.5 * (upper - lower))[:2]
            sol = solve(LinearProgram(*pin_columns(c, lower, upper, a_ub, b_ub, x_pin)))
            if not sol.optimal:
                continue
            value, grad = sol.objective, sol.reduced_costs[:2]
            for _ in range(20):
                d = rng.uniform(-0.05, 0.05, 2)
                psol = solve(LinearProgram(*pin_columns(c, lower, upper, a_ub, b_ub,
                                                        x_pin + d)))
                if psol.optimal:
                    assert psol.objective >= value + grad @ d - 1e-7
            done += 1


# pieces y >= slope * x + intercept of a convex function of x, with
# breakpoints at -1.5, -0.5, 0.5 and 1.5; PIECE_AT[k] lies inside piece k
SLOPES = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
INTERCEPTS = np.array([0.0, 1.5, 2.0, 1.5, 0.0])
PIECE_AT = (-2.0, -1.0, 0.0, 1.0, 2.0)


def fan_pin(value: float, y_max: float = 100.0) -> LinearProgram:
    # min y subject to y >= each piece at x, z = x + y, with x pinned at
    # `value` by its bounds and y <= y_max; columns (x, y, z). The optimal
    # basis at x makes the row of x's piece active: one basis per piece
    return LinearProgram(
        c=np.array([0.0, 1.0, 0.0]),
        a_eq=np.array([[-1.0, -1.0, 1.0]]),
        rhs=np.array([0.0]),
        lower=np.array([value, -100.0, -np.inf]),
        upper=np.array([value, y_max, np.inf]),
        a_ub=np.column_stack([SLOPES, -np.ones(5), np.zeros(5)]),
        b_ub=-INTERCEPTS,
    )


def v_pin_w(x: float, w_floor: float) -> LinearProgram:
    # v_pin and a column w >= w_floor, at cost 1 and in no row: w sits
    # nonbasic on that bound
    lp = v_pin(x)
    return LinearProgram(
        c=np.append(lp.c, 1.0), a_eq=sp.hstack([lp.a_eq, sp.csr_matrix((1, 1))]),
        rhs=lp.rhs, lower=np.append(lp.lower, w_floor), upper=np.append(lp.upper, 5.0),
        a_ub=sp.hstack([lp.a_ub, sp.csr_matrix((2, 1))]), b_ub=lp.b_ub)


class _WatchedBounds:
    """Stands in for a persistent LP's solver: before each bound call and
    each run it compares the column bounds HiGHS holds with the LP's."""

    def __init__(self, persistent):
        self._lp, self._highs = persistent, persistent._solver
        persistent._solver = self
        self.sent, self.runs = [], 0

    def __getattr__(self, name):
        return getattr(self._highs, name)

    def _differ(self):
        held = self._highs.getLp()
        return ((self._lp._lower != np.array(held.col_lower_))
                | (self._lp._upper != np.array(held.col_upper_))).nonzero()[0]

    def changeColsBounds(self, count, index, lower, upper):
        differ = self._differ()
        assert count == differ.size > 0 and index.tolist() == differ.tolist()
        assert lower.tolist() == self._lp._lower[differ].tolist()
        assert upper.tolist() == self._lp._upper[differ].tolist()
        self.sent.append(index.tolist())
        return self._highs.changeColsBounds(count, index, lower, upper)

    def run(self):
        assert self._differ().size == 0
        self.runs += 1
        return self._highs.run()


def fan_value(x: float) -> float:
    return float(np.max(SLOPES * x + INTERCEPTS))


def factors(persistent):
    """The factor of each kept basis, in table order: None for the last
    run's basis, which the table holds unread."""
    return [entry.factor for entry in persistent._kept]


class FanTable:
    """A persistent fan LP on counting bindings, with x pinned."""

    def __init__(self, monkeypatch):
        self.core = CountingCore(lpmod._highs_core)
        monkeypatch.setattr(lpmod, "_highs_core", self.core)
        self.lp = persistent_lp(fan_pin(0.0), pinned=np.array([0]))

    def solve(self, x, y_max=100.0):
        # every column's bounds are written: a rewrite of y's and z's to the
        # values the LP holds keeps the table
        fan = fan_pin(x, y_max)
        sol = self.lp.solve(cols=all_cols(fan))
        assert sol.objective == pytest.approx(fan_value(x), abs=1e-12), x
        return sol

    def pieces(self):
        """The piece whose row is active in each read table entry, in order."""
        return [int(np.setdiff1d(np.arange(5), entry.ext - 3 - 1)[0])
                for entry in self.lp._kept if entry.factor is not None]


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
            warm = persistent.solve(rows=(np.arange(rhs.size), new_rhs))
            cold = solve(LinearProgram(c=c, a_eq=a_eq, rhs=new_rhs,
                                       lower=lower, upper=upper,
                                       a_ub=a_ub, b_ub=b_ub))
            assert warm.status == cold.status
            if cold.optimal:
                assert warm.objective == pytest.approx(cold.objective, abs=1e-9)
                col_dual = persistent._solver.getSolution().col_dual
                np.testing.assert_allclose(col_dual, cold.reduced_costs, atol=1e-7)

    def test_bound_updates(self):
        lp = simple_pin(3.0)
        persistent = persistent_lp(lp)
        assert persistent.solve().objective == pytest.approx(3.0, abs=1e-9)
        assert persistent.solve(rows=(np.array([0]), np.array([4.0]))).objective == pytest.approx(
            4.0, abs=1e-9)
        # tighten the epigraph variable's lower bound above the pin
        sol = persistent.solve(cols=(np.array([1]), np.array([6.0]), np.array([10.0])))
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

    def test_reads_only_what_is_asked(self, monkeypatch):
        core = CountingCore(lpmod._highs_core)
        monkeypatch.setattr(lpmod, "_highs_core", core)
        # without pinned columns: no reduced costs, and no basis is tried
        persistent = persistent_lp(v_pin(0.7))
        for x in (0.7, 0.75, 0.8):
            lp = v_pin(x)
            assert persistent.solve(cols=all_cols(lp)).reduced_costs is None
        assert core.runs == 3
        assert core.calls["getBasisSolve"] == core.calls["getReducedColumn"] == 0
        # with them: reduced costs after a run, after answers off the held
        # basis and off the table, and after a cost change
        persistent = persistent_lp(v_pin(0.7), pinned=np.array([0]))
        solves = [persistent.solve(cols=all_cols(v_pin(x)))
                  for x in (0.7, 0.75, 0.8)]
        assert core.runs == 4 and len(persistent._kept) == 1
        solves.append(persistent.solve(cost=np.array([0.0, 2.0, 0.0])))
        assert core.runs == 5
        for sol, slope in zip(solves, (1.0, 1.0, 1.0, 2.0)):
            np.testing.assert_allclose(sol.reduced_costs, [slope, 0.0, 0.0], atol=1e-12)

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
        persistent.solve(cols=all_cols(v_pin(0.8)))
        assert solver.getBasicVariables()[1].tolist() == basic.tolist()
        # y, z and the logical of y >= 1 - x are basic, and all three move
        assert np.count_nonzero(rate) == 3
        np.testing.assert_allclose(basic_values() - before, -0.1 * rate, atol=1e-12)

    def test_pinned_solves_skip_the_run_while_the_basis_holds(self, monkeypatch):
        core = CountingCore(lpmod._highs_core)
        monkeypatch.setattr(lpmod, "_highs_core", core)
        persistent = persistent_lp(v_pin(0.7), pinned=np.array([0]))

        def at(x, **kwargs):
            lp = v_pin(x)
            return persistent.solve(cols=all_cols(lp), **kwargs)

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
        # outside the basis's region: a run, with pivots, whose basis is kept too
        expect(0.2, 0.8, 2)
        assert persistent._solver.getInfoValue("simplex_iteration_count")[1] > 0
        expect(0.3, 0.7, 2)
        expect(0.35, 0.65, 2)
        # appended rows and new costs drop the kept bases
        persistent.add_rows((np.array([0, 1], dtype=np.int32), np.array([1], dtype=np.int32),
                             np.array([1.0])), np.array([5.0]))
        expect(0.4, 0.6, 3)
        expect(0.45, 0.55, 3)
        expect(0.4, 1.2, 4, cost=np.array([0.0, 2.0, 0.0]))
        expect(0.3, 1.4, 5, cost=np.array([0.0, 2.0, 0.0]))
        expect(0.35, 1.3, 5, cost=np.array([0.0, 2.0, 0.0]))

    def test_an_older_basis_answers_after_the_newest_refuses(self, monkeypatch):
        fan = FanTable(monkeypatch)
        fan.solve(-2.0)
        fan.solve(-2.1)  # the run's basis answers and is read
        assert (fan.core.runs, fan.pieces()) == (1, [0])
        fan.solve(1.0)  # refused: a run, in piece 3
        fan.solve(1.1)
        assert (fan.core.runs, fan.pieces()) == (2, [3, 0])
        # the newest basis refuses, the older one answers and moves up
        sol = fan.solve(-1.9)
        assert (fan.core.runs, fan.pieces()) == (2, [0, 3])
        np.testing.assert_allclose(sol.x_star, [-1.9, 3.8, 1.9], atol=1e-12)

    def test_a_table_answer_keeps_the_unread_basis(self, monkeypatch):
        fan = FanTable(monkeypatch)
        fan.solve(-2.0)
        fan.solve(-2.1)  # the run's basis answers and is read
        fan.solve(1.0)  # refused: a run, in piece 3
        fan.solve(-1.9)  # the read basis answers; HiGHS still holds piece 3's
        assert (fan.core.runs, fan.pieces()) == (2, [0])
        # only piece 3's basis holds here: it answers without a run
        sol = fan.solve(1.1)
        assert (fan.core.runs, fan.pieces()) == (2, [3, 0])
        np.testing.assert_allclose(sol.x_star, [1.1, 2.6, 3.7], atol=1e-12)

    def test_the_table_keeps_the_most_recently_useful_bases(self, monkeypatch):
        fan = FanTable(monkeypatch)
        for x in PIECE_AT:
            fan.solve(x)
            fan.solve(x + 0.05)
        # one run per piece; past four entries the least recently useful goes
        assert (fan.core.runs, fan.pieces()) == (5, [4, 3, 2, 1])
        fan.solve(0.1)
        assert (fan.core.runs, fan.pieces()) == (5, [2, 4, 3, 1])
        fan.solve(-1.2)
        assert (fan.core.runs, fan.pieces()) == (5, [1, 2, 4, 3])
        fan.solve(-2.0)  # piece 0 was evicted
        assert fan.core.runs == 6

    @pytest.mark.parametrize("change", ["add_rows", "cost", "rhs", "bounds"])
    def test_new_rows_costs_or_rhs_empty_the_table(self, monkeypatch, change):
        fan = FanTable(monkeypatch)
        for x in (-2.0, -2.1, 1.0, 1.1, 1.2):
            fan.solve(x)
        assert (fan.core.runs, fan.pieces()) == (2, [3, 0])
        lp = fan_pin(-2.0)
        if change == "add_rows":
            # y <= 50, which no optimum here meets
            fan.lp.add_rows((np.array([0, 1], dtype=np.int32), np.array([1], dtype=np.int32),
                             np.array([1.0])), np.array([50.0]))
            assert fan.lp._kept == []  # the last run's basis too
            fan.solve(-2.0)
        elif change == "cost":
            sol = fan.lp.solve(cols=all_cols(lp), cost=np.array([0.0, 2.0, 0.0]))
            assert sol.objective == pytest.approx(2 * fan_value(-2.0), abs=1e-12)
            # a run at new costs keeps nothing, not even its own basis
            assert fan.lp._kept == []
        elif change == "rhs":
            sol = fan.lp.solve(rows=(np.array([0]), np.array([1.0])), cols=all_cols(lp))
            assert sol.x_star[2] == pytest.approx(-2.0 + 4.0 + 1.0, abs=1e-12)
        else:
            # y's upper bound moves, yet no optimum here meets it: piece 0's
            # basis would still hold, but only the pinned values may move
            fan.solve(-2.0, y_max=99.0)
        assert fan.core.runs == 3
        # no basis found before the change is kept; a run at unchanged costs
        # keeps its own, unread
        assert factors(fan.lp) == ([] if change == "cost" else [None])
        if change == "bounds":
            # the bound moved back: nor does that unread basis answer
            fan.solve(-2.05)
            assert fan.core.runs == 4

    def test_a_basis_with_a_basic_pinned_column_never_answers(self, monkeypatch):
        # at x = 0.5 both rows are active, and a basis with x, y and z basic
        # is optimal; HiGHS keeps x basic. Read off that basis, moving x
        # would move only x's own basic value, so it must not answer
        core = CountingCore(lpmod._highs_core)
        monkeypatch.setattr(lpmod, "_highs_core", core)
        persistent = persistent_lp(v_pin(0.5), pinned=np.array([0]))

        class Solved:  # an LP whose basis has x, y and z basic, both rows active
            def basis(self):
                return (np.full(3, BASIS_BASIC, np.int8),
                        np.array([BASIS_LOWER, BASIS_UPPER, BASIS_UPPER], np.int8))

        persistent.seed(Solved())
        persistent.solve(cols=all_cols(v_pin(0.5)))
        assert 0 in persistent._solver.getBasicVariables()[1]
        sol = persistent.solve(cols=all_cols(v_pin(1.0)))
        assert core.runs == 2
        assert sol.objective == pytest.approx(1.0, abs=1e-12)

    def test_a_run_sends_the_bounds_answered_solves_set(self, monkeypatch):
        # an answered solve sends HiGHS nothing: the next run sends every
        # bound that differs from what HiGHS holds, even one its own solve
        # left alone
        core = CountingCore(lpmod._highs_core)
        monkeypatch.setattr(lpmod, "_highs_core", core)
        persistent = persistent_lp(v_pin_w(0.7, 0.0), pinned=np.array([0]))
        for x in (0.7, 0.75, 0.8):
            persistent.solve(cols=all_cols(v_pin_w(x, 0.0)))
        assert core.runs == 1  # HiGHS still holds x = 0.7
        sends = core.calls["changeColsBounds"]
        # only w's floor is written; it empties the table, and the run sends x too
        sol = persistent.solve(cols=(np.array([3]), np.array([1.0]), np.array([5.0])))
        assert core.runs == 2 and core.calls["changeColsBounds"] == sends + 1
        assert sol.objective == pytest.approx(1.8, abs=1e-12)  # max(x, 1 - x) + w
        np.testing.assert_allclose(sol.x_star, [0.8, 0.8, 1.6, 1.0], atol=1e-12)

    def test_a_run_sends_exactly_the_bounds_that_differ(self, monkeypatch):
        # solves name random columns, some back to the bounds HiGHS holds,
        # and many are answered without a run; a run's one bound call
        # carries, ascending, every column whose bounds differ from the ones
        # HiGHS holds and no other, so that HiGHS runs at the LP's bounds. A
        # new cost after a run forces a run with no bound to send.
        fan = FanTable(monkeypatch)
        watch = _WatchedBounds(fan.lp)
        rng = np.random.default_rng(5)
        for k in range(80):
            lp = fan_pin(rng.choice(PIECE_AT) + rng.uniform(-0.3, 0.3),
                         rng.choice([100.0, 50.0]))
            index = np.flatnonzero(rng.random(3) < 0.6)
            fan.lp.solve(cols=(index, lp.lower[index], lp.upper[index]))
            if k % 8 == 7:
                fan.lp.solve(cost=np.array([0.0, 1.0 + k % 16 // 8, 0.0]))
        assert watch.runs == fan.core.runs and 20 < watch.runs < 90
        assert 0 < len(watch.sent) < watch.runs - 5

    def test_a_refused_first_try_reads_no_reduced_column(self, monkeypatch):
        fan = FanTable(monkeypatch)
        fan.solve(-2.0)
        fan.solve(1.0)
        # the run's basis was tried with one basis solve, refused, and not read
        assert fan.core.runs == 2
        reads = ("getBasicVariables", "getBasisSolve", "getReducedColumn")
        assert [fan.core.calls[name] for name in reads] == [1, 1, 0]
        # the refused basis is gone; the table holds the second run's, unread
        assert factors(fan.lp) == [None]

    def test_rhs_shape_guard(self):
        # entries the LP does not have, or indices without values
        persistent = persistent_lp(simple_pin(3.0))  # 2 columns, 1 equality row
        rows = (np.array([0]), np.array([5.0]))
        for changes in ({"rows": (np.arange(2), np.array([1.0, 2.0]))},
                        {"rows": (np.arange(1), np.array([1.0, 2.0]))},
                        {"rows": rows, "cols": (np.array([2]), np.zeros(1), np.ones(1))},
                        {"rows": rows, "cols": (np.arange(2), np.zeros(2), np.ones(1))}):
            with pytest.raises(LpError):
                persistent.solve(**changes)
        # a refused call changes nothing, not even its valid rhs
        assert persistent._rhs.tolist() == [3.0]
        assert persistent.solve().objective == pytest.approx(3.0, abs=1e-9)


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
