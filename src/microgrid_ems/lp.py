"""Linear programs, solved once or held in the solver across re-solves.

The MPC controller solves one multi-period LP per step. SDDP keeps one
persistent LP per stage: the incoming state is a block of pinned columns
(lower = upper = x), named when the LP is built, new cuts are appended as
rows, and the cut slopes are the reduced costs of the pinned columns: for a
pinned column at v, value(v + d) >= value(v) + reduced_cost * d.

Problems are tiny (at most a few thousand rows), dense in spirit but stored
sparse. One-shot solves go through scipy's `linprog`; a persistent LP hands
its owner's row arrays to HiGHS as they are.

A new persistent LP can start from the basis of a related one (one with rows
and columns dropped or added) through one call, `PersistentLp.seed`, which
takes the older LP and the map between the two: MPC starts each new
shrinking-horizon chain from the previous step's basis, shifted by one step,
and SDDP each new stage from the stage solved before it.

A re-solve in which only some pinned columns moved can skip HiGHS. Moving
bounds leaves the costs and every basis matrix B as they were, so an
optimal basis found at other bounds stays dual feasible; if its basic
values, updated as v_B = v_B0 - B^-1 A_pin dx, still lie within their
bounds, that basis is optimal at the new bounds, and its vertex is exactly
what a warm run from it would return after zero pivots. A PersistentLp keeps
one table of such bases, the last run's among them, and tries them before
it runs HiGHS (partial enumeration: Pannocchia, Rawlings & Wright 2007,
"Fast, large-scale model predictive control by partial enumeration",
Automatica 43(5)). Any other change to the LP empties the table.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

__all__ = [
    "LinearProgram",
    "LpSolution",
    "LpStatus",
    "LpError",
    "PersistentLp",
    "stack_rows",
    "solve",
]

try:  # vendored HiGHS bindings; enable warm-started re-solves when present
    from scipy.optimize._highspy import _core as _highs_core
except ImportError:  # pragma: no cover - depends on the scipy build
    _highs_core = None

# basis status codes, as HiGHS numbers them
BASIS_LOWER, BASIS_BASIC, BASIS_UPPER, BASIS_ZERO = 0, 1, 2, 3

# bound violation a basic value may show and still be read off a kept basis;
# stricter than HiGHS's primal feasibility tolerance (1e-7)
BASIS_PRIMAL_TOL = 1e-9

# optimal bases a PersistentLp with pinned columns keeps, most recently
# useful first
KEPT_BASES = 4

_WIDEN = np.array([[-BASIS_PRIMAL_TOL], [BASIS_PRIMAL_TOL]])

log = logging.getLogger(__name__)
_cold_path_warned = False


class LpError(ValueError):
    """Construction-time or usage error on a linear program."""


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


def _as_matrix(a, m, n, name):
    if a is None:
        return sp.csr_matrix((m, n))
    if sp.issparse(a):
        mat = a.tocsr().astype(float)
    else:
        mat = sp.csr_matrix(np.asarray(a, dtype=float))
    if mat.shape != (m, n):
        raise LpError(f"{name} has shape {mat.shape}, expected {(m, n)}")
    if mat.nnz and not np.all(np.isfinite(mat.data)):
        raise LpError(f"{name} contains non-finite entries")
    return mat


@dataclass(frozen=True)
class LinearProgram:
    """min c.x  s.t.  a_eq x = rhs,  a_ub x <= b_ub,  lower <= x <= upper.

    The inequality block is optional.
    """

    c: np.ndarray
    a_eq: object
    rhs: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    a_ub: object = None
    b_ub: np.ndarray = None

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        n = c.size
        rhs = np.atleast_1d(np.asarray(self.rhs, dtype=float))
        m = rhs.size
        a_eq = _as_matrix(self.a_eq, m, n, "a_eq")
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        if lower.shape != (n,) or upper.shape != (n,):
            raise LpError("bounds must have one entry per variable")
        if np.any(np.isnan(lower)) or np.any(np.isnan(upper)) or np.any(np.isnan(c)):
            raise LpError("NaN entries in program data")
        if np.any(lower > upper):
            raise LpError("lower bound exceeds upper bound")
        if not np.all(np.isfinite(rhs)):
            raise LpError("rhs contains non-finite entries")
        b_ub = self.b_ub
        if self.a_ub is not None or b_ub is not None:
            b_ub = np.atleast_1d(np.asarray(b_ub, dtype=float))
            a_ub = _as_matrix(self.a_ub, b_ub.size, n, "a_ub")
        else:
            a_ub, b_ub = None, None
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "a_eq", a_eq)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "a_ub", a_ub)
        object.__setattr__(self, "b_ub", b_ub)

    @property
    def n_vars(self) -> int:
        return self.c.size

    @property
    def n_eq(self) -> int:
        return self.rhs.size


@dataclass(frozen=True)
class LpSolution:
    """A warm re-solve of a PersistentLp without pinned columns leaves
    `reduced_costs` None, and gives `x_star` as the list of floats HiGHS
    hands over: on a long MPC chain, an array copy of it costs more than
    the read."""

    x_star: Sequence[float]
    objective: float
    reduced_costs: Optional[np.ndarray]
    status: LpStatus

    @property
    def optimal(self) -> bool:
        return self.status is LpStatus.OPTIMAL

    @staticmethod
    def failed(n_vars: int, status: LpStatus) -> "LpSolution":
        """An infeasible or unbounded outcome: every value is NaN."""
        return LpSolution(x_star=np.full(n_vars, np.nan), objective=np.nan,
                          reduced_costs=np.full(n_vars, np.nan), status=status)


_STATUS_MAP = {0: LpStatus.OPTIMAL, 2: LpStatus.INFEASIBLE, 3: LpStatus.UNBOUNDED}


def solve(lp: LinearProgram) -> LpSolution:
    """Solve to optimality; infeasible / unbounded are returned, not raised."""
    bounds = np.column_stack([lp.lower, lp.upper])
    res = linprog(
        lp.c,
        A_ub=lp.a_ub,
        b_ub=lp.b_ub,
        A_eq=lp.a_eq if lp.n_eq else None,
        b_eq=lp.rhs if lp.n_eq else None,
        bounds=bounds,
        method="highs",
    )
    status = _STATUS_MAP.get(res.status)
    if status is None:
        raise LpError(f"solver failure: {res.message}")
    if status is not LpStatus.OPTIMAL:
        return LpSolution.failed(lp.n_vars, status)
    # on a fixed column the two bound marginals sum to its reduced cost
    reduced = res.lower.marginals + res.upper.marginals
    return LpSolution(
        x_star=res.x,
        objective=float(res.fun),
        reduced_costs=np.asarray(reduced, dtype=float),
        status=LpStatus.OPTIMAL,
    )


def stack_rows(top, bottom):
    """The rows of `top`, then those of `bottom`; each is a CSR triple
    (indptr, indices, data)."""
    return (np.concatenate([top[0], top[0][-1] + bottom[0][1:]]),
            np.concatenate([top[1], bottom[1]]), np.concatenate([top[2], bottom[2]]))


class PersistentLp:
    """A linear program held inside the solver across re-solves.

    Costs, equality right-hand sides and variable bounds may change between
    solves, and inequality rows may be appended.
    The previous basis warm-starts each re-solve, which is an order of
    magnitude faster than a cold solve on the repeated stage problems. Falls
    back to cold solves, with a warning, when the bundled HiGHS bindings are
    unavailable.

    It takes arrays its owner has built and checked, as `LinearProgram`
    would: float costs and column bounds, and the rows compressed row-wise
    as a CSR triple (indptr, indices, data) with int32 indices. The first
    `rhs.size` rows are the equalities a x = rhs, the others a x <= b_ub.

    `pinned` names fixed columns (lower = upper) whose values move from
    solve to solve. An LP with them returns the reduced costs of every
    optimal solve and may answer one off a kept basis (see `solve`); a warm
    solve of one without returns none and never tries a kept basis.

    Not picklable on purpose (holds solver state): the policies drop their
    stage LPs when pickled, and the owners rebuild them lazily.
    """

    def __init__(self, c, lower, upper, rhs, rows, b_ub=None, pinned=None):
        global _cold_path_warned
        self._n_eq = rhs.size
        self._cost = c.copy()
        self._rhs = rhs.copy()
        self._rows = rows
        self._b_ub = np.zeros(0) if b_ub is None else b_ub
        self._lower = lower.copy()  # the bounds of the next solve
        self._upper = upper.copy()
        self._sent_lower, self._sent_upper = lower.copy(), upper.copy()  # what HiGHS holds
        self._named = {}  # id -> array of column indices named since the bounds were last sent
        self._pinned = pinned
        if pinned is not None:
            self._is_pinned = np.zeros(c.size, dtype=bool)
            self._is_pinned[pinned] = True
        self._core = _highs_core
        self._solver = None
        self._x = None  # primal solution of the last optimal warm solve
        self._answer = None  # the _KeptBasis that gave _x, when no run did
        # _KeptBasis entries, most recently useful first; the last run's, unread, last
        self._kept = []
        self._limits = None  # widened bounds of the columns and logicals, once read
        self._pin_entries = None  # the pinned columns' entries, once read
        if self._core is not None:
            self._solver = self._build()
        elif not _cold_path_warned:
            _cold_path_warned = True
            log.warning("HiGHS bindings unavailable: every LP re-solve runs cold "
                        "through linprog, about 10x slower")

    def _build(self):
        hc = self._core
        n, n_ub = self._cost.size, self._b_ub.size
        indptr, indices, data = self._rows
        self._optimal, self._ok = hc.HighsModelStatus.kOptimal, hc.HighsStatus.kOk
        solver = hc._Highs()
        solver.setOptionValue("output_flag", False)
        solver.passModel(n, self._n_eq + n_ub, data.size, int(hc.MatrixFormat.kRowwise),
                         int(hc.ObjSense.kMinimize), 0.0, self._cost, self._lower,
                         self._upper, np.concatenate([self._rhs, np.full(n_ub, -np.inf)]),
                         np.concatenate([self._rhs, self._b_ub]), indptr, indices, data,
                         np.zeros(n, dtype=np.int32))  # every column continuous
        return solver

    def _forget(self):
        """Drop every kept basis, and the limits read with them: the LP they
        were optimal for changed."""
        self._kept = []
        self._limits = None

    def add_rows(self, rows, b_ub):
        """Append inequality rows a x <= b_ub, given as a CSR triple like the
        constructor's; later solves include them."""
        indptr, indices, data = rows
        self._b_ub = np.concatenate([self._b_ub, b_ub])
        self._forget()
        self._pin_entries = None
        if self._solver is not None:
            self._solver.addRows(b_ub.size, np.full(b_ub.size, -np.inf), b_ub,
                                 data.size, indptr[:-1], indices, data)
        else:
            self._rows = stack_rows(self._rows, rows)

    def solve(self, rows=None, cols=None, cost=None) -> LpSolution:
        """Re-solve after the owner's changes: `rows=(index, values)` sets
        the rhs of equality rows `index`, `cols=(index, lower, upper)` the
        bounds of columns `index` (arrays, each index ascending and without
        repeats), and `cost` the costs; what is not named keeps its value, and
        `cost=None` keeps the costs without comparing them. HiGHS is sent
        only the entries that differ from what it holds, in ascending order.

        On an LP with pinned columns, the optimal basis of every run at
        unchanged costs may answer later solves without running HiGHS. The
        bases are kept in one table, most recently useful first, and the
        first one whose basic values at the new pinned values lie within
        their bounds (to BASIS_PRIMAL_TOL) answers with its vertex: optimal,
        and the one a warm run from it would return after zero pivots. A
        run's basis joins the table last and unread, tried with one basis
        solve while HiGHS holds it, and read only once it has answered. Up
        to KEPT_BASES read bases are kept. One rule keeps the table sound:
        any change but the pinned values empties it, be it `add_rows`, a
        cost, an rhs or a bound of another column that differs from the one
        the LP holds.
        """
        c = self._cost if cost is None else np.asarray(cost, dtype=float)
        if cost is not None and c.shape != self._cost.shape:
            raise LpError("cost shape changed between re-solves")
        if rows is not None and (len(rows[0]) != len(rows[1])
                                 or len(rows[0]) and rows[0][-1] >= self._n_eq):
            raise LpError("rhs entries outside the equality rows")
        if cols is not None and (not len(cols[0]) == len(cols[1]) == len(cols[2])
                                 or len(cols[0]) and cols[0][-1] >= c.size):
            raise LpError("bounds of columns the LP does not have")
        solver, pinned, new_rhs = self._solver, self._pinned, None
        if rows is not None:
            index, values = rows
            moved = (values != self._rhs[index]).nonzero()[0]
            if moved.size:
                new_rhs = index[moved], values[moved]
                self._rhs[new_rhs[0]] = new_rhs[1]
                self._forget()
        if cols is not None:
            index, lower, upper = cols
            if pinned is not None and index is not pinned:
                free = ~self._is_pinned[index]
                if ((lower[free] != self._lower[index[free]]).any()
                        or (upper[free] != self._upper[index[free]]).any()):
                    self._forget()
            self._lower[index], self._upper[index] = lower, upper
            if solver is not None:
                self._named[id(index)] = index  # the dict holds it, so its id stays its own
        if solver is None:
            self._cost = c.copy()
            indptr, indices, data = self._rows
            a = sp.csr_matrix((data, indices, indptr), shape=(indptr.size - 1, c.size))
            n_eq, ub = self._n_eq, self._b_ub.size > 0
            return solve(LinearProgram(c=self._cost, a_eq=a[:n_eq], rhs=self._rhs,
                                       lower=self._lower, upper=self._upper,
                                       a_ub=a[n_eq:] if ub else None,
                                       b_ub=self._b_ub if ub else None))

        new_cost = (c != self._cost).nonzero()[0] if cost is not None else ()
        if len(new_cost):
            self._forget()
        keep = pinned is not None and not len(new_cost)  # a basis found now may answer
        if keep and self._kept:
            sol = self._table_answer(self._lower[pinned])
            if sol is not None:
                return sol
        if new_rhs is not None:
            for r, v in zip(new_rhs[0].tolist(), new_rhs[1].tolist()):
                solver.changeRowBounds(r, v, v)
        self._send_bounds()
        if len(new_cost):
            solver.changeColsCost(new_cost.size, new_cost.astype(np.int32), c[new_cost])
            self._cost = c.copy()

        self._x = self._answer = None
        if self._kept and self._kept[-1].factor is None:  # HiGHS drops that basis
            del self._kept[-1]
        solver.run()
        model_status = solver.getModelStatus()
        if model_status != self._optimal:
            hc = self._core
            if model_status == hc.HighsModelStatus.kInfeasible:
                return LpSolution.failed(c.size, LpStatus.INFEASIBLE)
            if model_status == hc.HighsModelStatus.kUnbounded:
                return LpSolution.failed(c.size, LpStatus.UNBOUNDED)
            raise LpError(f"solver failure: {model_status}")
        sol = solver.getSolution()
        if pinned is None:  # the values as HiGHS hands them over
            self._x = sol.col_value
            return LpSolution(x_star=self._x, objective=solver.getObjectiveValue(),
                              reduced_costs=None, status=LpStatus.OPTIMAL)
        self._x = np.asarray(sol.col_value, dtype=float)
        duals = np.asarray(sol.col_dual, dtype=float)
        if keep:  # later solves may try it while HiGHS holds it
            values = np.concatenate((self._x, np.negative(sol.row_value)))
            self._kept.append(_KeptBasis(self._x, self._x[pinned], values, duals))
        return LpSolution(
            x_star=self._x,
            objective=solver.getObjectiveValue(),
            reduced_costs=duals,
            status=LpStatus.OPTIMAL,
        )

    def _send_bounds(self):
        """Send HiGHS, in one call, the column bounds that differ from the
        ones it holds: only columns named since the last send can."""
        named, self._named = list(self._named.values()), {}
        if not named:
            return
        index = named[0] if len(named) == 1 else np.unique(np.concatenate(named))
        moved = index[(self._lower[index] != self._sent_lower[index])
                      | (self._upper[index] != self._sent_upper[index])]
        if moved.size:
            lower, upper = self._lower[moved], self._upper[moved]
            self._solver.changeColsBounds(moved.size, moved.astype(np.int32), lower, upper)
            self._sent_lower[moved], self._sent_upper[moved] = lower, upper

    def _table_answer(self, x_pin) -> Optional[LpSolution]:
        """The optimum at pinned values `x_pin`, read off the first kept
        basis, in order, still optimal there, or None when none is. The
        entry that answers moves to the front. HiGHS is not told of the new
        bounds; the next run sends every bound that differs."""
        kept = self._kept
        for i, entry in enumerate(kept):
            if entry.factor is None:  # the last run's basis, which HiGHS holds
                return self._unread_answer(entry, x_pin)
            values = entry.vb0 - entry.factor @ (x_pin - entry.x_pin)
            if entry.holds(values):
                kept.insert(0, kept.pop(i))
                return self._vertex(entry, values, x_pin)
        return None

    def _unread_answer(self, entry, x_pin) -> Optional[LpSolution]:
        """The answer of `entry`, the last run's basis (last in the table,
        unread), or None when it does not hold at `x_pin` or HiGHS gives no
        basic set. Its basic values come from one solve with the factor
        HiGHS holds and are checked in HiGHS's order of the basic
        variables. Only an answer sorts them: `entry` then takes its basic
        set, its reference values, its limits and its factor in sorted
        order, and moves to the front."""
        solver, n, pinned = self._solver, self._cost.size, self._pinned
        status, basic = solver.getBasicVariables()
        if status != self._ok:
            return None
        ext = np.where(basic >= 0, basic, n - 1 - basic)
        if self._limits is None:
            self._limits = self._widened_limits()
        if self._pin_entries is None:
            _, start, index, value = solver.getColsEntries(pinned.size, pinned.astype(np.int32))
            column = np.repeat(np.arange(pinned.size), np.diff(np.append(start, index.size)))
            self._pin_entries = (index, value, column)
        index, value, column = self._pin_entries
        a_dx = np.bincount(index, weights=value * (x_pin - entry.x_pin)[column],
                           minlength=basic.size)
        vb0 = entry.values[ext]
        values = vb0 - solver.getBasisSolve(a_dx)[1]  # minus B^-1 A_pin dx
        lo, hi = self._limits[:, ext]
        if not ((lo <= values) & (values <= hi)).all():
            return None
        order = np.argsort(ext)
        entry.ext = ext = ext[order]
        entry.cols = ext[:np.searchsorted(ext, n)]
        entry.vb0, entry.lo, entry.hi = vb0[order], lo[order], hi[order]
        entry.values = None
        kept = self._kept
        kept.insert(0, kept.pop())
        if (factor := self._reduced_columns()) is not None:
            entry.factor = factor[order]
        else:  # no factor: nothing is kept
            del kept[0]
        del kept[KEPT_BASES:]
        return self._vertex(entry, values[order], x_pin)

    def _reduced_columns(self):
        """B^-1 A_pin, one column per pinned column, in HiGHS's order of the
        basic variables, or None when HiGHS cannot give it."""
        pinned, ok = self._pinned, self._ok
        factor = np.empty((self._n_eq + self._b_ub.size, pinned.size))
        for k, j in enumerate(pinned):
            status, factor[:, k] = self._solver.getReducedColumn(int(j))  # B^-1 a_j
            if status != ok:
                return None
        return factor

    def _widened_limits(self):
        """The bounds of the columns, then of the rows' logical variables,
        each widened by BASIS_PRIMAL_TOL; a row's logical lies in
        [-row_upper, -row_lower]. A pinned column's are empty: a basis in
        which one is basic never holds."""
        n, n_ub, pinned = self._cost.size, self._b_ub.size, self._pinned
        bounds = np.concatenate((self._lower, self._upper))
        bounds[pinned], bounds[n + pinned] = np.inf, -np.inf
        logicals = np.stack((
            np.concatenate([-self._rhs, -self._b_ub]) - BASIS_PRIMAL_TOL,
            np.concatenate([-self._rhs, np.full(n_ub, np.inf)]) + BASIS_PRIMAL_TOL))
        return np.concatenate((bounds.reshape(2, n) + _WIDEN, logicals), axis=1)

    def _vertex(self, entry, values, x_pin) -> LpSolution:
        """The vertex of kept basis `entry` with basic values `values`."""
        x = entry.x.copy()
        x[self._pinned] = x_pin
        x[entry.cols] = values[:entry.cols.size]
        self._x, self._answer = x, entry
        return LpSolution(x_star=x, objective=float(self._cost @ x),
                          reduced_costs=entry.col_dual, status=LpStatus.OPTIMAL)

    def basis(self):
        """Status codes (BASIS_*) of the columns and rows in the basis of the
        last optimal solve, or None on the cold path and before one: the
        basis HiGHS holds after a run, the kept basis that answered
        otherwise."""
        if self._x is None:
            return None
        n, entry = self._cost.size, self._answer
        if entry is None:
            status, basic = self._solver.getBasicVariables()
            if status != self._ok:  # no factored basis to read
                return None
            ext = np.where(basic >= 0, basic, n - 1 - basic)
        else:  # found at the bounds the LP holds, the pinned ones apart
            ext = entry.ext
        # a nonbasic column sits on the bound nearer to its value
        lower, upper, x = self._lower, self._upper, np.asarray(self._x, dtype=float)
        cols = np.where(np.abs(x - upper) < np.abs(x - lower),
                        BASIS_UPPER, BASIS_LOWER).astype(np.int8)
        cols[np.isinf(lower) & np.isinf(upper)] = BASIS_ZERO
        # equality rows first, then the inequality rows a x <= b; rows
        # appended since the basis was found are basic, as HiGHS adds them
        rows = np.full(self._n_eq + self._b_ub.size, BASIS_UPPER, dtype=np.int8)
        rows[:self._n_eq] = BASIS_LOWER
        rows[ext.size:] = BASIS_BASIC
        cols[ext[ext < n]] = BASIS_BASIC
        rows[ext[ext >= n] - n] = BASIS_BASIC
        return cols, rows

    def seed(self, prev, drop_cols=(), drop_rows=(), more_rows=()):
        """Start the next solve from the basis of `prev`, a related LP: its
        column and row status codes with `drop_cols` and `drop_rows` deleted
        and the codes `more_rows` appended. HiGHS repairs a basis of the
        wrong size or a singular one (an alien basis). Does nothing when
        `prev` is None or has no basis, or on the cold path."""
        basis = None if prev is None else prev.basis()
        if basis is None or self._solver is None:
            return
        cols, rows = basis
        cols = np.delete(cols, drop_cols)
        rows = np.concatenate([np.delete(rows, drop_rows), np.asarray(more_rows, np.int8)])
        kinds = self._core.HighsBasisStatus
        status = np.array([kinds.kLower, kinds.kBasic, kinds.kUpper, kinds.kZero],
                          dtype=object)
        seeded = self._core.HighsBasis()
        seeded.col_status = status[cols].tolist()
        seeded.row_status = status[rows].tolist()
        seeded.alien = True
        self._solver.setBasis(seeded)


class _KeptBasis:
    """An optimal basis of a PersistentLp with pinned columns, with what it
    takes to read its vertex at other values of those columns.

    With logical variables s = -A x, [A I] (x, s) = 0, so the basic values
    are v_B = -B^-1 N v_N: moving the pinned columns by dx moves them by
    -B^-1 A_pin dx. `factor` is B^-1 A_pin, one solve with HiGHS's factor
    of B per pinned column. The basic variables are kept sorted by `ext`,
    which numbers columns j < n and logicals n + i.

    An entry is made from a run's values, `values` (the columns', then the
    logicals'), and joins the table unread (`factor` None), while HiGHS
    holds its basis. Its one try takes its basic set off HiGHS and its
    basic values from one basis solve, and checks them in HiGHS's order.
    Only an answer sorts the basic set, takes the reference values `vb0` and
    the limits in that order, and reads the factor: HiGHS keeps its factor
    until its next run, which drops an unread entry, and a decision that
    runs HiGHS after a refused try pays for neither. A read entry keeps the
    factor, the basic set and the reference values, not the run's values.

    It lives only while the LP is the one it was found for, the pinned
    values apart: any other change empties the table. So every entry was
    found at the column bounds the LP holds, the pinned ones apart, and
    carries its own limits, `lo` and `hi`: the widened bounds of its basic
    variables, taken when it answered.
    """

    __slots__ = ("x", "x_pin", "col_dual", "values", "ext", "cols", "vb0", "factor",
                 "lo", "hi")

    def __init__(self, x, x_pin, values, col_dual):
        self.x, self.x_pin, self.values, self.col_dual = x, x_pin, values, col_dual
        self.factor = None

    def holds(self, values) -> bool:
        """Whether the basic values `values` (in the order of `ext`) lie
        within the basis's widened limits `lo` and `hi`."""
        return bool(((self.lo <= values) & (values <= self.hi)).all())
