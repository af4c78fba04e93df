"""Linear programs with exact dual extraction.

The MPC controller solves one multi-period LP per step. SDDP keeps one
persistent LP per stage: the incoming state is a block of fixed columns
(lower = upper = x), new cuts are appended as rows, and the cut slopes are
the reduced costs of the fixed columns.

Problems are tiny (at most a few thousand rows), dense in spirit but stored
sparse. One-shot solves go through scipy's `linprog`; a persistent LP hands
its owner's row arrays to HiGHS as they are. The dual convention is fixed
so that for an equality row a.x = b, value(b + d) >= value(b) + dual * d.

A new persistent LP can start from the basis of a related one (one with rows
and columns dropped or added) through one call, `PersistentLp.seed`, which
takes the older LP and the map between the two: MPC starts each new
shrinking-horizon chain from the previous step's basis, shifted by one step,
and SDDP each new stage from the stage solved before it.

A re-solve in which only some pinned columns moved can skip HiGHS. Moving
bounds leaves the costs and the basis matrix B as they were, so the last
optimal basis stays dual feasible; if its basic values, updated as
v_B = v_B0 - B^-1 A_pin dx, still lie within their bounds, that basis is
optimal at the new bounds, and its vertex is exactly what a warm run would
return after zero pivots. `PersistentLp.solve(pinned=...)` checks this and
runs HiGHS only when the check fails.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional

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
    "parametric_duals",
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
    """A warm persistent re-solve leaves `duals` None, and `reduced_costs`
    too unless asked for them."""

    x_star: np.ndarray
    objective: float
    duals: Optional[np.ndarray]
    reduced_costs: Optional[np.ndarray]
    status: LpStatus

    @property
    def optimal(self) -> bool:
        return self.status is LpStatus.OPTIMAL

    @staticmethod
    def failed(n_vars: int, n_eq: int, status: LpStatus) -> "LpSolution":
        """An infeasible or unbounded outcome: every value is NaN."""
        return LpSolution(x_star=np.full(n_vars, np.nan), objective=np.nan,
                          duals=np.full(n_eq, np.nan),
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
        return LpSolution.failed(lp.n_vars, lp.n_eq, status)
    duals = res.eqlin.marginals if lp.n_eq else np.zeros(0)
    # on a fixed column the two bound marginals sum to its reduced cost
    reduced = res.lower.marginals + res.upper.marginals
    return LpSolution(
        x_star=res.x,
        objective=float(res.fun),
        duals=np.asarray(duals, dtype=float),
        reduced_costs=np.asarray(reduced, dtype=float),
        status=LpStatus.OPTIMAL,
    )


def parametric_duals(lp: LinearProgram, fixed_rows: Iterable[int],
                     solution: Optional[LpSolution] = None):
    """Optimal value and its subgradient w.r.t. the constants of pinning rows.

    For any perturbation d of the pinned right-hand sides,
    value(rhs + d) >= value + gradient . d.
    """
    if solution is None:
        solution = solve(lp)
    if not solution.optimal:
        raise LpError(f"parametric_duals requires an optimal LP, got {solution.status}")
    idx = np.asarray(list(fixed_rows), dtype=int)
    if idx.size and (idx.min() < 0 or idx.max() >= lp.n_eq):
        raise LpError("fixed_rows outside the equality row range")
    return solution.objective, solution.duals[idx]


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

    Not picklable on purpose (holds solver state): the policies drop their
    stage LPs when pickled, and the owners rebuild them lazily.
    """

    def __init__(self, c, lower, upper, rhs, rows, b_ub=None):
        global _cold_path_warned
        self._n_eq = rhs.size
        self._cost = c.copy()
        self._rhs = rhs.copy()
        self._rows = rows
        self._b_ub = np.zeros(0) if b_ub is None else b_ub
        self._lower = lower.copy()
        self._upper = upper.copy()
        self._core = _highs_core
        self._solver = None
        self._x = None  # primal solution of the last optimal warm solve
        self._kept = None  # _KeptBasis of the last run, while it may answer a solve
        self._logicals = None  # bounds of the rows' logical variables, once read
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
        solver = hc._Highs()
        solver.setOptionValue("output_flag", False)
        solver.passModel(n, self._n_eq + n_ub, data.size, int(hc.MatrixFormat.kRowwise),
                         int(hc.ObjSense.kMinimize), 0.0, self._cost, self._lower,
                         self._upper, np.concatenate([self._rhs, np.full(n_ub, -np.inf)]),
                         np.concatenate([self._rhs, self._b_ub]), indptr, indices, data,
                         np.zeros(n, dtype=np.int32))  # every column continuous
        return solver

    def add_rows(self, rows, b_ub):
        """Append inequality rows a x <= b_ub, given as a CSR triple like the
        constructor's; later solves include them."""
        indptr, indices, data = rows
        self._b_ub = np.concatenate([self._b_ub, b_ub])
        self._kept = self._logicals = None
        if self._solver is not None:
            self._solver.addRows(b_ub.size, np.full(b_ub.size, -np.inf), b_ub,
                                 data.size, indptr[:-1], indices, data)
        else:
            self._rows = stack_rows(self._rows, rows)

    def solve(self, rhs=None, lower=None, upper=None, cost=None,
              reduced_costs=False, pinned=None) -> LpSolution:
        """Re-solve with updated costs, equality rhs and/or variable bounds.

        A warm solve reads the reduced costs only when asked for, and no row
        duals.

        `pinned` names fixed columns (lower = upper) whose values are
        expected to move from solve to solve. After a run that took zero
        simplex iterations with them named, and no cost change, the next
        solves with the same costs, rows and `pinned`, in which no other
        nonbasic bound moved, are answered from that run's basis without
        running HiGHS, as long as the basic values at the new pinned values
        stay within their bounds (to BASIS_PRIMAL_TOL). The answer is that
        basis's vertex: optimal, and the one a warm run would return after
        zero pivots. The first such solve reads the basis off HiGHS (about
        0.15 ms on a 224-row stage LP); any run, a cost or rhs change and
        `add_rows` drop it.
        """
        if rhs is not None:
            rhs = np.asarray(rhs, dtype=float)
            if rhs.shape != self._rhs.shape:
                raise LpError("rhs shape changed between re-solves")
        c = self._cost if cost is None else np.asarray(cost, dtype=float)
        if c.shape != self._cost.shape:
            raise LpError("cost shape changed between re-solves")
        lo = self._lower if lower is None else np.asarray(lower, dtype=float)
        up = self._upper if upper is None else np.asarray(upper, dtype=float)
        if self._solver is None:
            if rhs is not None:
                self._rhs = rhs.copy()
            self._lower, self._upper = lo.copy(), up.copy()
            self._cost = c.copy()
            indptr, indices, data = self._rows
            a = sp.csr_matrix((data, indices, indptr), shape=(indptr.size - 1, c.size))
            n_eq, ub = self._n_eq, self._b_ub.size > 0
            return solve(LinearProgram(c=self._cost, a_eq=a[:n_eq], rhs=self._rhs,
                                       lower=self._lower, upper=self._upper,
                                       a_ub=a[n_eq:] if ub else None,
                                       b_ub=self._b_ub if ub else None))

        solver = self._solver
        new_rhs = np.nonzero(rhs != self._rhs)[0] if rhs is not None else ()
        new_cost = np.flatnonzero(c != self._cost)
        if len(new_rhs):
            self._kept = self._logicals = None
        if new_cost.size:
            self._kept = None
        moved = (lo != self._lower) | (up != self._upper)
        if pinned is not None and self._kept is not None:
            sol = self._kept_answer(lo, up, moved, pinned, reduced_costs)
            if sol is not None:
                return sol
        for r in new_rhs:
            solver.changeRowBounds(int(r), rhs[r], rhs[r])
        if rhs is not None:
            self._rhs = rhs.copy()
        changed = np.flatnonzero(moved)
        if changed.size:
            solver.changeColsBounds(changed.size, changed.astype(np.int32),
                                    lo[changed], up[changed])
            self._lower, self._upper = lo.copy(), up.copy()
        if new_cost.size:
            solver.changeColsCost(new_cost.size, new_cost.astype(np.int32), c[new_cost])
            self._cost = c.copy()

        self._x = self._kept = None
        solver.run()
        hc = self._core
        model_status = solver.getModelStatus()
        if model_status == hc.HighsModelStatus.kInfeasible:
            status = LpStatus.INFEASIBLE
        elif model_status == hc.HighsModelStatus.kUnbounded:
            status = LpStatus.UNBOUNDED
        elif model_status == hc.HighsModelStatus.kOptimal:
            status = LpStatus.OPTIMAL
        else:
            raise LpError(f"solver failure: {model_status}")
        if status is not LpStatus.OPTIMAL:
            return LpSolution.failed(c.size, self._n_eq, status)
        sol = solver.getSolution()
        self._x = np.asarray(sol.col_value, dtype=float)
        duals = np.asarray(sol.col_dual, dtype=float) if reduced_costs else None
        if (pinned is not None and not new_cost.size
                and solver.getInfoValue("simplex_iteration_count")[1] == 0):
            # the basis held at these costs: keep it for the next solves; it
            # is read off HiGHS when one of them first needs it
            self._kept = _KeptBasis(pinned, self._x, sol.row_value, duals)
        return LpSolution(
            x_star=self._x,
            objective=solver.getObjectiveValue(),
            duals=None,
            reduced_costs=duals,
            status=LpStatus.OPTIMAL,
        )

    def _kept_answer(self, lo, up, moved, pinned, reduced_costs) -> Optional[LpSolution]:
        """The optimum at bounds (lo, up), read off the kept basis, or None
        when that basis cannot answer: a nonbasic bound other than a pinned
        one moved (`moved` marks the bounds that differ from HiGHS's), or a
        basic value leaves its bounds. HiGHS is not told of the new bounds;
        the next run sends every bound that differs."""
        kept = self._kept
        if ((reduced_costs and kept.col_dual is None)
                or (pinned is not kept.pinned and not np.array_equal(pinned, kept.pinned))):
            return None
        if kept.factor is None and not kept.read(self):
            self._kept = None
            return None
        lower, upper = kept.lower, kept.upper
        moved = moved & kept.unpinned
        if moved.any():
            if not np.isin(np.flatnonzero(moved), kept.cols).all():
                return None
            # only bounds of basic columns moved: check against the new ones
            logical_lower, logical_upper = self._logicals
            lower = np.concatenate([lo - BASIS_PRIMAL_TOL, logical_lower])[kept.ext]
            upper = np.concatenate([up + BASIS_PRIMAL_TOL, logical_upper])[kept.ext]
        x_pin = lo[pinned]
        basic = kept.vb0 - kept.factor @ (x_pin - kept.x[pinned])
        if (basic < lower).any() or (basic > upper).any():
            return None
        x = kept.x.copy()
        x[pinned] = x_pin
        x[kept.cols] = basic[kept.col_pos]
        self._x = x
        return LpSolution(x_star=x, objective=float(self._cost @ x), duals=None,
                          reduced_costs=kept.col_dual if reduced_costs else None,
                          status=LpStatus.OPTIMAL)

    def basis(self):
        """Status codes (BASIS_*) of the columns and rows in the basis of the
        last optimal solve, or None on the cold path and before one."""
        if self._x is None:
            return None
        status, basic = self._solver.getBasicVariables()
        if status != self._core.HighsStatus.kOk:  # no factored basis to read
            return None
        # a nonbasic column sits on the bound nearer to its value
        cols = np.where(np.abs(self._x - self._upper) < np.abs(self._x - self._lower),
                        BASIS_UPPER, BASIS_LOWER).astype(np.int8)
        cols[np.isinf(self._lower) & np.isinf(self._upper)] = BASIS_ZERO
        # equality rows first, then the inequality rows a x <= b
        rows = np.full(self._solver.getNumRow(), BASIS_UPPER, dtype=np.int8)
        rows[:self._n_eq] = BASIS_LOWER
        cols[basic[basic >= 0]] = BASIS_BASIC
        rows[-1 - basic[basic < 0]] = BASIS_BASIC
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
    """The optimal basis of a PersistentLp's last run, with what it takes to
    re-read its vertex at other values of the pinned columns.

    With logical variables s = -A x, [A I] (x, s) = 0, so the basic values
    are v_B = -B^-1 N v_N: moving the pinned columns by dx moves them by
    -B^-1 A_pin dx. `factor` is B^-1 A_pin, one solve with HiGHS's factor
    of B per pinned column. Arrays indexed by basic variable follow HiGHS's
    order of the basic variables, which its basis solves use too; `ext`
    maps them to columns (j < n) and logicals (n + i).

    `read` takes the basis off HiGHS when a solve first tries it, not right
    after the run that found it: HiGHS keeps that basis and factor until its
    next run, and a decision that ran HiGHS does not pay for the read too.
    Where fewer than half the decisions are answered (bench-spring), reading
    right after the run slowed the median decision by about a third.
    """

    def __init__(self, pinned, x, row_value, col_dual):
        self.pinned, self.x, self.row_value, self.col_dual = pinned, x, row_value, col_dual
        self.factor = None

    def read(self, owner: PersistentLp) -> bool:
        """Take the basis off `owner`'s HiGHS; False when it cannot be kept
        (a pinned column is basic, or HiGHS has no factor to read)."""
        solver, ok, pinned = owner._solver, owner._core.HighsStatus.kOk, self.pinned
        status, basic = solver.getBasicVariables()
        if status != ok or (basic[:, None] == pinned).any():
            return False
        factor = np.empty((basic.size, pinned.size))
        for k, j in enumerate(pinned):
            status, factor[:, k] = solver.getReducedColumn(int(j))  # B^-1 a_j
            if status != ok:
                return False
        n = owner._cost.size
        if owner._logicals is None:
            # a row's logical lies in [-row_upper, -row_lower], widened
            n_ub = owner._b_ub.size
            owner._logicals = (
                np.concatenate([-owner._rhs, -owner._b_ub]) - BASIS_PRIMAL_TOL,
                np.concatenate([-owner._rhs, np.full(n_ub, np.inf)]) + BASIS_PRIMAL_TOL)
        self.unpinned = np.ones(n, dtype=bool)
        self.unpinned[pinned] = False
        self.col_pos = np.flatnonzero(basic >= 0)
        self.cols = basic[self.col_pos]
        self.ext = np.where(basic >= 0, basic, n - 1 - basic)
        self.vb0 = np.concatenate([self.x, np.negative(self.row_value)])[self.ext]
        # HiGHS still holds the bounds of the run that found the basis
        lower, upper = owner._logicals
        self.lower = np.concatenate([owner._lower - BASIS_PRIMAL_TOL, lower])[self.ext]
        self.upper = np.concatenate([owner._upper + BASIS_PRIMAL_TOL, upper])[self.ext]
        self.factor = factor
        return True
