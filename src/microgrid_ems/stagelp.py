"""LP assembly for the controllers.

Two problem shapes are built here:

* a deterministic multi-period chain (MPC step problems and the anticipative
  perfect-foresight bound); the chain at t0 is a slice of one horizon
  template,
* the one-stage Bellman problem of SDDP: scenario blocks sharing the stage
  decision, each valuing its next state by the polyhedral cuts.

One `OneStageDecision` per stage serves the forward pass, the backward pass
and online play. It stays inside the solver between solves: the incoming
state is a block of four fixed columns (lower = upper = x), so a solve at a
new state changes column bounds only, the reduced costs of those columns are
the cut slope, and new cuts are appended as rows. Forward-pass decisions
break ties between equally cheap controls towards storing energy.

Both owners build their `PersistentLp` on first solve and seed it from
`prev`, the LP of the step before, through `PersistentLp.seed`; each states
only its map from the old LP's columns and rows to its own. The policies
drop these LPs when pickled, so an owner is never pickled with its solver.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

from . import lp as lpmod
from .model import (
    Control,
    State,
    SystemParams,
    clipped_control,
    control_limits,
    linear_dynamics,
    split_flow,
)

INF = np.inf


def first_control(fbp: float, fbm: float, ft: float, fh: float, limits,
                  p: SystemParams) -> Control:
    """The control of an LP's first-step flows: the battery sign split
    collapsed (simultaneous charge/discharge only wastes energy, so the net
    flow is equivalent or better), then clipped to the admissible box of
    `limits` (`model.control_limits`)."""
    pos, neg = split_flow(fbp - fbm)
    return clipped_control(pos - neg, ft, fh, limits, p)


def cut_key(lam: np.ndarray, beta: float) -> tuple:
    """Identity of a cut: slope and intercept rounded to 12 decimals."""
    return tuple(np.round(np.append(lam, beta), 12).tolist())


@dataclass
class StageSolution:
    control: Control
    objective: float
    duals: Optional[np.ndarray] = None


def _not_optimal(sol: lpmod.LpSolution, what: str) -> lpmod.LpError:
    return lpmod.LpError(f"{what} is {sol.status.name.lower()}; the import/spill "
                         "recourse should forbid this")


class ChainTemplate:
    """The chain over the whole horizon (t0 = 0), built once per reference
    state x_ref (the terminal penalty's stock levels), demand path and tank
    floor.

    `path` has shape (T, 2): entry t, (d_el, d_hw), is realized over
    [t, t+1]. It is written once into every step's balance and tank rows,
    and with it what full-rate reheating adds to the tank at each step
    (`gain`). The chain at t0 is a slice of it: the equality rows 4 t0:,
    the terminal rows, the columns of steps >= t0 and of states >= t0 + 1,
    and the gains of steps > t0.

    Column layout: per step t of T: [fbp, fbm, ft, fh, fne, spill], then
    states x_t, t = 1..T: (b, h, dcomf, s), x_T only (b, h); then zb, zh.
    The indoor temperature is theta_set_t - dcomf_t + s_t (dcomf, s >= 0;
    dcomf carries the discomfort price), and the wall one is eliminated.
    Rows: per step a balance row and the battery, tank and indoor rows (the
    last step has no indoor row: nothing reads theta_i,T); then the two
    terminal penalty rows, all as one CSR triple `rows` with int32 indices.
    With A = I + delta M, B = delta N and c_t = delta g_t
    (`linear_dynamics`), w the wall and i the indoor index, the indoor row
    of step t >= 1 joins two steps of the dynamics:
        theta_i,t+1 - (A_ww + A_ii) theta_i,t + (A_ww A_ii - A_wi A_iw) theta_i,t-1
        - B_i ft_t - (A_iw B_w - A_ww B_i) ft_t-1 = c_i,t - A_ww c_i,t-1 + A_iw c_w,t-1.
    Without the columns before t0, step t0's row is the first-order
    theta_i,t0+1 - B_i ft_t0 = A_iw theta_w + A_ii theta_i + c_i,t0 at the
    state. `theta_base[t0]` holds its constant and step t0 + 1's, the
    theta_i,t0 term aside.
    """

    def __init__(self, p: SystemParams, x_ref: State, path: np.ndarray,
                 h_floor: Optional[float] = None):
        self.p = p
        self.h_floor = p.h_floor if h_floor is None else h_floor
        T, delta = p.horizon_steps, p.delta
        path = np.asarray(path, dtype=float)
        if path.shape != (T, 2):
            raise ValueError(f"expected a demand path of shape ({T}, 2), got {path.shape}")
        n = 10 * T
        steps = np.arange(T)
        u = 6 * steps[:, None] + np.arange(6)               # u[t, j]
        x = np.full((T + 2, 4), -1)  # x[t + 1] is x_t; -1: no column
        x[2:] = 6 * T + 4 * steps[:, None] + np.arange(4)
        x[-1, 2:] = -1
        m, nmat, _, _ = linear_dynamics(0, p)               # M and N are time-invariant
        (a_ww, a_wi), (a_iw, a_ii) = np.eye(2) + delta * m[2:, 2:]
        b_w, b_i = delta * nmat[2:, 2]
        trace, det = a_ww + a_ii, a_ww * a_ii - a_wi * a_iw
        c = delta * np.array([linear_dynamics(t, p)[3] for t in range(T)])
        c_w, c_i, theta_set = c[:, 2], c[:, 3], p.theta_set

        # step block: the balance fne - spill - fb+ + fb- - ft - fh = d_el,
        # the battery and tank rows x_{t+1} - x_t - B u_t = (0, -delta d_hw),
        # then the indoor row; columns [u_{t-1}, u_t (6 each), x_{t-1}, x_t,
        # x_{t+1} (4 each)]
        block = np.zeros((4, 24))
        block[0, 6:12] = (-1.0, 1.0, -1.0, -1.0, 1.0, -1.0)
        block[1:3, 6:10] = -delta * nmat[:2]
        block[1:3, 16:18] = -np.eye(2)
        block[1:3, 20:22] = np.eye(2)
        block[3, (2, 8, 14, 15, 18, 19, 22, 23)] = (-(a_iw * b_w - a_ww * b_i), -b_i, -det, det,
                                                    trace, -trace, -1.0, 1.0)
        r, k = np.nonzero(block)
        up = np.vstack([np.full((1, 6), -1), u])
        cols = np.hstack([up[:-1], u, x[:-2], x[1:-1], x[2:]])[:, k]
        rows = 4 * steps[:, None] + r
        vals = np.broadcast_to(block[r, k], cols.shape)
        keep = (cols >= 0) & (rows < 4 * T - 1)
        a_eq = sp.csr_matrix((vals[keep], (rows[keep], cols[keep])), shape=(4 * T - 1, n))
        # the indoor rows' constants, theta_set moved to the rhs: at first
        # order, and at second order without the theta_i,t-1 term
        first = c_i - theta_set[1:]
        second = (c_i[1:] - a_ww * c_i[:-1] + a_iw * c_w[:-1] - theta_set[2:]
                  + trace * theta_set[1:T])
        b_eq = np.column_stack([path[:, 0], np.zeros(T), -delta * path[:, 1],
                                np.append(first[0], second - det * theta_set[:T - 1])])
        self.b_eq = b_eq.ravel()[:-1]
        self.theta_coef = (float(a_iw), float(a_ii), float(det))
        self.theta_base = np.column_stack([first, np.append(second, 0.0)]).tolist()
        self.gain = (delta * (p.beta_h * p.f_h_max - path[:, 1])).tolist()

        # kappa * max(0, ref - stock) for the battery and the tank
        kap = p.kappa
        a_ub = sp.csr_matrix(([-1.0, -kap, -1.0, -kap],
                              ([0, 0, 1, 1], [n - 2, x[-1, 0], n - 1, x[-1, 1]])), shape=(2, n))
        self.b_ub = np.array([-kap * x_ref.b, -kap * x_ref.h])
        self.rows = lpmod.stack_rows((a_eq.indptr, a_eq.indices, a_eq.data),
                                     (a_ub.indptr, a_ub.indices, a_ub.data))

        lower = np.zeros(n)
        upper = np.full(n, INF)
        cost = np.zeros(n)
        upper[u[:, :4]] = (p.f_b_max, p.f_b_max, p.f_t_max, p.f_h_max)
        cost[u[:, 4]] = p.pi_e[:T] * delta
        cost[x[2:-1, 2]] = p.pi_d[1:T]
        lower[x[2:, 0]], upper[x[2:, 0]] = p.b_min, p.b_max
        lower[x[2:, 1]], upper[x[2:, 1]] = self.h_floor, p.h_max
        cost[n - 2:] = 1.0
        self.c, self.lower, self.upper = cost, lower, upper


# the first step's four rows and the second step's indoor row, which hold the
# state, and the first step's bounds set per state: fb+, fb- and fh's upper
_HEAD_ROWS = np.array([0, 1, 2, 3, 7])
_HEAD_COLS = np.array([0, 1, 3])


class DeterministicChain:
    """LP over steps t0..T-1 against the template's demand path.

    The matrix depends only on (params, t0); the path's later steps are the
    template's, and the first step's demand and the initial state enter
    through the head rows and the first step's control bounds; the first
    step's discomfort is the state's, added to the LP's optimum. `prev`,
    the chain at t0 - 1, seeds this chain's first solve with its last
    basis, shifted by one step: by the principle of optimality it is nearly
    optimal here (the "shift" initialisation of real-time MPC).

    A re-solve hands its LP only what moved: the rhs of the head rows and
    three bounds, and the tank floors only when they may have moved.
    """

    def __init__(self, template: ChainTemplate, t0: int,
                 prev: Optional["DeterministicChain"] = None):
        p = template.p
        if not 0 <= t0 < p.horizon_steps:
            raise ValueError(f"t0 {t0} outside [0, {p.horizon_steps})")
        self.p = p
        self.t0 = t0
        self.h_floor = template.h_floor
        T = p.horizon_steps
        self.ns = ns = T - t0
        # keep steps t0..T-1, states x_{t0+1}..x_T, zb, zh: `cmap` renumbers
        # them and sends the earlier controls and x_1..x_{t0} to -1
        s_col = 6 * T + 4 * t0
        cmap = np.full(10 * T, -1, dtype=np.int32)
        cmap[6 * t0:6 * T] = np.arange(6 * ns, dtype=np.int32)
        cmap[s_col:] = np.arange(6 * ns, 10 * ns, dtype=np.int32)
        # equality rows 4 t0: and the terminal rows of the template; of their
        # entries, only those of x_{t0-1}, x_{t0} and u_{t0-1} drop out
        indptr, indices, data = template.rows
        start = indptr[4 * t0]
        ptr = indptr[4 * t0:] - start
        cols = cmap[indices[start:]]
        keep = cols >= 0
        dropped = np.concatenate(([0], np.cumsum(~keep, dtype=np.int32)))  # before each entry
        self._rows = ((ptr - dropped[ptr]).astype(np.int32, copy=False), cols[keep],
                      data[start:][keep])
        self.b_eq = template.b_eq[4 * t0:]  # the head rows are written per solve
        self._head_rows = _HEAD_ROWS[_HEAD_ROWS < 4 * ns - 1]
        self._theta = (*template.theta_coef, *template.theta_base[t0])
        self._gain = template.gain[t0 + 1:]  # per later step, what full-rate reheating adds
        self._theta_set, self._pi_d = float(p.theta_set[t0]), float(p.pi_d[t0])
        self.b_ub = template.b_ub
        self.c = np.concatenate((template.c[6 * t0:6 * T], template.c[s_col:]))
        self._lower_base = np.concatenate((template.lower[6 * t0:6 * T],
                                           template.lower[s_col:]))
        self._upper_base = np.concatenate((template.upper[6 * t0:6 * T],
                                           template.upper[s_col:]))
        self._h_cols = 6 * ns + 1 + 4 * np.arange(ns)   # tank level of x_{t0+1..T}
        self._floor_cols = np.concatenate((_HEAD_COLS, self._h_cols))
        # the bounds of columns _HEAD_COLS, written in place at each state
        self._head_lower = self._lower_base[_HEAD_COLS]
        self._head_upper = self._upper_base[_HEAD_COLS]
        self._floor_reach = INF  # lowest first reach seen to leave every floor at h_floor
        self._relaxed = True  # some floor the LP holds is not h_floor
        self._persistent = None
        self._prev = prev

    def solve(self, x: State, first) -> StageSolution:
        """Solve at state x against the first step's demand `first`,
        (d_el, d_hw) realized over [t0, t0+1], and the template's path
        after it; returns the first-step control and the plan's cost.
        Raises `LpError` if the LP is not optimal."""
        p = self.p
        d_el, d_hw = first
        a_iw, a_ii, det, base1, base2 = self._theta
        head = np.array((d_el, x.b, x.h + -p.delta * d_hw,
                         a_iw * x.theta_w + a_ii * x.theta_i + base1,
                         base2 - det * x.theta_i)[:self._head_rows.size])
        rows = (self._head_rows, head)

        limits = f_b_min, f_b_max, f_h_max = control_limits(x, p)
        lower, upper = self._head_lower, self._head_upper
        upper[:] = f_b_max, -f_b_min, f_h_max
        cols = (_HEAD_COLS, lower, upper)

        # The tank floor may be unreachable after an unusually large draw;
        # relax each planned level to what full-rate reheating can attain so
        # the plan stays feasible (and then reheats as fast as possible).
        # Every planned reach is monotone in the first, rounding included:
        # once a first reach has left every floor at h_floor, any higher one
        # does too, and the floors need writing only below it or after a
        # relaxed solve.
        h_max = p.h_max
        first_reach = x.h + p.delta * (p.beta_h * f_h_max - d_hw)
        if self._relaxed or first_reach < self._floor_reach:
            reach = list(itertools.accumulate(
                self._gain, lambda level, d: min(h_max, level + d), initial=first_reach))
            self._relaxed = min(reach) < self.h_floor
            if not self._relaxed:
                self._floor_reach = min(self._floor_reach, first_reach)
            cols = (self._floor_cols,
                    np.concatenate((lower, np.minimum(self.h_floor, reach))),
                    np.concatenate((upper, self._upper_base[self._h_cols])))

        if self._persistent is None:
            lower, upper = self._lower_base.copy(), self._upper_base.copy()
            lower[cols[0]], upper[cols[0]] = cols[1], cols[2]
            b_eq = self.b_eq.copy()
            b_eq[self._head_rows] = head
            self._persistent = lpmod.PersistentLp(self.c, lower, upper, b_eq, self._rows,
                                                  self.b_ub)
            rows = cols = None  # built at x: nothing to send
            if self._prev is not None:
                # drop prev's first step: its 6 controls, the state x_{t0}
                # and its four rows
                k = self._prev.ns
                self._persistent.seed(self._prev._persistent,
                                      [*range(6), *range(6 * k, 6 * k + 4)], range(4))
                self._prev = None
        sol = self._persistent.solve(rows=rows, cols=cols)
        if not sol.optimal:
            raise _not_optimal(sol, f"chain LP at t0={self.t0}")
        discomfort = self._pi_d * max(0.0, self._theta_set - x.theta_i)
        return StageSolution(control=first_control(*sol.x_star[:4], limits, p),
                             objective=float(sol.objective) + discomfort)


# column layout: pinned state x(4), control u = [fb+, fb-, ft, fh],
# discomfort, then per scenario s: fne, spill, theta_s, next state x'_s(4)
_U, _DCOMF, _BLOCK, _WIDTH = 4, 8, 9, 7
_PINNED = np.arange(4)

# Reward per kWh of expected stored energy (battery and tank) in decision
# solves. When prices are flat, charging now or a step later cost the same,
# and a warm-started solve keeps whichever vertex it held before, which
# tends to defer charging; this makes the choice explicit (store now).
STORAGE_TIE_BREAK = 1e-5


class OneStageDecision:
    """One-stage Bellman problem at stage t.

    Minimizes the discomfort at x plus, in expectation over the scenarios of
    `dist`, the import bill and theta_s >= lam . x'_s + beta for every cut.
    The shared control is bounded through the pinned state by four box rows;
    each scenario has a balance row and four dynamics rows.

    `prev`, the stage LP solved one step earlier, seeds this LP's first
    solve. M, N and P are time-invariant, so every stage with as many
    scenarios has the same columns, equality rows and box rows: this LP
    shares prev's rows and base bounds, and their statuses carry over
    unchanged. prev's cut rows are dropped; of this stage's, those of the cut
    maximal at the incoming state start nonbasic, the others basic.

    Its persistent LP pins the state columns `_PINNED`, so a solve may skip
    HiGHS: the optimal bases of earlier runs at the same costs are kept, and
    one still primal feasible at the new state answers (see
    `PersistentLp.solve`). Online play solves exactly only. Training keeps
    no basis: its solves alternate between the exact and the
    `prefer_storage` costs, and `add_cut` drops the kept bases; so it does
    no added work.
    """

    def __init__(self, p: SystemParams, t: int, dist, lambdas: np.ndarray,
                 betas: np.ndarray, prev: Optional["OneStageDecision"] = None):
        if not 0 <= t < p.horizon_steps:
            raise ValueError(f"stage {t} outside [0, {p.horizon_steps})")
        self.p = p
        self.t = t
        self.points = np.asarray(dist.points, dtype=float)
        self.weights = np.asarray(dist.weights, dtype=float)
        self.s_count = self.points.shape[0]
        self.n = _BLOCK + _WIDTH * self.s_count
        self._lambdas = np.asarray(lambdas, dtype=float).reshape(-1, 4)
        self._betas = np.asarray(betas, dtype=float).reshape(-1)
        self._persistent = None
        # another scenario count is another column layout
        self._prev = prev if prev is not None and prev.s_count == self.s_count else None
        if self._prev is not None and prev.p is p:
            # the layout, rows and base bounds depend on p and S alone
            self._theta, self._next, self._rows = prev._theta, prev._next, prev._rows
            self._floor_cols = prev._floor_cols
            self._lower_base, self._upper_base = prev._lower_base, prev._upper_base
            self._cut_cols, self._cut_templates = prev._cut_cols, prev._cut_templates
        else:
            self._build_layout()
        self._build_stage()
        self._relaxed = True  # some tank floor the LP holds is not h_floor
        self._hw_max = float(self.points[:, 1].max())
        self._decide_costs = False  # the LP holds _c_decide, not c

    def _build_layout(self):
        """Columns, rows and base bounds: the same at every stage, since M, N
        and P are time-invariant."""
        p, n, s_count = self.p, self.n, self.s_count
        delta = p.delta
        m, nmat, _, _ = linear_dynamics(0, p)
        blocks = _BLOCK + _WIDTH * np.arange(s_count, dtype=np.int32)
        self._theta = blocks + 2
        self._next = blocks[:, None] + 3 + np.arange(4, dtype=np.int32)
        self._floor_cols = np.concatenate((_PINNED, self._next[:, 1]))  # state, then floors
        # a cut's columns per scenario, theta_s then x'_s, and per pattern of
        # its nonzero entries the indptr and indices of its rows
        self._cut_cols = np.column_stack([self._theta, self._next])
        self._cut_templates = {}

        # per scenario: the balance fne - spill - fb+ + fb- - ft - fh = d_el,
        # then x'_s - (I + delta M) x - delta N u = delta (P w_s + g);
        # columns [shared (9), the scenario's own (7)]
        block = np.zeros((5, _BLOCK + _WIDTH))
        block[0, _U:_DCOMF] = (-1.0, 1.0, -1.0, -1.0)
        block[1:, :4] = -(np.eye(4) + delta * m)
        block[1:, _U:_DCOMF] = -delta * nmat
        block[0, _BLOCK:_BLOCK + 2] = (1.0, -1.0)
        block[1:, _BLOCK + 3:] = np.eye(4)
        r, c = np.nonzero(block)
        eq_cols = np.where(c < _BLOCK, c, blocks[:, None] + (c - _BLOCK))

        # admissible control box, written through the pinned state
        box_cols = (0, _U, 0, _U + 1, 1, _U + 3, 3, _DCOMF)
        box_vals = (1.0, delta * p.rho_c, -1.0, delta / p.rho_d, 1.0, delta * p.beta_h,
                    -1.0, -1.0)
        counts = np.concatenate([np.tile(np.bincount(r, minlength=5), s_count), [2, 2, 2, 2]])
        self._rows = (np.concatenate([[0], np.cumsum(counts)]).astype(np.int32),
                      np.concatenate([eq_cols.ravel(), box_cols]).astype(np.int32),
                      np.concatenate([np.tile(block[r, c], s_count), box_vals]))

        lower = np.full(n, -INF)
        upper = np.full(n, INF)
        lower[_U:_DCOMF + 1] = 0.0
        upper[_U:_DCOMF] = (p.f_b_max, p.f_b_max, p.f_t_max, p.f_h_max)
        lower[blocks] = 0.0
        lower[blocks + 1] = 0.0
        lower[self._next[:, 0]], upper[self._next[:, 0]] = p.b_min, p.b_max
        upper[self._next[:, 1]] = p.h_max  # the floor depends on x
        self._lower_base = lower
        self._upper_base = upper

    def _build_stage(self):
        """What depends on t and the law: costs, equality rhs, box rhs."""
        p, t = self.p, self.t
        delta = p.delta
        _, _, pw, g = linear_dynamics(t, p)
        self.b_eq = np.column_stack([self.points[:, 0],
                                     delta * (self.points @ pw.T + g)]).ravel()
        self._b_box = np.array([p.b_max, -p.b_min, p.h_max, -p.theta_set[t]])
        c = np.zeros(self.n)
        c[_DCOMF] = p.pi_d[t]
        c[self._theta - 2] = self.weights * p.pi_e[t] * delta
        c[self._theta] = self.weights
        self.c = c
        self._c_decide = c.copy()
        self._c_decide[self._next[:, :2]] -= STORAGE_TIE_BREAK * self.weights[:, None]

    def _cut_rows(self, lambdas: np.ndarray, betas: np.ndarray):
        """Rows lam_j . x'_s - theta_s <= -beta_j, cut-major, as a CSR
        triple, and their right-hand sides: the rows `_cut_row` gives each
        cut, one after another."""
        indptr, indices = [np.zeros(1, dtype=np.int32)], [np.zeros(0, dtype=np.int32)]
        data, rhs = [np.zeros(0)], [np.zeros(0)]
        for lam, beta in zip(lambdas, betas):
            (ptr, idx, vals), b = self._cut_row(lam, beta)
            indptr.append(ptr[1:] + indptr[-1][-1])
            indices.append(idx)
            data.append(vals)
            rhs.append(b)
        return ((np.concatenate(indptr), np.concatenate(indices), np.concatenate(data)),
                np.concatenate(rhs))

    def _cut_row(self, lam: np.ndarray, beta: float):
        """The S rows of one cut, as a CSR triple, and their right-hand
        sides. They share one pattern of nonzero entries, for which the
        layout keeps a template: the indptr, the indices, and which of -1,
        lam each entry takes."""
        vals = np.concatenate(([-1.0], lam))
        keep = vals != 0.0
        template = self._cut_templates.get(keep.tobytes())
        if template is None:
            width = int(np.count_nonzero(keep))
            template = (np.arange(0, width * self.s_count + 1, width, dtype=np.int32),
                        self._cut_cols[:, keep].ravel(),
                        np.tile(keep.nonzero()[0], self.s_count))
            self._cut_templates[keep.tobytes()] = template
        indptr, indices, pick = template
        return (indptr, indices, vals[pick]), np.full(self.s_count, -beta)

    def _cut_statuses(self, x: State) -> np.ndarray:
        """Status codes of the cut rows at x: per scenario, the row of the
        cut maximal at x nonbasic (on its bound), the other cut rows basic."""
        cuts = np.full((self._betas.size, self.s_count), lpmod.BASIS_BASIC, dtype=np.int8)
        cuts[np.argmax(self._lambdas @ x.as_array() + self._betas)] = lpmod.BASIS_UPPER
        return cuts.ravel()

    @property
    def n_cuts(self) -> int:
        return self._betas.size

    def add_cut(self, lam: np.ndarray, beta: float):
        """Add theta_s >= lam . x'_s + beta for every scenario. The cut store
        (`ValueFunctions`) passes on only cuts it did not hold."""
        lam = np.asarray(lam, dtype=float).reshape(1, 4)
        self._lambdas = np.vstack([self._lambdas, lam])
        self._betas = np.append(self._betas, float(beta))
        if self._persistent is not None:
            self._persistent.add_rows(*self._cut_row(self._lambdas[-1], self._betas[-1]))

    def solve(self, x: State, prefer_storage: bool = False) -> StageSolution:
        """Optimal control at incoming state x (clipped to the admissible
        box), the optimal value, and its slope in x as `duals`.

        With `prefer_storage`, ties between equally cheap controls go to the
        one that leaves more energy in storage (STORAGE_TIE_BREAK). The value
        is then the true cost of the chosen solution, within
        STORAGE_TIE_BREAK * (b_max + h_max) of the optimum, and `duals` is None.
        """
        p = self.p
        limits = control_limits(x, p)
        state = x.as_array()
        cols = (_PINNED, state, state)
        # relax the tank floor when a scenario's draw makes it unreachable;
        # rounding is monotone, so if the largest draw leaves it reachable,
        # every draw does
        gain = p.beta_h * limits[2]
        relax = x.h + p.delta * (gain - self._hw_max) < p.h_floor
        if relax or self._relaxed:
            reach = x.h + p.delta * (gain - self.points[:, 1])
            cols = (self._floor_cols, np.concatenate((state, np.minimum(p.h_floor, reach))),
                    np.concatenate((state, self._upper_base[self._next[:, 1]])))
            self._relaxed = relax
        if self._persistent is None:
            lower, upper = self._lower_base.copy(), self._upper_base.copy()
            lower[cols[0]], upper[cols[0]] = cols[1], cols[2]
            self._persistent = lpmod.PersistentLp(self.c, lower, upper, self.b_eq,
                                                  self._rows, self._b_box, pinned=_PINNED)
            cols = None  # built at x: nothing to send
            self._persistent.add_rows(*self._cut_rows(self._lambdas, self._betas))
            if self._prev is not None:
                # keep the columns, equality and box rows; replace the cut rows
                self._persistent.seed(self._prev._persistent,
                                      drop_rows=np.s_[5 * self.s_count + 4:],
                                      more_rows=self._cut_statuses(x))
                self._prev = None
        if prefer_storage:
            sol = self._persistent.solve(cols=cols, cost=self._c_decide)
        else:
            sol = self._persistent.solve(cols=cols, cost=self.c if self._decide_costs else None)
        self._decide_costs = prefer_storage
        if not sol.optimal:
            raise _not_optimal(sol, f"one-stage problem at t={self.t}")
        xs = sol.x_star
        u = first_control(*xs[_U:_U + 4].tolist(), limits, p)
        if prefer_storage:
            return StageSolution(control=u, objective=float(self.c @ xs))
        return StageSolution(control=u, objective=float(sol.objective),
                             duals=sol.reduced_costs[:4].copy())


def solve_pinned_stage(p: SystemParams, t: int, x: State, dist,
                       lambdas: np.ndarray, betas: np.ndarray) -> StageSolution:
    """One-shot stage solve at x; `duals` is a subgradient of the optimal
    value with respect to the incoming state (the cut slope)."""
    return OneStageDecision(p, t, dist, lambdas, betas).solve(x)

