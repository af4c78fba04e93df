"""LP assembly for the controllers.

Two problem shapes are built here:

* a deterministic multi-period chain (MPC step problems and the anticipative
  perfect-foresight bound),
* the one-stage Bellman problem of SDDP: scenario blocks sharing the stage
  decision, each valuing its next state by the polyhedral cuts.

One `OneStageDecision` per stage serves the forward pass, the backward pass
and online play. It stays inside the solver between solves: the incoming
state is a block of four fixed columns (lower = upper = x), so a solve at a
new state changes column bounds only, the reduced costs of those columns are
the cut slope, and new cuts are appended as rows. Forward-pass decisions
break ties between equally cheap controls towards storing energy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

from . import lp as lpmod
from .model import (
    Control,
    State,
    SystemParams,
    admissible_controls,
    linear_dynamics,
    split_flow,
)

INF = np.inf


def canonical_control(fbp: float, fbm: float, ft: float, fh: float) -> Control:
    """Collapse the battery sign split; simultaneous charge/discharge only
    wastes energy, so the net flow is equivalent or better."""
    pos, neg = split_flow(fbp - fbm)
    return Control(f_b=pos - neg, f_t=ft, f_h=fh)


def cut_key(lam: np.ndarray, beta: float) -> tuple:
    """Identity of a cut: slope and intercept rounded to 12 decimals."""
    return tuple(np.round(np.append(lam, beta), 12))


@dataclass
class ChainSolution:
    control: Control
    objective: float
    status: lpmod.LpStatus


class DeterministicChain:
    """LP over steps t0..T-1 against a deterministic demand path.

    The matrix depends only on (params, t0); demands and the initial state
    enter through the rhs and the first-step control bounds.
    """

    def __init__(self, p: SystemParams, t0: int, x_ref: State,
                 h_floor: Optional[float] = None):
        if not 0 <= t0 < p.horizon_steps:
            raise ValueError(f"t0 {t0} outside [0, {p.horizon_steps})")
        self.p = p
        self.t0 = t0
        self.x_ref = x_ref
        self.h_floor = p.h_floor if h_floor is None else h_floor
        self._build()

    # variable layout: per step k of ns: [fbp, fbm, ft, fh, fne, spill, dcomf]
    # then states x_{t0+k}, k = 1..ns (4 each), then zb, zh.
    def _u(self, k, j):
        return 7 * k + j

    def _x(self, k, j):
        return 7 * self.ns + 4 * (k - 1) + j

    def _build(self):
        p, t0 = self.p, self.t0
        ns = self.ns = p.horizon_steps - t0
        n = 7 * ns + 4 * ns + 2
        self.n = n
        iz_b, iz_h = n - 2, n - 1
        delta = p.delta

        rows, cols, vals = [], [], []
        b_eq = np.zeros(5 * ns)

        for k in range(ns):
            t = t0 + k
            m, nmat, _, g = linear_dynamics(t, p)
            # balance row (demand realized over [t, t+1])
            r = 5 * k
            for j, coef in ((4, 1.0), (5, -1.0), (0, -1.0), (1, 1.0), (2, -1.0), (3, -1.0)):
                rows.append(r)
                cols.append(self._u(k, j))
                vals.append(coef)
            # dynamics rows: x_{k+1} - (I + delta M) x_k - delta N u_k = delta g (+ delta P w)
            phi = np.eye(4) + delta * m
            for i in range(4):
                r = 5 * k + 1 + i
                rows.append(r)
                cols.append(self._x(k + 1, i))
                vals.append(1.0)
                if k > 0:
                    for j in range(4):
                        if phi[i, j] != 0.0:
                            rows.append(r)
                            cols.append(self._x(k, j))
                            vals.append(-phi[i, j])
                for j in range(4):
                    if nmat[i, j] != 0.0:
                        rows.append(r)
                        cols.append(self._u(k, j))
                        vals.append(-delta * nmat[i, j])
                b_eq[r] = delta * g[i]
        # the current state enters the first dynamics rows through the rhs
        self._first_dyn = np.eye(4) + delta * linear_dynamics(t0, p)[0]
        self.a_eq = sp.csr_matrix((vals, (rows, cols)), shape=(5 * ns, n))
        self._b_eq_base = b_eq

        # inequality block: discomfort epigraphs for k >= 1, terminal penalties
        rows, cols, vals = [], [], []
        b_ub = []
        r = 0
        for k in range(1, ns):
            t = t0 + k
            rows += [r, r]
            cols += [self._u(k, 6), self._x(k, 3)]
            vals += [-1.0, -1.0]
            b_ub.append(-p.theta_set[t])
            r += 1
        kap = p.kappa
        rows += [r, r]
        cols += [iz_b, self._x(ns, 0)]
        vals += [-1.0, -kap]
        b_ub.append(-kap * self.x_ref.b)
        r += 1
        rows += [r, r]
        cols += [iz_h, self._x(ns, 1)]
        vals += [-1.0, -kap]
        b_ub.append(-kap * self.x_ref.h)
        r += 1
        self.a_ub = sp.csr_matrix((vals, (rows, cols)), shape=(r, n))
        self.b_ub = np.array(b_ub)

        lower = np.zeros(n)
        upper = np.full(n, INF)
        c = np.zeros(n)
        for k in range(ns):
            t = t0 + k
            upper[self._u(k, 0)] = p.f_b_max
            upper[self._u(k, 1)] = p.f_b_max
            upper[self._u(k, 2)] = p.f_t_max
            upper[self._u(k, 3)] = p.f_h_max
            c[self._u(k, 4)] = p.pi_e[t] * p.delta
            c[self._u(k, 6)] = p.pi_d[t]
        for k in range(1, ns + 1):
            lower[self._x(k, 0)], upper[self._x(k, 0)] = p.b_min, p.b_max
            lower[self._x(k, 1)], upper[self._x(k, 1)] = self.h_floor, p.h_max
            lower[self._x(k, 2)] = -INF
            lower[self._x(k, 3)] = -INF
        c[iz_b] = 1.0
        c[iz_h] = 1.0
        self.c = c
        self._lower_base = lower
        self._upper_base = upper
        self._persistent = None

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_persistent"] = None  # solver handle, rebuilt lazily
        return state

    def solve(self, x: State, demands: np.ndarray) -> ChainSolution:
        """Solve against forecast demands (shape (ns, 2), entry k realized
        over [t0+k, t0+k+1]); returns the first-step control."""
        p = self.p
        demands = np.asarray(demands, dtype=float)
        if demands.shape != (self.ns, 2):
            raise ValueError(f"expected {self.ns} forecast entries, got {demands.shape}")
        b_eq = self._b_eq_base.copy()
        for k in range(self.ns):
            b_eq[5 * k] = demands[k, 0]
            b_eq[5 * k + 2] += -p.delta * demands[k, 1]
        b_eq[1:5] += self._first_dyn @ x.as_array()

        lower = self._lower_base.copy()
        upper = self._upper_base.copy()
        box = admissible_controls(x, p)
        upper[self._u(0, 0)] = box.f_b_max
        upper[self._u(0, 1)] = -box.f_b_min
        upper[self._u(0, 3)] = box.f_h_max
        lower[self._u(0, 6)] = max(0.0, p.theta_set[self.t0] - x.theta_i)

        # The tank floor may be unreachable after an unusually large draw;
        # relax each planned level to what full-rate reheating can attain so
        # the plan stays feasible (and then reheats as fast as possible).
        reach = x.h + p.delta * (p.beta_h * box.f_h_max - demands[0, 1])
        lower[self._x(1, 1)] = min(self.h_floor, reach)
        for k in range(2, self.ns + 1):
            reach = min(p.h_max,
                        reach + p.delta * (p.beta_h * p.f_h_max - demands[k - 1, 1]))
            lower[self._x(k, 1)] = min(self.h_floor, reach)

        if self._persistent is None:
            self._persistent = lpmod.PersistentLp(lpmod.LinearProgram(
                c=self.c, a_eq=self.a_eq, rhs=b_eq, lower=lower, upper=upper,
                a_ub=self.a_ub, b_ub=self.b_ub))
        sol = self._persistent.solve(rhs=b_eq, lower=lower, upper=upper)
        if not sol.optimal:
            return ChainSolution(control=Control(0.0, 0.0, 0.0),
                                 objective=np.nan, status=sol.status)
        xs = sol.x_star
        u = canonical_control(*xs[self._u(0, 0):self._u(0, 4)])
        return ChainSolution(control=box.clip(u), objective=float(sol.objective),
                             status=sol.status)


@dataclass
class StageSolution:
    control: Control
    objective: float
    duals: Optional[np.ndarray] = None


# column layout: pinned state x(4), control u = [fb+, fb-, ft, fh],
# discomfort, then per scenario s: fne, spill, theta_s, next state x'_s(4)
_U, _DCOMF, _BLOCK, _WIDTH = 4, 8, 9, 7

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
    """

    def __init__(self, p: SystemParams, t: int, dist, lambdas: np.ndarray,
                 betas: np.ndarray):
        if not 0 <= t < p.horizon_steps:
            raise ValueError(f"stage {t} outside [0, {p.horizon_steps})")
        self.p = p
        self.t = t
        self.points = np.asarray(dist.points, dtype=float)
        self.weights = np.asarray(dist.weights, dtype=float)
        self.s_count = self.points.shape[0]
        self.n = _BLOCK + _WIDTH * self.s_count
        blocks = _BLOCK + _WIDTH * np.arange(self.s_count)
        self._theta = blocks + 2
        self._next = blocks[:, None] + 3 + np.arange(4)
        self._cuts = {}  # cut_key -> (lam, beta), in insertion order
        self._persistent = None
        self._build()
        for lam, beta in zip(np.asarray(lambdas, dtype=float).reshape(-1, 4),
                             np.asarray(betas, dtype=float).reshape(-1)):
            self.add_cut(lam, beta)

    def _build(self):
        p, t, n, s_count = self.p, self.t, self.n, self.s_count
        delta = p.delta
        m, nmat, pw, g = linear_dynamics(t, p)
        blocks = _BLOCK + _WIDTH * np.arange(s_count)

        # per scenario: the balance fne - spill - fb+ + fb- - ft - fh = d_el,
        # then x'_s - (I + delta M) x - delta N u = delta (P w_s + g)
        shared = np.zeros((5, _BLOCK))
        shared[0, _U:_DCOMF] = (-1.0, 1.0, -1.0, -1.0)
        shared[1:, :4] = -(np.eye(4) + delta * m)
        shared[1:, _U:_DCOMF] = -delta * nmat
        own = np.zeros((5, _WIDTH))
        own[0, :2] = (1.0, -1.0)
        own[1:, 3:] = np.eye(4)
        a_eq = np.zeros((5 * s_count, n))
        for s, base in enumerate(blocks):
            a_eq[5 * s:5 * s + 5, :_BLOCK] = shared
            a_eq[5 * s:5 * s + 5, base:base + _WIDTH] = own
        self.a_eq = sp.csr_matrix(a_eq)
        self.b_eq = np.column_stack([self.points[:, 0],
                                     delta * (self.points @ pw.T + g)]).ravel()

        # admissible control box, written through the pinned state
        a_box = np.zeros((4, n))
        a_box[0, [_U, 0]] = (delta * p.rho_c, 1.0)
        a_box[1, [_U + 1, 0]] = (delta / p.rho_d, -1.0)
        a_box[2, [_U + 3, 1]] = (delta * p.beta_h, 1.0)
        a_box[3, [_DCOMF, 3]] = (-1.0, -1.0)
        self._a_box = sp.csr_matrix(a_box)
        self._b_box = np.array([p.b_max, -p.b_min, p.h_max, -p.theta_set[t]])

        lower = np.full(n, -INF)
        upper = np.full(n, INF)
        lower[_U:_DCOMF + 1] = 0.0
        upper[_U:_DCOMF] = (p.f_b_max, p.f_b_max, p.f_t_max, p.f_h_max)
        lower[blocks] = 0.0
        lower[blocks + 1] = 0.0
        lower[self._next[:, 0]], upper[self._next[:, 0]] = p.b_min, p.b_max
        upper[self._next[:, 1]] = p.h_max  # the floor depends on x
        c = np.zeros(n)
        c[_DCOMF] = p.pi_d[t]
        c[blocks] = self.weights * p.pi_e[t] * delta
        c[self._theta] = self.weights
        self.c = c
        self._c_decide = c.copy()
        self._c_decide[self._next[:, :2]] -= STORAGE_TIE_BREAK * self.weights[:, None]
        self._lower_base = lower
        self._upper_base = upper

    def _cut_rows(self, lambdas: np.ndarray, betas: np.ndarray):
        """Rows lam_j . x'_s - theta_s <= -beta_j, cut-major."""
        s_count = self.s_count
        n_rows = lambdas.shape[0] * s_count
        cols = np.tile(np.column_stack([self._theta, self._next]), (lambdas.shape[0], 1))
        vals = np.column_stack([np.full(n_rows, -1.0), np.repeat(lambdas, s_count, axis=0)])
        keep = vals != 0.0
        indptr = np.concatenate([[0], np.cumsum(keep.sum(axis=1))])
        return (sp.csr_matrix((vals[keep], cols[keep], indptr), shape=(n_rows, self.n)),
                np.repeat(-betas, s_count))

    @property
    def n_cuts(self) -> int:
        return len(self._cuts)

    def add_cut(self, lam: np.ndarray, beta: float) -> bool:
        """Add theta_s >= lam . x'_s + beta for every scenario. A cut already
        present (same `cut_key`) is skipped; returns whether it was new."""
        lam = np.asarray(lam, dtype=float)
        key = cut_key(lam, beta)
        if key in self._cuts:
            return False
        self._cuts[key] = (lam, float(beta))
        if self._persistent is not None:
            self._persistent.add_rows(*self._cut_rows(lam[None, :], np.array([beta])))
        return True

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_persistent"] = None  # solver handle, rebuilt from the cuts
        return state

    def solve(self, x: State, prefer_storage: bool = False) -> StageSolution:
        """Optimal control at incoming state x (clipped to the admissible
        box), the optimal value, and its slope in x as `duals`.

        With `prefer_storage`, ties between equally cheap controls go to the
        one that leaves more energy in storage (STORAGE_TIE_BREAK). The value
        is then the true cost of the chosen solution, within
        STORAGE_TIE_BREAK * (b_max + h_max) of the optimum, and `duals` is None.
        """
        p = self.p
        box = admissible_controls(x, p)
        lower = self._lower_base.copy()
        upper = self._upper_base.copy()
        lower[:4] = upper[:4] = x.as_array()
        # relax the tank floor when a scenario's draw makes it unreachable
        reach = x.h + p.delta * (p.beta_h * box.f_h_max - self.points[:, 1])
        lower[self._next[:, 1]] = np.minimum(p.h_floor, reach)
        if self._persistent is None:
            lambdas = np.array([lam for lam, _ in self._cuts.values()]).reshape(-1, 4)
            betas = np.array([beta for _, beta in self._cuts.values()])
            a_cut, b_cut = self._cut_rows(lambdas, betas)
            self._persistent = lpmod.PersistentLp(lpmod.LinearProgram(
                c=self.c, a_eq=self.a_eq, rhs=self.b_eq, lower=lower, upper=upper,
                a_ub=sp.vstack([self._a_box, a_cut]),
                b_ub=np.concatenate([self._b_box, b_cut])))
        sol = self._persistent.solve(lower=lower, upper=upper,
                                     cost=self._c_decide if prefer_storage else self.c)
        if not sol.optimal:
            raise lpmod.LpError(
                f"one-stage problem at t={self.t} is {sol.status.value}; the "
                "import/spill recourse should forbid this")
        xs = sol.x_star
        u = canonical_control(*xs[_U:_U + 4])
        if prefer_storage:
            return StageSolution(control=box.clip(u), objective=float(self.c @ xs))
        return StageSolution(control=box.clip(u), objective=float(sol.objective),
                             duals=sol.reduced_costs[:4].copy())


def solve_pinned_stage(p: SystemParams, t: int, x: State, dist,
                       lambdas: np.ndarray, betas: np.ndarray) -> StageSolution:
    """One-shot stage solve at x; `duals` is a subgradient of the optimal
    value with respect to the incoming state (the cut slope)."""
    return OneStageDecision(p, t, dist, lambdas, betas).solve(x)

