"""Independent oracles used by the test suite.

Everything here is written from first principles against the problem
statement (scenario-tree LPs, vertex enumeration, brute-force grids) and
deliberately avoids the package's own LP assembly code, so that agreement
between the two is meaningful.

Run as a script, it prints `scripted_run()` as one JSON line: per phase
(training, each policy's play, perfect foresight) the HiGHS calls per method
and their digest, then the lower bound, the bills of all three policies and
the perfect-foresight costs. Two trees that print the same entries for a
phase make the same solver calls in it with the same values:

    PYTHONPATH=src python tests/helpers.py
"""

from __future__ import annotations

import collections
import hashlib
import itertools
import json
import math
import numbers

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from microgrid_ems.model import R6C2Params, State, SystemParams
from microgrid_ems.scenarios import DiscreteDistribution, ScenarioSet

# ---------------------------------------------------------------------------
# Battery-only small instance (thermal and tank disabled)

BATTERY_T = 5


def battery_params(pi_e=None, kappa: float = 1.0) -> SystemParams:
    """Battery-only system: no heater, no tank flow, zero discomfort price.
    Its horizon is one step shorter than the import prices `pi_e`, T=5 by
    default."""
    T = BATTERY_T if pi_e is None else len(pi_e) - 1
    if pi_e is None:
        # cheap early, expensive late: storage has value
        pi_e = np.array([0.10, 0.10, 0.30, 0.30, 0.30, 0.30])
    return SystemParams(
        delta=0.25, horizon_steps=T,
        rho_c=0.95, rho_d=0.95,
        b_min=0.9, b_max=3.0, f_b_max=3.0,
        h_max=1.0, f_h_max=0.0, f_t_max=0.0, beta_h=0.9,
        r6c2=R6C2Params(r_i=0.5, r_s=0.5, r_m=2.0, r_e=2.0, r_v=25.0,
                        r_f=40.0, c_i=3.3, c_m=50.0, gamma=0.1),
        theta_o=np.full(T + 1, 15.0), p_int=np.zeros(T + 1),
        p_ext=np.zeros(T + 1), pi_e=np.asarray(pi_e, dtype=float),
        pi_d=np.zeros(T + 1), theta_set=np.full(T + 1, -100.0),
        kappa=kappa, h_floor=0.0,
    )


def battery_x0() -> State:
    return State(b=1.5, h=0.0, theta_w=15.0, theta_i=15.0)


def two_point_dists(T: int = BATTERY_T, lo: float = 0.5, hi: float = 2.0):
    """Stagewise-independent two-point net-demand noise, no hot water."""
    d = DiscreteDistribution(points=np.array([[lo, 0.0], [hi, 0.0]]),
                             weights=np.array([0.5, 0.5]))
    return [d] * T


def tree_optimal_value(p: SystemParams, dists, t0: int, b0: float) -> float:
    """Exact optimum of the battery-only multistage problem from (t0, b0),
    by one LP over the full scenario tree (stagewise-independent noise).

    Nonanticipativity is structural: one control per tree node, recourse per
    child edge. Control caps are the state-dependent admissibility bounds,
    written as linear rows in the node's incoming state.
    """
    T = p.horizon_steps
    stages = T - t0
    delta, rc, rd = p.delta, p.rho_c, p.rho_d

    # enumerate nodes level by level; node = index into per-level lists
    level_sizes = []
    branching = [len(dists[t0 + k].points) for k in range(stages)]
    size = 1
    for k in range(stages):
        level_sizes.append(size)
        size *= branching[k]
    n_leaves = size

    # variable layout
    var = 0

    def alloc(count):
        nonlocal var
        start = var
        var += count
        return start

    b_idx = []       # incoming state per node, per level 0..stages (leaves last)
    for k in range(stages + 1):
        count = level_sizes[k] if k < stages else n_leaves
        b_idx.append(alloc(count))
    u_idx = []       # (fbp, fbm) per internal node
    for k in range(stages):
        u_idx.append(alloc(2 * level_sizes[k]))
    e_idx = []       # (fne, spill) per edge
    for k in range(stages):
        e_idx.append(alloc(2 * level_sizes[k] * branching[k]))
    z_idx = alloc(n_leaves)
    n = var

    # probabilities of nodes
    probs = [np.ones(1)]
    for k in range(stages):
        w = dists[t0 + k].weights
        probs.append(np.repeat(probs[-1], branching[k]) * np.tile(w, level_sizes[k]))

    c = np.zeros(n)
    rows_eq, cols_eq, vals_eq, rhs = [], [], [], []
    rows_ub, cols_ub, vals_ub, bub = [], [], [], []

    def eq(entries, b):
        r = len(rhs)
        for col, v in entries:
            rows_eq.append(r)
            cols_eq.append(col)
            vals_eq.append(v)
        rhs.append(b)

    def ub(entries, b):
        r = len(bub)
        for col, v in entries:
            rows_ub.append(r)
            cols_ub.append(col)
            vals_ub.append(v)
        bub.append(b)

    eq([(b_idx[0], 1.0)], b0)  # pin the root state

    for k in range(stages):
        t = t0 + k
        pts = dists[t].points
        br = branching[k]
        for node in range(level_sizes[k]):
            bn = b_idx[k] + node
            fbp = u_idx[k] + 2 * node
            fbm = fbp + 1
            # state-dependent admissibility caps (linear in the node state)
            ub([(fbp, delta * rc), (bn, 1.0)], p.b_max)
            ub([(fbm, delta / rd), (bn, -1.0)], -p.b_min)
            for i in range(br):
                child = node * br + i
                bc = b_idx[k + 1] + child
                fne = e_idx[k] + 2 * (node * br + i)
                spill = fne + 1
                # next state shared across children (dynamics noise-free in b)
                eq([(bc, 1.0), (bn, -1.0), (fbp, -delta * rc),
                    (fbm, delta / rd)], 0.0)
                # load balance for this realization
                eq([(fne, 1.0), (spill, -1.0), (fbp, -1.0), (fbm, 1.0)],
                   pts[i, 0])
                c[fne] = probs[k + 1][child] * p.pi_e[t] * delta
    for leaf in range(n_leaves):
        z = z_idx + leaf
        bl = b_idx[stages] + leaf
        ub([(z, -1.0), (bl, -p.kappa)], -p.kappa * battery_x0().b)
        c[z] = probs[stages][leaf]

    lower = np.full(n, 0.0)
    upper = np.full(n, np.inf)
    for k in range(stages + 1):
        count = level_sizes[k] if k < stages else n_leaves
        lower[b_idx[k]:b_idx[k] + count] = p.b_min
        upper[b_idx[k]:b_idx[k] + count] = p.b_max
    for k in range(stages):
        for node in range(level_sizes[k]):
            upper[u_idx[k] + 2 * node] = p.f_b_max
            upper[u_idx[k] + 2 * node + 1] = p.f_b_max

    a_eq = sp.csr_matrix((vals_eq, (rows_eq, cols_eq)), shape=(len(rhs), n))
    a_ub = sp.csr_matrix((vals_ub, (rows_ub, cols_ub)), shape=(len(bub), n))
    # at HiGHS's default feasibility tolerance, 1e-7, the optimum may leave
    # a net demand of that size unserved and undercut the true value
    res = linprog(c, A_ub=a_ub, b_ub=np.array(bub), A_eq=a_eq,
                  b_eq=np.array(rhs), bounds=np.column_stack([lower, upper]),
                  method="highs", options={"primal_feasibility_tolerance": 1e-10,
                                           "dual_feasibility_tolerance": 1e-10})
    assert res.status == 0, res.message
    return float(res.fun)


def tree_policy_expected_cost(policy, p: SystemParams, dists, x0: State) -> float:
    """Exact expected realized cost of a deterministic policy over the full
    scenario tree, by weighted enumeration of all leaves."""
    from microgrid_ems.model import Uncertainty, stage_cost, step, terminal_cost

    T = p.horizon_steps
    total = 0.0
    w0 = Uncertainty(0.0, 0.0)

    def recurse(t, x, prob, acc):
        nonlocal total
        if t == T:
            total += prob * (acc + terminal_cost(x, x0, p.kappa))
            return
        u = policy.decide(t, x, w0).control
        d = dists[t]
        for i in range(len(d.weights)):
            w = Uncertainty(d.points[i, 0], d.points[i, 1])
            x_next = step(t, x, u, w, p)
            recurse(t + 1, x_next, prob * d.weights[i],
                    acc + stage_cost(t, x, u, w, p))

    recurse(0, x0, 1.0, 0.0)
    return total


# ---------------------------------------------------------------------------
# Vertex-enumeration LP oracle

def random_bounded_lp(rng, n_max: int = 6):
    """A random feasible bounded LP: box + a few inequality rows, sometimes
    one equality row. Returns (c, a_eq, rhs, lower, upper, a_ub, b_ub)."""
    n = int(rng.integers(2, n_max + 1))
    lower = rng.uniform(-2.0, 0.0, n)
    upper = rng.uniform(0.5, 3.0, n)
    x_int = lower + rng.uniform(0.2, 0.8, n) * (upper - lower)
    m = int(rng.integers(0, 4))
    a_ub = rng.standard_normal((m, n))
    b_ub = a_ub @ x_int + rng.uniform(0.1, 1.0, m)
    if rng.random() < 0.4:
        a_eq = rng.standard_normal((1, n))
        rhs = a_eq @ x_int
    else:
        a_eq = np.zeros((0, n))
        rhs = np.zeros(0)
    c = rng.standard_normal(n)
    return c, a_eq, rhs, lower, upper, a_ub, b_ub


def pin_columns(c, lower, upper, a_ub, b_ub, values):
    """The LP with no equality rows whose first `values.size` columns are
    pinned (lower = upper) at `values`, as (c, a_eq, rhs, lower, upper,
    a_ub, b_ub) like `random_bounded_lp`'s."""
    lower, upper = lower.copy(), upper.copy()
    lower[:values.size] = upper[:values.size] = values
    return c, np.zeros((0, c.size)), np.zeros(0), lower, upper, a_ub, b_ub


def vertex_enumeration_optimum(c, a_eq, rhs, lower, upper, a_ub, b_ub,
                               tol: float = 1e-9) -> float:
    """Exhaustive optimum of a bounded LP: enumerate all vertices as
    intersections of n active constraints (equality rows always active)."""
    n = c.size
    # all constraints as rows of G x <= h; bounds become +-identity rows
    g_rows = [a_ub, np.eye(n), -np.eye(n)]
    h_vals = [b_ub, upper, -lower]
    g = np.vstack(g_rows)
    h = np.concatenate(h_vals)
    n_eq = rhs.size
    free = n - n_eq
    cand_idx = list(itertools.combinations(range(g.shape[0]), free))
    mats = np.empty((len(cand_idx), n, n))
    rhs_full = np.empty((len(cand_idx), n))
    for k, combo in enumerate(cand_idx):
        mats[k, :n_eq] = a_eq
        rhs_full[k, :n_eq] = rhs
        mats[k, n_eq:] = g[list(combo)]
        rhs_full[k, n_eq:] = h[list(combo)]
    dets = np.abs(np.linalg.det(mats))
    keep = dets > 1e-10
    if not np.any(keep):
        raise AssertionError("degenerate oracle instance")
    xs = np.linalg.solve(mats[keep], rhs_full[keep][..., None])[..., 0]
    feas = np.all(xs @ g.T <= h[None, :] + tol, axis=1)
    if n_eq:
        feas &= np.all(np.abs(xs @ a_eq.T - rhs[None, :]) <= tol, axis=1)
    if not np.any(feas):
        raise AssertionError("oracle found no feasible vertex")
    return float(np.min(xs[feas] @ c))


# ---------------------------------------------------------------------------
# Brute-force control-grid search for short deterministic problems

def grid_search_cost(p: SystemParams, x0: State, demands: np.ndarray,
                     n_grid: int = 9) -> float:
    """Best cost over a per-step battery-flow grid (battery-only instance)."""
    from microgrid_ems.model import (Control, Uncertainty, admissible_controls,
                                     stage_cost, step, terminal_cost)

    T = p.horizon_steps
    best = math.inf

    def recurse(t, x, acc):
        nonlocal best
        if acc >= best:
            return
        if t == T:
            best = min(best, acc + terminal_cost(x, x0, p.kappa))
            return
        box = admissible_controls(x, p)
        w = Uncertainty(demands[t, 0], demands[t, 1])
        for f_b in np.linspace(box.f_b_min, box.f_b_max, n_grid):
            u = Control(f_b=float(f_b), f_t=0.0, f_h=0.0)
            recurse(t + 1, step(t, x, u, w, p), acc + stage_cost(t, x, u, w, p))

    recurse(0, x0, 0.0)
    return best


# ---------------------------------------------------------------------------
# One-stage problem with the incoming state pinned by equality rows

def pinned_row_stage_value(p: SystemParams, t: int, x: State, dist,
                           lambdas: np.ndarray, betas: np.ndarray):
    """Optimal value of the one-stage SDDP problem at x and its gradient in x,
    read off the duals of four equality rows x = x_in."""
    lp = loop_built_stage(p, t, x, dist, lambdas, betas)
    res = linprog(lp["c"], A_ub=lp["a_ub"], b_ub=lp["b_ub"], A_eq=lp["a_eq"],
                  b_eq=lp["b_eq"], bounds=np.column_stack([lp["lower"], lp["upper"]]),
                  method="highs")
    assert res.status == 0, res.message
    return float(res.fun), np.asarray(res.eqlin.marginals[:4])


def loop_built_stage(p: SystemParams, t: int, x: State, dist,
                     lambdas: np.ndarray, betas: np.ndarray) -> dict:
    """The one-stage SDDP problem at x, one row at a time.

    Variables: x(4), u = [fb+, fb-, ft, fh], discomfort, then per scenario
    s: fne, spill, theta_s, x'_s(4). Rows: four pinning rows x = x_in, then
    per scenario a balance row and four dynamics rows; inequality rows: the
    four control-box rows, then per scenario one row per cut. Dense
    assembly; small instances only.
    """
    from microgrid_ems.model import admissible_controls, linear_dynamics

    pts = np.asarray(dist.points, dtype=float)
    wts = np.asarray(dist.weights, dtype=float)
    lambdas = np.asarray(lambdas, dtype=float).reshape(-1, 4)
    betas = np.asarray(betas, dtype=float).reshape(-1)
    S, d = len(wts), p.delta
    n = 9 + 7 * S
    blk = [9 + 7 * s for s in range(S)]
    m, nmat, pw, g = linear_dynamics(t, p)

    a_eq, b_eq = [], []
    for i in range(4):                       # pinning rows
        row = np.zeros(n)
        row[i] = 1.0
        a_eq.append(row)
        b_eq.append(x.as_array()[i])
    for s in range(S):
        row = np.zeros(n)                    # fne - spill = fb+ - fb- + ft + fh + d_el
        row[[blk[s], blk[s] + 1, 4, 5, 6, 7]] = [1, -1, -1, 1, -1, -1]
        a_eq.append(row)
        b_eq.append(pts[s, 0])
        for i in range(4):                   # x' = x + d (M x + N u + P w + g)
            row = np.zeros(n)
            row[blk[s] + 3 + i] = 1.0
            row[0:4] -= np.eye(4)[i] + d * m[i]
            row[4:8] -= d * nmat[i]
            a_eq.append(row)
            b_eq.append(d * (pw[i] @ pts[s] + g[i]))

    a_ub, b_ub = [], []

    def ub(entries, rhs):
        row = np.zeros(n)
        for col, v in entries:
            row[col] += v
        a_ub.append(row)
        b_ub.append(rhs)

    ub([(4, d * p.rho_c), (0, 1.0)], p.b_max)          # charge cap
    ub([(5, d / p.rho_d), (0, -1.0)], -p.b_min)        # discharge cap
    ub([(7, d * p.beta_h), (1, 1.0)], p.h_max)         # tank cap
    ub([(8, -1.0), (3, -1.0)], -p.theta_set[t])        # discomfort epigraph
    for s in range(S):
        for lam, beta in zip(lambdas, betas):
            ub([(blk[s] + 2, -1.0)] + [(blk[s] + 3 + i, lam[i]) for i in range(4)], -beta)

    lower = np.full(n, -np.inf)
    upper = np.full(n, np.inf)
    lower[4:9] = 0.0
    upper[4:8] = [p.f_b_max, p.f_b_max, p.f_t_max, p.f_h_max]
    c = np.zeros(n)
    c[8] = p.pi_d[t]
    fh_cap = admissible_controls(x, p).f_h_max
    for s in range(S):
        lower[blk[s]:blk[s] + 2] = 0.0
        c[blk[s]] = wts[s] * p.pi_e[t] * d
        c[blk[s] + 2] = wts[s]
        lower[blk[s] + 3], upper[blk[s] + 3] = p.b_min, p.b_max
        # tank floor, relaxed to what full-rate reheating reaches
        reach = x.h + d * (p.beta_h * fh_cap - pts[s, 1])
        lower[blk[s] + 4], upper[blk[s] + 4] = min(p.h_floor, reach), p.h_max
    return {"a_eq": np.array(a_eq), "b_eq": np.array(b_eq), "a_ub": np.array(a_ub),
            "b_ub": np.array(b_ub), "c": c, "lower": lower, "upper": upper}


# ---------------------------------------------------------------------------
# Shrinking-horizon chain at t0, assembled entry by entry

def loop_built_chain(p: SystemParams, t0: int, x_ref: State, h_floor: float,
                     x: State = None, demands: np.ndarray = None) -> dict:
    """Matrices, base right-hand sides, costs and base bounds of the compact
    MPC chain over steps t0..T-1, one coefficient at a time. Given a state x
    and forecast demands (ns, 2), also the rhs and bounds of the solve at x.

    Variables: per step k of ns = T - t0: [fb+, fb-, ft, fh, fne, spill];
    then the states x_{t0+k}, k = 1..ns: (b, h, dcomf, s), where the indoor
    temperature is theta_set - dcomf + s, and x_T only (b, h); then the
    terminal shortfalls zb, zh. Rows: per step a balance row (demand in the
    rhs), a battery and a tank row, and an indoor row that eliminates the
    wall temperature between two steps (none for the last step); then the
    two terminal penalty rows. At the first step the indoor row is first
    order, with x_{t0} in the rhs; at the second, theta_i at t0 is the
    state's and enters the rhs.
    """
    from microgrid_ems.model import linear_dynamics

    T = p.horizon_steps
    ns = T - t0
    n = 10 * ns
    d = p.delta

    def u(k, j):
        return 6 * k + j

    def xc(k, i):
        return 6 * ns + 4 * (k - 1) + i

    m, nmat, _, _ = linear_dynamics(t0, p)
    a_ww, a_wi = 1.0 + d * m[2, 2], 0.0 + d * m[2, 3]
    a_iw, a_ii = 0.0 + d * m[3, 2], 1.0 + d * m[3, 3]
    b_w, b_i = d * nmat[2, 2], d * nmat[3, 2]
    trace, det = a_ww + a_ii, a_ww * a_ii - a_wi * a_iw
    c_w = [d * linear_dynamics(t, p)[3][2] for t in range(T)]
    c_i = [d * linear_dynamics(t, p)[3][3] for t in range(T)]
    theta_set = p.theta_set

    def theta_i(k):
        """The columns and coefficients of theta_i at step t0 + k, k >= 1,
        and its constant theta_set."""
        return [(xc(k, 2), -1.0), (xc(k, 3), 1.0)], theta_set[t0 + k]

    entries, b_eq, row = [], [], 0
    for k in range(ns):
        t = t0 + k
        for j, coef in ((0, -1.0), (1, 1.0), (2, -1.0), (3, -1.0), (4, 1.0), (5, -1.0)):
            entries.append((row, u(k, j), coef))
        b_eq.append(0.0)
        row += 1
        for i in (0, 1):  # battery, tank
            entries.append((row, xc(k + 1, i), 1.0))
            if k > 0:
                entries.append((row, xc(k, i), -1.0))
            for j in range(4):
                if nmat[i, j] != 0.0:
                    entries.append((row, u(k, j), -d * nmat[i, j]))
            b_eq.append(0.0)
            row += 1
        if t == T - 1:
            break
        # indoor: theta_i,t+1 - trace theta_i,t + det theta_i,t-1 - b_i ft_t
        # - (a_iw b_w - a_ww b_i) ft_t-1 = c_i,t - a_ww c_i,t-1 + a_iw c_w,t-1
        cols, const = theta_i(k + 1)
        entries += [(row, col, v) for col, v in cols]
        entries.append((row, u(k, 2), -b_i))
        if k == 0:
            rhs = c_i[t] - const
        else:
            entries.append((row, u(k - 1, 2), -(a_iw * b_w - a_ww * b_i)))
            cols, now = theta_i(k)
            entries += [(row, col, -trace * v) for col, v in cols]
            rhs = c_i[t] - a_ww * c_i[t - 1] + a_iw * c_w[t - 1] - const + trace * now
            if k > 1:
                cols, before = theta_i(k - 1)
                entries += [(row, col, det * v) for col, v in cols]
                rhs = rhs - det * before
        b_eq.append(rhs)
        row += 1
    rows, cols, vals = zip(*entries)
    a_eq = sp.csr_matrix((vals, (rows, cols)), shape=(row, n))
    a_ub = sp.csr_matrix(([-1.0, -p.kappa, -1.0, -p.kappa],
                          ([0, 0, 1, 1], [n - 2, xc(ns, 0), n - 1, xc(ns, 1)])), shape=(2, n))
    b_ub = np.array([-p.kappa * x_ref.b, -p.kappa * x_ref.h])

    lower = np.zeros(n)
    upper = np.full(n, np.inf)
    c = np.zeros(n)
    for k in range(ns):
        for j, cap in enumerate((p.f_b_max, p.f_b_max, p.f_t_max, p.f_h_max)):
            upper[u(k, j)] = cap
        c[u(k, 4)] = p.pi_e[t0 + k] * d
    for k in range(1, ns + 1):
        lower[xc(k, 0)], upper[xc(k, 0)] = p.b_min, p.b_max
        lower[xc(k, 1)], upper[xc(k, 1)] = h_floor, p.h_max
        if k < ns:
            c[xc(k, 2)] = p.pi_d[t0 + k]
    c[n - 2] = c[n - 1] = 1.0
    b_eq = np.array(b_eq)
    out = {"a_eq": a_eq, "a_ub": a_ub, "b_eq": b_eq, "b_ub": b_ub,
           "c": c, "lower": lower, "upper": upper}
    if x is None:
        return out

    from microgrid_ems.model import admissible_controls

    rhs = b_eq.copy()
    for k in range(ns):
        rhs[4 * k] = demands[k, 0]
        rhs[4 * k + 2] = -d * demands[k, 1]
    rhs[1] = x.b
    rhs[2] = x.h + -d * demands[0, 1]
    if ns > 1:
        rhs[3] = a_iw * x.theta_w + a_ii * x.theta_i + rhs[3]
    if ns > 2:
        rhs[7] = rhs[7] - det * x.theta_i
    lower, upper = lower.copy(), upper.copy()
    box = admissible_controls(x, p)
    upper[u(0, 0)], upper[u(0, 1)], upper[u(0, 3)] = box.f_b_max, -box.f_b_min, box.f_h_max
    # planned tank levels: the floor, relaxed to what full-rate reheating reaches
    reach = x.h + d * (p.beta_h * box.f_h_max - demands[0, 1])
    lower[xc(1, 1)] = min(h_floor, reach)
    for k in range(2, ns + 1):
        reach = min(p.h_max, reach + d * (p.beta_h * p.f_h_max - demands[k - 1, 1]))
        lower[xc(k, 1)] = min(h_floor, reach)
    out.update(rhs=rhs, lower_at_x=lower, upper_at_x=upper)
    return out


def full_state_chain(p: SystemParams, t0: int, x_ref: State, h_floor: float,
                     x: State = None, demands: np.ndarray = None) -> dict:
    """The MPC chain over steps t0..T-1 with the full state, one coefficient
    at a time: the value oracle of the package's compact chain, whose
    optimum (plus the first step's discomfort) it must have. Matrices, base
    right-hand sides, costs and base bounds; given a state x and forecast
    demands (ns, 2), also the rhs and bounds of the solve at x.

    Variables: per step k of ns = T - t0: [fb+, fb-, ft, fh, fne, spill,
    discomfort]; then the states x_{t0+k}, k = 1..ns (4 each); then the
    terminal shortfalls zb, zh. Rows: per step a balance row (demand in the
    rhs) and four dynamics rows (x_{t0} in the rhs); then a discomfort
    epigraph per step k >= 1 and the two terminal penalty rows.
    """
    from microgrid_ems.model import linear_dynamics

    ns = p.horizon_steps - t0
    n = 11 * ns + 2

    def u(k, j):
        return 7 * k + j

    def xc(k, i):
        return 7 * ns + 4 * (k - 1) + i

    rows, cols, vals = [], [], []
    b_eq = np.zeros(5 * ns)
    for k in range(ns):
        m, nmat, _, g = linear_dynamics(t0 + k, p)
        for j, coef in ((4, 1.0), (5, -1.0), (0, -1.0), (1, 1.0), (2, -1.0), (3, -1.0)):
            rows.append(5 * k)
            cols.append(u(k, j))
            vals.append(coef)
        phi = np.eye(4) + p.delta * m
        for i in range(4):
            r = 5 * k + 1 + i
            rows.append(r)
            cols.append(xc(k + 1, i))
            vals.append(1.0)
            for j in range(4):
                if k > 0 and phi[i, j] != 0.0:
                    rows.append(r)
                    cols.append(xc(k, j))
                    vals.append(-phi[i, j])
                if nmat[i, j] != 0.0:
                    rows.append(r)
                    cols.append(u(k, j))
                    vals.append(-p.delta * nmat[i, j])
            b_eq[r] = p.delta * g[i]
    a_eq = sp.csr_matrix((vals, (rows, cols)), shape=(5 * ns, n))

    rows, cols, vals, b_ub = [], [], [], []
    for k in range(1, ns):
        rows += [k - 1, k - 1]
        cols += [u(k, 6), xc(k, 3)]
        vals += [-1.0, -1.0]
        b_ub.append(-p.theta_set[t0 + k])
    r = ns - 1
    rows += [r, r, r + 1, r + 1]
    cols += [n - 2, xc(ns, 0), n - 1, xc(ns, 1)]
    vals += [-1.0, -p.kappa, -1.0, -p.kappa]
    b_ub += [-p.kappa * x_ref.b, -p.kappa * x_ref.h]
    a_ub = sp.csr_matrix((vals, (rows, cols)), shape=(ns + 1, n))

    lower = np.zeros(n)
    upper = np.full(n, np.inf)
    c = np.zeros(n)
    for k in range(ns):
        for j, cap in enumerate((p.f_b_max, p.f_b_max, p.f_t_max, p.f_h_max)):
            upper[u(k, j)] = cap
        c[u(k, 4)] = p.pi_e[t0 + k] * p.delta
        c[u(k, 6)] = p.pi_d[t0 + k]
    for k in range(1, ns + 1):
        lower[xc(k, 0)], upper[xc(k, 0)] = p.b_min, p.b_max
        lower[xc(k, 1)], upper[xc(k, 1)] = h_floor, p.h_max
        lower[xc(k, 2)] = lower[xc(k, 3)] = -np.inf
    c[n - 2] = c[n - 1] = 1.0
    out = {"a_eq": a_eq, "a_ub": a_ub, "b_eq": b_eq, "b_ub": np.array(b_ub),
           "c": c, "lower": lower, "upper": upper}
    if x is None:
        return out

    from microgrid_ems.model import admissible_controls, linear_dynamics

    rhs = b_eq.copy()
    for k in range(ns):
        rhs[5 * k] = demands[k, 0]
        rhs[5 * k + 2] += -p.delta * demands[k, 1]
    rhs[1:5] += (np.eye(4) + p.delta * linear_dynamics(t0, p)[0]) @ x.as_array()
    lower, upper = lower.copy(), upper.copy()
    box = admissible_controls(x, p)
    upper[u(0, 0)], upper[u(0, 1)], upper[u(0, 3)] = box.f_b_max, -box.f_b_min, box.f_h_max
    lower[u(0, 6)] = max(0.0, p.theta_set[t0] - x.theta_i)
    # planned tank levels: the floor, relaxed to what full-rate reheating reaches
    reach = x.h + p.delta * (p.beta_h * box.f_h_max - demands[0, 1])
    lower[xc(1, 1)] = min(h_floor, reach)
    for k in range(2, ns + 1):
        reach = min(p.h_max, reach + p.delta * (p.beta_h * p.f_h_max - demands[k - 1, 1]))
        lower[xc(k, 1)] = min(h_floor, reach)
    out.update(rhs=rhs, lower_at_x=lower, upper_at_x=upper)
    return out


def full_state_chain_value(p: SystemParams, t0: int, x_ref: State, h_floor: float,
                           x: State, demands: np.ndarray) -> float:
    """The optimum of `full_state_chain` at state x and forecast demands,
    solved from scratch by `linprog`."""
    lp = full_state_chain(p, t0, x_ref, h_floor, x, demands)
    res = linprog(lp["c"], A_ub=lp["a_ub"], b_ub=lp["b_ub"], A_eq=lp["a_eq"], b_eq=lp["rhs"],
                  bounds=np.column_stack([lp["lower_at_x"], lp["upper_at_x"]]), method="highs")
    assert res.status == 0, res.message
    return res.fun


def strided_day_config(day: str, stride: int) -> dict:
    """The bundled day config keeping every stride-th step of the day, with
    the tank floor raised to cover one longer step's capped draw."""
    from microgrid_ems.config import day_config

    doc = day_config(day)
    system = doc["system"]
    if stride > 1:
        system["horizon_steps"] //= stride
        system["delta"] *= stride
        for name in ("theta_o", "p_int", "p_ext", "pi_e", "pi_d", "theta_set"):
            system[name] = system[name][::stride]
        cap = doc.get("generator", {}).get("d_hw_cap", 2.6)
        system["h_floor"] = max(system.get("h_floor", 0.0), system["delta"] * cap)
    return doc


def chain_labels(p: SystemParams, t0: int):
    """What each column and row of the chain at t0 stands for, in the layout
    of `loop_built_chain`, named by absolute step so that the chains at
    t0 - 1 and t0 can be lined up."""
    T = p.horizon_steps
    cols = ([("u", t, j) for t in range(t0, T) for j in range(6)]
            + [("x", t, i) for t in range(t0 + 1, T + 1) for i in range(4 if t < T else 2)]
            + [("zb",), ("zh",)])
    rows = ([("eq", t, i) for t in range(t0, T) for i in range(4 if t < T - 1 else 3)]
            + [("terminal", "b"), ("terminal", "h")])
    return cols, rows


# ---------------------------------------------------------------------------
# Scenario generation, one scenario at a time
#
# Each scenario's draws come in a fixed order and its two AR(1) noise paths
# are run step by step before the next scenario is drawn. The package draws
# the same way and runs the paths for all scenarios at once; the pools must
# be equal.


def loop_generated_scenarios(cfg, n: int, seed: int) -> np.ndarray:
    """The (n, T + 1, 2) pool of `generate_scenarios`, drawn scenario by
    scenario."""
    rng = np.random.default_rng(seed)
    steps = cfg.horizon_steps + 1
    h = (np.arange(steps) * cfg.delta) % 24.0
    span = cfg.sunset_h - cfg.sunrise_h
    pv_shape = np.where((h >= cfg.sunrise_h) & (h <= cfg.sunset_h),
                        np.sin(np.pi * (h - cfg.sunrise_h) / span) ** 2, 0.0) / (span / 2.0)
    bumps = [amp * np.exp(-0.5 * ((h - center) / width) ** 2)
             for (center, width), amp in zip(((8.0, 1.2), (12.5, 1.0), (20.0, 1.2)),
                                             (cfg.morning_kw, cfg.midday_kw, cfg.evening_kw))]

    def ar_noise(rho, sigma):
        e = np.empty(steps)
        z = rng.standard_normal(steps)
        e[0] = z[0] * sigma / math.sqrt(max(1e-12, 1.0 - rho * rho))
        for t in range(1, steps):
            e[t] = rho * e[t - 1] + sigma * z[t]
        return np.exp(e)

    data = np.zeros((n, steps, 2))
    for s in range(n):
        mult = np.exp(cfg.el_noise_rel * rng.standard_normal(3))
        d_el = np.full(steps, cfg.night_kw)
        for profile, m in zip(bumps, mult):
            d_el = d_el + m * profile
        d_el *= ar_noise(cfg.el_ar_rho, cfg.el_ar_sigma)
        cloud = float(np.clip(np.exp(cfg.pv_noise_rel * rng.standard_normal()), 0.2, 1.5))
        pv = cfg.pv_daily_kwh * cloud * pv_shape
        pv = pv * ar_noise(cfg.el_ar_rho, cfg.el_ar_sigma / 2.0)
        d_hw = np.zeros(steps)
        for window in (cfg.hw_morning_window, cfg.hw_evening_window):
            for _ in range(rng.poisson(cfg.hw_events_per_window)):
                start = int(rng.uniform(window[0], window[1]) / cfg.delta)
                duration = int(rng.integers(1, 4))
                d_hw[start:start + duration] += rng.uniform(cfg.hw_kw_lo, cfg.hw_kw_hi)
        data[s, :, 0] = d_el - pv
        data[s, :, 1] = np.minimum(d_hw, cfg.d_hw_cap)
    return data


# ---------------------------------------------------------------------------
# Lloyd-Max quantization, one cloud at a time
#
# A plain per-stage loop: k-means++ seeding through `rng.choice`, one
# partition/centroid round per Python iteration, cell means taken cell by
# cell. The package runs all stages as one batch and must agree exactly.


def reference_kmeanspp(points, s, rng):
    n = points.shape[0]
    centroids = np.empty((s, points.shape[1]))
    centroids[0] = points[rng.integers(n)]
    d2 = np.sum((points - centroids[0]) ** 2, axis=1)
    for k in range(1, s):
        total = d2.sum()
        if total <= 0:
            centroids[k] = points[rng.integers(n)]
            continue
        idx = rng.choice(n, p=d2 / total)
        centroids[k] = points[idx]
        d2 = np.minimum(d2, np.sum((points - centroids[k]) ** 2, axis=1))
    return centroids


def reference_lloyd_rounds(points, centroids, tol, max_iter):
    """Rounds from the given seeds; returns (centroids, counts, distortions)."""
    n, s = points.shape[0], centroids.shape[0]
    distortions = []
    assign = None
    for _ in range(max_iter):
        dists = np.sum((points[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
        assign = np.argmin(dists, axis=1)
        for k in range(s):
            if not np.any(assign == k):
                far = int(np.argmax(dists[np.arange(n), assign]))
                assign[far] = k
                dists[far, :] = -np.inf
        new_centroids = np.vstack([points[assign == k].mean(axis=0) for k in range(s)])
        d = float(np.sum((points - new_centroids[assign]) ** 2))
        centroids = new_centroids
        if distortions and distortions[-1] - d <= tol * max(distortions[-1], 1e-300):
            distortions.append(d)
            break
        distortions.append(d)
    return centroids, np.bincount(assign, minlength=s), distortions


def reference_law(points, weights):
    """Sort the centroids lexicographically and merge identical ones."""
    order = np.lexsort((points[:, 1], points[:, 0]))
    keep_p, keep_w = [], []
    for p, w in zip(points[order], weights[order]):
        if keep_p and np.array_equal(p, keep_p[-1]):
            keep_w[-1] += w
        else:
            keep_p.append(p)
            keep_w.append(w)
    w = np.array(keep_w)
    return np.array(keep_p), w / w.sum()


def reference_lloyd_max(points, s, tol=1e-6, max_iter=200, seed=None):
    """Returns (points, weights, collapsed, distortions) of one cloud's law."""
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    distinct = np.unique(points, axis=0)
    collapsed = distinct.shape[0] < s
    if distinct.shape[0] <= s:
        dists = np.sum((points[:, None, :] - distinct[None, :, :]) ** 2, axis=2)
        counts = np.bincount(np.argmin(dists, axis=1), minlength=distinct.shape[0])
        return (*reference_law(distinct, counts / n), collapsed, [0.0])
    rng = np.random.default_rng(seed)
    centroids, counts, distortions = reference_lloyd_rounds(
        points, reference_kmeanspp(points, s, rng), tol, max_iter)
    return (*reference_law(centroids, counts / n), False, distortions)


def reference_quantize_stagewise(opt: ScenarioSet, s, seed, tol=1e-6, max_iter=200):
    """Per-stage loop over t = 1..T; stage t seeds from the t-th spawned child."""
    seeds = np.random.SeedSequence(seed).spawn(opt.horizon)
    return [reference_lloyd_max(opt.data[:, t, :], min(s, opt.n), tol, max_iter,
                                seeds[t - 1])
            for t in range(1, opt.horizon + 1)]


# ---------------------------------------------------------------------------
# Kept-basis answers, by the arithmetic PersistentLp first used for them

def concatenated_limits(persistent):
    """The column bounds of `persistent`, lower then upper with its pinned
    columns as 0, and the limits of every column and row logical: those
    bounds, then the logicals' [-row_upper, -row_lower], each widened by
    BASIS_PRIMAL_TOL, as one (2, columns + rows) array."""
    from microgrid_ems.lp import BASIS_PRIMAL_TOL as tol

    n, pinned = persistent._cost.size, persistent._pinned
    bounds = np.concatenate((persistent._lower, persistent._upper))
    bounds[pinned] = bounds[n + pinned] = 0.0
    n_ub = persistent._b_ub.size
    logicals = np.stack((np.concatenate([-persistent._rhs, -persistent._b_ub]) - tol,
                         np.concatenate([-persistent._rhs, np.full(n_ub, np.inf)]) + tol))
    widen = np.array([[-tol], [tol]])
    return bounds, np.concatenate((bounds.reshape(2, n) + widen, logicals), axis=1)


def table_answer(persistent, table):
    """The first of the kept bases `table`, in order, optimal at the bounds
    `persistent` holds, with its vertex, objective and reduced costs; None
    when none is. Each entry is checked against the concatenated limits
    gathered by its basic set."""
    n, pinned = persistent._cost.size, persistent._pinned
    limits = concatenated_limits(persistent)[1]
    x_pin = persistent._lower[pinned]
    for entry in table:
        values = entry.vb0 - entry.factor @ (x_pin - entry.x_pin)
        at = limits[:, entry.ext]
        if ((at[0] <= values) & (values <= at[1])).all():
            n_cols = int(np.searchsorted(entry.ext, n))
            x = entry.x.copy()
            x[pinned] = x_pin
            x[entry.ext[:n_cols]] = values[:n_cols]
            return entry, x, float(persistent._cost @ x), entry.col_dual
    return None


def held_answer(persistent, held):
    """The vertex, objective and reduced costs of `held`, the basis of the
    last run, which HiGHS still holds, when it is optimal at the bounds
    `persistent` holds; None when it is not. Its basic values come from the
    run's solution, which HiGHS holds too, and one basis solve, and are
    checked against the concatenated limits gathered by its basic set."""
    solver, n, pinned = persistent._solver, persistent._cost.size, persistent._pinned
    status, basic = solver.getBasicVariables()
    if status != persistent._core.HighsStatus.kOk:
        return None
    ext = np.where(basic >= 0, basic, n - 1 - basic)
    vb0 = np.concatenate((held.x, np.negative(solver.getSolution().row_value)))[ext]
    _, start, index, value = solver.getColsEntries(pinned.size, pinned.astype(np.int32))
    column = np.repeat(np.arange(pinned.size), np.diff(np.append(start, index.size)))
    x_pin = persistent._lower[pinned]
    a_dx = np.bincount(index, weights=value * (x_pin - held.x_pin)[column],
                       minlength=basic.size)
    values = vb0 - solver.getBasisSolve(a_dx)[1]
    at = concatenated_limits(persistent)[1][:, ext]
    if not ((at[0] <= values) & (values <= at[1])).all() or (basic[:, None] == pinned).any():
        return None
    cols = ext < n
    x = held.x.copy()
    x[pinned] = x_pin
    x[ext[cols]] = values[cols]
    return x, float(persistent._cost @ x), held.col_dual


# ---------------------------------------------------------------------------
# The simulated step and the heuristic, through the model's dataclasses
#
# The package plays a step in floats; these loops build a `ControlBox` for
# every admissible box, the rate as an array and the next state through an
# array, and write the rate, the recourse and the stage cost out again
# (checking `recourse` and `stage_cost` against them). The two must agree
# bit for bit.


def reference_step(t, x, u, w_next, p: SystemParams) -> State:
    """`model.step`: the control checked against `admissible_controls`,
    then x + delta * rate with the rate and the state as arrays."""
    from microgrid_ems.model import ConstraintViolationError, ModelError, admissible_controls

    box = admissible_controls(x, p)
    tol = 1e-7
    if u.f_b > box.f_b_max + tol:
        raise ConstraintViolationError("f_b upper bound", u.f_b, box.f_b_max)
    if u.f_b < box.f_b_min - tol:
        raise ConstraintViolationError("f_b lower bound", u.f_b, box.f_b_min)
    if not 0.0 - tol <= u.f_t <= box.f_t_max + tol:
        raise ConstraintViolationError("f_t bound", u.f_t, box.f_t_max)
    if not 0.0 - tol <= u.f_h <= box.f_h_max + tol:
        raise ConstraintViolationError("f_h bound", u.f_h, box.f_h_max)
    if not 0 <= t < p.horizon_steps:
        raise ModelError(f"t_index {t} outside [0, {p.horizon_steps})")
    for v in (u.f_b, u.f_t, u.f_h, w_next.d_el_net, w_next.d_hw):
        if not math.isfinite(v):
            raise ModelError(f"non-finite input {v!r}")
    pos, neg = max(0.0, u.f_b), max(0.0, -u.f_b)
    r = p.r6c2
    g_iw = 1.0 / (r.r_i + r.r_s)
    g_ow = 1.0 / (r.r_m + r.r_e)
    theta_o, p_int, p_ext = p.theta_o[t], p.p_int[t], p.p_ext[t]
    rate = np.array([
        p.rho_c * pos - neg / p.rho_d,
        p.beta_h * u.f_h - w_next.d_hw,
        (g_iw * (x.theta_i - x.theta_w) + g_ow * (theta_o - x.theta_w) + r.gamma * u.f_t
         + r.r_i * g_iw * p_int + r.r_e * g_ow * p_ext) / r.c_m,
        (g_iw * (x.theta_w - x.theta_i) + (theta_o - x.theta_i) / r.r_v
         + (theta_o - x.theta_i) / r.r_f + (1.0 - r.gamma) * u.f_t
         + r.r_s * g_iw * p_int) / r.c_i,
    ])
    return State.from_array(x.as_array() + p.delta * rate)


def reference_simulate(policy, scenario, x0: State, p: SystemParams):
    """`assess.simulate_policy(policy, scenario, x0, p, record=True)` as a
    loop over the model's dataclasses; returns the bill, the (T + 1, 4)
    trajectory and the (T,) grid imports."""
    from microgrid_ems.model import Recourse, Uncertainty, recourse, stage_cost, terminal_cost

    scenario = np.asarray(scenario, dtype=float)
    T = p.horizon_steps
    if hasattr(policy, "reset"):
        policy.reset()
    x, total = x0, 0.0
    traj, imports = np.zeros((T + 1, 4)), np.zeros(T)
    traj[0] = x.as_array()
    for t in range(T):
        u = policy.decide(t, x, Uncertainty(scenario[t, 0], scenario[t, 1])).control
        w_next = Uncertainty(scenario[t + 1, 0], scenario[t + 1, 1])
        net = u.f_b + u.f_t + u.f_h + w_next.d_el_net
        rec = Recourse(f_ne=max(0.0, net), spill=max(0.0, -net))
        assert recourse(u, w_next) == rec, t
        residual = rec.f_ne - rec.spill - u.f_b - u.f_t - u.f_h - w_next.d_el_net
        assert abs(residual) <= 1e-12, (t, residual)
        cost = (p.pi_e[t] * p.delta * rec.f_ne
                + p.pi_d[t] * max(0.0, p.theta_set[t] - x.theta_i))
        assert stage_cost(t, x, u, w_next, p) == cost, t
        total += cost
        x = reference_step(t, x, u, w_next, p)
        p.check_state(x)
        traj[t + 1] = x.as_array()
        imports[t] = rec.f_ne
    return total + terminal_cost(x, x0, p.kappa), traj, imports


class ReferenceHeuristic:
    """`policies.HeuristicPolicy`, its control clipped to the box of
    `admissible_controls`."""

    name = "heuristic"

    def __init__(self, p: SystemParams, x0: State, margin_deg_c: float = 1.0):
        self.p, self.h0, self.margin = p, x0.h, margin_deg_c
        self._heater_on = False

    def reset(self):
        self._heater_on = False

    def decide(self, t, x, w_obs):
        from microgrid_ems.model import Control, admissible_controls
        from microgrid_ems.policies import PolicyDecision

        box = admissible_controls(x, self.p)
        net = w_obs.d_el_net
        f_b = min(-net, box.f_b_max) if net < 0.0 else -min(net, -box.f_b_min)
        f_h = box.f_h_max if x.h < self.h0 else 0.0
        setpoint = self.p.theta_set[t]
        if x.theta_i < setpoint:
            self._heater_on = True
        elif x.theta_i > setpoint + self.margin:
            self._heater_on = False
        f_t = box.f_t_max if self._heater_on else 0.0
        return PolicyDecision(control=box.clip(Control(f_b=f_b, f_t=f_t, f_h=f_h)),
                              predicted_cost=math.nan)


# ---------------------------------------------------------------------------
# Basis seeding: what a new persistent LP hands to HiGHS

# base-4 digits that spell the index of any column or row of the LPs tested
INDEX_DIGITS = 6


class IndexBasis:
    """Stands in for a solved LP. Status codes take four values, so its
    basis spells each column's and each row's own index in base 4, one
    digit per stand-in; the seeds built from `INDEX_DIGITS` of them show
    which entries they kept, and in which order."""

    def __init__(self, n_cols, n_rows, digit=0):
        self.index = (np.arange(n_cols), np.arange(n_rows))
        self.digit = digit

    def basis(self):
        return tuple((i >> 2 * self.digit & 3).astype(np.int8) for i in self.index)


def seeded_indices(seeds):
    """The index each column and row was seeded from, read from the seeds
    built from the digits 0, 1, ... of an `IndexBasis`."""
    cols = sum(4 ** d * np.array(c) for d, (c, _) in enumerate(seeds))
    rows = sum(4 ** d * np.array(r) for d, (_, r) in enumerate(seeds))
    return cols, rows


class RecordingCore:
    """Stands in for the bundled HiGHS bindings. Its solvers record each
    basis they are handed, as lists of status codes in `seeds`, instead of
    starting from it."""

    def __init__(self, core):
        self._core = core
        self.seeds = []

    def __getattr__(self, name):
        return getattr(self._core, name)

    def _Highs(self):
        return _RecordingHighs(self._core._Highs(), self.seeds)


class _RecordingHighs:
    def __init__(self, highs, seeds):
        self._highs = highs
        self._seeds = seeds

    def __getattr__(self, name):
        return getattr(self._highs, name)

    def setBasis(self, basis):
        self._seeds.append(([int(s) for s in basis.col_status],
                            [int(s) for s in basis.row_status]))


class CountingCore:
    """Stands in for the bundled HiGHS bindings. Its solvers count every
    method call in `calls`, by method name. Each call is also counted, and
    folded with its method and its arguments into a SHA-256 digest in call
    order, under the phase named by `phase` when the call is made (in
    `phase_calls` and `digests`): two runs that make the same calls with the
    same values in a phase have the same digest for it."""

    def __init__(self, core):
        self._core = core
        self.calls = collections.Counter()
        self.phase = None
        self.phase_calls = collections.defaultdict(collections.Counter)
        self.digests = collections.defaultdict(hashlib.sha256)

    @property
    def runs(self) -> int:
        return self.calls["run"]

    def __getattr__(self, name):
        return getattr(self._core, name)

    def _Highs(self):
        return _CountingHighs(self._core._Highs(), self)

    def record(self, name, args):
        self.calls[name] += 1
        self.phase_calls[self.phase][name] += 1
        self.digests[self.phase].update(b"|".join([name.encode(), *map(call_bytes, args)])
                                        + b"\n")


def call_bytes(arg) -> bytes:
    """An argument of a HiGHS call as bytes, by value: integers as int64
    and reals as float64, scalar or array alike, a basis by its status
    codes, anything else by its repr."""
    if isinstance(arg, (bool, str)) or arg is None:
        return repr(arg).encode()
    if isinstance(arg, numbers.Integral):
        return b"i" + np.int64(arg).tobytes()
    if isinstance(arg, numbers.Real):
        return b"f" + np.float64(arg).tobytes()
    if isinstance(arg, (np.ndarray, list, tuple)):
        values = np.asarray(arg)
        values = values.astype(np.int64 if values.dtype.kind in "iu" else np.float64)
        return values.dtype.str.encode() + repr(values.shape).encode() + values.tobytes()
    if hasattr(arg, "col_status"):  # a HighsBasis
        return b"|".join((call_bytes([int(s) for s in arg.col_status]),
                          call_bytes([int(s) for s in arg.row_status]), repr(arg.alien).encode()))
    return repr(arg).encode()


class _CountingHighs:
    def __init__(self, highs, counter):
        self._highs = highs
        self._counter = counter

    def __getattr__(self, name):
        method, counter = getattr(self._highs, name), self._counter

        def call(*args):
            counter.record(name, args)
            return method(*args)
        return call


SCRIPTED_PHASES = ("training", "mpc", "sddp", "heuristic", "perfect_foresight")


def scripted_run() -> dict:
    """A fixed training and play under `CountingCore`: summer trained for 10
    iterations (pool 44, generator seed 5, split seed 42, S from the config,
    quantize seed 3, training seed 1), then 12 held-out days played by MPC,
    SDDP and the heuristic in turn, MPC first each day, and after them the
    day's perfect-foresight cost.

    Returns, per phase of `SCRIPTED_PHASES`, the calls per method (`calls`)
    and the SHA-256 digest of its HiGHS calls (`digests`); then the final
    `lower_bound`, the `bills` of each policy and the `perfect_foresight`
    costs. Two trees that make the same calls with the same values in a
    phase give the same for it."""
    from microgrid_ems import lp as lpmod
    from microgrid_ems.assess import simulate_policy, split_scenarios
    from microgrid_ems.config import day_config, parse_config
    from microgrid_ems.policies import (HeuristicPolicy, MpcPolicy, SddpPolicy, StoppingRule,
                                        perfect_foresight_cost, sddp_train)
    from microgrid_ems.scenarios import (fit_ar, generate_scenarios, quantize_stagewise,
                                         scenario_means)

    core = CountingCore(lpmod._highs_core)
    lpmod._highs_core = core
    try:
        cfg = parse_config(day_config("summer"))
        p, x0 = cfg.system, cfg.initial_state
        opt, sim = split_scenarios(generate_scenarios(cfg.generator, 44, 5), 32, 42)
        dists = quantize_stagewise(opt, s=cfg.sddp_s_offline, seed=3)
        core.phase = "training"
        vf, log = sddp_train(p, dists, x0, StoppingRule(max_iters=10, lb_tol=0.0), seed=1)
        core.phase = None
        policies = {"mpc": MpcPolicy(p, x0, fit_ar(opt), scenario_means(opt)),
                    "sddp": SddpPolicy(p, vf, dists),
                    "heuristic": HeuristicPolicy(p, x0, cfg.heuristic_margin)}
        bills = {name: [] for name in policies}
        foresight = []
        for day in sim.data:
            for name, policy in policies.items():
                core.phase = name
                bills[name].append(simulate_policy(policy, day, x0, p).total_cost)
            core.phase = "perfect_foresight"
            foresight.append(perfect_foresight_cost(p, x0, day))
    finally:
        lpmod._highs_core = core._core
    return {"calls": {phase: dict(sorted(core.phase_calls[phase].items()))
                      for phase in SCRIPTED_PHASES},
            "digests": {phase: core.digests[phase].hexdigest() for phase in SCRIPTED_PHASES},
            "lower_bound": log.lower_bounds[-1], "bills": bills,
            "perfect_foresight": foresight}


if __name__ == "__main__":
    print(json.dumps(scripted_run()))
