"""Out-of-sample assessment harness.

Runs policies over assessment scenarios, records bills and trajectories,
and computes the comparison statistics (means, 95% confidence intervals,
pairwise SDDP-MPC gaps and the scenario-wise win fraction) and each
policy's decision latency (mean, p50 and p99).
"""

from __future__ import annotations

import csv
import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from .model import (
    State,
    SystemParams,
    Uncertainty,
    _recourse,
    _stage_cost,
    step,
    terminal_cost,
)
from .scenarios import ROLE_ASSESSMENT, ROLE_OPTIMIZATION, ScenarioSet

__all__ = [
    "SimulationResult",
    "AssessmentReport",
    "simulate_policy",
    "run_assessment",
    "split_scenarios",
]

_BALANCE_TOL = 1e-12


@dataclass
class SimulationResult:
    total_cost: float
    trajectory: Optional[np.ndarray] = None   # (T+1, 4) states
    imports: Optional[np.ndarray] = None      # (T,) grid import per step
    decision_seconds: Optional[np.ndarray] = None  # (T,) wall time of each decision


def simulate_policy(policy, scenario: np.ndarray, x0: State, p: SystemParams,
                    record: bool = False) -> SimulationResult:
    """Roll one scenario under a policy, enforcing the physical invariants.

    Raises if the policy emits an inadmissible control (policy bug) or the
    load balance identity breaks. The loop checks each state, control and
    draw once, through `step`: the state's bounds and finiteness, the
    control against its admissible box, the finiteness of the control and
    the draw. The final state, which no step takes, is checked at the end.
    """
    scenario = np.asarray(scenario, dtype=float)
    T = p.horizon_steps
    if scenario.shape != (T + 1, 2):
        raise ValueError(f"scenario must have shape ({T + 1}, 2), got {scenario.shape}")
    if hasattr(policy, "reset"):
        policy.reset()
    # the draw realized over step t is the one observed at step t + 1
    draws = [Uncertainty(d_el, d_hw) for d_el, d_hw in scenario.tolist()]
    x = x0
    total = 0.0
    elapsed = [0.0] * T
    states, imports = [x0], []
    clock, decide = time.perf_counter, policy.decide
    for t in range(T):
        w_next = draws[t + 1]
        tic = clock()
        decision = decide(t, x, draws[t])
        elapsed[t] = clock() - tic
        u = decision.control
        x_next = step(t, x, u, w_next, p)
        f_ne, spill = _recourse(u, w_next)
        residual = f_ne - spill - u.f_b - u.f_t - u.f_h - w_next.d_el_net
        if abs(residual) > _BALANCE_TOL:
            raise RuntimeError(f"load balance violated at t={t}: residual {residual}")
        total += _stage_cost(t, x, f_ne, p)
        x = x_next
        if record:
            states.append(x)
            imports.append(f_ne)
    p.check_state(x)
    total += terminal_cost(x, x0, p.kappa)
    traj = np.array([(s.b, s.h, s.theta_w, s.theta_i) for s in states]) if record else None
    return SimulationResult(total_cost=total, trajectory=traj,
                            imports=np.array(imports) if record else None,
                            decision_seconds=np.array(elapsed))


@dataclass
class AssessmentReport:
    """Per-policy cost statistics plus the SDDP-vs-MPC comparison."""

    costs: Dict[str, np.ndarray]
    mean: Dict[str, float]
    std: Dict[str, float]
    ci95: Dict[str, float]
    timing_s: Dict[str, float]                 # mean seconds per decision
    latency_ms: Dict[str, Dict[str, float]]    # p50_ms and p99_ms per decision
    gaps: Optional[np.ndarray] = None          # sddp - mpc, per scenario
    win_fraction: Optional[float] = None       # share of scenarios sddp < mpc
    gap_bins: Optional[dict] = None
    trajectories: Optional[Dict[str, list]] = None  # (trajectory, imports) pairs

    def to_dict(self) -> dict:
        out = {
            "n_scenarios": int(len(next(iter(self.costs.values())))),
            "policies": {
                name: {
                    "mean": self.mean[name],
                    "std": self.std[name],
                    "ci95": self.ci95[name],
                    "mean_decision_seconds": self.timing_s[name],
                    **self.latency_ms[name],
                }
                for name in self.costs
            },
        }
        if self.gaps is not None:
            out["sddp_vs_mpc"] = {
                "mean_gap": float(np.mean(self.gaps)),
                "win_fraction": self.win_fraction,
                "bins": self.gap_bins,
            }
        return out

    def save(self, path):
        with open(path, "w") as f:
            json.dump(self.to_dict(), f, indent=1)

    def save_costs_csv(self, path):
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["scenario", "policy", "cost"])
            for name, costs in self.costs.items():
                for i, cost in enumerate(costs):
                    w.writerow([i, name, repr(float(cost))])

    def save_gaps_csv(self, path):
        if self.gaps is None:
            return
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["scenario", "gap"])
            for i, gap in enumerate(self.gaps):
                w.writerow([i, repr(float(gap))])

    def save_trajectories_csv(self, path):
        if not self.trajectories:
            return
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["policy", "scenario", "t", "b", "h", "theta_w",
                        "theta_i", "f_ne"])
            for name, records in self.trajectories.items():
                for i, (traj, imports) in enumerate(records):
                    for t, row in enumerate(traj):
                        fne = repr(float(imports[t])) if t < len(imports) else ""
                        w.writerow([name, i, t]
                                   + [repr(float(v)) for v in row] + [fne])


def _simulate_many(policies, scenarios, x0, p, record):
    costs = {name: [] for name in policies}
    timing = {name: [] for name in policies}
    trajs = {name: [] for name in policies} if record else None
    for scenario in scenarios:
        for name, policy in policies.items():
            res = simulate_policy(policy, scenario, x0, p, record=record)
            costs[name].append(res.total_cost)
            timing[name].append(res.decision_seconds)
            if record:
                trajs[name].append((res.trajectory, res.imports))
    return costs, timing, trajs


def run_assessment(policies: Dict[str, object], assessment: ScenarioSet,
                   x0: State, p: SystemParams, record_trajectories: bool = False,
                   threads: int = 1) -> AssessmentReport:
    """Assess all policies on the same scenarios, in the same order, in
    `threads` consecutive chunks, each played by one worker process when
    `threads` > 1 (no more workers than scenarios)."""
    if assessment.n < 2:
        raise ValueError("assessment needs at least 2 scenarios")
    n = assessment.n
    if threads > 1:
        chunks = np.array_split(np.arange(n), threads)
        # the pool may start all its workers at the first submit
        with ProcessPoolExecutor(max_workers=min(threads, n)) as pool:
            futures = [
                pool.submit(_simulate_many, policies,
                            assessment.data[chunk], x0, p, record_trajectories)
                for chunk in chunks if len(chunk)
            ]
            parts = [f.result() for f in futures]
    else:
        parts = [_simulate_many(policies, assessment.data, x0, p, record_trajectories)]

    # chunks are consecutive, so concatenating keeps the scenario order
    costs = {name: [] for name in policies}
    timing = {name: [] for name in policies}
    trajs = {name: [] for name in policies} if record_trajectories else None
    for c, t, tr in parts:
        for name in policies:
            costs[name] += c[name]
            timing[name] += t[name]
            if trajs is not None:
                trajs[name] += tr[name]
    costs = {name: np.array(v) for name, v in costs.items()}
    mean = {name: float(np.mean(v)) for name, v in costs.items()}
    std = {name: float(np.std(v, ddof=1)) for name, v in costs.items()}
    ci95 = {name: 1.96 * std[name] / math.sqrt(n) for name in costs}
    seconds = {name: np.concatenate(timing[name]) for name in costs}
    timing_s = {name: float(np.mean(v)) for name, v in seconds.items()}
    latency_ms = {name: {"p50_ms": 1e3 * float(np.percentile(v, 50)),
                         "p99_ms": 1e3 * float(np.percentile(v, 99))}
                  for name, v in seconds.items()}

    gaps = win = bins = None
    if "sddp" in costs and "mpc" in costs:
        gaps = costs["sddp"] - costs["mpc"]
        win = float(np.mean(costs["sddp"] < costs["mpc"]))
        lo, hi = float(gaps.min()), float(gaps.max())
        width = (hi - lo) / 40.0 if hi > lo else 1.0
        edges = [lo + k * width for k in range(41)]
        hist, _ = np.histogram(gaps, bins=edges if hi > lo else 1)
        bins = {"edges": edges if hi > lo else [lo, lo + 1.0],
                "counts": [int(v) for v in hist]}
    return AssessmentReport(costs=costs, mean=mean, std=std, ci95=ci95,
                            timing_s=timing_s, latency_ms=latency_ms, gaps=gaps,
                            win_fraction=win, gap_bins=bins, trajectories=trajs)


def split_scenarios(pool: ScenarioSet, n_opt: int, seed: int):
    """Deterministic shuffle-split into optimization and assessment halves."""
    if n_opt >= pool.n:
        raise ValueError(f"n_opt {n_opt} must be < total scenario count {pool.n}")
    if n_opt < 1:
        raise ValueError("n_opt must be >= 1")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(pool.n)
    opt = ScenarioSet(pool.data[perm[:n_opt]], role=ROLE_OPTIMIZATION)
    sim = ScenarioSet(pool.data[perm[n_opt:]], role=ROLE_ASSESSMENT)
    return opt, sim
