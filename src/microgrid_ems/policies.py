"""The three controllers: rule-based heuristic, MPC, and SDDP.

MPC solves a shrinking-horizon deterministic LP against an AR(1)-updated
forecast and applies the first decision. SDDP trains polyhedral lower
approximations of the Bellman value functions offline (forward sampling,
backward dual cuts) and plays the one-stage expected problem online.

Every policy is called as `decide(t, x, w_obs) -> PolicyDecision`, with the
uncertainty observed at step t. A policy that keeps memory across steps also
has `reset()`, which `assess.simulate_policy` calls before each scenario.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from .model import (
    Control,
    State,
    SystemParams,
    Uncertainty,
    clipped_control,
    control_limits,
    stage_cost,
    step,
    terminal_cost,
)
from .scenarios import ARModel, DiscreteDistribution, update_forecast
from . import stagelp

__all__ = [
    "Cut",
    "ValueFunctions",
    "PolicyDecision",
    "TrainingLog",
    "StoppingRule",
    "HeuristicPolicy",
    "MpcPolicy",
    "SddpPolicy",
    "perfect_foresight_cost",
    "sddp_train",
]


@dataclass(frozen=True)
class Cut:
    """Affine minorant of a value function: x -> lam . x + beta."""

    lam: np.ndarray
    beta: float

    def __post_init__(self):
        lam = np.asarray(self.lam, dtype=float)
        if lam.shape != (4,) or not np.all(np.isfinite(lam)) or not math.isfinite(self.beta):
            raise ValueError("cut needs a finite length-4 slope and intercept")
        object.__setattr__(self, "lam", lam)


class ValueFunctions:
    """Per-stage polyhedral lower approximations, evaluated as the max cut.

    cuts[T] encodes the terminal penalty's epigraph pieces exactly. Each
    stage stores a cut once, in insertion order.
    """

    def __init__(self, cuts: List[List[Cut]]):
        if not cuts or any(not cs for cs in cuts):
            raise ValueError("every stage needs at least one cut")
        self._cuts: List[Dict[tuple, Cut]] = [{} for _ in cuts]
        self._arrays: Dict[int, tuple] = {}
        for t, cs in enumerate(cuts):
            for cut in cs:
                self.add_cut(t, cut)

    @staticmethod
    def initial(p: SystemParams, x_ref: State) -> "ValueFunctions":
        """Zero cut everywhere (valid: all costs are nonnegative) plus the
        exact terminal pieces kappa * max(0, ref - stock) per stock."""
        k = p.kappa
        terminal = [
            Cut(np.zeros(4), 0.0),
            Cut(np.array([-k, 0.0, 0.0, 0.0]), k * x_ref.b),
            Cut(np.array([0.0, -k, 0.0, 0.0]), k * x_ref.h),
            Cut(np.array([-k, -k, 0.0, 0.0]), k * (x_ref.b + x_ref.h)),
        ]
        cuts = [[Cut(np.zeros(4), 0.0)] for _ in range(p.horizon_steps)]
        cuts.append(terminal)
        return ValueFunctions(cuts)

    @property
    def horizon(self) -> int:
        return len(self._cuts) - 1

    def cut_counts(self) -> List[int]:
        return [len(cs) for cs in self._cuts]

    def add_cut(self, t: int, cut: Cut) -> bool:
        """Store the cut unless stage t holds it already (same
        `stagelp.cut_key`); returns whether it was new."""
        key = stagelp.cut_key(cut.lam, cut.beta)
        if key in self._cuts[t]:
            return False
        self._cuts[t][key] = cut
        self._arrays.pop(t, None)
        return True

    def arrays(self, t: int):
        """(lambdas, betas) arrays for stage t."""
        cached = self._arrays.get(t)
        if cached is None:
            lambdas = np.array([c.lam for c in self._cuts[t].values()])
            betas = np.array([c.beta for c in self._cuts[t].values()])
            cached = (lambdas, betas)
            self._arrays[t] = cached
        return cached

    def evaluate(self, t: int, x: State) -> float:
        lambdas, betas = self.arrays(t)
        return float(np.max(lambdas @ x.as_array() + betas))

    def to_json(self, path):
        payload = [
            [{"lambda": [float(v) for v in c.lam], "beta": float(c.beta)}
             for c in cs.values()]
            for cs in self._cuts
        ]
        with open(path, "w") as f:
            json.dump(payload, f, indent=1)

    @staticmethod
    def from_json(path) -> "ValueFunctions":
        with open(path) as f:
            payload = json.load(f)
        return ValueFunctions(
            [[Cut(np.array(c["lambda"]), c["beta"]) for c in cs] for cs in payload])


@dataclass(frozen=True)
class PolicyDecision:
    control: Control
    predicted_cost: float


# ---------------------------------------------------------------------------
# Heuristic


class HeuristicPolicy:
    """Logical decision rule: charge the battery on PV surplus, discharge on
    deficit, refill the tank below its initial level, bang-bang heater with
    hysteresis around the setpoint."""

    name = "heuristic"

    def __init__(self, p: SystemParams, x0: State, margin_deg_c: float = 1.0):
        self.p = p
        self.h0 = x0.h
        self.margin = margin_deg_c
        self._heater_on = False

    def reset(self):
        self._heater_on = False

    def decide(self, t: int, x: State, w_obs: Uncertainty) -> PolicyDecision:
        p = self.p
        limits = f_b_min, f_b_max, f_h_max = control_limits(x, p)
        net = w_obs.d_el_net
        if net < 0.0:
            f_b = min(-net, f_b_max)
        else:
            f_b = -min(net, -f_b_min)
        f_h = f_h_max if x.h < self.h0 else 0.0
        setpoint = p.theta_set[t]
        if x.theta_i < setpoint:
            self._heater_on = True
        elif x.theta_i > setpoint + self.margin:
            self._heater_on = False
        f_t = p.f_t_max if self._heater_on else 0.0
        return PolicyDecision(control=clipped_control(f_b, f_t, f_h, limits, p),
                              predicted_cost=math.nan)


# ---------------------------------------------------------------------------
# MPC


class MpcPolicy:
    """Shrinking-horizon deterministic LP; the AR(1) model updates the
    one-step forecast online, the offline means fill the tail.

    Each step's chain is sliced from one horizon template, which holds the
    means with their hot water clamped at zero as its demand path, and is
    kept for the next scenario; a new chain starts from the basis of the
    chain one step earlier. Pickling drops the chains, so a copy plays as a
    fresh policy.
    """

    name = "mpc"

    def __init__(self, p: SystemParams, x0: State, ar: ARModel, means: np.ndarray):
        if ar.horizon != p.horizon_steps:
            raise ValueError("AR model horizon does not match the system")
        means, shape = np.asarray(means, dtype=float), (p.horizon_steps + 1, 2)
        if means.shape != shape or not np.isfinite(means).all():
            got = f"shape {means.shape}" if means.shape != shape else "non-finite values"
            raise ValueError(f"means must be a finite array of shape {shape}, got {got}")
        self.p = p
        self.x0 = x0
        self.ar = ar
        means = np.maximum(means, (-np.inf, 0.0))
        self._template = stagelp.ChainTemplate(p, x0, means[1:])
        self._chains: Dict[int, stagelp.DeterministicChain] = {}

    def _chain(self, t: int) -> stagelp.DeterministicChain:
        chain = self._chains.get(t)
        if chain is None:
            chain = stagelp.DeterministicChain(self._template, t, self._chains.get(t - 1))
            self._chains[t] = chain
        return chain

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_chains"] = {}  # rebuilt and seeded as in a fresh policy
        return state

    def decide(self, t: int, x: State, w_obs: Uncertainty) -> PolicyDecision:
        forecast = update_forecast(self.ar, t, (w_obs.d_el_net, w_obs.d_hw))
        sol = self._chain(t).solve(x, forecast)
        return PolicyDecision(control=sol.control, predicted_cost=sol.objective)


def perfect_foresight_cost(p: SystemParams, x0: State, scenario: np.ndarray) -> float:
    """Anticipative deterministic optimum of one scenario (lower bound on any
    nonanticipative policy's realized cost on that scenario)."""
    path = np.asarray(scenario, dtype=float)[1:]
    chain = stagelp.DeterministicChain(stagelp.ChainTemplate(p, x0, path, h_floor=0.0), 0)
    return chain.solve(x0, path[0].tolist()).objective


# ---------------------------------------------------------------------------
# SDDP


@dataclass
class TrainingLog:
    """Per iteration: the lower bound, the sampled forward cost, the cuts
    held, and the wall time of the iteration and of its two passes."""

    lower_bounds: List[float] = field(default_factory=list)
    forward_costs: List[float] = field(default_factory=list)
    cut_counts: List[int] = field(default_factory=list)
    iteration_seconds: List[float] = field(default_factory=list)
    forward_seconds: List[float] = field(default_factory=list)
    backward_seconds: List[float] = field(default_factory=list)

    @property
    def iterations(self) -> int:
        return len(self.lower_bounds)


@dataclass(frozen=True)
class StoppingRule:
    """Stop after max_iters, or once the relative lower-bound improvement
    stays below lb_tol for `patience` consecutive iterations."""

    max_iters: int = 100
    lb_tol: float = 1e-4
    patience: int = 10


def sddp_train(p: SystemParams, dists: Sequence[DiscreteDistribution],
               x0: State, stop: StoppingRule = StoppingRule(),
               seed: int = 0) -> tuple[ValueFunctions, TrainingLog]:
    """Train the polyhedral value functions by sampled forward passes and
    backward dual cuts; the recorded lower bound is non-decreasing."""
    T = p.horizon_steps
    if len(dists) != T:
        raise ValueError(f"need {T} stage distributions, got {len(dists)}")
    vf = ValueFunctions.initial(p, x0)
    log = TrainingLog()
    rng = np.random.default_rng(seed)
    # one persistent stage LP per stage; stage t holds the cuts of stage t + 1
    stages = [stagelp.OneStageDecision(p, t, dists[t], *vf.arrays(t + 1))
              for t in range(T)]
    stable = 0
    for _ in range(stop.max_iters):
        tic = time.perf_counter()
        # forward pass
        x = x0
        traj = [x0]
        fcost = 0.0
        for t in range(T):
            u = stages[t].solve(x, prefer_storage=True).control
            w = Uncertainty(*dists[t].sample(rng))
            fcost += stage_cost(t, x, u, w, p)
            x = step(t, x, u, w, p)
            traj.append(x)
        fcost += terminal_cost(x, x0, p.kappa)
        turn = time.perf_counter()

        # backward pass
        lb = math.nan
        for t in range(T - 1, -1, -1):
            sol = stages[t].solve(traj[t])
            beta = sol.objective - float(sol.duals @ traj[t].as_array())
            cut = Cut(sol.duals, beta)
            if vf.add_cut(t, cut) and t > 0:
                stages[t - 1].add_cut(cut.lam, cut.beta)
            lb = sol.objective
        toc = time.perf_counter()
        log.lower_bounds.append(lb)
        log.forward_costs.append(float(fcost))
        log.cut_counts.append(sum(vf.cut_counts()))
        log.iteration_seconds.append(toc - tic)
        log.forward_seconds.append(turn - tic)
        log.backward_seconds.append(toc - turn)

        if len(log.lower_bounds) >= 2:
            prev = log.lower_bounds[-2]
            rel = abs(lb - prev) / max(abs(prev), 1e-9)
            stable = stable + 1 if rel < stop.lb_tol else 0
            if stable >= stop.patience:
                break
    return vf, log


class SddpPolicy:
    """Online one-stage policy against the trained cuts and per-stage
    discrete laws.

    Each stage LP is built on first use and kept for the next scenario; a
    new one starts from the basis of the stage LP one step earlier. Pickling
    drops the stage LPs, so a copy plays as a fresh policy.
    """

    name = "sddp"

    def __init__(self, p: SystemParams, vf: ValueFunctions,
                 online_dists: Sequence[DiscreteDistribution]):
        if vf.horizon != p.horizon_steps or len(online_dists) != p.horizon_steps:
            raise ValueError("value functions / distributions horizon mismatch")
        self.p = p
        self.vf = vf
        self.dists = list(online_dists)
        self._problems: Dict[int, stagelp.OneStageDecision] = {}

    def _problem(self, t: int) -> stagelp.OneStageDecision:
        prob = self._problems.get(t)
        if prob is None:
            lambdas, betas = self.vf.arrays(t + 1)
            prob = stagelp.OneStageDecision(self.p, t, self.dists[t], lambdas, betas,
                                            self._problems.get(t - 1))
            self._problems[t] = prob
        return prob

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_problems"] = {}  # rebuilt and seeded as in a fresh policy
        return state

    def decide(self, t: int, x: State, w_obs: Uncertainty) -> PolicyDecision:
        """The noise is stagewise independent, so w_obs does not enter."""
        sol = self._problem(t).solve(x)
        return PolicyDecision(control=sol.control, predicted_cost=sol.objective)
