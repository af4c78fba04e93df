"""Physical model of the microgrid.

Continuous dynamics of the four stocks (battery, hot water tank, wall and
indoor temperatures), the forward-Euler discrete transition, admissibility
boxes for the controls, and the stage / terminal costs.

Units used throughout: power in kW, energy in kWh, temperatures in degC,
thermal resistances in degC/kW, heat capacities in kWh/degC, time in hours.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "State",
    "Control",
    "Uncertainty",
    "Recourse",
    "ControlBox",
    "R6C2Params",
    "SystemParams",
    "ModelError",
    "InvalidStateError",
    "ConstraintViolationError",
    "split_flow",
    "continuous_dynamics",
    "step",
    "recourse",
    "control_limits",
    "clipped_control",
    "admissible_controls",
    "stage_cost",
    "terminal_cost",
    "linear_dynamics",
]


class ModelError(ValueError):
    """Base error for model-level validation failures."""


class InvalidStateError(ModelError):
    """A state violates the stock bounds or contains non-finite values."""


class ConstraintViolationError(ModelError):
    """A control lies outside its admissible box.

    Carries the name of the violated bound and the offending value.
    """

    def __init__(self, bound: str, value: float, limit: float):
        self.bound = bound
        self.value = value
        self.limit = limit
        super().__init__(f"control violates {bound}: {value!r} vs limit {limit!r}")


def _check_finite(name, *values):
    """A non-finite value in a state is an `InvalidStateError`; elsewhere it
    is a plain `ModelError`."""
    for v in values:
        if not math.isfinite(v):
            error = InvalidStateError if name == "state" else ModelError
            raise error(f"{name} contains non-finite value {v!r}")


@dataclass(frozen=True)
class State:
    """Stock vector: battery energy, tank energy, wall and indoor temperature."""

    b: float
    h: float
    theta_w: float
    theta_i: float

    def as_array(self) -> np.ndarray:
        return np.array([self.b, self.h, self.theta_w, self.theta_i])

    @staticmethod
    def from_array(a) -> "State":
        return State(float(a[0]), float(a[1]), float(a[2]), float(a[3]))


@dataclass(frozen=True)
class Control:
    """Decision flows: battery exchange (signed, + = charge), heater, tank."""

    f_b: float
    f_t: float
    f_h: float

    def as_array(self) -> np.ndarray:
        return np.array([self.f_b, self.f_t, self.f_h])


@dataclass(frozen=True)
class Uncertainty:
    """Net electrical demand (demand minus PV, signed) and hot water demand."""

    d_el_net: float
    d_hw: float

    def as_array(self) -> np.ndarray:
        return np.array([self.d_el_net, self.d_hw])


@dataclass(frozen=True)
class Recourse:
    """Grid import and curtailed surplus restoring the load balance."""

    f_ne: float
    spill: float


@dataclass(frozen=True)
class ControlBox:
    """Per-component interval bounds on an admissible control."""

    f_b_min: float
    f_b_max: float
    f_t_min: float
    f_t_max: float
    f_h_min: float
    f_h_max: float

    def contains(self, u: Control, tol: float = 1e-7) -> bool:
        return (
            self.f_b_min - tol <= u.f_b <= self.f_b_max + tol
            and self.f_t_min - tol <= u.f_t <= self.f_t_max + tol
            and self.f_h_min - tol <= u.f_h <= self.f_h_max + tol
        )

    def clip(self, u: Control) -> Control:
        return Control(
            min(max(u.f_b, self.f_b_min), self.f_b_max),
            min(max(u.f_t, self.f_t_min), self.f_t_max),
            min(max(u.f_h, self.f_h_min), self.f_h_max),
        )


@dataclass(frozen=True)
class R6C2Params:
    """Lumped thermal network: 6 resistances, 2 capacities, heater split."""

    r_i: float
    r_s: float
    r_m: float
    r_e: float
    r_v: float
    r_f: float
    c_i: float
    c_m: float
    gamma: float

    def __post_init__(self):
        for name in ("r_i", "r_s", "r_m", "r_e", "r_v", "r_f", "c_i", "c_m"):
            if getattr(self, name) <= 0:
                raise ModelError(f"r6c2.{name} must be strictly positive")
        if not 0.0 <= self.gamma <= 1.0:
            raise ModelError("r6c2.gamma must lie in [0, 1]")


@dataclass(frozen=True)
class SystemParams:
    """Static parameters plus per-step exogenous series of the microgrid.

    Series (theta_o, p_int, p_ext, pi_e, pi_d, theta_set) have length
    horizon_steps + 1 and are indexed by the step they start.
    """

    delta: float
    horizon_steps: int
    rho_c: float
    rho_d: float
    b_min: float
    b_max: float
    f_b_max: float
    h_max: float
    f_h_max: float
    f_t_max: float
    beta_h: float
    r6c2: R6C2Params
    theta_o: np.ndarray
    p_int: np.ndarray
    p_ext: np.ndarray
    pi_e: np.ndarray
    pi_d: np.ndarray
    theta_set: np.ndarray
    kappa: float
    h_floor: float = 0.0

    def __post_init__(self):
        if self.delta <= 0:
            raise ModelError("delta must be strictly positive")
        if self.horizon_steps < 1:
            raise ModelError("horizon_steps must be >= 1")
        if not (0 < self.rho_c <= 1 and 0 < self.rho_d <= 1):
            raise ModelError("battery efficiencies must lie in (0, 1]")
        if self.b_min >= self.b_max:
            raise ModelError("b_min must be < b_max")
        if self.h_max <= 0 or self.f_b_max <= 0 or self.f_h_max < 0 or self.f_t_max < 0:
            raise ModelError("capacity and power bounds must be positive")
        if self.beta_h <= 0:
            raise ModelError("beta_h must be strictly positive")
        if self.kappa < 0:
            raise ModelError("kappa must be nonnegative")
        if not 0.0 <= self.h_floor < self.h_max:
            raise ModelError("h_floor must lie in [0, h_max)")
        n = self.horizon_steps + 1
        for name in ("theta_o", "p_int", "p_ext", "pi_e", "pi_d", "theta_set"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (n,):
                raise ModelError(f"series {name} must have length {n}")
            if not np.all(np.isfinite(arr)):
                raise ModelError(f"series {name} contains non-finite values")
            object.__setattr__(self, name, arr)
        if np.any(self.pi_e <= 0) or np.any(self.pi_d < 0):
            raise ModelError("import prices must be > 0 and discomfort prices >= 0")
        # the series as lists of floats, for the per-step arithmetic
        object.__setattr__(self, "_series", {name: getattr(self, name).tolist() for name in (
            "theta_o", "p_int", "p_ext", "pi_e", "pi_d", "theta_set")})

    def check_state(self, x: State, tol: float = 1e-7):
        _check_finite("state", x.b, x.h, x.theta_w, x.theta_i)
        if not (self.b_min - tol <= x.b <= self.b_max + tol):
            raise InvalidStateError(f"battery stock {x.b} outside [{self.b_min}, {self.b_max}]")
        if not (-tol <= x.h <= self.h_max + tol):
            raise InvalidStateError(f"tank stock {x.h} outside [0, {self.h_max}]")


def tank_capacity_kwh(volume_l: float, useful_range_degc: float,
                      c_p: float = 4.18e3, rho_water: float = 1.0) -> float:
    """Convert a tank volume and temperature range into an energy capacity.

    c_p in J/(kg.K), rho_water in kg/l; result in kWh.
    """
    return volume_l * rho_water * c_p * useful_range_degc / 3.6e6


def split_flow(f: float) -> tuple[float, float]:
    """Split a signed power into its nonnegative parts (pos, neg)."""
    if not math.isfinite(f):
        raise ModelError(f"split_flow: non-finite input {f!r}")
    return (max(0.0, f), max(0.0, -f))


def _check_index(t_index: int, p: SystemParams):
    if not 0 <= t_index < p.horizon_steps:
        raise ModelError(f"t_index {t_index} outside [0, {p.horizon_steps})")


def _rates(t_index: int, x: State, u: Control, w: Uncertainty,
           p: SystemParams) -> tuple[float, float, float, float]:
    """The time derivative of the state as four floats; the callers check
    the inputs."""
    db = p.rho_c * max(0.0, u.f_b) - max(0.0, -u.f_b) / p.rho_d
    dh = p.beta_h * u.f_h - w.d_hw

    r = p.r6c2
    g_iw = 1.0 / (r.r_i + r.r_s)
    g_ow = 1.0 / (r.r_m + r.r_e)
    series = p._series
    theta_o = series["theta_o"][t_index]
    p_int = series["p_int"][t_index]
    dthw = (
        g_iw * (x.theta_i - x.theta_w)
        + g_ow * (theta_o - x.theta_w)
        + r.gamma * u.f_t
        + r.r_i * g_iw * p_int
        + r.r_e * g_ow * series["p_ext"][t_index]
    ) / r.c_m
    dthi = (
        g_iw * (x.theta_w - x.theta_i)
        + (theta_o - x.theta_i) / r.r_v
        + (theta_o - x.theta_i) / r.r_f
        + (1.0 - r.gamma) * u.f_t
        + r.r_s * g_iw * p_int
    ) / r.c_i
    return db, dh, dthw, dthi


def continuous_dynamics(t_index: int, x: State, u: Control, w: Uncertainty,
                        p: SystemParams) -> np.ndarray:
    """Time derivative of the state, as a length-4 array (per hour)."""
    _check_index(t_index, p)
    _check_finite("state", x.b, x.h, x.theta_w, x.theta_i)
    _check_finite("control", u.f_b, u.f_t, u.f_h)
    _check_finite("uncertainty", w.d_el_net, w.d_hw)
    return np.array(_rates(t_index, x, u, w, p))


def linear_dynamics(t_index: int, p: SystemParams):
    """Affine form of the dynamics: F = M x + N [fb+, fb-, ft, fh] + P w + g.

    Used by the LP builders; continuous_dynamics is the reference evaluation.
    """
    r = p.r6c2
    g_iw = 1.0 / (r.r_i + r.r_s)
    g_ow = 1.0 / (r.r_m + r.r_e)
    m = np.zeros((4, 4))
    m[2, 2] = -(g_iw + g_ow) / r.c_m
    m[2, 3] = g_iw / r.c_m
    m[3, 2] = g_iw / r.c_i
    m[3, 3] = -(g_iw + 1.0 / r.r_v + 1.0 / r.r_f) / r.c_i
    n = np.zeros((4, 4))
    n[0, 0] = p.rho_c
    n[0, 1] = -1.0 / p.rho_d
    n[1, 3] = p.beta_h
    n[2, 2] = r.gamma / r.c_m
    n[3, 2] = (1.0 - r.gamma) / r.c_i
    pw = np.zeros((4, 2))
    pw[1, 1] = -1.0
    g = np.zeros(4)
    theta_o = p.theta_o[t_index]
    g[2] = (g_ow * theta_o + r.r_i * g_iw * p.p_int[t_index]
            + r.r_e * g_ow * p.p_ext[t_index]) / r.c_m
    g[3] = ((1.0 / r.r_v + 1.0 / r.r_f) * theta_o
            + r.r_s * g_iw * p.p_int[t_index]) / r.c_i
    return m, n, pw, g


def control_limits(x: State, p: SystemParams) -> tuple[float, float, float]:
    """(f_b_min, f_b_max, f_h_max): the state-dependent bounds of an
    admissible control, which keep the stocks inside their bounds; the
    heater's are [0, f_t_max]. Checks x first (`SystemParams.check_state`)."""
    p.check_state(x)
    charge_cap = (p.b_max - x.b) / (p.delta * p.rho_c)
    discharge_cap = p.rho_d * (x.b - p.b_min) / p.delta
    fh_cap = (p.h_max - x.h) / (p.delta * p.beta_h)
    return (-min(p.f_b_max, max(0.0, discharge_cap)), min(p.f_b_max, max(0.0, charge_cap)),
            min(p.f_h_max, max(0.0, fh_cap)))


def admissible_controls(x: State, p: SystemParams) -> ControlBox:
    """State-dependent interval bounds keeping the stocks inside their bounds."""
    f_b_min, f_b_max, f_h_max = control_limits(x, p)
    return ControlBox(f_b_min=f_b_min, f_b_max=f_b_max, f_t_min=0.0, f_t_max=p.f_t_max,
                      f_h_min=0.0, f_h_max=f_h_max)


def clipped_control(f_b: float, f_t: float, f_h: float, limits, p: SystemParams) -> Control:
    """The control clipped to the admissible box of `control_limits`: what
    `admissible_controls(x, p).clip(Control(f_b, f_t, f_h))` returns."""
    f_b_min, f_b_max, f_h_max = limits
    return Control(min(max(f_b, f_b_min), f_b_max), min(max(f_t, 0.0), p.f_t_max),
                   min(max(f_h, 0.0), f_h_max))


def step(t_index: int, x: State, u: Control, w_next: Uncertainty,
         p: SystemParams) -> State:
    """Forward-Euler transition x' = x + delta * F(t, x, u, w'). Checks x,
    then u against its admissible box, then t and the finiteness of u and w'."""
    f_b_min, f_b_max, f_h_max = control_limits(x, p)
    tol = 1e-7
    if u.f_b > f_b_max + tol:
        raise ConstraintViolationError("f_b upper bound", u.f_b, f_b_max)
    if u.f_b < f_b_min - tol:
        raise ConstraintViolationError("f_b lower bound", u.f_b, f_b_min)
    if not 0.0 - tol <= u.f_t <= p.f_t_max + tol:
        raise ConstraintViolationError("f_t bound", u.f_t, p.f_t_max)
    if not 0.0 - tol <= u.f_h <= f_h_max + tol:
        raise ConstraintViolationError("f_h bound", u.f_h, f_h_max)
    _check_index(t_index, p)
    _check_finite("control", u.f_b, u.f_t, u.f_h)
    _check_finite("uncertainty", w_next.d_el_net, w_next.d_hw)
    db, dh, dthw, dthi = _rates(t_index, x, u, w_next, p)
    delta = p.delta
    return State(x.b + delta * db, x.h + delta * dh, x.theta_w + delta * dthw,
                 x.theta_i + delta * dthi)


def _recourse(u: Control, w_next: Uncertainty) -> tuple[float, float]:
    """(f_ne, spill) of `recourse`, unchecked: the simulator's step has
    checked u and w_next."""
    net = u.f_b + u.f_t + u.f_h + w_next.d_el_net
    return max(0.0, net), max(0.0, -net)


def recourse(u: Control, w_next: Uncertainty) -> Recourse:
    """Grid import / spill restoring the load balance after the demand realizes."""
    _check_finite("control", u.f_b, u.f_t, u.f_h)
    _check_finite("uncertainty", w_next.d_el_net, w_next.d_hw)
    f_ne, spill = _recourse(u, w_next)
    return Recourse(f_ne=f_ne, spill=spill)


def _stage_cost(t_index: int, x: State, f_ne: float, p: SystemParams) -> float:
    """`stage_cost` given the step's grid import f_ne."""
    series = p._series
    discomfort = max(0.0, series["theta_set"][t_index] - x.theta_i)
    return series["pi_e"][t_index] * p.delta * f_ne + series["pi_d"][t_index] * discomfort


def stage_cost(t_index: int, x: State, u: Control, w_next: Uncertainty,
               p: SystemParams) -> float:
    """Import bill over the step plus the discomfort penalty on the indoor
    temperature at the beginning of the step."""
    return _stage_cost(t_index, x, recourse(u, w_next).f_ne, p)


def terminal_cost(x_final: State, x_init: State, kappa: float) -> float:
    """One-sided penalty on the battery and tank stocks below their initial level."""
    _check_finite("state", x_final.b, x_final.h, x_init.b, x_init.h)
    return kappa * (max(0.0, x_init.b - x_final.b) + max(0.0, x_init.h - x_final.h))
