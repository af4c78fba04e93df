"""Run configuration: JSON parsing, validation, normalization, manifests.

System parameters come from a `system` section whose exogenous series are
inline arrays (length horizon_steps + 1) or paths to single-column CSV files
with header `value`. `day_config` builds the bundled winter/spring/summer
example configurations with synthetic weather profiles.
"""

from __future__ import annotations

import csv
import hashlib
import json
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import lp
from .model import R6C2Params, State, SystemParams, tank_capacity_kwh
from .scenarios import GeneratorConfig

__all__ = ["ConfigError", "RunConfig", "load_config", "day_config", "manifest"]


class ConfigError(ValueError):
    """Invalid configuration; carries the offending field path."""

    def __init__(self, fieldpath: str, message: str):
        self.fieldpath = fieldpath
        super().__init__(f"{fieldpath}: {message}")


def _reject_unknown(section: dict, known, prefix: str = ""):
    if not isinstance(section, dict):
        raise ConfigError(prefix.rstrip(".") or "config", "must be a JSON object")
    unknown = sorted(set(section) - set(known))
    if unknown:
        raise ConfigError(f"{prefix}{unknown[0]}",
                          f"unknown field (known: {', '.join(sorted(known))})")


def _required(section: dict, fieldpath: str, key: str):
    if key not in section:
        raise ConfigError(f"{fieldpath}.{key}", "missing required field")
    return section[key]


def _number(section: dict, key: str, default, prefix: str, kind=float):
    """section[key] (or the default) as a float, or as an int if `kind` is int."""
    value = section.get(key, default)
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{prefix}{key}", f"expected a number, got {value!r}") from None


def _series(value, n: int, fieldpath: str, base_dir: Path) -> list:
    if isinstance(value, str):
        path = base_dir / value
        if not path.exists():
            raise ConfigError(fieldpath, f"series file not found: {path}")
        with open(path, newline="") as f:
            reader = csv.reader(f)
            header = next(reader, None)
            if header != ["value"]:
                raise ConfigError(fieldpath, f"{path}: expected single column with header 'value'")
            try:
                value = [float(row[0]) for row in reader]
            except (ValueError, IndexError) as exc:
                raise ConfigError(fieldpath, f"{path}: malformed series row") from exc
    if not isinstance(value, list) or len(value) != n:
        raise ConfigError(fieldpath, f"expected a length-{n} array or a CSV path")
    try:
        return [float(v) for v in value]
    except (TypeError, ValueError):
        raise ConfigError(fieldpath, "expected an array of numbers") from None


_R6C2_DEFAULTS = {
    # degC/kW and kWh/degC; wall time constant ~40 h, indoor ~3 h
    "r_i": 0.5, "r_s": 0.5, "r_m": 2.0, "r_e": 2.0, "r_v": 25.0, "r_f": 40.0,
    "c_i": 3.3, "c_m": 50.0, "gamma": 0.1,
}

_SYSTEM_DEFAULTS = {
    "delta": 0.25, "horizon_steps": 96, "rho_c": 0.95, "rho_d": 0.95,
    "b_min": 0.9, "b_max": 3.0, "f_b_max": 3.0, "f_h_max": 3.0,
    "f_t_max": 6.0, "beta_h": 0.9, "kappa": 1.0, "h_floor": 0.0,
}


def _parse_system(section: dict, base_dir: Path) -> SystemParams:
    fields = dict(_SYSTEM_DEFAULTS)
    _reject_unknown(section, set(fields) | {"h_max", "tank", "r6c2", "theta_o", "p_int",
                                            "p_ext", "pi_e", "pi_d", "theta_set"},
                    "system.")
    for key in fields:
        fields[key] = _number(section, key, fields[key], "system.",
                              int if key == "horizon_steps" else float)

    if "h_max" in section and "tank" in section:
        raise ConfigError("system.tank", "give the tank as system.h_max or as system.tank, "
                          "not both")
    if "h_max" in section:
        h_max = _number(section, "h_max", None, "system.")
    elif "tank" in section:
        tank = section["tank"]
        _reject_unknown(tank, ("volume_l", "useful_range_degc", "c_p", "rho_water"),
                        "system.tank.")
        for key in ("volume_l", "useful_range_degc"):
            _required(tank, "system.tank", key)
        h_max = tank_capacity_kwh(
            volume_l=_number(tank, "volume_l", None, "system.tank."),
            useful_range_degc=_number(tank, "useful_range_degc", None, "system.tank."),
            c_p=_number(tank, "c_p", 4.18e3, "system.tank."),
            rho_water=_number(tank, "rho_water", 1.0, "system.tank."),
        )
    else:
        h_max = tank_capacity_kwh(120.0, 40.0)

    r6c2_dict = dict(_R6C2_DEFAULTS)
    r6c2_dict.update(section.get("r6c2", {}))
    try:
        r6c2 = R6C2Params(**r6c2_dict)
    except (TypeError, ValueError) as exc:
        raise ConfigError("system.r6c2", str(exc)) from exc

    n = fields["horizon_steps"] + 1
    series = {}
    for name in ("theta_o", "p_int", "p_ext", "pi_e", "pi_d", "theta_set"):
        if name not in section:
            raise ConfigError(f"system.{name}", "missing required series")
        series[name] = _series(section[name], n, f"system.{name}", base_dir)

    try:
        return SystemParams(
            **fields, h_max=h_max, r6c2=r6c2,
            **{name: np.array(values) for name, values in series.items()},
        )
    except ValueError as exc:
        raise ConfigError("system", str(exc)) from exc


@dataclass(frozen=True)
class RunConfig:
    system: SystemParams
    initial_state: State
    generator: GeneratorConfig
    generator_seed: int
    sddp_s_offline: int
    sddp_max_iters: int
    sddp_lb_tol: float
    sddp_patience: int
    sddp_seed: int
    mpc_enabled: bool
    heuristic_margin: float
    n_opt: int
    n_sim: int
    split_seed: int
    raw: dict

    def normalized(self) -> dict:
        return self.raw


def load_config(path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError("config", f"file not found: {path}")
    with open(path) as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as exc:
            raise ConfigError("config", f"invalid JSON: {exc}") from exc
    return parse_config(doc, base_dir=path.parent)


def parse_config(doc: dict, base_dir: Path = Path(".")) -> RunConfig:
    _reject_unknown(doc, ("system", "initial_state", "generator", "sddp", "mpc",
                          "heuristic", "assessment"))
    if "system" not in doc:
        raise ConfigError("system", "missing required section")
    system = _parse_system(doc["system"], base_dir)

    init = doc.get("initial_state", {})
    _reject_unknown(init, ("b", "h", "theta_w", "theta_i"), "initial_state.")
    x0 = State(
        b=_number(init, "b", system.b_min, "initial_state."),
        h=_number(init, "h", system.h_max / 2.0, "initial_state."),
        theta_w=_number(init, "theta_w", 20.0, "initial_state."),
        theta_i=_number(init, "theta_i", 20.0, "initial_state."),
    )
    try:
        system.check_state(x0)
    except ValueError as exc:
        raise ConfigError("initial_state", str(exc)) from exc

    gen_section = dict(doc.get("generator", {}))
    generator_seed = _number(gen_section, "seed", 1, "generator.", int)
    gen_section.pop("seed", None)
    gen_section.setdefault("delta", system.delta)
    gen_section.setdefault("horizon_steps", system.horizon_steps)
    try:
        generator = GeneratorConfig.from_dict(gen_section)
    except (TypeError, ValueError) as exc:
        raise ConfigError("generator", str(exc)) from exc
    if generator.horizon_steps != system.horizon_steps:
        raise ConfigError("generator.horizon_steps", "must match system.horizon_steps")
    # the tank must cover one full-rate hot-water spike over a step
    min_floor = generator.delta * generator.d_hw_cap
    if "h_floor" not in doc["system"]:
        try:
            system = replace(system, h_floor=min_floor)
        except ValueError as exc:
            raise ConfigError("system.h_floor", f"default {min_floor}: {exc}") from exc
    elif system.h_floor < min_floor - 1e-9:
        raise ConfigError("system.h_floor",
                          f"{system.h_floor} is below generator.delta * d_hw_cap = "
                          f"{min_floor}; one hot-water spike could empty the tank")

    sddp = doc.get("sddp", {})
    _reject_unknown(sddp, ("s_offline", "max_iters", "lb_tol", "patience", "seed"),
                    "sddp.")
    s_offline = _number(sddp, "s_offline", 20, "sddp.", int)
    if s_offline < 1:
        raise ConfigError("sddp.s_offline", "quantization size must be >= 1")
    max_iters = _number(sddp, "max_iters", 100, "sddp.", int)
    if max_iters < 1:
        raise ConfigError("sddp.max_iters", "must be >= 1")
    lb_tol = _number(sddp, "lb_tol", 1e-4, "sddp.")
    patience = _number(sddp, "patience", 10, "sddp.", int)
    sddp_seed = _number(sddp, "seed", 0, "sddp.", int)
    if not 0 <= sddp_seed < 2 ** 64 or not 0 <= generator_seed < 2 ** 64:
        raise ConfigError("sddp.seed", "seeds must be unsigned 64-bit integers")

    assessment = doc.get("assessment", {})
    _reject_unknown(assessment, ("n_opt", "n_sim", "seed"), "assessment.")
    n_opt = _number(assessment, "n_opt", 1000, "assessment.", int)
    n_sim = _number(assessment, "n_sim", 1000, "assessment.", int)
    split_seed = _number(assessment, "seed", 42, "assessment.", int)
    if n_opt < 2 or n_sim < 2:
        raise ConfigError("assessment.n_opt", "n_opt and n_sim must be >= 2")

    mpc = doc.get("mpc", {})
    _reject_unknown(mpc, ("enabled",), "mpc.")
    mpc_enabled = bool(mpc.get("enabled", True))
    heuristic = doc.get("heuristic", {})
    _reject_unknown(heuristic, ("margin_deg_c",), "heuristic.")
    margin = _number(heuristic, "margin_deg_c", 1.0, "heuristic.")

    raw = _normalize(system, x0, generator, generator_seed, s_offline, max_iters,
                     lb_tol, patience, sddp_seed, mpc_enabled, margin, n_opt,
                     n_sim, split_seed)
    return RunConfig(
        system=system, initial_state=x0, generator=generator,
        generator_seed=generator_seed, sddp_s_offline=s_offline,
        sddp_max_iters=max_iters, sddp_lb_tol=lb_tol,
        sddp_patience=patience, sddp_seed=sddp_seed, mpc_enabled=mpc_enabled,
        heuristic_margin=margin, n_opt=n_opt, n_sim=n_sim,
        split_seed=split_seed, raw=raw,
    )


def _normalize(system, x0, generator, generator_seed, s_offline, max_iters,
               lb_tol, patience, sddp_seed, mpc_enabled, margin, n_opt, n_sim,
               split_seed) -> dict:
    gen = {f: getattr(generator, f) for f in GeneratorConfig.__dataclass_fields__}
    gen["hw_morning_window"] = list(gen["hw_morning_window"])
    gen["hw_evening_window"] = list(gen["hw_evening_window"])
    gen["seed"] = generator_seed
    return {
        "system": {
            "delta": system.delta, "horizon_steps": system.horizon_steps,
            "rho_c": system.rho_c, "rho_d": system.rho_d,
            "b_min": system.b_min, "b_max": system.b_max,
            "f_b_max": system.f_b_max, "h_max": system.h_max,
            "f_h_max": system.f_h_max, "f_t_max": system.f_t_max,
            "beta_h": system.beta_h, "kappa": system.kappa,
            "h_floor": system.h_floor,
            "r6c2": {f: getattr(system.r6c2, f) for f in R6C2Params.__dataclass_fields__},
            "theta_o": list(system.theta_o), "p_int": list(system.p_int),
            "p_ext": list(system.p_ext), "pi_e": list(system.pi_e),
            "pi_d": list(system.pi_d), "theta_set": list(system.theta_set),
        },
        "initial_state": {"b": x0.b, "h": x0.h, "theta_w": x0.theta_w,
                          "theta_i": x0.theta_i},
        "generator": gen,
        "sddp": {"s_offline": s_offline, "max_iters": max_iters, "lb_tol": lb_tol,
                 "patience": patience, "seed": sddp_seed},
        "mpc": {"enabled": mpc_enabled},
        "heuristic": {"margin_deg_c": margin},
        "assessment": {"n_opt": n_opt, "n_sim": n_sim, "seed": split_seed},
    }


# ---------------------------------------------------------------------------
# Bundled example days

_DAYS = {
    "winter": dict(theta_mean=6.0, theta_amp=3.0, sunrise=8.0, sunset=17.5,
                   pv_daily_kwh=8.0, p_ext_kw=0.4, p_int_kw=0.12),
    "spring": dict(theta_mean=12.0, theta_amp=4.0, sunrise=7.0, sunset=19.0,
                   pv_daily_kwh=15.0, p_ext_kw=0.6, p_int_kw=0.2),
    "summer": dict(theta_mean=19.0, theta_amp=4.0, sunrise=6.0, sunset=21.0,
                   pv_daily_kwh=23.0, p_ext_kw=0.8, p_int_kw=0.3),
}


def day_config(day: str, horizon_steps: int = 96, delta: float = 0.25) -> dict:
    """Full configuration document for one of the bundled synthetic days."""
    if day not in _DAYS:
        raise ConfigError("day", f"unknown day {day!r}; pick from {sorted(_DAYS)}")
    d = _DAYS[day]
    n = horizon_steps + 1
    hours = (np.arange(n) * delta) % 24.0
    theta_o = d["theta_mean"] + d["theta_amp"] * np.cos(2 * np.pi * (hours - 15.0) / 24.0)
    span = d["sunset"] - d["sunrise"]
    bell = np.where((hours >= d["sunrise"]) & (hours <= d["sunset"]),
                    np.sin(np.pi * (hours - d["sunrise"]) / np.maximum(span, 1e-9)) ** 2,
                    0.0)
    pi_e = np.where((hours >= 7.0) & (hours < 23.0), 0.18, 0.13)
    theta_set = np.where(hours < 6.0, 16.0, 20.0)
    gen = {
        "seed": 1,
        "pv_daily_kwh": d["pv_daily_kwh"],
        "sunrise_h": d["sunrise"],
        "sunset_h": d["sunset"],
    }
    return {
        "system": {
            **_SYSTEM_DEFAULTS,
            "horizon_steps": horizon_steps, "delta": delta,
            "h_max": round(tank_capacity_kwh(120.0, 40.0), 6),
            # the tank must cover one full-rate hot-water spike over a step
            "h_floor": delta * GeneratorConfig.d_hw_cap,
            "theta_o": [round(v, 6) for v in theta_o],
            "p_int": [round(v, 6) for v in d["p_int_kw"] * bell],
            "p_ext": [round(v, 6) for v in d["p_ext_kw"] * bell],
            "pi_e": [float(v) for v in pi_e],
            "pi_d": [0.1] * n,
            "theta_set": [float(v) for v in theta_set],
        },
        "initial_state": {"b": 0.9, "h": 2.8, "theta_w": 19.0, "theta_i": 20.0},
        "generator": gen,
        "sddp": {"s_offline": 10, "max_iters": 30, "lb_tol": 1e-4,
                 "patience": 10, "seed": 7},
        "mpc": {"enabled": True},
        "heuristic": {"margin_deg_c": 1.0},
        "assessment": {"n_opt": 200, "n_sim": 200, "seed": 42},
    }


def manifest(config: RunConfig) -> dict:
    """Reproducibility record: config hash, library versions and the LP
    solver path (warm persistent HiGHS, or cold `linprog` solves when the
    bundled bindings are missing)."""
    import scipy

    blob = json.dumps(config.normalized(), sort_keys=True).encode()
    return {
        "config_sha256": hashlib.sha256(blob).hexdigest(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "solver_path": "cold-linprog" if lp._highs_core is None else "warm-persistent",
    }
