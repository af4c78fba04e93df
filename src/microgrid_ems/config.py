"""Run configuration: JSON parsing, validation, normalization, manifests.

Each section is read against one table of defaults, and each default's type
is its field's type; the normalized document is the parsed tables. System
parameters come from a `system` section whose exogenous series are
inline arrays (length horizon_steps + 1) or paths to single-column CSV files
with header `value`. `day_config` builds the bundled winter/spring/summer
example configurations with synthetic weather profiles.
"""

from __future__ import annotations

import csv
import hashlib
import json
import sys
from dataclasses import dataclass
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


def _value(value, default, fieldpath: str):
    """`value` checked against the type of `default`: an int takes an
    integral number, a float a finite number, a tuple a pair of numbers
    (kept as a list) and a dict that table's fields. A bool is never a
    number."""
    if isinstance(default, dict):
        return _fields(value, default, f"{fieldpath}.")
    if isinstance(default, tuple):
        if not isinstance(value, (list, tuple)) or len(value) != 2:
            raise ConfigError(fieldpath, f"expected a pair of numbers, got {value!r}")
        return [_value(v, 0.0, fieldpath) for v in value]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(fieldpath, f"expected a number, got {value!r}")
    if isinstance(default, int):
        if isinstance(value, float) and not value.is_integer():
            raise ConfigError(fieldpath, f"expected an integer, got {value!r}")
        return int(value)
    if not abs(value) <= sys.float_info.max:
        raise ConfigError(fieldpath, f"expected a finite number, got {value!r}")
    return float(value)


def _fields(section: dict, defaults: dict, prefix: str) -> dict:
    """`section` read against its table of defaults: unknown keys are
    rejected, missing ones take their default, and every value is checked
    by its default's type."""
    _reject_unknown(section, defaults, prefix)
    return {key: _value(section.get(key, default), default, prefix + key)
            for key, default in defaults.items()}


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

# without system.h_max or system.tank, the tank holds 120 l over 40 degC
_TANK_DEFAULTS = {"volume_l": 120.0, "useful_range_degc": 40.0, "c_p": 4.18e3,
                  "rho_water": 1.0}

_SERIES = ("theta_o", "p_int", "p_ext", "pi_e", "pi_d", "theta_set")

# The generator samples on the system's time grid, so its table leaves out
# delta and horizon_steps.
_SECTIONS = {
    "generator": {**{name: f.default for name, f in GeneratorConfig.__dataclass_fields__.items()
                     if name not in ("delta", "horizon_steps")}, "seed": 1},
    "sddp": {"s_offline": 20, "max_iters": 100, "lb_tol": 1e-4, "patience": 10, "seed": 0},
    "heuristic": {"margin_deg_c": 1.0},
    "assessment": {"n_opt": 1000, "n_sim": 1000, "seed": 42},
}

_MINIMUMS = {("sddp", "s_offline"): 1, ("sddp", "max_iters"): 1, ("sddp", "patience"): 1,
             ("assessment", "n_opt"): 2, ("assessment", "n_sim"): 2}


def _system_fields(section: dict, base_dir: Path) -> dict:
    """The `system` table, with h_max (given, or from the tank) and the series."""
    _reject_unknown(section, [*_SYSTEM_DEFAULTS, "h_max", "tank", "r6c2", *_SERIES],
                    "system.")
    if "h_max" in section and "tank" in section:
        raise ConfigError("system.tank", "give the tank as system.h_max or as system.tank, "
                          "not both")
    tank = section.get("tank", {})
    h_max = tank_capacity_kwh(**_fields(tank, _TANK_DEFAULTS, "system.tank."))
    if "tank" in section:
        for key in ("volume_l", "useful_range_degc"):
            if key not in tank:
                raise ConfigError(f"system.tank.{key}", "missing required field")
    table = {**_SYSTEM_DEFAULTS, "h_max": h_max, "r6c2": _R6C2_DEFAULTS}
    fields = _fields({k: v for k, v in section.items() if k in table}, table, "system.")
    for name in _SERIES:
        if name not in section:
            raise ConfigError(f"system.{name}", "missing required series")
        fields[name] = _series(section[name], fields["horizon_steps"] + 1,
                               f"system.{name}", base_dir)
    return fields


def _system_params(fields: dict) -> SystemParams:
    try:
        r6c2 = R6C2Params(**fields["r6c2"])
    except ValueError as exc:
        raise ConfigError("system.r6c2", str(exc)) from exc
    try:
        return SystemParams(**{**fields, "r6c2": r6c2,
                               **{name: np.array(fields[name]) for name in _SERIES}})
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
    _reject_unknown(doc, ("system", "initial_state", *_SECTIONS))
    if "system" not in doc:
        raise ConfigError("system", "missing required section")
    raw = {"system": _system_fields(doc["system"], base_dir)}
    raw.update((name, _fields(doc.get(name, {}), defaults, f"{name}."))
               for name, defaults in _SECTIONS.items())
    for name in ("generator", "sddp", "assessment"):
        if not 0 <= raw[name]["seed"] < 2 ** 64:
            raise ConfigError(f"{name}.seed", "must be an unsigned 64-bit integer")
    for (name, key), least in _MINIMUMS.items():
        if raw[name][key] < least:
            raise ConfigError(f"{name}.{key}", f"must be >= {least}")

    sys_doc, gen = raw["system"], raw["generator"]
    # the tank must cover one full-rate hot-water spike over a step
    min_floor = sys_doc["delta"] * gen["d_hw_cap"]
    if "h_floor" not in doc["system"]:
        sys_doc["h_floor"] = min_floor
    elif sys_doc["h_floor"] < min_floor - 1e-9:
        raise ConfigError("system.h_floor",
                          f"{sys_doc['h_floor']} is below system.delta * generator.d_hw_cap"
                          f" = {min_floor}; one hot-water spike could empty the tank")
    system = _system_params(sys_doc)

    raw["initial_state"] = _fields(
        doc.get("initial_state", {}),
        {"b": system.b_min, "h": system.h_max / 2.0, "theta_w": 20.0, "theta_i": 20.0},
        "initial_state.")
    x0 = State(**raw["initial_state"])
    try:
        system.check_state(x0)
    except ValueError as exc:
        raise ConfigError("initial_state", str(exc)) from exc

    try:
        generator = GeneratorConfig(
            delta=system.delta, horizon_steps=system.horizon_steps,
            **{k: tuple(v) if isinstance(v, list) else v for k, v in gen.items() if k != "seed"})
    except ValueError as exc:
        raise ConfigError("generator", str(exc)) from exc

    sddp, assessment = raw["sddp"], raw["assessment"]
    return RunConfig(
        system=system, initial_state=x0, generator=generator,
        generator_seed=gen["seed"], sddp_s_offline=sddp["s_offline"],
        sddp_max_iters=sddp["max_iters"], sddp_lb_tol=sddp["lb_tol"],
        sddp_patience=sddp["patience"], sddp_seed=sddp["seed"],
        heuristic_margin=raw["heuristic"]["margin_deg_c"],
        n_opt=assessment["n_opt"], n_sim=assessment["n_sim"],
        split_seed=assessment["seed"], raw=raw,
    )


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
        "heuristic": {"margin_deg_c": 1.0},
        "assessment": {"n_opt": 200, "n_sim": 200, "seed": 42},
    }


def manifest(config: RunConfig) -> dict:
    """Reproducibility record: config hash, package and library versions and
    the LP solver path (warm persistent HiGHS, or cold `linprog` solves when
    the bundled bindings are missing)."""
    import scipy

    from . import __version__

    blob = json.dumps(config.normalized(), sort_keys=True).encode()
    return {
        "config_sha256": hashlib.sha256(blob).hexdigest(),
        "microgrid_ems": __version__,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "solver_path": "cold-linprog" if lp._highs_core is None else "warm-persistent",
    }
