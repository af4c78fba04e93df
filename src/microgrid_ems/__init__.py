"""Stochastic energy management toolkit for a domestic microgrid.

Models a battery / hot-water-tank / heated-building system, trains an SDDP
policy against quantized demand noise, and compares it out of sample with an
MPC controller and a rule-based heuristic.

The top level exports the workflow the `mgems bench` command runs: load a
config, draw and split scenarios, quantize and fit the noise models, train
SDDP, build the three policies and assess them. Everything else lives in the
submodules.
"""

__version__ = "0.1.0"  # pyproject.toml reads the package version here

from .config import ConfigError, day_config, load_config
from .scenarios import fit_ar, generate_scenarios, quantize_stagewise, scenario_means
from .policies import (
    HeuristicPolicy,
    MpcPolicy,
    SddpPolicy,
    StoppingRule,
    ValueFunctions,
    sddp_train,
)
from .assess import run_assessment, split_scenarios

__all__ = [
    "ConfigError",
    "day_config",
    "load_config",
    "generate_scenarios",
    "split_scenarios",
    "quantize_stagewise",
    "fit_ar",
    "scenario_means",
    "StoppingRule",
    "sddp_train",
    "ValueFunctions",
    "HeuristicPolicy",
    "MpcPolicy",
    "SddpPolicy",
    "run_assessment",
]
