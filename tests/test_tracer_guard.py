"""The benchmark's tracer still fits the library.

`perfbench/tracing.instrument` wraps library entry points by name; a name
it wraps that the library no longer has fails here, in milliseconds, rather
than only in the slower `python3 -m pytest perfbench` self-test. The tracer
itself is read, not changed.
"""

import importlib.util
import types
from pathlib import Path

import microgrid_ems
from microgrid_ems import assess, config, lp, policies, scenarios, stagelp
from microgrid_ems.policies import StoppingRule

from helpers import battery_params, battery_x0, two_point_dists

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def library():
    return types.SimpleNamespace(config=config, scenarios=scenarios, stagelp=stagelp,
                                 lp=lp, policies=policies, assess=assess)


def attributes(lib):
    """Every public attribute of the traced modules and of their classes."""
    seen = {}
    for module in vars(lib).values():
        for name, value in vars(module).items():
            seen[(module.__name__, name)] = value
            if isinstance(value, type) and value.__module__.startswith(microgrid_ems.__name__):
                for attr, member in vars(value).items():
                    seen[(module.__name__, name, attr)] = member
    return seen


def test_instrument_and_restore():
    tracing = load_tracing()
    lib = library()
    before = attributes(lib)
    patches = tracing.instrument(lib, tracing.Tracer())
    try:
        traced = attributes(lib)
    finally:
        patches.restore()
    assert traced.keys() == before.keys()
    assert any(traced[key] is not before[key] for key in before)
    after = attributes(lib)
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_traced_training_opens_iteration_groups():
    # the tracer reads a stage LP's stage from the third positional argument
    # of OneStageDecision(p, t, ...) to start a group per SDDP iteration
    tracing = load_tracing()
    tracer = tracing.Tracer()
    patches = tracing.instrument(library(), tracer)
    try:
        policies.sddp_train(battery_params(), two_point_dists(), battery_x0(),
                            StoppingRule(max_iters=2, lb_tol=0.0), seed=0)
    finally:
        patches.restore()
    assert tracer.groups.count("sddp.iteration") >= 1
    assert tracer.summary()[2]["stagelp.one_stage.build"] == battery_params().horizon_steps
