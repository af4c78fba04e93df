"""The benchmark's tracer still fits the library.

`perfbench/tracing.instrument` wraps library entry points by name; a name
it wraps that the library no longer has fails here, in milliseconds, rather
than only in the slower `python3 -m pytest perfbench` self-test. The tracer
itself is read, not changed.
"""

import importlib.util
import types
from pathlib import Path

import numpy as np

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


def test_traced_online_play_skips_runs():
    # online SDDP stage LPs keep their bases through the tracer's HiGHS proxy
    # (basis reads and basis solves pass through it), and restoring the
    # patches still returns every attribute
    tracing = load_tracing()
    lib = library()
    p, x0, dists = battery_params(), battery_x0(), two_point_dists()
    vf, _ = policies.sddp_train(p, dists, x0, StoppingRule(max_iters=8, lb_tol=0.0), seed=0)
    rng = np.random.default_rng(4)
    days = np.zeros((8, p.horizon_steps + 1, 2))
    days[:, 1:, 0] = rng.uniform(0.5, 2.0, (8, p.horizon_steps))
    before = attributes(lib)
    tracer = tracing.Tracer()
    patches = tracing.instrument(lib, tracer)
    try:
        policy = policies.SddpPolicy(p, vf, dists)
        for day in days:
            assess.simulate_policy(policy, day, x0, p)
    finally:
        patches.restore()
    after = attributes(lib)
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    calls = tracer.summary()[2]
    assert calls["policies.sddp.decide"] == days.shape[0] * p.horizon_steps
    # each stage LP runs HiGHS on its first solve; later ones may skip it
    assert p.horizon_steps <= calls["highs.warm"] < calls["policies.sddp.decide"]


def test_traced_mpc_day_spans_each_decision():
    # the benchmark's MPC layers time the names MpcPolicy.decide calls: one
    # forecast and one chain solve per decision
    tracing = load_tracing()
    lib = library()
    p, x0 = battery_params(), battery_x0()
    rng = np.random.default_rng(5)
    days = np.zeros((4, p.horizon_steps + 1, 2))
    days[..., 0] = rng.uniform(0.5, 2.0, days.shape[:2])
    opt = scenarios.ScenarioSet(data=days[:3])
    before = attributes(lib)
    tracer = tracing.Tracer()
    patches = tracing.instrument(lib, tracer)
    try:
        policy = policies.MpcPolicy(p, x0, scenarios.fit_ar(opt), scenarios.scenario_means(opt))
        assess.simulate_policy(policy, days[3], x0, p)
    finally:
        patches.restore()
    assert all(attributes(lib)[key] is value for key, value in before.items())
    calls = tracer.summary()[2]
    assert calls["policies.mpc.decide"] == p.horizon_steps
    assert calls["scenarios.update_forecast"] == p.horizon_steps
    assert calls["stagelp.chain.solve"] == p.horizon_steps
