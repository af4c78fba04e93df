"""Metric definitions: end-to-end metrics and per-layer metrics.

BENCHMARK.json lists the same names, units and directions; `test_selftest.py`
checks that the two agree. Each per-layer metric also records the end-to-end
metric it should move and the workload where that shows, which
BENCHMARK.json has no field for.
"""

from __future__ import annotations

# name, unit, better
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("train_s", "s", "lower"),
    ("train_lb", "cost", "higher"),
    ("decision_ms.sddp.p50", "ms", "lower"),
    ("decision_ms.sddp.p99", "ms", "lower"),
    ("decision_ms.mpc.p50", "ms", "lower"),
    ("decision_ms.mpc.p99", "ms", "lower"),
    ("assess_scen_per_s", "1/s", "higher"),
    ("cost_mean.sddp", "cost", "lower"),
    ("cost_mean.mpc", "cost", "lower"),
    ("cost_mean.heuristic", "cost", "lower"),
    ("pipeline_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("success_rate", "ratio", "higher"),
]

# name, unit, better, end-to-end metric it should move, workload where it shows
PER_LAYER = [
    ("stagelp.pinned.self_s", "s", "lower", "train_s", "assess-summer"),
    ("stagelp.one_stage.build_s", "s", "lower", "train_s; setup_s", "assess-summer"),
    ("stagelp.one_stage.builds", "count", "lower", "train_s; setup_s", "assess-summer"),
    ("stagelp.one_stage.solve.self_s", "s", "lower", "decision_ms.sddp.*", "assess-summer"),
    ("stagelp.chain.build_s", "s", "lower", "setup_s", "assess-summer"),
    ("stagelp.chain.solve.self_s", "s", "lower", "decision_ms.mpc.*", "assess-summer"),
    ("lp.solve.self_s", "s", "lower", "train_s", "assess-summer"),
    ("lp.solve.calls", "count", "lower", "train_s", "assess-summer"),
    ("lp.persistent.init_s", "s", "lower", "train_s", "assess-summer"),
    ("lp.persistent.inits", "count", "lower", "train_s", "assess-summer"),
    ("lp.persistent.solve.self_s", "s", "lower", "decision_ms.*", "assess-summer"),
    ("lp.persistent.reuse", "ratio", "higher", "train_s; decision_ms.*", "assess-summer"),
    ("highs.cold_s", "s", "lower", "train_s", "assess-summer"),
    ("highs.cold_calls", "count", "lower", "train_s", "assess-summer"),
    ("highs.warm_s", "s", "lower", "decision_ms.*", "assess-summer"),
    ("highs.warm_runs", "count", "lower", "decision_ms.*", "assess-summer"),
    ("highs.bound_updates", "count", "lower", "decision_ms.sddp.*", "assess-summer"),
    ("highs.bound_updates_s", "s", "lower", "decision_ms.sddp.*", "assess-summer"),
    ("highs.simplex_iters.cold", "count", "lower", "train_s", "assess-summer"),
    ("highs.simplex_iters.warm", "count", "lower", "decision_ms.*", "assess-summer"),
    ("policies.sddp_train.self_s", "s", "lower", "train_s", "assess-summer"),
    ("policies.sddp.cuts_total", "count", "lower", "train_s (must not move)", "assess-summer"),
    ("policies.sddp.cuts_per_stage_max", "count", "lower", "train_s (must not move)",
     "assess-summer"),
    ("policies.mpc.decide.self_s", "s", "lower", "decision_ms.mpc.*", "assess-summer"),
    ("scenarios.update_forecast_s", "s", "lower", "decision_ms.mpc.*", "assess-summer"),
    ("assess.simulate_policy.self_s", "s", "lower", "assess_scen_per_s", "assess-summer"),
    ("model.s", "s", "lower", "assess_scen_per_s", "assess-summer"),
    ("model.calls", "count", "lower", "assess_scen_per_s", "assess-summer"),
    ("scenarios.generate_s", "s", "lower", "setup_s", "all"),
    ("scenarios.quantize_s", "s", "lower", "setup_s", "all"),
    ("scenarios.lloyd_max.calls", "count", "lower", "setup_s", "all"),
    ("config.load_s", "s", "lower", "setup_s", "all"),
    ("io.write_s", "s", "lower", "pipeline_s", "bench-spring"),
    ("assess.fanout.wait_s", "s", "lower", "pipeline_s", "bench-spring"),
    ("trace.spans", "count", "lower", "none (tracing cost)", "all"),
    ("trace.overhead_s", "s", "lower", "none (tracing cost)", "all"),
]

# Counts that must repeat exactly between two traced runs of one workload.
EXACT_COUNTS = [
    "lp.solve.calls",
    "lp.persistent.inits",
    "highs.cold_calls",
    "highs.warm_runs",
    "highs.bound_updates",
    "highs.simplex_iters.cold",
    "highs.simplex_iters.warm",
    "policies.sddp.cuts_total",
]

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def per_layer_values(tracer, cut_counts, overhead_s: float) -> dict:
    """Per-layer metric values from one traced pass."""
    total, own, calls = tracer.summary()
    inits = calls["lp.persistent.init"]
    reuse = calls["lp.persistent.solve"] / inits if inits else 0.0
    values = {
        "stagelp.pinned.self_s": own["stagelp.pinned"],
        "stagelp.one_stage.build_s": total["stagelp.one_stage.build"],
        "stagelp.one_stage.builds": calls["stagelp.one_stage.build"],
        "stagelp.one_stage.solve.self_s": own["stagelp.one_stage.solve"],
        "stagelp.chain.build_s": total["stagelp.chain.build"],
        "stagelp.chain.solve.self_s": own["stagelp.chain.solve"],
        "lp.solve.self_s": own["lp.solve"],
        "lp.solve.calls": calls["lp.solve"],
        "lp.persistent.init_s": total["lp.persistent.init"],
        "lp.persistent.inits": inits,
        "lp.persistent.solve.self_s": own["lp.persistent.solve"],
        "lp.persistent.reuse": reuse,
        "highs.cold_s": total["highs.cold"],
        "highs.cold_calls": calls["highs.cold"],
        "highs.warm_s": total["highs.warm"],
        "highs.warm_runs": calls["highs.warm"],
        "highs.bound_updates": tracer.leaf_n["highs.bound_update"],
        "highs.bound_updates_s": tracer.leaf_s["highs.bound_update"],
        "highs.simplex_iters.cold": tracer.counts["highs.simplex_iters.cold"],
        "highs.simplex_iters.warm": tracer.counts["highs.simplex_iters.warm"],
        "policies.sddp_train.self_s": own["policies.sddp_train"],
        "policies.sddp.cuts_total": sum(cut_counts),
        "policies.sddp.cuts_per_stage_max": max(cut_counts, default=0),
        "policies.mpc.decide.self_s": own["policies.mpc.decide"],
        "scenarios.update_forecast_s": total["scenarios.update_forecast"],
        "assess.simulate_policy.self_s": own["assess.simulate_policy"],
        "model.s": tracer.leaf_s["model"],
        "model.calls": tracer.leaf_n["model"],
        "scenarios.generate_s": total["scenarios.generate"],
        "scenarios.quantize_s": total["scenarios.quantize"],
        "scenarios.lloyd_max.calls": calls["scenarios.lloyd_max"],
        "config.load_s": total["config.load"],
        "io.write_s": total["io.write"],
        "assess.fanout.wait_s": total["assess.fanout.wait"],
        "trace.spans": len(tracer.spans),
        "trace.overhead_s": overhead_s,
    }
    assert list(values) == [name for name, *_ in PER_LAYER]
    return values
