"""Benchmark runner for the microgrid EMS toolkit.

Run from the root of a checkout:

    python3 perfbench/run.py --workload assess-summer --seed 1 --seconds 30 --trace 0

The library is imported from the checkout's `src/` (it is pure Python, so
there is nothing to build). With `--trace 0` the run prints every end-to-end
metric; with `--trace 1` it runs the workload twice at its minimum size, once
untraced and once traced, and prints every per-layer metric, including the
tracing overhead (traced minus untraced wall time). Human-readable lines come
first; the last line of standard output is one JSON object. Spans of a traced
run and the full record of every run are written under `.perfbench_out/`.

Exit status: 0 on success, 1 when an output check fails, 2 when the library
cannot be found or the arguments are invalid (no result is printed then).
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

LIB_MODULES = ("config", "scenarios", "stagelp", "lp", "policies", "assess", "cli", "model")


class MissingLibrary(Exception):
    pass


class Lib:
    """The library's modules, imported from this checkout's src/."""

    def __init__(self, root: Path):
        src = root / "src"
        package = src / "microgrid_ems"
        if not (package / "__init__.py").is_file() or not (root / "configs").is_dir():
            raise MissingLibrary(f"no microgrid_ems package under {src} or no configs/ "
                                 "directory; run from the root of a checkout")
        sys.path.insert(0, str(src))
        for name in LIB_MODULES:
            setattr(self, name, importlib.import_module(f"microgrid_ems.{name}"))
        loaded = Path(self.config.__file__).resolve()
        if package.resolve() not in loaded.parents:
            raise MissingLibrary(f"imported {loaded}, not the checkout's package")


def environment(lib: Lib) -> dict:
    import numpy
    import scipy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    warm = lib.lp._highs_core is not None
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        # without the private HiGHS bindings every re-solve is a cold linprog
        "solver_path": "warm-persistent" if warm else "cold-linprog",
    }


def run_workload(lib, args, tracer, minimal=False):
    """One pass of the workload; `minimal` skips the work repeated to fill
    --seconds, so that a traced and an untraced pass do the same work."""
    spec = (workloads.TINY if args.size == "tiny" else workloads.FULL)[args.workload]
    work_dir = OUT / f"{args.workload}-seed{args.seed}"
    run = workloads.run_bench if isinstance(spec, workloads.Bench) else workloads.run_in_process
    return run(lib, ROOT, spec, args.seed, args.seconds, tracer, work_dir, minimal)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.FULL))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a few seconds per workload, for the self-test")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        lib = Lib(ROOT)
    except (MissingLibrary, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    env = environment(lib)
    print("env: " + json.dumps(env), flush=True)
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"

    if args.trace:
        tic = perf_counter()
        untraced = run_workload(lib, args, tracing.NullTracer(), minimal=True)
        untraced_s = perf_counter() - tic
        tracer = tracing.Tracer()
        patches = tracing.instrument(lib, tracer)
        try:
            tic = perf_counter()
            outcome = run_workload(lib, args, tracer, minimal=True)
            traced_s = perf_counter() - tic
        finally:
            patches.restore()
        outcome.attempted += untraced.attempted
        outcome.failed += untraced.failed
        outcome.errors += untraced.errors
        outcome.check("untraced_pass_correct", untraced.correct,
                      "checks of the untraced pass the overhead is measured against")
        values = layers.per_layer_values(tracer, outcome.cut_counts, traced_s - untraced_s)
        trace_path = OUT / f"trace-{tag}.json"
        tracer.write(trace_path, {"workload": args.workload, "seed": args.seed,
                                  "size": args.size, "env": env})
        print(f"trace: {len(tracer.spans)} spans in {trace_path.relative_to(ROOT)}; "
              f"untraced {untraced_s:.3f} s, traced {traced_s:.3f} s")
    else:
        outcome = run_workload(lib, args, tracing.NullTracer())
        values = dict(outcome.metrics)
        if outcome.metrics:
            values["success_rate"] = 1.0 - outcome.failed / max(outcome.attempted, 1)

    for check, result in outcome.checks.items():
        print(f"check {check}: {'ok' if result['ok'] else 'FAILED'} ({result['detail']})")
    for error in outcome.errors:
        print(f"error: {error}")
    for key, note in outcome.notes.items():
        print(f"note {key}: {note}")
    expected = [n for n, *_ in (layers.PER_LAYER if args.trace else layers.END_TO_END)]
    missing = [n for n in expected if n not in values]
    if missing:
        outcome.check("metrics_complete", False, f"missing: {missing}")
    metrics = {n: {"value": values[n], "unit": layers.UNITS[n]} for n in expected
               if n in values}
    for n, m in metrics.items():
        print(f"{n}: {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"error_rate: {outcome.failed / max(outcome.attempted, 1):.6g} "
              f"({outcome.failed} failed of {outcome.attempted} operations)")
    result = {"correct": outcome.correct, "attempted": max(outcome.attempted, 1),
              "failed": outcome.failed, "metrics": metrics}
    record = {**result, "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "size": args.size, "env": env,
              "checks": outcome.checks, "errors": outcome.errors, "notes": outcome.notes}
    with open(OUT / f"result-{tag}-trace{args.trace}.json", "w") as f:
        json.dump(record, f, indent=1)
    print(json.dumps(result), flush=True)
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
