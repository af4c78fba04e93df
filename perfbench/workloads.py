"""The benchmark's workloads and their output checks.

Every workload drives the library through its public functions only. The
load comes from this one process (closed loop: each decision waits for the
previous one). The seed overrides the generator, SDDP and split seeds, as
`mgems --seed` does. Every workload reports every end-to-end metric.

* assess-summer: SDDP training (the build-once, solve-once path: each
  iteration cold-builds and cold-solves 96 pinned stage LPs and builds 96
  fresh one-stage LPs), then heuristic, MPC and SDDP on held-out summer days
  in this process (the build-once, re-solve-many path: warm re-solves of
  persistent LPs, bound updates, forecasts and the simulate_policy checks).
  Summer's PV surplus drives battery cycling and spill, which winter lacks.
* bench-spring: `mgems bench` end to end with two worker processes, the only
  path through the CLI, the artifact writers and the process fan-out. The
  spring day runs at half resolution (48 steps of 30 minutes): at full
  resolution its lower bound is still climbing steeply after 15 iterations.
  After each invocation its artifacts are replayed in this process, which
  times the decisions and must reproduce costs.csv.

A training-only winter workload was tried and dropped: its decision metrics
came from a tail of a few seconds and spread beyond their bounds on this
machine, and assess-summer's training already covers its layers.

Training runs a fixed number of iterations with the stall rule off. On
summer, sixteen iterations bring the lower bound and the SDDP bill within a
few per cent across seeds; ten leave them seed-dependent by 10-15%.

The in-process pipeline is: data set-up (K times), training, policy set-up
with one warm-up scenario per policy (K times), then assessment. Set-up is
repeated so that its median is steady.
"""
from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import math
import resource
import statistics
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from tracing import Patches

LB_TOL = 1e-7       # lower-bound monotonicity tolerance of the acceptance suite
PF_TOL = 1e-6       # policy cost may not undercut perfect foresight by more
PF_CHECKS = 4       # assessed scenarios checked against perfect foresight
WINDOWS = 5         # latency windows over the fixed scenarios; metrics are their medians
MEAN_RTOL = 1e-12   # report.json means against costs.csv
REPLAY_RTOL = 1e-9  # artifact replay against costs.csv
POLICIES = ("heuristic", "sddp", "mpc")
BENCH_ARTIFACTS = ("manifest.json", "scenarios.csv", "cuts.json", "distributions.json",
                   "training_log.csv", "report.json", "costs.csv", "gaps.csv")


@dataclass(frozen=True)
class InProcess:
    day: str
    iterations: int      # SDDP iterations, stall rule off
    n_cost: int          # held-out scenarios every run plays; cost means use these;
                         # further ones are played until the run has measured --seconds
    setup_reps: int


@dataclass(frozen=True)
class Bench:
    day: str
    stride: int          # keep every stride-th step of the day (coarser, shorter LPs)
    iterations: int
    n_opt: int
    n_sim: int
    threads: int
    min_invocations: int


FULL = {
    "assess-summer": InProcess("summer", iterations=16, n_cost=60, setup_reps=3),
    "bench-spring": Bench("spring", stride=2, iterations=8, n_opt=200, n_sim=32,
                          threads=2, min_invocations=5),
}

TINY = {
    "assess-summer": InProcess("summer", iterations=2, n_cost=2, setup_reps=1),
    "bench-spring": Bench("spring", stride=2, iterations=2, n_opt=8, n_sim=4, threads=2,
                          min_invocations=2),
}


class Outcome:
    """Operations attempted and failed, checks passed, and metric values."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        self.checks: dict = {}
        self.metrics: dict = {}
        self.notes: dict = {}
        self.cut_counts: list = []

    def check(self, name: str, ok: bool, detail: str = ""):
        ok = bool(ok)
        prev = self.checks.get(name)
        if prev is None or prev["ok"]:
            self.checks[name] = {"ok": ok, "detail": detail}

    def fail(self, what: str, exc: BaseException):
        self.failed += 1
        self.errors.append(f"{what}: {exc!r}")

    @property
    def correct(self) -> bool:
        return all(c["ok"] for c in self.checks.values())


class TimedPolicy:
    """Hands a policy to `run_assessment` and times each `decide` call."""

    def __init__(self, policy, samples: list):
        self._policy = policy
        self.name = policy.name
        self.samples = samples

    def reset(self):
        reset = getattr(self._policy, "reset", None)
        if reset is not None:
            reset()

    def decide(self, t, x, w_obs):
        tic = perf_counter()
        decision = self._policy.decide(t, x, w_obs)
        self.samples.append(perf_counter() - tic)
        return decision


def tail_percentile(n: int) -> float:
    """Highest of 99 and below with at least ten samples beyond it."""
    if n <= 10:
        return 50.0
    return min(99.0, 100.0 * (1.0 - 10.0 / n))


def latency_metrics(windows: list, out: Outcome):
    """p50 and tail percentile of the decision times in each window, then the
    median over windows: a burst of machine noise moves one window, not all."""
    for name in ("sddp", "mpc"):
        per = [1e3 * np.asarray(w[name], dtype=float) for w in windows if w[name]]
        qs = [tail_percentile(ms.size) for ms in per]
        out.metrics[f"decision_ms.{name}.p50"] = float(
            np.median([np.percentile(ms, 50) for ms in per]))
        out.metrics[f"decision_ms.{name}.p99"] = float(
            np.median([np.percentile(ms, q) for ms, q in zip(per, qs)]))
        out.notes[f"decision_ms.{name}"] = {"samples": sum(ms.size for ms in per),
                                            "windows": len(per), "tail_percentile": min(qs)}


def peak_rss_mb(workers: int = 0) -> float:
    """Peak RSS of this process, plus `workers` times the largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0


SERIES = ("theta_o", "p_int", "p_ext", "pi_e", "pi_d", "theta_set")


def write_config(root: Path, day: str, dest: Path, seed: int, iterations: int,
                 n_opt=None, n_sim=None, stride: int = 1) -> Path:
    """The bundled day config with the seed override and a fixed iteration
    count; `stride` keeps every stride-th step of the day."""
    with open(root / "configs" / f"{day}.json") as f:
        doc = json.load(f)
    system = doc["system"]
    if stride > 1:
        system["horizon_steps"] //= stride
        system["delta"] *= stride
        for name in SERIES:
            system[name] = system[name][::stride]
        # One longer step can draw delta * d_hw_cap from the tank; the floor
        # must cover that draw or a full-rate spike empties the tank.
        cap = doc.get("generator", {}).get("d_hw_cap", 2.6)
        system["h_floor"] = max(system.get("h_floor", 0.0), system["delta"] * cap)
    for section in ("generator", "sddp", "assessment"):
        doc.setdefault(section, {})["seed"] = seed
    # lb_tol = 0 turns the stall rule off, so every run trains `iterations`
    doc["sddp"].update(max_iters=iterations, lb_tol=0.0)
    if n_opt is not None:
        doc["assessment"].update(n_opt=n_opt, n_sim=n_sim)
    dest.parent.mkdir(parents=True, exist_ok=True)
    with open(dest, "w") as f:
        json.dump(doc, f)
    return dest


def check_lower_bounds(lbs, out: Outcome, what: str):
    diffs = np.diff(np.asarray(lbs, dtype=float))
    worst = float(diffs.min()) if diffs.size else 0.0
    out.check("lower_bound_monotone", worst >= -LB_TOL,
              f"{what}: min increment {worst:.3e} over {len(lbs)} iterations")


def check_perfect_foresight(lib, cfg, scenarios, costs: dict, idx, out: Outcome):
    """Each policy's bill is at least the scenario's anticipative optimum."""
    worst = math.inf
    for i in idx:
        pf = lib.policies.perfect_foresight_cost(cfg.system, cfg.initial_state, scenarios[i])
        for name, values in costs.items():
            if not math.isnan(values[i]):
                worst = min(worst, values[i] - pf)
    out.check("perfect_foresight_bound", worst >= -PF_TOL,
              f"min(policy cost - perfect foresight) = {worst:.3e} on {len(idx)} scenarios")


def sample_indices(n: int, k: int = PF_CHECKS):
    return sorted({int(round(v)) for v in np.linspace(0, n - 1, max(1, min(k, n)))})


# ---------------------------------------------------------------------------
# In-process pipeline (assess-summer)


def _prepare(lib, cfg_path):
    cfg = lib.config.load_config(cfg_path)
    pool = lib.scenarios.generate_scenarios(cfg.generator, cfg.n_opt + cfg.n_sim,
                                            cfg.generator_seed)
    opt, sim = lib.assess.split_scenarios(pool, cfg.n_opt, cfg.split_seed)
    dists = lib.scenarios.quantize_stagewise(opt, s=cfg.sddp_s_offline, seed=cfg.sddp_seed)
    ar = lib.scenarios.fit_ar(opt)
    means = lib.scenarios.scenario_means(opt)
    return cfg, sim, dists, ar, means


def _policies(lib, cfg, vf, dists, ar, means):
    p, x0, pol = cfg.system, cfg.initial_state, lib.policies
    return {
        "heuristic": pol.HeuristicPolicy(p, x0, cfg.heuristic_margin),
        "sddp": pol.SddpPolicy(p, vf, dists),
        "mpc": pol.MpcPolicy(p, x0, ar, means),
    }


def _assess_batch(lib, cfg, proxies, batch, costs, out: Outcome):
    """Play a batch through run_assessment; on an error, replay it one
    scenario and policy at a time so each failure is counted."""
    p, x0 = cfg.system, cfg.initial_state
    out.attempted += len(batch) * len(proxies)
    try:
        report = lib.assess.run_assessment(
            proxies, lib.scenarios.ScenarioSet(batch, role="assessment"), x0, p, threads=1)
    except Exception:  # noqa: BLE001 - attribute the failure per operation below
        for scenario in batch:
            for name, proxy in proxies.items():
                try:
                    res = lib.assess.simulate_policy(proxy, scenario, x0, p)
                    costs[name].append(res.total_cost)
                except Exception as exc:  # noqa: BLE001 - counted, run continues
                    out.fail(f"{name} scenario", exc)
                    costs[name].append(math.nan)
        return
    for name in proxies:
        costs[name].extend(float(c) for c in report.costs[name])


def run_in_process(lib, root: Path, spec: InProcess, seed: int, seconds: float,
                   tracer, work_dir: Path, minimal: bool = False) -> Outcome:
    out = Outcome()
    cfg_path = write_config(root, spec.day, work_dir / "config.json", seed, spec.iterations)
    measured_start = perf_counter()

    data_s = []
    for _ in range(spec.setup_reps):
        with tracer.span("bench.setup.data"):
            tic = perf_counter()
            cfg, sim, dists, ar, means = _prepare(lib, cfg_path)
            data_s.append(perf_counter() - tic)

    stop = lib.policies.StoppingRule(max_iters=cfg.sddp_max_iters, lb_tol=cfg.sddp_lb_tol,
                                     patience=cfg.sddp_patience)
    out.attempted += spec.iterations
    tic = perf_counter()
    try:
        vf, log = lib.policies.sddp_train(cfg.system, dists, cfg.initial_state,
                                          stop=stop, seed=cfg.sddp_seed)
    except Exception as exc:  # noqa: BLE001 - counted; nothing after training can run
        out.failed += spec.iterations
        out.errors.append(f"sddp_train: {exc!r}")
        out.check("training_completed", False, repr(exc))
        return out
    train_s = perf_counter() - tic
    out.check("training_completed", log.iterations == spec.iterations,
              f"{log.iterations} of {spec.iterations} iterations")
    with tracer.pause():
        check_lower_bounds(log.lower_bounds, out, spec.day)
    out.cut_counts = vf.cut_counts()

    # A warm-up scenario per policy builds the lazily cached stage LPs, so the
    # latency windows all see warm LPs; the last held-out scenario is used so
    # the assessed ones stay unseen.
    warmup = sim.data[-1]
    policy_s = []
    for _ in range(spec.setup_reps):
        with tracer.span("bench.setup.policies"):
            tic = perf_counter()
            policies = _policies(lib, cfg, vf, dists, ar, means)
            for name, policy in policies.items():
                out.attempted += 1
                try:
                    lib.assess.simulate_policy(policy, warmup, cfg.initial_state, cfg.system)
                except Exception as exc:  # noqa: BLE001 - counted, run continues
                    out.fail(f"{name} warm-up", exc)
            policy_s.append(perf_counter() - tic)

    proxies = {name: TimedPolicy(policy, []) for name, policy in policies.items()}
    windows = []
    costs = {name: [] for name in policies}

    def play(lo, hi):
        window = {name: [] for name in proxies}
        for name, proxy in proxies.items():
            proxy.samples = window[name]
        windows.append(window)
        tic = perf_counter()
        _assess_batch(lib, cfg, proxies, sim.data[lo:hi], costs, out)
        return perf_counter() - tic

    n_max = sim.n - 1
    n_cost = min(spec.n_cost, n_max)
    # run_assessment needs two scenarios per call
    edges = np.linspace(0, n_cost, max(1, min(WINDOWS, n_cost // 2)) + 1).astype(int)
    with tracer.span("bench.assess"):
        cost_assess_s = sum(play(lo, hi) for lo, hi in zip(edges[:-1], edges[1:]))
        assess_s = cost_assess_s
        played = n_cost
        while not minimal and played < n_max and perf_counter() - measured_start < seconds:
            upto = min(n_max, played + 12)
            assess_s += play(played, upto)
            played = upto

    with tracer.pause():
        check_perfect_foresight(lib, cfg, sim.data, costs, sample_indices(n_cost), out)
        finite = all(np.all(np.isfinite(costs[name][:n_cost])) for name in costs)
        out.check("costs_finite", finite, f"{n_cost} scenarios x {len(costs)} policies")

    m = out.metrics
    m["setup_s"] = statistics.median(d + q for d, q in zip(data_s, policy_s))
    m["train_s"] = train_s
    m["train_lb"] = float(log.lower_bounds[-1])
    latency_metrics(windows, out)
    m["assess_scen_per_s"] = played / assess_s
    for name in POLICIES:
        m[f"cost_mean.{name}"] = float(np.nanmean(costs[name][:n_cost]))
    m["pipeline_s"] = data_s[-1] + train_s + policy_s[-1] + cost_assess_s
    m["peak_rss_mb"] = peak_rss_mb()
    out.notes.update(setup_reps=spec.setup_reps, iterations=spec.iterations,
                     cost_scenarios=n_cost, assessed_scenarios=played,
                     cuts_per_stage_max=max(out.cut_counts))
    return out


# ---------------------------------------------------------------------------
# bench-spring: the CLI end to end, then a replay of its artifacts


def _stopwatch(record: list):
    """Wrapper factory: appends (start, seconds) of each call to `record`."""

    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record.append((start, perf_counter() - start))
        return wrapper

    return make


def _read_bench_outputs(out_dir: Path, out: Outcome, n_sim: int):
    missing = [name for name in BENCH_ARTIFACTS if not (out_dir / name).is_file()]
    out.check("artifacts_written", not missing, f"missing: {missing}" if missing else "all")
    if missing:
        return None
    with open(out_dir / "training_log.csv", newline="") as f:
        lbs = [float(row["lower_bound"]) for row in csv.DictReader(f)]
    with open(out_dir / "report.json") as f:
        report = json.load(f)
    costs = {}
    with open(out_dir / "costs.csv", newline="") as f:
        for row in csv.DictReader(f):
            costs.setdefault(row["policy"], []).append(float(row["cost"]))
    means = {name: report["policies"][name]["mean"] for name in report["policies"]}
    agree = set(means) == set(costs) and all(
        math.isclose(means[name], float(np.mean(costs[name])), rel_tol=MEAN_RTOL)
        for name in means)
    out.check("report_means_match_costs_csv", agree,
              "report.json means vs per-policy means of costs.csv")
    out.check("report_covers_assessment",
              report.get("n_scenarios") == n_sim and all(len(v) == n_sim for v in costs.values()),
              f"{report.get('n_scenarios')} of {n_sim} scenarios")
    return lbs, means, costs


def run_bench(lib, root: Path, spec: Bench, seed: int, seconds: float, tracer,
              work_dir: Path, minimal: bool = False) -> Outcome:
    out = Outcome()
    cfg_path = write_config(root, spec.day, work_dir / "config.json", seed, spec.iterations,
                            n_opt=spec.n_opt, n_sim=spec.n_sim, stride=spec.stride)
    measured_start = perf_counter()
    starts, walls, trains, assesses = [], [], [], []
    windows = []
    first = None
    target = 1 if minimal else spec.min_invocations
    out_dir = work_dir / "out"
    while True:
        argv = ["bench", "--config", str(cfg_path), "--seed", str(seed),
                "--threads", str(spec.threads), "--out", str(out_dir)]
        out.attempted += 1
        echo = io.StringIO()
        # time training and assessment as the CLI calls them, in this process
        probes = Patches()
        probes.wrap(lib.policies, "sddp_train", _stopwatch(trains))
        probes.wrap(lib.assess, "run_assessment", _stopwatch(assesses))
        with tracer.span("cli.bench"), contextlib.redirect_stdout(echo):
            tic = perf_counter()
            try:
                code = lib.cli.main.main(args=argv, prog_name="mgems", standalone_mode=False)
            except Exception as exc:  # noqa: BLE001 - counted; checks below fail
                code = exc
            finally:
                probes.restore()
            wall = perf_counter() - tic
        (work_dir / "cli_stdout.txt").write_text(echo.getvalue())
        if code not in (None, 0):
            out.fail("mgems bench", RuntimeError(f"exit {code!r}"))
            out.check("cli_succeeded", False, f"exit {code!r}")
            return out
        starts.append(tic)
        walls.append(wall)
        with tracer.pause():
            outputs = _read_bench_outputs(out_dir, out, spec.n_sim)
        if outputs is None:
            return out
        lbs, means, costs = outputs
        if first is None:
            first = outputs
            with tracer.pause():
                check_lower_bounds(lbs, out, spec.day)
        else:
            out.check("invocations_repeat_exactly", lbs == first[0] and means == first[1],
                      f"{len(walls)} invocations")
        # a replay after every invocation: one latency window each, spread over the run
        windows.append({name: [] for name in POLICIES})
        replay_artifacts(lib, cfg_path, out_dir, spec, costs, windows[-1], tracer, out)
        if len(walls) >= target and (minimal or perf_counter() - measured_start >= seconds):
            break

    m = out.metrics
    # set-up: the CLI's work before training (config, generation, quantization)
    m["setup_s"] = statistics.median(start - tic for (start, _), tic in zip(trains, starts))
    m["train_s"] = statistics.median(seconds for _, seconds in trains)
    m["train_lb"] = lbs[-1]
    latency_metrics(windows, out)
    m["assess_scen_per_s"] = spec.n_sim / statistics.median(seconds for _, seconds in assesses)
    for name in POLICIES:
        m[f"cost_mean.{name}"] = means[name]
    m["pipeline_s"] = statistics.median(walls)
    m["peak_rss_mb"] = peak_rss_mb(workers=spec.threads)
    with open(out_dir / "cuts.json") as f:
        out.cut_counts = [len(stage) for stage in json.load(f)]
    out.notes.update(invocations=len(walls), iterations=spec.iterations,
                     n_opt=spec.n_opt, n_sim=spec.n_sim, threads=spec.threads,
                     cuts_per_stage_max=max(out.cut_counts))
    return out


def replay_artifacts(lib, cfg_path, out_dir: Path, spec: Bench, costs: dict, window: dict,
                     tracer, out: Outcome):
    """Replay the CLI's assessment from its written artifacts, one fresh
    policy set per worker chunk in the order the workers played them, adding
    each decision's time to `window`. The bills must reproduce costs.csv."""
    replayed = {name: [] for name in POLICIES}
    with tracer.span("bench.replay"):
        cfg = lib.config.load_config(cfg_path)
        pool = lib.scenarios.load_scenarios(out_dir / "scenarios.csv")
        opt, sim = lib.assess.split_scenarios(pool, cfg.n_opt, cfg.split_seed)
        vf = lib.policies.ValueFunctions.from_json(out_dir / "cuts.json")
        dists = lib.scenarios.load_distributions(out_dir / "distributions.json")
        ar = lib.scenarios.fit_ar(opt)
        means = lib.scenarios.scenario_means(opt)
        for chunk in np.array_split(np.arange(sim.n), spec.threads):
            if not len(chunk):
                continue
            policies = _policies(lib, cfg, vf, dists, ar, means)
            proxies = {name: TimedPolicy(policies[name], window[name]) for name in POLICIES}
            _assess_batch(lib, cfg, proxies, sim.data[chunk], replayed, out)
    with tracer.pause():
        agree = all(len(replayed[name]) == len(costs[name]) and all(
            math.isclose(a, b, rel_tol=REPLAY_RTOL) for a, b in zip(replayed[name], costs[name]))
            for name in POLICIES)
        out.check("replay_matches_costs_csv", agree,
                  "bills replayed from cuts.json/distributions.json/scenarios.csv")
        check_perfect_foresight(lib, cfg, sim.data, replayed, sample_indices(sim.n), out)
