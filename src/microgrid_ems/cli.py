"""Command-line entry point: generate / train / assess / bench.

Every command validates the configuration, seeds everything explicitly, and
writes a `manifest.json` (config hash + library versions) next to its
outputs so runs can be reproduced byte for byte.
"""

from __future__ import annotations

import csv
import json
import logging
import os
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import click

from . import assess as assess_mod
from . import config as config_mod
from . import policies as policies_mod
from . import scenarios as scenarios_mod

log = logging.getLogger("microgrid_ems")

EXIT_CONFIG = 2


def _setup_logging():
    level = os.environ.get("MICROGRID_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _load(config_path, seed):
    try:
        cfg = config_mod.load_config(config_path)
        if seed is not None:
            cfg = _override_seed(cfg, seed)
    except config_mod.ConfigError as exc:
        click.echo(f"configuration error: {exc}", err=True)
        raise click.exceptions.Exit(EXIT_CONFIG)
    return cfg


def _override_seed(cfg, seed):
    doc = json.loads(json.dumps(cfg.normalized()))
    doc["generator"]["seed"] = seed
    doc["sddp"]["seed"] = seed
    doc["assessment"]["seed"] = seed
    return config_mod.parse_config(doc)


def _write_manifest(cfg, out_dir: Path):
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "manifest.json", "w") as f:
        json.dump(config_mod.manifest(cfg), f, indent=1)


def _require_file(path: Path, what: str):
    if not path.exists():
        click.echo(f"missing {what} file: {path}", err=True)
        raise click.exceptions.Exit(EXIT_CONFIG)


def _read(reader, path, what: str):
    """Parse an input file; a malformed one exits 2 with one line naming it."""
    try:
        return reader(path)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        reason = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        click.echo(f"malformed {what} file {path}: {reason}", err=True)
        raise click.exceptions.Exit(EXIT_CONFIG)


@contextmanager
def _phase(name: str):
    """Log the wall time of one pipeline phase at INFO."""
    tic = perf_counter()
    yield
    log.info("phase %s: %.3f s", name, perf_counter() - tic)


def _require_horizon(path, horizon: int, cfg):
    """Artifacts trained for another horizon cannot be played on this one."""
    if horizon != cfg.system.horizon_steps:
        click.echo(f"{path} covers {horizon} stages, but the configuration has "
                   f"{cfg.system.horizon_steps}", err=True)
        raise click.exceptions.Exit(EXIT_CONFIG)


def _read_pool(path, cfg, held_out: int):
    """The scenario pool in `path`. It must cover the configuration's
    horizon and hold `held_out` paths past the n_opt it trains on."""
    pool = _read(scenarios_mod.load_scenarios, path, "scenario")
    _require_horizon(path, pool.horizon, cfg)
    if pool.n < cfg.n_opt + held_out:
        click.echo(f"{path} holds {pool.n} scenarios, but the configuration needs "
                   f"{cfg.n_opt + held_out}: n_opt {cfg.n_opt} and {held_out} held out",
                   err=True)
        raise click.exceptions.Exit(EXIT_CONFIG)
    return pool


def _threads(ctx, param, value):
    """The worker count: at least 1, or exit 2 with one line."""
    if value < 1:
        click.echo(f"--threads must be at least 1, got {value}", err=True)
        raise click.exceptions.Exit(EXIT_CONFIG)
    return value


@click.group()
def main():
    """Microgrid energy management: scenario generation, policy training
    and out-of-sample assessment."""
    _setup_logging()


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--seed", type=int, default=None, help="Override all seeds.")
@click.option("--out", "out_dir", default="out", type=click.Path())
def generate(config_path, seed, out_dir):
    """Draw the scenario pool (n_opt + n_sim paths) and write it as CSV."""
    cfg = _load(config_path, seed)
    out = Path(out_dir)
    _write_manifest(cfg, out)
    pool = scenarios_mod.generate_scenarios(
        cfg.generator, cfg.n_opt + cfg.n_sim, cfg.generator_seed)
    path = out / "scenarios.csv"
    scenarios_mod.save_scenarios(pool, path)
    log.info("wrote %d scenarios to %s", pool.n, path)
    click.echo(str(path))


def _train(cfg, opt, out: Path):
    with _phase("quantize"):
        dists = scenarios_mod.quantize_stagewise(
            opt, s=cfg.sddp_s_offline, seed=cfg.sddp_seed)
    stop = policies_mod.StoppingRule(max_iters=cfg.sddp_max_iters,
                                     lb_tol=cfg.sddp_lb_tol,
                                     patience=cfg.sddp_patience)
    with _phase("train"):
        vf, tlog = policies_mod.sddp_train(cfg.system, dists, cfg.initial_state,
                                           stop=stop, seed=cfg.sddp_seed)
    vf.to_json(out / "cuts.json")
    scenarios_mod.save_distributions(dists, out / "distributions.json")
    with open(out / "training_log.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["iteration", "lower_bound", "forward_cost", "total_cuts",
                    "iteration_s", "forward_s", "backward_s"])
        for i in range(tlog.iterations):
            w.writerow([i, repr(tlog.lower_bounds[i]),
                        repr(tlog.forward_costs[i]), tlog.cut_counts[i],
                        f"{tlog.iteration_seconds[i]:.6f}", f"{tlog.forward_seconds[i]:.6f}",
                        f"{tlog.backward_seconds[i]:.6f}"])
    return vf, dists, tlog


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--scenarios", "scenarios_path", required=True, type=click.Path())
@click.option("--seed", type=int, default=None)
@click.option("--out", "out_dir", default="out", type=click.Path())
def train(config_path, scenarios_path, seed, out_dir):
    """Quantize the optimization scenarios and train the SDDP cuts."""
    cfg = _load(config_path, seed)
    _require_file(Path(scenarios_path), "scenario")
    pool = _read_pool(scenarios_path, cfg, 1)
    out = Path(out_dir)
    _write_manifest(cfg, out)
    opt, _ = assess_mod.split_scenarios(pool, cfg.n_opt, cfg.split_seed)
    _, _, tlog = _train(cfg, opt, out)
    click.echo(f"trained {tlog.iterations} iterations, "
               f"lower bound {tlog.lower_bounds[-1]:.6f}")


def _build_policies(cfg, opt, vf, dists):
    p, x0 = cfg.system, cfg.initial_state
    ar = scenarios_mod.fit_ar(opt)
    means = scenarios_mod.scenario_means(opt)
    return {
        "heuristic": policies_mod.HeuristicPolicy(p, x0, cfg.heuristic_margin),
        "sddp": policies_mod.SddpPolicy(p, vf, dists),
        "mpc": policies_mod.MpcPolicy(p, x0, ar, means),
    }


def _assess(cfg, opt, sim, vf, dists, out: Path, threads, trajectories):
    policies = _build_policies(cfg, opt, vf, dists)
    report = assess_mod.run_assessment(policies, sim, cfg.initial_state,
                                       cfg.system, record_trajectories=trajectories,
                                       threads=threads)
    report.save(out / "report.json")
    report.save_costs_csv(out / "costs.csv")
    report.save_gaps_csv(out / "gaps.csv")
    if trajectories:
        report.save_trajectories_csv(out / "trajectories.csv")
    return report


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--scenarios", "scenarios_path", required=True, type=click.Path())
@click.option("--cuts", "cuts_path", required=True, type=click.Path())
@click.option("--distributions", "dists_path", required=True, type=click.Path())
@click.option("--seed", type=int, default=None)
@click.option("--threads", type=int, default=1, callback=_threads)
@click.option("--trajectories", is_flag=True, default=False)
@click.option("--out", "out_dir", default="out", type=click.Path())
def assess(config_path, scenarios_path, cuts_path, dists_path, seed, threads,
           trajectories, out_dir):
    """Assess heuristic / MPC / SDDP on the held-out scenarios."""
    cfg = _load(config_path, seed)
    for path, what in ((scenarios_path, "scenario"), (cuts_path, "cuts"),
                       (dists_path, "distributions")):
        _require_file(Path(path), what)
    vf = _read(policies_mod.ValueFunctions.from_json, cuts_path, "cuts")
    dists = _read(scenarios_mod.load_distributions, dists_path, "distributions")
    _require_horizon(cuts_path, vf.horizon, cfg)
    _require_horizon(dists_path, len(dists), cfg)
    pool = _read_pool(scenarios_path, cfg, 2)  # a confidence interval needs two
    out = Path(out_dir)
    _write_manifest(cfg, out)
    opt, sim = assess_mod.split_scenarios(pool, cfg.n_opt, cfg.split_seed)
    report = _assess(cfg, opt, sim, vf, dists, out, threads, trajectories)
    _echo_report(report)


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--seed", type=int, default=None)
@click.option("--threads", type=int, default=1, callback=_threads)
@click.option("--trajectories", is_flag=True, default=False)
@click.option("--out", "out_dir", default="out", type=click.Path())
def bench(config_path, seed, threads, trajectories, out_dir):
    """Full pipeline: generate, split, fit/quantize, train, assess."""
    cfg = _load(config_path, seed)
    out = Path(out_dir)
    _write_manifest(cfg, out)
    with _phase("generate"):
        pool = scenarios_mod.generate_scenarios(
            cfg.generator, cfg.n_opt + cfg.n_sim, cfg.generator_seed)
        scenarios_mod.save_scenarios(pool, out / "scenarios.csv")
    opt, sim = assess_mod.split_scenarios(pool, cfg.n_opt, cfg.split_seed)
    vf, dists, tlog = _train(cfg, opt, out)
    log.info("training done: %d iterations, lb %.6f",
             tlog.iterations, tlog.lower_bounds[-1])
    with _phase("assess"):
        report = _assess(cfg, opt, sim, vf, dists, out, threads, trajectories)
    _echo_report(report)


def _echo_report(report):
    for name in sorted(report.mean):
        click.echo(f"{name}: mean {report.mean[name]:.4f} "
                   f"+- {report.ci95[name]:.4f} (95% CI), "
                   f"{1e3 * report.timing_s[name]:.2f} ms/decision")
    if report.win_fraction is not None:
        click.echo(f"sddp beats mpc on {100 * report.win_fraction:.1f}% of scenarios")


@main.command("make-config")
@click.option("--day", required=True,
              type=click.Choice(["winter", "spring", "summer"]))
@click.option("--out", "out_path", required=True, type=click.Path())
def make_config(day, out_path):
    """Write one of the bundled synthetic day configurations."""
    doc = config_mod.day_config(day)
    with open(out_path, "w") as f:
        json.dump(doc, f, indent=1)
    click.echo(str(out_path))


if __name__ == "__main__":
    main()
