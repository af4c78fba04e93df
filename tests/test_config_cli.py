import csv
import json
import logging
import shutil
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import microgrid_ems
from microgrid_ems import lp as lpmod
from microgrid_ems.cli import main
from microgrid_ems.config import (
    ConfigError,
    day_config,
    load_config,
    manifest,
    parse_config,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
TANK = {"volume_l": 50, "useful_range_degc": 40}


def tiny_doc():
    doc = day_config("winter", horizon_steps=8)
    doc["assessment"] = {"n_opt": 12, "n_sim": 8, "seed": 3}
    doc["sddp"] = {"s_offline": 3, "max_iters": 10, "lb_tol": 1e-4,
                   "patience": 10, "seed": 7}
    return doc


class TestConfig:
    def test_bundled_configs_parse(self):
        for day in ("winter", "spring", "summer"):
            cfg = load_config(CONFIG_DIR / f"{day}.json")
            assert cfg.system.horizon_steps == 96
            assert cfg.n_sim == 200

    @pytest.mark.parametrize("day", ["winter", "spring", "summer"])
    def test_bundled_config_matches_day_config(self, day):
        with open(CONFIG_DIR / f"{day}.json") as f:
            assert json.load(f) == day_config(day)

    def test_day_profiles_differ(self):
        w = parse_config(day_config("winter"))
        s = parse_config(day_config("summer"))
        assert s.system.theta_o.mean() > w.system.theta_o.mean() + 5
        assert s.generator.pv_daily_kwh > w.generator.pv_daily_kwh

    def test_round_trip(self):
        cfg = parse_config(tiny_doc())
        again = parse_config(cfg.normalized())
        assert again.normalized() == cfg.normalized()
        np.testing.assert_array_equal(again.system.pi_e, cfg.system.pi_e)

    def test_missing_section(self):
        with pytest.raises(ConfigError, match="system"):
            parse_config({})

    def test_bad_series_length(self):
        doc = tiny_doc()
        doc["system"]["theta_o"] = [1.0, 2.0]
        with pytest.raises(ConfigError, match="system.theta_o"):
            parse_config(doc)

    @pytest.mark.parametrize("fieldpath", [
        "system.bogus", "bogus_section", "initial_state.bogus", "sddp.max_iter",
        "mpc", "heuristic.bogus", "assessment.nsim", "generator.bogus"])
    def test_unknown_system_field(self, fieldpath):
        doc = tiny_doc()
        *section, key = fieldpath.split(".")
        (doc.setdefault(section[0], {}) if section else doc)[key] = 1
        with pytest.raises(ConfigError, match="unknown") as info:
            parse_config(doc)
        assert info.value.fieldpath == fieldpath

    @pytest.mark.parametrize("tank, with_h_max, fieldpath", [
        (TANK, True, "system.tank"),
        ({**TANK, "bogus": 1}, False, "system.tank.bogus"),
        ({**TANK, "volume": 60}, False, "system.tank.volume"),
        ({"useful_range_degc": 40}, False, "system.tank.volume_l"),
        ([50, 40], False, "system.tank"),
    ])
    def test_tank_rejected(self, tank, with_h_max, fieldpath):
        doc = tiny_doc()
        if not with_h_max:
            del doc["system"]["h_max"]
        doc["system"]["tank"] = tank
        with pytest.raises(ConfigError) as info:
            parse_config(doc)
        assert info.value.fieldpath == fieldpath

    def test_tank_gives_h_max(self):
        doc = tiny_doc()
        del doc["system"]["h_max"]
        doc["system"]["tank"] = {"volume_l": 150, "useful_range_degc": 40}
        assert parse_config(doc).system.h_max == pytest.approx(
            150 / 120 * parse_config(tiny_doc()).system.h_max, rel=1e-6)

    def test_section_must_be_object(self):
        doc = tiny_doc()
        doc["heuristic"] = True
        with pytest.raises(ConfigError, match="JSON object") as info:
            parse_config(doc)
        assert info.value.fieldpath == "heuristic"

    def test_bad_initial_state(self):
        doc = tiny_doc()
        doc["initial_state"]["b"] = 99.0
        with pytest.raises(ConfigError, match="initial_state"):
            parse_config(doc)

    def test_series_from_csv(self, tmp_path):
        doc = tiny_doc()
        csv_path = tmp_path / "theta.csv"
        csv_path.write_text("value\n" + "\n".join(["5.0"] * 9) + "\n")
        doc["system"]["theta_o"] = "theta.csv"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        cfg = load_config(cfg_path)
        np.testing.assert_allclose(cfg.system.theta_o, 5.0)

    def test_series_csv_missing(self, tmp_path):
        doc = tiny_doc()
        doc["system"]["theta_o"] = "nope.csv"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="nope.csv"):
            load_config(cfg_path)

    def test_day_config_floor_covers_one_spike(self):
        assert day_config("spring")["system"]["h_floor"] == 0.65
        coarse = day_config("spring", horizon_steps=48, delta=0.5)
        assert coarse["system"]["h_floor"] == pytest.approx(0.5 * 2.6)
        cfg = parse_config(coarse)
        assert cfg.system.h_floor >= cfg.system.delta * cfg.generator.d_hw_cap - 1e-9

    def test_omitted_floor_defaults_to_one_spike(self):
        doc = day_config("spring", horizon_steps=48, delta=0.5)
        del doc["system"]["h_floor"]
        cfg = parse_config(doc)
        assert cfg.system.h_floor == pytest.approx(0.5 * cfg.generator.d_hw_cap)

    def test_floor_below_one_spike_rejected(self):
        doc = day_config("spring", horizon_steps=48, delta=0.5)
        doc["system"]["h_floor"] = 0.65
        with pytest.raises(ConfigError, match="d_hw_cap") as info:
            parse_config(doc)
        assert info.value.fieldpath == "system.h_floor"

    def test_manifest_stable(self):
        cfg = parse_config(tiny_doc())
        m1, m2 = manifest(cfg), manifest(cfg)
        assert m1["config_sha256"] == m2["config_sha256"]
        assert len(m1["config_sha256"]) == 64
        assert m1["solver_path"] == "warm-persistent"

    @pytest.mark.parametrize("day, sha", [
        ("winter", "12be62a39d9d5585c066edbcb560e26cad92452f0b0da81425cceaea85a3afb2"),
        ("spring", "94a828fe18ca516bccbee57edc5084ea773f0ad0a137f9c2acccca7fe3e4084c"),
        ("summer", "3456fa57a9940dc529a97fa3db2116086defaa4e7d8fb6bb0d666905e2076e5c"),
    ], ids=["winter", "spring", "summer"])
    def test_bundled_config_hash_pinned(self, day, sha):
        """A change to the normalized document shows as a new hash here."""
        assert manifest(load_config(CONFIG_DIR / f"{day}.json"))["config_sha256"] == sha

    def test_manifest_records_package_version(self):
        # one source: pyproject.toml takes the version from the package
        assert manifest(parse_config(tiny_doc()))["microgrid_ems"] == microgrid_ems.__version__
        tomllib = pytest.importorskip("tomllib")  # Python 3.11+
        with open(Path(__file__).resolve().parent.parent / "pyproject.toml", "rb") as f:
            project = tomllib.load(f)
        assert "version" in project["project"]["dynamic"]
        assert (project["tool"]["setuptools"]["dynamic"]["version"]
                == {"attr": "microgrid_ems.__version__"})

    def test_manifest_records_cold_path(self, monkeypatch):
        monkeypatch.setattr(lpmod, "_highs_core", None)
        assert manifest(parse_config(tiny_doc()))["solver_path"] == "cold-linprog"


def _swap_first_stages(doc):
    doc[0]["t"], doc[1]["t"] = doc[1]["t"], doc[0]["t"]


def _drop_weights(doc):
    del doc[0]["weights"]


def _unbalance_weights(doc):
    doc[0]["weights"][0] += 0.25


def _drop_beta(doc):
    del doc[0][0]["beta"]


def _short_slope(doc):
    doc[0][0]["lambda"] = doc[0][0]["lambda"][:3]


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """A finished tiny `mgems bench` run: (config path, output directory)."""
    root = tmp_path_factory.mktemp("tiny_run")
    cfg = root / "tiny.json"
    cfg.write_text(json.dumps(tiny_doc()))
    res = CliRunner().invoke(main, ["bench", "--config", str(cfg), "--out", str(root / "o")])
    assert res.exit_code == 0, res.output
    return cfg, root / "o"


class TestMalformedArtifacts:
    """A malformed input file exits 2 with one line naming it."""

    def corrupt(self, tiny_run, tmp_path, name, edit):
        _, out = tiny_run
        for artifact in ("scenarios.csv", "cuts.json", "distributions.json"):
            shutil.copy(out / artifact, tmp_path / artifact)
        path = tmp_path / name
        if isinstance(edit, str):
            path.write_text(edit)
        else:
            doc = json.loads(path.read_text())
            edit(doc)
            path.write_text(json.dumps(doc))
        return path

    def assert_one_line(self, res, path):
        assert res.exit_code == 2, res.output
        lines = res.output.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("malformed ") and str(path) in lines[0]

    @pytest.mark.parametrize("name, edit", [
        ("distributions.json", _swap_first_stages),
        ("distributions.json", "[{\"t\": 1,"),
        ("distributions.json", _drop_weights),
        ("distributions.json", _unbalance_weights),
        ("cuts.json", "{not json"),
        ("cuts.json", _drop_beta),
        ("cuts.json", _short_slope),
        ("scenarios.csv", "scenario,t,d_el_net,d_hw\n0,0,oops,1\n"),
    ], ids=["swapped-t", "dists-bad-json", "dists-missing-key", "dists-weights",
            "cuts-bad-json", "cuts-missing-key", "cuts-bad-slope", "scenarios-bad-row"])
    def test_assess_exit_2(self, tiny_run, tmp_path, name, edit):
        cfg, _ = tiny_run
        bad = self.corrupt(tiny_run, tmp_path, name, edit)
        res = CliRunner().invoke(main, [
            "assess", "--config", str(cfg), "--scenarios", str(tmp_path / "scenarios.csv"),
            "--cuts", str(tmp_path / "cuts.json"),
            "--distributions", str(tmp_path / "distributions.json"),
            "--out", str(tmp_path / "o")])
        self.assert_one_line(res, bad)
        assert not (tmp_path / "o" / "report.json").exists()

    def test_train_exit_2(self, tiny_run, tmp_path):
        cfg, _ = tiny_run
        bad = self.corrupt(tiny_run, tmp_path, "scenarios.csv", "scenario,t\n")
        res = CliRunner().invoke(main, ["train", "--config", str(cfg),
                                        "--scenarios", str(bad), "--out", str(tmp_path / "o")])
        self.assert_one_line(res, bad)


@pytest.fixture(scope="module")
def two_horizons(tmp_path_factory):
    """Finished tiny `mgems bench` runs of 8 and 6 steps: (the directory of
    their configs t8.json and t6.json, each run's output directory by step
    count)."""
    root = tmp_path_factory.mktemp("two_horizons")
    outs = {}
    for steps in (8, 6):
        doc = tiny_doc()
        doc["system"] = day_config("winter", horizon_steps=steps)["system"]
        cfg = root / f"t{steps}.json"
        cfg.write_text(json.dumps(doc))
        outs[steps] = out = root / f"o{steps}"
        assert CliRunner().invoke(main, ["bench", "--config", str(cfg),
                                         "--out", str(out)]).exit_code == 0
    return root, outs


class TestCli:
    def _write_config(self, tmp_path):
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(tiny_doc()))
        return path

    def test_bench_tiny_under_budget(self, tmp_path):
        import time
        cfg = self._write_config(tmp_path)
        out = tmp_path / "out"
        tic = time.perf_counter()
        result = CliRunner().invoke(
            main, ["bench", "--config", str(cfg), "--out", str(out)])
        elapsed = time.perf_counter() - tic
        assert result.exit_code == 0, result.output
        assert elapsed < 30.0
        for name in ("manifest.json", "scenarios.csv", "cuts.json",
                     "training_log.csv", "report.json", "costs.csv"):
            assert (out / name).exists(), name
        with open(out / "training_log.csv", newline="") as f:
            rows = list(csv.reader(f))
        header = rows[0]
        assert header[:2] == ["iteration", "lower_bound"]
        assert header[-3:] == ["iteration_s", "forward_s", "backward_s"]
        assert len(rows) > 1
        for row in rows[1:]:
            assert len(row) == len(header)
            for value in row:
                float(value)  # every field is a plain number
            # the two passes make up the iteration, to the written digits
            iteration_s, forward_s, backward_s = map(float, row[-3:])
            assert abs(forward_s + backward_s - iteration_s) <= 2e-6

    def test_train_byte_identical(self, tmp_path):
        cfg = self._write_config(tmp_path)
        runner = CliRunner()
        gen = runner.invoke(main, ["generate", "--config", str(cfg),
                                   "--out", str(tmp_path / "g")])
        assert gen.exit_code == 0, gen.output
        scen = tmp_path / "g" / "scenarios.csv"
        blobs = []
        for sub in ("t1", "t2"):
            res = runner.invoke(main, ["train", "--config", str(cfg),
                                       "--scenarios", str(scen),
                                       "--out", str(tmp_path / sub)])
            assert res.exit_code == 0, res.output
            blobs.append((tmp_path / sub / "cuts.json").read_bytes())
        assert blobs[0] == blobs[1]

    def test_missing_scenario_file_exit_2(self, tmp_path):
        cfg = self._write_config(tmp_path)
        res = CliRunner().invoke(main, ["train", "--config", str(cfg),
                                        "--scenarios",
                                        str(tmp_path / "absent.csv"),
                                        "--out", str(tmp_path / "o")])
        assert res.exit_code == 2
        assert "absent.csv" in res.output

    @pytest.mark.parametrize("option", ["--cuts", "--distributions"])
    def test_missing_artifact_named_exit_2(self, tmp_path, option):
        cfg = self._write_config(tmp_path)
        out = tmp_path / "o"
        assert CliRunner().invoke(main, ["generate", "--config", str(cfg),
                                         "--out", str(out)]).exit_code == 0
        artifacts = {"--cuts": out / "cuts.json", "--distributions": out / "dists.json"}
        for path in artifacts.values():
            path.write_text("[]")
        artifacts[option] = tmp_path / "absent.json"
        res = CliRunner().invoke(main, [
            "assess", "--config", str(cfg), "--scenarios", str(out / "scenarios.csv"),
            *[str(v) for pair in artifacts.items() for v in pair], "--out", str(out)])
        assert res.exit_code == 2
        lines = res.output.strip().splitlines()
        what = option.lstrip("-")
        assert lines == [f"missing {what} file: {tmp_path / 'absent.json'}"]

    @staticmethod
    def _run_on(command, cfg, artifacts, out):
        """`mgems train` or `mgems assess` on the artifacts named by file name."""
        names = ("scenarios.csv",) if command == "train" else (
            "scenarios.csv", "cuts.json", "distributions.json")
        options = {"scenarios.csv": "--scenarios", "cuts.json": "--cuts",
                   "distributions.json": "--distributions"}
        return CliRunner().invoke(main, [
            command, "--config", str(cfg),
            *[v for name in names for v in (options[name], str(artifacts[name]))],
            "--out", str(out)])

    @pytest.mark.parametrize("stale", ["cuts.json", "distributions.json", "scenarios.csv"])
    def test_assess_horizon_mismatch_exit_2(self, two_horizons, tmp_path, stale):
        # the 6-step day's artifacts, but one of them from the 8-step day
        root, outs = two_horizons
        artifacts = {name: outs[8 if name == stale else 6] / name
                     for name in ("scenarios.csv", "cuts.json", "distributions.json")}
        res = self._run_on("assess", root / "t6.json", artifacts, tmp_path / "o")
        assert res.exit_code == 2
        lines = res.output.strip().splitlines()
        assert lines == [f"{outs[8] / stale} covers 8 stages, but the configuration has 6"]

    def test_train_horizon_mismatch_exit_2(self, two_horizons, tmp_path):
        root, outs = two_horizons
        stale = outs[8] / "scenarios.csv"
        res = self._run_on("train", root / "t6.json", {"scenarios.csv": stale}, tmp_path / "o")
        assert res.exit_code == 2
        lines = res.output.strip().splitlines()
        assert lines == [f"{stale} covers 8 stages, but the configuration has 6"]
        assert not (tmp_path / "o").exists()  # no manifest for a run that never ran

    @pytest.mark.parametrize("command, n", [("train", 12), ("assess", 12), ("assess", 13)])
    def test_too_few_scenarios_exit_2(self, two_horizons, tmp_path, command, n):
        # n_opt is 12: training needs one more path, assessment two
        root, outs = two_horizons
        lines = (outs[6] / "scenarios.csv").read_text().splitlines()
        short = tmp_path / "scenarios.csv"
        short.write_text("\n".join([lines[0]] + [line for line in lines[1:]
                                                  if int(line.split(",")[0]) < n]) + "\n")
        artifacts = {"scenarios.csv": short, "cuts.json": outs[6] / "cuts.json",
                     "distributions.json": outs[6] / "distributions.json"}
        res = self._run_on(command, root / "t6.json", artifacts, tmp_path / "o")
        assert res.exit_code == 2
        held_out = 1 if command == "train" else 2
        assert res.output.strip().splitlines() == [
            f"{short} holds {n} scenarios, but the configuration needs {12 + held_out}: "
            f"n_opt 12 and {held_out} held out"]
        assert not (tmp_path / "o").exists()

    def test_invalid_config_exit_2(self, tmp_path):
        doc = tiny_doc()
        doc["system"]["rho_c"] = 2.0
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        res = CliRunner().invoke(main, ["generate", "--config", str(path),
                                        "--out", str(tmp_path / "o")])
        assert res.exit_code == 2
        assert "configuration error" in res.output

    def test_low_tank_floor_exit_2(self, tmp_path):
        doc = day_config("spring", horizon_steps=48, delta=0.5)
        doc["system"]["h_floor"] = 0.65
        path = tmp_path / "coarse.json"
        path.write_text(json.dumps(doc))
        res = CliRunner().invoke(main, ["bench", "--config", str(path),
                                        "--out", str(tmp_path / "o")])
        assert res.exit_code == 2
        lines = res.output.strip().splitlines()
        assert len(lines) == 1 and "system.h_floor" in lines[0]

    def test_unknown_field_exit_2(self, tmp_path):
        doc = tiny_doc()
        doc["sddp"]["s_online"] = 3
        path = tmp_path / "old.json"
        path.write_text(json.dumps(doc))
        res = CliRunner().invoke(main, ["bench", "--config", str(path),
                                        "--out", str(tmp_path / "o")])
        assert res.exit_code == 2
        lines = res.output.strip().splitlines()
        assert len(lines) == 1 and "sddp.s_online" in lines[0]

    @pytest.mark.parametrize("fieldpath, value", [
        ("sddp.max_iters", "ten"), ("initial_state.b", "full"), ("system.h_max", [1]),
        ("assessment.n_opt", None), ("system.horizon_steps", "x")])
    def test_non_numeric_value_exit_2(self, tmp_path, fieldpath, value):
        doc = tiny_doc()
        section, key = fieldpath.split(".")
        doc.setdefault(section, {})[key] = value
        path = tmp_path / "typo.json"
        path.write_text(json.dumps(doc))
        res = CliRunner().invoke(main, ["generate", "--config", str(path),
                                        "--out", str(tmp_path / "o")])
        assert res.exit_code == 2
        lines = res.output.strip().splitlines()
        assert lines == [f"configuration error: {fieldpath}: expected a number, "
                         f"got {value!r}"]

    @pytest.mark.parametrize("fieldpath, value", [
        ("sddp.max_iters", 96.7), ("sddp.max_iters", True), ("system.horizon_steps", 96.5),
        ("heuristic.margin_deg_c", "x"), ("generator.el_ar_rho", "x"),
        ("generator.hw_morning_window", ["a", "b"]), ("system.r6c2.r_i", "x"),
        ("generator.seed", -1), ("assessment.seed", -1), ("generator.delta", 0.125)])
    def test_mistyped_value_exit_2(self, tmp_path, fieldpath, value):
        doc = tiny_doc()
        *sections, key = fieldpath.split(".")
        section = doc
        for name in sections:
            section = section.setdefault(name, {})
        section[key] = value
        path = tmp_path / "typo.json"
        path.write_text(json.dumps(doc))
        res = CliRunner().invoke(main, ["generate", "--config", str(path),
                                        "--out", str(tmp_path / "o")])
        assert res.exit_code == 2
        lines = res.output.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"configuration error: {fieldpath}: ")

    def test_mpc_section_exit_2(self, tmp_path):
        # every run plays MPC; the section that could turn it off is gone
        doc = tiny_doc()
        doc["mpc"] = {"enabled": True}
        path = tmp_path / "mpc.json"
        path.write_text(json.dumps(doc))
        res = CliRunner().invoke(main, ["generate", "--config", str(path),
                                        "--out", str(tmp_path / "o")])
        assert res.exit_code == 2
        lines = res.output.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("configuration error: mpc: unknown field")

    @pytest.mark.parametrize("patience", [0, -3])
    def test_patience_below_one_exit_2(self, tmp_path, patience):
        # a patience below 1 would stop training after two iterations
        doc = tiny_doc()
        doc["sddp"]["patience"] = patience
        path = tmp_path / "patience.json"
        path.write_text(json.dumps(doc))
        res = CliRunner().invoke(main, ["generate", "--config", str(path),
                                        "--out", str(tmp_path / "o")])
        assert res.exit_code == 2
        lines = res.output.strip().splitlines()
        assert lines == ["configuration error: sddp.patience: must be >= 1"]

    def test_negative_seed_exit_2(self, tmp_path):
        res = CliRunner().invoke(main, ["generate", "--config",
                                        str(CONFIG_DIR / "winter.json"), "--seed", "-1",
                                        "--out", str(tmp_path / "o")])
        assert res.exit_code == 2
        lines = res.output.strip().splitlines()
        assert len(lines) == 1 and "configuration error" in lines[0] and "seed" in lines[0]

    @pytest.mark.parametrize("command", ["bench", "assess"])
    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_exit_2(self, tmp_path, command, threads):
        cfg = self._write_config(tmp_path)
        paths = ["--scenarios", "s.csv", "--cuts", "c.json", "--distributions", "d.json"]
        res = CliRunner().invoke(main, [command, "--config", str(cfg), "--threads", threads,
                                        *(paths if command == "assess" else []),
                                        "--out", str(tmp_path / "o")])
        assert res.exit_code == 2
        assert res.output.strip().splitlines() == [f"--threads must be at least 1, got {threads}"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("tank", [TANK, {**TANK, "bogus": 1}])
    def test_tank_exit_2(self, tmp_path, tank):
        doc = tiny_doc()
        if "bogus" in tank:
            del doc["system"]["h_max"]
        doc["system"]["tank"] = tank
        path = tmp_path / "tank.json"
        path.write_text(json.dumps(doc))
        res = CliRunner().invoke(main, ["generate", "--config", str(path),
                                        "--out", str(tmp_path / "o")])
        assert res.exit_code == 2
        lines = res.output.strip().splitlines()
        assert len(lines) == 1 and "system.tank" in lines[0]

    def test_seed_override_changes_scenarios(self, tmp_path):
        cfg = self._write_config(tmp_path)
        runner = CliRunner()
        r1 = runner.invoke(main, ["generate", "--config", str(cfg),
                                  "--out", str(tmp_path / "a")])
        r2 = runner.invoke(main, ["generate", "--config", str(cfg),
                                  "--seed", "99",
                                  "--out", str(tmp_path / "b")])
        assert r1.exit_code == 0 and r2.exit_code == 0
        a = (tmp_path / "a" / "scenarios.csv").read_bytes()
        b = (tmp_path / "b" / "scenarios.csv").read_bytes()
        assert a != b

    def test_bench_logs_phase_times(self, tmp_path, caplog):
        caplog.set_level(logging.INFO, logger="microgrid_ems")
        cfg = self._write_config(tmp_path)
        res = CliRunner().invoke(main, ["bench", "--config", str(cfg),
                                        "--out", str(tmp_path / "o")])
        assert res.exit_code == 0, res.output
        phases = [r.getMessage().split(":")[0] for r in caplog.records
                  if r.getMessage().startswith("phase ")]
        assert phases == ["phase generate", "phase quantize", "phase train", "phase assess"]

    def test_assess_pipeline(self, tmp_path):
        cfg = self._write_config(tmp_path)
        runner = CliRunner()
        out = tmp_path / "o"
        assert runner.invoke(main, ["generate", "--config", str(cfg),
                                    "--out", str(out)]).exit_code == 0
        assert runner.invoke(main, ["train", "--config", str(cfg),
                                    "--scenarios", str(out / "scenarios.csv"),
                                    "--out", str(out)]).exit_code == 0
        res = runner.invoke(main, [
            "assess", "--config", str(cfg),
            "--scenarios", str(out / "scenarios.csv"),
            "--cuts", str(out / "cuts.json"),
            "--distributions", str(out / "distributions.json"),
            "--trajectories", "--out", str(out)])
        assert res.exit_code == 0, res.output
        assert (out / "report.json").exists()
        assert (out / "trajectories.csv").exists()
