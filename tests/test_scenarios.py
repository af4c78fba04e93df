import csv
import json

import numpy as np
import pytest
from helpers import (
    loop_generated_scenarios,
    reference_lloyd_max,
    reference_lloyd_rounds,
    reference_quantize_stagewise,
)

from microgrid_ems import scenarios as sc
from microgrid_ems.assess import split_scenarios
from microgrid_ems.config import day_config, parse_config
from microgrid_ems.policies import MpcPolicy
from microgrid_ems.scenarios import (
    DiscreteDistribution,
    GeneratorConfig,
    ScenarioError,
    ScenarioSet,
    fit_ar,
    generate_scenarios,
    lloyd_max,
    load_distributions,
    load_scenarios,
    quantize_stagewise,
    save_distributions,
    save_scenarios,
    scenario_means,
    update_forecast,
)
from microgrid_ems.stagelp import DeterministicChain


def small_set(role="pool"):
    rng = np.random.default_rng(0)
    data = rng.uniform(0, 2, (12, 9, 2))
    return ScenarioSet(data=data, role=role)


class TestScenarioSet:
    def test_shape_validation(self):
        with pytest.raises(ScenarioError):
            ScenarioSet(data=np.zeros((3, 9)))

    def test_negative_hot_water_rejected(self):
        data = np.zeros((2, 5, 2))
        data[0, 1, 1] = -0.1
        with pytest.raises(ScenarioError):
            ScenarioSet(data=data)

    def test_roles(self):
        with pytest.raises(ScenarioError):
            ScenarioSet(data=np.zeros((1, 2, 2)), role="bogus")
        assert small_set("assessment").role == "assessment"

    def test_hygiene_blocks_assessment_data(self):
        s = small_set("assessment")
        with pytest.raises(ScenarioError, match="assessment"):
            fit_ar(s)
        with pytest.raises(ScenarioError, match="assessment"):
            scenario_means(s)
        with pytest.raises(ScenarioError, match="assessment"):
            quantize_stagewise(s, s=3)


class TestGenerator:
    @pytest.mark.parametrize("field, value", [
        ("hw_events_per_window", -1.0), ("el_ar_rho", 1.0), ("el_ar_rho", -5.0),
        ("hw_morning_window", (-5.0, -1.0)), ("hw_evening_window", (30.0, 40.0)),
        ("hw_evening_window", (21.5, 18.5))])
    def test_bad_shape_rejected(self, field, value):
        with pytest.raises(ScenarioError, match=f"generator.{field}"):
            GeneratorConfig(**{field: value})

    def test_deterministic_given_seed(self):
        cfg = GeneratorConfig(pv_daily_kwh=10.0)
        a = generate_scenarios(cfg, 5, seed=4)
        b = generate_scenarios(cfg, 5, seed=4)
        np.testing.assert_array_equal(a.data, b.data)
        c = generate_scenarios(cfg, 5, seed=5)
        assert not np.array_equal(a.data, c.data)

    @pytest.mark.parametrize("cfg, n, seed, hot_water", [
        (parse_config(day_config("summer")).generator, 60, 7, True),
        (parse_config(day_config("winter")).generator, 40, 3, True),
        # a 3-hour day: the events are drawn but end before the day starts them
        (GeneratorConfig(horizon_steps=12, pv_daily_kwh=10.0), 50, 11, False),
        (GeneratorConfig(horizon_steps=12, delta=2.0, hw_events_per_window=6.0), 30, 2,
         True)])
    def test_matches_per_scenario_loop(self, cfg, n, seed, hot_water):
        pool = generate_scenarios(cfg, n, seed).data
        assert np.array_equal(pool, loop_generated_scenarios(cfg, n, seed))
        assert (np.count_nonzero(pool[:, :, 1]) > 0) == hot_water

    def test_hot_water_capped(self):
        cfg = GeneratorConfig(hw_events_per_window=6.0)
        s = generate_scenarios(cfg, 30, seed=1)
        assert np.max(s.data[:, :, 1]) <= cfg.d_hw_cap + 1e-12

    def test_pv_creates_negative_net_demand(self):
        cfg = GeneratorConfig(pv_daily_kwh=25.0)
        s = generate_scenarios(cfg, 20, seed=2)
        assert np.min(s.data[:, :, 0]) < 0.0

    def test_night_demand_low(self):
        cfg = GeneratorConfig()
        s = generate_scenarios(cfg, 50, seed=3)
        night = s.data[:, 8:16, 0]      # around 02:00-04:00
        evening = s.data[:, 78:86, 0]   # around 19:30-21:30
        assert night.mean() < evening.mean() / 3


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path):
        s = generate_scenarios(GeneratorConfig(horizon_steps=12), 4, seed=9)
        path = tmp_path / "scen.csv"
        save_scenarios(s, path)
        loaded = load_scenarios(path)
        np.testing.assert_array_equal(s.data, loaded.data)

    def test_file_is_what_csv_writer_writes(self, tmp_path):
        s = generate_scenarios(GeneratorConfig(horizon_steps=12), 3, seed=4)
        save_scenarios(s, tmp_path / "scen.csv")
        with open(tmp_path / "ref.csv", "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["scenario", "t", "d_el_net", "d_hw"])
            for i in range(s.n):
                for t in range(s.horizon + 1):
                    w.writerow([i, t, repr(float(s.data[i, t, 0])),
                                repr(float(s.data[i, t, 1]))])
        assert (tmp_path / "scen.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(ScenarioError, match="header"):
            load_scenarios(path)

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("scenario,t,d_el_net,d_hw\n0,0,oops,1\n")
        with pytest.raises(ScenarioError, match=":2"):
            load_scenarios(path)


class TestFitAr:
    def test_hand_example(self):
        # pairs (0,1), (1,2), (2,4): least squares gives slope 3/2 and
        # intercept ybar - slope * xbar = 7/3 - 3/2 = 5/6
        data = np.zeros((3, 2, 2))
        data[:, 0, 0] = [0.0, 1.0, 2.0]
        data[:, 1, 0] = [1.0, 2.0, 4.0]
        data[:, 0, 1] = [0.0, 1.0, 2.0]
        data[:, 1, 1] = [1.0, 2.0, 4.0]
        ar = fit_ar(ScenarioSet(data=data, role="optimization"))
        assert ar.alpha[0, 0] == pytest.approx(1.5, abs=1e-12)
        assert ar.beta[0, 0] == pytest.approx(5.0 / 6.0, abs=1e-12)
        assert not ar.fallback[0, 0]

    def test_degenerate_regressor_falls_back(self):
        data = np.zeros((4, 2, 2))
        data[:, 1, 0] = [1.0, 2.0, 3.0, 4.0]  # constant regressor at t=0
        ar = fit_ar(ScenarioSet(data=data))
        assert ar.fallback[0, 0]
        assert ar.alpha[0, 0] == 0.0
        assert ar.beta[0, 0] == pytest.approx(2.5)

    def test_needs_two_scenarios(self):
        with pytest.raises(ScenarioError):
            fit_ar(ScenarioSet(data=np.zeros((1, 3, 2))))


class TestForecast:
    def test_first_step_uses_ar_then_means(self):
        s = small_set("optimization")
        ar = fit_ar(s)
        means = scenario_means(s)
        w = np.array([1.2, 0.4])
        d_el, d_hw = update_forecast(ar, 2, w)
        expected = ar.alpha[2] * w + ar.beta[2]
        assert (d_el, d_hw) == pytest.approx((expected[0], max(0.0, expected[1])))
        # the offline means fill the rest of the horizon: MPC's template
        # writes them, hot water clamped at zero, into the balance and tank
        # rows of every later step
        cfg = parse_config(day_config("summer", horizon_steps=s.horizon))
        policy = MpcPolicy(cfg.system, cfg.initial_state, ar, means)
        chain = DeterministicChain(policy._template, 2)
        later = 4 * np.arange(1, chain.ns)  # the balance rows after the first step
        tail = np.maximum(means[4:], [[-np.inf, 0.0]])
        assert np.array_equal(chain.b_eq[later], tail[:, 0])
        np.testing.assert_allclose(-chain.b_eq[later + 2] / cfg.system.delta, tail[:, 1],
                                   atol=1e-12)

    def test_hot_water_clamped(self):
        s = small_set("optimization")
        ar = fit_ar(s)
        assert update_forecast(ar, 0, np.array([0.0, -50.0]))[1] >= 0.0

    def test_step_range(self):
        s = small_set("optimization")
        ar = fit_ar(s)
        with pytest.raises(ScenarioError):
            update_forecast(ar, s.horizon, np.zeros(2))


class TestLloydMax:
    def test_four_point_example(self):
        result = lloyd_max(np.array([0.0, 0.0, 10.0, 10.0]), s=2, seed=0)
        d = result.distribution
        np.testing.assert_allclose(d.points[:, 0], [0.0, 10.0])
        np.testing.assert_allclose(d.weights, [0.5, 0.5])

    def test_saturated_collapses(self):
        result = lloyd_max(np.array([1.0, 1.0, 1.0]), s=2, seed=0)
        assert result.distribution.size == 1
        assert result.distribution.collapsed

    def test_distortion_non_increasing(self):
        rng = np.random.default_rng(3)
        for trial in range(20):
            pts = rng.standard_normal((60, 2)) * rng.uniform(0.5, 3)
            result = lloyd_max(pts, s=4, seed=trial)
            diffs = np.diff(result.distortions)
            assert np.all(diffs <= 1e-12)

    def test_weights_are_cell_frequencies(self):
        rng = np.random.default_rng(8)
        pts = np.concatenate([rng.normal(0, 0.1, 30), rng.normal(5, 0.1, 10)])
        d = lloyd_max(pts, s=2, seed=0).distribution
        assert sorted(d.weights) == pytest.approx([0.25, 0.75])

    def test_invalid_sizes(self):
        with pytest.raises(ScenarioError):
            lloyd_max(np.array([1.0]), s=2)
        with pytest.raises(ScenarioError, match="shape"):
            lloyd_max(np.zeros((4, 3)), s=2)
        with pytest.raises(ScenarioError, match="max_iter"):
            lloyd_max(np.arange(4.0), s=2, max_iter=0)


class TestQuantizeStagewise:
    def test_shapes_and_mass(self):
        s = small_set("optimization")
        dists = quantize_stagewise(s, s=3, seed=1)
        assert len(dists) == s.horizon
        for d in dists:
            assert d.size <= 3
            assert d.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_deterministic(self):
        s = small_set("optimization")
        a = quantize_stagewise(s, s=3, seed=1)
        b = quantize_stagewise(s, s=3, seed=1)
        for da, db in zip(a, b):
            np.testing.assert_array_equal(da.points, db.points)

    def test_json_round_trip(self, tmp_path):
        s = small_set("optimization")
        dists = quantize_stagewise(s, s=3, seed=1)
        path = tmp_path / "dists.json"
        save_distributions(dists, path)
        loaded = load_distributions(path)
        for da, db in zip(dists, loaded):
            np.testing.assert_array_equal(da.points, db.points)
            np.testing.assert_array_equal(da.weights, db.weights)


def assert_same_law(dist, ref):
    points, weights, collapsed, _ = ref
    assert np.array_equal(dist.points, points)
    assert np.array_equal(dist.weights, weights)
    assert dist.collapsed == collapsed


def day_optimization_set(day, seed, **grid):
    doc = day_config(day, **grid)
    for section in ("generator", "sddp", "assessment"):
        doc[section]["seed"] = seed
    cfg = parse_config(doc)
    pool = generate_scenarios(cfg.generator, cfg.n_opt + cfg.n_sim, cfg.generator_seed)
    opt, _ = split_scenarios(pool, cfg.n_opt, cfg.split_seed)
    return cfg, opt


class TestBatchMatchesPerStageLoop:
    """The batched quantizer reproduces the per-stage loop bit for bit."""

    @pytest.mark.parametrize("day, grid", [
        ("summer", {}), ("winter", {}), ("spring", {}),
        ("spring", {"horizon_steps": 48, "delta": 0.5})])
    def test_bundled_days(self, day, grid):
        for seed in range(1, 6):
            cfg, opt = day_optimization_set(day, seed, **grid)
            dists = quantize_stagewise(opt, s=cfg.sddp_s_offline, seed=cfg.sddp_seed)
            ref = reference_quantize_stagewise(opt, cfg.sddp_s_offline, cfg.sddp_seed)
            assert len(dists) == len(ref) == opt.horizon
            for dist, law in zip(dists, ref):
                assert_same_law(dist, law)

    def test_random_clouds_same_distortions(self):
        rng = np.random.default_rng(11)
        saturated = 0
        for trial in range(240):
            n = int(rng.integers(2, 90))
            s = int(rng.integers(1, min(n, 9) + 1))
            pts = rng.standard_normal((n, 2)) * rng.uniform(0.05, 4.0, 2)
            if trial % 4 == 0:
                pts = np.round(pts, 0)  # repeated points, some clouds saturate
            result = lloyd_max(pts, s=s, seed=trial)
            ref = reference_lloyd_max(pts, s, seed=trial)
            assert result.distortions == ref[3]
            assert_same_law(result.distribution, ref)
            saturated += ref[3] == [0.0]
        assert saturated > 0

    def test_mixed_batch(self):
        # stage 1 holds two distinct values for S = 3 (collapsed), stage 2
        # three tight clusters (stops early), stages 3-4 spread clouds that
        # run into max_iter
        rng = np.random.default_rng(5)
        n, s, max_iter = 30, 3, 4
        data = np.zeros((n, 5, 2))
        data[:, 1] = [[1.0, 0.0], [2.0, 0.5]] * (n // 2)
        data[:, 2] = (np.repeat([[0.0, 0.0], [5.0, 1.0], [10.0, 2.0]], n // 3, axis=0)
                      + rng.uniform(0, 0.01, (n, 2)))
        data[:, 3] = rng.uniform(0, 3, (n, 2))
        data[:, 4] = rng.exponential(1.0, (n, 2))
        opt = ScenarioSet(data=data, role="optimization")
        dists = quantize_stagewise(opt, s=s, max_iter=max_iter, seed=9)
        ref = reference_quantize_stagewise(opt, s, 9, max_iter=max_iter)
        for dist, law in zip(dists, ref):
            assert_same_law(dist, law)
        rounds = [len(law[3]) for law in ref]
        assert ref[0][2] and rounds[0] == 1
        assert rounds[1] < max_iter and max_iter in rounds[2:]

    def test_empty_cell_repair(self):
        # a seed far from its cloud leaves its cell empty in the first round
        rng = np.random.default_rng(2)
        clouds = rng.uniform(0, 1, (3, 20, 2))
        seeds = clouds[:, :4].copy()
        seeds[0, 3] = [50.0, 50.0]
        seeds[2, 0] = [-40.0, 3.0]
        for k in (0, 2):
            d = np.sum((clouds[k][:, None] - seeds[k][None]) ** 2, axis=2)
            assert np.unique(np.argmin(d, axis=1)).size < 4
        got = sc._lloyd_rounds(clouds.copy(), seeds.copy(), 1e-6, 50)
        for k in range(3):
            centroids, counts, distortions = reference_lloyd_rounds(
                clouds[k], seeds[k], 1e-6, 50)
            assert np.array_equal(got[k][0], centroids)
            assert np.array_equal(got[k][1], counts)
            assert got[k][2] == distortions
            assert np.all(counts > 0)


    def test_two_empty_cells_repair(self):
        # two seeds far from the cloud leave two cells empty in the first
        # round: each must take its own far point, not the same one in turn
        rng = np.random.default_rng(1)
        clouds = rng.uniform(0, 10, (1, 20, 2))
        seeds = clouds[:, :4].copy()
        seeds[0, 2:] = [[50.0, 50.0], [60.0, 60.0]]
        d = np.sum((clouds[0][:, None] - seeds[0][None]) ** 2, axis=2)
        assert np.bincount(np.argmin(d, axis=1), minlength=4).tolist() == [13, 7, 0, 0]
        centroids, counts, distortions = sc._lloyd_rounds(clouds.copy(), seeds.copy(),
                                                          1e-6, 50)[0]
        assert np.all(counts > 0) and np.all(np.isfinite(centroids))
        assert all(b <= a for a, b in zip(distortions, distortions[1:]))
        ref = reference_lloyd_rounds(clouds[0], seeds[0], 1e-6, 50)
        assert np.array_equal(centroids, ref[0]) and np.array_equal(counts, ref[1])
        assert distortions == ref[2]


class TestLoadDistributions:
    def write(self, tmp_path, payload):
        path = tmp_path / "dists.json"
        path.write_text(json.dumps(payload))
        return path

    def saved(self, tmp_path):
        dists = quantize_stagewise(small_set("optimization"), s=3, seed=1)
        path = tmp_path / "dists.json"
        save_distributions(dists, path)
        return json.loads(path.read_text())

    def test_swapped_stages_rejected(self, tmp_path):
        payload = self.saved(tmp_path)
        payload[2]["t"], payload[3]["t"] = payload[3]["t"], payload[2]["t"]
        with pytest.raises(ScenarioError, match="entry 2 has t = 4, expected 3"):
            load_distributions(self.write(tmp_path, payload))

    @pytest.mark.parametrize("t", [1.0, "1", True, None])
    def test_t_must_be_an_integer(self, tmp_path, t):
        payload = self.saved(tmp_path)
        payload[0]["t"] = t
        with pytest.raises(ScenarioError, match="entry 0 has t"):
            load_distributions(self.write(tmp_path, payload))

    @pytest.mark.parametrize("key", ["t", "points", "weights"])
    def test_missing_key(self, tmp_path, key):
        payload = self.saved(tmp_path)
        del payload[1][key]
        with pytest.raises(ScenarioError, match="entry 1 needs"):
            load_distributions(self.write(tmp_path, payload))

    def test_bad_law_names_stage(self, tmp_path):
        payload = self.saved(tmp_path)
        payload[4]["weights"][0] += 0.1
        with pytest.raises(ScenarioError, match="stage 5: weights"):
            load_distributions(self.write(tmp_path, payload))

    def test_not_a_list(self, tmp_path):
        with pytest.raises(ScenarioError, match="list"):
            load_distributions(self.write(tmp_path, {"t": 1}))


class TestDiscreteDistribution:
    def test_weight_validation(self):
        with pytest.raises(ScenarioError):
            DiscreteDistribution(points=np.zeros((2, 2)),
                                 weights=np.array([0.6, 0.6]))

    def test_points_are_pairs(self):
        with pytest.raises(ScenarioError, match="points"):
            DiscreteDistribution(points=np.zeros((1, 3)), weights=np.array([1.0]))

    def test_distinct_points(self):
        with pytest.raises(ScenarioError):
            DiscreteDistribution(points=np.zeros((2, 2)),
                                 weights=np.array([0.5, 0.5]))

    def test_mean_and_sample(self):
        d = DiscreteDistribution(points=np.array([[0.0, 0.0], [2.0, 4.0]]),
                                 weights=np.array([0.25, 0.75]))
        np.testing.assert_allclose(d.mean(), [1.5, 3.0])
        rng = np.random.default_rng(0)
        assert d.sample(rng).shape == (2,)

    @pytest.mark.parametrize("size", [1, 3, 10])
    def test_sample_draws_as_choice(self, size):
        # training samples the forward-pass noise with `sample`; drawing as
        # Generator.choice does keeps lower bounds and cuts bit-identical
        gen = np.random.default_rng(size)
        weights = gen.random(size) ** 3
        dist = DiscreteDistribution(points=gen.random((size, 2)),
                                    weights=weights / weights.sum())
        ours, theirs = np.random.default_rng(11), np.random.default_rng(11)
        for _ in range(20000):
            assert np.array_equal(dist.sample(ours),
                                  dist.points[theirs.choice(size, p=dist.weights)])
