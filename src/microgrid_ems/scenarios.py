"""Scenario ingestion and generation, AR(1) forecasting, Lloyd-Max quantization.

Scenarios are arrays of shape (n, T+1, 2) holding (d_el_net, d_hw) per step.
Step 0 is the observed initial value; the noises actually feeding the stage
problems are indexed 1..T.

The synthetic generator replaces the proprietary demand/weather data: demands
are near zero at night with peaks around midday and 8 pm, hot water shows
morning/evening spikes, and a solar bell scaled by a configured daily energy
is subtracted into the net electrical demand.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence

import numpy as np

__all__ = [
    "ScenarioSet",
    "GeneratorConfig",
    "ARModel",
    "DiscreteDistribution",
    "ScenarioError",
    "generate_scenarios",
    "save_scenarios",
    "load_scenarios",
    "fit_ar",
    "scenario_means",
    "update_forecast",
    "lloyd_max",
    "quantize_stagewise",
    "save_distributions",
    "load_distributions",
]


class ScenarioError(ValueError):
    """Validation or parse error on scenario data."""


ROLE_POOL = "pool"
ROLE_OPTIMIZATION = "optimization"
ROLE_ASSESSMENT = "assessment"


@dataclass(frozen=True)
class ScenarioSet:
    """A batch of uncertainty paths with a usage label.

    The label enforces information hygiene: model fitting and SDDP training
    refuse sets labelled for assessment.
    """

    data: np.ndarray
    role: str = ROLE_POOL

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float)
        if data.ndim != 3 or data.shape[2] != 2:
            raise ScenarioError(f"scenario data must have shape (n, T+1, 2), got {data.shape}")
        if data.size and not np.all(np.isfinite(data)):
            raise ScenarioError("scenario data contains non-finite values")
        if data.size and np.any(data[:, :, 1] < 0):
            raise ScenarioError("hot water demand must be nonnegative")
        if self.role not in (ROLE_POOL, ROLE_OPTIMIZATION, ROLE_ASSESSMENT):
            raise ScenarioError(f"unknown scenario role {self.role!r}")
        object.__setattr__(self, "data", data)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def horizon(self) -> int:
        """Number of steps T (paths have T+1 entries)."""
        return self.data.shape[1] - 1


def _require_offline(s: ScenarioSet, op: str):
    if s.role == ROLE_ASSESSMENT:
        raise ScenarioError(f"{op} must not see assessment scenarios")


# ---------------------------------------------------------------------------
# Synthetic generator


@dataclass(frozen=True)
class GeneratorConfig:
    """Shape parameters of the synthetic demand/PV generator.

    Amplitudes in kW, times in hours of day. ``d_hw_cap`` hard-limits hot
    water spikes so a tank kept above ``delta * d_hw_cap`` can never be
    drained below zero within one step. ``delta`` and ``horizon_steps`` are
    the time grid; a run configuration takes them from its ``system``.
    """

    delta: float = 0.25
    horizon_steps: int = 96
    night_kw: float = 0.15
    morning_kw: float = 1.2
    midday_kw: float = 1.8
    evening_kw: float = 2.2
    el_noise_rel: float = 0.25
    el_ar_rho: float = 0.7
    el_ar_sigma: float = 0.08
    pv_daily_kwh: float = 0.0
    pv_noise_rel: float = 0.3
    sunrise_h: float = 7.0
    sunset_h: float = 19.0
    hw_morning_window: tuple = (6.5, 9.5)
    hw_evening_window: tuple = (18.5, 21.5)
    hw_events_per_window: float = 1.3
    hw_kw_lo: float = 0.8
    hw_kw_hi: float = 2.2
    d_hw_cap: float = 2.6

    def __post_init__(self):
        if self.delta <= 0 or self.horizon_steps < 1:
            raise ScenarioError("delta must be > 0 and horizon_steps >= 1")
        for name in ("night_kw", "morning_kw", "midday_kw", "evening_kw",
                     "pv_daily_kwh", "hw_events_per_window", "hw_kw_lo", "hw_kw_hi",
                     "d_hw_cap"):
            if getattr(self, name) < 0:
                raise ScenarioError(f"generator.{name} must be nonnegative")
        if not -1.0 < self.el_ar_rho < 1.0:
            raise ScenarioError("generator.el_ar_rho must lie in (-1, 1) for a stationary AR(1)")
        for name in ("hw_morning_window", "hw_evening_window"):
            lo, hi = getattr(self, name)
            if not 0.0 <= lo <= hi <= 24.0:
                raise ScenarioError(f"generator.{name} must be hours of the day, "
                                    "0 <= start <= end <= 24")
        if self.hw_kw_lo > self.hw_kw_hi:
            raise ScenarioError("hw_kw_lo must not exceed hw_kw_hi")
        if not self.sunrise_h < self.sunset_h:
            raise ScenarioError("sunrise must precede sunset")


_EL_BUMPS = ((8.0, 1.2), (12.5, 1.0), (20.0, 1.2))  # (center hour, width)


def _hours(cfg: GeneratorConfig) -> np.ndarray:
    return (np.arange(cfg.horizon_steps + 1) * cfg.delta) % 24.0


def _ar_noise(z, rho, sigma):
    """exp of the stationary AR(1) paths driven by the standard normal rows
    of z (one path per row), run over the steps for all rows at once."""
    e = np.empty_like(z)
    e[:, 0] = z[:, 0] * sigma / math.sqrt(max(1e-12, 1.0 - rho * rho))
    for t in range(1, z.shape[1]):
        e[:, t] = rho * e[:, t - 1] + sigma * z[:, t]
    return np.exp(e)


def _pv_shape(cfg: GeneratorConfig) -> np.ndarray:
    """Unit-energy solar bell (integrates to 1 kWh over the day)."""
    h = _hours(cfg)
    span = cfg.sunset_h - cfg.sunrise_h
    shape = np.where(
        (h >= cfg.sunrise_h) & (h <= cfg.sunset_h),
        np.sin(np.pi * (h - cfg.sunrise_h) / span) ** 2,
        0.0,
    )
    return shape / (span / 2.0)


def generate_scenarios(cfg: GeneratorConfig, n: int, seed: int,
                       role: str = ROLE_POOL) -> ScenarioSet:
    """Draw n synthetic demand scenarios, deterministic given the seed."""
    if n < 1:
        raise ScenarioError("scenario count must be >= 1")
    rng = np.random.default_rng(seed)
    steps = cfg.horizon_steps + 1
    h = _hours(cfg)
    base = np.full(steps, cfg.night_kw)
    amps = (cfg.morning_kw, cfg.midday_kw, cfg.evening_kw)
    bump_profiles = []
    for (center, width), amp in zip(_EL_BUMPS, amps):
        bump_profiles.append(amp * np.exp(-0.5 * ((h - center) / width) ** 2))
    pv_shape = _pv_shape(cfg)

    # each scenario's draws in a fixed order; the AR(1) noise paths are then
    # run for all scenarios at once
    mult = np.empty((n, 3))
    z_el = np.empty((n, steps))
    cloud = np.empty(n)
    z_pv = np.empty((n, steps))
    d_hw = np.zeros((n, steps))
    for s in range(n):
        mult[s] = np.exp(cfg.el_noise_rel * rng.standard_normal(3))
        z_el[s] = rng.standard_normal(steps)
        cloud[s] = np.clip(np.exp(cfg.pv_noise_rel * rng.standard_normal()), 0.2, 1.5)
        z_pv[s] = rng.standard_normal(steps)
        for window in (cfg.hw_morning_window, cfg.hw_evening_window):
            n_events = rng.poisson(cfg.hw_events_per_window)
            for _ in range(n_events):
                start_h = rng.uniform(window[0], window[1])
                start = int(start_h / cfg.delta)
                duration = int(rng.integers(1, 4))
                mag = rng.uniform(cfg.hw_kw_lo, cfg.hw_kw_hi)
                d_hw[s, start:start + duration] += mag

    d_el = base
    for profile, m in zip(bump_profiles, mult.T):
        d_el = d_el + m[:, None] * profile
    d_el = d_el * _ar_noise(z_el, cfg.el_ar_rho, cfg.el_ar_sigma)
    pv = (cfg.pv_daily_kwh * cloud)[:, None] * pv_shape
    pv = pv * _ar_noise(z_pv, cfg.el_ar_rho, cfg.el_ar_sigma / 2.0)

    data = np.empty((n, steps, 2))
    data[:, :, 0] = d_el - pv
    data[:, :, 1] = np.minimum(d_hw, cfg.d_hw_cap)
    return ScenarioSet(data=data, role=role)


# ---------------------------------------------------------------------------
# CSV persistence

_CSV_HEADER = ["scenario", "t", "d_el_net", "d_hw"]


def save_scenarios(s: ScenarioSet, path):
    """Write the set as CSV with CRLF line ends, one scenario converted at a time."""
    with open(path, "w", newline="") as f:
        f.write(",".join(_CSV_HEADER) + "\r\n")
        f.writelines(f"{i},{t},{d_el!r},{d_hw!r}\r\n"
                     for i, steps in enumerate(s.data)
                     for t, (d_el, d_hw) in enumerate(steps.tolist()))


def load_scenarios(path, role: str = ROLE_POOL) -> ScenarioSet:
    rows = {}
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header != _CSV_HEADER:
            raise ScenarioError(f"{path}: expected header {','.join(_CSV_HEADER)}")
        for lineno, row in enumerate(reader, start=2):
            try:
                i, t = int(row[0]), int(row[1])
                vals = (float(row[2]), float(row[3]))
            except (ValueError, IndexError) as exc:
                raise ScenarioError(f"{path}:{lineno}: malformed row {row!r}") from exc
            rows[(i, t)] = vals
    if not rows:
        return ScenarioSet(data=np.zeros((0, 1, 2)), role=role)
    n = max(i for i, _ in rows) + 1
    steps = max(t for _, t in rows) + 1
    data = np.zeros((n, steps, 2))
    for (i, t), vals in rows.items():
        data[i, t] = vals
    if len(rows) != n * steps:
        raise ScenarioError(f"{path}: ragged scenario file ({len(rows)} rows for {n}x{steps})")
    return ScenarioSet(data=data, role=role)


# ---------------------------------------------------------------------------
# AR(1) model and online forecast


@dataclass(frozen=True)
class ARModel:
    """Per-step, per-component first-order autoregression d' = alpha d + beta."""

    alpha: np.ndarray     # (T, 2)
    beta: np.ndarray      # (T, 2)
    fallback: np.ndarray  # (T, 2) bool; True where the regressor was degenerate

    @property
    def horizon(self) -> int:
        return self.alpha.shape[0]


def fit_ar(opt: ScenarioSet) -> ARModel:
    """Least-squares fit of the stagewise AR(1) coefficients.

    Steps with a degenerate regressor fall back to the sample mean
    (alpha = 0) and are flagged.
    """
    _require_offline(opt, "fit_ar")
    if opt.n < 2:
        raise ScenarioError("fit_ar needs at least 2 scenarios")
    T = opt.horizon
    alpha = np.zeros((T, 2))
    beta = np.zeros((T, 2))
    fallback = np.zeros((T, 2), dtype=bool)
    for t in range(T):
        for i in range(2):
            x = opt.data[:, t, i]
            y = opt.data[:, t + 1, i]
            xm, ym = x.mean(), y.mean()
            sxx = float(np.sum((x - xm) ** 2))
            if sxx < 1e-12:
                a, b = 0.0, ym
                fallback[t, i] = True
            else:
                a = float(np.sum((x - xm) * (y - ym)) / sxx)
                b = ym - a * xm
            alpha[t, i], beta[t, i] = a, b
    return ARModel(alpha=alpha, beta=beta, fallback=fallback)


def scenario_means(opt: ScenarioSet) -> np.ndarray:
    """Per-step mean uncertainty of the optimization scenarios, shape (T+1, 2)."""
    _require_offline(opt, "scenario_means")
    return opt.data.mean(axis=0)


def update_forecast(ar: ARModel, t: int, w_t) -> tuple[float, float]:
    """The AR model's one-step forecast of w_{t+1} from the value w_t
    observed at step t, as two floats, its hot water clamped at zero."""
    if not 0 <= t < ar.horizon:
        raise ScenarioError(f"forecast step {t} outside [0, {ar.horizon})")
    (a_el, a_hw), (b_el, b_hw) = ar.alpha[t].tolist(), ar.beta[t].tolist()
    w_el, w_hw = w_t
    return a_el * w_el + b_el, max(0.0, a_hw * w_hw + b_hw)


# ---------------------------------------------------------------------------
# Lloyd-Max quantization


@dataclass(frozen=True)
class DiscreteDistribution:
    """Finite-support law: S centroids with probability weights."""

    points: np.ndarray   # (S, 2)
    weights: np.ndarray  # (S,)
    collapsed: bool = False  # True when S was reduced to the distinct count

    def __post_init__(self):
        points = np.asarray(self.points, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if (points.ndim != 2 or points.shape[1] != 2 or points.shape[0] != weights.size
                or points.shape[0] < 1):
            raise ScenarioError("distribution needs S >= 1 (d_el_net, d_hw) points "
                                "with matching weights")
        if np.any(weights < 0) or abs(weights.sum() - 1.0) > 1e-12:
            raise ScenarioError("weights must be nonnegative and sum to 1")
        if len({tuple(p) for p in points}) != points.shape[0]:
            raise ScenarioError("distribution points must be pairwise distinct")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "weights", weights)
        cdf = np.cumsum(weights)
        object.__setattr__(self, "_cdf", cdf / cdf[-1])

    @property
    def size(self) -> int:
        return self.weights.size

    def mean(self) -> np.ndarray:
        return self.weights @ self.points

    def sample(self, rng) -> np.ndarray:
        """One point, drawn as `rng.choice(self.size, p=self.weights)` draws
        it (one uniform against the normalized cdf), with the cdf built once."""
        return self.points[self._cdf.searchsorted(rng.random(), side="right")]


class QuantizationResult(NamedTuple):
    distribution: DiscreteDistribution
    distortions: List[float]


def _canonical(points, weights, collapsed) -> DiscreteDistribution:
    # Merge numerically identical centroids, then sort for reproducible output.
    order = np.lexsort((points[:, 1], points[:, 0]))
    points, weights = points[order], weights[order]
    keep_p, keep_w = [points[0]], [weights[0]]
    for p, w in zip(points[1:], weights[1:]):
        if np.array_equal(p, keep_p[-1]):
            keep_w[-1] += w
        else:
            keep_p.append(p)
            keep_w.append(w)
    w = np.array(keep_w)
    return DiscreteDistribution(np.array(keep_p), w / w.sum(), collapsed=collapsed)


# Stages quantized together; bounds the (stages, N, S) temporaries of a round.
_STAGE_BLOCK = 16


def _sq_dist(clouds, centroids):
    """Squared distances of each point to each centroid, shape (K, N, S),
    accumulated as dx*dx + dy*dy without a (K, N, S, 2) intermediate."""
    dx = clouds[:, :, None, 0] - centroids[:, None, :, 0]
    dy = clouds[:, :, None, 1] - centroids[:, None, :, 1]
    dx *= dx
    dy *= dy
    dx += dy
    return dx


def _distinct_counts(clouds):
    """Number of distinct points in each of the (B, N, 2) clouds."""
    order = np.lexsort((clouds[..., 1], clouds[..., 0]), axis=-1)
    ranked = np.take_along_axis(clouds, order[..., None], axis=1)
    return 1 + np.count_nonzero(np.any(ranked[:, 1:] != ranked[:, :-1], axis=2), axis=1)


def _kmeanspp(clouds, s, rngs):
    """k-means++ seeding of K clouds at once; stage k draws only from rngs[k],
    in the order a single-cloud seeding would."""
    k_stages, n, _ = clouds.shape
    rows = np.arange(k_stages)
    centroids = np.empty((k_stages, s, 2))
    centroids[:, 0] = clouds[rows, [g.integers(n) for g in rngs]]
    d2 = _sq_dist(clouds, centroids[:, :1])[:, :, 0]
    for k in range(1, s):
        total = d2.sum(axis=1)
        live = total > 0
        with np.errstate(invalid="ignore", divide="ignore"):
            cdf = np.cumsum(d2 / total[:, None], axis=1)
            cdf /= cdf[:, -1:]
        # rng.choice(n, p=d2 / total) is one uniform draw located in this cdf;
        # a stage whose points all sit on centroids draws an index uniformly.
        draws = np.array([g.random() if ok else g.integers(n)
                          for g, ok in zip(rngs, live)], dtype=float)
        idx = np.where(live, np.sum(cdf <= draws[:, None], axis=1),
                       draws.astype(np.intp))
        centroids[:, k] = clouds[rows, idx]
        np.minimum(d2, _sq_dist(clouds, centroids[:, k:k + 1])[:, :, 0], out=d2)
    return centroids


def _fill_empty_cells(dists, assign):
    """Keep all S cells alive: hand the farthest point to any empty cell.
    A point handed over is out of the running for the rest of the round."""
    n, s = dists.shape
    for k in range(s):
        if not np.any(assign == k):
            far = int(np.argmax(dists[np.arange(n), assign]))
            assign[far] = k
            dists[far, :] = -np.inf


def _lloyd_rounds(clouds, centroids, tol, max_iter):
    """Alternate partition and centroid steps on K clouds at once.

    Each cloud stops on its own distortion test and leaves the batch.
    Returns, per cloud, its final centroids, cell counts and distortions.
    """
    k_stages, n, _ = clouds.shape
    s = centroids.shape[1]
    history = np.empty((k_stages, max_iter))
    out = [None] * k_stages
    ids = np.arange(k_stages)
    for rnd in range(max_iter):
        k_live = ids.size
        dists = _sq_dist(clouds, centroids)
        assign = np.argmin(dists, axis=2)
        cells = assign + s * np.arange(k_live)[:, None]
        counts = np.bincount(cells.ravel(), minlength=k_live * s).reshape(k_live, s)
        for k in np.flatnonzero(np.any(counts == 0, axis=1)):
            _fill_empty_cells(dists[k], assign[k])
            cells[k] = assign[k] + s * k
            counts[k] = np.bincount(assign[k], minlength=s)
        flat = cells.ravel()
        with np.errstate(invalid="ignore"):
            centroids = np.stack(
                [np.bincount(flat, clouds[:, :, j].ravel(), k_live * s) for j in (0, 1)],
                axis=1) / counts.reshape(-1, 1)
        resid = clouds - centroids[flat].reshape(k_live, n, 2)
        d = np.sum((resid * resid).reshape(k_live, 2 * n), axis=1)
        centroids = centroids.reshape(k_live, s, 2)
        history[ids, rnd] = d
        if rnd == max_iter - 1:
            done = np.ones(k_live, dtype=bool)
        elif rnd == 0:
            done = np.zeros(k_live, dtype=bool)
        else:
            prev = history[ids, rnd - 1]
            done = prev - d <= tol * np.maximum(prev, 1e-300)
        for k in np.flatnonzero(done):
            out[ids[k]] = (centroids[k], counts[k], history[ids[k], :rnd + 1].tolist())
        if done.all():
            break
        keep = ~done
        clouds, centroids, ids = clouds[keep], centroids[keep], ids[keep]
    return out


def _quantize(clouds, s: int, tol: float, max_iter: int, seeds) -> List[QuantizationResult]:
    """Lloyd-Max laws of the (B, N, 2) clouds; cloud b seeds from seeds[b]."""
    b_stages, n, _ = clouds.shape
    if s < 1 or n < s:
        raise ScenarioError(f"need N >= S >= 1, got N={n}, S={s}")
    if max_iter < 1:
        raise ScenarioError(f"max_iter must be >= 1, got {max_iter}")
    results: List[Optional[QuantizationResult]] = [None] * b_stages
    saturated = _distinct_counts(clouds) <= s
    for b in np.flatnonzero(saturated):
        # Saturated quantizer: cells are the distinct values themselves.
        distinct, counts = np.unique(clouds[b], axis=0, return_counts=True)
        results[b] = QuantizationResult(
            _canonical(distinct, counts / n, distinct.shape[0] < s), [0.0])
    lloyd = np.flatnonzero(~saturated)
    for lo in range(0, len(lloyd), _STAGE_BLOCK):
        block = lloyd[lo:lo + _STAGE_BLOCK]
        batch = np.ascontiguousarray(clouds[block])
        rngs = [np.random.default_rng(seeds[b]) for b in block]
        rounds = _lloyd_rounds(batch, _kmeanspp(batch, s, rngs), tol, max_iter)
        for b, (centroids, counts, distortions) in zip(block, rounds):
            results[b] = QuantizationResult(
                _canonical(centroids, counts / n, False), distortions)
    return results


def lloyd_max(points, s: int, tol: float = 1e-6, max_iter: int = 200,
              seed: Optional[int] = None) -> QuantizationResult:
    """Quantize a point cloud into S cells by alternating partition/centroid.

    Returns the discrete law (cell centroids weighted by cell counts) and the
    recorded distortion sequence, which is non-increasing. This is the batch
    of one of `quantize_stagewise`.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = np.column_stack([points, np.zeros_like(points)])
    if points.ndim != 2 or points.shape[1] != 2:
        raise ScenarioError(f"points must have shape (N,) or (N, 2), got {points.shape}")
    return _quantize(points[None], s, tol, max_iter, [seed])[0]


def quantize_stagewise(opt: ScenarioSet, s: int = 20, tol: float = 1e-6,
                       max_iter: int = 200, seed: Optional[int] = None
                       ) -> List[DiscreteDistribution]:
    """Per-stage discrete laws for t = 1..T; entry k is the law of w_{k+1}.

    All stages run as one batch; stage t seeds from the t-th child of `seed`,
    so each law equals `lloyd_max(opt.data[:, t], ...)` with that child seed.
    """
    _require_offline(opt, "quantize_stagewise")
    seeds = np.random.SeedSequence(seed).spawn(opt.horizon)
    clouds = opt.data[:, 1:, :].transpose(1, 0, 2)
    return [r.distribution for r in
            _quantize(clouds, min(s, opt.n), tol, max_iter, seeds)]


def save_distributions(dists: Sequence[DiscreteDistribution], path):
    payload = [
        {
            "t": k + 1,
            "points": [[float(a), float(b)] for a, b in d.points],
            "weights": [float(w) for w in d.weights],
        }
        for k, d in enumerate(dists)
    ]
    with open(path, "w") as f:
        json.dump(payload, f, indent=1)


def load_distributions(path) -> List[DiscreteDistribution]:
    """Read the laws `save_distributions` wrote; entry k must be stage t = k + 1."""
    with open(path) as f:
        payload = json.load(f)
    if not isinstance(payload, list):
        raise ScenarioError("expected a list of stage laws")
    out = []
    for k, entry in enumerate(payload):
        if not isinstance(entry, dict) or not {"t", "points", "weights"} <= entry.keys():
            raise ScenarioError(f"entry {k} needs the keys t, points and weights")
        t = entry["t"]
        if type(t) is not int or t != k + 1:
            raise ScenarioError(f"entry {k} has t = {t!r}, expected {k + 1}")
        try:
            out.append(DiscreteDistribution(np.array(entry["points"], dtype=float),
                                            np.array(entry["weights"], dtype=float)))
        except ValueError as exc:
            raise ScenarioError(f"stage {t}: {exc}") from exc
    return out
