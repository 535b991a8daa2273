"""Numerical quadrature for the diagonal-part measure over height balls.

The measure lives on the (N-1)-dimensional traceless diagonal space in an
orthonormal basis, so its Lebesgue reference measure is the standard one.
Its density at a point y is

    exp(sum over cross-block pairs i<j of (y_i - y_j))
    * prod over intra-block pairs i<j of sinh(y_i - y_j),

supported on the positive cone (chamber + nonnegative block-prefix sums).
Regions: B+ is the cone intersected with the trace-form ball of radius R,
BC+ replaces the cone by its offset translate C <= 0, and the annulus is
B+(R) minus B+(eps*R).

Two estimators are provided: importance-sampled Monte Carlo tilted along
the sum-of-positive-roots direction (taming the exp(||v0||R) dynamic
range) and a section-based tensor trapezoid grid.  Plain rejection
sampling is retained as a slow oracle for small R.  ``mu_A_ball`` (the
measure density) and ``cone_integral`` (exp(<v0, y>)) differ only in the
log-integrand they pass to one dispatch, ``_quadrature``, which validates
the region and method parameters once and picks the estimator.  Regions
take the cone's half-spaces from ``partitions.Cone``.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .partitions import Cone, Partition, v0 as v0_vector, p_norm

__all__ = [
    "QuadratureResult",
    "mu_A_ball",
    "cone_integral",
    "asym_ratio_report",
    "well_rounded_margin",
    "closed_form_asymptotic",
    "mu_n2_closed_form",
    "cone_n2_closed_form",
]

_REGIONS = ("b+", "bc+", "annulus")
_METHODS = ("mc", "plain", "grid")
_LOG_FLOAT_MAX = math.log(sys.float_info.max)

# log of the integrand at rows of y (shape (m, n))
_LogIntegrand = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class QuadratureResult:
    """Estimate with an error size: Monte Carlo standard error, or the last
    refinement delta for the grid rule."""

    estimate: float
    standard_error: float
    samples: int
    region: str
    method: str
    seed: int | None = None

    def __post_init__(self):
        if self.standard_error < 0:
            raise ValueError("standard error must be nonnegative")


def traceless_basis(n: int) -> np.ndarray:
    """Orthonormal basis (columns) of the traceless diagonal subspace.

    The first column is the unit vector along v0, so the tilting direction
    is the first coordinate.
    """
    v = v0_vector(n)
    cols = [v / np.linalg.norm(v)]
    for i in range(n - 1):
        w = np.zeros(n)
        w[i], w[i + 1] = 1.0, -1.0
        for c in cols:
            w -= (w @ c) * c
        norm = np.linalg.norm(w)
        if norm > 1e-9:
            cols.append(w / norm)
    basis = np.column_stack(cols[: n - 1])
    assert basis.shape == (n, n - 1)
    return basis


def _mu_log_density(partition: Partition, y: np.ndarray) -> np.ndarray:
    """log of the measure density at rows of y (shape (m, n)); -inf outside
    the chamber."""
    logd = np.zeros(y.shape[0])
    for i, j in partition.cross_pairs():
        logd += y[:, i] - y[:, j]
    ok = np.ones(y.shape[0], dtype=bool)
    for i, j in partition.intra_pairs():
        d = y[:, i] - y[:, j]
        ok &= d >= 0.0
        with np.errstate(divide="ignore"):
            logd += np.where(d > 0, np.log(np.maximum(np.sinh(np.maximum(d, 0.0)), 1e-300)), -np.inf)
    logd[~ok] = -np.inf
    return logd


def _region_mask(cone: Cone, y: np.ndarray, radius: float,
                 eps: float | None) -> np.ndarray:
    """Membership mask at rows of y: the cone within the ball, less the
    inner ball of radius eps * R when ``eps`` is given."""
    norms = np.linalg.norm(y, axis=1)
    mask = norms <= radius
    for normal, floor in cone.half_spaces():
        mask &= y @ normal >= floor
    if eps is not None:
        mask &= norms > eps * radius
    return mask


def _validate(region: str, method: str, radius: float, offset: float,
              eps: float | None, budget: int, grid_step: float | None) -> None:
    if region not in _REGIONS:
        raise ValueError(f"unknown region {region!r}; expected one of {_REGIONS}")
    if method not in _METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {_METHODS}")
    if not (math.isfinite(radius) and radius > 0):
        raise ValueError(f"radius must be positive and finite, got {radius}")
    if region == "bc+" and not (math.isfinite(offset) and offset <= 0):
        raise ValueError(f"bc+ region needs a finite offset C <= 0, got {offset}")
    if region == "annulus" and (eps is None or not 0.0 < eps < 1.0):
        raise ValueError("annulus region needs eps in (0, 1)")
    if method == "grid":
        if not (grid_step is not None and math.isfinite(grid_step) and grid_step > 0):
            raise ValueError(f"grid step must be positive and finite, got {grid_step}")
    elif budget < 1:
        raise ValueError(f"sample budget must be at least 1, got {budget}")


class _TiltedBallSampler:
    """Proposal on the ball: exponential first coordinate, uniform cross-section.

    q(t, w) = [rate e^{rate t} / Z] * Uniform(cross-section ball of radius
    sqrt(R^2 - t^2)) with Z = (e^{rate R} - e^{-rate R}) / rate.
    """

    def __init__(self, n_dim: int, radius: float, rate: float):
        self.n_dim = n_dim
        self.radius = radius
        self.rate = rate
        self.log_z = math.log1p(-math.exp(-2.0 * rate * radius)) + rate * radius - math.log(rate)

    def draw(self, rng, count: int) -> tuple[np.ndarray, np.ndarray]:
        r, rate = self.radius, self.rate
        u = rng.random(count)
        # inverse CDF of the truncated exponential on [-R, R]
        t = r + np.log1p((u - 1.0) * (1.0 - math.exp(-2.0 * rate * r))) / rate
        x = np.empty((count, self.n_dim))
        x[:, 0] = t
        cross = np.sqrt(np.maximum(r * r - t * t, 0.0))
        d = self.n_dim - 1
        log_q = rate * t - self.log_z
        if d > 0:
            g = rng.standard_normal((count, d))
            norms = np.linalg.norm(g, axis=1, keepdims=True)
            norms[norms == 0] = 1.0
            radii = cross[:, None] * rng.random((count, 1)) ** (1.0 / d)
            x[:, 1:] = g / norms * radii
            log_ball = _log_ball_volume(d) + d * np.log(np.maximum(cross, 1e-300))
            log_q = log_q - log_ball
        return x, log_q


def _log_ball_volume(d: int) -> float:
    return d / 2.0 * math.log(math.pi) - math.lgamma(d / 2.0 + 1.0)


def _mc_estimate(cone: Cone, log_f: _LogIntegrand, radius: float, eps: float | None,
                 budget: int, seed: int, threads: int = 1) -> tuple[float, float, int]:
    n = cone.partition.n
    basis = traceless_basis(n)
    rate = p_norm(n)
    sampler = _TiltedBallSampler(n - 1, radius, rate)
    # Weights reach about e^(||v0|| R); they are summed scaled by e^(-||v0|| R)
    # so that their squares stay finite at large R.
    log_scale = rate * radius
    chunk = 250_000
    n_chunks = max(1, math.ceil(budget / chunk))
    seeds = np.random.SeedSequence(seed).spawn(n_chunks)

    def one_chunk(idx: int) -> tuple[float, float, int]:
        rng = np.random.default_rng(seeds[idx])
        m = min(chunk, budget - idx * chunk)
        x, log_q = sampler.draw(rng, m)
        y = x @ basis.T
        mask = _region_mask(cone, y, radius, eps)
        w = np.exp(np.where(mask, log_f(y) - log_q - log_scale, -np.inf))
        return float(w.sum()), float((w * w).sum()), m

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(one_chunk, range(n_chunks)))
    else:
        parts = [one_chunk(i) for i in range(n_chunks)]
    total = sum(p[0] for p in parts)
    total_sq = sum(p[1] for p in parts)
    count = sum(p[2] for p in parts)
    mean = total / count
    var = max(total_sq / count - mean * mean, 0.0)
    scale = math.exp(log_scale) if log_scale <= _LOG_FLOAT_MAX else math.inf
    return mean * scale, math.sqrt(var / count) * scale, count


def _rejection_estimate(cone: Cone, log_f: _LogIntegrand, radius: float,
                        eps: float | None, budget: int,
                        seed: int) -> tuple[float, float, int]:
    """Uniform sampling over the ball; slow oracle for small radii."""
    n = cone.partition.n
    basis = traceless_basis(n)
    d = n - 1
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((budget, d))
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    x = g / norms * (radius * rng.random((budget, 1)) ** (1.0 / d))
    y = x @ basis.T
    mask = _region_mask(cone, y, radius, eps)
    vol = math.exp(_log_ball_volume(d)) * radius ** d
    w = np.where(mask, np.exp(log_f(y)), 0.0) * vol
    mean = float(w.mean())
    se = float(w.std(ddof=1) / math.sqrt(budget)) if budget > 1 else float("inf")
    return mean, se, budget


def _section_bounds(planes: list[tuple[np.ndarray, float]], radius: float,
                    t: float) -> tuple[float, float] | None:
    """For n = 3: the s-interval of the region section at first coordinate t.

    ``planes`` are the cone's half-spaces in the (t, s) coordinates.  The
    region is convex for b+/bc+, so sections are intervals found by
    intersecting half-planes with the disk chord.
    """
    cross = radius * radius - t * t
    if cross <= 0:
        return None
    hi = math.sqrt(cross)
    lo = -hi
    for (a, b), floor in planes:
        # a*t + b*s >= floor
        if abs(b) < 1e-15:
            if a * t < floor - 1e-12:
                return None
        elif b > 0:
            lo = max(lo, (floor - a * t) / b)
        else:
            hi = min(hi, (floor - a * t) / b)
    if lo >= hi:
        return None
    return lo, hi


def _grid_estimate(cone: Cone, log_f: _LogIntegrand, radius: float,
                   eps: float | None, step: float) -> tuple[float, int]:
    """Tensor trapezoid over sections; supports n = 2 and n = 3."""
    n = cone.partition.n
    basis = traceless_basis(n)
    m = max(2, int(math.ceil(2 * radius / step)) + 1)
    ts = np.linspace(-radius, radius, m)
    if n == 2:
        y = ts[:, None] * basis[:, 0][None, :]
        vals = np.where(_region_mask(cone, y, radius, eps), np.exp(log_f(y)), 0.0)
        return float(np.trapezoid(vals, ts)), m
    if n == 3:
        planes = [(normal @ basis, floor) for normal, floor in cone.half_spaces()]
        sigma = np.linspace(0.0, 1.0, m)
        evals = 0
        inner = np.zeros(m)
        for it, t in enumerate(ts):
            bounds = _section_bounds(planes, radius, t)
            if bounds is None:
                continue
            lo, hi = bounds
            s = lo + (hi - lo) * sigma
            y = t * basis[:, 0][None, :] + s[:, None] * basis[:, 1][None, :]
            vals = np.exp(log_f(y))
            if eps is not None:
                vals = np.where(_region_mask(cone, y, radius, eps), vals, 0.0)
            inner[it] = np.trapezoid(vals, s)
            evals += m
        return float(np.trapezoid(inner, ts)), evals
    raise NotImplementedError(f"grid quadrature implemented for n <= 3, got n = {n}")


def _grid_refine(cone: Cone, log_f: _LogIntegrand, radius: float, eps: float | None,
                 step: float, rel_target: float = 1e-3,
                 max_rounds: int = 8) -> tuple[float, float, int]:
    prev, n_prev = _grid_estimate(cone, log_f, radius, eps, step)
    delta = float("inf")
    for _ in range(max_rounds):
        step /= 2.0
        cur, n_cur = _grid_estimate(cone, log_f, radius, eps, step)
        delta = abs(cur - prev)
        prev, n_prev = cur, n_cur
        if prev != 0 and delta / abs(prev) < rel_target:
            break
    return prev, delta, n_prev


def _quadrature(partition: Partition, log_f: _LogIntegrand, radius: float,
                region: str, method: str, budget: int, offset: float,
                eps: float | None, seed: int, grid_step: float | None,
                threads: int) -> QuadratureResult:
    """Integral of exp(log_f) over a region: the one validation and method
    dispatch behind ``mu_A_ball`` and ``cone_integral``."""
    _validate(region, method, radius, offset, eps, budget, grid_step)
    cone = Cone(partition, offset if region == "bc+" else 0.0)
    eps = eps if region == "annulus" else None
    if method == "mc":
        estimate, error, samples = _mc_estimate(cone, log_f, radius, eps, budget,
                                                seed, threads)
    elif method == "plain":
        estimate, error, samples = _rejection_estimate(cone, log_f, radius, eps,
                                                       budget, seed)
    else:
        estimate, error, samples = _grid_refine(cone, log_f, radius, eps, grid_step)
        seed = None
    return QuadratureResult(estimate, error, samples, region, method, seed)


def mu_A_ball(partition: Partition, radius: float, region: str = "b+",
              method: str = "mc", budget: int = 1_000_000, *,
              offset: float = 0.0, eps: float | None = None,
              seed: int = 0, grid_step: float | None = 0.05,
              threads: int = 1) -> QuadratureResult:
    """Measure of a height-ball region under the diagonal-part density.

    ``region`` is one of ``b+`` (positive cone cap), ``bc+`` (offset cone
    cap, needs a finite ``offset`` <= 0) and ``annulus`` (B+(R) minus
    B+(eps R)).  ``method``: ``mc`` (importance sampling), ``grid``
    (trapezoid with refinement doubling, positive ``grid_step``) or
    ``plain`` (rejection oracle, small R only); the sampling methods need a
    ``budget`` of at least 1.
    """
    return _quadrature(partition, lambda y: _mu_log_density(partition, y), radius,
                       region, method, budget, offset, eps, seed, grid_step, threads)


def cone_integral(partition: Partition, offset: float, radius: float,
                  method: str = "mc", budget: int = 1_000_000, *,
                  seed: int = 0, grid_step: float = 0.05,
                  threads: int = 1) -> QuadratureResult:
    """Integral of exp(<v0, y>) over the offset cone (finite offset <= 0)
    intersected with the ball."""
    vdot = v0_vector(partition.n)
    return _quadrature(partition, lambda y: y @ vdot, radius,
                       "b+" if offset == 0.0 else "bc+", method, budget, offset,
                       None, seed, grid_step, threads)


def closed_form_asymptotic(partition: Partition, radius: float) -> float:
    """Stated leading term for the B+ measure:
    (1/2)^(sum n_k(n_k-1)/2) * (2 pi R / ||v0||)^((N-2)/2) * exp(||v0|| R)."""
    n = partition.n
    p = p_norm(n)
    halves = sum(m * (m - 1) // 2 for m in partition.sizes)
    return 0.5 ** halves * (2.0 * math.pi * radius / p) ** ((n - 2) / 2.0) * math.exp(p * radius)


def mu_n2_closed_form(radius: float) -> float:
    """Exact B+ measure for N = 2: (sqrt2/2)(e^(sqrt2 R) - 1)."""
    return math.sqrt(2.0) / 2.0 * (math.exp(math.sqrt(2.0) * radius) - 1.0)


def cone_n2_closed_form(radius: float) -> float:
    """Exact positive-cone integral for N = 2: (e^(sqrt2 R) - 1)/sqrt2."""
    return (math.exp(math.sqrt(2.0) * radius) - 1.0) / math.sqrt(2.0)


def asym_ratio_report(partition: Partition, radii, method: str = "mc",
                      budget: int = 1_000_000, seed: int = 0,
                      threads: int = 1) -> dict:
    """Measured-over-stated ratios for B+(R) with a 1/R extrapolation.

    Rows carry (R, estimate, standard error, closed form, ratio); the
    extrapolated limit comes from a least-squares fit of log(ratio)
    against 1/R (intercept at R = infinity).
    """
    radii = list(radii)
    if any(r2 <= r1 for r1, r2 in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly increasing")
    rows = []
    for i, r in enumerate(radii):
        res = mu_A_ball(partition, r, "b+", method, budget, seed=seed + i,
                        threads=threads)
        stated = closed_form_asymptotic(partition, r)
        rows.append({
            "R": r,
            "estimate": res.estimate,
            "standard_error": res.standard_error,
            "closed_form": stated,
            "ratio": res.estimate / stated,
        })
    limit = None
    if len(rows) >= 2:
        xs = np.array([1.0 / row["R"] for row in rows])
        ys = np.array([math.log(row["ratio"]) for row in rows])
        slope, intercept = np.polyfit(xs, ys, 1)
        limit = math.exp(intercept)
    return {"rows": rows, "extrapolated_ratio": limit}


def well_rounded_margin(partition: Partition, radius: float, delta: float,
                        method: str = "mc", budget: int = 1_000_000,
                        seed: int = 0, threads: int = 1) -> tuple[float, float]:
    """(vol(B_{R+delta})/vol(B_R), vol(B_{R-delta})/vol(B_R)) for the B+ family.

    A shared seed correlates the estimates, stabilizing the ratios.
    """
    if not 0.0 < delta < radius:
        raise ValueError("need 0 < delta < R")
    base = mu_A_ball(partition, radius, "b+", method, budget, seed=seed, threads=threads)
    up = mu_A_ball(partition, radius + delta, "b+", method, budget, seed=seed,
                   threads=threads)
    down = mu_A_ball(partition, radius - delta, "b+", method, budget, seed=seed,
                     threads=threads)
    return up.estimate / base.estimate, down.estimate / base.estimate
