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

An integrand is data, not a callable: exp(<c, y>) * prod_k sinh(<alpha_k, y>)
over the region.  ``mu_A_ball`` takes c = the sum of the cross-block pairs
and the intra-block differences as the alpha_k.  These linear forms and the
cone's half-spaces (``partitions.Cone``) are projected once onto the
orthonormal basis of ``traceless_basis``, so every estimator works in the
(N-1)-dimensional sample coordinates x (y = basis @ x) and never builds y.
One dispatch, ``_quadrature``, validates the region and method parameters,
picks the estimator and rejects a non-finite result.

Estimators: importance-sampled Monte Carlo tilted along the v0 direction
(taming the exp(||v0||R) dynamic range); plain rejection sampling over the
ball, a slow oracle for small R; and a grid rule with refinement doubling.

Both samplers stream.  The budget is cut into chunks of ``_CHUNK`` samples,
one SeedSequence child each, and every chunk spawns its random streams in a
fixed order: the t-uniforms, then the radial uniforms, then one normal stream
per coordinate.  A chunk draws, places and weighs ``_BLOCK`` points at a
time in buffers it allocates once, so memory is one block per thread
whatever the budget.  A block is stored coordinate-major, shape
(n_dim, rows): coordinate i is one contiguous row, filled from normal stream
i (the tilted sampler takes its first coordinate from the t-uniforms and
leaves normal stream 0 unused), and the block is weighed with one matrix
product ``forms.T @ x``.  ``_BLOCK`` never changes a result, and neither
does the thread count: a result depends on the seed and the budget alone.
The same pass yields the weight diagnostics (effective sample size,
in-region fraction, largest weight share).

For N = 2 the grid is the trapezoid rule in x.  For N = 3 each section at
fixed first coordinate t is integrated exactly along s: written with two
exponentials per sinh, the integrand is a signed sum of exponentials of
linear forms.  Only the outer trapezoid in t remains.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .partitions import Cone, Partition, v0 as v0_vector, p_norm

__all__ = [
    "QuadratureResult",
    "mu_A_ball",
    "closed_form_asymptotic",
    "mu_n2_closed_form",
]

_REGIONS = ("b+", "bc+", "annulus")
_METHODS = ("mc", "plain", "grid")
_LOG_FLOAT_MAX = math.log(sys.float_info.max)
_CHUNK = 250_000   # samples per SeedSequence child
_BLOCK = 16_384    # points drawn, placed and weighed at once: the block's arrays stay in cache
GRID_REL_TARGET = 1e-3   # relative agreement of successive grid estimates
_GRID_MAX_ROUNDS = 8     # step halvings before the grid gives up


@dataclass(frozen=True)
class QuadratureResult:
    """Estimate with an error size: Monte Carlo standard error, or the last
    refinement delta for the grid rule.

    ``samples`` counts sample points for ``mc`` and ``plain``; for ``grid``
    it counts the points of the last N = 2 trapezoid, or the non-empty
    sections of the last N = 3 grid.  ``converged`` says whether the grid's
    refinement met its relative target (None for the sampling methods).

    The sampling methods also report how far their weights can be trusted
    (None for ``grid``): ``ess``, the effective sample size
    (sum w)^2 / sum w^2 (0 when every weight is 0); ``in_region``, the
    fraction of samples inside the region; and ``max_weight_share``, the
    largest weight over the sum of the weights (NaN when that sum is 0).
    """

    estimate: float
    standard_error: float
    samples: int
    region: str
    method: str
    seed: int | None = None
    converged: bool | None = None
    ess: float | None = None
    in_region: float | None = None
    max_weight_share: float | None = None

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


@dataclass(frozen=True)
class _Integrand:
    """exp(<c, x>) * prod_k sinh(<alpha_k, x>) on a region, in sample
    coordinates x.

    The columns of ``forms`` are c, the ``n_sinh`` alpha_k and then the
    normals of the cone's half-spaces <normal, x> >= floor.  The region is
    the cone within the ball of ``radius``, less the ball of ``inner`` when
    that is given (the annulus).
    """

    forms: np.ndarray
    n_sinh: int
    floors: np.ndarray
    radius: float
    inner: float | None

    @classmethod
    def project(cls, cone: Cone, c: np.ndarray, alphas: list[np.ndarray],
                radius: float, inner: float | None) -> "_Integrand":
        basis = traceless_basis(cone.partition.n)
        half = cone.half_spaces()
        forms = basis.T @ np.column_stack([c, *alphas, *(normal for normal, _ in half)])
        floors = np.array([floor for _, floor in half])
        return cls(forms, len(alphas), floors, radius, inner)

    def log_weight(self, x: np.ndarray) -> np.ndarray:
        """log of the integrand at the columns of x (one row per
        coordinate); -inf outside the region."""
        f = self.forms.T @ x   # one row per linear form
        k = self.n_sinh
        r2 = np.einsum("ij,ij->j", x, x)
        inside = r2 <= self.radius * self.radius
        if self.inner is not None:
            inside &= r2 > self.inner * self.inner
        for form, floor in zip(f[1 + k:], self.floors):
            inside &= form >= floor
        log_f = f[0]
        if k:
            # outside the region an alpha form may be negative: NaN, masked below
            with np.errstate(divide="ignore", invalid="ignore"):
                log_f = log_f + np.log(np.sinh(f[1:1 + k])).sum(axis=0)
        return np.where(inside, log_f, -np.inf)

    def sections(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """For N = 3: the s-interval [lo, hi] of the region's section at each
        first coordinate t, cone and outer ball only; lo = hi = 0 when empty.

        The cone and ball are convex, so a section is the disk chord cut by
        the half-planes a*t + b*s >= floor.
        """
        cross = self.radius * self.radius - ts * ts
        hi = np.sqrt(np.maximum(cross, 0.0))
        lo = -hi
        empty = cross <= 0
        for (a, b), floor in zip(self.forms[:, 1 + self.n_sinh:].T, self.floors):
            if abs(b) < 1e-15:
                empty |= a * ts < floor - 1e-12
            elif b > 0:
                lo = np.maximum(lo, (floor - a * ts) / b)
            else:
                hi = np.minimum(hi, (floor - a * ts) / b)
        empty |= lo >= hi
        return np.where(empty, 0.0, lo), np.where(empty, 0.0, hi)

    def section_integrals(self, ts: np.ndarray, lo: np.ndarray,
                          hi: np.ndarray) -> np.ndarray:
        """For N = 3: the exact integral over s in [lo, hi] at each t (lo <= hi).

        Each sinh is a difference of two exponentials, so the integrand is
        a sum of 2^k signed exponentials exp(p*t + q*s), each integrated in
        closed form.  Overflow gives inf or NaN, not an error.
        """
        k = self.n_sinh
        length = hi - lo
        total = np.zeros_like(ts)
        with np.errstate(over="ignore", invalid="ignore"):
            for signs in itertools.product((1.0, -1.0), repeat=k):
                p, q = self.forms[:, 0] + self.forms[:, 1:1 + k] @ np.array(signs)
                if q == 0.0:
                    term = np.exp(p * ts) * length
                else:
                    # exp at the upper end of the exponential, times a factor <= length
                    top = hi if q > 0 else lo
                    term = np.exp(p * ts + q * top) * (-np.expm1(-abs(q) * length) / abs(q))
                total += math.prod(signs) * term
        # an empty section contributes 0 even where its exponential overflows
        return np.where(length > 0, total, 0.0) / 2.0 ** k


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
    if region != "bc+" and offset != 0.0:
        raise ValueError(f"offset {offset} applies to the bc+ region only, not {region}")
    if region == "annulus" and (eps is None or not 0.0 < eps < 1.0):
        raise ValueError("annulus region needs eps in (0, 1)")
    if region != "annulus" and eps is not None:
        raise ValueError(f"eps {eps} applies to the annulus region only, not {region}")
    if method == "grid":
        if not (grid_step is not None and math.isfinite(grid_step) and grid_step > 0):
            raise ValueError(f"grid step must be positive and finite, got {grid_step}")
    elif budget < 2:
        raise ValueError(f"a standard error needs a sample budget of at least 2, got {budget}")


def _log_ball_volume(d: int) -> float:
    return d / 2.0 * math.log(math.pi) - math.lgamma(d / 2.0 + 1.0)


def _ball_points(g: np.ndarray, v: np.ndarray, radius, out: np.ndarray) -> None:
    """Points uniform in the ball of ``radius`` (a scalar, or one per point)
    into the columns of ``out``, from standard normals g (one row per
    coordinate) and one uniform per point v (overwritten); ``out`` may be g."""
    norms = np.sqrt(np.einsum("ij,ij->j", g, g))
    norms[norms == 0] = 1.0
    np.power(v, 1.0 / g.shape[0], out=v)
    v *= radius
    v /= norms
    np.multiply(g, v, out=out)


class _TiltedBallSampler:
    """Proposal on the ball: exponential first coordinate, uniform cross-section.

    q(t, w) = [rate e^{rate t} / Z] * Uniform(cross-section ball of radius
    sqrt(R^2 - t^2)) with Z = (e^{rate R} - e^{-rate R}) / rate.  The buffers
    hold ``rows`` points and are reused by every ``sample`` call.
    """

    def __init__(self, n_dim: int, radius: float, rate: float, rows: int):
        self.radius = radius
        self.rate = rate
        self.span = -math.expm1(-2.0 * rate * radius)   # 1 - e^{-2 rate R}
        self.log_z = math.log(self.span) + rate * radius - math.log(rate)
        self.x = np.empty((n_dim, rows))
        self.log_q = np.empty(rows)
        self.cross = np.empty(rows)
        self.v = np.empty(rows)

    def sample(self, rngs: list, rows: int) -> tuple[np.ndarray, np.ndarray]:
        """``rows`` points x (columns) and their log proposal density.  The
        first coordinate t comes from the t-uniform stream ``rngs[0]``, the
        radii from ``rngs[1]`` and cross-section coordinate i from the normal
        stream ``rngs[2 + i]``.  They are views of the buffers, overwritten
        by the next call."""
        r, rate = self.radius, self.rate
        x, log_q = self.x[:, :rows], self.log_q[:rows]
        t = x[0]
        rngs[0].random(out=t)
        # inverse CDF of the truncated exponential on [-R, R]
        t -= 1.0
        t *= self.span
        np.log1p(t, out=t)
        t /= rate
        t += r
        np.multiply(t, rate, out=log_q)
        log_q -= self.log_z
        d = x.shape[0] - 1
        if d:
            g, v, cross = x[1:], self.v[:rows], self.cross[:rows]
            for row, rng in zip(g, rngs[3:]):
                rng.standard_normal(out=row)
            rngs[1].random(out=v)
            np.multiply(t, t, out=cross)
            np.subtract(r * r, cross, out=cross)
            np.maximum(cross, 0.0, out=cross)
            np.sqrt(cross, out=cross)
            _ball_points(g, v, cross, g)
            np.maximum(cross, 1e-300, out=cross)
            np.log(cross, out=cross)
            cross *= d
            log_q -= cross
            log_q -= _log_ball_volume(d)
        return x, log_q


class _UniformBallSampler:
    """Proposal uniform on the ball, for the rejection oracle.  The buffers
    hold ``rows`` points and are reused by every ``sample`` call."""

    def __init__(self, n_dim: int, radius: float, rows: int):
        self.radius = radius
        self.x = np.empty((n_dim, rows))
        self.v = np.empty(rows)
        self.log_q = np.full(rows, -(_log_ball_volume(n_dim) + n_dim * math.log(radius)))

    def sample(self, rngs: list, rows: int) -> tuple[np.ndarray, np.ndarray]:
        """Like ``_TiltedBallSampler.sample``, with coordinate i from the
        normal stream ``rngs[2 + i]``; the t-uniform stream is unused."""
        x, v = self.x[:, :rows], self.v[:rows]
        for row, rng in zip(x, rngs[2:]):
            rng.standard_normal(out=row)
        rngs[1].random(out=v)
        _ball_points(x, v, self.radius, x)
        return x, self.log_q[:rows]


def _fold(carry: float, a: np.ndarray) -> float:
    """carry + a[0] + a[1] + ..., added strictly left to right, so a run of
    values sums the same however it is cut into blocks; overwrites a."""
    a[0] += carry
    np.cumsum(a, out=a)
    return float(a[-1])


def _sampled_estimate(integrand: _Integrand, make_sampler, budget: int, seed: int,
                      log_scale: float, threads: int = 1) -> dict:
    """Importance-sampling mean and standard error of the integrand, and the
    weight diagnostics, as ``QuadratureResult`` fields.

    The budget is cut into chunks of ``_CHUNK`` samples, one SeedSequence
    child each.  Each child spawns 2 + n_dim streams: the t-uniforms, the
    radial uniforms and then one normal stream per coordinate.  A chunk
    draws, places and weighs ``_BLOCK`` points at a time in the buffers of
    one ``make_sampler(rows)``, coordinate-major (one row per coordinate),
    so memory is one block per thread whatever the budget.  Every stream
    fills its own row of the block in order, so the numbers a chunk draws
    do not depend on ``_BLOCK``; its sums are left folds over its samples
    in order, so neither ``_BLOCK`` nor ``threads`` changes a result.

    Weights reach about e^(||v0|| R), so they are summed scaled by
    e^(-log_scale) and the mean and error multiplied back, which keeps their
    squares finite.  The diagnostics are the effective sample size
    (sum w)^2 / sum w^2, the fraction of samples in the region (finite
    log-weight) and the largest weight's share of the sum.
    """
    children = np.random.SeedSequence(seed).spawn(math.ceil(budget / _CHUNK))
    n_dim = integrand.forms.shape[0]

    def one_chunk(idx: int) -> tuple[float, float, float, int]:
        rngs = [np.random.default_rng(s) for s in children[idx].spawn(2 + n_dim)]
        size = min(_CHUNK, budget - idx * _CHUNK)
        sampler = make_sampler(min(_BLOCK, size))
        total = total_sq = w_max = 0.0
        hits = 0
        for start in range(0, size, _BLOCK):
            x, log_q = sampler.sample(rngs, min(_BLOCK, size - start))
            w = integrand.log_weight(x)
            hits += int(np.count_nonzero(np.isfinite(w)))
            w -= log_q
            w -= log_scale
            np.exp(w, out=w)
            w_max = max(w_max, float(w.max()))
            total_sq = _fold(total_sq, w * w)
            total = _fold(total, w)
        return total, total_sq, w_max, hits

    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(one_chunk, range(len(children))))
    else:
        parts = [one_chunk(i) for i in range(len(children))]
    total = sum(p[0] for p in parts)
    total_sq = sum(p[1] for p in parts)
    mean = total / budget
    var = max(total_sq / budget - mean * mean, 0.0)
    scale = math.exp(log_scale) if log_scale <= _LOG_FLOAT_MAX else math.inf
    return {
        "estimate": mean * scale,
        "standard_error": math.sqrt(var / budget) * scale,
        "samples": budget,
        "ess": total * (total / total_sq) if total_sq else 0.0,
        "in_region": sum(p[3] for p in parts) / budget,
        "max_weight_share": max(p[2] for p in parts) / total if total else math.nan,
    }


def _mc_estimate(integrand: _Integrand, n: int, budget: int, seed: int,
                 threads: int = 1) -> dict:
    """Importance sampling tilted along the first coordinate at rate ||v0||."""
    rate = p_norm(n)
    return _sampled_estimate(
        integrand, lambda rows: _TiltedBallSampler(n - 1, integrand.radius, rate, rows),
        budget, seed, rate * integrand.radius, threads)


def _rejection_estimate(integrand: _Integrand, n: int, budget: int, seed: int) -> dict:
    """Uniform sampling over the ball; slow oracle for small radii."""
    return _sampled_estimate(
        integrand, lambda rows: _UniformBallSampler(n - 1, integrand.radius, rows),
        budget, seed, p_norm(n) * integrand.radius)


def _grid_estimate(integrand: _Integrand, step: float) -> tuple[float, int]:
    """Grid rule on m points t in [-R, R]; supports n = 2 and n = 3.

    N = 2: trapezoid over the points, ``m`` of them counted.  N = 3: the
    section at each t integrated exactly, then the trapezoid over t; the
    non-empty sections are counted.
    """
    radius = integrand.radius
    m = max(2, int(math.ceil(2 * radius / step)) + 1)
    ts = np.linspace(-radius, radius, m)
    n_dim = integrand.forms.shape[0]
    if n_dim == 1:
        with np.errstate(over="ignore", invalid="ignore"):   # inf: rejected by the caller
            return float(np.trapezoid(np.exp(integrand.log_weight(ts[None, :])), ts)), m
    if n_dim == 2:
        lo, hi = integrand.sections(ts)
        vals = integrand.section_integrals(ts, lo, hi)
        if integrand.inner is not None:
            # subtract the part of each section inside the inner disk
            h_in = np.sqrt(np.maximum(integrand.inner ** 2 - ts * ts, 0.0))
            in_lo, in_hi = np.maximum(lo, -h_in), np.minimum(hi, h_in)
            in_hi = np.maximum(in_lo, in_hi)
            vals -= integrand.section_integrals(ts, in_lo, in_hi)
        with np.errstate(invalid="ignore"):
            return float(np.trapezoid(vals, ts)), int(np.count_nonzero(lo < hi))
    raise NotImplementedError(f"grid quadrature implemented for n <= 3, got n = {n_dim + 1}")


def _grid_refine(integrand: _Integrand, step: float) -> dict:
    """Halve the step until successive estimates agree to ``GRID_REL_TARGET``,
    at most ``_GRID_MAX_ROUNDS`` times; ``converged`` says whether they did."""
    prev, _ = _grid_estimate(integrand, step)
    converged = False
    for _ in range(_GRID_MAX_ROUNDS):
        step /= 2.0
        cur, samples = _grid_estimate(integrand, step)
        delta = abs(cur - prev)
        prev = cur
        if not math.isfinite(delta):   # past the double range: refining cannot help
            break
        if prev != 0 and delta / abs(prev) < GRID_REL_TARGET:
            converged = True
            break
    return {"estimate": prev, "standard_error": delta, "samples": samples,
            "converged": converged}


def _quadrature(partition: Partition, c: np.ndarray, alphas: list[np.ndarray],
                radius: float, region: str, method: str, budget: int, offset: float,
                eps: float | None, seed: int, grid_step: float | None,
                threads: int) -> QuadratureResult:
    """Integral of exp(<c, y>) * prod_k sinh(<alphas[k], y>) over a region:
    the one validation and method dispatch behind ``mu_A_ball``.  A result
    that is not finite (past the double range) raises ValueError."""
    _validate(region, method, radius, offset, eps, budget, grid_step)
    cone = Cone(partition, offset if region == "bc+" else 0.0)
    inner = eps * radius if region == "annulus" else None
    integrand = _Integrand.project(cone, c, alphas, radius, inner)
    if method == "mc":
        fields = _mc_estimate(integrand, partition.n, budget, seed, threads)
    elif method == "plain":
        fields = _rejection_estimate(integrand, partition.n, budget, seed)
    else:
        fields = _grid_refine(integrand, grid_step)
        seed = None
    estimate, error = fields["estimate"], fields["standard_error"]
    if not (math.isfinite(estimate) and math.isfinite(error)):
        raise ValueError(f"{method} quadrature at R={radius} is not finite "
                         f"(estimate {estimate}, error {error}): past the double range")
    return QuadratureResult(region=region, method=method, seed=seed, **fields)


def _density_forms(partition: Partition) -> tuple[np.ndarray, list[np.ndarray]]:
    """The measure density as exp(<c, y>) * prod_k sinh(<alphas[k], y>): c
    sums e_i - e_j over the cross-block pairs, the alphas are e_i - e_j over
    the intra-block pairs."""
    def pair(i: int, j: int) -> np.ndarray:
        e = np.zeros(partition.n)
        e[i], e[j] = 1.0, -1.0
        return e

    c = sum((pair(i, j) for i, j in partition.cross_pairs()), np.zeros(partition.n))
    return c, [pair(i, j) for i, j in partition.intra_pairs()]


def mu_A_ball(partition: Partition, radius: float, region: str = "b+",
              method: str = "mc", budget: int = 1_000_000, *,
              offset: float = 0.0, eps: float | None = None,
              seed: int = 0, grid_step: float | None = 0.05,
              threads: int = 1) -> QuadratureResult:
    """Measure of a height-ball region under the diagonal-part density.

    ``region`` is one of ``b+`` (positive cone cap), ``bc+`` (offset cone
    cap, needs a finite ``offset`` <= 0) and ``annulus`` (B+(R) minus
    B+(eps R)); a nonzero ``offset`` or any ``eps`` given for another region
    is rejected.  ``method``: ``mc`` (importance sampling), ``grid``
    (refinement doubling from a positive ``grid_step``; N <= 3) or
    ``plain`` (rejection oracle, small R only); the sampling methods need a
    ``budget`` of at least 2.

    A sampling estimate depends on (``seed``, ``budget``) alone: each chunk
    of the budget spawns its streams in the order t-uniforms, radial
    uniforms, then one normal stream per sample coordinate, and the block
    size and ``threads`` (``mc`` only) never change a result.  Memory is one
    block of points per thread, whatever the budget.
    """
    c, alphas = _density_forms(partition)
    return _quadrature(partition, c, alphas, radius, region, method, budget, offset,
                       eps, seed, grid_step, threads)


def closed_form_asymptotic(partition: Partition, radius: float) -> float:
    """Stated leading term for the B+ measure:
    (1/2)^(sum n_k(n_k-1)/2) * (2 pi R / ||v0||)^((N-2)/2) * exp(||v0|| R)."""
    n = partition.n
    p = p_norm(n)
    halves = sum(m * (m - 1) // 2 for m in partition.sizes)
    return 0.5 ** halves * (2.0 * math.pi * radius / p) ** ((n - 2) / 2.0) * math.exp(p * radius)


def mu_n2_closed_form(radius: float) -> float:
    """Exact B+ measure for N = 2: (sqrt2/2)(e^(sqrt2 R) - 1).

    At N = 2 the density is exp(<v0, y>), so this is also the integral of
    exp(<v0, y>) over the positive cone within the ball."""
    return math.sqrt(2.0) / 2.0 * (math.exp(math.sqrt(2.0) * radius) - 1.0)

