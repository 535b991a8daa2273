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
(N-1)-dimensional sample coordinates x (y = basis x) and never builds y.
One dispatch, ``_quadrature``, validates the region and method parameters,
picks the estimator and rejects a non-finite result.

numpy is imported only inside the sampler and ``_BlockWeights``, which
weighs its points with an array of the projected forms.  The set-up and the
whole grid rule are plain Python, so ``volume --grid`` runs without numpy: a
grid run skips the numpy import (about 0.13 s) but pays a few microseconds
per node evaluated where numpy paid a fraction of one.

Estimators: importance-sampled Monte Carlo tilted along the v0 direction
(``mc``, taming the exp(||v0||R) dynamic range), and for N <= 3 a nested
grid rule that halves its spacing each round and evaluates each node once
(``grid``, ``_grid_refine``).

The sampler streams.  The budget is cut into chunks of ``_CHUNK`` samples,
one SeedSequence child each, and every chunk spawns its random streams in a
fixed order: the t-uniforms, then the radial uniforms, then one normal stream
per coordinate.  A chunk draws, places and weighs ``_BLOCK`` points at a
time in buffers it allocates once, so memory is one block per thread
whatever the budget.  A block is stored coordinate-major, shape
(n_dim, rows): coordinate i is one contiguous row, filled from normal stream
i (the first coordinate comes from the t-uniforms, so normal stream 0 is
unused), and the block is weighed with one matrix product ``forms @ x``.
At N = 3 the one cross-section coordinate is uniform on a segment and comes
from the radial uniforms alone, so normal streams 0 and 1 both go unused;
N = 2 draws only the t-uniforms.
``_BLOCK`` never changes a result, and neither does the thread count: a
result depends on the seed and the budget alone.
The same pass yields the weight diagnostics (effective sample size,
in-region fraction, largest weight share).

For N = 2 the grid is the trapezoid rule in x.  For N = 3 each section at
fixed first coordinate t is integrated exactly along s: written with two
exponentials per sinh, the integrand is a signed sum of exponentials of
linear forms.  Only the outer trapezoid in t remains, summed with
``math.fsum``.  An exponential past the double range is inf, as in the
sampler, so such a grid estimate is rejected as not finite.
"""

from __future__ import annotations

import itertools
import math
import sys
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .partitions import Cone, Partition, _Record, p_norm

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "QuadratureResult",
    "mu_A_ball",
    "closed_form_asymptotic",
    "mu_n2_closed_form",
]

_REGIONS = ("b+", "bc+", "annulus")
_METHODS = ("mc", "grid")
_LOG_FLOAT_MAX = math.log(sys.float_info.max)
_SQRT_FLOAT_MIN = math.sqrt(sys.float_info.min)   # a smaller weight squares to 0
_CHUNK = 250_000   # samples per SeedSequence child
_BLOCK = 16_384    # points drawn, placed and weighed at once: the block's arrays stay in cache
GRID_REL_TARGET = 1e-3   # relative agreement of successive grid estimates
_GRID_MAX_ROUNDS = 8     # step halvings before the grid gives up
_GRID_MAX_NODES = 2 ** 22   # nodes of the largest grid the rule builds


class QuadratureResult(_Record):
    """Estimate with an error size: Monte Carlo standard error, or the last
    refinement delta for the grid rule.

    ``samples`` counts sample points for ``mc``; for ``grid`` it counts the
    points of the last N = 2 trapezoid, or the non-empty sections of the
    last N = 3 grid.  ``converged`` says whether the grid's refinement met
    its relative target (None for ``mc``).

    ``mc`` also reports how far its weights can be trusted (None for
    ``grid``): ``ess``, the effective sample size
    (sum w)^2 / sum w^2 (0 when every weight is 0); ``in_region``, the
    fraction of samples inside the region; and ``max_weight_share``, the
    largest weight over the sum of the weights (NaN when that sum is 0).
    A negative ``standard_error`` raises ``ValueError``.
    """

    __slots__ = _fields = ("estimate", "standard_error", "samples", "region", "method",
                           "seed", "converged", "ess", "in_region", "max_weight_share")

    def __init__(self, estimate: float, standard_error: float, samples: int, region: str,
                 method: str, seed: int | None = None, converged: bool | None = None,
                 ess: float | None = None, in_region: float | None = None,
                 max_weight_share: float | None = None):
        if standard_error < 0:
            raise ValueError("standard error must be nonnegative")
        self._init(estimate, standard_error, samples, region, method, seed, converged,
                   ess, in_region, max_weight_share)


def _dot(a: Sequence[float], b: Sequence[float]) -> float:
    return float(sum([x * y for x, y in zip(a, b)]))


def _exp(x: float) -> float:
    """e^x, inf past the double range where ``math.exp`` raises."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def traceless_basis(n: int) -> list[tuple[float, ...]]:
    """Orthonormal basis of the traceless diagonal subspace: n - 1 vectors
    of length n.

    The first vector is the unit vector along v0, so the tilting direction
    is the first coordinate.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    norm = p_norm(n)
    vectors = [tuple([(n - 2 * i - 1) / norm for i in range(n)])]
    for i in range(n - 1):
        w = [0.0] * n
        w[i], w[i + 1] = 1.0, -1.0
        for c in vectors:
            d = _dot(w, c)
            w = [a - d * b for a, b in zip(w, c)]
        norm = math.sqrt(_dot(w, w))
        if norm > 1e-9:
            vectors.append(tuple([a / norm for a in w]))
    assert len(vectors) >= n - 1
    return vectors[: n - 1]


class _Integrand(NamedTuple):
    """exp(<c, x>) * prod_k sinh(<alpha_k, x>) on a region, in sample
    coordinates x.

    ``forms`` holds c, the ``n_sinh`` alpha_k and then the normals of the
    cone's half-spaces <normal, x> >= floor, each as a tuple of its n - 1
    coefficients.  The region is the cone within the ball of ``radius``,
    less the ball of ``inner`` when that is given (the annulus).
    """

    forms: tuple[tuple[float, ...], ...]
    n_sinh: int
    floors: tuple[float, ...]
    radius: float
    inner: float | None

    @classmethod
    def project(cls, cone: Cone, c: Sequence[float], alphas: list[Sequence[float]],
                radius: float, inner: float | None) -> "_Integrand":
        basis = traceless_basis(cone.partition.n)
        half = cone.half_spaces()
        forms = tuple(tuple([_dot(e, form) for e in basis])
                      for form in [c, *alphas, *(normal for normal, _ in half)])
        return cls(forms, len(alphas), tuple(floor for _, floor in half), radius, inner)

    @property
    def n_dim(self) -> int:
        return len(self.forms[0])

    def line_weight(self, t: float) -> float:
        """For N = 2: the integrand e^(<c, x>) at x = t, 0 outside the
        region.  The only N = 2 partition, [1, 1], has no intra-block pair,
        so there is no sinh factor."""
        r2 = t * t
        if r2 > self.radius * self.radius or (self.inner is not None
                                              and r2 <= self.inner * self.inner):
            return 0.0
        for (a,), floor in zip(self.forms[1:], self.floors):
            if a * t < floor:
                return 0.0
        return _exp(self.forms[0][0] * t)

    def sections(self, ts: Sequence[float]) -> tuple[list[float], list[float]]:
        """For N = 3: the s-interval [lo, hi] of the region's section at each
        first coordinate t, cone and outer ball only; lo = hi = 0 when empty.

        The cone and ball are convex, so a section is the disk chord cut by
        the cone's two walls a*t + b*s >= floor.  The t axis, along v0, lies
        inside the cone at an acute angle to both its edges, so one wall has
        b > 0 and bounds lo, and the other has b < 0 and bounds hi.
        """
        r2 = self.radius * self.radius
        ((a_lo, b_lo), floor_lo), ((a_hi, b_hi), floor_hi) = sorted(
            zip(self.forms[1 + self.n_sinh:], self.floors), key=lambda wall: -wall[0][1])
        los, his = [], []
        for t in ts:
            cross = r2 - t * t
            lo = hi = 0.0
            if cross > 0:
                hi = math.sqrt(cross)
                lo = max(-hi, (floor_lo - a_lo * t) / b_lo)
                hi = min(hi, (floor_hi - a_hi * t) / b_hi)
                if not lo < hi:
                    lo = hi = 0.0
            los.append(lo)
            his.append(hi)
        return los, his

    def section_integrals(self, ts: Sequence[float], los: Sequence[float],
                          his: Sequence[float]) -> list[float]:
        """For N = 3: the exact integral over s in [lo, hi] at each t (lo <= hi).

        Each sinh is a difference of two exponentials, so the integrand is
        a sum of 2^k signed exponentials exp(p*t + q*s), each integrated in
        closed form.  Overflow gives inf or NaN, not an error.
        """
        k = self.n_sinh
        c, alphas = self.forms[0], self.forms[1:1 + k]
        terms = []
        for signs in itertools.product((1.0, -1.0), repeat=k):
            p = c[0] + sum([sign * a[0] for sign, a in zip(signs, alphas)])
            q = c[1] + sum([sign * a[1] for sign, a in zip(signs, alphas)])
            terms.append((math.prod(signs), p, q, abs(q)))
        scale = 2.0 ** k
        out = []
        for t, lo, hi in zip(ts, los, his):
            length = hi - lo
            if not length > 0:
                # an empty section contributes 0 even where its exponential overflows
                out.append(0.0)
                continue
            total = 0.0
            for sign, p, q, abs_q in terms:
                if q == 0.0:
                    term = _exp(p * t) * length
                else:
                    # exp at the upper end of the exponential, times a factor <= length
                    top = hi if q > 0 else lo
                    term = _exp(p * t + q * top) * (-math.expm1(-abs_q * length) / abs_q)
                total += sign * term
            out.append(total / scale)
        return out


def _validate(n: int, region: str, method: str, radius: float, offset: float,
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
        if n > 3:
            raise NotImplementedError(f"grid quadrature implemented for n <= 3, got n = {n}")
        if not (grid_step is not None and math.isfinite(grid_step) and grid_step > 0):
            raise ValueError(f"grid step must be positive and finite, got {grid_step}")
        # the first grid has ceil(2R/step) intervals; its first halving must fit
        if 2 * radius / grid_step > (_GRID_MAX_NODES - 1) // 2:
            raise ValueError(f"grid step {grid_step} at R={radius}: the first refined "
                             f"grid would pass {_GRID_MAX_NODES} nodes")
    elif budget < 2:
        raise ValueError(f"a standard error needs a sample budget of at least 2, got {budget}")


def _log_ball_volume(d: int) -> float:
    return d / 2.0 * math.log(math.pi) - math.lgamma(d / 2.0 + 1.0)


class _TiltedBallSampler:
    """Proposal on the ball: exponential first coordinate, uniform cross-section.

    q(t, w) = [rate e^{rate t} / Z] * Uniform(cross-section ball of radius
    h = sqrt(R^2 - t^2)) with Z = (e^{rate R} - e^{-rate R}) / rate.  At
    N = 3 the cross-section is the segment [-h, h] and w = h (2v - 1) comes
    from the radial uniform v alone; past N = 3 it is a direction from the
    normals, scaled to a radius h v^(1/d).  The buffers hold ``rows`` points
    and are reused by every ``sample`` call.
    """

    def __init__(self, n_dim: int, radius: float, rate: float, rows: int):
        import numpy as np

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
        radii from ``rngs[1]`` and, past N = 3, cross-section coordinate i
        from the normal stream ``rngs[2 + i]``; at N = 3 no normal stream is
        drawn.  They are views of the buffers, overwritten by the next
        call."""
        import numpy as np

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
            cross = self.cross[:rows]
            np.multiply(t, t, out=cross)
            np.subtract(r * r, cross, out=cross)
            np.maximum(cross, 0.0, out=cross)
            np.sqrt(cross, out=cross)
            if d == 1:
                # the unit sphere of a segment is {-1, 1}: uniform on [-h, h]
                w = x[1]
                rngs[1].random(out=w)
                w *= 2.0
                w -= 1.0
                w *= cross
            else:
                g, v = x[1:], self.v[:rows]
                for row, rng in zip(g, rngs[3:]):
                    rng.standard_normal(out=row)
                rngs[1].random(out=v)
                # uniform in the cross-section ball: direction g/|g|, radius cross * v^(1/d)
                norms = np.sqrt(np.einsum("ij,ij->j", g, g))
                norms[norms == 0] = 1.0
                np.power(v, 1.0 / d, out=v)
                v *= cross
                v /= norms
                g *= v
            np.maximum(cross, 1e-300, out=cross)
            np.log(cross, out=cross)
            cross *= d
            log_q -= cross
            log_q -= _log_ball_volume(d)
        return x, log_q


class _BlockWeights:
    """log of an ``_Integrand`` over blocks of up to ``rows`` points, in
    buffers allocated once: the forms array, their values at the block, the
    squared radii, the outside mask and one more mask for each test."""

    def __init__(self, integrand: _Integrand, rows: int):
        import numpy as np

        self.integrand = integrand
        self.forms = np.array(integrand.forms)
        self.values = np.empty(len(integrand.forms) * rows)
        self.r2 = np.empty(rows)
        self.outside = np.empty(rows, dtype=bool)
        self.cut = np.empty(rows, dtype=bool)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """log of the integrand at the columns of x, -inf outside the
        region: a view of the buffers, overwritten by the next call."""
        import numpy as np

        integrand, rows = self.integrand, x.shape[1]
        f = self.values[:len(self.forms) * rows].reshape(-1, rows)
        np.matmul(self.forms, x, out=f)   # one row per linear form
        k = integrand.n_sinh
        r2, outside, cut = self.r2[:rows], self.outside[:rows], self.cut[:rows]
        np.einsum("ij,ij->j", x, x, out=r2)
        np.greater(r2, integrand.radius * integrand.radius, out=outside)
        if integrand.inner is not None:
            outside |= np.less_equal(r2, integrand.inner * integrand.inner, out=cut)
        for form, floor in zip(f[1 + k:], integrand.floors):
            outside |= np.less(form, floor, out=cut)
        log_f = f[0]
        if k:
            alphas = f[1:1 + k]
            # outside the region an alpha form may be negative: NaN, masked below
            with np.errstate(divide="ignore", invalid="ignore"):
                np.log(np.sinh(alphas, out=alphas), out=alphas)
            for row in alphas[1:]:
                alphas[0] += row
            log_f += alphas[0]
        np.copyto(log_f, -np.inf, where=outside)
        return log_f


def _fold(carry: float, a: np.ndarray) -> float:
    """carry + a[0] + a[1] + ..., added strictly left to right, so a run of
    values sums the same however it is cut into blocks; overwrites a."""
    import numpy as np

    a[0] += carry
    np.cumsum(a, out=a)
    return float(a[-1])


def _sampled_estimate(integrand: _Integrand, budget: int, seed: int,
                      threads: int = 1) -> dict:
    """Importance-sampling mean and standard error of the integrand, and the
    weight diagnostics, as ``QuadratureResult`` fields.

    The budget is cut into chunks of ``_CHUNK`` samples, one SeedSequence
    child each.  Each child spawns 2 + n_dim streams: the t-uniforms, the
    radial uniforms and then one normal stream per coordinate.  Normal
    stream 0 is never drawn (the first coordinate is t), and at N = 3
    neither is normal stream 1 (the segment needs no direction), but every
    N spawns all of them, so the streams keep their indices.  A chunk
    draws, places and weighs ``_BLOCK`` points at a time in the buffers of
    one ``_TiltedBallSampler`` (tilted at rate ||v0||) and one
    ``_BlockWeights``, coordinate-major (one row per coordinate), so memory
    is one block per thread whatever the budget.  Every stream fills its
    own row of the block in order, so the numbers a chunk draws do not
    depend on ``_BLOCK``; its sums are left folds over its samples in
    order, so neither ``_BLOCK`` nor ``threads`` changes a result.

    Weights reach about e^(||v0|| R), so they are summed scaled by
    e^(-||v0|| R) and the mean and error multiplied back, which keeps their
    squares finite.  A scaled weight of order R or smaller squares to 0 at
    a tiny R, so when some sample lands in the region but the largest
    scaled weight is below sqrt(sys.float_info.min) the estimate raises
    ValueError as past the double range.  The diagnostics are the
    effective sample size (sum w)^2 / sum w^2, the fraction of samples in
    the region (finite log-weight) and the largest weight's share of the
    sum.
    """
    import numpy as np

    children = np.random.SeedSequence(seed).spawn(math.ceil(budget / _CHUNK))
    n_dim, radius = integrand.n_dim, integrand.radius
    rate = p_norm(n_dim + 1)
    log_scale = rate * radius

    def one_chunk(idx: int) -> tuple[float, float, float, int]:
        rngs = [np.random.default_rng(s) for s in children[idx].spawn(2 + n_dim)]
        size = min(_CHUNK, budget - idx * _CHUNK)
        rows = min(_BLOCK, size)
        sampler = _TiltedBallSampler(n_dim, radius, rate, rows)
        weigh = _BlockWeights(integrand, rows)
        sq, finite = np.empty(rows), np.empty(rows, dtype=bool)
        total = total_sq = w_max = 0.0
        hits = 0
        for start in range(0, size, _BLOCK):
            x, log_q = sampler.sample(rngs, min(_BLOCK, size - start))
            w = weigh(x)
            hits += int(np.count_nonzero(np.isfinite(w, out=finite[:w.size])))
            w -= log_q
            w -= log_scale
            np.exp(w, out=w)
            w_max = max(w_max, float(w.max()))
            total_sq = _fold(total_sq, np.multiply(w, w, out=sq[:w.size]))
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
    w_max = max(p[2] for p in parts)
    hits = sum(p[3] for p in parts)
    if hits and w_max < _SQRT_FLOAT_MIN:
        raise ValueError(f"mc quadrature at R={radius}: the scaled weights, at most {w_max}, "
                         f"square to 0: past the double range")
    mean = total / budget
    var = max(total_sq / budget - mean * mean, 0.0)
    scale = math.exp(log_scale) if log_scale <= _LOG_FLOAT_MAX else math.inf
    return {
        "estimate": mean * scale,
        "standard_error": math.sqrt(var / budget) * scale,
        "samples": budget,
        "ess": total * (total / total_sq) if total_sq else 0.0,
        "in_region": hits / budget,
        "max_weight_share": w_max / total if total else math.nan,
    }


def _grid_values(integrand: _Integrand, ts: list[float]) -> tuple[list[float], int]:
    """The rule's value at each node t, and how many nodes count as samples.
    N = 2: the integrand at x = t, every node counted.  N = 3: the section at
    t integrated exactly, less its part in the inner disk for the annulus,
    the non-empty sections counted."""
    if integrand.n_dim == 1:
        assert not integrand.n_sinh
        return [integrand.line_weight(t) for t in ts], len(ts)
    lo, hi = integrand.sections(ts)
    vals = integrand.section_integrals(ts, lo, hi)
    if integrand.inner is not None:
        inner2 = integrand.inner ** 2
        h_in = [math.sqrt(max(inner2 - t * t, 0.0)) for t in ts]
        in_lo = [max(a, -r) for a, r in zip(lo, h_in)]
        in_hi = [max(min(b, r), a) for a, b, r in zip(in_lo, hi, h_in)]
        vals = [v - w for v, w in zip(vals, integrand.section_integrals(ts, in_lo, in_hi))]
    return vals, sum([a < b for a, b in zip(lo, hi)])


def _trapezoid(ts: list[float], vals: list[float]) -> float:
    try:
        return math.fsum([(t1 - t0) * (v1 + v0) / 2.0
                          for t0, t1, v0, v1 in zip(ts, ts[1:], vals, vals[1:])])
    except (OverflowError, ValueError):   # past the double range: rejected by the caller
        return math.inf


def _interleave(kept: list[float], mids: list[float]) -> list[float]:
    out = kept + mids
    out[0::2], out[1::2] = kept, mids
    return out


def _grid_refine(integrand: _Integrand, step: float) -> dict:
    """Nested grid rule on [-R, R] for N = 2 and 3, from ceil(2R/step) equal
    intervals.  Each round halves the spacing h and evaluates only the new
    midpoints i*h - R (i odd), interleaved with the kept nodes and values,
    so every node is evaluated once.  Halving h is exact: where 2R/step is
    whole, each grid is the one a fresh grid of its spacing would be, bit
    for bit.  Rounds stop once successive estimates agree to
    ``GRID_REL_TARGET`` (``converged``), after ``_GRID_MAX_ROUNDS`` rounds or
    before a grid would pass ``_GRID_MAX_NODES`` nodes.  The error is the
    last round's change, ``samples`` counts the last grid's."""
    radius = integrand.radius
    k = max(1, math.ceil(2 * radius / step))
    h = 2 * radius / k
    ts = [i * h - radius for i in range(k)] + [radius]   # the last node is R exactly
    vals, samples = _grid_values(integrand, ts)
    prev = _trapezoid(ts, vals)
    for _ in range(_GRID_MAX_ROUNDS):
        h /= 2.0
        mids = [i * h - radius for i in range(1, 2 * k, 2)]
        mid_vals, mid_samples = _grid_values(integrand, mids)
        k, samples = 2 * k, samples + mid_samples
        ts, vals = _interleave(ts, mids), _interleave(vals, mid_vals)
        cur = _trapezoid(ts, vals)
        delta = abs(cur - prev)
        prev = cur
        converged = prev != 0 and delta / abs(prev) < GRID_REL_TARGET
        # a change past the double range: refining cannot help
        if converged or not math.isfinite(delta) or 2 * k + 1 > _GRID_MAX_NODES:
            break
    return {"estimate": prev, "standard_error": delta, "samples": samples,
            "converged": converged}


def _quadrature(partition: Partition, c: Sequence[float], alphas: list[Sequence[float]],
                radius: float, region: str, method: str, budget: int, offset: float,
                eps: float | None, seed: int, grid_step: float | None,
                threads: int) -> QuadratureResult:
    """Integral of exp(<c, y>) * prod_k sinh(<alphas[k], y>) over a region:
    the one validation and method dispatch behind ``mu_A_ball``.  A result
    that is not finite (past the double range) raises ValueError."""
    _validate(partition.n, region, method, radius, offset, eps, budget, grid_step)
    cone = Cone(partition, offset if region == "bc+" else 0.0)
    inner = eps * radius if region == "annulus" else None
    integrand = _Integrand.project(cone, c, alphas, radius, inner)
    if method == "grid":
        fields, seed = _grid_refine(integrand, grid_step), None
    else:
        fields = _sampled_estimate(integrand, budget, seed, threads)
    estimate, error = fields["estimate"], fields["standard_error"]
    if not (math.isfinite(estimate) and math.isfinite(error)):
        raise ValueError(f"{method} quadrature at R={radius} is not finite "
                         f"(estimate {estimate}, error {error}): past the double range")
    return QuadratureResult(region=region, method=method, seed=seed, **fields)


def _density_forms(partition: Partition) -> tuple[list[float], list[list[float]]]:
    """The measure density as exp(<c, y>) * prod_k sinh(<alphas[k], y>): c
    sums e_i - e_j over the cross-block pairs, the alphas are e_i - e_j over
    the intra-block pairs."""
    def pair(i: int, j: int) -> list[float]:
        e = [0.0] * partition.n
        e[i], e[j] = 1.0, -1.0
        return e

    c = [0.0] * partition.n
    for i, j in partition.cross_pairs():
        c[i] += 1.0
        c[j] -= 1.0
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
    is rejected.  ``method``: ``mc`` (importance sampling, with a
    ``budget`` of at least 2 samples) or ``grid`` (nested grid halving a
    positive initial ``grid_step``; N <= 3).

    An ``mc`` estimate depends on (``seed``, ``budget``) alone: each chunk
    of the budget spawns its streams in the order t-uniforms, radial
    uniforms, then one normal stream per sample coordinate, and the block
    size and ``threads`` never change a result.  N = 2 draws the
    t-uniforms alone, N = 3 the t- and radial uniforms (its cross-section
    is a segment), and N >= 4 every stream but normal stream 0.  Memory is
    one block of points per thread, whatever the budget.  Weights too small
    to square (a tiny R) raise ValueError, as a result past the double
    range does.
    """
    c, alphas = _density_forms(partition)
    return _quadrature(partition, c, alphas, radius, region, method, budget, offset,
                       eps, seed, grid_step, threads)


def closed_form_asymptotic(partition: Partition, radius: float) -> float:
    """Stated leading term for the B+ measure:
    (1/2)^(sum n_k(n_k-1)/2) * (2 pi R / ||v0||)^((N-2)/2) * exp(||v0|| R).

    No command reports it; the tests measure the grid's B+ estimate against
    it."""
    n = partition.n
    p = p_norm(n)
    halves = sum(m * (m - 1) // 2 for m in partition.sizes)
    return 0.5 ** halves * (2.0 * math.pi * radius / p) ** ((n - 2) / 2.0) * math.exp(p * radius)


def mu_n2_closed_form(radius: float) -> float:
    """Exact B+ measure for N = 2: (sqrt2/2)(e^(sqrt2 R) - 1).

    At N = 2 the density is exp(<v0, y>), so this is also the integral of
    exp(<v0, y>) over the positive cone within the ball."""
    return math.sqrt(2.0) / 2.0 * (math.exp(math.sqrt(2.0) * radius) - 1.0)

