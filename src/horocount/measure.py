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

numpy is imported only on the Monte Carlo path: the sampler,
``_BlockWeights`` (which weighs its points with an array of the projected
forms) and ``_sampled_estimate``.  The set-up and the whole grid rule are
plain Python, so ``volume --grid`` runs without numpy and skips its import
(about 0.13 s).

Estimators: importance-sampled Monte Carlo tilted along the v0 direction
(``mc``, ``_sampled_estimate``), and for N <= 3 ``grid``.  The tilt
e^(||v0|| t) is the integrand's own exponential: c + sum_k alpha_k = v0,
and sinh a = e^a (1 - e^(-2a)) / 2, so a weight over e^(||v0|| R) is a
closed-form product with no logarithm and no term that grows with R.
Only the result is multiplied by e^(||v0|| R), and a radius where that is
past the double range is rejected before any sample is drawn.

``grid`` at N = 2 is the exact integral of e^(c t) over an interval
(``_line_integral``), its step unused.  At N = 3 it is a nested grid rule
that halves its spacing each round and evaluates each node once
(``_grid_refine``).  Each section at fixed first coordinate t is
integrated exactly along s: written with two exponentials per sinh, the
integrand is a signed sum of exponentials of linear forms, whose
cancellation at a tiny R the error reports.  Only the outer trapezoid in
t remains, nested: halving the spacing h turns the estimate T into T/2 +
h * (the sum over the new midpoints), so a round holds only its own
nodes.  An exponential or a sum past the double range is inf, so such a
grid estimate is rejected as not finite; one that underflows to 0 or
below the normal doubles is rejected too.
"""

from __future__ import annotations

import itertools
import math
import sys
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .partitions import Cone, Partition, _Record, _dot, p_norm

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
_SQRT_FLOAT_MIN = math.sqrt(sys.float_info.min)   # a smaller weight squares to 0
_LOG_FLOAT_MAX = math.log(sys.float_info.max)     # e^x is inf past it
_CHUNK = 250_000   # samples per SeedSequence child
_BLOCK = 16_384    # points drawn, placed and weighed at once: the block's arrays stay in cache
GRID_REL_TARGET = 1e-3   # relative agreement of successive grid estimates
_GRID_MAX_ROUNDS = 8     # step halvings before the grid gives up
_GRID_MAX_NODES = 2 ** 22   # nodes of the finest grid the rule evaluates


class QuadratureResult(_Record):
    """Estimate with an error size: Monte Carlo standard error, or for the
    grid rule the larger of the last refinement delta and the sections'
    rounding bound.

    ``samples`` counts sample points for ``mc``; for ``grid`` it counts the
    non-empty sections of the last N = 3 grid, and is 1 for the exact N = 2
    integral (error 0).  ``converged`` says whether the grid's refinement
    and rounding bound met its relative target, always True at N = 2 (None
    for ``mc``).

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
        """The integrand in sample coordinates.  The Monte Carlo weights
        cancel the sampler's tilt in closed form, so c + sum_k alpha_k must
        be v0: it must project to (||v0||, 0, ..., 0) within 1e-12 relative,
        or ValueError is raised."""
        n = cone.partition.n
        basis = traceless_basis(n)
        half = cone.half_spaces()
        forms = tuple(tuple([_dot(e, form) for e in basis])
                      for form in [c, *alphas, *(normal for normal, _ in half)])
        rate = p_norm(n)
        growth = [sum(column) for column in zip(*forms[:1 + len(alphas)])]
        if math.dist(growth, [rate] + [0.0] * (n - 2)) > 1e-12 * rate:
            raise ValueError(f"c + sum of the alphas projects to {growth}, not v0 = "
                             f"({rate}, 0, ..., 0): the density's exponential must be "
                             "e^<v0, y>")
        return cls(forms, len(alphas), tuple(floor for _, floor in half), radius, inner)

    @property
    def n_dim(self) -> int:
        return len(self.forms[0])

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
                          his: Sequence[float]) -> tuple[list[float], list[float]]:
        """For N = 3: the exact integral over s in [lo, hi] at each t (lo <= hi),
        and the sum of its terms' magnitudes.

        Each sinh is a difference of two exponentials, so the integrand is
        a sum of 2^k signed exponentials exp(p*t + q*s), each integrated in
        closed form.  The terms cancel where the sinh arguments are small,
        so an integral's rounding error is about machine epsilon times its
        magnitude sum.  Overflow gives inf or NaN, not an error.
        """
        k = self.n_sinh
        c, alphas = self.forms[0], self.forms[1:1 + k]
        terms = []
        for signs in itertools.product((1.0, -1.0), repeat=k):
            p = c[0] + sum([sign * a[0] for sign, a in zip(signs, alphas)])
            q = c[1] + sum([sign * a[1] for sign, a in zip(signs, alphas)])
            terms.append((math.prod(signs), p, q, abs(q)))
        scale = 2.0 ** k
        out, magnitudes = [], []
        for t, lo, hi in zip(ts, los, his):
            length = hi - lo
            if not length > 0:
                # an empty section contributes 0 even where its exponential overflows
                out.append(0.0)
                magnitudes.append(0.0)
                continue
            total = magnitude = 0.0
            for sign, p, q, abs_q in terms:
                if q == 0.0:
                    term = _exp(p * t) * length
                else:
                    # exp at the upper end of the exponential, times a factor <= length
                    top = hi if q > 0 else lo
                    term = _exp(p * t + q * top) * (-math.expm1(-abs_q * length) / abs_q)
                total += sign * term
                magnitude += term
            out.append(total / scale)
            magnitudes.append(magnitude / scale)
        return out, magnitudes


def _validate(n: int, region: str, method: str, radius: float, offset: float,
              eps: float | None, budget: int, seed: int, grid_step: float | None) -> None:
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
        # the first N = 3 grid has ceil(2R/step) intervals; its first halving must fit
        if n == 3 and 2 * radius / grid_step > (_GRID_MAX_NODES - 1) // 2:
            raise ValueError(f"grid step {grid_step} at R={radius}: the first refined "
                             f"grid would pass {_GRID_MAX_NODES} nodes")
    elif budget < 2:
        raise ValueError(f"a standard error needs a sample budget of at least 2, got {budget}")
    elif seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed}")
    elif p_norm(n) * radius > _LOG_FLOAT_MAX:
        # the weights' scale e^(||v0|| R) is inf: no draw could make the result finite
        raise ValueError(f"mc quadrature at R={radius}: the weight scale "
                         f"e^{p_norm(n) * radius:.6g} is past the double range")


class _TiltedBallSampler:
    """Proposal on the ball: exponential first coordinate, uniform cross-section.

    q(t, w) = [rate e^{rate t} / Z] * Uniform(cross-section ball of radius
    h = sqrt(R^2 - t^2)) with Z = (e^{rate R} - e^{-rate R}) / rate.  At
    N = 3 the cross-section is the segment [-h, h] and w = h (2v - 1) comes
    from the radial uniform v alone; past N = 3 it is a direction from the
    normals, scaled to a radius h v^(1/d).  With span = 1 - e^{-2 rate R},
    V_d the volume of the unit d-ball and d = n_dim - 1,

        e^{-rate R} / q(t, w) = e^{-rate t} h^d * span V_d / rate,

    and ``scale`` is that constant factor.  The buffers hold ``rows`` points
    and are reused by every ``sample`` call.
    """

    def __init__(self, n_dim: int, radius: float, rate: float, rows: int):
        import numpy as np

        d = n_dim - 1
        self.radius = radius
        self.rate = rate
        self.span = -math.expm1(-2.0 * rate * radius)   # 1 - e^{-2 rate R}
        self.scale = self.span / rate * math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)
        self.x = np.empty((n_dim, rows))
        self.cross = np.empty(rows)
        self.v = np.empty(rows)

    def sample(self, rngs: list, rows: int) -> tuple[np.ndarray, np.ndarray | None]:
        """``rows`` points x (columns) and their cross-section radii h, None
        at N = 2, where the cross-section is a point.  The first coordinate
        t comes from the t-uniform stream ``rngs[0]``, the radii from
        ``rngs[1]`` and, past N = 3, cross-section coordinate i from the
        normal stream ``rngs[2 + i]``; at N = 3 no normal stream is drawn.
        They are views of the buffers, overwritten by the next call."""
        import numpy as np

        r, rate = self.radius, self.rate
        x = self.x[:, :rows]
        t = x[0]
        rngs[0].random(out=t)
        # inverse CDF of the truncated exponential on [-R, R]
        t -= 1.0
        t *= self.span
        np.log1p(t, out=t)
        t /= rate
        t += r
        d = x.shape[0] - 1
        if not d:
            return x, None
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
        return x, cross


class _BlockWeights:
    """An ``_Integrand`` over the proposal, e^{-rate R} f / q, over blocks of
    up to ``rows`` points, in buffers allocated once: the alpha forms and
    the cone's normals as one array, their values at the block, the squared
    radii, the outside mask and one more mask for each test.

    The integrand's exponential cancels the proposal's tilt: c + sum_k
    alpha_k is v0 (``_Integrand.project`` checks it), and sinh a =
    e^a (1 - e^{-2a}) / 2, so on the region

        e^{-rate R} f / q = scale 2^{-k} h^d prod_k (-expm1(-2 <alpha_k, x>)),

    with ``scale`` the sampler's constant: no term grows with R, and a
    weight is at most scale R^d.  Off the region (outside the ball or
    annulus, below a cone wall, or some <alpha_k, x> <= 0) it is 0.
    """

    def __init__(self, integrand: _Integrand, rows: int, scale: float):
        import numpy as np

        self.integrand = integrand
        self.forms = np.array(integrand.forms[1:])
        # the sign turns each expm1(-2a) into -expm1(-2a)
        self.scale = scale * (-0.5) ** integrand.n_sinh
        self.values = np.empty(len(self.forms) * rows)
        self.r2 = np.empty(rows)
        self.outside = np.empty(rows, dtype=bool)
        self.cut = np.empty(rows, dtype=bool)

    def __call__(self, x: np.ndarray, h: np.ndarray | None, out: np.ndarray) -> int:
        """The scaled weights at the columns of x, whose cross-section radii
        are h (None at N = 2), into ``out``; returns how many of the points
        lie in the region."""
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
        for form, floor in zip(f[k:], integrand.floors):
            outside |= np.less(form, floor, out=cut)
        out.fill(self.scale)
        for _ in range(x.shape[0] - 1):   # h^d
            out *= h
        for alpha in f[:k]:
            alpha *= -2.0
            np.expm1(alpha, out=alpha)
            outside |= np.greater_equal(alpha, 0.0, out=cut)   # exactly where a <= 0
            out *= alpha
        np.copyto(out, 0.0, where=outside)
        return rows - int(np.count_nonzero(outside))


def _sampled_estimate(integrand: _Integrand, budget: int, seed: int,
                      threads: int = 1) -> dict:
    """Importance-sampling mean and standard error of the integrand, and the
    weight diagnostics, as ``QuadratureResult`` fields.

    The budget is cut into chunks of ``_CHUNK`` samples.  Chunk idx builds
    its SeedSequence(seed, spawn_key=(idx,)), child idx of
    SeedSequence(seed).spawn, when it starts.  Each child spawns 2 + n_dim
    streams: the t-uniforms, the radial uniforms and then one normal stream
    per coordinate.  Normal stream 0 is never drawn (the first coordinate
    is t), and at N = 3 neither is normal stream 1 (the segment needs no
    direction), but every N spawns all of them, so the streams keep their
    indices.  A chunk draws, places and weighs ``_BLOCK`` points at a time
    in the buffers of one ``_TiltedBallSampler`` (tilted at rate ||v0||)
    and one ``_BlockWeights``, coordinate-major (one row per coordinate),
    so the points take one block per thread whatever the budget; the budget
    adds one small result per chunk, and one pending future per chunk when
    threads > 1.  Every stream fills its own row of the block in order, so
    the numbers a chunk draws do not depend on ``_BLOCK``.

    Weights reach about e^(||v0|| R), so they are summed scaled by
    e^(-||v0|| R), a factor the weights carry in closed form, and the mean
    and error multiplied back, which keeps their squares finite.  A block's
    scaled weights w and their squares fill the real and imaginary parts
    of a complex buffer after the chunk's running sums, and one cumsum
    folds both: numpy adds the two parts of a complex sum apart, so each is
    a left fold over the chunk's samples in order, and neither ``_BLOCK``
    nor ``threads`` changes a result.  A scaled weight of order R or
    smaller squares to 0 at a tiny R, so when some sample lands in the
    region but the largest scaled weight is below sqrt(sys.float_info.min)
    the estimate raises ValueError as past the double range.  The
    diagnostics are the effective sample size (sum w)^2 / sum w^2, the
    fraction of samples in the region and the largest weight's share of
    the sum.
    """
    import numpy as np

    chunks = math.ceil(budget / _CHUNK)
    n_dim, radius = integrand.n_dim, integrand.radius
    rate = p_norm(n_dim + 1)

    def one_chunk(idx: int) -> tuple[float, float, float, int]:
        child = np.random.SeedSequence(seed, spawn_key=(idx,))
        rngs = [np.random.default_rng(s) for s in child.spawn(2 + n_dim)]
        size = min(_CHUNK, budget - idx * _CHUNK)
        rows = min(_BLOCK, size)
        sampler = _TiltedBallSampler(n_dim, radius, rate, rows)
        weigh = _BlockWeights(integrand, rows, sampler.scale)
        # element 0 carries the sums (sum w, sum w^2); then (w, w^2) per point
        sums = np.zeros(rows + 1, dtype=complex)
        pairs = sums.view(float).reshape(-1, 2)[1:]
        w_max = 0.0
        hits = 0
        for start in range(0, size, _BLOCK):
            x, h = sampler.sample(rngs, min(_BLOCK, size - start))
            block = x.shape[1]
            w, sq = pairs[:block, 0], pairs[:block, 1]
            hits += weigh(x, h, w)
            w_max = max(w_max, float(w.max()))
            np.multiply(w, w, out=sq)
            folded = sums[:block + 1]
            np.cumsum(folded, out=folded)
            sums[0] = folded[-1]
        return float(sums[0].real), float(sums[0].imag), w_max, hits

    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(one_chunk, range(chunks)))
    else:
        parts = [one_chunk(i) for i in range(chunks)]
    total = sum(p[0] for p in parts)
    total_sq = sum(p[1] for p in parts)
    w_max = max(p[2] for p in parts)
    hits = sum(p[3] for p in parts)
    if hits and w_max < _SQRT_FLOAT_MIN:
        raise ValueError(f"mc quadrature at R={radius}: the scaled weights, at most {w_max}, "
                         f"square to 0: past the double range")
    mean = total / budget
    var = max(total_sq / budget - mean * mean, 0.0)
    scale = _exp(rate * radius)
    return {
        "estimate": mean * scale,
        "standard_error": math.sqrt(var / budget) * scale,
        "samples": budget,
        "ess": total * (total / total_sq) if total_sq else 0.0,
        "in_region": hits / budget,
        "max_weight_share": w_max / total if total else math.nan,
    }


def _line_integral(integrand: _Integrand) -> dict:
    """For N = 2 ([1, 1], no sinh factor): the exact integral of e^(c t),
    c > 0, over the interval [lo, R] the region leaves, lo the largest of
    -R, the one wall's floor / a (a > 0) and the annulus's inner radius, as
    e^(cR - log c) (1 - e^(-c(R - lo))): inf only past the double range,
    and no digits lost to cancellation at a tiny R."""
    ((c,), (a,)), (floor,), radius = integrand.forms, integrand.floors, integrand.radius
    lo = max(-radius, floor / a, -radius if integrand.inner is None else integrand.inner)
    estimate = _exp(c * radius - math.log(c)) * -math.expm1(-c * (radius - lo))
    return {"estimate": estimate, "standard_error": 0.0, "samples": 1, "converged": True}


def _grid_values(integrand: _Integrand, ts: list[float]) -> tuple[list[float], list[float],
                                                                  int]:
    """For N = 3: the section at each node t integrated exactly, less its
    part in the inner disk for the annulus; the magnitude sums of their
    terms, the inner ones included; and how many sections are non-empty
    (they count as samples)."""
    lo, hi = integrand.sections(ts)
    vals, mags = integrand.section_integrals(ts, lo, hi)
    if integrand.inner is not None:
        inner2 = integrand.inner ** 2
        h_in = [math.sqrt(max(inner2 - t * t, 0.0)) for t in ts]
        in_lo = [max(a, -r) for a, r in zip(lo, h_in)]
        in_hi = [max(min(b, r), a) for a, b, r in zip(in_lo, hi, h_in)]
        in_vals, in_mags = integrand.section_integrals(ts, in_lo, in_hi)
        vals = [v - w for v, w in zip(vals, in_vals)]
        mags = [m + w for m, w in zip(mags, in_mags)]
    return vals, mags, sum([a < b for a, b in zip(lo, hi)])


def _grid_refine(integrand: _Integrand, step: float) -> dict:
    """Nested trapezoid rule on [-R, R] for N = 3, from ceil(2R/step)
    equal intervals.  Each round halves the spacing h and evaluates only the
    new midpoints i*h - R (i odd): the estimate becomes half the last one
    plus h times their sum, so every node is evaluated once and no node or
    value of an earlier round is kept.  Halving h is exact: where 2R/step is
    whole, each round's nodes are the ones a fresh grid of its spacing would
    have, bit for bit.  Rounds stop once successive estimates agree to
    ``GRID_REL_TARGET`` (``converged``), after ``_GRID_MAX_ROUNDS`` rounds or
    before a grid would pass ``_GRID_MAX_NODES`` nodes.  ``samples`` counts
    the last grid's.  Each value is scaled by h before it is summed, so a
    sum of the nonnegative values passes the double range (inf, which the
    caller rejects) only where the integral does.

    The section integrals cancel at a tiny R, so the same nested rule sums
    their terms' magnitudes: machine epsilon times that sum bounds the
    estimate's rounding error.  The error is the larger of that bound and
    the last round's change, and ``converged`` needs both below
    ``GRID_REL_TARGET`` relative."""
    radius = integrand.radius
    k = max(1, math.ceil(2 * radius / step))
    h = 2 * radius / k
    # the last node is R exactly
    vals, mags, samples = _grid_values(integrand,
                                       [i * h - radius for i in range(k)] + [radius])
    prev = sum(h * v for v in vals) - (h * vals[0] + h * vals[-1]) / 2.0
    magnitude = sum(h * m for m in mags) - (h * mags[0] + h * mags[-1]) / 2.0
    for _ in range(_GRID_MAX_ROUNDS):
        h /= 2.0
        vals, mags, mid_samples = _grid_values(integrand,
                                               [i * h - radius for i in range(1, 2 * k, 2)])
        k, samples = 2 * k, samples + mid_samples
        cur = prev / 2.0 + sum(h * v for v in vals)
        magnitude = magnitude / 2.0 + sum(h * m for m in mags)
        delta = abs(cur - prev)
        prev = cur
        converged = prev != 0 and delta / abs(prev) < GRID_REL_TARGET
        # a change past the double range: refining cannot help
        if converged or not math.isfinite(delta) or 2 * k + 1 > _GRID_MAX_NODES:
            break
    rounding = sys.float_info.epsilon * magnitude
    return {"estimate": prev, "standard_error": max(delta, rounding), "samples": samples,
            "converged": converged and rounding < GRID_REL_TARGET * abs(prev)}


def _quadrature(partition: Partition, c: Sequence[float], alphas: list[Sequence[float]],
                radius: float, region: str, method: str, budget: int, offset: float,
                eps: float | None, seed: int, grid_step: float | None,
                threads: int) -> QuadratureResult:
    """Integral of exp(<c, y>) * prod_k sinh(<alphas[k], y>) over a region:
    the one validation and method dispatch behind ``mu_A_ball``.  A result
    past the double range raises ValueError: one that is not finite, a
    nonzero estimate below ``sys.float_info.min`` or a grid estimate of 0."""
    _validate(partition.n, region, method, radius, offset, eps, budget, seed, grid_step)
    cone = Cone(partition, offset if region == "bc+" else 0.0)
    inner = eps * radius if region == "annulus" else None
    integrand = _Integrand.project(cone, c, alphas, radius, inner)
    if method == "grid":
        fields, seed = (_line_integral(integrand) if integrand.n_dim == 1
                        else _grid_refine(integrand, grid_step)), None
    else:
        fields = _sampled_estimate(integrand, budget, seed, threads)
    estimate, error = fields["estimate"], fields["standard_error"]
    if not (math.isfinite(estimate) and math.isfinite(error)):
        raise ValueError(f"{method} quadrature at R={radius} is not finite "
                         f"(estimate {estimate}, error {error}): past the double range")
    # every region has positive measure, so a grid sum of 0 has underflowed
    if 0 < abs(estimate) < sys.float_info.min or (method == "grid" and estimate == 0):
        raise ValueError(f"{method} quadrature at R={radius} underflows "
                         f"(estimate {estimate}): past the double range")
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
    ``budget`` of at least 2 samples) or ``grid`` (N <= 3; the exact
    integral at N = 2, a nested grid halving a positive initial
    ``grid_step`` at N = 3; the step is checked at N = 2 too, and unused).

    An ``mc`` estimate depends on (``seed``, ``budget``) alone: each chunk
    of the budget spawns its streams in the order t-uniforms, radial
    uniforms, then one normal stream per sample coordinate, and the block
    size and ``threads`` never change a result.  N = 2 draws the
    t-uniforms alone, N = 3 the t- and radial uniforms (its cross-section
    is a segment), and N >= 4 every stream but normal stream 0.  The points
    take one block per thread, whatever the budget; one small result per
    chunk of the budget is kept.  Weights too small to square (a tiny R)
    raise ValueError, as a result past the double range does, and a radius
    whose weight scale e^(||v0|| R) is past the double range raises it
    before any sample is drawn.
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
    """Exact B+ measure for N = 2: (sqrt2/2)(e^(sqrt2 R) - 1), as
    e^(sqrt2 R - log sqrt2) (1 - e^(-sqrt2 R)), the form of
    ``_line_integral``: finite wherever the value is, inf past the double
    range, and no digits lost at a tiny R.

    At N = 2 the density is exp(<v0, y>), so this is also the integral of
    exp(<v0, y>) over the positive cone within the ball."""
    c = math.sqrt(2.0)
    return _exp(c * radius - math.log(c)) * -math.expm1(-c * radius)

