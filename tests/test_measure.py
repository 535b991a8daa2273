import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from horocount import measure as M
from horocount.partitions import Cone, make_partition, p_norm

from .cartan_helpers import block_split, cone_contains, rho_density, v0


def cone_integral(partition, offset, radius, method="mc", budget=1_000_000, *,
                  seed=0, grid_step=0.05):
    """Integral of exp(<v0, y>) over the offset cone (finite offset <= 0)
    intersected with the ball: the measure's integrand without its sinh
    factors, through the same dispatch as ``mu_A_ball``."""
    return M._quadrature(partition, v0(partition.n), [], radius,
                         "b+" if offset == 0.0 else "bc+", method, budget, offset,
                         None, seed, grid_step, 1)


def test_quadrature_result_checks_its_error():
    with pytest.raises(ValueError, match="nonnegative"):
        M.QuadratureResult(1.0, -1e-300, 10, "b+", "mc")
    result = M.QuadratureResult(1.0, 0.0, 10, "b+", "grid", converged=True)
    assert (result.seed, result.converged, result.ess) == (None, True, None)
    assert result == M.QuadratureResult(1.0, 0.0, 10, "b+", "grid", None, True)
    assert result != M.QuadratureResult(1.0, 0.0, 10, "b+", "grid")
    assert repr(result).startswith("QuadratureResult(estimate=1.0, standard_error=0.0, ")


def test_traceless_basis_orthonormal():
    for n in (2, 3, 4):
        e = np.array(M.traceless_basis(n)).T
        assert np.allclose(e.T @ e, np.eye(n - 1), atol=1e-12)
        assert np.allclose(e.sum(axis=0), 0.0, atol=1e-12)
        # first coordinate is the growth direction
        vv = v0(n)
        assert np.allclose(e[:, 0], vv / np.linalg.norm(vv), atol=1e-12)


def test_traceless_basis_rejects_n1():
    with pytest.raises(ValueError, match="n >= 2, got 1"):
        M.traceless_basis(1)


def test_n2_closed_form_mc(p2):
    res = M.mu_A_ball(p2, 5.0, "b+", "mc", budget=400_000, seed=11)
    exact = M.mu_n2_closed_form(5.0)
    assert abs(res.estimate / exact - 1.0) < 1e-3
    assert abs(res.estimate - exact) < 4 * res.standard_error + 1e-9


def test_n2_closed_form_grid(p2):
    res = M.mu_A_ball(p2, 5.0, "b+", "grid", grid_step=0.02)
    exact = M.mu_n2_closed_form(5.0)
    assert abs(res.estimate / exact - 1.0) < 1e-12


def test_n2_closed_form_keeps_its_digits_at_small_radius():
    # e^(sqrt2 R) - 1 by subtraction read 2.6e-7 low at R = 1e-10
    radius = 1e-10
    series = radius + radius * radius / math.sqrt(2.0)
    assert abs(M.mu_n2_closed_form(radius) / series - 1.0) <= 1e-14


def test_n2_closed_form_near_the_top_of_the_double_range(p2):
    # expm1(sqrt2 R) overflowed before the division by sqrt2, from R about
    # 501.89, where the value, 1.29e308 at R = 501.9, is finite
    exact = M.mu_n2_closed_form(501.9)
    assert exact == pytest.approx(M.mu_A_ball(p2, 501.9, "b+", "grid").estimate, rel=1e-12)


def test_shrinking_region(p2):
    res = M.mu_A_ball(p2, 0.01, "b+", "grid", grid_step=0.002)
    assert res.estimate < 0.02


def test_cone_integral_n2(p2):
    # at N = 2 the density is exp(<v0, y>): the cone integral is the B+ measure
    exact = M.mu_n2_closed_form(4.0)
    res = cone_integral(p2, 0.0, 4.0, "grid", grid_step=0.01)
    assert abs(res.estimate / exact - 1.0) < 1e-12
    res_mc = cone_integral(p2, 0.0, 4.0, "mc", budget=200_000, seed=3)
    assert abs(res_mc.estimate / exact - 1.0) < 5e-3


def test_cone_offset_ratio_tends_to_one(p2):
    # C=-1 versus C=0 cone integrals approach each other as R grows
    ratios = []
    for r in (4.0, 6.0, 8.0):
        shifted = cone_integral(p2, -1.0, r, "grid", grid_step=0.01)
        base = cone_integral(p2, 0.0, r, "grid", grid_step=0.01)
        ratios.append(shifted.estimate / base.estimate)
    assert abs(ratios[-1] - 1.0) < abs(ratios[0] - 1.0)
    assert abs(ratios[-1] - 1.0) < 0.1


def test_small_radius_mc_vs_grid(p21):
    # the tilted sampler is nearly uniform at small R; the grid is the reference
    r = 0.5
    grid = M.mu_A_ball(p21, r, "b+", "grid")
    mc = M.mu_A_ball(p21, r, "b+", "mc", budget=200_000, seed=6)
    assert abs(grid.estimate - mc.estimate) <= 3 * (grid.standard_error + mc.standard_error)


def test_cone_small_radius_mc_vs_grid(p21):
    r = 0.5
    grid = cone_integral(p21, 0.0, r, "grid")
    mc = cone_integral(p21, 0.0, r, "mc", budget=200_000, seed=6)
    assert abs(grid.estimate - mc.estimate) <= 3 * (grid.standard_error + mc.standard_error)


# B+ measures at R = 2 from the uniform rejection sampler that the tilted one
# replaced (seed 2411, 64M samples each): a reference past N = 3, where the
# grid stops, that the tilted sampler did not produce
_N4_R2_REFERENCE = {
    "2,2": (390.00540717635084, 0.2897797916429568),
    "1,1,1,1": (4167.605942687253, 2.0705845513547416),
}


@pytest.mark.parametrize("blocks", sorted(_N4_R2_REFERENCE))
def test_n4_mc_vs_stored_reference(blocks):
    ref, ref_error = _N4_R2_REFERENCE[blocks]
    sizes = [int(m) for m in blocks.split(",")]
    mc = M.mu_A_ball(make_partition(4, sizes), 2.0, "b+", "mc", budget=400_000, seed=19)
    assert abs(mc.estimate - ref) <= 4 * math.hypot(mc.standard_error, ref_error)


def test_n3_grid_vs_mc(p21):
    mc = M.mu_A_ball(p21, 6.0, "b+", "mc", budget=600_000, seed=2)
    grid = M.mu_A_ball(p21, 6.0, "b+", "grid", grid_step=0.04)
    combined = 3 * (mc.standard_error + grid.standard_error)
    assert abs(mc.estimate - grid.estimate) <= combined


def test_region_nesting(p3):
    r, eps = 4.0, 0.35
    full = M.mu_A_ball(p3, r, "b+", "mc", budget=400_000, seed=21)
    inner = M.mu_A_ball(p3, eps * r, "b+", "mc", budget=400_000, seed=22)
    ann = M.mu_A_ball(p3, r, "annulus", "mc", budget=400_000, eps=eps, seed=23)
    lhs = inner.estimate + ann.estimate
    err = 3 * (full.standard_error + inner.standard_error + ann.standard_error)
    assert abs(lhs - full.estimate) <= err + 1e-9


def test_density_dominated_by_cone_integral(p21):
    # sinh(d) <= e^d / 2: the measure is at most (1/2)^{intra} times the
    # pure exponential cone integral
    r = 4.0
    mu = M.mu_A_ball(p21, r, "b+", "mc", budget=300_000, seed=31)
    cone = cone_integral(p21, 0.0, r, "mc", budget=300_000, seed=32)
    bound = 0.5 ** len(p21.intra_pairs()) * cone.estimate
    slack = 3 * (mu.standard_error + 0.5 * cone.standard_error)
    assert mu.estimate <= bound + slack


def test_offset_cone_measure_ratio(p2, p21):
    # mu(B^{C,+}) / mu(B+) >= 0.95 at R=8, C=-2 (it exceeds 1 here since
    # the offset cone contains the positive one)
    for part in (p2, p21):
        base = M.mu_A_ball(part, 8.0, "b+", "mc", budget=400_000, seed=41)
        off = M.mu_A_ball(part, 8.0, "bc+", "mc", budget=400_000, offset=-2.0, seed=42)
        ratio = off.estimate / base.estimate
        assert ratio >= 0.95
        assert ratio < 1.8


def test_seed_reproducibility(p21):
    a = M.mu_A_ball(p21, 3.0, "b+", "mc", budget=100_000, seed=77)
    b = M.mu_A_ball(p21, 3.0, "b+", "mc", budget=100_000, seed=77)
    assert a.estimate == b.estimate and a.standard_error == b.standard_error
    c = M.mu_A_ball(p21, 3.0, "b+", "mc", budget=100_000, seed=78)
    assert c.estimate != a.estimate


def test_threaded_mc_deterministic(p21, monkeypatch):
    # a result depends on (seed, budget) alone: not on the threads, nor on
    # the block size, which cuts both the draws and the sums
    single = M.mu_A_ball(p21, 3.0, "b+", "mc", budget=600_000, seed=9, threads=1)
    for threads in (2, 4):
        multi = M.mu_A_ball(p21, 3.0, "b+", "mc", budget=600_000, seed=9, threads=threads)
        assert multi == single
    monkeypatch.setattr(M, "_BLOCK", 1000)
    for threads in (1, 2, 4):
        small = M.mu_A_ball(p21, 3.0, "b+", "mc", budget=600_000, seed=9, threads=threads)
        assert small == single


@pytest.mark.parametrize("n, blocks", [(4, [2, 2]), (5, [1] * 5)], ids=["2,2", "1^5"])
def test_per_axis_streams_deterministic(n, blocks, monkeypatch):
    # two or more cross-section coordinates, each row from its own stream
    part = make_partition(n, blocks)

    def mc(threads=1):
        return M.mu_A_ball(part, 4.0, "b+", "mc", budget=520_000, seed=13, threads=threads)

    single = mc()
    for threads in (2, 4):
        assert mc(threads) == single
    monkeypatch.setattr(M, "_BLOCK", 1000)
    for threads in (1, 2, 4):
        assert mc(threads) == single


def test_tilted_sampler_distribution():
    # N = 5: the cross-section w of each point is uniform in the ball of
    # radius h = sqrt(R^2 - t^2), so (|w|/h)^3 is Uniform(0, 1) and w/h has
    # covariance I/5; a coordinate row holding another row's numbers (a
    # transposed row, or two rows from one stream) breaks one of these
    radius, rows = 4.0, 100_000
    sampler = M._TiltedBallSampler(4, radius, p_norm(5), rows)
    streams = np.random.SeedSequence(29).spawn(2 + 4)
    x, _ = sampler.sample([np.random.default_rng(s) for s in streams], rows)
    assert x.shape == (4, rows)
    assert ((x * x).sum(axis=0) <= radius * radius * (1 + 1e-12)).all()
    h = np.sqrt(radius * radius - x[0] * x[0])
    keep = h > 1e-6
    w = x[1:, keep] / h[keep]
    u = ((w * w).sum(axis=0)) ** 1.5
    m = keep.sum()
    assert abs(u.mean() - 0.5) < 5 * math.sqrt(1 / 12 / m)
    assert abs(u.var() - 1 / 12) < 5 * math.sqrt(1 / 180 / m)   # var of (U - 1/2)^2 is 1/180
    assert np.abs(w.mean(axis=1)).max() < 5 * math.sqrt(0.2 / m)
    # each coordinate has variance 1/5, and no two are correlated
    assert np.abs(np.cov(w) - 0.2 * np.eye(3)).max() < 0.004


def test_tilted_sampler_segment():
    # N = 3: the cross-section is the segment [-h, h], h = sqrt(R^2 - t^2),
    # and x1 / h is Uniform(-1, 1), drawn from the radial uniforms alone
    radius, rows, rate = 4.0, 100_000, p_norm(3)
    sampler = M._TiltedBallSampler(2, radius, rate, rows)
    streams = np.random.SeedSequence(31).spawn(2 + 2)
    x, cross = sampler.sample([np.random.default_rng(s) for s in streams], rows)
    t, x1 = x
    h = np.sqrt(radius * radius - t * t)
    assert np.abs(cross - h).max() <= 1e-12 * radius
    assert (np.abs(x1) <= h * (1 + 1e-12)).all()
    keep = h > 1e-6
    u = x1[keep] / h[keep]
    m = keep.sum()
    assert abs(u.mean()) < 5 * math.sqrt(1 / 3 / m)
    assert abs(u.var() - 1 / 3) < 5 * math.sqrt(4 / 45 / m)   # var of U^2 is 4/45
    # the exponential density of t times the segment's uniform 1 / (2h), as
    # e^(-rate R) / q = scale * h * e^(-rate t)
    z = math.exp(rate * radius) - math.exp(-rate * radius)
    q = rate * np.exp(rate * t) / z / (2 * h)
    expected = math.exp(-rate * radius) / q[keep]
    got = sampler.scale * cross[keep] * np.exp(-rate * t[keep])
    assert np.abs(got / expected - 1).max() < 1e-12


# mc results at budget 200,000 and seed 2026: (estimate, standard error,
# ess, in_region, max_weight_share).  The N = 2, 4 and 5 cases date from
# before the N = 3 segment sampler, which left every other dimension's draws
# and sums as they were; the N = 3 cases, which the benchmark's mc-vs-grid
# ops run, date from that sampler
_MC_PINNED = {
    "2:1,1 b+ R8": (2, [1, 1], 8.0, "b+", {}, (
        57937.48760901236, 0.5017573105836137, 199996.99999777126, 0.999985,
        5.000075001141659e-06)),
    "3:2,1 b+ R6": (3, [2, 1], 6.0, "b+", {}, (
        14201552.958302578, 15957.414734700713, 159679.00777489948, 0.99084,
        1.676347050124242e-05)),
    "3:1,1,1 b+ R6": (3, [1, 1, 1], 6.0, "b+", {}, (
        29570444.11129068, 33307.813819646064, 159521.39797887407, 0.999975,
        1.6104228471653763e-05)),
    "3:1,2 bc+ R2": (3, [1, 2], 2.0, "bc+", {"offset": -1.0}, (
        71.17602778735126, 0.10050869522461767, 142978.3244163587, 0.90984,
        1.4114491036711462e-05)),
    "3:2,1 annulus R2": (3, [2, 1], 2.0, "annulus", {"eps": 0.5}, (
        68.0701290928945, 0.09860458349787882, 140877.50965619655, 0.888905,
        1.3708586991856368e-05)),
    "4:2,2 b+ R6": (4, [2, 2], 6.0, "b+", {}, (
        161425253343.4936, 349554544.21667975, 103209.05286414346, 0.96554,
        5.866058354804965e-05)),
    "4:2,2 bc+ R2": (4, [2, 2], 2.0, "bc+", {"offset": -1.0}, (
        391.60910825825755, 1.195378130197115, 69844.00528333969, 0.816995,
        6.371088085683521e-05)),
    "4:2,2 annulus R2": (4, [2, 2], 2.0, "annulus", {"eps": 0.4}, (
        389.2989296125734, 1.1799529311453656, 70488.19743342324, 0.81629,
        5.468114896084826e-05)),
    "5:1^5 b+ R4": (5, [1] * 5, 4.0, "b+", {}, (
        112339780935.913, 363900098.9131287, 64545.527228426865, 0.99998,
        0.00010768077997672553)),
    "5:1^5 b+ R64": (5, [1] * 5, 64.0, "b+", {}, (
        4.907056995526535e+177, 1.6923410818979337e+175, 59192.07008074292, 1.0,
        0.00015505566794734305)),
}


@pytest.mark.parametrize("case", sorted(_MC_PINNED))
def test_mc_pinned_outside_n3(case):
    # a change that moves a draw or a sum moves these values; the name dates
    # from before the N = 3 cases joined the table
    n, blocks, radius, region, options, pinned = _MC_PINNED[case]
    res = M.mu_A_ball(make_partition(n, blocks), radius, region, "mc", 200_000,
                      seed=2026, **options)
    estimate, error, ess, in_region, share = pinned
    assert res.estimate == pytest.approx(estimate, rel=1e-12)
    assert res.standard_error == pytest.approx(error, rel=1e-12)
    assert res.ess == pytest.approx(ess, rel=1e-12)
    assert res.max_weight_share == pytest.approx(share, rel=1e-12)
    assert res.in_region == in_region


# converged B+ measures at R = 6: the grid and the exact-radial Gauss rule
# on the cone's arc agree on them to 1e-12
_N3_R6_REFERENCE = {"2,1": 14_194_784.98217, "1,1,1": 29_589_325.02}


@pytest.mark.parametrize("blocks", sorted(_N3_R6_REFERENCE))
def test_n3_mc_vs_reference_at_r6(blocks):
    sizes = [int(m) for m in blocks.split(",")]
    mc = M.mu_A_ball(make_partition(3, sizes), 6.0, "b+", "mc", budget=400_000, seed=61)
    assert abs(mc.estimate - _N3_R6_REFERENCE[blocks]) <= 4 * mc.standard_error


def test_mc_with_no_sample_in_the_region_is_zero(p2):
    # weights that square to 0 raise (test_cli's exit codes), but a tiny
    # region that no sample lands in is still an estimate of 0 +- 0
    res = M.mu_A_ball(p2, 1e-300, "annulus", "mc", budget=100, eps=1 - 1e-9)
    assert (res.estimate, res.standard_error, res.in_region) == (0.0, 0.0, 0.0)


def _peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_mc_memory_is_one_block():
    # all of a 250k-sample chunk's random numbers were drawn before its first
    # block was weighed: 11.7 MB at N=5; one block of buffers is about 2.5 MB
    p5 = make_partition(5, [1] * 5)

    def run(budget):
        return lambda: M.mu_A_ball(p5, 4.0, "b+", "mc", budget=budget, seed=1)

    run(1000)()   # first-call allocations are not the sampler's
    peak = _peak_bytes(run(600_000))
    assert peak < 4e6
    assert _peak_bytes(run(2_400_000)) == pytest.approx(peak, rel=0.1)


@pytest.mark.parametrize("budget", [16_385, 250_001])
def test_odd_budgets_count_every_sample(p21, budget):
    # one row past a block, and one sample in a chunk of its own
    assert M.mu_A_ball(p21, 1.0, "b+", "mc", budget=budget, seed=3).samples == budget


def test_chunk_seed_is_the_spawned_child():
    # each chunk builds SeedSequence(seed, spawn_key=(idx,)) on its own, which
    # must be child idx of SeedSequence(seed).spawn, streams included
    for seed in (0, 77, 2 ** 70 + 3):
        for idx, child in enumerate(np.random.SeedSequence(seed).spawn(5)):
            own = np.random.SeedSequence(seed, spawn_key=(idx,))
            assert own.generate_state(8).tolist() == child.generate_state(8).tolist()
            assert ([s.generate_state(4).tolist() for s in own.spawn(4)]
                    == [s.generate_state(4).tolist() for s in child.spawn(4)])


def test_streamed_sums_match_whole_chunk(p21, monkeypatch):
    # reference: the chunk's rows drawn in one call and weighed as one array
    radius, budget, seed = 3.0, 40_000, 5
    monkeypatch.setattr(M, "_BLOCK", 1000)
    res = M.mu_A_ball(p21, radius, "b+", "mc", budget=budget, seed=seed)
    rate = p_norm(3)
    streams = np.random.SeedSequence(seed).spawn(1)[0].spawn(2 + 2)
    sampler = M._TiltedBallSampler(2, radius, rate, budget)
    x, h = sampler.sample([np.random.default_rng(s) for s in streams], budget)
    integrand = M._Integrand.project(Cone(p21), *M._density_forms(p21), radius, None)
    w = np.empty(budget)
    hits = M._BlockWeights(integrand, budget, sampler.scale)(x, h, w)
    assert hits == np.count_nonzero(w)
    assert res.estimate == pytest.approx(w.mean() * math.exp(rate * radius), rel=1e-12)
    assert res.standard_error == pytest.approx(
        w.std() * math.exp(rate * radius) / math.sqrt(budget), rel=1e-9)
    assert res.ess == pytest.approx(w.sum() ** 2 / (w * w).sum(), rel=1e-12)
    assert res.in_region == hits / budget
    assert res.max_weight_share == pytest.approx(w.max() / w.sum(), rel=1e-12)


def _in_region_close(res, p):
    """The in-region fraction within 5 binomial standard deviations of p."""
    return abs(res.in_region - p) <= 5 * math.sqrt(p * (1 - p) / res.samples)


def test_sampling_diagnostics(p2, p21):
    # N = 2: t has density a e^(a t) / Z on [-R, R], a = sqrt(2), and the
    # integrand is e^(a t) on the cone t >= 0, so every weight in the region
    # is the same: the ESS is the in-region count K, the largest share 1/K
    radius, a, budget = 2.0, math.sqrt(2.0), 200_000
    mc = M.mu_A_ball(p2, radius, "b+", "mc", budget=budget, seed=7)
    assert _in_region_close(mc, 1 / (1 + math.exp(-a * radius)))
    hits = mc.in_region * budget
    assert hits == round(hits)
    assert mc.ess == pytest.approx(hits, rel=1e-9)
    assert mc.max_weight_share == pytest.approx(1 / hits, rel=1e-9)
    # the annulus t in (eps R, R]
    eps = 0.4
    ann = M.mu_A_ball(p2, radius, "annulus", "mc", budget=budget, eps=eps, seed=7)
    span = math.exp(a * radius) - math.exp(-a * radius)
    assert _in_region_close(ann, (math.exp(a * radius) - math.exp(a * eps * radius)) / span)
    assert ann.ess == pytest.approx(ann.in_region * budget, rel=1e-9)
    mc = M.mu_A_ball(p21, 6.0, "b+", "mc", budget=200_000, seed=7)
    assert 0.5 * mc.samples < mc.ess <= mc.samples
    assert 0.0 < mc.in_region <= 1.0
    assert 0.0 < mc.max_weight_share < 1e-3
    grid = M.mu_A_ball(p21, 6.0, "b+", "grid", grid_step=0.04)
    assert (grid.ess, grid.in_region, grid.max_weight_share) == (None, None, None)


def test_estimator_consistency_across_seeds(p2):
    a = M.mu_A_ball(p2, 6.0, "b+", "mc", budget=300_000, seed=101)
    b = M.mu_A_ball(p2, 6.0, "b+", "mc", budget=300_000, seed=202)
    assert abs(a.estimate - b.estimate) <= 3 * (a.standard_error + b.standard_error)


def _asym_ratios(partition, radii):
    """Grid mu(B+(R)) over the stated closed form, one ratio per radius."""
    return [M.mu_A_ball(partition, r, "b+", "grid").estimate
            / M.closed_form_asymptotic(partition, r) for r in radii]


def _well_rounded_margin(partition, radius, delta, method="grid", **kwargs):
    """(mu(B+(R + delta)) / mu(B+(R)), mu(B+(R - delta)) / mu(B+(R))), all
    three estimates at the same seed, which correlates them."""
    base, up, down = (M.mu_A_ball(partition, r, "b+", method, **kwargs).estimate
                      for r in (radius, radius + delta, radius - delta))
    return up / base, down / base


def test_asym_ratio_report_n2(p2):
    ratios = _asym_ratios(p2, [4.0, 6.0, 8.0])
    # stated form misses a 1/||v0|| factor in one dimension: the measured
    # ratio tends to sqrt(2)/2, not 1
    assert ratios[-1] == pytest.approx(math.sqrt(2) / 2, rel=0.02)
    for ratio in ratios:
        assert ratio == pytest.approx(math.sqrt(2) / 2, rel=0.05)


def test_asym_ratio_report_n3():
    # as at N = 2 the stated form misses 1/||v0||: the ratio tends to
    # 1/sqrt(8), and the gap shrinks like 1/R
    target = 1 / p_norm(3)
    for sizes in ([1, 1, 1], [2, 1], [1, 2]):
        at_40, at_160 = _asym_ratios(make_partition(3, sizes), [40.0, 160.0])
        assert at_160 == pytest.approx(target, rel=1.5e-3), sizes
        assert abs(at_160 - target) <= 0.35 * abs(at_40 - target), sizes


def test_well_rounded_margins_n2(p2):
    up, down = _well_rounded_margin(p2, 4.0, 0.01)
    assert up <= math.exp(math.sqrt(2) * 0.01) + 2e-3
    assert down >= math.exp(-math.sqrt(2) * 0.01) - 2e-3
    up2, down2 = _well_rounded_margin(p2, 8.0, 0.01)
    assert up2 <= math.exp(math.sqrt(2) * 0.01) + 2e-3


def test_well_rounded_margin_shrinks_with_delta(p2):
    up1, down1 = _well_rounded_margin(p2, 4.0, 0.2)
    up2, down2 = _well_rounded_margin(p2, 4.0, 0.02)
    assert abs(up2 - 1.0) < abs(up1 - 1.0)
    assert abs(down2 - 1.0) < abs(down1 - 1.0)
    assert up2 > 1.0 > down2


def test_well_rounded_n3(p21):
    delta = 0.05
    rate = p_norm(3)
    up, down = _well_rounded_margin(p21, 6.0, delta, method="mc",
                                    budget=300_000, seed=55)
    # e^{+-||v0|| delta} envelope with slack for the polynomial factor and noise
    assert up <= math.exp(rate * delta) * 1.03
    assert down >= math.exp(-rate * delta) * 0.97


def test_mc_error_finite_at_large_radius():
    # weights near e^(||v0|| R) = e^405 used to overflow w * w to a NaN error
    res = M.mu_A_ball(make_partition(5, [1] * 5), 64.0, "b+", "mc", budget=100_000,
                      seed=1)
    assert math.isfinite(res.estimate) and res.estimate > 0
    assert math.isfinite(res.standard_error) and res.standard_error > 0


def test_region_validation(p2):
    with pytest.raises(ValueError):
        M.mu_A_ball(p2, -1.0, "b+")
    with pytest.raises(ValueError):
        M.mu_A_ball(p2, 1.0, "bc+", offset=0.5)
    with pytest.raises(ValueError):
        M.mu_A_ball(p2, 1.0, "annulus")
    with pytest.raises(ValueError):
        M.mu_A_ball(p2, 1.0, "nope")
    with pytest.raises(ValueError):
        M.mu_A_ball(p2, 1.0, "b+", "sorcery")
    for radius in (math.nan, math.inf):
        with pytest.raises(ValueError):
            M.mu_A_ball(p2, radius, "b+")
    with pytest.raises(ValueError):
        M.mu_A_ball(p2, 1.0, "bc+", offset=math.nan)
    for step in (-0.1, 0.0, math.nan, math.inf, None):
        with pytest.raises(ValueError):
            M.mu_A_ball(p2, 1.0, "b+", "grid", grid_step=step)
    with pytest.raises(ValueError):
        M.mu_A_ball(p2, 1.0, "b+", "plain")   # the methods are mc and grid
    for budget in (0, 1):   # one sample has no standard error
        with pytest.raises(ValueError):
            M.mu_A_ball(p2, 1.0, "b+", "mc", budget=budget)
    with pytest.raises(ValueError):
        cone_integral(p2, 0.5, 1.0)
    for radius in (0.0, -1.0):
        with pytest.raises(ValueError):
            cone_integral(p2, 0.0, radius)
    with pytest.raises(ValueError):
        cone_integral(p2, 0.0, 1.0, "sorcery")
    # an option of another region: was ignored, giving the plain b+ estimate
    for offset in (-1.0, 0.5, math.nan):
        with pytest.raises(ValueError):
            M.mu_A_ball(p2, 1.0, "b+", "grid", offset=offset)
        with pytest.raises(ValueError):
            M.mu_A_ball(p2, 1.0, "annulus", "grid", offset=offset, eps=0.5)
    with pytest.raises(ValueError):
        M.mu_A_ball(p2, 1.0, "b+", "grid", eps=0.5)
    with pytest.raises(ValueError):
        M.mu_A_ball(p2, 1.0, "bc+", "grid", offset=-1.0, eps=0.5)
    # an offset of exactly 0 stays allowed for every region (manifests store 0.0)
    for region, eps in (("b+", None), ("bc+", None), ("annulus", 0.5)):
        for offset in (0.0, -0.0):
            assert M.mu_A_ball(p2, 1.0, region, "grid", offset=offset, eps=eps).estimate > 0


def _density(partition, y):
    """The measure density at y through the reference rho_density, 0 off the chamber."""
    split = block_split(partition, y)
    if any(split.aM[i] < split.aM[j] for i, j in partition.intra_pairs()):
        return 0.0
    return rho_density(partition, split.aM, split.aZ)


@pytest.mark.parametrize("blocks", [[1, 1], [2, 1], [1, 1, 1], [2, 2], [1, 2, 1], [1] * 5])
def test_log_weight_matches_density(blocks, rng):
    # the name dates from the log-space weights: the scaled weight is
    # f(y) / q(x) * e^(-||v0|| R) in the region, with q the tilted proposal's
    # density, and 0 off it
    part = make_partition(sum(blocks), blocks)
    radius, offset, rate, d = 3.0, -0.5, p_norm(part.n), part.n - 2
    basis = np.array(M.traceless_basis(part.n)).T
    cone = Cone(part, offset)
    integrand = M._Integrand.project(cone, *M._density_forms(part), radius, 1.0)
    x = rng.uniform(-radius, radius, size=(400, part.n - 1))
    h = np.sqrt(np.maximum(radius * radius - x[:, 0] ** 2, 0.0))
    sampler = M._TiltedBallSampler(part.n - 1, radius, rate, len(x))
    w = np.full(len(x), np.nan)
    count = M._BlockWeights(integrand, len(x), sampler.scale)(x.T, h if d else None, w)
    ball_volume = math.pi ** (d / 2) / math.gamma(d / 2 + 1)
    z = math.exp(rate * radius) - math.exp(-rate * radius)
    hits = 0
    for row, value, cross in zip(x, w, h):
        y = basis @ row
        inside = cone_contains(cone, y, tol=0.0) and 1.0 < np.linalg.norm(y) <= radius
        if inside:
            hits += 1
            q = rate * math.exp(rate * row[0]) / z / (ball_volume * cross ** d)
            expected = _density(part, y) / q * math.exp(-rate * radius)
            assert value == pytest.approx(expected, rel=1e-12)
        else:
            assert value == 0.0
    assert count == hits > 10


def test_density_exponential_must_be_v0(p21):
    # the weights cancel the sampler's tilt e^(||v0|| t) in closed form, so
    # an integrand whose exponential is not e^<v0, y> is refused
    c, alphas = M._density_forms(p21)
    for forms in (([2 * a for a in c], alphas), (c, alphas * 2), (v0(3), alphas)):
        for method in ("mc", "grid"):
            with pytest.raises(ValueError, match="v0"):
                M._quadrature(p21, *forms, 2.0, "b+", method, 1000, 0.0, None, 0, 0.1, 1)
    # c = v0 with no alpha, the cone integral, is one the tests use
    assert cone_integral(p21, 0.0, 2.0, "mc", budget=1000).estimate > 0


def test_section_integrals_match_quad(p21):
    from scipy.integrate import quad

    radius = 6.0
    basis = np.array(M.traceless_basis(3)).T
    integrand = M._Integrand.project(Cone(p21), *M._density_forms(p21), radius, None)
    ts = np.array([0.3, 1.3, 2.0, 3.1, 4.0, 5.5])
    lo, hi = map(np.array, integrand.sections(ts))
    exact, _ = integrand.section_integrals(ts, lo, hi)
    assert (lo < hi).all()
    for t, a, b, value in zip(ts, lo, hi, exact):
        ref, _ = quad(lambda s: _density(p21, basis @ (t, s)), a, b,
                      epsabs=0.0, epsrel=1e-13, limit=200)
        assert value == pytest.approx(ref, rel=1e-10)


@pytest.mark.parametrize("sizes", [[1, 1, 1], [2, 1], [1, 2]])
def test_n3_cone_walls_bound_opposite_ends(sizes):
    # sections takes lo from the wall a*t + b*s >= floor with b > 0 and hi
    # from the one with b < 0; an offset moves the floors, not the normals
    part = make_partition(3, sizes)
    for offset in (0.0, -1.0):
        integrand = M._Integrand.project(Cone(part, offset), *M._density_forms(part),
                                         6.0, None)
        (_, b1), (_, b2) = integrand.forms[1 + integrand.n_sinh:]
        assert b1 * b2 < 0


@pytest.mark.parametrize("region, option, lower", [
    ("b+", {}, lambda radius: 0),
    ("bc+", {"offset": -1.0}, lambda radius: max(-radius, -mpmath.sqrt(2))),
    ("bc+", {"offset": -1e-5}, lambda radius: max(-radius, -mpmath.sqrt(2) * mpmath.mpf(1e-5))),
    ("annulus", {"eps": 0.5}, lambda radius: radius / 2),
], ids=["b+", "bc+-1", "bc+-1e-5", "annulus"])
def test_n2_grid_is_the_exact_integral(p2, region, option, lower):
    # at N = 2 the region is t in [lower, R] (the wall y_1 >= C is
    # t >= sqrt2 C) and the integrand is e^(sqrt2 t), so the measure is
    # (e^(sqrt2 R) - e^(sqrt2 lower)) / sqrt2, here in 50 digits; the step is unused
    with mpmath.workdps(50):
        for radius in (1e-10, 0.01, 3.0, 6.0, 500.0, 501.9):
            r, root2 = mpmath.mpf(radius), mpmath.sqrt(2)
            exact = (mpmath.exp(root2 * r) - mpmath.exp(root2 * lower(r))) / root2
            res = M.mu_A_ball(p2, radius, region, "grid", grid_step=1.0, **option)
            assert abs(res.estimate / exact - 1) <= 1e-12, radius
            assert (res.standard_error, res.samples, res.converged) == (0.0, 1, True)
    for radius in (502.5, 600.0):   # the value itself exceeds the double range
        with pytest.raises(ValueError, match="not finite"):
            M.mu_A_ball(p2, radius, region, "grid", **option)


def test_grid_near_the_top_of_the_double_range(p2):
    # the integral, 8.7e306, is near the top of the double range but finite,
    # so it is kept, to the last digits of the closed form
    res = M.mu_A_ball(p2, 500.0, "b+", "grid", grid_step=0.01)
    assert res.estimate == pytest.approx(M.mu_n2_closed_form(500.0), rel=1e-12)


def test_grid_sum_past_double_range():
    # N = 3, e^(t/2) on the disk of radius 1410: every node's section integral
    # is finite (at most 9.7e307) but the integral, and so the sum of the
    # scaled values, is not (about 4e308): the estimate is inf, for the caller
    # to reject
    radius = 1410.0
    integrand = M._Integrand(((0.5, 0.0), (0.0, 1.0), (0.0, -1.0)), 0,
                             (-radius, -radius), radius, None)
    nodes = [i - radius for i in range(2 * int(radius) + 1)]
    assert all(math.isfinite(v) for v in M._grid_values(integrand, nodes)[0])
    assert M._grid_refine(integrand, 1.0)["estimate"] == math.inf


def test_n3_grid_error_covers_rounding_at_tiny_radius(p21):
    # each sinh is two exponentials, which cancel at a tiny R: at R = 1e-16
    # the estimate read 31.5% above the small-R limit mu(1e-6) (R / 1e-6)^3,
    # reported converged with a relative error of 3.0e-4
    small = M.mu_A_ball(p21, 1e-6, "b+", "grid", grid_step=2e-8)
    assert small.converged
    radius = 1e-16
    res = M.mu_A_ball(p21, radius, "b+", "grid", grid_step=radius / 50)
    assert res.converged is False
    assert abs(res.estimate - small.estimate * (radius / 1e-6) ** 3) <= res.standard_error
    # at R = 6 the rounding bound is far below the refinement's change
    assert M.mu_A_ball(p21, 6.0, "b+", "grid", grid_step=0.04).converged


def test_mc_scale_past_double_range_raises_before_sampling(monkeypatch):
    # ||v0|| R past log(DBL_MAX) is rejected before a draw; N = 5 at R = 112
    # (||v0|| R = 708.4) still samples, and its result is not finite
    p5 = make_partition(5, [1] * 5)
    with monkeypatch.context() as patch:
        patch.setattr(M, "_sampled_estimate", None)   # a call would raise TypeError
        for radius in (113.0, 1e300):
            with pytest.raises(ValueError, match="weight scale .* past the double range"):
                M.mu_A_ball(p5, radius, "b+", "mc", budget=1000)
    with pytest.raises(ValueError, match="not finite"):
        M.mu_A_ball(p5, 112.0, "b+", "mc", budget=1000)


def test_section_integrals_flat_in_s():
    # an exponential with no s part: e^(p t) times the section's length
    p = 0.7
    integrand = M._Integrand(((p, 0.0),), 0, (), 4.0, None)
    ts, los, his = [-1.0, 0.5, 2.0], [-1.5, 0.0, -0.25], [2.0, 0.0, 1.0]
    values, magnitudes = integrand.section_integrals(ts, los, his)
    assert values == [math.exp(p * t) * (hi - lo) for t, lo, hi in zip(ts, los, his)]
    assert magnitudes == values   # one positive term


@pytest.mark.parametrize("blocks", [[1, 1, 1], [2, 1]])
def test_annulus_grid(blocks):
    part = make_partition(3, blocks)
    radius, eps = 4.0, 0.5
    ann = M.mu_A_ball(part, radius, "annulus", "grid", eps=eps, grid_step=0.04)
    outer = M.mu_A_ball(part, radius, "b+", "grid", grid_step=0.04)
    inner = M.mu_A_ball(part, eps * radius, "b+", "grid", grid_step=0.04)
    errors = ann.standard_error + outer.standard_error + inner.standard_error
    assert abs(ann.estimate - (outer.estimate - inner.estimate)) <= errors
    mc = M.mu_A_ball(part, radius, "annulus", "mc", eps=eps, budget=400_000, seed=3)
    assert abs(ann.estimate - mc.estimate) <= 4 * mc.standard_error


@pytest.mark.parametrize("region, option", [("b+", {}), ("bc+", {"offset": -1.0}),
                                            ("annulus", {"eps": 0.5})])
def test_n3_grid_is_reversal_invariant(region, option):
    # a partition and its reversal have the same lift counts, height for
    # height, and the same measure: the grid agrees bit for bit
    results = [M.mu_A_ball(make_partition(3, blocks), 6.0, region, "grid",
                           grid_step=0.04, **option) for blocks in ([2, 1], [1, 2])]
    assert results[0] == results[1]


def test_offset_cone_grid_vs_mc(p21):
    grid = M.mu_A_ball(p21, 4.0, "bc+", "grid", offset=-1.0, grid_step=0.04)
    mc = M.mu_A_ball(p21, 4.0, "bc+", "mc", offset=-1.0, budget=400_000, seed=4)
    assert abs(grid.estimate - mc.estimate) <= 3 * (grid.standard_error + mc.standard_error)


def test_offset_cone_grid_with_the_apex_outside_the_ball():
    # [1,2], R = 3, offset -9: the cone's apex lies outside the ball and the
    # region is the half-disk u >= 0 of radius 3, where the measure reduces to
    # the integral over w in [-3, 3] of e^(sqrt6 w) (cosh(sqrt2 sqrt(9 - w^2)) - 1)
    # / sqrt2; w = 3 cos(theta) makes the integrand smooth at both ends
    with mpmath.workdps(30):
        exact = float(mpmath.quad(
            lambda th: 3 * mpmath.sin(th) * mpmath.exp(3 * mpmath.sqrt(6) * mpmath.cos(th))
            * (mpmath.cosh(3 * mpmath.sqrt(2) * mpmath.sin(th)) - 1) / mpmath.sqrt(2),
            [0, mpmath.pi]))
    assert abs(exact - 1759.3174105841194) <= 1e-9
    part = make_partition(3, [1, 2])
    for step in ({}, {"grid_step": 0.001}):   # the default step, then a fine one
        res = M.mu_A_ball(part, 3.0, "bc+", "grid", offset=-9.0, **step)
        assert res.converged
        assert abs(res.estimate - exact) <= res.standard_error, step


def test_grid_converged_flag_and_sections(p21):
    assert M.mu_A_ball(p21, 6.0, "b+", "grid", grid_step=0.04).converged is True
    assert M.mu_A_ball(p21, 1.0, "b+", "mc", budget=1000).converged is None
    # 8 halvings of a step larger than the ball leave a coarse, unconverged grid
    res = M.mu_A_ball(p21, 6.0, "b+", "grid", grid_step=100.0)
    assert res.converged is False
    assert res.standard_error > 1e-3 * res.estimate
    # samples counts the non-empty sections of the last grid, 2^8 intervals
    # from one: the t nodes whose open disk chord holds an interior point of
    # the cone (the node t = 0 meets the cone in its apex alone)
    basis = np.array(M.traceless_basis(3)).T
    normals, floors = (np.array(a) for a in zip(*Cone(p21).half_spaces()))
    non_empty = 0
    for t in np.linspace(-6.0, 6.0, 2 ** 8 + 1):
        h = math.sqrt(max(36.0 - t * t, 0.0))
        ss = np.linspace(-h, h, 2001)[1:-1]
        ys = basis @ np.stack([np.full_like(ss, t), ss])
        # cone_contains(cone, y, tol=-1e-9) at every point y of the chord
        non_empty += h > 0 and bool(np.all(normals @ ys >= floors[:, None] + 1e-9, axis=0).any())
    assert res.samples == non_empty


def test_grid_coarse_start_not_converged():
    # a step of 4R or more held the first two grids at the same two nodes:
    # their change was 0, reported as converged with error 0
    for blocks, reference in _N3_R6_REFERENCE.items():
        part = make_partition(3, [int(b) for b in blocks.split(",")])
        res = M.mu_A_ball(part, 6.0, "b+", "grid", grid_step=100.0)
        assert res.converged is False and res.standard_error > 0
        assert abs(res.estimate - reference) <= res.standard_error


def test_grid_evaluates_each_node_once(p21, monkeypatch):
    # each round rebuilt the whole grid: 4,504 evaluations for the 2,401
    # nodes of the [2, 1] run
    seen = []
    sections = M._Integrand.sections
    monkeypatch.setattr(M._Integrand, "sections",
                        lambda self, ts: seen.extend(ts) or sections(self, ts))
    res = M.mu_A_ball(p21, 6.0, "b+", "grid", grid_step=0.04)
    assert res.converged is True
    assert len(seen) == len(set(seen)) == 2401


def test_grid_node_cap(p21, monkeypatch):
    with pytest.raises(ValueError, match="nodes"):
        M.mu_A_ball(p21, 1.0, "b+", "grid", grid_step=1e-12)
    monkeypatch.setattr(M, "_GRID_MAX_NODES", 64)
    with pytest.raises(ValueError, match="nodes"):   # 41 nodes, then 81
        M.mu_A_ball(p21, 6.0, "b+", "grid", grid_step=0.3)
    seen = []
    sections = M._Integrand.sections
    monkeypatch.setattr(M._Integrand, "sections",
                        lambda self, ts: seen.extend(ts) or sections(self, ts))
    # 25 nodes, then 49; the next grid, 97 nodes, would pass the cap
    res = M.mu_A_ball(p21, 6.0, "b+", "grid", grid_step=0.5)
    assert res.converged is False
    assert len(seen) == 49


def test_non_finite_result_raises(p2, p21):
    p5 = make_partition(5, [1] * 5)
    for radius in (112.0, 120.0):   # the value itself exceeds the double range
        with pytest.raises(ValueError):
            M.mu_A_ball(p5, radius, "b+", "mc", budget=1000)
    with pytest.raises(ValueError):
        M.mu_A_ball(p2, 600.0, "b+", "grid", grid_step=1.0)
    with pytest.raises(ValueError):
        M.mu_A_ball(p21, 300.0, "b+", "grid", grid_step=0.5)
