"""Acceptance suite: one test per criterion, each printing a PASS line.

Budgets are wall-clock ceilings from the requirements; every numeric
tolerance is pinned here and nowhere else.
"""

import functools
import math
import time

import numpy as np
import pytest

from horocount import constants as C
from horocount import cosets as CS
from horocount import dynamics as D
from horocount import measure as M
from horocount.decompose import height
from horocount.partitions import make_partition, p_norm_squared
from .cartan_helpers import all_clean_specs, covolume, covolume_gram
from .conftest import random_sl
from .test_decompose import min_distance_over_horocycle_n2


def _report(name):
    print(f"PASS: {name}")


def test_example1_constant():
    start = time.monotonic()
    part = make_partition(3, [1, 1, 1])
    cc = C.counting_constant(part)
    assert float(cc.poly_exponent) == 0.5
    assert abs(cc.exp_rate ** 2 - 8.0) <= 1e-12
    expected = math.pi ** 0.5 * 3 * 2 ** 0.25 / (7 * C.xi(2) * C.xi(3))
    assert abs(cc.coefficient / expected - 1.0) <= 1e-12
    assert abs(cc.coefficient / C.hardcoded_example_constant(part) - 1.0) <= 1e-12
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _report(f"Example 1 constant (dual path, {elapsed:.3f}s)")


def test_example2_constant():
    start = time.monotonic()
    part = make_partition(3, [2, 1])
    cc = C.counting_constant(part)
    assert float(cc.poly_exponent) == 0.5
    assert abs(cc.exp_rate ** 2 - 8.0) <= 1e-12
    expected = math.pi ** 1.5 / (2 ** 0.25 * C.xi(2) * C.xi(3))
    assert abs(cc.coefficient / expected - 1.0) <= 1e-12
    assert abs(cc.coefficient / C.hardcoded_example_constant(part) - 1.0) <= 1e-12
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _report(f"Example 2 constant (dual path, {elapsed:.3f}s)")


def test_p_norm_identity():
    for n in range(1, 51):
        direct = sum((n - 2 * i + 1) ** 2 for i in range(1, n + 1))
        assert p_norm_squared(n) == direct == n * (n - 1) * (n + 1) // 3
    _report("P_N identity, exact integers N=1..50")


def test_volume_identities():
    for n in range(1, 13):
        assert abs(C.vol_so(n) / C.vol_so_recursive(n) - 1.0) <= 1e-12
    for n in range(2, 9):
        assert C.xi_identity_check(n) <= 1e-9
    _report("Vol(SO_n) recursion (n<=12, 1e-12) and xi-identity (N<=8, 1e-9)")


def test_decomposition_suite():
    start = time.monotonic()
    rng = np.random.default_rng(12345)
    parts = [make_partition(2, [1, 1]), make_partition(3, [1, 1, 1]),
             make_partition(3, [2, 1]), make_partition(4, [2, 2]),
             make_partition(4, [1, 2, 1])]
    total = 10_000
    for i in range(total):
        part = parts[i % len(parts)]
        g = random_sl(rng, part.n)
        _, frame = height(g, part)
        err = np.abs(frame.reconstruct() - g).max()
        assert err <= 1e-9 * max(1.0, np.abs(g).max())

    part = make_partition(3, [2, 1])
    for _ in range(200):
        g = random_sl(rng, 3)
        h0, _ = height(g, part)
        # right multiplication by the stabilizer identity component
        kb = np.eye(3)
        q, _ = np.linalg.qr(rng.normal(size=(2, 2)))
        if np.linalg.det(q) < 0:
            q[:, 0] *= -1
        kb[:2, :2] = q
        u = np.eye(3)
        u[0, 2], u[1, 2] = rng.normal(size=2) * 2
        h1, _ = height(g @ kb @ u, part)
        assert abs(h1 - h0) <= 1e-9 * max(1.0, h0)
        qf, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        if np.linalg.det(qf) < 0:
            qf[:, 0] *= -1
        h2, _ = height(qf @ g, part)
        assert abs(h2 - h0) <= 1e-9 * max(1.0, h0)

    p2 = make_partition(2, [1, 1])
    g = np.array([[1.0, 0.0], [1.0, 1.0]])
    h_val, _ = height(g, p2)
    assert abs(h_val - math.log(2) / math.sqrt(2)) <= 1e-9
    assert abs(h_val - min_distance_over_horocycle_n2(g)) <= 1e-9
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _report(f"decomposition suite: 10^4 reconstructions, invariances, "
            f"hand height vs geodesic oracle ({elapsed:.1f}s)")


def test_enumeration_oracle_equivalence():
    start = time.monotonic()
    p2 = make_partition(2, [1, 1])
    for radius in (1.0, 2.5, 4.0, 5.0):
        bfs = CS.enumerate_bfs(p2, radius)
        brute = CS.enumerate_brute(p2, radius)
        assert CS.coset_sets_equal(bfs, brute), f"N=2 mismatch at R={radius}"
    # [1,2] counts as its dual [2,1] does; at R=2 an over-strong bound on
    # its last block loses cosets that R=1.5 does not show, and R=2.5 walks
    # the last column's classes farthest
    cases = (([1, 1, 1], 2.0, 1236), ([2, 1], 2.0, 1473), ([1, 2], 1.5, 309),
             ([1, 2], 2.0, 1473), ([1, 1, 1], 2.5, 5856), ([2, 1], 2.5, 7245),
             ([1, 2], 2.5, 7245))
    for sizes, radius, count in cases:
        part = make_partition(3, sizes)
        brute = CS.enumerate_brute(part, radius)
        assert brute.count == count, f"N=3 {sizes} count at R={radius}"
        # the default margin 0 and a cross-check margin against one scan
        for margin in (0.6, 0.0):
            bfs = CS.enumerate_bfs(part, radius, margin=margin)
            assert CS.coset_sets_equal(bfs, brute), \
                f"N=3 {sizes} mismatch at R={radius}, margin {margin}"
    elapsed = time.monotonic() - start
    assert elapsed < 600.0
    _report(f"enumeration oracle equivalence: identical coset sets, "
            f"N=2 R<=5 and N=3 R<=2.5 at margins 0 and 0.6 ({elapsed:.1f}s)")


def _disk_count_oracle(radius: float) -> int:
    """Independent N=2 count: primitive vectors mod +- in the height ball."""
    rsq = math.exp(math.sqrt(2.0) * radius)
    bound = int(math.floor(math.sqrt(rsq))) + 1
    axis = np.arange(-bound, bound + 1)
    a, c = np.meshgrid(axis, axis, indexing="ij")
    inside = (a * a + c * c <= rsq) & ((a != 0) | (c != 0))
    primitive = np.gcd(np.abs(a), np.abs(c)) == 1
    total = int(np.count_nonzero(inside & primitive))
    assert total % 2 == 0
    return total // 2


@functools.cache
def _n2_walk_count(radius: float) -> int:
    return CS.enumerate_bfs(make_partition(2, [1, 1]), radius).count


def test_empirical_ratio_experiment():
    start = time.monotonic()
    p2 = make_partition(2, [1, 1])
    radii = [4.0, 6.0, 8.0]
    cc = C.counting_constant(p2)
    counts = [_n2_walk_count(r) for r in radii]
    for r, count in zip(radii, counts):
        assert count == _disk_count_oracle(r), (r, count)
    ratios = [count / C.asymptotic_count(cc, r) for r, count in zip(radii, counts)]
    diffs = [abs(b - a) for a, b in zip(ratios, ratios[1:])]
    assert diffs[1] < diffs[0], f"ratio sequence not settling: {ratios}"
    # the recorded N=2 finding: count/stated tends to 1/sqrt(8/9), not 1
    # (test_n2_stated_constant_is_a_multiple_of_the_main_term); 4.8e-5 off at R=8
    limit = 1 / math.sqrt(8 / 9)
    assert abs(ratios[-1] - limit) <= 1e-3, f"ratio {ratios[-1]} is not near {limit}"
    elapsed = time.monotonic() - start
    _report(
        "empirical ratio experiment: counts "
        + str(counts)
        + f", ratios {[f'{r:.4f}' for r in ratios]}, count/stated at R=8 "
        + f"{ratios[-1]:.7f}, within 1e-3 of 1/sqrt(8/9) = {limit:.7f} "
        + f"({elapsed:.1f}s)"
    )


def test_n2_stated_constant_is_a_multiple_of_the_main_term():
    # The primitive vectors up to sign in the disk |v|^2 <= T number about
    # (3/pi) T, and T = e^(sqrt2 R), so the walk's count follows
    # (3/pi) e^(sqrt2 R).  The stated constant is sqrt(8/9) times 3/pi, so
    # count/stated tends to 1/sqrt(8/9) = 1.0607, which
    # test_empirical_ratio_experiment checks at R=8.
    start = time.monotonic()
    count = _n2_walk_count(8.0)
    assert count == 78_248
    main_term = 3 / math.pi * math.exp(math.sqrt(2.0) * 8.0)
    assert abs(count / main_term - 1.0) <= 1e-3
    stated = C.counting_constant(make_partition(2, [1, 1])).coefficient
    assert abs(stated / (math.sqrt(8 / 9) * 3 / math.pi) - 1.0) <= 1e-14
    elapsed = time.monotonic() - start
    _report(f"N=2 main term: count/((3/pi) e^(sqrt2 R)) = {count / main_term:.5f} at R=8, "
            f"stated c = sqrt(8/9) * 3/pi ({elapsed:.1f}s)")


def test_volume_quadrature():
    start = time.monotonic()
    p2 = make_partition(2, [1, 1])
    exact = M.mu_n2_closed_form(5.0)
    mc = M.mu_A_ball(p2, 5.0, "b+", "mc", budget=400_000, seed=1)
    grid = M.mu_A_ball(p2, 5.0, "b+", "grid", grid_step=0.02)
    assert abs(mc.estimate / exact - 1.0) <= 1e-3
    assert abs(grid.estimate / exact - 1.0) <= 1e-3

    p21 = make_partition(3, [2, 1])
    mc3 = M.mu_A_ball(p21, 6.0, "b+", "mc", budget=600_000, seed=2)
    grid3 = M.mu_A_ball(p21, 6.0, "b+", "grid", grid_step=0.04)
    assert abs(mc3.estimate - grid3.estimate) <= 3 * (
        mc3.standard_error + grid3.standard_error)

    for part in (p2, p21):
        base = M.mu_A_ball(part, 8.0, "b+", "mc", budget=400_000, seed=3)
        off = M.mu_A_ball(part, 8.0, "bc+", "mc", budget=400_000,
                          offset=-2.0, seed=4)
        assert off.estimate / base.estimate >= 0.95
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    _report(f"volume quadrature: N=2 analytic 0.1% both methods, N=3 "
            f"MC-vs-grid 3 sigma, offset-cone ratio >= 0.95 ({elapsed:.1f}s)")


def test_classifier():
    start = time.monotonic()
    p2 = make_partition(2, [1, 1])
    p3 = make_partition(3, [1, 1, 1])
    ID, UNB = D.A_IDENTITY, D.A_UNBOUNDED
    INF, ONE, ZERO = D.B_TO_INFINITY, D.B_CONSTANT_ONE, D.B_TO_ZERO

    res = D.classify_limit(D.CleanSequenceSpec(p3, (ID, ID, ID), (ONE, ONE)))
    assert res.nondivergent and res.block_roles == ("K", "K", "K")
    assert res.coarse_partition.sizes == (1, 1, 1)

    res = D.classify_limit(D.CleanSequenceSpec(p2, (ID, ID), (INF,)))
    assert res.nondivergent and res.coarse_partition.sizes == (2,)
    assert res.block_roles == ("M",)

    res = D.classify_limit(D.CleanSequenceSpec(p2, (ID, ID), (ZERO,)))
    assert not res.nondivergent

    for spec in all_clean_specs(4):
        out = D.classify_limit(spec)
        if not out.nondivergent:
            continue
        pieces = sorted(out.merged_new + out.old_unbounded + out.old_identity)
        assert pieces == list(range(out.coarse_partition.k0))

    rng = np.random.default_rng(99)
    part = make_partition(4, [2, 2])
    for _ in range(1000):
        x = rng.normal() * 0.8
        a = np.exp([x, -x, 0.0, 0.0])
        beta = rng.normal() * 0.7
        b = np.exp([beta, beta, -beta, -beta])
        closed = covolume(b, (0, 1))
        gram = covolume_gram(a, b, (0, 1))
        assert abs(closed / gram - 1.0) <= 1e-12
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _report(f"classifier: limit examples, set identity on all clean specs "
            f"N<=4, covolume dual-path 1e-12 x1000 ({elapsed:.1f}s)")
