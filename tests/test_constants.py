import math

import mpmath
import pytest

from horocount import constants as C
from horocount.partitions import make_partition

from .cartan_helpers import compositions


def test_zeta_against_closed_forms():
    assert C.zeta(2) == pytest.approx(math.pi ** 2 / 6, rel=1e-15)
    assert C.zeta(4) == pytest.approx(math.pi ** 4 / 90, rel=1e-15)
    assert C.zeta(6) == pytest.approx(math.pi ** 6 / 945, rel=1e-15)
    with pytest.raises(ValueError):
        C.zeta(1.0)


def test_zeta_against_mpmath():
    for s in range(2, 15):
        assert C.zeta(s) == pytest.approx(float(mpmath.zeta(s)), rel=1e-15)


def test_xi_values():
    # s=2: (1/2)*2*1*pi^-1*Gamma(1)*zeta(2) = pi/6
    assert C.xi(2) == pytest.approx(math.pi / 6, rel=1e-14)
    # s=3: (3/2) * zeta(3) / pi
    assert C.xi(3) == pytest.approx(1.5 * C.zeta(3) / math.pi, rel=1e-14)
    # s=4: pi^2 / 15
    assert C.xi(4) == pytest.approx(math.pi ** 2 / 15, rel=1e-14)
    with pytest.raises(ValueError):
        C.xi(0.5)


def test_xi_against_mpmath():
    for s in range(2, 10):
        expected = 0.5 * s * (s - 1) * mpmath.pi ** (-s / 2) * mpmath.gamma(s / 2) * mpmath.zeta(s)
        assert C.xi(s) == pytest.approx(float(expected), rel=1e-13)


def test_vol_so_small_values():
    assert C.vol_so(1) == 1.0
    assert C.vol_so(2) == pytest.approx(2 * math.sqrt(2) * math.pi, rel=1e-14)
    assert C.vol_so(3) == pytest.approx(16 * math.sqrt(2) * math.pi ** 2, rel=1e-14)
    with pytest.raises(ValueError):
        C.vol_so(0)


def test_vol_so_recursion_matches_product():
    for n in range(1, 13):
        assert C.vol_so(n) == pytest.approx(C.vol_so_recursive(n), rel=1e-12)


def test_arguments_out_of_range_raise(p21):
    with pytest.raises(ValueError, match="sphere dimension"):
        C.vol_sphere(-2)
    with pytest.raises(ValueError, match="n >= 1, got 0"):
        C.vol_so_recursive(0)
    with pytest.raises(ValueError, match="radius must be nonnegative"):
        C.asymptotic_count(C.counting_constant(p21), -1.0)
    with pytest.raises(ValueError, match="n >= 2, got 1"):
        C.xi_identity_check(1)


def test_vol_sl_mod():
    assert C.vol_sl_mod(2) == pytest.approx(math.pi ** 2 / 6, rel=1e-14)
    assert C.vol_sl_mod(3) == pytest.approx(C.zeta(2) * C.zeta(3), rel=1e-14)
    assert C.vol_sl_mod(4) == pytest.approx(C.zeta(2) * C.zeta(3) * C.zeta(4), rel=1e-14)
    with pytest.raises(ValueError):
        C.vol_sl_mod(1)


def test_xi_identity():
    for n in range(2, 9):
        assert C.xi_identity_check(n) <= 1e-9
    assert C.xi_identity_check(2) <= 1e-10
    assert C.xi_identity_check(3) <= 1e-10


def test_c7_examples(p3, p21, p2):
    h3 = C.c7(p3)
    assert h3.c7 == pytest.approx(C.vol_so(3) * 2 ** -1.5, rel=1e-14)
    h21 = C.c7(p21)
    assert h21.c7 == pytest.approx(C.vol_so(3) * 0.5, rel=1e-14)
    h2 = C.c7(p2)
    assert h2.c6 == pytest.approx(1.0)
    # C4 * VolKBlocks / VolK * 2^{-S/2} == 1 identity
    assert h3.c4 == pytest.approx(C.vol_so(3) * 2 ** 1.5, rel=1e-14)
    assert h21.c6 == pytest.approx((C.vol_so(2) * C.vol_so(1)) ** 2, rel=1e-14)


def test_counting_constant_dual_paths(p3, p21, p2):
    for part in (p3, p21, p2):
        general = C.counting_constant(part).coefficient
        hard = C.hardcoded_example_constant(part)
        assert abs(general / hard - 1.0) <= 1e-12


def test_counting_constant_is_reversal_invariant():
    # g -> J g^(-T) J^(-1) carries the lifts of a partition onto those of
    # its reversal, height for height, so the counting constant of the two
    # must agree; a derived factor that tells them apart is wrong
    pairs = [sizes for n in range(2, 6) for sizes in compositions(n)
             if sizes < sizes[::-1]]
    assert len(pairs) == 9
    for sizes in pairs:
        n = sum(sizes)
        assert (C.counting_constant(make_partition(n, list(sizes)))
                == C.counting_constant(make_partition(n, list(sizes[::-1]))))


def test_counting_constant_values(p3, p21, p2):
    cc = C.counting_constant(p3)
    assert float(cc.poly_exponent) == 0.5
    assert cc.exp_rate ** 2 == pytest.approx(8.0, abs=1e-12)
    assert cc.coefficient == pytest.approx(3.0060113388791363, rel=1e-12)
    cc = C.counting_constant(p21)
    assert cc.coefficient == pytest.approx(15.581249237652818, rel=1e-12)
    cc = C.counting_constant(p2)
    assert float(cc.poly_exponent) == 0.0
    assert cc.exp_rate == pytest.approx(math.sqrt(2.0), rel=1e-14)
    assert cc.coefficient == pytest.approx(2 * math.sqrt(2) / math.pi, rel=1e-12)


def test_asymptotic_count(p3, p2):
    cc3 = C.counting_constant(p3)
    assert C.asymptotic_count(cc3, 0.0) == 0.0  # R^{1/2} factor
    cc2 = C.counting_constant(p2)
    expected = (2 * math.sqrt(2) / math.pi) * math.exp(math.sqrt(2))
    assert C.asymptotic_count(cc2, 1.0) == pytest.approx(expected, rel=1e-12)
    # e^q growth per unit radius
    r = 3.7
    ratio = C.asymptotic_count(cc2, r + 1.0) / C.asymptotic_count(cc2, r)
    assert ratio == pytest.approx(math.exp(cc2.exp_rate), rel=1e-12)


def test_pi0(p3, p21, p2):
    assert C.pi0_stabilizer(p3) == 7
    assert C.pi0_stabilizer(p21) == 3
    assert C.pi0_stabilizer(p2) == 3


def test_counting_constant_rejects_single_block():
    from horocount.partitions import Partition

    with pytest.raises(ValueError):
        C.counting_constant(Partition(n=3, sizes=(3,)))


def test_vol_hor_quotient(p21):
    expected = (C.vol_so(2) / (2 * 2)) * (C.vol_so(1) / 1)
    assert C.vol_hor_quotient_slz(p21) == pytest.approx(expected, rel=1e-14)


def _mp_counting_constant(sizes):
    """The counting constant's formula evaluated in mpmath at 30 digits."""
    with mpmath.workdps(30):
        n = sum(sizes)

        def vol_so(m):
            spheres = mpmath.fprod(2 * mpmath.pi ** (mpmath.mpf(k) / 2) / mpmath.gamma(mpmath.mpf(k) / 2)
                                   for k in range(2, m + 1))
            return mpmath.mpf(2) ** (mpmath.mpf(m * (m - 1)) / 4) * spheres

        vol_hor = mpmath.fprod(vol_so(m) / (mpmath.factorial(m) * 2 ** (m - 1)) for m in sizes)
        vol_sl = mpmath.fprod(mpmath.zeta(k) for k in range(2, n + 1))
        q = mpmath.sqrt(mpmath.mpf(n * (n * n - 1)) / 3)
        return (mpmath.mpf(2) ** (-n * (n - 1) // 2) * (2 * mpmath.pi / q) ** (mpmath.mpf(n - 2) / 2)
                * vol_hor * vol_so(n) / ((2 ** len(sizes) - 1) * vol_sl))


@pytest.mark.parametrize("sizes", [
    (1, 1), (2, 1), (1, 1, 1), (2, 2), (3, 4, 3), (1,) * 12, (15, 15), (22, 22),
    (22, 23), (23, 24), (24, 25), (1,) * 46,
])
def test_counting_constant_against_mpmath(sizes):
    # N = 45-49 used to exit 2: 2^(-N(N-1)/2) times (2 pi / q)^((N-2)/2)
    # underflowed before the volume ratio could lift the product back up
    part = make_partition(sum(sizes), list(sizes))
    expected = _mp_counting_constant(sizes)
    assert C.counting_constant(part).coefficient == pytest.approx(float(expected), rel=1e-12)


@pytest.mark.parametrize("sizes", [(25, 25), (1,) * 47, (31, 32), (32, 32)])
def test_counting_constant_rejects_subnormal_and_overflow(sizes):
    # c is about 10^-313.1 at (25, 25): subnormal, so digits are lost
    with pytest.raises(ValueError):
        C.counting_constant(make_partition(sum(sizes), list(sizes)))
