"""Special values and closed-form constants entering the asymptotic count.

The leading term of the lift count is c * R^p * e^(q R) with p = (N-2)/2,
q = ||v0|| and a coefficient c assembled from Vol(SO_n), the covolume of
SL_N(Z), the Haar-decomposition constant C7 and the component count of the
horocycle stabilizer.  Every quantity here carries an independent
cross-check (recursion vs closed product, xi-identity, dual-path constant).

Both records are ``typing.NamedTuple``s.  ``CountingConstant.poly_exponent``
is the float (N - 2) / 2: a half-integer, so exact.  The Bernoulli numbers
of the zeta tail are quotients of integers, each correctly rounded.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

from .partitions import Partition, p_norm, require_horocycle_partition

__all__ = [
    "zeta",
    "xi",
    "vol_sphere",
    "vol_so",
    "vol_so_recursive",
    "vol_sl_mod",
    "HaarConstants",
    "c7",
    "CountingConstant",
    "counting_constant",
    "hardcoded_example_constant",
    "asymptotic_count",
    "xi_identity_check",
    "vol_hor_quotient_slz",
    "pi0_stabilizer",
]

# Bernoulli numbers B_2, B_4, ..., B_20 for the Euler-Maclaurin tail.  Integer
# true division rounds correctly, so each is the double nearest the rational.
_BERNOULLI = (
    1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510,
    43867 / 798, -174611 / 330,
)
_ZETA_TERMS = 24   # terms summed directly before the tail


def zeta(s: float) -> float:
    """Riemann zeta for real s > 1 via direct series + Euler-Maclaurin tail.

    Absolute error well below 1e-15 for s >= 2.
    """
    if s <= 1:
        raise ValueError(f"zeta(s) implemented for s > 1 only, got {s}")
    m = _ZETA_TERMS
    total = sum(k ** -s for k in range(1, m))
    total += m ** (1.0 - s) / (s - 1.0) + 0.5 * m ** -s
    # Tail: sum_k B_2k/(2k)! * s(s+1)...(s+2k-2) * m^(-s-2k+1)
    rising = s
    for k, bernoulli in enumerate(_BERNOULLI, start=1):
        total += bernoulli / math.factorial(2 * k) * rising * m ** (-s - 2 * k + 1)
        rising *= (s + 2 * k - 1) * (s + 2 * k)
    return total


def xi(s: float) -> float:
    """Completed zeta xi(s) = s(s-1)/2 * pi^(-s/2) * Gamma(s/2) * zeta(s).

    The s(s-1) normalization keeps xi positive on s > 1.
    """
    if s <= 1:
        raise ValueError(f"xi(s) requires s > 1, got {s}")
    return 0.5 * s * (s - 1.0) * math.pi ** (-s / 2.0) * math.gamma(s / 2.0) * zeta(s)


def vol_sphere(n_minus_1: int) -> float:
    """Euclidean area of the unit sphere S^(n-1) in R^n."""
    n = n_minus_1 + 1
    if n < 1:
        raise ValueError("sphere dimension out of range")
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def vol_so(n: int) -> float:
    """Vol(SO_n(R)) in the trace-form metric: 2^(n(n-1)/4) prod_{k<=n} Vol(S^{k-1})."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    prod = 1.0
    for k in range(2, n + 1):
        prod *= vol_sphere(k - 1)
    return 2.0 ** (n * (n - 1) / 4.0) * prod


def vol_so_recursive(n: int) -> float:
    """Same volume via the recursion Vol(SO_n) = Vol(SO_{n-1}) Vol(S^{n-1}) 2^((n-1)/2).

    The second path that ``selftest`` checks ``vol_so`` against."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    v = 1.0
    for k in range(2, n + 1):
        v = v * vol_sphere(k - 1) * 2.0 ** ((k - 1) / 2.0)
    return v


def vol_sl_mod(n: int) -> float:
    """Vol(SL_N(R)/SL_N(Z)) = zeta(2) zeta(3) ... zeta(N) (trace-form metric)."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    v = 1.0
    for k in range(2, n + 1):
        v *= zeta(k)
    return v


class HaarConstants(NamedTuple):
    """Jacobian constants of the Langlands / per-block-Cartan factorizations."""

    c4: float
    c6: float
    c7: float
    vol_k: float
    vol_k_blocks: float


def c7(partition: Partition) -> HaarConstants:
    """Constants C4, C6, C7 attached to a partition.

    C7 = Vol(SO_N) * 2^(-S/2) with S the number of cross-block pairs;
    C4 = (Vol(SO_N)/Vol(K_blocks)) * 2^(S/2); C6 = Vol(K_blocks)^2, where
    Vol(K_blocks) is the product of the per-block Vol(SO_{n_k}).
    """
    n = partition.n
    cross = len(partition.cross_pairs())
    vol_k = vol_so(n)
    vol_kb = math.prod(vol_so(m) for m in partition.sizes)
    return HaarConstants(
        c4=vol_k / vol_kb * 2.0 ** (cross / 2.0),
        c6=vol_kb ** 2,
        c7=vol_k * 2.0 ** (-cross / 2.0),
        vol_k=vol_k,
        vol_k_blocks=vol_kb,
    )


def pi0_stabilizer(partition: Partition) -> int:
    """Component count 2^k0 - 1 of the horocycle stabilizer, as used in the count."""
    return 2 ** partition.k0 - 1


def vol_hor_quotient_slz(partition: Partition) -> float:
    """Vol(G_hor^o / G_hor^o cap SL_N(Z)) = prod_k Vol(SO_{n_k}) / (n_k! 2^(n_k-1)).

    The unipotent factor has covolume one: the elementary matrices E_ij over
    cross-block pairs are an orthonormal basis of its Lie algebra.
    """
    v = 1.0
    for m in partition.sizes:
        v *= vol_so(m) / (math.factorial(m) * 2 ** (m - 1))
    return v


class CountingConstant(NamedTuple):
    """Leading asymptotics of the lift count: count(R) ~ c * R^p * e^(q R)."""

    poly_exponent: float
    exp_rate: float
    coefficient: float


def counting_constant(partition: Partition) -> CountingConstant:
    """Counting constant for Gamma = SL_N(Z), fully explicit.

    c = 2^(-N(N-1)/2) (2 pi / q)^((N-2)/2) Vol(G_hor / G_hor cap Gamma)
        / ((2^k0 - 1) Vol(K \\ G / Gamma)) with q = p_norm(N), the first
    volume from vol_hor_quotient_slz and the second vol_sl_mod / vol_so.

    The power of 2 is applied last and exactly (``math.ldexp``): alone it
    leaves the double range from N = 47, long before c does.

    Raises ``ValueError`` when the coefficient is not a finite normal
    double (a subnormal one has lost digits): for two near-equal blocks c is
    about 10^-293.9 at N = 49 and subnormal from N = 50 (partitions with more
    blocks get there sooner), and from about N = 63 a factor leaves the
    double range (Vol(SO_N) falls to 0, then overflows).
    """
    require_horocycle_partition(partition)
    n = partition.n
    try:
        vol_hor_quotient = vol_hor_quotient_slz(partition)
        vol_locally_symmetric = vol_sl_mod(n) / vol_so(n)
        p = p_norm(n)
        coeff = math.ldexp(
            vol_hor_quotient
            / (pi0_stabilizer(partition) * vol_locally_symmetric)
            * (2.0 * math.pi / p) ** ((n - 2) / 2.0),
            -(n * (n - 1) // 2),
        )
    except ArithmeticError as exc:  # an overflow, or a division by an underflow
        raise ValueError(f"a factor of the counting constant at N={n} is outside "
                         f"the double range ({exc})") from exc
    if not (sys.float_info.min <= coeff < math.inf):
        raise ValueError(f"the counting constant at N={n} is outside the double "
                         f"range (computed as {coeff!r})")
    return CountingConstant(poly_exponent=(n - 2) / 2, exp_rate=p, coefficient=coeff)


def hardcoded_example_constant(partition: Partition) -> float:
    """Independently coded closed forms for the three worked partitions.

    Serves as the second code path of the dual-path check that ``selftest``
    and the tests run; raises KeyError for partitions without a
    hand-derived expression.
    """
    key = (partition.n, partition.sizes)
    if key == (3, (1, 1, 1)):
        return math.pi ** 0.5 * 3.0 * 2.0 ** 0.25 / (7.0 * xi(2) * xi(3))
    if key == (3, (2, 1)):
        return math.pi ** 1.5 / (2.0 ** 0.25 * xi(2) * xi(3))
    if key == (2, (1, 1)):
        # (1/2) * (1/3) * Vol(SO_2) / zeta(2) = 2 sqrt(2) / pi
        return 2.0 * math.sqrt(2.0) / math.pi
    raise KeyError(f"no hardcoded expression for partition {key}")


def asymptotic_count(cc: CountingConstant, radius: float) -> float:
    """Evaluate c * R^p * e^(q R)."""
    if radius < 0:
        raise ValueError(f"radius must be nonnegative, got {radius}")
    return cc.coefficient * radius ** cc.poly_exponent * math.exp(cc.exp_rate * radius)


def xi_identity_check(n: int) -> float:
    """Relative error of Vol(SO_N)/Vol(SL_N/SL_N(Z)) = 2^(N(N-1)/4) N!(N-1)! / prod xi(k).

    Both sides are evaluated through independent routes (Gamma-function
    sphere areas vs completed-zeta values); ``selftest`` and the tests run
    it.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    lhs = vol_so(n) / vol_sl_mod(n)
    rhs = (
        2.0 ** (n * (n - 1) / 4.0)
        * math.factorial(n)
        * math.factorial(n - 1)
        / math.prod(xi(k) for k in range(2, n + 1))
    )
    return abs(lhs / rhs - 1.0)
