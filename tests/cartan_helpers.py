"""numpy references for the Cartan geometry that only the tests use.

``block_split``, ``rho_density`` and ``cone_contains`` compute the measure
density and the cone membership straight from their definitions, for
comparison with ``measure``'s projected plain-Python forms
(``measure._density_forms``, ``partitions.Cone.half_spaces``); ``v0`` is the
growth vector as an array.

``stable_subspaces``, ``covolume``, ``covolume_gram`` and ``instantiate``
are the numeric side of the limit classifier: a translate diverges exactly
when the covolume of some stable prefix subspace decays along concrete
diagonals realizing a spec.  ``all_clean_specs`` lists every spec over the
``compositions`` of each N, for census tests of ``dynamics.classify_limit``.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple, Sequence

import numpy as np

from horocount import dynamics as D
from horocount.partitions import Cone, Partition, make_partition


class BlockDiagonalSplit(NamedTuple):
    """Orthogonal splitting y = aM + aZ of a Cartan vector.

    ``aM`` has zero sum within every block; ``aZ`` is constant within every
    block.  The two pieces are trace-form orthogonal and recover y uniquely.
    """

    aM: np.ndarray
    aZ: np.ndarray

    def join(self) -> np.ndarray:
        return self.aM + self.aZ


def block_split(partition: Partition, y: Sequence[float]) -> BlockDiagonalSplit:
    """Split a Cartan vector into its block-traceless and block-scalar parts."""
    y = np.asarray(y, dtype=float)
    if y.shape != (partition.n,):
        raise ValueError(f"vector has shape {y.shape}, expected ({partition.n},)")
    aZ = np.empty_like(y)
    for blk in partition.blocks:
        idx = list(blk)
        aZ[idx] = y[idx].mean()
    return BlockDiagonalSplit(aM=y - aZ, aZ=aZ)


def cone_contains(cone: Cone, y: Sequence[float], tol: float = 1e-12) -> bool:
    y = np.asarray(y, dtype=float)
    n = cone.partition.n
    if y.shape != (n,):
        raise ValueError(f"vector has shape {y.shape}, expected ({n},)")
    return all(np.dot(normal, y) >= floor - tol for normal, floor in cone.half_spaces())


def rho_density(partition: Partition, a: Sequence[float], b: Sequence[float],
                tol: float = 1e-12) -> float:
    """Haar density factor rho(a, b) in logarithmic coordinates.

    ``a`` is a block-traceless vector in the closed positive chamber
    (weakly decreasing within every block); ``b`` is block-scalar.  The
    value is the product of sinh(a_i - a_j) over intra-block pairs i < j
    times exp of the sum of b_i - b_j over cross-block pairs.  Chamber
    walls give 0; a strictly negative intra-block difference is rejected.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != (partition.n,) or b.shape != (partition.n,):
        raise ValueError("a and b must be length-n vectors")
    value = 1.0
    for i, j in partition.intra_pairs():
        d = a[i] - a[j]
        if d < -tol:
            raise ValueError(
                f"a is outside the closed positive chamber: a[{i}]-a[{j}] = {d}"
            )
        value *= math.sinh(max(d, 0.0))
    cross = sum(b[i] - b[j] for i, j in partition.cross_pairs())
    return value * math.exp(cross)


def v0(n: int) -> np.ndarray:
    """The sum-of-positive-roots vector diag(N-1, N-3, ..., -N+1)."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return np.array([n - 2 * i - 1 for i in range(n)], dtype=float)


def compositions(n: int):
    """Every ordered partition of n into at least two blocks, as a tuple of
    block sizes."""
    for cuts in itertools.product((False, True), repeat=n - 1):
        if any(cuts):
            ends = [i + 1 for i, cut in enumerate(cuts) if cut] + [n]
            yield tuple(b - a for a, b in zip([0] + ends, ends))


def stable_subspaces(partition: Partition) -> list[tuple[int, ...]]:
    """The proper coordinate prefixes: the only subspaces stable under K*U.

    These are the index sets whose covolume can decay along a translate;
    returned as 0-based index tuples for j = 1..k0-1.
    """
    return [tuple(range(sum(partition.sizes[:j]))) for j in range(1, partition.k0)]


def covolume(b: Sequence[float], prefix: Sequence[int]) -> float:
    """Covolume of (a*b) Z^prefix for block prefixes: the prefix product of b.

    ``b`` is a positive block-scalar diagonal; on a union of blocks the
    a-part, a positive diagonal with unit block determinants, has
    determinant one and drops out.
    """
    return float(math.prod([b[i] for i in prefix]))


def covolume_gram(a: Sequence[float], b: Sequence[float], prefix: Sequence[int]) -> float:
    """Independent covolume via the Gram determinant of the transformed basis."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    mat = np.diag(a * b)[:, list(prefix)]
    gram = mat.T @ mat
    return float(math.sqrt(np.linalg.det(gram)))


def instantiate(spec: D.CleanSequenceSpec, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Concrete positive diagonals (a(t), b(t)) realizing the behaviors at time t.

    Unbounded chamber parts use a within-block decreasing profile of size
    e^t; prefix characters use e^{+t}, 1, e^{-t}.  Returned as entrywise
    positive diagonal vectors (not logs).
    """
    part = spec.partition
    log_a = np.zeros(part.n)
    for k, blk in enumerate(part.blocks):
        if spec.a_behavior[k] == D.A_UNBOUNDED:
            m = len(blk)
            profile = np.linspace(1.0, -1.0, m)
            profile -= profile.mean()
            log_a[list(blk)] = t * profile
    log_prefix = [t if beh == D.B_TO_INFINITY else (-t if beh == D.B_TO_ZERO else 0.0)
                  for beh in spec.b_behavior]
    log_prefix.append(0.0)   # the determinant
    log_b = np.zeros(part.n)
    prev = 0.0
    for k, blk in enumerate(part.blocks):
        log_b[list(blk)] = (log_prefix[k] - prev) / part.sizes[k]
        prev = log_prefix[k]
    return np.exp(log_a), np.exp(log_b)


def all_clean_specs(n_max: int) -> list[D.CleanSequenceSpec]:
    """Every clean spec over every partition of every N <= n_max."""
    specs = []
    for n in range(2, n_max + 1):
        for sizes in compositions(n):
            part = make_partition(n, sizes)
            a_options = [
                (D.A_IDENTITY,) if s == 1 else (D.A_IDENTITY, D.A_UNBOUNDED)
                for s in sizes
            ]
            b_options = (D.B_TO_INFINITY, D.B_CONSTANT_ONE, D.B_TO_ZERO)
            for a_beh in itertools.product(*a_options):
                for b_beh in itertools.product(b_options, repeat=part.k0 - 1):
                    specs.append(D.CleanSequenceSpec(part, a_beh, b_beh))
    return specs
