"""numpy references for the Cartan geometry that only the tests use.

``block_split``, ``rho_density`` and ``cone_contains`` compute the measure
density and the cone membership straight from their definitions, for
comparison with ``measure``'s projected plain-Python forms
(``measure._density_forms``, ``partitions.Cone.half_spaces``); ``v0`` is the
growth vector as an array.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from horocount.partitions import Cone, Partition


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
