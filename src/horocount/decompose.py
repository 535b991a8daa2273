"""Matrix factorizations behind the height function on G/G_hor.

An SL_N(R) element factors as g = k * exp(aM) * c * exp(b) * u where k is
orthogonal, aM is block-traceless in the closed chamber, c is block
orthogonal, b is block-scalar and u is block-unipotent.  The height of the
translated horocycle g * U * K/K is ||aM + b|| = sqrt(||aM||^2 + ||b||^2)
in the trace form; it is invariant under left multiplication by SO_N and
right multiplication by the stabilizer identity component.

Chamber convention: within each block the entries of aM are weakly
decreasing, matching the positive cone used for the volume asymptotics.
Only the norm of aM enters the height, so the convention affects frames
but never heights.

``cosets`` computes coset heights from integer wedge coordinates and does
not use this module; ``height`` here is the independent float oracle that
those integer heights are tested against (the tests and ``selftest``).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .partitions import Partition

__all__ = [
    "qr_positive",
    "langlands_decompose",
    "block_cartan",
    "height",
    "HorocycleFrame",
]

_DET_TOL = 1e-6


def qr_positive(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """QR factorization with positive diagonal on R.

    Householder QR (LAPACK) followed by sign normalization; raises on
    singular input.
    """
    g = np.asarray(g, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {g.shape}")
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r)
    scale = float(np.abs(g).max(initial=1.0))
    if np.any(np.abs(diag) <= 1e-13 * max(scale, 1.0)):
        raise np.linalg.LinAlgError("matrix is singular to working precision")
    signs = np.where(diag > 0, 1.0, -1.0)
    return q * signs[np.newaxis, :], signs[:, np.newaxis] * r


def _check_det_one(g: np.ndarray, what: str) -> None:
    det = float(np.linalg.det(g))
    if abs(det - 1.0) > _DET_TOL:
        raise ValueError(f"{what} must have determinant 1, got {det}")


def _langlands_parts(g: np.ndarray, partition: Partition
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(q, m, b, u) with g = q * m * exp(b) * u, m block-diagonal triangular."""
    g = np.asarray(g, dtype=float)
    if g.shape != (partition.n, partition.n):
        raise ValueError(f"matrix shape {g.shape} does not match n={partition.n}")
    _check_det_one(g, "input")
    q, r = qr_positive(g)
    lam = np.zeros_like(r)
    for blk in partition.blocks:
        sl = slice(blk[0], blk[-1] + 1)
        lam[sl, sl] = r[sl, sl]
    u = np.linalg.solve(lam, r)
    b = np.empty(partition.n)
    for blk in partition.blocks:
        idx = list(blk)
        b[idx] = np.log(np.diagonal(r)[idx]).mean()
    m = lam * np.exp(-b)[np.newaxis, :]
    return q, m, b, u


def langlands_decompose(g: np.ndarray, partition: Partition
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Factor g = km * exp(b) * u with km in K*M, b block-scalar, u block-unipotent.

    Realized through positive QR: R splits into its block-diagonal part
    times a block-unipotent factor, and b collects the per-block log
    determinants (exp(b) is central in the block structure, so it commutes
    past the M-part).

    b is additive under right multiplication: for block-scalar b1 the
    factor of g * exp(b1) is b + b1, since exp(b1) commutes with the
    M-part and normalizes the unipotent radical.  Left multiplication by
    exp(b1) is not additive on b, because it does not commute past km.
    """
    q, m, b, u = _langlands_parts(g, partition)
    return q @ m, b, u


def block_cartan(m: np.ndarray, partition: Partition
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-block Cartan factorization m = c1 * exp(aM) * c2.

    m must be block diagonal with unit block determinants; c1, c2 are
    special orthogonal per block and exp(aM) carries the per-block singular
    values, sorted decreasingly into the chamber.  When singular values tie
    the rotations are not unique; any valid pair is returned.
    """
    m = np.asarray(m, dtype=float)
    n = partition.n
    if m.shape != (n, n):
        raise ValueError(f"matrix shape {m.shape} does not match n={n}")
    off = m.copy()
    c1 = np.eye(n)
    c2 = np.eye(n)
    a = np.zeros(n)
    for blk in partition.blocks:
        sl = slice(blk[0], blk[-1] + 1)
        block = m[sl, sl]
        off[sl, sl] = 0.0
        det = float(np.linalg.det(block))
        if abs(det - 1.0) > _DET_TOL:
            raise ValueError(f"block {blk} must have determinant 1, got {det}")
        uu, sv, vt = np.linalg.svd(block)
        if np.linalg.det(uu) < 0:
            # flip the last singular pair; leaves the product and sv unchanged
            uu = uu.copy()
            vt = vt.copy()
            uu[:, -1] *= -1.0
            vt[-1, :] *= -1.0
        c1[sl, sl] = uu
        c2[sl, sl] = vt
        a[sl] = np.log(sv)
    if float(np.abs(off).max(initial=0.0)) > 1e-9 * max(1.0, float(np.abs(m).max())):
        raise ValueError("matrix is not block diagonal for this partition")
    return c1, a, c2


class HorocycleFrame(NamedTuple):
    """Five-factor frame g = k * exp(aM) * c * exp(b) * u."""

    k: np.ndarray
    aM: np.ndarray
    c: np.ndarray
    b: np.ndarray
    u: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return self.k @ np.diag(np.exp(self.aM)) @ self.c @ np.diag(np.exp(self.b)) @ self.u

    @property
    def height(self) -> float:
        return math.sqrt(float(self.aM @ self.aM) + float(self.b @ self.b))


def height(g: np.ndarray, partition: Partition) -> tuple[float, HorocycleFrame]:
    """Height of the translated horocycle [g], with the full frame.

    The Langlands step supplies (q, m, b, u); a per-block Cartan step on
    the block-triangular M-part yields aM, and the height is
    sqrt(||aM||^2 + ||b||^2).
    """
    q, m, b, u = _langlands_parts(g, partition)
    c1, a, c2 = block_cartan(m, partition)
    frame = HorocycleFrame(k=q @ c1, aM=a, c=c2, b=b, u=u)
    return frame.height, frame
