"""Coset oracles and samplers that only the tests use.

``same_coset`` decides coset identity from the definition (g1^-1 g2 lies in
the stabilizer) and is the oracle for ``cosets.coset_key``; the samplers draw
random elements of SL_n(Z) and of the stabilizer's integer points.
``pinned_height`` moves the heights of one coset's orbit under the signed
permutations, to make the walk's descent check fire.
"""

from __future__ import annotations

import itertools
import math

from horocount.cosets import (Matrix, _generators, _state_height, _state_key, coset_key,
                              int_det)
from horocount.partitions import Partition


def int_inverse_unimodular(m: Matrix) -> Matrix:
    """Exact inverse of a determinant +-1 integer matrix (adjugate route)."""
    n = len(m)
    det = int_det(m)
    if det not in (1, -1):
        raise ValueError(f"matrix is not unimodular (det = {det})")
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = tuple(
                tuple(m[r][c] for c in range(n) if c != j)
                for r in range(n) if r != i
            )
            adj[j][i] = (-1) ** (i + j) * (int_det(minor) if n > 1 else 1)
    if det == -1:
        adj = [[-x for x in row] for row in adj]
    return tuple(tuple(row) for row in adj)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def signed_permutations(n: int) -> list[Matrix]:
    """The group W: all n x n signed permutation matrices of determinant one."""
    group = []
    for perm in itertools.permutations(range(n)):
        for signs in itertools.product((1, -1), repeat=n):
            w = tuple(tuple(signs[i] if j == perm[i] else 0 for j in range(n))
                      for i in range(n))
            if int_det(w) == 1:
                group.append(w)
    return group


def orbit_keys(g: Matrix, partition: Partition) -> set[tuple[int, ...]]:
    """Keys of the cosets w g Gamma_hor for every w in W."""
    return {coset_key(mat_mul(w, g), partition) for w in signed_permutations(partition.n)}


def pinned_height(g: Matrix, partition: Partition, height: float):
    """A stand-in for ``cosets._state_height`` that puts the W-orbit of the
    coset of g at ``height`` and leaves every other height as it was.  The
    whole orbit moves, so that heights stay W-invariant."""
    keys = orbit_keys(g, partition)

    def state_height(state, layout):
        if _state_key(state, layout) in keys:
            return height
        return _state_height(state, layout)

    return state_height


def _is_signed_permutation(block: list[list[int]]) -> bool:
    m = len(block)
    seen = set()
    for row in block:
        nz = [j for j, x in enumerate(row) if x != 0]
        if len(nz) != 1 or abs(row[nz[0]]) != 1:
            return False
        seen.add(nz[0])
    return len(seen) == m


def stabilizer_membership(delta: Matrix, partition: Partition) -> bool:
    """Is delta an integer point of the horocycle stabilizer?

    Block upper triangular, every diagonal block a signed permutation;
    the total determinant is +1 by assumption on the input.
    """
    n = partition.n
    for i in range(n):
        for j in range(n):
            if partition.block_of[i] > partition.block_of[j] and delta[i][j] != 0:
                return False
    for blk in partition.blocks:
        block = [[delta[i][j] for j in blk] for i in blk]
        if not _is_signed_permutation(block):
            return False
    return True


def same_coset(g1: Matrix, g2: Matrix, partition: Partition) -> bool:
    """Exact test: g1 and g2 differ by right multiplication by the stabilizer."""
    return stabilizer_membership(mat_mul(int_inverse_unimodular(g1), g2), partition)


def _apply_generator(g: Matrix, gen: tuple[int, int, int]) -> Matrix:
    """Right multiplication by E_ij(t): column j += t * column i."""
    i, j, t = gen
    return tuple(
        row[:j] + (row[j] + t * row[i],) + row[j + 1:]
        for row in g
    )


def random_slnz(n: int, rng, word_length: int = 12) -> Matrix:
    """Random SL_n(Z) element: product of random elementary generators."""
    gens = _generators(n)
    mat = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    for _ in range(word_length):
        mat = _apply_generator(mat, gens[rng.integers(len(gens))])
    return mat


def random_stabilizer_element(partition: Partition, rng, entry_scale: int = 4) -> Matrix:
    """Random integer point of the stabilizer: block signed permutations with
    unit total determinant times integer cross-block upper entries."""
    n = partition.n
    mat = [[0] * n for _ in range(n)]
    det_sign = 1
    for blk in partition.blocks:
        m = len(blk)
        perm = list(rng.permutation(m))
        signs = [int(s) for s in rng.choice([-1, 1], size=m)]
        block_det = _permutation_sign_of(perm) * math.prod(signs)
        det_sign *= block_det
        for local_i, local_j in enumerate(perm):
            mat[blk[local_i]][blk[local_j]] = signs[local_i]
    if det_sign < 0:
        # flip the single nonzero entry of the last block's first row
        i = partition.blocks[-1][0]
        for j in partition.blocks[-1]:
            if mat[i][j] != 0:
                mat[i][j] = -mat[i][j]
                break
    for i in range(n):
        for j in range(n):
            if partition.block_of[i] < partition.block_of[j]:
                mat[i][j] = int(rng.integers(-entry_scale, entry_scale + 1))
    return tuple(tuple(row) for row in mat)


def _permutation_sign_of(perm: list[int]) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign
