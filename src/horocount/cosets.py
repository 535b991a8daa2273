"""Exact enumeration of horocycle lifts of bounded height.

Lifts correspond to cosets g Gamma_hor of the stabilizer inside SL_N(Z);
the stabilizer's integer points are the block-upper-triangular matrices
whose diagonal blocks are signed permutations (total determinant one).

A coset is handled through one flat tuple of integers, its wedge
(Pluecker) state.  Let omega_k be the wedge of the columns of the blocks
before block k (omega_1 = 1).  For each column v_j of block k the state
holds the coordinates of omega_k ^ v_j: the maximal minors of the earlier
blocks' columns together with v_j, one per row set, in lexicographic order.
A singleton last block is left out, since its entry is det g = 1.

* **Key.**  The stabilizer changes omega_k only by a sign (the earlier
  columns span a primitive lattice, fixed up to sign by its wedge), adds to
  v_j only earlier columns, which omega_k ^ v_j does not see, and permutes
  and signs the columns of a block.  ``coset_key`` makes each omega_k ^ v_j
  positive in its first nonzero entry, sorts them within the block and
  concatenates the blocks.  Since omega_k ^ v determines v modulo the
  earlier columns up to sign, the key is a complete invariant, and a plain
  set of keys removes duplicates exactly.
* **Height.**  The squared norms |omega_k|^2 are integers, and their
  log-ratios give the block-scalar part b.  The chamber part of a block
  comes from its integer Gram matrix <omega_k ^ v_i, omega_k ^ v_j>: in
  closed form for a block of size two, from its eigenvalues for a larger
  one.  ``decompose.height`` computes the same height from a float matrix
  factorization and is the oracle the tests compare against.
* **Update.**  Left multiplication by E_ij(t) adds t times row j to row i.
  It changes only the coordinates whose row set S holds i and not j, each
  by +-t times the coordinate on S - i + j, so a step is a fixed table of
  integer updates per generator.

Two strategies are implemented and validated against each other:

* ``enumerate_bfs`` walks the Schreier graph of SL_N(Z) acting on the
  cosets by left multiplication with the elementary matrices E_ij(+-1),
  as in Todd-Coxeter coset enumeration, stepping the state and pruning by
  height only.  By default it expands only the cosets of height <= R (and
  the identity's neighbours), which is complete by the descent lemma:
  proved for N = 2, unproved for N >= 3 and checked on every walk.
* ``enumerate_brute`` scans integer matrices column by column, pruning
  branches by coset-invariant bounds (per-block singular values and the
  partial height are right-stabilizer invariants), which also cap the
  columns' norms, and solving the final column from the determinant
  equation.  At a block boundary one integer product gives each candidate
  column's exact wedge omega ^ v with the prefix, whose gcd tests the
  prefix for primitivity and whose norm is the prefix covolume.  It scans
  only reduced representatives (columns signed, ordered within a block and
  size-reduced against the earlier blocks) and solves the last column's
  classes directly: every completion of a prefix is one particular
  solution plus the prefix columns, its coset depends only on the multiple
  of the last block's first column, and the height rises with a convex
  function of that multiple.  So a coset is derived once or a few times.

``coset_key`` and ``coset_height`` build the state of a matrix and call the
same key and height functions as the walk.  All arithmetic on matrices and
states is exact (Python ints); heights use floating point with a 1e-9
boundary tolerance.

numpy is imported only where arrays are built: by the scan
(``enumerate_brute``, ``_wedge_matrix`` and ``_integer_vectors``), which
filters all candidate columns at once, and by ``_block_gram`` for the
eigenvalues of a block of size >= 3 (N >= 4).  The walk at N <= 3, and at
N = 4 without such a block, runs without it, and so does a process that
only walks: importing numpy takes longer than most walks.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .partitions import Partition, require_horocycle_partition

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "CosetRecord",
    "EnumerationReport",
    "ResourceLimitError",
    "InconsistencyError",
    "int_det",
    "coset_key",
    "coset_height",
    "enumerate_bfs",
    "enumerate_brute",
    "require_scannable",
    "coset_sets_equal",
]

HEIGHT_TOL = 1e-9

Matrix = tuple[tuple[int, ...], ...]


class ResourceLimitError(RuntimeError):
    """Search exceeded its state budget; ``partial_report`` holds what was found."""

    def __init__(self, message: str, partial_report: "EnumerationReport"):
        super().__init__(message)
        self.partial_report = partial_report


class InconsistencyError(RuntimeError):
    """The graph search and the exhaustive scan found different coset sets."""


# ---------------------------------------------------------------------------
# exact integer linear algebra
# ---------------------------------------------------------------------------

def int_det(m: Matrix) -> int:
    n = len(m)
    if n == 1:
        return m[0][0]
    if n == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    if n == 3:
        return (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        )
    # cofactor expansion; enumeration only targets small n
    det = 0
    for j in range(n):
        minor = tuple(row[:j] + row[j + 1:] for row in m[1:])
        det += (-1) ** j * m[0][j] * int_det(minor)
    return det


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    if b == 0:
        return (abs(a), 1 if a >= 0 else -1, 0)
    g, x, y = _ext_gcd(b, a % b)
    return (g, y, x - (a // b) * y)


def solve_dot_one(w: tuple[int, ...]) -> tuple[int, ...]:
    """Integer x with <w, x> = 1; requires gcd(w) = 1.

    Extended Euclid folded over the entries: after entry j, x solves
    <w, x> = gcd(w_0, ..., w_j) with x zero beyond j.
    """
    x = [0] * len(w)
    x[0] = 1
    g = w[0]
    for j in range(1, len(w)):
        if w[j]:
            g, s, x[j] = _ext_gcd(g, w[j])
            for i in range(j):
                x[i] *= s
    if g < 0:
        g, x = -g, [-v for v in x]
    if g != 1:
        raise ValueError(f"gcd of {w} is {g}, not 1")
    return tuple(x)


# ---------------------------------------------------------------------------
# the wedge state of a coset
# ---------------------------------------------------------------------------

def _generators(n: int) -> list[tuple[int, int, int]]:
    gens = []
    for i in range(n):
        for j in range(n):
            if i != j:
                gens.extend([(i, j, 1), (i, j, -1)])
    return gens


@functools.cache
def _wedge_table(n: int, p: int) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """Terms of omega ^ v for omega of degree p: coordinate S (a (p+1)-subset
    of rows, lexicographic) is the sum over the rows r of S of
    sign * v_r * omega_(S - r), listed as (sign, r, index of S - r)."""
    lower = {s: idx for idx, s in enumerate(itertools.combinations(range(n), p))}
    return tuple(
        tuple(((-1) ** (p + pos), r, lower[s[:pos] + s[pos + 1:]])
              for pos, r in enumerate(s))
        for s in itertools.combinations(range(n), p + 1)
    )


def _wedge(omega: tuple[int, ...], v: tuple[int, ...], table) -> tuple[int, ...]:
    return tuple(sum(sign * v[r] * omega[idx] for sign, r, idx in terms)
                 for terms in table)


def _columns_wedge(cols, n: int) -> tuple[int, ...]:
    """Coordinates of the wedge of the given columns (the empty wedge is 1)."""
    omega: tuple[int, ...] = (1,)
    for p, v in enumerate(cols):
        omega = _wedge(omega, v, _wedge_table(n, p))
    return omega


def _wedge_matrix(cols, n: int) -> np.ndarray:
    """Integer matrix W with W v = omega ^ v, omega the wedge of ``cols``."""
    import numpy as np

    omega = _columns_wedge(cols, n)
    table = _wedge_table(n, len(cols))
    w = np.zeros((len(table), n), dtype=np.int64)
    for row, terms in zip(w, table):
        for sign, r, idx in terms:
            row[r] = sign * omega[idx]
    return w


def _step_ops(n: int, degree: int, start: int,
              gen: tuple[int, int, int]) -> list[tuple[int, int, int]]:
    """(target, source, coefficient) updates of one column's coordinates of
    the given degree under left multiplication by E_ij(t).  Row i of every
    minor on a row set S holding i and not j gains t times row j; moving
    row j to its place in S - i + j passes the rows of S between i and j."""
    i, j, t = gen
    lo, hi = min(i, j), max(i, j)
    index = {s: idx for idx, s in enumerate(itertools.combinations(range(n), degree))}
    ops = []
    for s, idx in index.items():
        if i in s and j not in s:
            source = index[tuple(sorted(set(s) - {i} | {j}))]
            between = sum(lo < r < hi for r in s)
            ops.append((start + idx, start + source, t * (-1) ** between))
    return ops


class _Layout:
    """Where the wedge coordinates of a partition sit in the flat state.

    ``blocks`` holds, per block, its size and the (start, stop) slice of
    each column's coordinates (no slice for a singleton last block).
    ``steps[g]`` holds the updates of generator g of ``_generators(n)``.
    """

    def __init__(self, partition: Partition):
        n = partition.n
        self.partition = partition
        blocks = []
        columns = []  # (start, degree) of every stored column
        pos = 0
        for k, blk in enumerate(partition.blocks):
            if k == partition.k0 - 1 and len(blk) == 1:
                blocks.append((1, ()))
                continue
            degree = blk[0] + 1
            width = math.comb(n, degree)
            slices = []
            for _ in blk:
                slices.append((pos, pos + width))
                columns.append((pos, degree))
                pos += width
            blocks.append((len(blk), tuple(slices)))
        self.blocks = tuple(blocks)
        self.steps = tuple(
            tuple(op for start, degree in columns
                  for op in _step_ops(n, degree, start, gen))
            for gen in _generators(n)
        )


@functools.cache
def _layout(partition: Partition) -> _Layout:
    return _Layout(partition)


def _matrix_state(g: Matrix, layout: _Layout) -> tuple[int, ...]:
    """The wedge state of an integer matrix, computed from its columns."""
    n = layout.partition.n
    cols = list(zip(*g))
    state: list[int] = []
    for blk, (_, slices) in zip(layout.partition.blocks, layout.blocks):
        if slices:
            omega = _columns_wedge(cols[:blk[0]], n)
            table = _wedge_table(n, blk[0])
            for j in blk:
                state.extend(_wedge(omega, cols[j], table))
    return tuple(state)


def _step(state: tuple[int, ...], ops) -> tuple[int, ...]:
    """The state after one generator, from its update table."""
    child = list(state)
    for target, source, coef in ops:
        child[target] += coef * state[source]
    return tuple(child)


def _positive(seg: tuple[int, ...]) -> tuple[int, ...]:
    for x in seg:
        if x:
            return seg if x > 0 else tuple([-y for y in seg])
    return seg


def _state_key(state: tuple[int, ...], layout: _Layout) -> tuple[int, ...]:
    key: tuple[int, ...] = ()
    for _, slices in layout.blocks:
        if len(slices) == 1:
            start, stop = slices[0]
            key += _positive(state[start:stop])
        elif slices:
            for seg in sorted([_positive(state[a:b]) for a, b in slices]):
                key += seg
    return key


def _pair_block(x, y) -> tuple[int, float]:
    """Gram determinant and squared chamber part of a block of size two.

    ``x`` and ``y`` are the block's coordinates omega ^ v_i.  Their integer
    Gram entries (p, q, r) = (<x, x>, <y, y>, <x, y>) have determinant
    d = pq - r^2 = |omega ^ v_1 ^ v_2|^2 |omega|^2.  Scaled to determinant
    one the block has squared singular values s^(+-2) with
    s^2 = (p + q + sqrt((p - q)^2 + 4 r^2)) / (2 sqrt(d)), so its chamber
    part is (t, -t), t = log(s^2) / 2, of squared norm 2 t^2.  The block
    must be nondegenerate (d > 0).
    """
    p = sum([u * u for u in x])
    q = sum([w * w for w in y])
    r = sum([u * w for u, w in zip(x, y)])
    d = p * q - r * r
    s_sq = (p + q + math.sqrt((p - q) ** 2 + 4 * r * r)) / (2.0 * math.sqrt(d))
    t = 0.5 * math.log(s_sq)
    return d, 2.0 * t * t


def _block_gram(segs) -> tuple[int, float]:
    """Gram determinant and squared chamber part of a block of size m >= 3.

    ``segs`` are the block's coordinates omega ^ v_i.  Their integer Gram
    matrix G has determinant d = |omega ^ v_1 ^ ... ^ v_m|^2 |omega|^(2(m-1)).
    Scaled to determinant one the block has squared singular values
    lambda_i / d^(1/m), lambda the eigenvalues of G, so its chamber part has
    squared norm sum_i (log(lambda_i) / 2 - log(d) / (2m))^2.
    """
    import numpy as np

    m = len(segs)
    gram = tuple(tuple(sum([u * w for u, w in zip(x, y)]) for y in segs) for x in segs)
    d = int_det(gram)
    shift = math.log(d) / (2 * m)
    lam = np.linalg.eigvalsh(np.array(gram, dtype=float))
    return d, sum((0.5 * math.log(x) - shift) ** 2 for x in lam.tolist())


def _state_height(state: tuple[int, ...], layout: _Layout) -> float:
    """Height from the integer squared norms and Gram matrices of the state.

    With beta_k = log(|omega_(k+1)|^2 / |omega_k|^2) / (2 m_k) for a block of
    size m_k, the b-part is sum m_k beta_k^2.  A block of size two adds its
    chamber part from ``_pair_block``, a larger one from ``_block_gram``,
    and the block's Gram determinant divided by |omega_k|^(2(m_k - 1)) is
    |omega_(k+1)|^2.
    """
    norm = 1
    log_norm = 0.0
    a_sq = 0.0
    b_sq = 0.0
    for size, slices in layout.blocks:
        if not slices:
            nxt = 1  # |omega ^ v|^2 = det(g)^2
        elif size == 1:
            start, stop = slices[0]
            nxt = sum([x * x for x in state[start:stop]])
        elif size == 2:
            (a0, b0), (a1, b1) = slices
            d, chamber_sq = _pair_block(state[a0:b0], state[a1:b1])
            nxt = d // norm
            a_sq += chamber_sq
        else:
            d, chamber_sq = _block_gram([state[a:b] for a, b in slices])
            nxt = d // norm ** (size - 1)
            a_sq += chamber_sq
        log_next = math.log(nxt)
        beta = 0.5 * (log_next - log_norm) / size
        b_sq += size * beta * beta
        norm, log_norm = nxt, log_next
    return math.sqrt(a_sq + b_sq)


def coset_key(g: Matrix, partition: Partition) -> tuple[int, ...]:
    """Complete invariant of the coset g Gamma_hor, as one flat tuple of ints.

    Block by block, each omega_k ^ v_j is made positive in its first nonzero
    coordinate, the results are sorted within the block and concatenated
    (see the module docstring).  Two matrices share a key exactly when
    they lie in the same coset.
    """
    layout = _layout(partition)
    return _state_key(_matrix_state(g, layout), layout)


def coset_height(g: Matrix, partition: Partition) -> float:
    """Height of the coset of an integer matrix, from its wedge state."""
    layout = _layout(partition)
    return _state_height(_matrix_state(g, layout), layout)


@dataclass(frozen=True)
class CosetRecord:
    representative: Matrix
    key: tuple[int, ...]
    height: float
    boundary: bool = False


@dataclass
class EnumerationReport:
    partition: Partition
    radius: float
    count: int
    method: str
    records: list[CosetRecord] = field(default_factory=list)
    wall_time: float = 0.0
    params: dict = field(default_factory=dict)
    partial: bool = False


# ---------------------------------------------------------------------------
# breadth-first search over the Schreier graph
# ---------------------------------------------------------------------------

def _left_apply(g: Matrix, gen: tuple[int, int, int]) -> Matrix:
    """Left multiplication by E_ij(t): row i += t * row j."""
    i, j, t = gen
    rows = list(g)
    rows[i] = tuple(a + t * b for a, b in zip(g[i], g[j]))
    return tuple(rows)


def enumerate_bfs(partition: Partition, radius: float, margin: float = 0.0,
                  max_states: int = 2_000_000) -> EnumerationReport:
    """All distinct lift cosets of height <= R by breadth-first search.

    The walk starts at the identity coset and moves by left multiplication
    with E_ij(+-1), which is well defined on cosets g Gamma_hor.  A move
    updates the wedge state by the generator's table (only coordinates
    whose row set holds i and not j change, each by +-1 times another
    coordinate), and the key and the height are read off the new state:
    the height from the integer squared norms |omega_k|^2 and the blocks'
    integer Gram matrices.  Every child key goes into the
    ``seen`` map with its height, and height is the only prune: a coset is
    kept and expanded when its height is at most the limit
    max(R + margin, h1) + HEIGHT_TOL, where h1 is the largest height among
    the identity's neighbours.  The matrix is carried only for cosets that
    are expanded, as their representative.  A positive ``margin`` expands
    further, for cross-checks; it never changes a count of a complete walk.

    The floor h1 keeps small R + margin complete.  Signed permutations of
    determinant one lie in SO_N, so left multiplication by one keeps the
    height, and it maps the neighbours of a coset onto the neighbours of
    its translate.  The height-0 coset of a transposition (i j), i < j in
    different blocks, is E_ij(1) E_ji(-1) Gamma_hor, two steps from the
    identity through a neighbour of height <= h1.  So every permutation
    coset is reached, whatever R and margin are.

    Completeness at margin 0 rests on the descent lemma: every coset of
    positive height has a neighbour of strictly lower height.  Then a
    coset of height <= R descends to a height-0 coset through cosets of
    height <= R, and the walk climbs the same path back.  For N = 2 the
    lemma is proved: a coset is fixed by its first column v up to sign,
    and its height is sqrt(2) log|v|.  Euclid descent on v (add or
    subtract the smaller entry from the larger) strictly lowers the height
    down to e_1 or e_2, and e_2 joins e_1 through (1, 1) at height
    h1 = log(2)/sqrt(2).  For N >= 3 the lemma is unproved, and the walk
    checks it on every run: after a coset of height h > HEIGHT_TOL is
    expanded, all its neighbours are in ``seen``, and the coset counts as
    a failure unless the lowest of them is below h - HEIGHT_TOL.  The
    check sees only the cosets the walk expands; a failure says that the
    count may be incomplete at this margin.  It is a diagnostic and never
    changes a count.  Counts are also checked against ``enumerate_brute``.

    ``params`` reports ``expand_limit``, ``states`` (keys seen),
    ``depth_reached`` (layers expanded), ``last_new_depth`` (the deepest
    layer that found a coset of height <= R), ``descent_checked`` (expanded
    cosets of positive height) and ``descent_failures`` (those of them with
    no strictly lower neighbour).  Exceeding the state budget raises
    ``ResourceLimitError`` carrying the partial report, the only case
    marked ``partial``.  A negative or non-finite radius or margin, or a
    state budget below one, raises ``ValueError``.
    """
    require_horocycle_partition(partition)
    if not (math.isfinite(radius) and radius >= 0):
        raise ValueError(f"radius must be finite and nonnegative, got {radius}")
    if not (math.isfinite(margin) and margin >= 0):
        raise ValueError(f"margin must be finite and nonnegative, got {margin}")
    if max_states < 1:
        raise ValueError(f"max_states must be at least 1, got {max_states}")
    start_time = time.monotonic()
    n = partition.n
    layout = _layout(partition)
    moves = list(zip(_generators(n), layout.steps))
    identity = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    root = _matrix_state(identity, layout)
    root_key = _state_key(root, layout)
    root_height = _state_height(root, layout)
    expand_limit = max(radius + margin, max(
        _state_height(_step(root, ops), layout) for ops in layout.steps)) + HEIGHT_TOL
    seen = {root_key: root_height}
    records: list[CosetRecord] = []
    count = 0
    depth = 0
    last_new_depth = 0
    checked = 0
    failures = 0

    def report(partial: bool) -> EnumerationReport:
        return EnumerationReport(
            partition=partition, radius=radius, count=count, method="bfs",
            records=records, wall_time=time.monotonic() - start_time,
            params={"margin": margin, "max_states": max_states,
                    "expand_limit": expand_limit, "states": len(seen), "depth_reached": depth,
                    "last_new_depth": last_new_depth, "descent_checked": checked,
                    "descent_failures": failures},
            partial=partial,
        )

    def consider(g: Matrix, key: tuple[int, ...], h: float) -> None:
        nonlocal count, last_new_depth
        if h > radius + HEIGHT_TOL:
            return
        count += 1
        last_new_depth = depth
        records.append(CosetRecord(
            representative=g, key=key, height=h,
            boundary=abs(h - radius) <= HEIGHT_TOL,
        ))

    consider(identity, root_key, root_height)
    frontier = [(identity, root, root_height)]
    while frontier:
        depth += 1
        next_frontier = []
        for g, state, height in frontier:
            lowest = math.inf
            for gen, ops in moves:
                child = _step(state, ops)
                key = _state_key(child, layout)
                h = seen.get(key)
                if h is None:
                    h = _state_height(child, layout)
                    seen[key] = h
                    if len(seen) > max_states:
                        raise ResourceLimitError(
                            f"state budget {max_states} exceeded at depth {depth}",
                            report(partial=True),
                        )
                    if h <= expand_limit:
                        child_g = _left_apply(g, gen)
                        consider(child_g, key, h)
                        next_frontier.append((child_g, child, h))
                if h < lowest:
                    lowest = h
            if height > HEIGHT_TOL:
                checked += 1
                if lowest >= height - HEIGHT_TOL:
                    failures += 1
        frontier = next_frontier
    return report(partial=False)


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------

def _block_sigma_bound(partition: Partition, radius: float, k: int) -> float:
    """Upper bound on log of the largest block singular value, coset-invariant."""
    n = partition.n
    m = partition.sizes[k]
    chamber = (m - 1) / m
    central = (n - m) / (m * n)
    return radius * math.sqrt(chamber + central)


def require_scannable(partition: Partition) -> None:
    """Raise unless ``enumerate_brute`` can scan the partition (n <= 3)."""
    require_horocycle_partition(partition)
    if partition.n > 3:
        raise NotImplementedError(
            "brute-force enumeration targets n <= 3 (cost grows like e^(P_N R))"
        )


def enumerate_brute(partition: Partition, radius: float) -> EnumerationReport:
    """All distinct lift cosets of height <= R by exhaustive column scan.

    Columns are generated recursively; branches are cut by coset-invariant
    bounds (block singular values, partial height) plus
    wedge primitivity at block boundaries, and the last column's classes
    are solved exactly from the determinant equation.  At a boundary, the
    wedge omega ^ v of the prefix with a candidate column v is exact: the
    extended prefix is primitive when the wedge's entries have gcd one, and
    its covolume is |omega ^ v|, from the integer squared norm.  The scanned
    columns are drawn from the integer vectors of norm at most the largest
    block singular value bound times 1 + (n - 1) / 2, which also sizes the
    box.  For [1, 2] the first column v of the last block is cut as well:
    that block's Gram matrix has determinant |c_0|^2 and largest eigenvalue
    at least |c_0 ^ v|^2, which bounds its chamber part from below.

    Only reduced representatives are scanned, so a coset is derived about
    once.  Every coset has a representative that meets all of the
    restrictions below: going through the blocks in order, reduce the
    block's columns against the earlier blocks' columns, then fix their
    signs and order.  Each step is right multiplication by an element of
    the stabilizer, leaves the earlier blocks alone and keeps the reductions
    already made, and the column norms that the column budgets bound are
    those of a size-reduced representative.

    1. Signs: every column but the last is positive in its first nonzero
       entry.  The stabilizer's diagonal signs flip any column; flipping the
       last column as well restores det g = 1, and that column is solved,
       not scanned.
    2. Order: the scanned columns of one block increase lexicographically.
       A permutation of a block's columns is a stabilizer move (the last
       column's sign again takes up the determinant).  At n <= 3 this
       orders the two columns of the first block of [2, 1].
    3. Size reduction: a scanned column v satisfies
       |<v, c*_i>| <= |c*_i|^2 / 2 (ties allowed) against the Gram-Schmidt
       vectors c*_i of the earlier blocks' columns.  Adding earlier-block
       columns is a stabilizer move, and Babai's nearest-plane step yields
       such a column.  At n <= 3 only the second column of [1, 1, 1] and
       [1, 2] has an earlier-block column, c_0, and the test is the integer
       inequality 2 |<v, c_0>| <= |c_0|^2.
    4. Last column: the columns c_0, ..., c_(n-2) of a prefix span a
       primitive lattice (its cofactor vector w, the single row of the
       wedge matrix of the n - 1 columns, has gcd 1), which is the kernel
       lattice of <w, .>, so the completions are x_0 + Z c_0 + ... +
       Z c_(n-2), x_0 from ``solve_dot_one``.  Adding earlier-block columns
       keeps the coset.  For a singleton last block every completion is
       one coset, whose height does not depend on x (its entry is
       det g = 1), and x_0 alone is derived.  For [1, 2] the completion
       x_0 + s c_0 + t c_1 has c_0 ^ x = b + t a with a = c_0 ^ c_1 and
       b = c_0 ^ x_0, so its coset depends on t only.  The last block's
       Gram matrix has entries |a|^2, <a, b + t a> and q(t) = |b + t a|^2,
       and its determinant |a|^2 |b|^2 - <a, b>^2 does not depend on t,
       nor does the b-part, which that determinant fixes.  At a fixed
       determinant the largest eigenvalue, and with it the chamber part,
       rises with the trace, so the height rises with q(t), which is
       convex in t with its minimum at t* = -<a, b> / |a|^2.  The scan
       derives t = round(t*) and walks t outward in both directions until
       the height exceeds R.  The last column of a record is not
       size-reduced.

    ``params`` reports ``box``, ``prefixes`` (prefixes of n - 1 columns
    handed to the last-column solve) and ``completions`` (completions that
    reached the height test).  A derived matrix of determinant other than
    one is a fault of the scan and raises ``RuntimeError``.
    """
    import numpy as np

    require_scannable(partition)
    if not (math.isfinite(radius) and radius >= 0):
        raise ValueError(f"radius must be finite and nonnegative, got {radius}")
    start_time = time.monotonic()
    n = partition.n
    layout = _layout(partition)
    r_eff = radius + 1e-6
    sigma_bounds = [math.exp(_block_sigma_bound(partition, r_eff, k))
                    for k in range(partition.k0)]
    boundary_after = {}
    pos = 0
    for k, m in enumerate(partition.sizes):
        pos += m
        if k < partition.k0 - 1:
            boundary_after[pos - 1] = (k, pos)

    global_cap = max(sigma_bounds) * (1.0 + 0.5 * (n - 1))
    box = math.ceil(global_cap)
    master = _integer_vectors(n, box, global_cap)
    # restriction 1: scanned columns are positive in their first nonzero entry
    first_nonzero = master[np.arange(len(master)), np.argmax(master != 0, axis=1)]
    master = master[first_nonzero > 0]
    master_sq = np.einsum("ij,ij->i", master, master)
    master_norms = np.sqrt(master_sq)
    master_rows = [tuple(row) for row in master.tolist()]  # lexicographic order

    singleton_last = len(partition.blocks[-1]) == 1

    seen: set[tuple[int, ...]] = set()
    records: list[CosetRecord] = []
    prefixes = 0
    completions = 0

    def accept(cols: list[tuple[int, ...]]) -> bool:
        """Record the coset of the complete columns; False above the height."""
        nonlocal completions
        completions += 1
        mat = tuple(zip(*cols))
        if int_det(mat) != 1:
            raise RuntimeError(f"scan derived {mat}, of determinant {int_det(mat)}")
        state = _matrix_state(mat, layout)
        h = _state_height(state, layout)
        if h > radius + HEIGHT_TOL:
            return False
        key = _state_key(state, layout)
        if key not in seen:
            seen.add(key)
            records.append(CosetRecord(
                representative=mat, key=key, height=h,
                boundary=abs(h - radius) <= HEIGHT_TOL,
            ))
        return True

    def column_budget(j: int, chosen_norms: list[float]) -> float:
        k = partition.block_of[j]
        slack = 0.5 * sum(
            chosen_norms[i] for i in range(len(chosen_norms))
            if partition.block_of[i] != k
        )
        return sigma_bounds[k] + slack

    def boundary_filter(cols: list[tuple[int, ...]], idx: np.ndarray, k: int,
                        m: int, log_v_prev: float, b_partial: float,
                        a_partial: float):
        """Vectorized coset-invariant pruning for candidates v completing the
        prefix of size m; yields (vector, log_v, b_partial', a_partial').

        One product gives each candidate's exact wedge omega ^ v, omega the
        wedge of ``cols``.  The prefix ``cols`` + v is primitive when the
        wedge's entries have gcd one, which also makes the wedge nonzero,
        and its log covolume is log |omega ^ v|, from the integer squared
        norm.  The partial-height test bounds the covolume too: the b-part
        of the prefix is at least log_v^2 / m (Cauchy-Schwarz), so the test
        forces |log_v| <= r sqrt(m (n - m) / n).
        """
        size = partition.sizes[k]
        # at n <= 3 the entries are minors of at most two columns: int64 is exact
        wedges = master[idx] @ _wedge_matrix(cols, n).T
        primitive = np.gcd.reduce(wedges, axis=1) == 1
        idx, wedges = idx[primitive], wedges[primitive]
        log_v = 0.5 * np.log(np.einsum("ij,ij->i", wedges, wedges))
        beta = (log_v - log_v_prev) / size
        b_new = b_partial + size * beta * beta
        future = log_v * log_v / (n - m)
        ok = a_partial + b_new + future <= r_eff * r_eff + 1e-9
        start = m - size
        if size > 1:
            # at n <= 3 a block before the last has at most two columns
            omega = _columns_wedge(cols[:start], n)
            table = _wedge_table(n, start)
            (first,) = cols[start:]
            first_wedge = _wedge(omega, first, table)
        for i in np.nonzero(ok)[0]:
            vec = master_rows[idx[i]]
            a_new = a_partial
            if size > 1:
                _, chamber_sq = _pair_block(first_wedge, _wedge(omega, vec, table))
                a_new = a_partial + chamber_sq
                if a_new + b_new[i] + future[i] > r_eff * r_eff + 1e-9:
                    continue
            yield vec, float(log_v[i]), float(b_new[i]), a_new

    def last_column(cols: list[tuple[int, ...]]) -> None:
        nonlocal prefixes
        prefixes += 1
        (w,) = _wedge_matrix(cols, n).tolist()  # det(cols..., x) = <w, x>
        if math.gcd(*w) != 1:
            return
        x0 = solve_dot_one(w)
        # restriction 4: x0 alone, or x0 + t c_1 for [1, 2]
        if singleton_last:
            accept(cols + [x0])
            return
        c0, c1 = cols
        a = _columns_wedge([c0, c1], n)
        b = _columns_wedge([c0, x0], n)
        a_sq = sum(u * u for u in a)
        t0 = (a_sq - 2 * sum(u * v for u, v in zip(a, b))) // (2 * a_sq)  # round(t*)
        for t, step in ((t0, 1), (t0 - 1, -1)):
            while accept(cols + [tuple(x + t * c for x, c in zip(x0, c1))]):
                t += step

    def recurse(cols: list[tuple[int, ...]], norms: list[float],
                log_v: float, b_partial: float, a_partial: float) -> None:
        j = len(cols)
        if j == n - 1:
            last_column(cols)
            return
        mask = master_norms <= column_budget(j, norms) + 1e-9
        k = partition.block_of[j]
        start = partition.blocks[k][0]
        if start < j:
            # restriction 2: after the block's previous column
            mask[:bisect.bisect_right(master_rows, cols[-1])] = False
        if start > 0:
            # restriction 3; at n <= 3 there is one earlier-block column
            (c,) = cols[:start]
            dots = master @ np.array(c)
            c_sq = sum(x * x for x in c)
            mask &= 2 * np.abs(dots) <= c_sq
            if k == partition.k0 - 1 and partition.sizes[k] == 2:
                # [1, 2]: the last block's Gram matrix has determinant |c|^2
                # and largest eigenvalue at least |c ^ v|^2, so its chamber
                # part is at least 2 t^2 with e^(2t) = max(1, |c ^ v|^2 / |c|)
                wedge_sq = c_sq * master_sq - dots * dots
                t = 0.5 * np.log(np.maximum(1.0, wedge_sq / math.sqrt(c_sq)))
                b_last = log_v * log_v / (n - start)
                mask &= a_partial + b_partial + b_last + 2.0 * t * t <= r_eff * r_eff + 1e-9
        idx = np.nonzero(mask)[0]
        if j in boundary_after:
            _, m = boundary_after[j]
            for vec, lv, bp, ap in boundary_filter(cols, idx, k, m, log_v,
                                                   b_partial, a_partial):
                recurse(cols + [vec], norms + [math.hypot(*vec)], lv, bp, ap)
        else:
            for i in idx:
                vec = master_rows[i]
                recurse(cols + [vec], norms + [math.hypot(*vec)],
                        log_v, b_partial, a_partial)

    recurse([], [], 0.0, 0.0, 0.0)

    return EnumerationReport(
        partition=partition, radius=radius, count=len(seen), method="brute",
        records=records, wall_time=time.monotonic() - start_time,
        params={"box": box, "prefixes": prefixes, "completions": completions},
    )


def _integer_vectors(n: int, box: int, norm_cap: float) -> np.ndarray:
    import numpy as np

    axes = [np.arange(-box, box + 1)] * n
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    grid = grid[np.any(grid != 0, axis=1)]
    grid = grid[np.linalg.norm(grid, axis=1) <= norm_cap + 1e-9]
    order = np.lexsort(grid.T[::-1])
    return grid[order]


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------

def coset_sets_equal(a: EnumerationReport, b: EnumerationReport) -> bool:
    """Mutual inclusion of the two coset sets (exact, not just counts)."""
    return a.count == b.count and (
        {rec.key for rec in a.records} == {rec.key for rec in b.records}
    )

