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
  one, with the columns put in an order and given signs read off G itself,
  so the float height is a function of the coset.  ``decompose.height`` computes
  the same height from a float matrix factorization and is the oracle the
  tests compare against.
* **Update.**  Left multiplication by E_ij(t) adds t times row j to row i.
  It changes only the coordinates whose row set S holds i and not j, each
  by +-t times the coordinate on S - i + j, so a step is a fixed table of
  integer updates per generator.
* **Symmetry.**  Left multiplication by a signed permutation w of
  determinant one (the group W, inside SO_N) moves each coordinate to
  another, up to sign: a fixed table per w.  Every squared norm and Gram
  entry of w g's state is the integer of g's, so the height of w g is
  that of g bit for bit.

Two strategies are implemented and validated against each other:

* ``enumerate_bfs`` walks the Schreier graph of SL_N(Z) acting on the
  cosets by left multiplication with the elementary matrices E_ij(+-1),
  as in Todd-Coxeter coset enumeration, stepping the state and pruning by
  height only.  W permutes those generators, so the walk expands one
  representative per W-orbit and stores the whole orbit from the
  symmetry tables.  By default it expands only the cosets of height <= R
  (and the identity's neighbours), which is complete by the descent lemma:
  proved for N = 2, unproved for N >= 3 and checked on every walk.
* ``enumerate_brute`` lists the cosets as flags (n <= 3): a primitive
  first column v, then, at n = 3, a primitive vector of the plane lattice
  v x Z^3 from a reduced basis, and for a block of size two a second
  vector v_2 + k v_1, with k walked outward from the shortest.  Each level
  is cut by a lower bound on the height, and each coset is derived exactly
  once.

``coset_key`` and ``coset_height`` build the state of a matrix and call the
same key and height functions as the walk.  All arithmetic on matrices and
states is exact (Python ints); heights use floating point with a 1e-9
boundary tolerance.

``CosetRecord`` is a ``typing.NamedTuple``; ``EnumerationReport`` is an
immutable ``__slots__`` record, unhashable since it holds a list and a dict.

numpy is imported only by ``_block_gram``, for the eigenvalues of a block
of size >= 3 (N >= 4).  The walk and the scan at N <= 3, and the walk at
N = 4 without such a block, run without it: importing numpy takes longer
than most walks.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from typing import NamedTuple

from .partitions import Partition, _Record, require_horocycle_partition

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


def _quarter_turns(n: int) -> list[tuple[tuple[int, int], ...]]:
    """Generators of W, the signed permutations of determinant one, as
    (source row, sign) per row of w g: for each i < n - 1 the quarter turn
    whose row i is row i + 1 of g and whose row i + 1 is minus row i.  Their
    images are the adjacent transpositions, and their squares the sign
    changes of rows i and i + 1, so together they generate all of W."""
    gens = []
    for i in range(n - 1):
        rows = [(r, 1) for r in range(n)]
        rows[i], rows[i + 1] = (i + 1, 1), (i, -1)
        gens.append(tuple(rows))
    return gens


def _turn_ops(n: int, degree: int, start: int,
              rows: tuple[tuple[int, int], ...]) -> list[tuple[int, int]]:
    """(source, coefficient) for each coordinate of one column of the given
    degree, in order, under left multiplication by the signed permutation
    ``rows``: the minor of w g on a row set S is the minor of g on the rows
    that S draws from, times their signs and the sign of sorting them."""
    index = {s: idx for idx, s in enumerate(itertools.combinations(range(n), degree))}
    ops = []
    for s in index:
        src = [rows[r][0] for r in s]
        inversions = sum(a > b for a, b in itertools.combinations(src, 2))
        coef = (-1) ** inversions * math.prod(rows[r][1] for r in s)
        ops.append((start + index[tuple(sorted(src))], coef))
    return ops


class _Layout:
    """Where the wedge coordinates of a partition sit in the flat state.

    ``blocks`` holds, per block, its size and the (start, stop) slice of
    each column's coordinates (no slice for a singleton last block).
    ``steps[g]`` holds the updates of generator g of ``_generators(n)``.
    ``turns[w]`` holds, for generator w of ``_quarter_turns(n)``, its row
    map and the (source, coefficient) of every coordinate of w g's state.
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
        self.turns = tuple(
            (rows, tuple(op for start, degree in columns
                         for op in _turn_ops(n, degree, start, rows)))
            for rows in _quarter_turns(n)
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


def _turn(state: tuple[int, ...], coords) -> tuple[int, ...]:
    """The state of w g from that of g, by w's table of signed sources."""
    return tuple([c * state[s] for s, c in coords])


def _turn_rows(g: Matrix, rows) -> Matrix:
    """w g for the signed permutation w given by its row map."""
    return tuple([g[s] if c > 0 else tuple([-x for x in g[s]]) for s, c in rows])


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


def _canonical_gram(gram: list[list[int]]) -> tuple[tuple[int, ...], ...]:
    """A Gram matrix with its columns put in an order and given signs read
    off the matrix alone, so that every reordering and sign change of the
    columns gives the same result.

    The order is one whose |G|, read row by row, is least.  The signs make
    positive every edge of the breadth-first forest of G's nonzero entries,
    grown from the lowest index, which fixes G up to signs that change no
    entry.  Among orders that tie on |G|, the least signed result is taken.
    """
    m = len(gram)

    def signed(p) -> tuple[tuple[int, ...], ...]:
        g = [[gram[i][j] for j in p] for i in p]
        sign = [0] * m
        for root in range(m):
            if not sign[root]:
                sign[root] = 1
                tree = [root]
                for i in tree:   # grows as the search reaches new columns
                    for j in range(m):
                        if g[i][j] and not sign[j]:
                            sign[j] = sign[i] if g[i][j] > 0 else -sign[i]
                            tree.append(j)
        return tuple(tuple(sign[i] * sign[j] * g[i][j] for j in range(m)) for i in range(m))

    absolute = [[abs(x) for x in row] for row in gram]
    orders = [([absolute[i][j] for i in p for j in p], p) for p in itertools.permutations(range(m))]
    least = min(orders)[0]
    return min(signed(p) for key, p in orders if key == least)


def _block_gram(segs) -> tuple[int, float]:
    """Gram determinant and squared chamber part of a block of size m >= 3.

    ``segs`` are the block's coordinates omega ^ v_i.  Their integer Gram
    matrix G has determinant d = |omega ^ v_1 ^ ... ^ v_m|^2 |omega|^(2(m-1)).
    Scaled to determinant one the block has squared singular values
    lambda_i / d^(1/m), lambda the eigenvalues of G, so its chamber part has
    squared norm sum_i (log(lambda_i) / 2 - log(d) / (2m))^2.

    ``eigvalsh`` rounds differently once the columns are reordered or their
    signs changed.  Every representative of the coset and every W-translate
    has the same G up to those, so ``_canonical_gram`` gives each the same
    matrix, and so the same float height.
    """
    import numpy as np

    m = len(segs)
    gram = _canonical_gram([[sum([u * w for u, w in zip(x, y)]) for y in segs] for x in segs])
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
    they lie in the same coset.  No command calls it: it is the public
    twin of ``coset_height`` (which ``selftest`` runs), and the tests key
    single matrices with it.
    """
    layout = _layout(partition)
    return _state_key(_matrix_state(g, layout), layout)


def coset_height(g: Matrix, partition: Partition) -> float:
    """Height of the coset of an integer matrix, from its wedge state."""
    layout = _layout(partition)
    return _state_height(_matrix_state(g, layout), layout)


class CosetRecord(NamedTuple):
    representative: Matrix
    key: tuple[int, ...]
    height: float
    boundary: bool = False


class EnumerationReport(_Record):
    """What a walk or a scan found."""

    __slots__ = _fields = ("partition", "radius", "count", "method", "records",
                           "wall_time", "params", "partial")
    __hash__ = None   # records and params are a list and a dict

    def __init__(self, partition: Partition, radius: float, count: int, method: str,
                 records: list[CosetRecord] | None = None, wall_time: float = 0.0,
                 params: dict | None = None, partial: bool = False):
        self._init(partition, radius, count, method, [] if records is None else records,
                   wall_time, {} if params is None else params, partial)


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
    """All distinct lift cosets of height <= R by breadth-first search over
    the orbits of W, the signed permutations of determinant one.

    The walk starts at the identity coset and moves by left multiplication
    with E_ij(+-1), which is well defined on cosets g Gamma_hor.  A move
    updates the wedge state by the generator's table (only coordinates
    whose row set holds i and not j change, each by +-1 times another
    coordinate), and the key and the height are read off the new state:
    the height from the integer squared norms |omega_k|^2 and the blocks'
    integer Gram matrices.  Height is the only prune: a coset is kept and
    expanded when its height is at most the limit R + margin + HEIGHT_TOL.
    A positive ``margin`` expands further, for cross-checks; it never
    changes a count of a complete walk.

    W lies in SO_N, so left multiplication by w in W keeps the height, and
    w E_ij(t) w^-1 is another generator E_kl(+-t), so w maps the neighbours
    of a coset onto those of its translate.  The walk therefore expands one
    representative per W-orbit.  When it meets a new coset within the
    limit, it stores the coset's whole orbit, built by closure under the
    N - 1 quarter turns of ``_quarter_turns`` (each a fixed signed
    permutation of the state's coordinates): every image key goes into
    ``seen`` with the coset's height, and every image of height <= R
    becomes a record with the representative w g.  The heights are equal
    bit for bit: w g's state is a signed permutation of g's within each
    column, so every squared norm and Gram entry is the same integer, in
    the same column order.  Two representatives of one coset that differ
    by the order or signs of a block's columns get one height too, since
    ``_block_gram`` orders and signs the columns by their Gram entries.  A
    child above the limit is stored alone.

    The identity's orbit is the set of permutation cosets w Gamma_hor, which
    are the cosets of height 0, so all of them are at layer 0, whatever R
    and margin are.

    Completeness at margin 0 rests on the descent lemma: every coset of
    positive height has a neighbour of strictly lower height.  Then a
    coset of height <= R descends to a height-0 coset through cosets of
    height <= R, and the walk climbs the same path back.  For N = 2 the
    lemma is proved: a coset is fixed by its first column v up to sign,
    and its height is sqrt(2) log|v|.  Euclid descent on v (add or
    subtract the smaller entry from the larger) strictly lowers the height
    down to e_1 or e_2.  For N >= 3 the lemma is unproved, and the walk
    checks it on every run: after a representative of height
    h > HEIGHT_TOL is expanded, all its neighbours are in ``seen``, and its
    orbit counts as failures unless the lowest of them is below
    h - HEIGHT_TOL.  The check sees only the orbits the walk expands; a
    failure says that the count may be incomplete at this margin.  It is a
    diagnostic and never changes a count.  Counts are also checked against
    ``enumerate_brute``.

    ``params`` reports ``expand_limit``; ``states`` (keys stored, whole
    orbits within the limit and single cosets above it); ``orbits`` (the
    orbits stored whole); ``depth_reached`` (orbit layers expanded, the
    identity's orbit being layer 0, so at [1, 1, 1], R = 1.5, margin 0.6
    it is 6, one less than a walk from the identity alone would expand);
    ``new_per_depth`` (per layer, the
    cosets of height <= R first found there); ``last_new_depth`` (the
    deepest layer that found one); ``boundary`` (records within HEIGHT_TOL
    of R); ``descent_checked`` (cosets of positive height in expanded
    orbits) and ``descent_failures`` (those of them with no strictly lower
    neighbour).  The state budget is checked after every stored key;
    exceeding it raises ``ResourceLimitError`` carrying the partial report
    (with exactly ``max_states + 1`` states), the only case marked
    ``partial``.  A negative or non-finite radius or margin, or a state
    budget below one, raises ``ValueError``.
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
    expand_limit = radius + margin + HEIGHT_TOL
    seen: dict[tuple[int, ...], float] = {}
    records: list[CosetRecord] = []
    depth = 0
    new_per_depth = [0]
    orbits = 0
    boundary = 0
    checked = 0
    failures = 0

    def report(partial: bool) -> EnumerationReport:
        last_new_depth = max((d for d, new in enumerate(new_per_depth) if new), default=0)
        return EnumerationReport(
            partition=partition, radius=radius, count=len(records), method="bfs",
            records=records, wall_time=time.monotonic() - start_time,
            params={"margin": margin, "max_states": max_states,
                    "expand_limit": expand_limit, "states": len(seen), "orbits": orbits,
                    "depth_reached": depth, "new_per_depth": list(new_per_depth),
                    "last_new_depth": last_new_depth, "boundary": boundary,
                    "descent_checked": checked, "descent_failures": failures},
            partial=partial,
        )

    def store(key: tuple[int, ...], h: float) -> None:
        seen[key] = h
        if len(seen) > max_states:
            raise ResourceLimitError(f"state budget {max_states} exceeded at depth {depth}",
                                     report(partial=True))

    def store_orbit(g: Matrix, state: tuple[int, ...], key: tuple[int, ...],
                    h: float) -> int:
        """Store the W-orbit of a new coset within the limit; its size."""
        nonlocal orbits, boundary
        orbits += 1
        inside = h <= radius + HEIGHT_TOL
        on_boundary = abs(h - radius) <= HEIGHT_TOL
        members = [(g, state, key)]
        orbit = {key}
        store(key, h)
        for g, state, key in members:  # grows as the closure finds images
            if inside:
                records.append(CosetRecord(representative=g, key=key, height=h,
                                           boundary=on_boundary))
                new_per_depth[depth] += 1
                boundary += on_boundary
            for rows, coords in layout.turns:
                image = _turn(state, coords)
                image_key = _state_key(image, layout)
                if image_key not in orbit:
                    orbit.add(image_key)
                    store(image_key, h)
                    members.append((_turn_rows(g, rows) if inside else None,
                                    image, image_key))
        return len(members)

    root_key = _state_key(root, layout)
    root_height = _state_height(root, layout)
    frontier = [(identity, root, root_height,
                 store_orbit(identity, root, root_key, root_height))]
    while frontier:
        depth += 1
        new_per_depth.append(0)
        next_frontier = []
        for g, state, height, size in frontier:
            lowest = math.inf
            for gen, ops in moves:
                child = _step(state, ops)
                key = _state_key(child, layout)
                h = seen.get(key)
                if h is None:
                    h = _state_height(child, layout)
                    if h <= expand_limit:
                        child_g = _left_apply(g, gen)
                        next_frontier.append(
                            (child_g, child, h, store_orbit(child_g, child, key, h)))
                    else:
                        store(key, h)
                if h < lowest:
                    lowest = h
            if height > HEIGHT_TOL:
                checked += size
                if lowest >= height - HEIGHT_TOL:
                    failures += size
        frontier = next_frontier
    return report(partial=False)


# ---------------------------------------------------------------------------
# flag scan
# ---------------------------------------------------------------------------

def require_scannable(partition: Partition, radius: float, max_states: int) -> float:
    """Raise unless ``enumerate_brute`` can scan the partition (n <= 3) to
    ``radius`` within ``max_states``; return the bound x_max on log|v| of
    the first column.

    These are the scan's up-front checks, cheap enough to run before a walk
    that could take minutes: NotImplementedError past n = 3; ValueError for
    a negative or non-finite radius, a state budget below one, or a bound
    e^x_max past the double range; ``ResourceLimitError`` with an empty
    partial report when the box of first columns exceeds the budget.
    """
    require_horocycle_partition(partition)
    n = partition.n
    if n > 3:
        raise NotImplementedError(
            "brute-force enumeration targets n <= 3 (cost grows like e^(P_N R))"
        )
    if not (math.isfinite(radius) and radius >= 0):
        raise ValueError(f"radius must be finite and nonnegative, got {radius}")
    if max_states < 1:
        raise ValueError(f"max_states must be at least 1, got {max_states}")
    x_max = (radius + 1e-6) * math.sqrt((n - 1) / n)
    try:
        box = math.floor(math.exp(x_max))
    except OverflowError:
        raise ValueError(f"radius {radius!r} puts the scan's bound e^{x_max:.6g} "
                         "past the double range") from None
    if n * math.log(2 * box + 1) > math.log(max_states):
        empty = EnumerationReport(
            partition=partition, radius=radius, count=0, method="brute",
            params={"levels": [0] * (n - 1), "completions": 0}, partial=True)
        raise ResourceLimitError(f"the scan's box of (2 * {box:.4g} + 1)^{n} vectors "
                                 f"exceeds the state budget {max_states}", empty)
    return x_max


def _dot(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    return sum([x * y for x, y in zip(a, b)])


def _cross(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _axpy(k: int, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """b + k a."""
    return tuple([y + k * x for x, y in zip(a, b)])


def _plane_points(v: tuple[int, ...], limit_sq: float):
    """Primitive u of L(v) = v x Z^3 up to sign, v primitive, each with a w
    of v x w = u, that may have |u|^2 <= limit_sq.

    With g = gcd(v_0, v_1) = s v_0 + t v_1, k_1 = (v_1, -v_0, 0) / g and
    k_2 = (s v_2, t v_2, -g) (e_1 and e_2 when g = 0) are a basis of
    v^perp in Z^3, which is L(v), of covolume |k_1 x k_2| = |v|.  For x with
    <v, x> = 1, v x (k_2 x x) = k_2 and v x (x x k_1) = -k_1; Lagrange-Gauss
    reduction of (k_2, -k_1) carries these preimages along.  Then
    u = alpha e_1 + beta e_2 has |u|^2 >= beta^2 |v|^2 / |e_1|^2.
    """
    g, s, t = _ext_gcd(v[0], v[1])
    _, s2, t2 = _ext_gcd(g, v[2])
    x = (s2 * s, s2 * t, t2)  # <v, x> = s2 g + t2 v_2 = 1
    k1, k2 = ((1, 0, 0), (0, 1, 0)) if not g else (
        (v[1] // g, -v[0] // g, 0), (s * v[2], t * v[2], -g))
    # each basis vector e is followed by its preimage p
    a, b = k2 + _cross(k2, x), tuple([-c for c in k1]) + _cross(x, k1)
    while True:
        if _dot(b[:3], b[:3]) < _dot(a[:3], a[:3]):
            a, b = b, a
        n1 = _dot(a[:3], a[:3])
        mu = (2 * _dot(a[:3], b[:3]) + n1) // (2 * n1)  # round(<e_1, e_2> / |e_1|^2)
        if not mu:
            break
        b = _axpy(-mu, a, b)
    det, dot12 = _dot(v, v), _dot(a[:3], b[:3])
    yield a[:3], a[3:]
    for beta in range(1, math.floor(math.sqrt(limit_sq * n1 / det)) + 1):
        # beta^2 det <= limit_sq n1 up to rounding, by the range of beta
        half = math.sqrt(max(0.0, limit_sq * n1 - beta * beta * det)) / n1
        centre = -dot12 * beta / n1
        for alpha in range(math.ceil(centre - half), math.floor(centre + half) + 1):
            if math.gcd(alpha, beta) == 1:
                point = tuple([alpha * p + beta * q for p, q in zip(a, b)])
                yield point[:3], point[3:]


def enumerate_brute(partition: Partition, radius: float,
                    max_states: int = 2_000_000) -> EnumerationReport:
    """All distinct lift cosets of height <= R by a flag scan, each derived once.

    At n <= 3 a coset is a flag of primitive vectors, listed level by level
    and completed to a matrix only to read its key and height with the
    walk's functions.  Each level is cut by a lower bound on the height at
    R + 1e-6, so that rounding keeps every coset of height <= R inside.

    * The first column v, positive in its first nonzero entry, has
      x = log|v| <= R sqrt((n - 1) / n).  At n = 2 the coset is v up to
      sign, and the last column is ``solve_dot_one((-v_1, v_0))``.
    * At n = 3, u runs over the primitive vectors of L(v) = v x Z^3 up to
      sign, each with a w of v x w = u (``_plane_points``); y = log|u|.
      [1, 1, 1] is (+-v, +-u), of height^2 1.5 x^2 + 2 (y - x/2)^2, with the
      columns v, w, ``solve_dot_one(u)``.  [2, 1] is {+-v, +-v_2}, with
      v_2 = w + k v and the same last column.  [1, 2] is v with the basis
      {+-u, +-b} of L(v): the columns v, w, x_0 + k w, x_0 =
      ``solve_dot_one(u)``, give b = v x x_0 + k u.  A block's larger
      eigenvalue is at least its first vector's squared norm, so height^2 >=
      1.5 y^2 + 2 max(0, x - y/2)^2 for [2, 1], and the same with x and y
      swapped for [1, 2].
    * At a fixed Gram determinant a pair's height rises with the second
      vector's squared norm, which is convex in k, so k is walked outward
      from the minimum, both ways, until the height passes R.  A pair is
      kept only when its first vector is the shorter, or on a tie when its
      ``_positive`` form sorts first.

    ``params`` reports ``levels`` (per level, the vectors inside its bound)
    and ``completions`` (matrices that reached the height test).  A box of
    more than ``max_states`` outer vectors, or more than ``max_states``
    cosets, raises ``ResourceLimitError`` with the partial report; a matrix
    of determinant other than one, or a coset derived twice, ``RuntimeError``
    (a fault of the scan); a negative, non-finite or overflowing radius, or
    a state budget below one, ``ValueError``.  The checks made before the
    scan starts are ``require_scannable``.
    """
    x_max = require_scannable(partition, radius, max_states)
    start_time = time.monotonic()
    n = partition.n
    sizes = partition.sizes
    layout = _layout(partition)
    r_eff = radius + 1e-6
    bound = math.exp(x_max)
    seen: set[tuple[int, ...]] = set()
    records: list[CosetRecord] = []
    levels = [0] * (n - 1)
    completions = 0

    def report(partial: bool) -> EnumerationReport:
        return EnumerationReport(
            partition=partition, radius=radius, count=len(seen), method="brute",
            records=records, wall_time=time.monotonic() - start_time,
            params={"levels": levels, "completions": completions},
            partial=partial,
        )

    box = math.floor(bound)

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
        if key in seen:
            raise RuntimeError(f"scan derived the coset of {mat} twice")
        seen.add(key)
        records.append(CosetRecord(
            representative=mat, key=key, height=h,
            boundary=abs(h - radius) <= HEIGHT_TOL,
        ))
        if len(seen) > max_states:
            raise ResourceLimitError(f"state budget {max_states} exceeded after "
                                     f"{levels[0]} outer vectors", report(partial=True))
        return True

    def walk(first, base, columns) -> None:
        """Accept ``columns(k)`` outward from the k nearest the minimum of
        |base + k first|^2, for the pairs whose first vector is the shorter."""
        norm = _dot(first, first)
        k0 = -((2 * _dot(base, first) + norm) // (2 * norm))
        rank = _positive(first)
        for k, step in ((k0, 1), (k0 - 1, -1)):
            while True:
                second = _axpy(k, first, base)
                norm2 = _dot(second, second)
                if norm2 > norm or (norm2 == norm and rank < _positive(second)):
                    if not accept(columns(k)):
                        break
                k += step

    r_sq = r_eff * r_eff
    # a lower bound on height^2 from x = log|v| and y = log|u|
    low_sq = {(1, 1, 1): lambda x, y: 1.5 * x * x + 2 * (y - x / 2) ** 2,
              (2, 1): lambda x, y: 1.5 * y * y + 2 * max(0.0, x - y / 2) ** 2,
              (1, 2): lambda x, y: 1.5 * x * x + 2 * max(0.0, y - x / 2) ** 2}.get(sizes)
    origin = (0,) * n
    for v in itertools.product(range(-box, box + 1), repeat=n):
        # primitive, |v| <= bound, and above the origin: first nonzero entry positive
        if not (v > origin and math.gcd(*v) == 1 and _dot(v, v) <= bound * bound):
            continue
        levels[0] += 1
        if n == 2:
            accept([v, solve_dot_one((-v[1], v[0]))])
            continue
        x = 0.5 * math.log(_dot(v, v))
        d = math.sqrt(max(0.0, r_sq / 2 - 0.75 * x * x))
        # the largest y that the partition's bound allows at this x
        y_max = x_max if sizes == (2, 1) and 2 * x <= x_max else x / 2 + d
        for u, w in _plane_points(v, math.exp(2 * y_max)):
            if low_sq(x, 0.5 * math.log(_dot(u, u))) > r_sq:
                continue
            levels[1] += 1
            last = solve_dot_one(u)
            if sizes == (1, 1, 1):
                accept([v, w, last])
            elif sizes == (2, 1):
                walk(v, w, lambda k: [v, _axpy(k, v, w), last])
            else:
                walk(u, _cross(v, last), lambda k: [v, w, _axpy(k, w, last)])

    return report(partial=False)


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------

def coset_sets_equal(a: EnumerationReport, b: EnumerationReport) -> bool:
    """Mutual inclusion of the two coset sets (exact, not just counts)."""
    return a.count == b.count and (
        {rec.key for rec in a.records} == {rec.key for rec in b.records}
    )

