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
* **Moves.**  By Cauchy-Binet, det (a g)[S, C] is the sum over the row
  sets T of det a[S, T] det g[T, C], so left multiplication by a acts on
  each column's coordinates by a's compound matrix (``_compound``): a
  fixed table per matrix.  E_ij(t) changes only the coordinates whose row
  set S holds i and not j, each by +-t times the coordinate on S - i + j.
  A signed permutation w of determinant one (the group W, inside SO_N)
  has one nonzero entry, +-1, per row of its compound, so it moves each
  coordinate to another, up to sign.  Every squared norm and Gram entry of
  w g's state is then the integer of g's, so the height of w g is that of
  g bit for bit.

Two strategies are implemented and validated against each other:

* ``enumerate_bfs`` walks the Schreier graph of SL_N(Z) acting on the
  cosets by left multiplication with the elementary matrices E_ij(+-1),
  as in Todd-Coxeter coset enumeration, stepping the state and pruning by
  height only.  W permutes those generators, so the walk expands one
  representative per W-orbit and stores the whole orbit (``_orbit``).
  By default it expands only the cosets of height <= R
  (and the identity's neighbours), which is complete by the descent lemma:
  proved for N = 2, unproved for N >= 3 and checked on every walk.
* ``enumerate_brute`` lists the cosets as flags (n <= 3): a primitive
  first column v from a fundamental domain of the first columns modulo W
  and sign, then, at n = 3, a primitive vector of the plane lattice
  v x Z^3 from a reduced basis, and at [2, 1] a second vector w + k v,
  over the range of k solved from the height.  [1, 2] is scanned as
  [2, 1], each completion mapped to the reversed partition's coset by
  ``_reversal``.  Each level is cut by a lower bound on the height.  A new
  coset's whole W-orbit is stored with it (``_orbit``, as in the walk).
  Each orbit comes from exactly one first column, so the scan keeps only
  the current column's keys.

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

import bisect
import functools
import itertools
import math
import time
from typing import NamedTuple

from .partitions import Partition, _Record, _dot, require_horocycle_partition

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
# the scan takes its bounds at R + _SCAN_SLACK, so that rounding keeps every
# coset of height <= R inside them
_SCAN_SLACK = 1e-6

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


def _left_apply(g: Matrix, gen: tuple[int, int, int]) -> Matrix:
    """Left multiplication by E_ij(t): row i += t * row j."""
    i, j, t = gen
    rows = list(g)
    rows[i] = tuple(a + t * b for a, b in zip(g[i], g[j]))
    return tuple(rows)


@functools.cache
def _compound(a: Matrix, degree: int) -> dict[tuple[tuple[int, ...], tuple[int, ...]], int]:
    """The nonzero entries det a[S, T] of a's compound matrix of the given
    degree, keyed by the row set S and the column set T (sorted tuples).

    Laplace expansion along the last row r of S makes det a[S, T] the sum,
    over the columns c of T that row r reaches, of
    (-1)^(degree - 1 + place of c in T) a[r, c] det a[S - r, T - c].  So
    each entry comes from the nonzero entries of one degree less, and only
    column sets inside the columns the rows of S reach are tried.
    """
    if not degree:
        return {((), ()): 1}
    reach = [[(c, x) for c, x in enumerate(row) if x] for row in a]
    sums = {}
    for (s, t), minor in _compound(a, degree - 1).items():
        for r in range(s[-1] + 1 if s else 0, len(a)):
            for c, x in reach[r]:
                if c not in t:
                    place = bisect.bisect(t, c)
                    key = (s + (r,), t[:place] + (c,) + t[place:])
                    sums[key] = sums.get(key, 0) + (-1) ** (degree - 1 + place) * x * minor
    return {key: det for key, det in sums.items() if det}


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


@functools.cache
def _w_table(n: int) -> tuple[tuple[int, ...], ...]:
    """The multiplication table of W modulo -I (at even n, -I lies in
    Gamma_hor and keeps every coset) by the quarter turns: the elements are
    numbered in the order the turns reach them from the identity, 0, and
    ``table[e][t]`` is the number of turn t times element e."""
    turns = _quarter_turns(n)
    elements = [tuple((r, 1) for r in range(n))]
    number = {elements[0]: 0}
    table = []
    for rows in elements:  # grows as the turns reach new elements
        row = []
        for turn in turns:
            image = tuple([(rows[s][0], c * rows[s][1]) for s, c in turn])
            if not n % 2 and image[0][1] < 0:  # -image, the same element
                image = tuple([(s, -c) for s, c in image])
            if image not in number:
                number[image] = len(elements)
                elements.append(image)
            row.append(number[image])
        table.append(tuple(row))
    return tuple(table)


class _Layout:
    """Where the wedge coordinates of a partition sit in the flat state, and
    how a move changes them.

    ``blocks`` holds, per block, its size and the (start, stop) slice of
    each column's coordinates (no slice for a singleton last block).
    ``minors`` holds, per coordinate in state order, the (row set S, column
    set C) of the minor det g[S, C] it is: for column j of a block starting
    at column b, C = (0, ..., b - 1, j), S in lexicographic order.  The
    move tables are entries det a[S, T] of the compound matrix of the
    moving matrix a, offset to each column's slice (see ``_compound``).
    ``steps[g]``, for generator g of ``_generators(n)``, holds its entries
    off the diagonal as (target S, source T, coefficient) updates; the
    compound of E_ij(t) has a unit diagonal.  ``turns[w]``, for generator w
    of ``_quarter_turns(n)``, holds its row map and, for every coordinate
    of w g's state in order, the (source T, coefficient) of the one nonzero
    entry in its row of the compound.

    ``succ`` is W's multiplication table by the quarter turns, ``_w_table(n)``,
    one table shared by every partition of n.
    """

    def __init__(self, partition: Partition):
        n = partition.n
        self.partition = partition
        blocks = []
        minors = []
        columns = []  # (start, row set indices, degree) of every stored column
        for k, blk in enumerate(partition.blocks):
            if k == partition.k0 - 1 and len(blk) == 1:
                blocks.append((1, ()))
                continue
            degree = blk[0] + 1
            row_sets = list(itertools.combinations(range(n), degree))
            index = {s: i for i, s in enumerate(row_sets)}
            slices = []
            for j in blk:
                start = len(minors)
                slices.append((start, start + len(row_sets)))
                columns.append((start, index, degree))
                minors.extend([(s, (*range(blk[0]), j)) for s in row_sets])
            blocks.append((len(blk), tuple(slices)))
        self.blocks = tuple(blocks)
        self.minors = tuple(minors)
        identity = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))

        def entries(a: Matrix) -> list[tuple[int, int, int]]:
            """(S, T, det a[S, T]) for the nonzero entries of a's compound,
            as state indices column by column, S in lexicographic order."""
            return [(start + index[s], start + index[t], det)
                    for start, index, degree in columns
                    for (s, t), det in sorted(_compound(a, degree).items())]

        self.steps = tuple(
            tuple(op for op in entries(_left_apply(identity, gen)) if op[0] != op[1])
            for gen in _generators(n)
        )
        self.turns = tuple(
            (rows, tuple((t, det) for _, t, det in entries(_turn_rows(identity, rows))))
            for rows in _quarter_turns(n)
        )
        self.succ = _w_table(n)


@functools.cache
def _layout(partition: Partition) -> _Layout:
    return _Layout(partition)


def _matrix_state(g: Matrix, layout: _Layout) -> tuple[int, ...]:
    """The wedge state of an integer matrix: its minors det g[S, C], (S, C)
    in ``layout.minors``."""
    return tuple([int_det([[g[r][c] for c in cols] for r in rows])
                  for rows, cols in layout.minors])


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


def _orbit(g: Matrix | None, state: tuple[int, ...], key: tuple[int, ...],
           layout: _Layout) -> list[tuple[Matrix | None, tuple[int, ...]]]:
    """The distinct cosets w g Gamma_hor, w in W, as (w g, key) pairs, g's
    first; w g is None when g is.

    The closure runs over the cosets by the quarter turns, each coset found
    with the element w of W modulo -I that first reached it.  A turn that
    leads to an element already reached, by ``layout.succ``, leads to a
    known coset and costs no ``_turn`` and no ``_state_key``.  So each
    element is applied at most once, and each coset turned at most n - 1
    times."""
    reached = {0}
    found = {key}
    members = [(g, state, key, 0)]
    for wg, image, _, e in members:  # grows as the closure finds cosets
        for (rows, coords), f in zip(layout.turns, layout.succ[e]):
            if f not in reached:
                reached.add(f)
                turned = _turn(image, coords)
                turned_key = _state_key(turned, layout)
                if turned_key not in found:
                    found.add(turned_key)
                    members.append((None if wg is None else _turn_rows(wg, rows),
                                    turned, turned_key, f))
    return [(wg, member) for wg, _, member, _ in members]


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

def _require_search(partition: Partition, radius: float, max_states: int) -> None:
    """The checks the walk and the scan share: a horocycle partition, a
    finite nonnegative radius and a state budget of at least one."""
    require_horocycle_partition(partition)
    if not (math.isfinite(radius) and radius >= 0):
        raise ValueError(f"radius must be finite and nonnegative, got {radius}")
    if max_states < 1:
        raise ValueError(f"max_states must be at least 1, got {max_states}")


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
    limit, it stores the coset's whole orbit from ``_orbit``, which applies
    each element of W modulo -I at most once, as a signed permutation of
    the state's coordinates: every image key goes into ``seen`` with the
    coset's height, and every image of height <= R becomes a record with
    the representative w g.  The heights are equal bit for bit: w g's
    state is a signed permutation of g's within each column, so every
    squared norm and Gram entry is the same integer, in the same column
    order.  Two representatives of one coset that differ
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
    _require_search(partition, radius, max_states)
    if not (math.isfinite(margin) and margin >= 0):
        raise ValueError(f"margin must be finite and nonnegative, got {margin}")
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
                    "last_new_depth": last_new_depth,
                    "boundary": sum(rec.boundary for rec in records),
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
        nonlocal orbits
        orbits += 1
        inside = h <= radius + HEIGHT_TOL
        on_boundary = abs(h - radius) <= HEIGHT_TOL
        # no member is in seen yet: an earlier orbit would hold the coset
        # itself, and a key stored alone is above the limit, which h
        # (heights are W-invariant) is not
        members = _orbit(g if inside else None, state, key, layout)
        for g, key in members:
            store(key, h)
            if inside:
                records.append(CosetRecord(representative=g, key=key, height=h,
                                           boundary=on_boundary))
                new_per_depth[depth] += 1
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
    partial report when the scan's first columns, the domain D of
    ``_first_columns`` in the box, outnumber the budget.

    The budget bounds the scan's memory only through its cosets: each
    stored coset (its record, matrix and key) costs about 490 bytes, the
    slope of the peak RSS of ``count --n 3 --blocks 2,1 --radius 5.5
    --method brute`` between budgets of 500,000 and 1,000,000 cosets (246
    and 477 MB).  So the default budget of 2,000,000 lets a scan reach
    about 1 GB.
    """
    _require_search(partition, radius, max_states)
    n = partition.n
    if n > 3:
        raise NotImplementedError(
            "brute-force enumeration targets n <= 3 (cost grows like e^(P_N R))"
        )
    x_max = (radius + _SCAN_SLACK) * math.sqrt((n - 1) / n)
    try:
        box = math.floor(math.exp(x_max))
    except OverflowError:
        raise ValueError(f"radius {radius!r} puts the scan's bound e^{x_max:.6g} "
                         "past the double range") from None
    if _first_column_count(n, box) > max_states:
        empty = EnumerationReport(
            partition=partition, radius=radius, count=0, method="brute",
            params={"levels": [0] * (n - 1), "completions": 0, "orbits": 0},
            partial=True)
        raise ResourceLimitError(f"the scan's first columns in [-{box:.4g}, {box:.4g}]^{n} "
                                 f"exceed the state budget {max_states}", empty)
    return x_max


def _cross(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _axpy(k: int, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """b + k a."""
    return tuple([y + k * x for x, y in zip(a, b)])


def _plane_points(v: tuple[int, ...], limit_sq: float):
    """Primitive u of L(v) = v x Z^3 up to sign, v primitive with v_0 != 0
    (every v in D), each with a w of v x w = u, that may have
    |u|^2 <= limit_sq.

    With g = gcd(v_0, v_1) = s v_0 + t v_1, k_1 = (v_1, -v_0, 0) / g and
    k_2 = (s v_2, t v_2, -g) are a basis of v^perp in Z^3, which is L(v),
    of covolume |k_1 x k_2| = |v|.  For u in it and x with <v, x> = 1,
    v x (u x x) = <v, x> u - <v, u> x = u, so w = u x x.  Lagrange-Gauss
    reduction of (k_2, -k_1) gives (e_1, e_2); then u = alpha e_1 + beta e_2
    has |u|^2 >= beta^2 |v|^2 / |e_1|^2.
    """
    g, s, t = _ext_gcd(v[0], v[1])
    _, s2, t2 = _ext_gcd(g, v[2])
    x = (s2 * s, s2 * t, t2)  # <v, x> = s2 g + t2 v_2 = 1
    a, b = (s * v[2], t * v[2], -g), (-v[1] // g, v[0] // g, 0)  # k_2, -k_1
    while True:
        if _dot(b, b) < _dot(a, a):
            a, b = b, a
        n1 = _dot(a, a)
        mu = (2 * _dot(a, b) + n1) // (2 * n1)  # round(<e_1, e_2> / |e_1|^2)
        if not mu:
            break
        b = _axpy(-mu, a, b)
    det, dot12 = _dot(v, v), _dot(a, b)
    yield a, _cross(a, x)
    for beta in range(1, math.floor(math.sqrt(limit_sq * n1 / det)) + 1):
        # beta^2 det <= limit_sq n1 up to rounding, by the range of beta
        half = math.sqrt(max(0.0, limit_sq * n1 - beta * beta * det)) / n1
        centre = -dot12 * beta / n1
        for alpha in range(math.ceil(centre - half), math.floor(centre + half) + 1):
            if math.gcd(alpha, beta) == 1:
                point = tuple([alpha * p + beta * q for p, q in zip(a, b)])
                yield point, _cross(point, x)


def _first_columns(n: int, box: int):
    """The domain D of the scan's first columns in the box [-box, box]^n:
    |v_0| >= |v_1| >= ... >= |v_(n-1)| with every entry >= 0, except that at
    even n the last entry may also be negative when the entries are
    positive and pairwise distinct.

    D is a fundamental domain for the first columns modulo W and sign.  It
    meets every orbit: a signed permutation sorts |v| and makes its entries
    nonnegative, and its determinant is made one by -I at odd n (-v is the
    same first column up to sign) and by the sign of the last entry at even
    n.  It meets each orbit once: at even n a tie or a zero entry puts the
    twin with its last entry negated into the orbit of v (swap the tied
    entries, or negate the zero, and negate the last).  For distinct
    positive entries only the identity permutation keeps |v| sorted, so an
    element of W taking v to its twin, or to minus it, would be diagonal
    with one entry -1, or n - 1 of them: an odd number at even n, against
    determinant one."""
    for desc in itertools.combinations_with_replacement(range(box, -1, -1), n):
        yield desc
        if n % 2 == 0 and desc[-1] and len(set(desc)) == n:
            yield desc[:-1] + (-desc[-1],)


def _first_column_count(n: int, box: int) -> int:
    """How many columns ``_first_columns(n, box)`` yields: the C(box + n, n)
    multisets of n entries from 0, ..., box, and at even n once more the
    C(box, n) sets of n distinct entries from 1, ..., box."""
    count = math.comb(box + n, n)
    if n % 2 == 0:
        count += math.comb(box, n)
    return count


def _first_positive(g: Matrix) -> Matrix:
    """g, with its first and last columns negated (an element of Gamma_hor,
    so the same coset) when its first column starts negative."""
    if next(row[0] for row in g if row[0]) > 0:
        return g
    return tuple([(-row[0], *row[1:-1], -row[-1]) for row in g])


def _reversal(g: Matrix) -> Matrix:
    """J g^-T J^-1 for g in SL_3(Z), J the antidiagonal: the map that takes
    the cosets of a partition to those of its reversal, height for height.

    g^-T has the columns c_1 x c_2, c_2 x c_0, c_0 x c_1 of g's columns c_i,
    since det g = 1, and conjugation by J reverses the order of the rows and
    of the columns (by J and by -J alike, so J needs no sign fix)."""
    c0, c1, c2 = zip(*g)
    cols = (_cross(c0, c1), _cross(c2, c0), _cross(c1, c2))
    return tuple([tuple([col[2 - i] for col in cols]) for i in range(3)])


def enumerate_brute(partition: Partition, radius: float,
                    max_states: int = 2_000_000) -> EnumerationReport:
    """All distinct lift cosets of height <= R by a flag scan over one first
    column per W-orbit of first columns.

    At n <= 3 a coset is a flag of primitive vectors, listed level by level
    and completed to a matrix only to read its key and height with the
    walk's functions.  Each level is cut by a bound on the height at
    r = R + ``_SCAN_SLACK``, so that rounding keeps every coset of height
    <= R inside.

    * The first column v lies in the fundamental domain D of
      ``_first_columns`` (|v_0| >= ... >= |v_(n-1)|, signs fixed up to the
      last at even n) and has x = log|v| <= R sqrt((n - 1) / n).  At n = 2
      the coset is v up to sign, and the last column is
      ``solve_dot_one((-v_1, v_0))``.
    * At n = 3, u runs over the primitive vectors of L(v) = v x Z^3 up to
      sign, each with a w of v x w = u (``_plane_points``); y = log|u|.
      [1, 1, 1] is (+-v, +-u), of height^2 1.5 x^2 + 2 (y - x/2)^2, with the
      columns v, w, ``solve_dot_one(u)``.  [2, 1] is {+-v, +-v_2}, with
      v_2 = w + k v and the same last column.  Its block's larger eigenvalue
      is at least |v|^2, so height^2 >= 1.5 y^2 + 2 max(0, x - y/2)^2.
    * [2, 1]'s u = v x v_2 is fixed for the plane point, and height^2 =
      1.5 y^2 + 2 t^2 with 2 cosh(2 t) = (|v|^2 + |v_2|^2) / |u|.  So the
      height is at most r exactly when |w + k v|^2 <= q_max =
      2 |u| cosh(2 t_max) - |v|^2, t_max = sqrt((r^2 - 1.5 y^2) / 2), that
      is for k in [c - h, c + h], c = -<w, v> / |v|^2 and
      h = sqrt(|v|^2 q_max - |u|^2) / |v|^2.  Each completion's exact height
      is still tested, so rounding at the ends costs a completion, never a
      coset.  A pair is kept only when |v_2| >= |v|.  A tied block,
      |v_2| = |v|, is met from two columns of D, v and the descending sort
      of |v_2|, and is completed only from the larger, v >= sort|v_2|.
      The rule compares the two columns' representatives in D, which W
      does not change, so it commutes with W; a rule that picks one vector
      of the block, such as the first ``_positive`` form, does not, and
      would lose {+-e_1, +-e_2}, whose pick e_2 is not in D.
    * [1, 2] is scanned as [2, 1]: each completed matrix is mapped once by
      ``_reversal`` before it is keyed, and its key, height and W-orbit are
      read in [1, 2]'s layout.  The map is a bijection from [2, 1]'s cosets
      to [1, 2]'s that keeps the height, and takes W-orbits to W-orbits
      (J w J^-1 is in W), so each orbit still comes from one first column;
      a coset derived twice is one derived twice from [2, 1]'s first
      column.  ``params`` are [2, 1]'s.
    * W keeps the height, so a new coset within R is stored with its whole
      W-orbit (``_orbit``), every member with the coset's height.  A
      member's representative w g whose first column starts negative gets
      its first and last columns negated, an element of Gamma_hor.  With D
      a fundamental domain and the one tie rule, each orbit comes from
      exactly one first column, and the scan keeps only that column's
      keys: a completion whose key the column already stored, as a member
      of an orbit it derived (v's stabilizer in W maps its completions onto
      each other when v has tied or zero entries), is skipped, and no
      overlap is skipped across columns.

    ``params`` reports ``levels`` (the first columns in D inside the bound,
    then at n = 3 their plane points inside it), ``completions`` (the
    matrices completed; each is keyed, and a new key's height tested) and
    ``orbits`` (the orbits stored).  More than ``max_states`` first
    columns in D's box, or more than ``max_states`` cosets, raises
    ``ResourceLimitError`` with the partial report; a matrix of determinant
    other than one, or a coset derived twice from one first column,
    ``RuntimeError`` (a fault of the scan); a negative, non-finite or
    overflowing radius, or a state budget below one, ``ValueError``.  The
    checks made before the scan starts are ``require_scannable``.
    """
    x_max = require_scannable(partition, radius, max_states)
    start_time = time.monotonic()
    n = partition.n
    pair = n == 3 and partition.sizes != (1, 1, 1)
    flip = partition.sizes == (1, 2)
    layout = _layout(partition)
    bound = math.exp(x_max)
    records: list[CosetRecord] = []
    levels = [0] * (n - 1)
    completions = 0
    orbits = 0

    def report(partial: bool) -> EnumerationReport:
        return EnumerationReport(
            partition=partition, radius=radius, count=len(records), method="brute",
            records=records, wall_time=time.monotonic() - start_time,
            params={"levels": levels, "completions": completions, "orbits": orbits},
            partial=partial,
        )

    box = math.floor(bound)

    def accept(cols: list[tuple[int, ...]]) -> None:
        """Record the W-orbit of the complete columns' coset, unless known or
        above R."""
        nonlocal completions, orbits
        completions += 1
        mat = tuple(zip(*cols))
        if flip:
            mat = _reversal(mat)
        if int_det(mat) != 1:
            raise RuntimeError(f"scan derived {mat}, of determinant {int_det(mat)}")
        state = _matrix_state(mat, layout)
        key = _state_key(state, layout)
        if key in seen:  # within R
            # v's stabilizer in W maps the column's completions onto each
            # other, but the column derives each coset once
            if seen[key]:
                raise RuntimeError(f"scan derived the coset of {mat} twice")
            return
        h = _state_height(state, layout)
        if h > radius + HEIGHT_TOL:
            return
        orbits += 1
        on_boundary = abs(h - radius) <= HEIGHT_TOL
        for g, member in _orbit(mat, state, key, layout):
            seen[member] = False
            records.append(CosetRecord(
                representative=_first_positive(g), key=member, height=h,
                boundary=on_boundary,
            ))
            if len(records) > max_states:
                raise ResourceLimitError(f"state budget {max_states} exceeded after "
                                         f"{levels[0]} outer vectors", report(partial=True))
        seen[key] = True

    r_sq = (radius + _SCAN_SLACK) ** 2
    for v in _first_columns(n, box):
        norm = _dot(v, v)
        if not (math.gcd(*v) == 1 and norm <= bound * bound):
            continue
        levels[0] += 1
        # this column's keys: True for a coset it derived, False for the rest
        # of that coset's orbit; no other column derives any of them
        seen: dict[tuple[int, ...], bool] = {}
        if n == 2:
            accept([v, solve_dot_one((-v[1], v[0]))])
            continue
        x = 0.5 * math.log(norm)
        d = math.sqrt(max(0.0, r_sq / 2 - 0.75 * x * x))
        # the largest y that the bound allows at this x
        y_max = x_max if pair and 2 * x <= x_max else x / 2 + d
        for u, w in _plane_points(v, math.exp(2 * y_max)):
            u_sq = _dot(u, u)
            y = 0.5 * math.log(u_sq)
            low_sq = (1.5 * y * y + 2 * max(0.0, x - y / 2) ** 2 if pair
                      else 1.5 * x * x + 2 * (y - x / 2) ** 2)
            if low_sq > r_sq:
                continue
            levels[1] += 1
            last = solve_dot_one(u)
            if not pair:
                accept([v, w, last])
                continue
            t_max = math.sqrt(max(0.0, r_sq - 1.5 * y * y) / 2)
            spread = norm * (2 * math.sqrt(u_sq) * math.cosh(2 * t_max) - norm) - u_sq
            if spread < 0:
                continue
            centre = -_dot(w, v) / norm
            half = math.sqrt(spread) / norm
            for k in range(math.ceil(centre - half), math.floor(centre + half) + 1):
                v2 = _axpy(k, v, w)
                v2_sq = _dot(v2, v2)
                # a tied block is completed from its larger column of D
                if v2_sq > norm or v2_sq == norm and v >= tuple(sorted(map(abs, v2))[::-1]):
                    accept([v, v2, last])

    return report(partial=False)


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------

def coset_sets_equal(a: EnumerationReport, b: EnumerationReport) -> bool:
    """Mutual inclusion of the two coset sets (exact, not just counts)."""
    return a.count == b.count and (
        {rec.key for rec in a.records} == {rec.key for rec in b.records}
    )

