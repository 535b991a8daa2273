"""Exact enumeration of horocycle lifts of bounded height.

Lifts correspond to cosets g Gamma_hor of the stabilizer inside SL_N(Z);
the stabilizer's integer points are the block-upper-triangular matrices
whose diagonal blocks are signed permutations (total determinant one).
``coset_key`` is a complete invariant of a coset, built from Hermite normal
forms (Cohen, *A Course in Computational Algebraic Number Theory*, GTM 138,
Alg. 2.4.5), so a plain set of keys removes duplicates exactly.  Two
strategies are implemented and validated against each other:

* ``enumerate_bfs`` walks the Schreier graph of SL_N(Z) acting on the
  cosets by left multiplication with the elementary matrices E_ij(+-1),
  as in Todd-Coxeter coset enumeration, pruning by height only.
* ``enumerate_brute`` scans integer matrices column by column inside an
  entry box, pruning branches by coset-invariant bounds (prefix covolumes
  and per-block singular values are right-stabilizer invariants) and
  solving the final column from the determinant equation.

``same_coset`` decides coset identity from the definition and is the test
oracle for the key.  All arithmetic on matrices is exact (Python ints);
heights use floating point with a 1e-9 boundary tolerance.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .decompose import height as _frame_height
from .partitions import Partition, require_horocycle_partition

__all__ = [
    "CosetRecord",
    "EnumerationReport",
    "ResourceLimitError",
    "InconsistencyError",
    "int_det",
    "int_inverse_unimodular",
    "hermite_normal_form",
    "stabilizer_membership",
    "same_coset",
    "coset_key",
    "coset_height",
    "enumerate_bfs",
    "enumerate_brute",
    "empirical_ratio",
    "coset_sets_equal",
    "random_slnz",
    "random_stabilizer_element",
]

HEIGHT_TOL = 1e-9

Matrix = tuple[tuple[int, ...], ...]


class ResourceLimitError(RuntimeError):
    """Search exceeded its state budget; ``partial_report`` holds what was found."""

    def __init__(self, message: str, partial_report: "EnumerationReport"):
        super().__init__(message)
        self.partial_report = partial_report


class InconsistencyError(RuntimeError):
    """The brute-force scan missed a coset found by the graph search."""


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


def hermite_normal_form(columns: list[tuple[int, ...]]) -> Matrix:
    """Column-style HNF of the lattice spanned by the given full-rank columns.

    Unique canonical basis: column echelon, positive pivots, entries right
    of a pivot reduced into [0, pivot).  Rows index the ambient space.
    """
    n = len(columns[0])
    cols = [list(c) for c in columns]
    r = len(cols)
    pivot_row = 0
    col_idx = 0
    while col_idx < r and pivot_row < n:
        # gcd-eliminate entries of row pivot_row across columns col_idx..r-1
        while True:
            nz = [c for c in range(col_idx, r) if cols[c][pivot_row] != 0]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda c: abs(cols[c][pivot_row]))
            small = nz[0]
            for c in nz[1:]:
                q = cols[c][pivot_row] // cols[small][pivot_row]
                for i in range(n):
                    cols[c][i] -= q * cols[small][i]
        nz = [c for c in range(col_idx, r) if cols[c][pivot_row] != 0]
        if nz:
            c = nz[0]
            cols[col_idx], cols[c] = cols[c], cols[col_idx]
            if cols[col_idx][pivot_row] < 0:
                cols[col_idx] = [-x for x in cols[col_idx]]
            piv = cols[col_idx][pivot_row]
            for c in range(col_idx):
                q = cols[c][pivot_row] // piv
                if q:
                    for i in range(n):
                        cols[c][i] -= q * cols[col_idx][i]
            col_idx += 1
        pivot_row += 1
    if col_idx < r:
        raise ValueError("columns are linearly dependent")
    return tuple(tuple(c) for c in cols)


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    if b == 0:
        return (abs(a), 1 if a >= 0 else -1, 0)
    g, x, y = _ext_gcd(b, a % b)
    return (g, y, x - (a // b) * y)


def solve_dot_one(w: tuple[int, ...]) -> tuple[tuple[int, ...], list[tuple[int, ...]]]:
    """Particular solution of <w, x> = 1 plus a basis of the full kernel lattice.

    Requires gcd(w) = 1.  Built by accumulating unimodular column operations
    that sweep w to (1, 0, ..., 0).
    """
    n = len(w)
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]  # columns of U
    vec = list(w)
    for j in range(1, n):
        a, b = vec[0], vec[j]
        if b == 0:
            continue
        g, x, y = _ext_gcd(a, b)
        # columns 0 and j of U: (c0, cj) -> (x c0 + y cj, -(b/g) c0 + (a/g) cj)
        bg, ag = b // g, a // g
        for i in range(n):
            c0, cj = u[i][0], u[i][j]
            u[i][0] = x * c0 + y * cj
            u[i][j] = -bg * c0 + ag * cj
        vec[0], vec[j] = g, 0
    if vec[0] < 0:
        vec[0] = -vec[0]
        for i in range(n):
            u[i][0] = -u[i][0]
    if vec[0] != 1:
        raise ValueError(f"gcd of {w} is {vec[0]}, not 1")
    particular = tuple(u[i][0] for i in range(n))
    kernel = [tuple(u[i][j] for i in range(n)) for j in range(1, n)]
    return particular, kernel


# ---------------------------------------------------------------------------
# coset structure
# ---------------------------------------------------------------------------

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


def _reduce(v: tuple[int, ...], basis: list[tuple[int, tuple[int, ...]]]) -> tuple[int, ...]:
    """Canonical representative of v modulo a lattice in column HNF, given
    as (pivot row, column) pairs: every pivot-row entry lands in [0, pivot)."""
    for p, h in basis:
        q = v[p] // h[p]
        if q:
            v = tuple(x - q * y for x, y in zip(v, h))
    return v


def coset_key(g: Matrix, partition: Partition) -> tuple[int, ...]:
    """Complete invariant of the coset g Gamma_hor, as one flat tuple of ints.

    Block by block, each column is reduced modulo the column HNF of all
    earlier blocks' columns, the smaller of the reductions of v and -v is
    kept, and the results are sorted within the block.  The stabilizer acts
    on the right by signed permutations within a block plus integer
    combinations of earlier blocks, so two matrices share a key exactly
    when they lie in the same coset.
    """
    cols = list(zip(*g))
    key: list[int] = []
    basis: list[tuple[int, tuple[int, ...]]] = []
    last = partition.k0 - 1
    for k, blk in enumerate(partition.blocks):
        reduced = sorted(
            min(_reduce(cols[j], basis), _reduce(tuple(-x for x in cols[j]), basis))
            for j in blk
        )
        for v in reduced:
            key.extend(v)
        if k < last:
            hnf = hermite_normal_form([h for _, h in basis] + [cols[j] for j in blk])
            basis = [(next(i for i, x in enumerate(h) if x), h) for h in hnf]
    return tuple(key)


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

    def heights(self) -> list[float]:
        return sorted(r.height for r in self.records)


# ---------------------------------------------------------------------------
# heights of integer matrices
# ---------------------------------------------------------------------------

def coset_height(g: Matrix, partition: Partition) -> float:
    """Height of an integer matrix, lean path for n <= 3.

    Works from the Gram matrix: its Cholesky factor is the triangular part
    of the QR, block log-determinants give the central part and per-block
    singular values give the chamber part.
    """
    n = partition.n
    if n > 3:
        h, _ = _frame_height(np.array(g, dtype=float), partition)
        return h
    cols = [[g[i][j] for i in range(n)] for j in range(n)]
    r = _triangular_factor(cols, n)
    b_sq = 0.0
    a_sq = 0.0
    for blk in partition.blocks:
        m = len(blk)
        logdet = sum(math.log(r[i][i]) for i in blk)
        beta = logdet / m
        b_sq += m * beta * beta
        if m == 2:
            i0, i1 = blk
            scale = math.exp(-beta)
            t00 = r[i0][i0] * scale
            t01 = r[i0][i1] * scale
            t11 = r[i1][i1] * scale
            fro = t00 * t00 + t01 * t01 + t11 * t11
            sigma_sq = (fro + math.sqrt(max(fro * fro - 4.0, 0.0))) / 2.0
            t = 0.5 * math.log(sigma_sq)  # aM = (t, -t)
            a_sq += 2.0 * t * t
        elif m > 2:
            h, _ = _frame_height(np.array(g, dtype=float), partition)
            return h
    return math.sqrt(a_sq + b_sq)


def _triangular_factor(cols: list[list[int]], n: int) -> list[list[float]]:
    """Upper-triangular R with R^T R = Gram(columns), by hand (small n)."""
    r = [[0.0] * n for _ in range(n)]
    for i in range(n):
        ci = cols[i]
        acc = 0
        for k in range(n):
            acc += ci[k] * ci[k]
        s = float(acc)
        for k in range(i):
            rki = r[k][i]
            s -= rki * rki
        rii = math.sqrt(s if s > 1e-300 else 1e-300)
        r[i][i] = rii
        for j in range(i + 1, n):
            cj = cols[j]
            acc = 0
            for k in range(n):
                acc += ci[k] * cj[k]
            s = float(acc)
            for k in range(i):
                s -= r[k][i] * r[k][j]
            r[i][j] = s / rii
    return r


# ---------------------------------------------------------------------------
# breadth-first search over the Schreier graph
# ---------------------------------------------------------------------------

def _generators(n: int) -> list[tuple[int, int, int]]:
    gens = []
    for i in range(n):
        for j in range(n):
            if i != j:
                gens.extend([(i, j, 1), (i, j, -1)])
    return gens


def _apply_generator(g: Matrix, gen: tuple[int, int, int]) -> Matrix:
    """Right multiplication by E_ij(t): column j += t * column i."""
    i, j, t = gen
    return tuple(
        row[:j] + (row[j] + t * row[i],) + row[j + 1:]
        for row in g
    )


def _left_apply(g: Matrix, gen: tuple[int, int, int]) -> Matrix:
    """Left multiplication by E_ij(t): row i += t * row j."""
    i, j, t = gen
    rows = list(g)
    rows[i] = tuple(a + t * b for a, b in zip(g[i], g[j]))
    return tuple(rows)


def enumerate_bfs(partition: Partition, radius: float, margin: float = 2.0,
                  max_states: int = 2_000_000,
                  keep_records: bool = True) -> EnumerationReport:
    """All distinct lift cosets of height <= R by breadth-first search.

    The walk starts at the identity coset and moves by left multiplication
    with E_ij(+-1), which is well defined on cosets g Gamma_hor.  Cosets
    are deduplicated by ``coset_key``, and height is the only prune: a
    coset is expanded when its height is at most the expansion limit
    max(R + margin, h1), where h1 is the largest height among the
    identity's neighbours.

    The floor h1 keeps small R + margin complete.  Signed permutations of
    determinant one lie in SO_N, so left multiplication by one keeps the
    height, and it maps the neighbours of a coset onto the neighbours of
    its translate.  The height-0 coset of a transposition (i j), i < j in
    different blocks, is E_ij(1) E_ji(-1) Gamma_hor, two steps from the
    identity through a neighbour of height <= h1.  So every permutation
    coset is reached, whatever R and margin are.

    Completeness: for N = 2 a coset is fixed by its first column v up to
    sign, and its height is sqrt(2) log|v|.  Euclid descent on v (add or
    subtract the smaller entry from the larger) strictly lowers the height
    down to e_1 or e_2, and e_2 joins e_1 through (1, 1) at height
    h1 = log(2)/sqrt(2).  So every coset of height <= R is found.  For
    N >= 3 completeness is empirical and checked against
    ``enumerate_brute``.

    ``params`` reports ``expand_limit``, ``states`` (keys seen),
    ``depth_reached`` (layers expanded) and ``last_new_depth`` (the
    deepest layer that found a coset of height <= R).  Exceeding the state
    budget raises
    ``ResourceLimitError`` carrying the partial report, the only case
    marked ``partial``.  A negative or non-finite radius or margin raises
    ``ValueError``.
    """
    require_horocycle_partition(partition)
    if not (math.isfinite(radius) and radius >= 0):
        raise ValueError(f"radius must be finite and nonnegative, got {radius}")
    if not (math.isfinite(margin) and margin >= 0):
        raise ValueError(f"margin must be finite and nonnegative, got {margin}")
    start_time = time.monotonic()
    n = partition.n
    gens = _generators(n)
    identity = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    root_key = coset_key(identity, partition)
    expand_limit = max(radius + margin, max(
        coset_height(_left_apply(identity, gen), partition) for gen in gens))
    seen = {root_key}
    records: list[CosetRecord] = []
    count = 0
    depth = 0
    last_new_depth = 0

    def report(partial: bool) -> EnumerationReport:
        return EnumerationReport(
            partition=partition, radius=radius, count=count, method="bfs",
            records=records, wall_time=time.monotonic() - start_time,
            params={"margin": margin, "max_states": max_states,
                    "expand_limit": expand_limit, "states": len(seen), "depth_reached": depth,
                    "last_new_depth": last_new_depth},
            partial=partial,
        )

    def consider(state: Matrix, key: tuple[int, ...], h: float) -> None:
        nonlocal count, last_new_depth
        if h > radius + HEIGHT_TOL:
            return
        count += 1
        last_new_depth = depth
        if keep_records:
            records.append(CosetRecord(
                representative=state, key=key, height=h,
                boundary=abs(h - radius) <= HEIGHT_TOL,
            ))

    h0 = coset_height(identity, partition)
    consider(identity, root_key, h0)
    frontier = [identity]
    while frontier:
        depth += 1
        next_frontier = []
        for state in frontier:
            for gen in gens:
                child = _left_apply(state, gen)
                key = coset_key(child, partition)
                if key in seen:
                    continue
                seen.add(key)
                if len(seen) > max_states:
                    raise ResourceLimitError(
                        f"state budget {max_states} exceeded at depth {depth}",
                        report(partial=True),
                    )
                h = coset_height(child, partition)
                consider(child, key, h)
                if h <= expand_limit:
                    next_frontier.append(child)
        frontier = next_frontier
    return report(partial=False)


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------

def default_entry_bound(partition: Partition, radius: float) -> int:
    """Scan box size: generous exponential envelopes validated against the
    graph search."""
    if partition.n == 2:
        return math.ceil(math.exp(radius + 1.0)) + 1
    return math.ceil(math.exp(radius + 2.0))


def _block_sigma_bound(partition: Partition, radius: float, k: int) -> float:
    """Upper bound on log of the largest block singular value, coset-invariant."""
    n = partition.n
    m = partition.sizes[k]
    chamber = (m - 1) / m
    central = (n - m) / (m * n)
    return radius * math.sqrt(chamber + central)


def _prefix_logcov_bound(partition: Partition, radius: float, m: int) -> float:
    """Upper bound on |log covolume| of a size-m block prefix."""
    n = partition.n
    return radius * math.sqrt(m * (n - m) / n)


def _wedge_gcd(cols: list[tuple[int, ...]]) -> int:
    """gcd of the maximal minors of the n x r column matrix."""
    n = len(cols[0])
    r = len(cols)
    import itertools

    g = 0
    for rows in itertools.combinations(range(n), r):
        sub = tuple(tuple(cols[c][i] for c in range(r)) for i in rows)
        g = math.gcd(g, abs(int_det(sub)))
        if g == 1:
            return 1
    return g


def enumerate_brute(partition: Partition, radius: float,
                    entry_bound: int | None = None, stabilize: bool = False,
                    keep_records: bool = True) -> EnumerationReport:
    """All distinct lift cosets of height <= R by exhaustive column scan.

    Columns are generated recursively inside the entry box; branches are
    cut by coset-invariant bounds (block singular values, prefix
    covolumes, partial height) plus wedge primitivity at block boundaries,
    and the last column is solved exactly from the determinant equation.
    With ``stabilize`` the scan reruns at doubled bounds until the count
    is stable.
    """
    require_horocycle_partition(partition)
    if partition.n > 3:
        raise NotImplementedError(
            "brute-force enumeration targets n <= 3 (cost grows like e^(P_N R))"
        )
    if not (math.isfinite(radius) and radius >= 0):
        raise ValueError(f"radius must be finite and nonnegative, got {radius}")
    if entry_bound is None:
        entry_bound = default_entry_bound(partition, radius)
    report = _brute_once(partition, radius, entry_bound, keep_records)
    while stabilize:
        bigger = _brute_once(partition, radius, entry_bound * 2, keep_records)
        if bigger.count == report.count:
            bigger.params["stabilized_at"] = entry_bound
            return bigger
        entry_bound *= 2
        report = bigger
    return report


def _brute_once(partition: Partition, radius: float, entry_bound: int,
                keep_records: bool) -> EnumerationReport:
    start_time = time.monotonic()
    n = partition.n
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
    box = min(entry_bound, math.ceil(global_cap))
    master = _integer_vectors(n, box, global_cap)
    master_norms = np.linalg.norm(master, axis=1)

    seen: set[tuple[int, ...]] = set()
    records: list[CosetRecord] = []

    def accept(mat: Matrix) -> None:
        h = coset_height(mat, partition)
        if h > radius + HEIGHT_TOL:
            return
        key = coset_key(mat, partition)
        if key in seen:
            return
        seen.add(key)
        if keep_records:
            records.append(CosetRecord(
                representative=mat, key=key, height=h,
                boundary=abs(h - radius) <= HEIGHT_TOL,
            ))

    def column_budget(j: int, chosen_norms: list[float]) -> float:
        k = partition.block_of[j]
        slack = 0.5 * sum(
            chosen_norms[i] for i in range(len(chosen_norms))
            if partition.block_of[i] != k
        )
        return sigma_bounds[k] + slack

    def boundary_filter(cols: list[tuple[int, ...]], cand: np.ndarray, k: int,
                        m: int, log_v_prev: float, b_partial: float,
                        a_partial: float):
        """Vectorized coset-invariant pruning for candidates completing the
        prefix of size m; yields (vector, log_v, b_partial', a_partial')."""
        size = partition.sizes[k]
        if cols:
            prev = np.array(cols, dtype=float).T  # n x (m-1)
            q, _ = np.linalg.qr(prev)
            proj = cand @ q
            perp_sq = np.einsum("ij,ij->i", cand, cand) - np.einsum("ij,ij->i", proj, proj)
            log_v_prefix_prev = _log_gram_volume(prev)
        else:
            perp_sq = np.einsum("ij,ij->i", cand.astype(float), cand.astype(float))
            log_v_prefix_prev = 0.0
        ok = perp_sq > 1e-12
        log_v = np.where(ok, log_v_prefix_prev + 0.5 * np.log(np.maximum(perp_sq, 1e-300)), np.inf)
        ok &= np.abs(log_v) <= _prefix_logcov_bound(partition, r_eff, m) + 1e-9
        beta = (log_v - log_v_prev) / size
        b_new = b_partial + size * beta * beta
        future = log_v * log_v / (n - m)
        ok &= a_partial + b_new + future <= r_eff * r_eff + 1e-9
        idx = np.nonzero(ok)[0]
        start = m - size
        for i in idx:
            vec = tuple(int(x) for x in cand[i])
            a_new = a_partial
            if size >= 2:
                block_cols = cols[start:] + [vec]
                arr = np.array(block_cols, dtype=float).T
                if start > 0:
                    qp, _ = np.linalg.qr(np.array(cols[:start], dtype=float).T)
                    arr = arr - qp @ (qp.T @ arr)
                sv = np.linalg.svd(arr, compute_uv=False)
                if sv[-1] <= 1e-12:
                    continue
                a_new = a_partial + float(np.sum((np.log(sv) - beta[i]) ** 2))
                if a_new + b_new[i] + future[i] > r_eff * r_eff + 1e-9:
                    continue
            if _wedge_gcd(cols + [vec]) != 1:
                continue
            yield vec, float(log_v[i]), float(b_new[i]), a_new

    def last_column(cols: list[tuple[int, ...]], budget: float) -> None:
        w = _cofactor_vector(cols)
        if math.gcd(*[abs(x) for x in w]) != 1:
            return
        particular, kernel = solve_dot_one(w)
        # orthogonal part of any completion is exactly 1/||w||; the in-plane
        # part of a size-reduced representative is at most the Babai radius
        j = n - 1
        blk = partition.block_of[j]
        inplane = 0.0
        for i in range(n - 1):
            norm_i = math.hypot(*cols[i])
            inplane += norm_i if partition.block_of[i] == blk else 0.5 * norm_i
        w_norm = math.hypot(*w)
        cap = min(budget, 1.0 / w_norm + inplane, float(box) * math.sqrt(n)) + 1e-9
        for cand in _affine_lattice_points(particular, kernel, cap):
            if max(abs(x) for x in cand) > entry_bound:
                continue
            full = cols + [cand]
            mat = tuple(tuple(full[j][i] for j in range(n)) for i in range(n))
            if int_det(mat) != 1:
                continue
            accept(mat)

    def recurse(cols: list[tuple[int, ...]], norms: list[float],
                log_v: float, b_partial: float, a_partial: float) -> None:
        j = len(cols)
        if j == n - 1:
            last_column(cols, column_budget(j, norms))
            return
        budget = column_budget(j, norms)
        cand = master[master_norms <= budget + 1e-9]
        if j in boundary_after:
            k, m = boundary_after[j]
            for vec, lv, bp, ap in boundary_filter(cols, cand, k, m, log_v,
                                                   b_partial, a_partial):
                recurse(cols + [vec], norms + [math.hypot(*vec)], lv, bp, ap)
        else:
            for row in cand:
                vec = tuple(int(x) for x in row)
                recurse(cols + [vec], norms + [math.hypot(*vec)],
                        log_v, b_partial, a_partial)

    recurse([], [], 0.0, 0.0, 0.0)

    return EnumerationReport(
        partition=partition, radius=radius, count=len(seen), method="brute",
        records=records, wall_time=time.monotonic() - start_time,
        params={"entry_bound": entry_bound, "box": box},
    )


def _log_gram_volume(arr: np.ndarray) -> float:
    gram = arr.T @ arr
    sign, logdet = np.linalg.slogdet(gram)
    if sign <= 0:
        return -math.inf
    return 0.5 * logdet


def _integer_vectors(n: int, box: int, norm_cap: float) -> np.ndarray:
    axes = [np.arange(-box, box + 1)] * n
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    grid = grid[np.any(grid != 0, axis=1)]
    grid = grid[np.linalg.norm(grid, axis=1) <= norm_cap + 1e-9]
    order = np.lexsort(grid.T[::-1])
    return grid[order]


def _cofactor_vector(cols: list[tuple[int, ...]]) -> tuple[int, ...]:
    """w with det(cols..., x) = <w, x> for the missing last column."""
    n = len(cols[0])
    if n == 2:
        (a, c) = cols[0]
        return (-c, a)
    if n == 3:
        u, v = cols
        return (
            u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0],
        )
    raise NotImplementedError("cofactor solve implemented for n <= 3")


def _affine_lattice_points(x0: tuple[int, ...], basis: list[tuple[int, ...]],
                           cap: float):
    """All points of x0 + Z*basis with Euclidean norm <= cap (rank <= 2)."""
    n = len(x0)
    if not basis:
        if math.hypot(*x0) <= cap:
            yield x0
        return
    b = [np.array(v, dtype=float) for v in basis]
    x = np.array(x0, dtype=float)
    if len(b) == 1:
        u = b[0]
        t_center = -float(x @ u) / float(u @ u)
        radius = cap / math.sqrt(float(u @ u))
        for t in range(math.floor(t_center - radius) - 1, math.ceil(t_center + radius) + 2):
            cand = tuple(int(x0[i] + t * basis[0][i]) for i in range(n))
            if math.hypot(*cand) <= cap + 1e-9:
                yield cand
        return
    if len(b) == 2:
        # Gauss-reduce the rank-2 basis for tight loop ranges
        b1, b2 = basis[0], basis[1]
        while True:
            n1 = sum(v * v for v in b1)
            n2 = sum(v * v for v in b2)
            if n1 > n2:
                b1, b2 = b2, b1
                n1, n2 = n2, n1
            mu = round(sum(p * q for p, q in zip(b1, b2)) / n1)
            if mu == 0:
                break
            b2 = tuple(q - mu * p for p, q in zip(b1, b2))
        u1 = np.array(b1, dtype=float)
        u2 = np.array(b2, dtype=float)
        # orthogonalize u2 against u1 for range bounds
        proj = float(u2 @ u1) / float(u1 @ u1)
        u2_perp = u2 - proj * u1
        s_center = -float(x @ u2_perp) / float(u2_perp @ u2_perp)
        s_radius = cap / math.sqrt(float(u2_perp @ u2_perp))
        for s in range(math.floor(s_center - s_radius) - 1,
                       math.ceil(s_center + s_radius) + 2):
            shifted = x + s * u2
            t_center = -float(shifted @ u1) / float(u1 @ u1)
            t_radius = cap / math.sqrt(float(u1 @ u1))
            for t in range(math.floor(t_center - t_radius) - 1,
                           math.ceil(t_center + t_radius) + 2):
                cand = tuple(
                    int(x0[i] + s * b2[i] + t * b1[i]) for i in range(n)
                )
                if math.hypot(*cand) <= cap + 1e-9:
                    yield cand
        return
    raise NotImplementedError("affine enumeration implemented for rank <= 2")


# ---------------------------------------------------------------------------
# comparisons, ratios, samplers
# ---------------------------------------------------------------------------

def coset_sets_equal(a: EnumerationReport, b: EnumerationReport) -> bool:
    """Mutual inclusion of the two coset sets (exact, not just counts)."""
    return a.count == b.count and (
        {rec.key for rec in a.records} == {rec.key for rec in b.records}
    )


def check_brute_covers(bfs: EnumerationReport, brute: EnumerationReport) -> None:
    """Raise InconsistencyError when a BFS coset is missing from the scan."""
    scanned = {rec.key for rec in brute.records}
    for rec in bfs.records:
        if rec.key not in scanned:
            raise InconsistencyError(
                "entry bound too small: coset found by the graph search has "
                f"no representative in the scan box (key {rec.key!r})"
            )


def empirical_ratio(partition: Partition, radii, margin: float = 0.5,
                    max_states: int = 4_000_000) -> list[dict]:
    """Measured-count over stated-asymptotic table for increasing radii.

    Counts come from the graph search.  A None ratio marks radii where the
    stated asymptotic vanishes (R = 0 with a positive power).
    """
    from .constants import asymptotic_count, counting_constant

    cc = counting_constant(partition)
    rows = []
    for r in radii:
        rep = enumerate_bfs(partition, r, margin=margin, max_states=max_states,
                            keep_records=True)
        asym = asymptotic_count(cc, r) if r > 0 or cc.poly_exponent == 0 else 0.0
        rows.append({
            "R": r,
            "count": rep.count,
            "asymptotic": asym,
            "ratio": rep.count / asym if asym > 0 else None,
            "method": rep.method,
            "margin": margin,
            "depth": rep.params["depth_reached"],
            "seconds": rep.wall_time,
        })
    return rows


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
