"""Block partitions of {1,...,N} and the diagonal (Cartan) coordinate geometry.

Everything downstream is indexed by an ordered partition of {1,...,N} into
contiguous blocks.  Diagonal group elements are stored in logarithmic
coordinates: a "Cartan vector" is a length-N float vector with zero sum,
normed by the trace form (which restricts to the Euclidean norm on the
diagonal).  Indices are 0-based throughout.

The partition itself, the exact norms and the cone's half-spaces
(``Cone.half_spaces``, plain tuples) are plain Python, and the module
imports no numpy, so that ``constant``, the coset walk and the grid rule
start without it.

Records are ``typing.NamedTuple``s (``Cone``) or,
where construction checks or derives fields, ``__slots__`` classes built on
``_Record`` (``Partition``).  Both are cheap to import and to define, which
matters because every command is a fresh process.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

__all__ = [
    "Partition",
    "make_partition",
    "require_horocycle_partition",
    "Cone",
    "p_norm",
    "p_norm_squared",
]


class _Record:
    """Base of the ``__slots__`` records: equality, hash and repr over
    ``_fields`` (the constructor's arguments, in order), pickling and
    copying through the constructor, and no assignment after ``__init__``,
    which sets the slots with ``_init``.  A record holding a list or a dict
    sets ``__hash__`` to None."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _init(self, *values) -> None:
        """Set the slots, in ``__slots__`` order, to ``values``."""
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")


def _dot(a: Sequence, b: Sequence):
    """The sum of the products of a and b: exact on integers."""
    return sum([x * y for x, y in zip(a, b)])


class Partition(_Record):
    """Ordered partition of {0,...,n-1} into contiguous blocks.

    ``sizes`` are the block lengths in order.  Horocycle partitions need at
    least two blocks (a single block collapses the unipotent radical and
    the "horocycle" degenerates to a compact orbit); that floor is enforced
    by :func:`make_partition` and the counting entry points, while the bare
    type also admits the single-block coarse partitions produced by the
    limit classifier.

    ``blocks`` (the indices of each block) and ``block_of`` (the block of
    each index) are derived once; equality and hash use (n, sizes) alone.
    The first k blocks hold the indices below ``sum(sizes[:k])``.
    """

    __slots__ = ("n", "sizes", "blocks", "block_of")
    _fields = ("n", "sizes")

    def __init__(self, n: int, sizes: tuple[int, ...]):
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        if not sizes or any(s <= 0 for s in sizes):
            raise ValueError(f"block sizes must be positive, got {sizes}")
        if sum(sizes) != n:
            raise ValueError(f"block sizes {sizes} do not sum to n={n}")
        blocks = []
        pos = 0
        for s in sizes:
            blocks.append(tuple(range(pos, pos + s)))
            pos += s
        owner = [0] * n
        for k, blk in enumerate(blocks):
            for i in blk:
                owner[i] = k
        self._init(n, sizes, tuple(blocks), tuple(owner))

    @property
    def k0(self) -> int:
        return len(self.sizes)

    def same_block(self, i: int, j: int) -> bool:
        return self.block_of[i] == self.block_of[j]

    def intra_pairs(self) -> list[tuple[int, int]]:
        """All (i, j), i < j, with i and j in the same block."""
        out = []
        for blk in self.blocks:
            for a in range(len(blk)):
                for b in range(a + 1, len(blk)):
                    out.append((blk[a], blk[b]))
        return out

    def cross_pairs(self) -> list[tuple[int, int]]:
        """All (i, j), i < j, with i and j in different blocks."""
        return [
            (i, j)
            for i in range(self.n)
            for j in range(i + 1, self.n)
            if not self.same_block(i, j)
        ]


def make_partition(n: int, block_sizes: Sequence[int]) -> Partition:
    """Contiguous ordered partition of {0,...,n-1} with the given block sizes.

    Rejects single-block input: with a trivial unipotent radical there is
    no horocycle to count.
    """
    sizes = tuple(int(s) for s in block_sizes)
    if len(sizes) < 2:
        raise ValueError(
            "need at least two blocks: a single-block partition has a "
            "trivial unipotent radical and no horocycle to count"
        )
    return Partition(n=n, sizes=sizes)


def require_horocycle_partition(partition: Partition) -> Partition:
    """Guard for counting entry points: at least two blocks."""
    if partition.k0 < 2:
        raise ValueError("counting requires a partition with at least two blocks")
    return partition


class Cone(NamedTuple):
    """Offset cone C_C attached to a partition.

    Membership: within every block, y_i - y_j >= max(0, C) for i < j, and
    every proper prefix sum of y over whole blocks is >= C.  C = 0 is the
    positive cone; for C <= 0 the cone is a translate of the positive cone.
    """

    partition: Partition
    offset: float = 0.0

    def half_spaces(self) -> list[tuple[tuple[float, ...], float]]:
        """The cone's N - 1 walls <normal, y> >= floor, as (normal, floor),
        each normal a tuple of n floats: y_i - y_(i+1) within a block (their
        sums bound the block's other pairs), then the sums of y over the
        first k blocks, k = 1..k0-1."""
        part = self.partition
        out = []
        for i in range(part.n - 1):
            if part.same_block(i, i + 1):
                normal = [0.0] * part.n
                normal[i], normal[i + 1] = 1.0, -1.0
                out.append((tuple(normal), max(0.0, self.offset)))
        for k in range(1, part.k0):
            size = sum(part.sizes[:k])
            out.append(((1.0,) * size + (0.0,) * (part.n - size), self.offset))
        return out


def p_norm_squared(n: int) -> int:
    """Exact integer value of ||v0||^2 = N(N-1)(N+1)/3."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    prod = n * (n - 1) * (n + 1)
    assert prod % 3 == 0
    return prod // 3


def p_norm(n: int) -> float:
    """||v0|| in the trace form; the exponential growth rate of the count."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return math.sqrt(p_norm_squared(n))
