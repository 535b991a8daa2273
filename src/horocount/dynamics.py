"""Limit classification of translated horocyclic measures.

A translating sequence, once normalized ("clean"), is described purely
symbolically: each block's chamber part is either unbounded (``inf``) or
the identity (``id``), and each proper prefix character of the central
part tends to infinity (``inf``), stays at one (``one``) or tends to zero
(``zero``).  The full product is the determinant, always one, so it has no
entry.  Nondivergence holds exactly when no prefix character dies, and in
that case the limit is Haar on a group read off from a coarsened partition
whose blocks are either compact (K) or full special-linear (M) factors.

The classifier works on symbolic behaviors; ``instantiate`` turns a spec
into concrete diagonal sequences for numerical cross-checks against the
covolume criterion.  numpy is imported only inside ``covolume_gram`` and
``instantiate``, so ``classify`` starts without it.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .partitions import Partition, _Record, make_partition

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "A_UNBOUNDED",
    "A_IDENTITY",
    "B_TO_INFINITY",
    "B_CONSTANT_ONE",
    "B_TO_ZERO",
    "CleanSequenceSpec",
    "LimitClassification",
    "classify_limit",
    "stable_subspaces",
    "covolume",
    "covolume_gram",
    "instantiate",
    "all_clean_specs",
]

# the values are the CLI's tokens
A_UNBOUNDED = "inf"
A_IDENTITY = "id"
B_TO_INFINITY = "inf"
B_CONSTANT_ONE = "one"
B_TO_ZERO = "zero"

ROLE_COMPACT = "K"
ROLE_FULL = "M"


class CleanSequenceSpec(_Record):
    """Symbolic description of a clean translating sequence.

    ``a_behavior`` has one entry per block (unbounded or identity; size-1
    blocks have no chamber direction and must be identity).  ``b_behavior``
    has one entry per proper prefix k = 1..k0-1; the full product is the
    determinant and always one.  An inconsistent spec raises ``ValueError``.
    """

    __slots__ = _fields = ("partition", "a_behavior", "b_behavior")

    def __init__(self, partition: Partition, a_behavior: tuple[str, ...],
                 b_behavior: tuple[str, ...]):
        self._init(partition, a_behavior, b_behavior)
        part = self.partition
        if len(self.a_behavior) != part.k0:
            raise ValueError(
                f"need one a-behavior per block ({part.k0}), got {len(self.a_behavior)}"
            )
        if len(self.b_behavior) != part.k0 - 1:
            raise ValueError(f"need one b-behavior per proper prefix ({part.k0 - 1}), "
                             f"got {len(self.b_behavior)}")
        for k, beh in enumerate(self.a_behavior):
            if beh not in (A_UNBOUNDED, A_IDENTITY):
                raise ValueError(f"unknown a-behavior {beh!r} for block {k}")
            if beh == A_UNBOUNDED and part.sizes[k] == 1:
                raise ValueError(
                    f"block {k} has size 1 and admits no unbounded chamber part"
                )
        for k, beh in enumerate(self.b_behavior):
            if beh not in (B_TO_INFINITY, B_CONSTANT_ONE, B_TO_ZERO):
                raise ValueError(f"unknown b-behavior {beh!r} for prefix {k + 1}")


class LimitClassification(NamedTuple):
    """Outcome of the limit analysis for a clean sequence.

    When nondivergent, ``coarse_partition`` groups the original blocks
    between consecutive constant-one prefixes and ``block_roles`` labels
    each coarse block K (compact factor) or M (full factor).  The three
    bookkeeping tuples record which coarse blocks are newly merged, old
    with unbounded chamber part, and old with identity chamber part; they
    partition the coarse blocks.
    """

    nondivergent: bool
    coarse_partition: Partition | None = None
    block_roles: tuple[str, ...] | None = None
    merged_new: tuple[int, ...] = ()
    old_unbounded: tuple[int, ...] = ()
    old_identity: tuple[int, ...] = ()

    def to_dict(self) -> dict:
        out = {"nondivergent": self.nondivergent}
        if self.nondivergent:
            out["coarse_blocks"] = list(self.coarse_partition.sizes)
            out["block_roles"] = list(self.block_roles)
        return out


def classify_limit(spec: CleanSequenceSpec) -> LimitClassification:
    """Nondivergence and limit support for a clean sequence.

    Divergence happens iff some proper prefix character tends to zero.
    Otherwise the coarse partition merges maximal runs of blocks ending at
    constant-one prefixes; a coarse block made of several original blocks
    is a full factor, a surviving single block is full when its chamber
    part is unbounded and compact when it is the identity.
    """
    part = spec.partition
    if B_TO_ZERO in spec.b_behavior:
        return LimitClassification(nondivergent=False)

    # the full prefix is constant one: the last block always closes a run
    anchors = [k for k, beh in enumerate(spec.b_behavior) if beh == B_CONSTANT_ONE]
    anchors.append(part.k0 - 1)
    coarse_sizes = []
    merged_new, old_unbounded, old_identity = [], [], []
    roles = []
    start = 0
    for coarse_idx, anchor in enumerate(anchors):
        members = list(range(start, anchor + 1))
        coarse_sizes.append(sum(part.sizes[k] for k in members))
        if len(members) > 1:
            merged_new.append(coarse_idx)
            roles.append(ROLE_FULL)
        elif spec.a_behavior[members[0]] == A_UNBOUNDED:
            old_unbounded.append(coarse_idx)
            roles.append(ROLE_FULL)
        else:
            old_identity.append(coarse_idx)
            roles.append(ROLE_COMPACT)
        start = anchor + 1

    coarse = Partition(n=part.n, sizes=tuple(coarse_sizes))
    return LimitClassification(
        nondivergent=True,
        coarse_partition=coarse,
        block_roles=tuple(roles),
        merged_new=tuple(merged_new),
        old_unbounded=tuple(old_unbounded),
        old_identity=tuple(old_identity),
    )


def stable_subspaces(partition: Partition) -> list[tuple[int, ...]]:
    """The proper coordinate prefixes: the only subspaces stable under K*U.

    These are the index sets whose covolume can decay along a translate;
    returned as 0-based index tuples for j = 1..k0-1.
    """
    return [partition.prefix(j) for j in range(1, partition.k0)]


def covolume(a: Sequence[float], b: Sequence[float], prefix: Sequence[int]) -> float:
    """Covolume of (a*b) Z^prefix for block prefixes: the prefix product of b.

    ``a`` is a positive diagonal with unit block determinants, ``b`` a
    positive block-scalar diagonal; on a union of blocks the a-part has
    determinant one and drops out.
    """
    return float(math.prod([b[i] for i in prefix]))


def covolume_gram(a: Sequence[float], b: Sequence[float], prefix: Sequence[int]) -> float:
    """Independent covolume via the Gram determinant of the transformed basis."""
    import numpy as np

    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    mat = np.diag(a * b)[:, list(prefix)]
    gram = mat.T @ mat
    return float(math.sqrt(np.linalg.det(gram)))


def instantiate(spec: CleanSequenceSpec, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Concrete positive diagonals (a(t), b(t)) realizing the behaviors at time t.

    Unbounded chamber parts use a within-block decreasing profile of size
    e^t; prefix characters use e^{+t}, 1, e^{-t}.  Returned as entrywise
    positive diagonal vectors (not logs).
    """
    import numpy as np

    part = spec.partition
    log_a = np.zeros(part.n)
    for k, blk in enumerate(part.blocks):
        if spec.a_behavior[k] == A_UNBOUNDED:
            m = len(blk)
            profile = np.linspace(1.0, -1.0, m)
            profile -= profile.mean()
            log_a[list(blk)] = t * profile
    log_prefix = [t if beh == B_TO_INFINITY else (-t if beh == B_TO_ZERO else 0.0)
                  for beh in spec.b_behavior]
    log_prefix.append(0.0)   # the determinant
    log_b = np.zeros(part.n)
    prev = 0.0
    for k, blk in enumerate(part.blocks):
        log_b[list(blk)] = (log_prefix[k] - prev) / part.sizes[k]
        prev = log_prefix[k]
    return np.exp(log_a), np.exp(log_b)


def all_clean_specs(n_max: int) -> list[CleanSequenceSpec]:
    """Every clean spec over every partition of every N <= n_max."""
    import itertools

    specs = []
    for n in range(2, n_max + 1):
        for sizes in _compositions(n):
            if len(sizes) < 2:
                continue
            part = make_partition(n, sizes)
            a_options = [
                (A_IDENTITY,) if s == 1 else (A_IDENTITY, A_UNBOUNDED)
                for s in sizes
            ]
            b_options = (B_TO_INFINITY, B_CONSTANT_ONE, B_TO_ZERO)
            for a_beh in itertools.product(*a_options):
                for b_beh in itertools.product(b_options, repeat=part.k0 - 1):
                    specs.append(CleanSequenceSpec(part, a_beh, b_beh))
    return specs


def _compositions(n: int):
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            yield (first,) + rest
