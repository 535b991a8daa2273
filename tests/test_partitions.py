import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horocount.constants import counting_constant
from horocount.cosets import CosetRecord, EnumerationReport
from horocount.measure import QuadratureResult
from horocount.partitions import (
    Cone,
    Partition,
    make_partition,
    p_norm,
    p_norm_squared,
)

from .cartan_helpers import block_split, compositions, cone_contains, rho_density, v0


def test_make_partition_examples():
    p = make_partition(3, [1, 1, 1])
    assert p.blocks == ((0,), (1,), (2,))
    p = make_partition(3, [2, 1])
    assert p.blocks == ((0, 1), (2,))
    with pytest.raises(ValueError):
        make_partition(3, [3])
    with pytest.raises(ValueError):
        make_partition(3, [2, 2])
    with pytest.raises(ValueError):
        make_partition(3, [])


@pytest.mark.parametrize("n, sizes", [(0, ()), (-1, (1,)), (3, (2, 0, 1)), (3, (4, -1)),
                                      (3, ()), (3, (2, 2)), (3, (1, 1))])
def test_partition_rejects_bad_fields(n, sizes):
    # the bare type checks what make_partition does not (it admits one block)
    with pytest.raises(ValueError):
        Partition(n, sizes)


def test_norms_reject_small_n():
    with pytest.raises(ValueError, match="n >= 1, got 0"):
        p_norm_squared(0)
    with pytest.raises(ValueError, match="n >= 2, got 1"):
        p_norm(1)


def test_equal_partitions_hash_alike():
    p = Partition(3, (2, 1))
    q = make_partition(3, [2, 1])
    assert p == q and hash(p) == hash(q) and {p: 1}[q] == 1
    assert p != Partition(3, (1, 2)) and p != (3, (2, 1))
    assert repr(p) == "Partition(n=3, sizes=(2, 1))"
    assert (p.blocks, p.block_of) == (((0, 1), (2,)), (0, 0, 1))
    for clone in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
        assert clone == p and clone.blocks == p.blocks
    assert Partition(1, (1,)).k0 == 1


@pytest.mark.parametrize("make, name", [
    (lambda: make_partition(3, [2, 1]), "sizes"),
    (lambda: make_partition(3, [2, 1]), "blocks"),
    (lambda: Cone(make_partition(2, [1, 1]), -1.0), "offset"),
    (lambda: CosetRecord(((1, 0), (0, 1)), (1, 0), 0.0), "height"),
    (lambda: EnumerationReport(make_partition(2, [1, 1]), 1.0, 2, "bfs"), "count"),
    (lambda: QuadratureResult(1.0, 0.1, 10, "b+", "mc", seed=3), "estimate"),
    (lambda: counting_constant(make_partition(3, [2, 1])), "poly_exponent"),
], ids=["Partition.sizes", "Partition.blocks", "Cone", "CosetRecord",
        "EnumerationReport", "QuadratureResult", "CountingConstant"])
def test_records_refuse_assignment(make, name):
    record = make()
    before = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, 0)
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert getattr(record, name) == before


def test_rho_density_examples(p2, p21):
    s = 0.7
    assert rho_density(p2, np.zeros(2), np.array([s, -s])) == pytest.approx(math.exp(2 * s))
    t = 0.4
    val = rho_density(p21, np.array([t, -t, 0.0]), np.zeros(3))
    assert val == pytest.approx((math.exp(2 * t) - math.exp(-2 * t)) / 2)
    # chamber wall: sinh factor vanishes
    assert rho_density(p21, np.zeros(3), np.array([0.1, 0.1, -0.2])) == 0.0
    with pytest.raises(ValueError):
        rho_density(p21, np.array([-0.5, 0.5, 0.0]), np.zeros(3))


def test_v0_and_norm():
    assert np.array_equal(v0(3), [2.0, 0.0, -2.0])
    assert p_norm_squared(3) == 8
    assert np.array_equal(v0(2), [1.0, -1.0])
    assert p_norm_squared(2) == 2
    assert p_norm_squared(4) == 20
    assert p_norm(3) == pytest.approx(math.sqrt(8.0))
    with pytest.raises(ValueError):
        v0(1)


def test_p_norm_identity_exact_to_50():
    # oracle: direct evaluation of the defining sum
    for n in range(1, 51):
        direct = sum((n - 2 * i + 1) ** 2 for i in range(1, n + 1))
        assert p_norm_squared(n) == direct


def test_cone_examples(p2, p3, p21):
    assert cone_contains(Cone(p3, 0.0), np.array([2.0, 0.0, -2.0]))
    assert not cone_contains(Cone(p21, 0.0), np.array([0.0, 1.0, -1.0]))
    assert cone_contains(Cone(p2, -5.0), np.array([-2.0, 2.0]))
    with pytest.raises(ValueError):
        cone_contains(Cone(p2, 0.0), np.array([1.0, 0.0, -1.0]))


@settings(max_examples=200)
@given(st.lists(st.floats(-3, 3), min_size=3, max_size=3),
       st.floats(-2, 0), st.floats(0, 2))
def test_cone_nesting(entries, c_low, c_gap):
    # C >= C' implies C_C inside C_C'
    part = make_partition(3, [2, 1])
    y = np.array(entries)
    y -= y.mean()
    c_high = c_low + c_gap
    if cone_contains(Cone(part, c_high), y):
        assert cone_contains(Cone(part, c_low), y)


def test_cone_has_n_minus_one_walls(rng):
    # the cone is simplicial: the pairs j = i + 1 within a block and the
    # proper prefix sums, N - 1 walls, which imply every other pair of a block
    hits = 0
    for n in range(2, 8):
        for sizes in compositions(n):
            part = make_partition(n, sizes)
            for offset in (-1.0, 0.0, 0.5):
                cone = Cone(part, offset)
                assert len(cone.half_spaces()) == n - 1
                for _ in range(20):
                    y = rng.normal(scale=2.0, size=n)
                    for blk in part.blocks:   # in the chamber more often than not
                        y[list(blk)] = np.sort(y[list(blk)])[::-1]
                    y -= y.mean()
                    inside = (all(y[i] - y[j] >= max(0.0, offset) - 1e-12
                                  for i, j in part.intra_pairs())
                              and all(y[:sum(sizes[:k])].sum() >= offset - 1e-12
                                      for k in range(1, part.k0)))
                    assert cone_contains(cone, y) == inside, (sizes, offset, y)
                    hits += inside
    assert 1000 < hits < 20 * 3 * 120 - 1000


def test_v0_in_positive_cone():
    for n in range(2, 8):
        part = make_partition(n, [1] * n)
        assert cone_contains(Cone(part, 0.0), v0(n))
    part = make_partition(4, [2, 2])
    assert cone_contains(Cone(part, 0.0), v0(4))


def test_block_split_roundtrip(p21, rng):
    for _ in range(50):
        y = rng.normal(size=3)
        y -= y.mean()
        split = block_split(p21, y)
        assert np.allclose(split.join(), y, atol=1e-12)
        assert abs(split.aM @ split.aZ) < 1e-12
        assert abs(split.aM.sum()) < 1e-12
        # aM has zero block sums, aZ constant per block
        assert abs(split.aM[0] + split.aM[1]) < 1e-12
        assert split.aZ[0] == pytest.approx(split.aZ[1])


def test_traceless_preserved_by_split(p3, rng):
    y = rng.normal(size=3)
    y -= y.mean()
    split = block_split(p3, y)
    assert abs(split.join().sum()) < 1e-12
