import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horocount import cosets as CS
from horocount.decompose import height as frame_height
from horocount.partitions import make_partition
from .test_acceptance import _disk_count_oracle


def E(n, i, j, t=1):
    m = [[1 if a == b else 0 for b in range(n)] for a in range(n)]
    m[i][j] = t
    return tuple(tuple(row) for row in m)


def test_exact_linear_algebra():
    m = ((2, 1), (1, 1))
    assert CS.int_det(m) == 1
    assert CS.mat_mul(m, CS.int_inverse_unimodular(m)) == E(2, 0, 0, 1)
    m3 = ((1, 2, 3), (0, 1, 4), (0, 0, 1))
    assert CS.int_det(m3) == 1
    inv = CS.int_inverse_unimodular(m3)
    assert CS.mat_mul(m3, inv) == tuple(tuple(int(i == j) for j in range(3)) for i in range(3))
    with pytest.raises(ValueError):
        CS.int_inverse_unimodular(((2, 0), (0, 2)))


def test_hermite_normal_form_canonical():
    # same lattice under unimodular recombination -> same HNF
    h1 = CS.hermite_normal_form([(2, 0, 1), (0, 3, 1)])
    h2 = CS.hermite_normal_form([(2, 3, 2), (0, 3, 1)])
    assert h1 == h2
    with pytest.raises(ValueError):
        CS.hermite_normal_form([(1, 2, 0), (2, 4, 0)])


def test_solve_dot_one():
    for w in [(2, 3), (-1, 0), (0, 1), (6, 10, 15), (-3, 5, -7)]:
        x, kernel = CS.solve_dot_one(w)
        assert sum(a * b for a, b in zip(w, x)) == 1
        for k in kernel:
            assert sum(a * b for a, b in zip(w, k)) == 0
        assert len(kernel) == len(w) - 1


def test_stabilizer_membership_examples(p2):
    assert CS.stabilizer_membership(E(2, 0, 1, 1), p2)
    assert not CS.stabilizer_membership(E(2, 1, 0, 1), p2)
    assert not CS.stabilizer_membership(((0, -1), (1, 0)), p2)
    # -I is a signed diagonal with det 1
    assert CS.stabilizer_membership(((-1, 0), (0, -1)), p2)


def test_stabilizer_membership_block(p21):
    swap = ((0, 1, 5), (1, 0, -2), (0, 0, -1))  # block signed permutation, det 1
    assert CS.int_det(swap) == 1
    assert CS.stabilizer_membership(swap, p21)
    bad = ((1, 1, 0), (0, 1, 0), (0, 0, 1))  # intra-block shear is not signed-perm
    assert not CS.stabilizer_membership(bad, p21)


def test_same_coset_examples(p2, rng):
    gamma = CS.random_slnz(2, rng, 8)
    assert CS.same_coset(gamma, CS.mat_mul(gamma, E(2, 0, 1, 5)), p2)
    assert not CS.same_coset(E(2, 0, 0, 1), E(2, 1, 0, 1), p2)
    minus = ((-1, 0), (0, -1))
    assert CS.same_coset(gamma, CS.mat_mul(gamma, minus), p2)


def test_same_coset_equivalence(p21, rng):
    mats = [CS.random_slnz(3, rng, 9) for _ in range(8)]
    for g in mats:
        assert CS.same_coset(g, g, p21)
    for g1 in mats:
        for g2 in mats:
            assert CS.same_coset(g1, g2, p21) == CS.same_coset(g2, g1, p21)
    for g1 in mats[:4]:
        for g2 in mats[:4]:
            for g3 in mats[:4]:
                if CS.same_coset(g1, g2, p21) and CS.same_coset(g2, g3, p21):
                    assert CS.same_coset(g1, g3, p21)


def test_invariant_key_examples(p2):
    ident = E(2, 0, 0, 1)
    assert CS.coset_key(ident, p2) == CS.coset_key(E(2, 0, 1, 1), p2)
    assert CS.coset_key(ident, p2) != CS.coset_key(E(2, 1, 0, 1), p2)


def test_invariant_key_soundness_bulk(p2, p21, p12, rng):
    # same_coset(g, g h) implies equal keys, over 10^4 random pairs
    parts = [p2, p21, p12]
    for trial in range(10_000):
        part = parts[trial % 3]
        g = CS.random_slnz(part.n, rng, 6)
        h = CS.random_stabilizer_element(part, rng)
        assert CS.int_det(h) == 1
        gh = CS.mat_mul(g, h)
        assert CS.same_coset(g, gh, part)
        assert CS.coset_key(g, part) == CS.coset_key(gh, part)


_KEY_PARTITIONS = [make_partition(2, [1, 1]), make_partition(3, [2, 1]),
                   make_partition(3, [1, 2]), make_partition(3, [1, 1, 1]),
                   make_partition(4, [2, 2])]


@settings(max_examples=1000, deadline=None)
@given(part=st.sampled_from(_KEY_PARTITIONS), seed=st.integers(0, 2**32 - 1),
       words=st.tuples(st.integers(0, 8), st.integers(0, 8)), related=st.booleans())
def test_coset_key_is_exact(part, seed, words, related):
    # equal keys exactly when same_coset holds; short independent words
    # often land in the same coset, so both outcomes occur
    rng = np.random.default_rng(seed)
    g1 = CS.random_slnz(part.n, rng, words[0])
    if related:
        g2 = CS.mat_mul(g1, CS.random_stabilizer_element(part, rng))
    else:
        g2 = CS.random_slnz(part.n, rng, words[1])
    same = CS.same_coset(g1, g2, part)
    if related:
        assert same
    assert (CS.coset_key(g1, part) == CS.coset_key(g2, part)) == same


def test_height_well_defined_on_cosets(p2, p21, rng):
    for part in (p2, p21):
        for _ in range(500):
            g = CS.random_slnz(part.n, rng, 7)
            h = CS.random_stabilizer_element(part, rng)
            gh = CS.mat_mul(g, h)
            assert abs(CS.coset_height(g, part) - CS.coset_height(gh, part)) <= 1e-9


def test_coset_height_matches_frame(p21, p12, rng):
    for part in (p21, p12):
        for _ in range(50):
            g = CS.random_slnz(3, rng, 8)
            lean = CS.coset_height(g, part)
            full, _ = frame_height(np.array(g, dtype=float), part)
            assert lean == pytest.approx(full, abs=1e-9)


def test_enumerate_small_counts(p2, p3, p21):
    # two lifts touch the base point for N=2 (identity and the rotated
    # horocycle); six coordinate flags for N=3 singletons, three for [2,1]
    assert CS.enumerate_bfs(p2, 0.1).count == 2
    assert CS.enumerate_brute(p2, 0.1, entry_bound=3).count == 2
    assert CS.enumerate_brute(p2, 0.0).count == 2
    assert CS.enumerate_bfs(p3, 0.0).count == 6
    assert CS.enumerate_bfs(p21, 0.0).count == 3


def test_enumerate_methods_agree_n2(p2):
    for radius in (1.0, 2.0):
        bfs = CS.enumerate_bfs(p2, radius)
        brute = CS.enumerate_brute(p2, radius)
        assert CS.coset_sets_equal(bfs, brute)
        CS.check_brute_covers(bfs, brute)


def test_bfs_matches_disk_count_n2(p2):
    # no silent undercount: the walk reaches every coset of the disk count
    rep = CS.enumerate_bfs(p2, 6.0)
    assert rep.count == _disk_count_oracle(6.0) == 4620
    assert not rep.partial
    assert rep.params["states"] >= rep.count
    assert rep.params["last_new_depth"] <= rep.params["depth_reached"]
    assert CS.enumerate_bfs(p2, 7.0, margin=0.0).count == _disk_count_oracle(7.0) == 19036


def test_bfs_complete_at_margin_zero(p2, p3, p21, p12):
    # height-0 cosets join only through the identity's neighbours (about
    # 0.49 and 0.68 high), so the walk expands those whatever R + margin is
    for part in (p2, p3, p21, p12):
        for radius in (0.0, 0.3):
            bfs = CS.enumerate_bfs(part, radius, margin=0.0)
            brute = CS.enumerate_brute(part, radius)
            assert CS.coset_sets_equal(bfs, brute)
            assert bfs.params["expand_limit"] > radius
    assert CS.enumerate_bfs(p2, 0.0, margin=0.0).count == 2
    assert CS.enumerate_bfs(p3, 0.0, margin=0.0).count == 6


def test_enumerate_monotone(p2):
    counts = [CS.enumerate_bfs(p2, r).count for r in (0.5, 1.5, 2.5, 3.5)]
    assert counts == sorted(counts)


def test_boundary_flagging(p2):
    # radius exactly at a coset height: closed condition includes it, flagged
    target = CS.coset_height(E(2, 1, 0, 1), p2)  # sqrt2 * log sqrt2
    rep = CS.enumerate_bfs(p2, target)
    flagged = [r for r in rep.records if r.boundary]
    assert flagged
    assert all(abs(r.height - target) <= 1e-9 for r in flagged)


def test_brute_stabilize(p2):
    rep = CS.enumerate_brute(p2, 1.0, entry_bound=4, stabilize=True)
    assert rep.count == CS.enumerate_brute(p2, 1.0).count
    assert "stabilized_at" in rep.params


def test_resource_limit(p2):
    with pytest.raises(CS.ResourceLimitError) as info:
        CS.enumerate_bfs(p2, 4.0, max_states=50)
    partial = info.value.partial_report
    assert partial.partial
    assert partial.count >= 1
    assert partial.params["states"] == 51
    assert {"depth_reached", "last_new_depth"} <= partial.params.keys()


def test_inconsistency_detection(p2):
    bfs = CS.enumerate_bfs(p2, 2.0)
    crippled = CS.enumerate_brute(p2, 1.0)
    crippled_report = CS.EnumerationReport(
        partition=p2, radius=2.0, count=crippled.count, method="brute",
        records=crippled.records,
    )
    with pytest.raises(CS.InconsistencyError):
        CS.check_brute_covers(bfs, crippled_report)


def test_empirical_ratio_rows(p2):
    rows = CS.empirical_ratio(p2, [0.5, 1.5])
    assert [r["R"] for r in rows] == [0.5, 1.5]
    assert all(r["ratio"] is not None for r in rows)
    assert rows[0]["count"] == CS.enumerate_bfs(p2, 0.5).count


def test_empirical_ratio_degenerate_row(p3):
    rows = CS.empirical_ratio(p3, [0.0])
    assert rows[0]["count"] == 6
    assert rows[0]["asymptotic"] == 0.0
    assert rows[0]["ratio"] is None


def test_enumerate_rejects_large_n(p2):
    part = make_partition(4, [1, 1, 1, 1])
    with pytest.raises(NotImplementedError):
        CS.enumerate_brute(part, 1.0)
    # out-of-range radius and margin: a NaN radius gave 3 cosets, and at R=3
    # a NaN margin gave 3 and margin -5 gave 8 of the 68
    for radius, margin in ((math.nan, 2.0), (math.inf, 2.0), (-1.0, 2.0),
                           (3.0, math.nan), (3.0, math.inf), (3.0, -5.0)):
        with pytest.raises(ValueError):
            CS.enumerate_bfs(p2, radius, margin=margin)
    # the scan sized its entry box from exp(inf) and crashed with OverflowError
    for radius in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError):
            CS.enumerate_brute(p2, radius)
