import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horocount import cli
from horocount import constants as C
from horocount import cosets as CS
from horocount.decompose import height as frame_height
from horocount.partitions import make_partition
from . import coset_helpers as H
from .cartan_helpers import compositions
from .test_acceptance import _disk_count_oracle


def E(n, i, j, t=1):
    m = [[1 if a == b else 0 for b in range(n)] for a in range(n)]
    m[i][j] = t
    return tuple(tuple(row) for row in m)


def test_exact_linear_algebra():
    m = ((2, 1), (1, 1))
    assert CS.int_det(m) == 1
    assert H.mat_mul(m, H.int_inverse_unimodular(m)) == E(2, 0, 0, 1)
    m3 = ((1, 2, 3), (0, 1, 4), (0, 0, 1))
    assert CS.int_det(m3) == 1
    inv = H.int_inverse_unimodular(m3)
    assert H.mat_mul(m3, inv) == tuple(tuple(int(i == j) for j in range(3)) for i in range(3))
    with pytest.raises(ValueError):
        H.int_inverse_unimodular(((2, 0), (0, 2)))


def test_solve_dot_one():
    for w in [(2, 3), (-1, 0), (0, 1), (6, 10, 15), (-3, 5, -7)]:
        x = CS.solve_dot_one(w)
        assert sum(a * b for a, b in zip(w, x)) == 1
    with pytest.raises(ValueError):
        CS.solve_dot_one((2, 4))


def test_brute_raises_on_wrong_determinant(monkeypatch):
    # the scan's completions have determinant one by construction, so a
    # wrong one is a fault of the scan, not a completion to skip
    real = CS.solve_dot_one
    monkeypatch.setattr(CS, "solve_dot_one", lambda w: tuple(2 * x for x in real(w)))
    with pytest.raises(RuntimeError, match="determinant 2"):
        CS.enumerate_brute(make_partition(3, [2, 1]), 0.3)


def test_brute_raises_on_second_derivation(monkeypatch):
    # a plane point listed twice derives its coset twice: a fault of the scan
    real = CS._plane_points
    monkeypatch.setattr(CS, "_plane_points",
                        lambda v, limit_sq: (p for p in real(v, limit_sq) for _ in range(2)))
    with pytest.raises(RuntimeError, match="twice"):
        CS.enumerate_brute(make_partition(3, [1, 1, 1]), 0.3)


def test_stabilizer_membership_examples(p2):
    assert H.stabilizer_membership(E(2, 0, 1, 1), p2)
    assert not H.stabilizer_membership(E(2, 1, 0, 1), p2)
    assert not H.stabilizer_membership(((0, -1), (1, 0)), p2)
    # -I is a signed diagonal with det 1
    assert H.stabilizer_membership(((-1, 0), (0, -1)), p2)


def test_stabilizer_membership_block(p21):
    swap = ((0, 1, 5), (1, 0, -2), (0, 0, -1))  # block signed permutation, det 1
    assert CS.int_det(swap) == 1
    assert H.stabilizer_membership(swap, p21)
    bad = ((1, 1, 0), (0, 1, 0), (0, 0, 1))  # intra-block shear is not signed-perm
    assert not H.stabilizer_membership(bad, p21)


def test_same_coset_examples(p2, rng):
    gamma = H.random_slnz(2, rng, 8)
    assert H.same_coset(gamma, H.mat_mul(gamma, E(2, 0, 1, 5)), p2)
    assert not H.same_coset(E(2, 0, 0, 1), E(2, 1, 0, 1), p2)
    minus = ((-1, 0), (0, -1))
    assert H.same_coset(gamma, H.mat_mul(gamma, minus), p2)


def test_same_coset_equivalence(p21, rng):
    mats = [H.random_slnz(3, rng, 9) for _ in range(8)]
    for g in mats:
        assert H.same_coset(g, g, p21)
    for g1 in mats:
        for g2 in mats:
            assert H.same_coset(g1, g2, p21) == H.same_coset(g2, g1, p21)
    for g1 in mats[:4]:
        for g2 in mats[:4]:
            for g3 in mats[:4]:
                if H.same_coset(g1, g2, p21) and H.same_coset(g2, g3, p21):
                    assert H.same_coset(g1, g3, p21)


def test_invariant_key_examples(p2):
    ident = E(2, 0, 0, 1)
    assert CS.coset_key(ident, p2) == CS.coset_key(E(2, 0, 1, 1), p2)
    assert CS.coset_key(ident, p2) != CS.coset_key(E(2, 1, 0, 1), p2)


def test_invariant_key_soundness_bulk(p2, p21, p12, rng):
    # same_coset(g, g h) implies equal keys, over 10^4 random pairs
    parts = [p2, p21, p12]
    for trial in range(10_000):
        part = parts[trial % 3]
        g = H.random_slnz(part.n, rng, 6)
        h = H.random_stabilizer_element(part, rng)
        assert CS.int_det(h) == 1
        gh = H.mat_mul(g, h)
        assert H.same_coset(g, gh, part)
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
    g1 = H.random_slnz(part.n, rng, words[0])
    if related:
        g2 = H.mat_mul(g1, H.random_stabilizer_element(part, rng))
    else:
        g2 = H.random_slnz(part.n, rng, words[1])
    same = H.same_coset(g1, g2, part)
    if related:
        assert same
    assert (CS.coset_key(g1, part) == CS.coset_key(g2, part)) == same


def test_height_well_defined_on_cosets(p2, p21, rng):
    for part in (p2, p21):
        for _ in range(500):
            g = H.random_slnz(part.n, rng, 7)
            h = H.random_stabilizer_element(part, rng)
            gh = H.mat_mul(g, h)
            assert abs(CS.coset_height(g, part) - CS.coset_height(gh, part)) <= 1e-9


def test_coset_height_matches_frame(p21, p12, rng):
    # blocks of size two have a closed form, larger ones the eigenvalues of
    # their integer Gram matrix
    parts = (p21, p12, make_partition(4, [3, 1]), make_partition(4, [1, 3]),
             make_partition(5, [4, 1]), make_partition(5, [2, 3]))
    for part in parts:
        for _ in range(50):
            g = H.random_slnz(part.n, rng, 8)
            lean = CS.coset_height(g, part)
            full, _ = frame_height(np.array(g, dtype=float), part)
            assert lean == pytest.approx(full, abs=1e-9)


@pytest.mark.parametrize("sizes, g", [
    ([1, 3], ((1, -1, -1, 1), (0, 1, 1, 0), (1, 0, 1, 0), (0, 0, 0, 1))),
    ([3, 1], ((1, 1, 0, 0), (1, 2, 0, 0), (1, 1, 1, 0), (1, 1, 0, 1))),
    ([4, 1], ((0, -1, 0, -1, 0), (0, 0, -1, 0, 0), (0, 0, 0, 1, 0), (-1, -1, -1, 0, 0),
              (0, 0, 0, 0, 1))),
    ([1, 4], ((-1, 0, 0, 0, 0), (0, -1, -1, -1, 0), (0, 0, 1, 0, 0), (0, 0, 0, 1, 0),
              (0, 0, 0, 0, 1))),
], ids=["1,3", "3,1", "4,1", "1,4"])
def test_block_height_is_a_function_of_the_coset(sizes, g):
    # every order and sign of the large block's columns that keeps the
    # determinant is the same coset: one key and one height, bit for bit
    # (eigvalsh rounds a reordered or re-signed Gram matrix differently);
    # and every W-translate has that height too, which the walk gives the
    # whole orbit
    n, m = len(g), max(sizes)
    part = make_partition(n, sizes)
    block = part.blocks[sizes.index(m)]
    columns = list(zip(*g))
    keys, heights = set(), set()
    for order in itertools.permutations(block):
        for signs in itertools.product((1, -1), repeat=m):
            cols = list(columns)
            for j, src, sign in zip(block, order, signs):
                cols[j] = tuple(sign * x for x in columns[src])
            h = tuple(zip(*cols))
            if CS.int_det(h) == 1:
                keys.add(CS.coset_key(h, part))
                heights.add(CS.coset_height(h, part))
    assert len(keys) == 1
    heights.update(CS.coset_height(H.mat_mul(w, g), part) for w in H.signed_permutations(n))
    assert len(heights) == 1


def test_enumerate_small_counts(p2, p3, p21):
    # two lifts touch the base point for N=2 (identity and the rotated
    # horocycle); six coordinate flags for N=3 singletons, three for [2,1]
    assert CS.enumerate_bfs(p2, 0.1).count == 2
    assert CS.enumerate_brute(p2, 0.1).count == 2
    assert CS.enumerate_brute(p2, 0.0).count == 2
    assert CS.enumerate_bfs(p3, 0.0).count == 6
    assert CS.enumerate_bfs(p21, 0.0).count == 3
    # the identity's orbit holds all 720 height-0 cosets of [1]^6, so at
    # R = 0 the walk expands nothing past it and checks no descent
    rep = CS.enumerate_bfs(make_partition(6, [1] * 6), 0.0)
    assert rep.count == 720
    assert rep.params["descent_checked"] == 0


def test_enumerate_methods_agree_n2(p2):
    for radius in (1.0, 2.0):
        bfs = CS.enumerate_bfs(p2, radius)
        brute = CS.enumerate_brute(p2, radius)
        assert CS.coset_sets_equal(bfs, brute)


def test_bfs_matches_disk_count_n2(p2):
    # no silent undercount: the walk reaches every coset of the disk count
    rep = CS.enumerate_bfs(p2, 6.0)
    assert rep.count == _disk_count_oracle(6.0) == 4620
    assert not rep.partial
    assert rep.params["states"] >= rep.count
    assert rep.params["last_new_depth"] <= rep.params["depth_reached"]
    assert CS.enumerate_bfs(p2, 7.0, margin=0.0).count == _disk_count_oracle(7.0) == 19036


def test_bfs_complete_at_margin_zero(p2, p3, p21, p12):
    # every height-0 coset is in the identity's orbit, at layer 0, so the
    # walk is complete below the identity's lowest neighbours (about 0.49
    # and 0.68 high), where it expands no coset past that orbit
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
    assert rep.params["boundary"] == len(flagged)
    assert all(abs(r.height - target) <= 1e-9 for r in flagged)


# the ids and names are those of the column scan's tests, whose counters
# these replace
@pytest.mark.parametrize("n, sizes, count, levels, completions", [
    pytest.param(2, [1, 1], 8, [8], 8, id="2-sizes0-8-1"),
    pytest.param(3, [1, 1, 1], 252, [73, 252], 252, id="3-sizes1-252-1.25"),
    pytest.param(3, [2, 1], 309, [73, 276], 861, id="3-sizes2-309-1"),
    pytest.param(3, [1, 2], 309, [73, 276], 861, id="3-sizes3-309-4.5"),
])
def test_brute_derives_each_coset_about_once(n, sizes, count, levels, completions):
    # each coset is derived exactly once (a second derivation raises).  At
    # N=3 the outer level holds the 73 primitive v up to sign with
    # |v| <= e^(R sqrt(2/3)); the [1, 1, 1] bound is its exact height, so every
    # (v, u) inside it is a coset; a pair derives its cosets plus one
    # completion above R at each end of the walk over k, 309 + 2 * 276 = 861;
    # [2, 1] and [1, 2] pass the same number of (v, u), their bounds being
    # each other's with x and y swapped
    rep = CS.enumerate_brute(make_partition(n, sizes), 1.5)
    assert rep.count == len(rep.records) == count
    assert rep.params["levels"] == levels
    assert rep.params["completions"] == completions


@pytest.mark.parametrize("n, sizes", [(2, [1, 1]), (3, [1, 1, 1]), (3, [2, 1]), (3, [1, 2])])
def test_brute_representatives_are_reduced(n, sizes):
    # every representative has determinant one, the record's key and, bit for
    # bit, its height, and a first column positive in its first nonzero entry
    part = make_partition(n, sizes)
    rep = CS.enumerate_brute(part, 1.5)
    assert rep.count == len(rep.records) > 0
    for rec in rep.records:
        assert CS.int_det(rec.representative) == 1
        assert CS.coset_key(rec.representative, part) == rec.key
        assert CS.coset_height(rec.representative, part) == rec.height
        first = [row[0] for row in rec.representative]
        assert next(x for x in first if x) > 0


@pytest.mark.parametrize("sizes, count", [([1, 1, 1], 25272), ([2, 1], 33753)],
                         ids=["1,1,1", "2,1"])
def test_brute_counts_past_the_walk(sizes, count):
    # R = 3 is past the walks in Tier-1; the counts are the stored ones
    rep = CS.enumerate_brute(make_partition(3, sizes), 3.0)
    assert rep.count == count


def test_resource_limit(p2):
    with pytest.raises(CS.ResourceLimitError) as info:
        CS.enumerate_bfs(p2, 4.0, max_states=50)
    partial = info.value.partial_report
    assert partial.partial
    assert partial.count >= 1
    assert partial.params["states"] == 51
    assert {"depth_reached", "last_new_depth"} <= partial.params.keys()


def test_inconsistency_detection(capsys, monkeypatch):
    # a scan that loses one coset: count --method both exits 3 and names
    # what each side lacks
    honest_scan = CS.enumerate_brute

    def crippled_scan(partition, radius, **kwargs):
        rep = honest_scan(partition, radius, **kwargs)
        return CS.EnumerationReport(rep.partition, rep.radius, rep.count - 1, rep.method,
                                    rep.records[:-1], rep.wall_time, rep.params, rep.partial)

    monkeypatch.setattr(CS, "enumerate_brute", crippled_scan)
    code = cli.dispatch(["count", "--n", "2", "--blocks", "1,1", "--radius", "2",
                         "--method", "both"])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("resource error: ")
    assert "scan lacks 1 of the walk's cosets and the walk lacks 0" in err


def test_empirical_ratio_degenerate_row(p3):
    # at R = 0 the stated asymptotic vanishes (R^(1/2)), so the ratio is undefined
    assert CS.enumerate_bfs(p3, 0.0).count == 6
    assert C.asymptotic_count(C.counting_constant(p3), 0.0) == 0.0


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
    # a state budget below one ran out at depth 1 (a resource error)
    for max_states in (0, -5):
        with pytest.raises(ValueError):
            CS.enumerate_bfs(p2, 3.0, max_states=max_states)
    # the scan sized its entry box from exp(inf) and crashed with OverflowError;
    # at R = 1e6 its bound overflowed (OverflowError), and a budget below one
    # is rejected as the walk's is
    for radius in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError):
            CS.enumerate_brute(p2, radius)
    with pytest.raises(ValueError, match="double range"):
        CS.enumerate_brute(make_partition(3, [1, 1, 1]), 1e6)
    for max_states in (0, -5):
        with pytest.raises(ValueError):
            CS.enumerate_brute(p2, 3.0, max_states=max_states)
    # a box past the state budget is refused before the scan (at N=2 R=600
    # numpy refused the array); a scan past it stops with its partial report
    with pytest.raises(CS.ResourceLimitError) as info:
        CS.enumerate_brute(p2, 600.0)
    assert info.value.partial_report.partial
    assert info.value.partial_report.count == 0
    with pytest.raises(CS.ResourceLimitError) as info:
        CS.enumerate_brute(make_partition(3, [2, 1]), 2.0, max_states=1400)  # 11^3 box
    partial = info.value.partial_report
    assert partial.partial and partial.count == len(partial.records) == 1401


_STATE_PARTITIONS = [(2, [1, 1]), (3, [2, 1]), (3, [1, 2]), (3, [1, 1, 1]),
                     (4, [2, 2]), (4, [1, 2, 1])]


def test_state_update_matches_matrix(rng):
    # stepping the wedge state by a generator's table gives the state of
    # the left-multiplied matrix, along 1200 random words
    for trial in range(1200):
        part = make_partition(*_STATE_PARTITIONS[trial % len(_STATE_PARTITIONS)])
        layout = CS._layout(part)
        gens = CS._generators(part.n)
        g = H.random_slnz(part.n, rng, int(rng.integers(0, 6)))
        state = CS._matrix_state(g, layout)
        for _ in range(int(rng.integers(1, 13))):
            idx = int(rng.integers(len(gens)))
            g = CS._left_apply(g, gens[idx])
            state = CS._step(state, layout.steps[idx])
            assert state == CS._matrix_state(g, layout)


_ALL_PARTITIONS = [(n, sizes) for n in range(2, 6) for sizes in compositions(n)]


def _turn_matrix(rows):
    n = len(rows)
    return tuple(tuple(c if j == s else 0 for j in range(n)) for s, c in rows)


def test_quarter_turns_generate_w():
    # the turns have determinant one and generate all 2^(n-1) n! elements of W
    for n in range(2, 6):
        turns = [_turn_matrix(rows) for rows in CS._quarter_turns(n)]
        assert all(CS.int_det(w) == 1 for w in turns)
        group = {tuple(tuple(int(i == j) for j in range(n)) for i in range(n))}
        layer = list(group)
        while layer:
            layer = {H.mat_mul(w, g) for g in layer for w in turns} - group
            group |= layer
        assert group == set(H.signed_permutations(n))
        assert len(group) == 2 ** (n - 1) * math.factorial(n)


def test_turn_tables_match_matrix(rng):
    # each turn's table maps the state of g to that of w g, for integer g of
    # any determinant, on every partition up to N=5: a wrong sign fails
    assert len(_ALL_PARTITIONS) == 1 + 3 + 7 + 15
    for n, sizes in _ALL_PARTITIONS:
        layout = CS._layout(make_partition(n, sizes))
        assert len(layout.turns) == n - 1
        for _ in range(8):
            g = tuple(tuple(int(x) for x in row) for row in rng.integers(-6, 7, size=(n, n)))
            state = CS._matrix_state(g, layout)
            for rows, coords in layout.turns:
                wg = H.mat_mul(_turn_matrix(rows), g)
                assert CS._turn_rows(g, rows) == wg
                assert CS._turn(state, coords) == CS._matrix_state(wg, layout)


def _pair_turns(n):
    """Quarter turns in every coordinate plane (i, j): a generating set of W
    built apart from the walk's."""
    turns = []
    for i, j in itertools.combinations(range(n), 2):
        w = [[int(a == b) for b in range(n)] for a in range(n)]
        w[i][i] = w[j][j] = 0
        w[i][j], w[j][i] = 1, -1
        turns.append(tuple(tuple(row) for row in w))
    return turns


@pytest.mark.parametrize("n, sizes, radius", [
    (3, sizes, 2.0) for sizes in ([1, 1, 1], [2, 1], [1, 2])] + [
    (4, sizes, 1.0) for sizes in compositions(4)])
def test_walk_records_are_closed_under_w(n, sizes, radius):
    # W keeps the height, so the ball's cosets are a union of W-orbits, and
    # the walk gives every coset of an orbit its representative's height
    part = make_partition(n, sizes)
    rep = CS.enumerate_bfs(part, radius)
    heights = {rec.key: rec.height for rec in rep.records}
    assert len(heights) == rep.count
    for rec in rep.records:
        for w in _pair_turns(n):
            assert heights[CS.coset_key(H.mat_mul(w, rec.representative), part)] == rec.height


@pytest.mark.parametrize("sizes, count", [([1, 1, 1, 1], 20736), ([2, 1, 1], 18336),
                                          ([1, 1, 2], 18336)],
                         ids=["1,1,1,1", "2,1,1", "1,1,2"])
def test_walk_counts_n4(sizes, count):
    # [2,1,1] and [1,1,2] are each other's reversal, so their counts agree
    rep = CS.enumerate_bfs(make_partition(4, sizes), 1.5)
    assert rep.count == count
    assert rep.params["descent_failures"] == 0


def test_walk_diagnostics(p21):
    # new_per_depth is the histogram of the graph distance from the
    # permutation cosets inside the ball, found here by a plain search over
    # the records; orbits and boundary recount the records
    rep = CS.enumerate_bfs(p21, 1.5)
    params = rep.params
    by_key = {rec.key: rec for rec in rep.records}
    layer = [key for key, rec in by_key.items() if rec.height <= CS.HEIGHT_TOL]
    histogram = []
    seen = set()
    while layer:
        histogram.append(len(layer))
        seen.update(layer)
        layer = {CS.coset_key(CS._left_apply(by_key[key].representative, gen), p21)
                 for key in layer for gen in CS._generators(3)}
        layer = [key for key in layer if key in by_key and key not in seen]
    assert len(seen) == rep.count == 309
    assert histogram[0] == 3  # the permutation cosets, one orbit at layer 0
    assert params["new_per_depth"] == histogram + [0]
    assert params["last_new_depth"] == len(histogram) - 1
    assert params["depth_reached"] == len(histogram)
    orbits = {frozenset(H.orbit_keys(rec.representative, p21)) for rec in rep.records}
    assert sum(map(len, orbits)) == rep.count
    assert params["orbits"] == len(orbits) < rep.count
    assert params["boundary"] == sum(rec.boundary for rec in rep.records)
    assert params["states"] >= rep.count


def test_walk_records_match_matrix_key_and_height(p2, p3, p21, p12):
    # the walk's incremental keys and heights equal those of its
    # representatives, bit for bit (the [3,1] heights take the Gram
    # eigenvalue path)
    cases = [(p2, 3.0, 2.0), (p3, 1.5, 0.6), (p21, 1.5, 0.6), (p12, 1.5, 0.6),
             (make_partition(4, [2, 2]), 0.6, 0.3),
             (make_partition(4, [1, 2, 1]), 0.6, 0.3),
             (make_partition(4, [3, 1]), 0.5, 0.0)]
    for part, radius, margin in cases:
        rep = CS.enumerate_bfs(part, radius, margin=margin)
        assert rep.count == len(rep.records) > 1
        for rec in rep.records:
            assert CS.coset_key(rec.representative, part) == rec.key
            assert CS.coset_height(rec.representative, part) == rec.height


def _reversal(g):
    """w0 g^(-T) w0, w0 the antidiagonal signed permutation of determinant one."""
    n = len(g)
    w0 = [[int(i + j == n - 1) for j in range(n)] for i in range(n)]
    w0[0][n - 1] = (-1) ** (n * (n - 1) // 2)  # the sign of the reversal
    w0 = tuple(tuple(row) for row in w0)
    inv_t = tuple(zip(*H.int_inverse_unimodular(g)))
    return H.mat_mul(H.mat_mul(w0, inv_t), w0)


@pytest.mark.parametrize("n, sizes, radius, margin, count", [
    (3, [2, 1], 1.5, 0.6, 309),
    (3, [1, 1, 1], 1.5, 0.6, 252),
    (4, [2, 1, 1], 1.0, 0.0, 1320),
    (4, [3, 1], 1.0, 0.0, 720),
])
def test_reversal_duality_is_key_bijection(n, sizes, radius, margin, count):
    # g -> w0 g^(-T) w0 maps the stabilizer of a partition onto that of the
    # reversed partition and keeps the height: a bijection of coset keys
    part = make_partition(n, sizes)
    dual = make_partition(n, sizes[::-1])
    rep = CS.enumerate_bfs(part, radius, margin=margin)
    dual_rep = rep if dual == part else CS.enumerate_bfs(dual, radius, margin=margin)
    assert rep.count == dual_rep.count == count
    dual_heights = {rec.key: rec.height for rec in dual_rep.records}
    mapped = {}
    for rec in rep.records:
        image = _reversal(rec.representative)
        assert CS.int_det(image) == 1
        mapped[CS.coset_key(image, dual)] = rec.height
    assert mapped.keys() == dual_heights.keys()
    for key, h in mapped.items():
        assert abs(h - dual_heights[key]) <= 1e-12


@pytest.mark.parametrize("sizes", [[1, 1, 1], [2, 1], [1, 2]])
def test_descent_property_n3(sizes):
    # every coset of positive height has an E_ij(+-1) neighbour strictly
    # lower, which is what makes a walk at margin 0 complete
    part = make_partition(3, sizes)
    rep = CS.enumerate_bfs(part, 2.0, margin=0.6)
    gens = CS._generators(3)
    positive = [rec for rec in rep.records if rec.height > CS.HEIGHT_TOL]
    assert len(positive) == rep.count - (6 if sizes == [1, 1, 1] else 3)
    for rec in positive:
        assert any(
            CS.coset_height(CS._left_apply(rec.representative, gen), part)
            < rec.height - CS.HEIGHT_TOL
            for gen in gens
        ), rec.representative


@pytest.mark.parametrize("n, sizes, radius, count", [
    (2, [1, 1], 6.0, 4620), (3, [1, 1, 1], 2.5, 5856), (3, [2, 1], 2.5, 7245),
    (3, [1, 2], 2.5, 7245), (4, [2, 1, 1], 1.0, 1320), (4, [2, 2], 1.0, 1050),
    (4, [3, 1], 1.0, 720),
])
def test_descent_check_holds_at_margin_zero(n, sizes, radius, count):
    # the default walk checks the descent lemma on every coset it expands,
    # and it expands exactly the cosets it counts
    rep = CS.enumerate_bfs(make_partition(n, sizes), radius)
    assert rep.params["margin"] == 0.0
    assert rep.count == count
    assert rep.params["descent_failures"] == 0
    positive = sum(rec.height > CS.HEIGHT_TOL for rec in rep.records)
    assert rep.params["descent_checked"] == positive > 0


def test_descent_check_flags_a_local_minimum(p2, monkeypatch):
    # pin the orbit of the column (2, 1), about 1.14 high, at 0.01: the
    # cosets (2, 1) and (1, -2) under the signed permutations.  All their
    # neighbours are higher, so the check counts them, and only them; the
    # check never changes the count
    honest = CS.enumerate_bfs(p2, 2.0)
    assert honest.params["descent_failures"] == 0
    g = ((2, 1), (1, 1))
    assert H.orbit_keys(g, p2) == {(2, 1), (1, -2)}
    monkeypatch.setattr(CS, "_state_height", H.pinned_height(g, p2, 0.01))
    rep = CS.enumerate_bfs(p2, 2.0)
    assert rep.params["descent_failures"] == 2
    assert rep.params["descent_checked"] == honest.params["descent_checked"]
    assert rep.count == honest.count
    assert {rec.key for rec in rep.records} == {rec.key for rec in honest.records}
