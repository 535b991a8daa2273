import numpy as np
import pytest

from horocount import dynamics as D
from horocount.partitions import make_partition

ID, UNB = D.A_IDENTITY, D.A_UNBOUNDED
INF, ONE, ZERO = D.B_TO_INFINITY, D.B_CONSTANT_ONE, D.B_TO_ZERO


def test_spec_validation(p2, p21):
    with pytest.raises(ValueError):
        D.CleanSequenceSpec(p2, (UNB, ID), (ONE,))  # size-1 block can't be unbounded
    with pytest.raises(ValueError):
        D.CleanSequenceSpec(p2, (ID, ID), (ONE, ONE))  # no entry for the full prefix
    with pytest.raises(ValueError):
        D.CleanSequenceSpec(p2, (ID,), (ONE,))  # wrong arity
    with pytest.raises(ValueError):
        D.CleanSequenceSpec(p21, (ID, ID), ("sideways",))


def test_spec_is_a_checked_immutable_record(p21):
    with pytest.raises(ValueError):
        D.CleanSequenceSpec(p21, (ID, "sideways"), (ONE,))
    with pytest.raises(ValueError):
        D.CleanSequenceSpec(p21, (UNB, ID), (ONE, ONE))  # wrong prefix arity
    spec = D.CleanSequenceSpec(p21, (UNB, ID), (INF,))
    assert spec == D.CleanSequenceSpec(make_partition(3, [2, 1]), (UNB, ID), (INF,))
    with pytest.raises(AttributeError):
        spec.a_behavior = (ID, ID)


def test_classify_identity_sequence(p3):
    spec = D.CleanSequenceSpec(p3, (ID, ID, ID), (ONE, ONE))
    res = D.classify_limit(spec)
    assert res.nondivergent
    assert res.coarse_partition.sizes == p3.sizes
    assert res.block_roles == ("K", "K", "K")
    assert res.old_identity == (0, 1, 2)


def test_classify_full_merge_n2(p2):
    spec = D.CleanSequenceSpec(p2, (ID, ID), (INF,))
    res = D.classify_limit(spec)
    assert res.nondivergent
    assert res.coarse_partition.sizes == (2,)
    assert res.block_roles == ("M",)
    assert res.merged_new == (0,)


def test_classify_divergent_n2(p2):
    spec = D.CleanSequenceSpec(p2, (ID, ID), (ZERO,))
    res = D.classify_limit(spec)
    assert not res.nondivergent
    assert res.coarse_partition is None
    assert res.to_dict() == {"nondivergent": False}


def test_classify_old_unbounded(p21):
    spec = D.CleanSequenceSpec(p21, (UNB, ID), (ONE,))
    res = D.classify_limit(spec)
    assert res.nondivergent
    assert res.coarse_partition.sizes == (2, 1)
    assert res.block_roles == ("M", "K")
    assert res.old_unbounded == (0,)
    assert res.old_identity == (1,)


def test_classify_mixed_merge():
    part = make_partition(4, [1, 1, 1, 1])
    spec = D.CleanSequenceSpec(part, (ID,) * 4, (INF, ONE, INF))
    res = D.classify_limit(spec)
    assert res.nondivergent
    assert res.coarse_partition.sizes == (2, 2)
    assert res.block_roles == ("M", "M")
    assert res.merged_new == (0, 1)


def test_set_identity_on_all_clean_specs_n_le_4():
    specs = D.all_clean_specs(4)
    assert len(specs) == 129  # full behavior census over all partitions
    for spec in specs:
        res = D.classify_limit(spec)
        if not res.nondivergent:
            continue
        combined = sorted(res.merged_new + res.old_unbounded + res.old_identity)
        assert combined == list(range(res.coarse_partition.k0))
        # disjointness
        assert len(set(res.merged_new) & set(res.old_unbounded)) == 0
        assert len(set(res.merged_new) & set(res.old_identity)) == 0
        assert len(set(res.old_unbounded) & set(res.old_identity)) == 0
        # roles: M exactly on merged or unbounded, K on identity singles
        for idx in range(res.coarse_partition.k0):
            expect = "K" if idx in res.old_identity else "M"
            assert res.block_roles[idx] == expect


def test_coarsening_idempotent():
    for spec in D.all_clean_specs(4):
        res = D.classify_limit(spec)
        if not res.nondivergent or res.coarse_partition.k0 < 2:
            continue
        coarse = res.coarse_partition
        respec = D.CleanSequenceSpec(
            coarse,
            tuple(D.A_IDENTITY for _ in coarse.sizes),
            (ONE,) * (coarse.k0 - 1),
        )
        again = D.classify_limit(respec)
        assert again.coarse_partition.sizes == coarse.sizes


def test_stable_subspaces(p3, p21, p2):
    assert D.stable_subspaces(p3) == [(0,), (0, 1)]
    assert D.stable_subspaces(p21) == [(0, 1)]
    assert D.stable_subspaces(p2) == [(0,)]


def test_covolume_examples():
    t = 0.9
    b = np.array([np.exp(-t), np.exp(t)])
    a = np.ones(2)
    assert D.covolume(a, b, (0,)) == pytest.approx(np.exp(-t), rel=1e-14)
    assert D.covolume_gram(a, b, (0,)) == pytest.approx(np.exp(-t), rel=1e-12)


def test_covolume_gram_agreement(rng):
    part = make_partition(4, [2, 2])
    for _ in range(200):
        # block-determinant-one positive diagonal a
        x = rng.normal(size=4) * 0.8
        a = np.exp([x[0], -x[0], x[1], -x[1]])
        beta = rng.normal() * 0.7
        b = np.exp([beta, beta, -beta, -beta])
        prefix = (0, 1)
        closed = D.covolume(a, b, prefix)
        gram = D.covolume_gram(a, b, prefix)
        assert abs(closed / gram - 1.0) <= 1e-12


def test_nondivergence_matches_covolume_decay():
    # a prefix character dying <=> covolume of the matching prefix tends to 0
    for spec in D.all_clean_specs(3):
        res = D.classify_limit(spec)
        part = spec.partition
        decays = False
        for prefix in D.stable_subspaces(part):
            vals = []
            for t in range(1, 21):
                a, b = D.instantiate(spec, float(t))
                vals.append(D.covolume(a, b, prefix))
            if vals[-1] < 1e-6 and vals[-1] < vals[0]:
                decays = True
        assert res.nondivergent == (not decays)


def test_instantiate_realizes_behaviors(p21):
    spec = D.CleanSequenceSpec(p21, (UNB, ID), (INF,))
    a, b = D.instantiate(spec, 3.0)
    assert np.prod(a[:2]) == pytest.approx(1.0, rel=1e-12)  # block det one
    assert a[0] > 1.0 > a[1]  # chamber profile
    assert np.prod(b[:2]) == pytest.approx(np.exp(3.0), rel=1e-12)
    assert np.prod(b) == pytest.approx(1.0, rel=1e-12)


def test_only_stable_subspaces_govern_nondivergence():
    # along a nondivergent translate all prefix covolumes stay bounded
    # below, while some non-stable coordinate subspace may still decay:
    # restricting the criterion to the stable prefixes is what makes the
    # classification correct
    part = make_partition(3, [1, 1, 1])
    spec = D.CleanSequenceSpec(part, (ID, ID, ID), (INF, INF))
    assert D.classify_limit(spec).nondivergent
    a20, b20 = D.instantiate(spec, 20.0)
    for prefix in D.stable_subspaces(part):
        assert D.covolume(a20, b20, prefix) >= 1.0
    # the non-stable line spanned by the last coordinate collapses
    assert D.covolume_gram(a20, b20, (2,)) < 1e-6
