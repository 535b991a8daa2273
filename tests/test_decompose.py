import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from horocount.decompose import block_cartan, height, langlands_decompose, qr_positive
from horocount.partitions import make_partition

from .cartan_helpers import block_split
from .conftest import random_sl


def symmetric_space_distance(g):
    """Trace-form distance from gK to the base point: norm of log singular values."""
    sv = np.linalg.svd(np.asarray(g, dtype=float), compute_uv=False)
    return float(np.linalg.norm(np.log(sv)))


def min_distance_over_horocycle_n2(g):
    """Independent oracle at N=2: minimize dist(g*u*K, o) over the horocycle."""

    def objective(s):
        u = np.array([[1.0, s], [0.0, 1.0]])
        return symmetric_space_distance(g @ u)

    # the distance is unimodal in s and unbounded at both ends, so a
    # two-point start lets Brent expand the bracket downhill
    best = math.inf
    for start in (-5.0, 0.0, 5.0):
        res = minimize_scalar(objective, bracket=(start - 1, start + 1),
                              method="brent", options={"xtol": 1e-12})
        best = min(best, res.fun)
    return best


def test_qr_positive_examples():
    q, r = qr_positive(np.eye(2))
    assert np.allclose(q, np.eye(2)) and np.allclose(r, np.eye(2))
    g = np.diag([2.0, 0.5])
    q, r = qr_positive(g)
    assert np.allclose(q, np.eye(2)) and np.allclose(r, g)
    w = np.array([[0.0, -1.0], [1.0, 0.0]])
    q, r = qr_positive(w)
    assert np.allclose(q, w, atol=1e-12)
    assert np.allclose(q.T @ q, np.eye(2), atol=1e-12)
    assert np.allclose(r, q.T @ w, atol=1e-12)
    assert np.allclose(r, np.eye(2), atol=1e-12)


def test_qr_positive_properties(rng):
    for n in (2, 3, 4):
        for _ in range(20):
            g = random_sl(rng, n)
            q, r = qr_positive(g)
            assert np.allclose(q @ r, g, atol=1e-10 * np.abs(g).max())
            assert np.all(np.diag(r) > 0)
            assert np.allclose(q.T @ q, np.eye(n), atol=1e-12)


def test_qr_singular_rejected():
    with pytest.raises(np.linalg.LinAlgError):
        qr_positive(np.array([[1.0, 1.0], [1.0, 1.0]]))


def test_qr_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        qr_positive(np.ones((2, 3)))


def test_langlands_pure_cases(p21):
    b0 = np.array([0.2, 0.2, -0.4])
    g = np.diag(np.exp(b0))
    km, b, u = langlands_decompose(g, p21)
    assert np.allclose(km, np.eye(3), atol=1e-12)
    assert np.allclose(b, b0, atol=1e-12)
    assert np.allclose(u, np.eye(3), atol=1e-12)

    g = np.eye(3)
    g[0, 2], g[1, 2] = 3.0, -2.0  # unipotent for blocks [2,1]
    km, b, u = langlands_decompose(g, p21)
    assert np.allclose(km, np.eye(3), atol=1e-12)
    assert np.allclose(b, 0.0, atol=1e-12)
    assert np.allclose(u, g, atol=1e-12)


def test_langlands_hand_case(p2):
    g = np.array([[1.0, 0.0], [1.0, 1.0]])
    km, b, u = langlands_decompose(g, p2)
    # QR gives R = diag(sqrt2, 1/sqrt2) * unipotent, so exp(b) = (sqrt2, 1/sqrt2)
    assert np.allclose(np.exp(b), [math.sqrt(2), 1 / math.sqrt(2)], atol=1e-12)
    recon = km @ np.diag(np.exp(b)) @ u
    assert np.allclose(recon, g, atol=1e-12)
    assert abs(u[0, 1]) <= 0.5 + 1e-12  # triangular factor splits off cleanly


def test_langlands_b_block_constant(p21, rng):
    for _ in range(20):
        g = random_sl(rng, 3)
        km, b, u = langlands_decompose(g, p21)
        assert b[0] == pytest.approx(b[1], abs=1e-12)
        assert abs(b.sum()) < 1e-10
        assert np.allclose(km @ np.diag(np.exp(b)) @ u, g, atol=1e-9 * np.abs(g).max())
        # u is block unipotent: identity diagonal blocks
        assert np.allclose(u[:2, :2], np.eye(2), atol=1e-12)
        assert u[2, 2] == pytest.approx(1.0, abs=1e-12)


def test_block_cartan_examples(p21):
    c1, a, c2 = block_cartan(np.eye(3), p21)
    assert np.allclose(c1, np.eye(3)) and np.allclose(a, 0.0) and np.allclose(c2, np.eye(3))

    m = np.diag([2.0, 0.5, 1.0])
    c1, a, c2 = block_cartan(m, p21)
    assert np.allclose(a, [math.log(2), -math.log(2), 0.0], atol=1e-12)
    assert np.allclose(c1 @ np.diag(np.exp(a)) @ c2, m, atol=1e-12)
    assert np.linalg.det(c1[:2, :2]) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.det(c2[:2, :2]) == pytest.approx(1.0, abs=1e-12)


def _unit_det_block(rng):
    """Random 2x2 block with determinant 1."""
    blk = rng.normal(size=(2, 2))
    d = np.linalg.det(blk)
    blk /= math.sqrt(abs(d))
    if d < 0:
        blk[0] *= -1.0
    return blk


def test_block_cartan_random(p21, rng):
    for _ in range(30):
        m = np.eye(3)
        blk = _unit_det_block(rng)
        m[:2, :2] = blk
        c1, a, c2 = block_cartan(m, p21)
        assert np.allclose(c1 @ np.diag(np.exp(a)) @ c2, m, atol=1e-10 * max(1, np.abs(m).max()))
        # chamber: weakly decreasing within the block
        assert a[0] >= a[1] - 1e-12
        # independent oracle: eigenvalues of m^T m
        ev = np.linalg.eigvalsh(blk.T @ blk)
        assert np.allclose(np.sort(np.exp(2 * a[:2])), np.sort(ev), rtol=1e-9)


def test_block_cartan_rejects_bad_block(p21):
    m = np.diag([2.0, 1.0, 0.5])  # first block has det 2
    with pytest.raises(ValueError):
        block_cartan(m, p21)


def test_block_cartan_rejects_bad_shape_and_off_block_entries(p21):
    with pytest.raises(ValueError, match="shape"):
        block_cartan(np.eye(2), p21)
    m = np.eye(3)
    m[0, 2] = 1.0   # unit block determinants, but an entry off the blocks
    with pytest.raises(ValueError, match="not block diagonal"):
        block_cartan(m, p21)


def test_height_rejects_bad_input(p21):
    with pytest.raises(ValueError, match="shape"):
        height(np.eye(2), p21)
    with pytest.raises(ValueError, match="determinant 1"):
        height(np.diag([2.0, 1.0, 1.0]), p21)


def test_height_examples(p2):
    h, _ = height(np.eye(2), p2)
    assert h == pytest.approx(0.0, abs=1e-12)
    t = 0.8
    h, _ = height(np.diag([math.exp(t), math.exp(-t)]), p2)
    assert h == pytest.approx(math.sqrt(2) * t, rel=1e-12)
    g = np.array([[1.0, 0.0], [1.0, 1.0]])
    h, _ = height(g, p2)
    assert h == pytest.approx(math.log(2) / math.sqrt(2), abs=1e-9)


def test_height_matches_geodesic_oracle_n2(p2, rng):
    # the hand case plus random integer matrices
    cases = [np.array([[1.0, 0.0], [1.0, 1.0]])]
    for _ in range(10):
        a, b = int(rng.integers(-4, 5)), int(rng.integers(-4, 5))
        g = np.array([[1.0, float(a)], [0.0, 1.0]]) @ np.array([[1.0, 0.0], [float(b), 1.0]])
        cases.append(g)
    for g in cases:
        h, _ = height(g, p2)
        oracle = min_distance_over_horocycle_n2(g)
        assert h == pytest.approx(oracle, abs=1e-7)


def _random_stabilizer_identity_component(partition, rng):
    """Random element of K_blocks * U: block rotations times block unipotent."""
    n = partition.n
    kb = np.eye(n)
    for blk in partition.blocks:
        m = len(blk)
        if m == 1:
            continue
        q, _ = np.linalg.qr(rng.normal(size=(m, m)))
        if np.linalg.det(q) < 0:
            q[:, 0] *= -1
        sl = slice(blk[0], blk[-1] + 1)
        kb[sl, sl] = q
    u = np.eye(n)
    for i in range(n):
        for j in range(i + 1, n):
            if partition.block_of[i] != partition.block_of[j]:
                u[i, j] = rng.normal() * 2.0
    return kb @ u


def test_height_invariances(p21, p2, rng):
    for part in (p2, p21):
        n = part.n
        for _ in range(40):
            g = random_sl(rng, n)
            h0, _ = height(g, part)
            stab = _random_stabilizer_identity_component(part, rng)
            h1, _ = height(g @ stab, part)
            assert abs(h1 - h0) <= 1e-9 * max(1.0, h0)
            q, _ = np.linalg.qr(rng.normal(size=(n, n)))
            if np.linalg.det(q) < 0:
                q[:, 0] *= -1
            h2, _ = height(q @ g, part)
            assert abs(h2 - h0) <= 1e-9 * max(1.0, h0)


def test_height_busemann_monotonicity(p21, rng):
    # for m in M*A and u in U: height(m u) >= height(m) (equality by
    # right-U-invariance, asserted as the one-sided bound)
    for _ in range(40):
        m = np.eye(3)
        blk = _unit_det_block(rng)
        m[:2, :2] = blk
        scale = math.exp(rng.normal() * 0.5)
        m = m @ np.diag([scale, scale, scale ** -2])
        u = np.eye(3)
        u[0, 2], u[1, 2] = rng.normal() * 3, rng.normal() * 3
        hm, _ = height(m, p21)
        hmu, _ = height(m @ u, p21)
        assert hmu >= hm - 1e-9


def test_b_additivity(p21, rng):
    # right multiplication by a block-scalar exp(b1) shifts the b component
    # additively: exp(b1) is central in the Levi and normalizes U
    for _ in range(20):
        g = random_sl(rng, 3)
        _, b_g, _ = langlands_decompose(g, p21)
        beta = rng.normal() * 0.7
        b1 = np.array([beta, beta, -2 * beta])
        _, b_shift, _ = langlands_decompose(g @ np.diag(np.exp(b1)), p21)
        assert np.allclose(b_shift, b1 + b_g, atol=1e-9)


def test_frame_fields(p21, rng):
    g = random_sl(rng, 3)
    h, fr = height(g, p21)
    # k orthogonal
    assert np.allclose(fr.k.T @ fr.k, np.eye(3), atol=1e-10)
    # c block-diagonal orthogonal
    assert np.allclose(fr.c[2, :2], 0.0, atol=1e-12)
    assert np.allclose(fr.c[:2, 2], 0.0, atol=1e-12)
    assert np.allclose(fr.c.T @ fr.c, np.eye(3), atol=1e-10)
    # chamber and block structure of aM, b
    assert fr.aM[0] >= fr.aM[1] - 1e-12
    assert fr.aM[2] == pytest.approx(0.0, abs=1e-12)
    assert fr.b[0] == pytest.approx(fr.b[1], abs=1e-12)
    # orthogonal split reproduces the height
    sp = block_split(p21, fr.aM + fr.b)
    assert np.allclose(sp.aM, fr.aM, atol=1e-12)
    assert h == pytest.approx(math.hypot(np.linalg.norm(fr.aM), np.linalg.norm(fr.b)), rel=1e-12)
