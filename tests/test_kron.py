import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import kron, make_rng, max_pvl_terms, pvl_decompose, vanloan_unrearrange
from sckpd.model import vanloan_rearrange


def test_kron_identity():
    assert np.array_equal(kron(np.eye(3), np.eye(4)), np.eye(12))


def test_kron_scalar_block():
    B = make_rng(0).normal(size=(3, 3))
    assert np.allclose(kron(np.array([[2.0]]), B), 2.0 * B)


def test_kron_entry_definition():
    rng = make_rng(1)
    A, B = rng.normal(size=(2, 2)), rng.normal(size=(2, 2))
    # entry (2, 3) sits in block (1, 1) at inner position (0, 1)
    assert np.isclose(kron(A, B)[2, 3], A[1, 1] * B[0, 1])


def test_rearrange_rank_one_on_kron():
    rng = make_rng(2)
    A, B = rng.normal(size=(3, 3)), rng.normal(size=(2, 2))
    R = vanloan_rearrange(kron(A, B), 3, 2)
    assert np.linalg.matrix_rank(R) == 1


def test_rearrange_rank_two_on_sum():
    rng = make_rng(3)
    S = kron(rng.normal(size=(3, 3)), rng.normal(size=(2, 2))) \
        + kron(rng.normal(size=(3, 3)), rng.normal(size=(2, 2)))
    assert np.linalg.matrix_rank(vanloan_rearrange(S, 3, 2)) <= 2


def test_rearrange_round_trip():
    rng = make_rng(4)
    S = rng.normal(size=(12, 12))
    assert np.allclose(vanloan_unrearrange(vanloan_rearrange(S, 3, 4), 3, 4), S)


def test_pvl_exact_on_single_kron():
    rng = make_rng(5)
    A, B = rng.normal(size=(3, 3)), rng.normal(size=(2, 2))
    S = kron(A, B)
    dec = pvl_decompose(S, 3, 2, 1)
    assert dec.residual_fro < 1e-12 * np.linalg.norm(S)
    assert np.allclose(kron(dec.left[0], dec.right[0]), S, atol=1e-12)


def test_pvl_full_reconstruction_symmetric():
    rng = make_rng(6)
    S = rng.normal(size=(6, 6))
    S = S + S.T
    dec = pvl_decompose(S, 3, 2, 4)
    assert dec.residual_fro < 1e-10 * np.linalg.norm(S)
    assert np.linalg.norm(dec.reconstruct() - S) < 1e-10 * np.linalg.norm(S)


def test_pvl_strictly_lower_block_sparse():
    # admissible sparsity: nonzero only on strictly-lower blocks, strictly
    # lower inside each block; the best single Kronecker factor pair then
    # inherits strict lower triangularity
    rng = make_rng(7)
    d1, d2 = 3, 2
    Psi = np.zeros((6, 6))
    for r in range(d1):
        for s in range(d1):
            if r > s:
                Psi[d2 * r:d2 * (r + 1), d2 * s:d2 * (s + 1)] = \
                    np.tril(rng.normal(size=(d2, d2)), -1)
    dec = pvl_decompose(Psi, d1, d2, 1)
    assert np.allclose(np.triu(dec.left[0]), 0, atol=1e-10)
    assert np.allclose(np.triu(dec.right[0]), 0, atol=1e-10)


def test_pvl_factor_parity_for_symmetric_source():
    # each factor of a symmetric source is symmetric or antisymmetric, the
    # parity matches inside a pair, and every Kronecker term is symmetric
    rng = make_rng(8)
    Y = rng.normal(size=(40, 6))
    S = Y.T @ Y
    dec = pvl_decompose(S, 3, 2, 4)
    for A, B in dec.terms:
        sym_a = np.linalg.norm(A - A.T) < 1e-10 * max(np.linalg.norm(A), 1.0)
        anti_a = np.linalg.norm(A + A.T) < 1e-10 * max(np.linalg.norm(A), 1.0)
        sym_b = np.linalg.norm(B - B.T) < 1e-10 * max(np.linalg.norm(B), 1.0)
        anti_b = np.linalg.norm(B + B.T) < 1e-10 * max(np.linalg.norm(B), 1.0)
        assert sym_a or anti_a
        assert (sym_a and sym_b) or (anti_a and anti_b)
        T = kron(A, B)
        assert np.linalg.norm(T - T.T) < 1e-10 * max(np.linalg.norm(T), 1.0)


def test_pvl_residual_monotone_in_terms():
    rng = make_rng(9)
    S = rng.normal(size=(12, 12))
    S = S + S.T
    resid = [pvl_decompose(S, 4, 3, k).residual_fro for k in range(1, 10)]
    assert all(a >= b - 1e-12 for a, b in zip(resid, resid[1:]))


def test_pvl_deterministic():
    rng = make_rng(10)
    S = rng.normal(size=(6, 6))
    d1, d2 = pvl_decompose(S, 3, 2, 4), pvl_decompose(S, 3, 2, 4)
    assert np.array_equal(d1.left, d2.left)
    assert np.array_equal(d1.right, d2.right)


def test_pvl_rejects_too_many_terms():
    with pytest.raises(ValueError):
        pvl_decompose(np.eye(6), 3, 2, 5)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_kron_algebra_identities(seed):
    rng = make_rng(seed)
    A, C = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
    B, D = rng.normal(size=(2, 2)), rng.normal(size=(2, 2))
    lhs = kron(A, B) @ kron(C, D)
    rhs = kron(A @ C, B @ D)
    assert np.allclose(lhs, rhs, atol=1e-12 * max(1, np.abs(rhs).max()))
    assert np.isclose(np.trace(kron(A, B)), np.trace(A) * np.trace(B), atol=1e-12)
    fro = np.sum(kron(A, B) ** 2)
    assert np.isclose(fro, np.sum(A ** 2) * np.sum(B ** 2), rtol=1e-12)


def _group_masks(d1, d2):
    d = d1 * d2
    g1 = np.zeros((d, d), bool)
    g2 = np.zeros((d, d), bool)
    g3 = np.zeros((d, d), bool)
    bad = np.zeros((d, d), bool)
    for r in range(d1):
        for s in range(d1):
            for v in range(d2):
                for w in range(d2):
                    i, j = d2 * r + v, d2 * s + w
                    g1[i, j] = r > s and v == w
                    g2[i, j] = r == s and v > w
                    g3[i, j] = r > s and v > w
                    bad[i, j] = r > s and v < w
    return g1, g2, g3, bad


def _greedy_structured_fit(L, d1, d2):
    """Constructive approximation of an arbitrary factor by the shared-diag
    Kronecker-sum form: rank-1 diagonal fit, exact Kronecker expansion of
    the doubly-strictly-lower content, and one least-squares component per
    mixed group."""
    from sckpd.model import assemble_ldagger
    from sckpd.model import SCKPDParams
    g1m, g2m, g3m, _ = _group_masks(d1, d2)
    delta = np.diag(L).reshape(d1, d2)
    U, s, Vt = np.linalg.svd(delta)
    D1 = np.sqrt(s[0]) * np.abs(U[:, 0])
    D2 = np.sqrt(s[0]) * np.abs(Vt[0, :])
    dec = pvl_decompose(np.where(g3m, L, 0.0), d1, d2, max_pvl_terms(d1, d2))
    low1 = [np.tril(A, -1) for A in dec.left]
    low2 = [np.tril(B, -1) for B in dec.right]
    s1, s2 = sum(low1), sum(low2)
    X = np.zeros((d1, d1))
    for r in range(d1):
        for c in range(r):
            num = sum(L[d2 * r + v, d2 * c + v] * D2[v] for v in range(d2))
            X[r, c] = num / np.sum(D2 ** 2)
    low1.append(X - s1)
    low2.append(np.zeros((d2, d2)))
    Yv = np.zeros((d2, d2))
    for v in range(d2):
        for w in range(v):
            num = sum(L[d2 * r + v, d2 * r + w] * D1[r] for r in range(d1))
            Yv[v, w] = num / np.sum(D1 ** 2)
    low1.append(np.zeros((d1, d1)))
    low2.append(Yv - s2)
    K = len(low1)
    params = SCKPDParams(lowers1=np.asarray(low1), lowers2=np.asarray(low2),
                         d1_diag=D1, d2_diag=D2, omega=np.full(K, 1.0 / K), theta=0.5)
    return assemble_ldagger(params)


@pytest.mark.parametrize("seed,dims", [(0, (3, 2)), (1, (4, 3)), (2, (3, 4)), (3, (4, 5))])
def test_structured_approximation_bound(seed, dims):
    # the unreachable energy is the strictly-upper content of the strictly
    # lower blocks; everything else is covered up to the rank-1 diagonal
    # error, which is at most the second largest diagonal entry
    from conftest import random_chol
    d1, d2 = dims
    rng = make_rng(100 + seed)
    L = random_chol(d1 * d2, rng)
    Lhat = _greedy_structured_fit(L, d1, d2)
    *_, bad = _group_masks(d1, d2)
    bad_energy = float(np.sqrt(np.sum(L[bad] ** 2)))
    second_diag = float(np.sort(np.diag(L))[-2])
    assert np.linalg.norm(Lhat - L) <= bad_energy + second_diag
