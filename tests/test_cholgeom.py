"""The Cholesky factorization of sckpd.hyper, and the Kronecker structure of a
Cholesky factor as the Van Loan rearrangement sees it."""

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import lapack

from conftest import kron, make_rng, pvl_decompose, random_chol, random_spd
from sckpd.hyper import NotPositiveDefiniteError, cholesky


# ----- cholesky -------------------------------------------------------------

def test_cholesky_identity():
    assert np.allclose(cholesky(np.eye(5)), np.eye(5))


def test_cholesky_two_by_two():
    S = np.array([[4.0, 2.0], [2.0, 3.0]])
    L = cholesky(S)
    assert np.allclose(L, [[2.0, 0.0], [1.0, np.sqrt(2.0)]])
    assert np.allclose(L @ L.T, S, atol=1e-14)


def test_cholesky_diagonal():
    v = np.array([4.0, 9.0, 0.25])
    assert np.allclose(cholesky(np.diag(v)), np.diag(np.sqrt(v)))


def test_cholesky_reports_failing_minor():
    S = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(NotPositiveDefiniteError, match="order 2"):
        cholesky(S)


def test_cholesky_rejects_tiny_positive_pivot():
    # LAPACK accepts the second pivot (about 1e-15); the pivot floor, a
    # share of each column's variance, does not, at any scale: at 1e8 the
    # pivot is about 1e-7.  A rank-deficient matrix is refused at the order
    # past its rank at every scale too.
    S = np.array([[1.0, 1.0, 0.0], [1.0, 1.0 + 1e-15, 0.0], [0.0, 0.0, 1.0]])
    A = make_rng(3).normal(size=(6, 3))
    for c in (1e-8, 1.0, 1e8):
        for deficient, order in ((S, 2), (A @ A.T, 4)):
            with pytest.raises(NotPositiveDefiniteError) as err:
                cholesky(c * deficient)
            assert err.value.order == order and f"order {order}" in str(err.value)


def test_cholesky_rejects_asymmetric():
    with pytest.raises(ValueError, match="symmetric"):
        cholesky(np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_cholesky_round_trip():
    rng = make_rng(0)
    for _ in range(5):
        L = random_chol(6, rng)
        assert np.allclose(cholesky(L @ L.T), L, atol=1e-10)


def test_cholesky_reconstruction_accuracy():
    rng = make_rng(1)
    S = random_spd(8, rng)
    L = cholesky(S)
    assert np.linalg.norm(L @ L.T - S) / np.linalg.norm(S) < 1e-12


def test_cholesky_failing_order_matches_lapack():
    # S = U D U^T with U unit lower triangular has the Cholesky pivots D, so a
    # negative D[k-1] makes leading minor k the first to fail
    rng = make_rng(7)
    for n in range(1, 13):
        for k in range(1, n + 1):
            U = np.tril(rng.normal(0.0, 0.5, (n, n)), -1) + np.eye(n)
            D = rng.uniform(0.5, 2.0, n)
            D[k - 1] = -rng.uniform(0.5, 2.0)
            S = (U * D) @ U.T
            S = 0.5 * (S + S.T)
            info = lapack.dpotrf(S, lower=1)[1]
            assert info == k
            with pytest.raises(NotPositiveDefiniteError) as err:
                cholesky(S)
            assert err.value.order == info


def test_cholesky_matches_scipy_on_spd():
    rng = make_rng(8)
    for n in range(1, 13):
        S = random_spd(n, rng)
        expect = scipy.linalg.cholesky(S, lower=True)
        assert np.linalg.norm(cholesky(S) - expect) <= 1e-13 * np.linalg.norm(expect)


# ----- Kronecker structure of a Cholesky factor ---------------------------

def test_pvl_rank_one_residual_of_kron_chol():
    # a true Kronecker factor has a tiny rank-1 rearrangement residual
    rng = make_rng(13)
    L = kron(random_chol(3, rng), random_chol(2, rng))
    dec = pvl_decompose(L, 3, 2, 1)
    assert dec.residual_fro < 1e-10 * np.linalg.norm(L)
