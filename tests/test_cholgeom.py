import numpy as np
import pytest

from conftest import make_rng, random_chol, random_spd
from sckpd.cholgeom import (NotPositiveDefiniteError, assemble_dagger_general,
                            cholesky, frechet_mean_log_cholesky,
                            frechet_mean_log_euclidean, geodesic_between,
                            log_cholesky_distance, log_det_dagger_general,
                            strict_lower)
from sckpd.kron import kron, pvl_decompose, vanloan_rearrange


def nearest_kron_rel_residual(M, d1, d2):
    """Rank-1 truncation error of the rearrangement, relative to ||M||."""
    s = np.linalg.svd(vanloan_rearrange(M, d1, d2), compute_uv=False)
    return float(np.sqrt(np.sum(s[1:] ** 2)) / np.linalg.norm(M))


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
    # LAPACK accepts the second pivot (about 1e-15); the pivot floor does not
    S = np.array([[1.0, 1.0, 0.0], [1.0, 1.0 + 1e-15, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(NotPositiveDefiniteError, match="order 2"):
        cholesky(S)


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


# ----- distance -------------------------------------------------------------

def test_distance_self_zero():
    L = random_chol(4, make_rng(2))
    assert log_cholesky_distance(L, L) == 0.0


def test_distance_log_diagonal_term():
    L1 = np.diag([np.e, 1.0])
    L2 = np.diag([1.0, 1.0])
    assert np.isclose(log_cholesky_distance(L1, L2), 1.0, atol=1e-14)


def test_distance_symmetry_and_triangle():
    rng = make_rng(3)
    A, B, C = (random_chol(5, rng) for _ in range(3))
    dab = log_cholesky_distance(A, B)
    assert np.isclose(dab, log_cholesky_distance(B, A), atol=1e-12)
    assert dab <= log_cholesky_distance(A, C) + log_cholesky_distance(C, B) + 1e-12


def test_distance_dimension_mismatch():
    with pytest.raises(ValueError):
        log_cholesky_distance(np.eye(2), np.eye(3))


# ----- geodesic -------------------------------------------------------------

def test_geodesic_endpoints():
    rng = make_rng(4)
    L0, L1 = random_chol(4, rng), random_chol(4, rng)
    assert np.allclose(geodesic_between(L0, L1, 0.0), L0, atol=1e-14)
    assert np.allclose(geodesic_between(L0, L1, 1.0), L1, atol=1e-14)


def test_geodesic_midpoint_diagonal():
    L0 = np.diag([1.0, 1.0])
    L1 = np.diag([np.e ** 2, np.e ** 2])
    mid = geodesic_between(L0, L1, 0.5)
    assert np.allclose(mid, np.diag([np.e, np.e]), atol=1e-12)


def test_geodesic_additivity_and_proportionality():
    rng = make_rng(5)
    L0, L1 = random_chol(5, rng), random_chol(5, rng)
    total = log_cholesky_distance(L0, L1)
    for t in (0.2, 0.5, 0.9):
        G = geodesic_between(L0, L1, t)
        d0, d1 = log_cholesky_distance(L0, G), log_cholesky_distance(G, L1)
        assert np.isclose(d0 + d1, total, atol=1e-10)
        assert np.isclose(d0, t * total, atol=1e-10)


def test_geodesic_rejects_bad_t():
    with pytest.raises(ValueError):
        geodesic_between(np.eye(2), np.eye(2), 1.5)


# ----- Frechet means --------------------------------------------------------

def test_frechet_lc_single():
    L = random_chol(4, make_rng(6))
    assert np.allclose(frechet_mean_log_cholesky([L]), L, atol=1e-14)


def test_frechet_lc_diagonal_geometric_mean():
    a, b = np.array([1.0, 4.0]), np.array([9.0, 1.0])
    mean = frechet_mean_log_cholesky([np.diag(a), np.diag(b)])
    assert np.allclose(mean, np.diag(np.sqrt(a * b)), atol=1e-12)


def test_frechet_lc_minimizes_objective():
    # perturbation oracle: the closed form beats 200 random perturbations
    rng = make_rng(7)
    Ls = [random_chol(4, rng) for _ in range(3)]
    mean = frechet_mean_log_cholesky(Ls)

    def objective(X):
        return sum(log_cholesky_distance(X, L) ** 2 for L in Ls)

    base = objective(mean)
    for _ in range(200):
        pert = mean + np.tril(rng.normal(0, 0.05, (4, 4)), -1)
        pert += np.diag(np.diag(mean) * (np.exp(rng.normal(0, 0.05, 4)) - 1.0))
        assert objective(pert) >= base - 1e-9


def test_frechet_lc_empty():
    with pytest.raises(ValueError):
        frechet_mean_log_cholesky([])


def test_frechet_le_single_and_commuting():
    rng = make_rng(8)
    S = random_spd(4, rng)
    assert np.allclose(frechet_mean_log_euclidean([S]), S, atol=1e-10)
    a, b = np.array([1.0, 4.0]), np.array([9.0, 16.0])
    mean = frechet_mean_log_euclidean([np.diag(a), np.diag(b)])
    assert np.allclose(mean, np.diag(np.sqrt(a * b)), atol=1e-12)


def test_frechet_le_preserves_kron_structure():
    rng = make_rng(9)
    inputs = [kron(random_spd(3, rng), random_spd(2, rng)) for _ in range(2)]
    mean = frechet_mean_log_euclidean(inputs)
    assert nearest_kron_rel_residual(mean, 3, 2) < 1e-10


def test_frechet_lc_breaks_kron_structure():
    # the strict-lower average of generic Kronecker factors is no longer a
    # single Kronecker product, while the diagonal part still is
    rng = make_rng(10)
    Ls = [kron(random_chol(3, rng), random_chol(2, rng)) for _ in range(3)]
    mean = frechet_mean_log_cholesky(Ls)
    low = strict_lower(mean)
    assert nearest_kron_rel_residual(low, 3, 2) > 1e-6
    diag_matrix = np.diag(np.diag(mean))
    assert nearest_kron_rel_residual(diag_matrix, 3, 2) < 1e-10


# ----- determinant identity -------------------------------------------------

def test_log_det_dagger_identity_factors():
    sets = [[np.eye(3), np.eye(2)] for _ in range(4)]
    assert log_det_dagger_general(sets, (3, 2)) == 0.0


def test_log_det_dagger_single_set_kron_identity():
    rng = make_rng(11)
    L1, L2 = random_chol(3, rng), random_chol(2, rng)
    expected = 2 * np.sum(np.log(np.diag(L1))) + 3 * np.sum(np.log(np.diag(L2)))
    assert np.isclose(log_det_dagger_general([[L1, L2]], (3, 2)), expected, rtol=1e-12)
    dense = np.sum(np.log(np.diag(kron(L1, L2))))
    assert np.isclose(expected, dense, rtol=1e-12)


def test_log_det_dagger_matches_dense_assembly():
    rng = make_rng(12)
    sets = [[random_chol(3, rng), random_chol(2, rng)] for _ in range(3)]
    dense = assemble_dagger_general(sets, (3, 2))
    expected = float(np.sum(np.log(np.diag(dense))))
    assert np.isclose(log_det_dagger_general(sets, (3, 2)), expected, rtol=1e-12)


def test_log_det_dagger_dimension_check():
    with pytest.raises(ValueError):
        log_det_dagger_general([[np.eye(3), np.eye(3)]], (3, 2))


def test_pvl_rank_one_residual_of_kron_chol():
    # sanity for the oracle used above: a true Kronecker factor has a tiny
    # rank-1 rearrangement residual
    rng = make_rng(13)
    L = kron(random_chol(3, rng), random_chol(2, rng))
    dec = pvl_decompose(L, 3, 2, 1)
    assert dec.residual_fro < 1e-10 * np.linalg.norm(L)
