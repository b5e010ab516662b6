"""Cholesky factorization and the log-Cholesky geometry on lower-triangular
factors with positive diagonal: distance, endpoint geodesics, Frechet means,
and the determinant identity for sums of Kronecker-structured factors.

Factors are plain 2-D float arrays, lower triangular with strictly positive
diagonal.  The metric is Euclidean on the strict lower triangle and
log-Euclidean on the diagonal, so every formula here only ever exponentiates
diagonals; a general symmetric matrix log appears only in the log-Euclidean
mean of SPD matrices.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import lapack

from .kron import kron

SYM_RTOL = 1e-12        # relative symmetry tolerance for SPD inputs
PIVOT_FLOOR = 1e-14     # diagonal pivots at or below this count as failure


class NotPositiveDefiniteError(ValueError):
    """Raised when a factorization target is not positive definite."""

    def __init__(self, order: int, advice: str = ""):
        self.order = order
        message = f"matrix is not positive definite: leading minor of order {order} failed"
        super().__init__(f"{message}; {advice}" if advice else message)


def strict_lower(M: np.ndarray) -> np.ndarray:
    """Strictly lower-triangular part."""
    return np.tril(np.asarray(M, dtype=float), -1)


def diag_vector(M: np.ndarray) -> np.ndarray:
    """Diagonal as a 1-D vector."""
    return np.diagonal(np.asarray(M, dtype=float)).copy()


def check_spd(S: np.ndarray) -> np.ndarray:
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {S.shape}")
    scale = np.linalg.norm(S)
    if scale > 0 and np.linalg.norm(S - S.T) > SYM_RTOL * scale * S.shape[0]:
        raise ValueError("matrix is not symmetric to the required tolerance")
    return S


def check_chol_factor(L: np.ndarray) -> np.ndarray:
    L = np.asarray(L, dtype=float)
    if L.ndim != 2 or L.shape[0] != L.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {L.shape}")
    if np.any(np.triu(L, 1) != 0):
        raise ValueError("factor has nonzero entries above the diagonal")
    if np.any(np.diagonal(L) <= 0):
        raise ValueError("factor diagonal must be strictly positive")
    return L


def cholesky(S: np.ndarray) -> np.ndarray:
    """Lower-triangular factor L with L L^T = S.

    Raises :class:`NotPositiveDefiniteError` naming the failing leading
    minor when a pivot is non-positive or at/below the pivot floor.  LAPACK
    reports only non-positive pivots, so the pivots it accepted (the
    squared diagonal of its factor) are checked against the floor first.
    """
    S = check_spd(S)
    L, info = lapack.dpotrf(S, lower=1, clean=1)
    n_accepted = info - 1 if info > 0 else S.shape[0]
    pivots = np.diagonal(L)[:n_accepted] ** 2
    tiny = np.flatnonzero(~(np.isfinite(pivots) & (pivots > PIVOT_FLOOR)))
    if tiny.size:
        raise NotPositiveDefiniteError(int(tiny[0]) + 1)
    if info > 0:
        raise NotPositiveDefiniteError(int(info))
    return L


def log_cholesky_distance(L1: np.ndarray, L2: np.ndarray) -> float:
    """Geodesic distance: Frobenius on strict lower parts, Euclidean on
    log diagonals."""
    L1 = np.asarray(L1, dtype=float)
    L2 = np.asarray(L2, dtype=float)
    if L1.shape != L2.shape:
        raise ValueError(f"dimension mismatch: {L1.shape} vs {L2.shape}")
    dlow = strict_lower(L1) - strict_lower(L2)
    dlog = np.log(diag_vector(L1)) - np.log(diag_vector(L2))
    return float(np.sqrt(np.sum(dlow ** 2) + np.sum(dlog ** 2)))


def geodesic_between(L0: np.ndarray, L1: np.ndarray, t: float) -> np.ndarray:
    """Point at parameter ``t`` on the geodesic from L0 to L1.

    Endpoint form: linear interpolation of the strict lower parts and the
    weighted geometric mean ``D1^t D0^(1-t)`` of the diagonals.
    """
    L0 = np.asarray(L0, dtype=float)
    L1 = np.asarray(L1, dtype=float)
    if L0.shape != L1.shape:
        raise ValueError(f"dimension mismatch: {L0.shape} vs {L1.shape}")
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must lie in [0, 1], got {t}")
    low = strict_lower(L0) + t * (strict_lower(L1) - strict_lower(L0))
    diag = diag_vector(L1) ** t * diag_vector(L0) ** (1.0 - t)
    return low + np.diag(diag)


def frechet_mean_log_cholesky(Ls) -> np.ndarray:
    """Closed-form Frechet mean: arithmetic mean of strict lower parts,
    geometric mean of diagonals."""
    Ls = [np.asarray(L, dtype=float) for L in Ls]
    if not Ls:
        raise ValueError("need at least one factor")
    shape = Ls[0].shape
    if any(L.shape != shape for L in Ls):
        raise ValueError("factors have mismatched dimensions")
    low = sum(strict_lower(L) for L in Ls) / len(Ls)
    logd = sum(np.log(diag_vector(L)) for L in Ls) / len(Ls)
    return low + np.diag(np.exp(logd))


def _sym_logm(S: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(S)
    if np.any(vals <= 0):
        raise NotPositiveDefiniteError(int(np.argmax(vals <= 0)) + 1)
    return (vecs * np.log(vals)) @ vecs.T


def _sym_expm(S: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(S)
    return (vecs * np.exp(vals)) @ vecs.T


def frechet_mean_log_euclidean(Ss) -> np.ndarray:
    """Log-Euclidean mean exp(mean(log S_i)) of SPD matrices.

    Unlike the log-Cholesky mean, this mean of Kronecker-structured inputs
    stays Kronecker structured.
    """
    Ss = [check_spd(S) for S in Ss]
    if not Ss:
        raise ValueError("need at least one matrix")
    shape = Ss[0].shape
    if any(S.shape != shape for S in Ss):
        raise ValueError("matrices have mismatched dimensions")
    acc = sum(_sym_logm(S) for S in Ss) / len(Ss)
    return _sym_expm(acc)


def _as_factor_sets(factor_sets):
    out = []
    for fs in factor_sets:
        out.append([np.asarray(L, dtype=float) for L in fs])
    return out


def log_det_dagger_general(factor_sets, dims) -> float:
    """log det of the unweighted Cholesky-sum factor built from K sets of
    per-mode factors.

    The diagonal of the assembled factor is the elementwise product of the
    Kronecker diagonals, so the log-determinant splits into per-mode
    log-determinants weighted by the complementary dimension products.
    """
    dims = [int(d) for d in dims]
    factor_sets = _as_factor_sets(factor_sets)
    for fs in factor_sets:
        if len(fs) != len(dims):
            raise ValueError("every factor set needs one factor per mode")
        for L, d in zip(fs, dims):
            if L.shape != (d, d):
                raise ValueError(f"factor shape {L.shape} does not match mode dim {d}")
    total = 0.0
    prod_all = int(np.prod(dims))
    for fs in factor_sets:
        for j, L in enumerate(fs):
            d_minus = prod_all // dims[j]
            total += d_minus * float(np.sum(np.log(np.diagonal(L))))
    return total


def assemble_dagger_general(factor_sets, dims) -> np.ndarray:
    """Dense assembly of the unweighted Cholesky-sum factor: sum of strict
    lower parts of the Kronecker factors plus the elementwise product of
    their diagonals.  Reference implementation for the determinant identity.
    """
    dims = [int(d) for d in dims]
    factor_sets = _as_factor_sets(factor_sets)
    d = int(np.prod(dims))
    low = np.zeros((d, d))
    logdiag = np.zeros(d)
    for fs in factor_sets:
        full = fs[0]
        for L in fs[1:]:
            full = kron(full, L)
        low += strict_lower(full)
        logdiag += np.log(np.diagonal(full))
    return low + np.diag(np.exp(logdiag))
