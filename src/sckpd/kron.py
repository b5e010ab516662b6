"""Kronecker-product algebra: the Van Loan rearrangement, under which a
Kronecker product becomes a rank-1 matrix, and nearest sums of Kronecker
products by SVD of the rearrangement.

Convention (0-based, row-major throughout):
``kron(A, B)[d2*r + v, d2*s + w] == A[r, s] * B[v, w]`` for ``A`` of size
d1 x d1 and ``B`` of size d2 x d2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def kron(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Kronecker product with A indexing the blocks and B the entries."""
    return np.kron(np.asarray(A), np.asarray(B))


def vanloan_rearrange(S: np.ndarray, d1: int, d2: int) -> np.ndarray:
    """Rearrange a d1*d2 x d1*d2 matrix into the d1^2 x d2^2 form whose
    rank-1 terms correspond to Kronecker terms of ``S``.

    Row (r, s) of the result is the row-major vectorization of the
    (r, s) block of ``S``; ``vanloan_rearrange(kron(A, B))`` equals the
    rank-1 outer product vec(A) vec(B)^T.
    """
    S = np.asarray(S, dtype=float)
    if S.shape != (d1 * d2, d1 * d2):
        raise ValueError(f"expected a {d1 * d2} x {d1 * d2} matrix, got {S.shape}")
    return S.reshape(d1, d2, d1, d2).transpose(0, 2, 1, 3).reshape(d1 * d1, d2 * d2)


def vanloan_unrearrange(R: np.ndarray, d1: int, d2: int) -> np.ndarray:
    """Inverse of :func:`vanloan_rearrange`."""
    R = np.asarray(R, dtype=float)
    if R.shape != (d1 * d1, d2 * d2):
        raise ValueError(f"expected a {d1 * d1} x {d2 * d2} matrix, got {R.shape}")
    return R.reshape(d1, d1, d2, d2).transpose(0, 2, 1, 3).reshape(d1 * d2, d1 * d2)


@dataclass(frozen=True)
class PVLDecomp:
    """Sum-of-Kronecker-products decomposition of a square matrix.

    ``sum_q kron(left[q], right[q])`` reproduces the source up to
    ``residual_fro`` (the Frobenius norm of the unexplained tail).  With
    ``min(d1, d2)**2`` terms the residual vanishes for any source.
    """

    left: np.ndarray            # (n_terms, d1, d1)
    right: np.ndarray           # (n_terms, d2, d2)
    source_dims: tuple[int, int]
    residual_fro: float
    singular_values: np.ndarray = field(repr=False, default=None)

    @property
    def n_terms(self) -> int:
        return self.left.shape[0]

    @property
    def terms(self) -> list[tuple[np.ndarray, np.ndarray]]:
        return [(self.left[q], self.right[q]) for q in range(self.n_terms)]

    def reconstruct(self) -> np.ndarray:
        d1, d2 = self.source_dims
        out = np.zeros((d1 * d2, d1 * d2))
        for A, B in self.terms:
            out += kron(A, B)
        return out


def max_pvl_terms(d1: int, d2: int) -> int:
    return min(d1, d2) ** 2


def pvl_decompose(S: np.ndarray, d1: int, d2: int, n_terms: int | None = None) -> PVLDecomp:
    """Leading Kronecker terms of ``S`` via SVD of the rearrangement.

    Terms come in decreasing singular-value order; the residual equals
    the tail singular-value energy, so it is monotone non-increasing in
    ``n_terms``.  Sign convention: the first entry of each left factor
    exceeding 1e-12 of its max magnitude is made positive (the right
    factor flips with it), so the output is deterministic.

    For symmetric ``S`` every factor is symmetric or antisymmetric, with
    matching parity inside a pair, so each Kronecker term is symmetric.
    """
    r2 = max_pvl_terms(d1, d2)
    if n_terms is None:
        n_terms = r2
    if not 1 <= n_terms <= r2:
        raise ValueError(f"n_terms must be in [1, {r2}], got {n_terms}")
    R = vanloan_rearrange(S, d1, d2)
    U, s, Vt = np.linalg.svd(R, full_matrices=False)
    left = np.empty((n_terms, d1, d1))
    right = np.empty((n_terms, d2, d2))
    for q in range(n_terms):
        u = U[:, q].copy()
        v = Vt[q, :].copy()
        anchor = np.flatnonzero(np.abs(u) > 1e-12 * np.abs(u).max()) if np.abs(u).max() > 0 else []
        if len(anchor) and u[anchor[0]] < 0:
            u = -u
            v = -v
        w = np.sqrt(s[q])
        left[q] = (w * u).reshape(d1, d1)
        right[q] = (w * v).reshape(d2, d2)
    residual = float(np.sqrt(np.sum(s[n_terms:] ** 2)))
    return PVLDecomp(left=left, right=right, source_dims=(d1, d2),
                     residual_fro=residual, singular_values=s.copy())
