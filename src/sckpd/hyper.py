"""Data-driven prior centering: the Cholesky factorization of the sample
covariance, the targets extracted from its factor, the Gamma-shape root
solve, and the variance solve for the strict-lower normal priors.

The construction centers the factor prior so that, a priori,
``E[log det(D1 (x) D2)]`` matches the log-determinant target and the
expected squared Frobenius norms of the diagonal and strict-lower parts
match their targets.

Digamma and the Cholesky factorization use numpy and the standard
library only.  Every fit is its own process and loads this
module, and importing ``scipy.special`` or ``scipy.linalg`` costs more
than a small fit's sampling; so no run of the package loads scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SYM_RTOL = 1e-12        # relative symmetry tolerance for SPD inputs
PIVOT_FLOOR = 1e-14     # pivots at or below this share of their diagonal entry fail
SHAPE_TOL = 1e-10       # residual the Gamma-shape solve must reach

# asymptotic tail coefficients, valid after shifting the argument above 10
_PSI0_TAIL = (1 / 12., -1 / 120., 1 / 252., -1 / 240., 1 / 132., -691 / 32760., 1 / 12.)
_SHIFT = 10.0


class NotPositiveDefiniteError(ValueError):
    """Raised when a factorization target is not positive definite."""

    def __init__(self, order: int, advice: str = ""):
        self.order = order
        message = f"matrix is not positive definite: leading minor of order {order} failed"
        super().__init__(f"{message}; {advice}" if advice else message)


def check_spd(S: np.ndarray) -> np.ndarray:
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {S.shape}")
    scale = np.linalg.norm(S)
    if scale > 0 and np.linalg.norm(S - S.T) > SYM_RTOL * scale * S.shape[0]:
        raise ValueError("matrix is not symmetric to the required tolerance")
    return S


def cholesky(S: np.ndarray) -> np.ndarray:
    """Lower-triangular factor L with L L^T = S.

    Raises :class:`NotPositiveDefiniteError` naming the failing leading
    minor when a pivot is non-positive or at/below the pivot floor.  Pivot
    k, L[k, k]^2, is the part of S[k, k] that the earlier columns leave
    unexplained, and the floor is that share of it, ``PIVOT_FLOOR *
    S[k, k]``: whether a matrix is refused does not depend on any column's
    units.  LAPACK reports only non-positive pivots, so
    the pivots it accepted (the squared diagonal of its factor) are checked
    against the floor first.
    """
    S = check_spd(S)
    try:
        L, failed = np.linalg.cholesky(S), 0
    except np.linalg.LinAlgError:
        # numpy does not say which pivot failed; the leading minors are
        # nested, so bisect for the first that fails, keeping the factor of
        # the last that passes
        lo, failed, L = 0, S.shape[0], S[:0, :0]
        while failed - lo > 1:
            mid = (lo + failed) // 2
            try:
                lo, L = mid, np.linalg.cholesky(S[:mid, :mid])
            except np.linalg.LinAlgError:
                failed = mid
    pivots = np.diagonal(L) ** 2
    floor = PIVOT_FLOOR * np.diagonal(S)[:len(pivots)]
    tiny = np.flatnonzero(~(np.isfinite(pivots) & (pivots > floor)))
    if tiny.size:
        raise NotPositiveDefiniteError(int(tiny[0]) + 1)
    if failed:
        raise NotPositiveDefiniteError(failed)
    return L


def digamma(x: float) -> float:
    """psi_0(x) for x > 0 via upward recurrence and the asymptotic series."""
    if not x > 0:
        raise ValueError(f"digamma requires x > 0, got {x}")
    x = float(x)
    acc = 0.0
    while x < _SHIFT:
        acc -= 1.0 / x
        x += 1.0
    # the series in p_k = x^(-2k), unrolled in its order: each power is the
    # last one times p1, and the terms add from the first
    p1 = 1.0 / (x * x)
    p2 = p1 * p1
    p3 = p2 * p1
    p4 = p3 * p1
    p5 = p4 * p1
    p6 = p5 * p1
    b1, b2, b3, b4, b5, b6, b7 = _PSI0_TAIL
    s = b1 * p1 + b2 * p2 + b3 * p3 + b4 * p4 + b5 * p5 + b6 * p6 + b7 * (p6 * p1)
    return acc + math.log(x) - 0.5 / x - s


def shape_residual(a: float, c: float) -> float:
    """|a^2 + a - c exp(2 psi_0(a))|, the quantity the shape solve drives down."""
    return abs(a * a + a - c * math.exp(2.0 * digamma(a)))


def solve_a(c: float) -> float:
    """Gamma shape a with |a^2 + a - c exp(2 psi_0(a))| below SHAPE_TOL, for
    c > 1; :func:`solve_hyper` passes c >= DEGENERATE_CLAMP.

    For c > 1 there is a unique root.  Bracketed bisection runs on the
    equivalent log form g(a) = log(a^2 + a) - 2 psi_0(a) - log c, which
    stays well conditioned where the raw residual cancels catastrophically,
    and returns the midpoint of least raw residual.  For c <= 1 no root
    exists (exp(2 psi_0(a)) < a^2 for all a > 0), and a c too close to 1 for
    double precision stalls above SHAPE_TOL; both raise ValueError.
    """
    c = float(c)
    if not c > 1.0:
        raise ValueError(f"the shape equation has a root only for c > 1, got c={c}")

    def g(a: float) -> float:
        return math.log(a * a + a) - 2.0 * digamma(a) - math.log(c)

    lo, hi = 1e-8, 10.0
    glo, ghi = g(lo), g(hi)
    while glo * ghi > 0 and hi < 1e12:
        lo, glo = hi, ghi
        hi *= 10.0
        ghi = g(hi)
    if glo * ghi > 0:
        raise ValueError(f"no sign change for c={c} within [1e-8, 1e12]")

    best = None
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        gm = g(mid)
        res = shape_residual(mid, c)
        if best is None or res < best[1]:
            best = (mid, res)
        if glo * gm <= 0:
            hi, ghi = mid, gm
        else:
            lo, glo = mid, gm
        if best[1] < SHAPE_TOL or hi - lo < 1e-15 * hi:
            break

    a, res = best
    if res >= SHAPE_TOL:
        raise ValueError(
            f"shape solve stalled at residual {res:.3e} (tol {SHAPE_TOL:.1e}); "
            f"c={c} is too close to 1 for double precision")
    return a


@dataclass(frozen=True)
class PriorTargets:
    """Centering constants measured from the sample covariance factor."""

    chol_log_det: float      # log det of the covariance Cholesky factor
    diag_energy: float       # squared Frobenius norm of its diagonal
    lower_energy: float      # squared Frobenius norm of its strict lower part
    d1: int
    d2: int

    def __post_init__(self):
        if min(self.d1, self.d2) < 2:
            raise ValueError("both mode dimensions must be at least 2")
        if self.diag_energy <= 0:
            raise ValueError("diagonal energy target must be positive")
        if self.lower_energy < 0:
            raise ValueError("lower energy target must be nonnegative")

    @property
    def lower_ratio(self) -> float:
        """d1(d1-1) / (d2(d2-1)), the ratio of the strict-lower entry counts."""
        return self.d1 * (self.d1 - 1) / (self.d2 * (self.d2 - 1))

    @property
    def n_lower1(self) -> float:
        """d1(d1-1)/2, the strict-lower entry count in mode 1."""
        return self.d1 * (self.d1 - 1) / 2


def prior_targets_from_sample(S: np.ndarray, d1: int, d2: int) -> PriorTargets:
    """Targets from the Cholesky factor of a d1*d2 x d1*d2 sample covariance.

    A rank-deficient sample covariance raises, with advice in the message;
    add diagonal jitter yourself if that is acceptable for your data (it is
    never applied silently).
    """
    S = np.asarray(S, dtype=float)
    if S.shape != (d1 * d2, d1 * d2):
        raise ValueError(f"expected a {d1 * d2} x {d1 * d2} covariance, got {S.shape}")
    try:
        L = cholesky(S)
    except NotPositiveDefiniteError as exc:
        raise NotPositiveDefiniteError(
            exc.order, "the sample covariance is rank deficient: it needs at least "
            f"d1*d2 = {d1 * d2} linearly independent observation rows, or diagonal "
            "jitter added before computing prior targets") from exc
    diag = np.diagonal(L)
    return PriorTargets(
        chol_log_det=float(np.sum(np.log(diag))),
        diag_energy=float(np.sum(diag ** 2)),
        lower_energy=float(np.sum(np.tril(L, -1) ** 2)),
        d1=d1, d2=d2)


def solve_beta(targets: PriorTargets) -> float:
    """Nonnegative variance for the strict-lower normal priors.

    Root of  sqrt(F_D) M1 (1 + 1/c) b + (M1^2 / c) b^2 = F_L  in b, where
    F_D/F_L are the diagonal/lower energy targets, M1 the mode-1 strict
    lower count and c the count ratio.  The plug-back identity is the
    correctness check.
    """
    m1 = targets.n_lower1
    c = targets.lower_ratio
    quad = m1 * m1 / c
    lin = math.sqrt(targets.diag_energy) * m1 * (1.0 + 1.0 / c)
    disc = lin * lin + 4.0 * quad * targets.lower_energy
    assert disc >= 0.0, "discriminant cannot be negative for valid targets"
    return (-lin + math.sqrt(disc)) / (2.0 * quad)


def diag_prior_rate(a_i: float, chol_log_det: float, d1: int, d2: int) -> float:
    """Gamma rate making E[log X] equal chol_log_det / (2 d1 d2)."""
    if a_i <= 0:
        raise ValueError("shape must be positive")
    return math.exp(digamma(a_i) - chol_log_det / (2.0 * d1 * d2))


@dataclass(frozen=True)
class SolvedHyper:
    """Solved hyperparameters for one target set."""

    shape1: float
    shape2: float
    rate1: float
    rate2: float
    lower_variance: float    # variance scale for strict-lower normal priors
    residual: float          # worst |a^2 + a - c exp(2 psi_0(a))| over modes
    c1: float                # raw shape targets, before any clamping
    c2: float

    @property
    def degenerate(self) -> bool:
        """True when either shape target fell in the rootless c <= 1 regime."""
        return self.c1 <= 1.0 or self.c2 <= 1.0


DEGENERATE_CLAMP = 1.05


def solve_hyper(targets: PriorTargets) -> SolvedHyper:
    """Solve both Gamma shapes, their rates, and the lower-prior variance.

    The shape targets are c_i = sqrt(F_D)/d_i * exp(-chol_log_det/(d1 d2)),
    which makes E[norm(D_i)_F^2] land on sqrt(F_D) once the shape equation
    holds; together with the rate choice this centers the diagonal
    determinant and energy simultaneously.

    A target c_i <= 1 asks for less dispersion than a point mass can give
    (E[X^2] >= exp(2 E[log X]) for any distribution), which the shape
    equation cannot reach; the shape is then solved at c = 1.05 instead,
    the nearest proper tight prior, and ``degenerate`` is set.
    """
    gd = targets.chol_log_det
    scale = math.exp(-gd / (targets.d1 * targets.d2))
    c1 = math.sqrt(targets.diag_energy) / targets.d1 * scale
    c2 = math.sqrt(targets.diag_energy) / targets.d2 * scale
    c1_eff = max(c1, DEGENERATE_CLAMP)
    c2_eff = max(c2, DEGENERATE_CLAMP)
    a1 = solve_a(c1_eff)
    a2 = solve_a(c2_eff)
    return SolvedHyper(
        shape1=a1,
        shape2=a2,
        rate1=diag_prior_rate(a1, gd, targets.d1, targets.d2),
        rate2=diag_prior_rate(a2, gd, targets.d1, targets.d2),
        lower_variance=solve_beta(targets),
        residual=max(shape_residual(a1, c1_eff), shape_residual(a2, c2_eff)),
        c1=c1, c2=c2)
