"""Unconstrained reparameterizations and their log-Jacobians and gradients:
stick-breaking for simplex vectors, logit for the unit interval, log for
positives.  The stick-breaking map is centered so the zero vector maps to
the uniform simplex point.

A forward map whose result leaves the open support in floating point (a
logistic coordinate that rounds to 0 or 1, a positive value that
underflows to 0 or overflows) returns a log-Jacobian of -inf, computed
without a log of 0 or an overflowing exp: the caller treats the state as
outside the support.
"""

from __future__ import annotations

import numpy as np


def expit(x):
    """The logistic function 1 / (1 + exp(-x)).  It rounds to exactly 0
    below about -709.78, where exp(-x) overflows, without a warning."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def stick_offsets(n_weights: int) -> np.ndarray:
    """Centering offsets log(K-1), .., log(1) of the K-1 stick coordinates:
    the zero vector breaks into the uniform simplex point."""
    return np.log(np.arange(n_weights - 1, 0, -1, dtype=float))


def stick_breaking(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The simplex vector of K-1 break fractions z in (0, 1), and the stick
    left before each break (K-1 entries)."""
    left = np.ones(z.shape[0] + 1)
    np.cumprod(1.0 - z, out=left[1:])
    omega = left.copy()
    omega[:-1] *= z
    return omega, left[:-1]


def logistic_log_jac(z: np.ndarray) -> float:
    """sum log(z (1 - z)): the log-Jacobian of the logistic map to each z."""
    return float((np.log(z) + np.log1p(-z)).sum())


def stick_breaking_grad(z: np.ndarray, omega: np.ndarray, grad_omega: np.ndarray) -> np.ndarray:
    """Pull a gradient w.r.t. the simplex vector back to the y coordinates,
    adding the gradient of log|det J| (the target density includes the
    change-of-variables term).  ``z`` and ``omega`` are the break fractions
    and weights of the forward map at y."""
    # with p = grad_omega * omega, d/dy_k of f(omega) + log|det J| is
    # (1 - z_k)(p_k + 1) - z_k sum_{j>k} (p_j + 1), since d omega_j / d z_k
    # is left_k at j == k and -omega_j/(1-z_k) for j > k, and log|det J|
    # adds log z_k + log(1 - z_k) + log left_k
    q = grad_omega * omega + 1.0
    return (1.0 - z) * q[:-1] - z * np.cumsum(q[:0:-1])[::-1]


def interval_grad(t: float, grad_t: float) -> float:
    """Chain a gradient w.r.t. t in (0,1) back to the logit coordinate,
    adding the gradient of the log-Jacobian."""
    return float(grad_t * t * (1.0 - t) + (1.0 - 2.0 * t))


def positive_forward(u: np.ndarray) -> tuple[np.ndarray, float]:
    """exp map to positives with log-Jacobian sum(u), -inf when a value
    underflows to 0 or the values or their sum overflow."""
    u = np.asarray(u, dtype=float)
    with np.errstate(over="ignore"):
        x = np.exp(u)
        total = x.sum()
    if x.size and not (x.min() > 0.0 and total < np.inf):
        return x, -np.inf
    return x, float(u.sum())


def positive_grad(x: np.ndarray, grad_x: np.ndarray) -> np.ndarray:
    """Chain a gradient w.r.t. x > 0 back to the log coordinate, adding the
    gradient of the log-Jacobian."""
    return np.asarray(grad_x, dtype=float) * np.asarray(x, dtype=float) + 1.0
