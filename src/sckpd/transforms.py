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
    out = np.empty_like(x, dtype=float)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _sticks(y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Break fractions z, the simplex vector and the stick left before
    each break, for y in R^(K-1)."""
    K = y.shape[0] + 1
    z = expit(y - np.log(np.arange(K - 1, 0, -1, dtype=float)))
    omega = np.empty(K)
    sticks = np.empty(K - 1)
    stick = 1.0
    for k in range(K - 1):
        sticks[k] = stick
        omega[k] = stick * z[k]
        stick *= 1.0 - z[k]
    omega[K - 1] = stick
    return z, omega, sticks


def stick_breaking_forward(y: np.ndarray) -> tuple[np.ndarray, float]:
    """Map y in R^(K-1) to a simplex vector; also return log|det J|, which
    is -inf when a break fraction saturates or a weight underflows to 0."""
    z, omega, sticks = _sticks(np.asarray(y, dtype=float))
    # every weight positive means every z in (0, 1) and every stick positive
    if not omega.min() > 0.0:
        return omega, -np.inf
    return omega, float(np.sum(np.log(z) + np.log1p(-z) + np.log(sticks)))


def stick_breaking_inverse(omega: np.ndarray) -> np.ndarray:
    """Unconstrained coordinates of a strictly positive simplex vector."""
    omega = np.asarray(omega, dtype=float)
    K = omega.shape[0]
    if K < 2:
        raise ValueError("simplex must have at least 2 entries")
    if np.any(omega <= 0) or abs(omega.sum() - 1.0) > 1e-9:
        raise ValueError("input must be strictly positive and sum to 1")
    y = np.empty(K - 1)
    stick = 1.0
    for k in range(K - 1):
        z = omega[k] / stick
        y[k] = np.log(z) - np.log1p(-z) + np.log(K - 1 - k)
        stick -= omega[k]
    return y


def stick_breaking_grad(y: np.ndarray, grad_omega: np.ndarray) -> np.ndarray:
    """Pull a gradient w.r.t. the simplex vector back to the y coordinates,
    adding the gradient of log|det J| (the target density includes the
    change-of-variables term)."""
    grad_omega = np.asarray(grad_omega, dtype=float)
    z, omega, sticks = _sticks(np.asarray(y, dtype=float))
    K = omega.shape[0]

    # d omega_j / d z_k: s_k at j == k, -omega_j/(1-z_k) for j > k, else 0
    grad_y = np.empty(K - 1)
    tail = float(grad_omega[K - 1] * omega[K - 1])
    for k in range(K - 2, -1, -1):
        g = (sticks[k] * grad_omega[k] - tail / (1.0 - z[k])
             + (1.0 / z[k] - (1.0 + (K - 2 - k)) / (1.0 - z[k])))
        grad_y[k] = g * z[k] * (1.0 - z[k])
        tail += float(grad_omega[k] * omega[k])
    return grad_y


def interval_forward(v: float) -> tuple[float, float]:
    """Logistic map to (0, 1) with log-Jacobian log(t(1-t)), -inf when t
    rounds to 0 or 1."""
    t = float(expit(np.asarray([v]))[0])
    if not 0.0 < t < 1.0:
        return t, -np.inf
    return t, float(np.log(t) + np.log1p(-t))


def interval_inverse(t: float) -> float:
    if not 0.0 < t < 1.0:
        raise ValueError(f"value must lie strictly inside (0, 1), got {t}")
    return float(np.log(t) - np.log1p(-t))


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


def positive_inverse(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise ValueError("values must be strictly positive")
    return np.log(x)


def positive_grad(x: np.ndarray, grad_x: np.ndarray) -> np.ndarray:
    """Chain a gradient w.r.t. x > 0 back to the log coordinate, adding the
    gradient of the log-Jacobian."""
    return np.asarray(grad_x, dtype=float) * np.asarray(x, dtype=float) + 1.0
