"""The stick-breaking map to the simplex and the gradient pull-backs of
the unconstrained reparameterizations: stick-breaking for simplex vectors,
logit for the unit interval.  The stick-breaking map is centered so the
zero vector maps to the uniform simplex point.

The forward maps themselves (exp for positives, the logistic function for
the sticks and theta) and their log-Jacobians are evaluated in one pass by
``model.StateLayout``, which also finds a state outside the
floating-point support.
"""

from __future__ import annotations

import numpy as np


def stick_offsets(n_weights: int) -> np.ndarray:
    """Centering offsets log(K-1), .., log(1) of the K-1 stick coordinates:
    the zero vector breaks into the uniform simplex point."""
    return np.log(np.arange(n_weights - 1, 0, -1, dtype=float))


def stick_breaking(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The simplex vector of K-1 break fractions z in (0, 1), and the stick
    left before each break (K-1 entries)."""
    left = np.empty(z.shape[0] + 1)
    left[0] = 1.0
    np.multiply.accumulate(1.0 - z, out=left[1:])
    omega = left.copy()
    omega[:-1] *= z
    return omega, left[:-1]


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
    return (1.0 - z) * q[:-1] - z * np.add.accumulate(q[:0:-1])[::-1]


def interval_grad(t: float, grad_t: float) -> float:
    """Chain a gradient w.r.t. t in (0,1) back to the logit coordinate,
    adding the gradient of the log-Jacobian."""
    return float(grad_t * t * (1.0 - t) + (1.0 - 2.0 * t))
