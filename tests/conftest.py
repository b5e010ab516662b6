import numpy as np
import pytest

from sckpd import transforms as tr
from sckpd.hyper import make_targets, prior_targets_from_sample, solve_hyper
from sckpd.model import DataSummary, SCKPDParams, log_likelihood, log_prior


def make_rng(seed=0):
    return np.random.default_rng(seed)


def random_spd(d, rng, spread=(0.3, 2.0)):
    """SPD matrix with heterogeneous scales, like a real covariance."""
    scales = rng.uniform(*spread, size=d)
    W = rng.normal(size=(d, 3 * d)) * scales[:, None]
    return W @ W.T / (3 * d)


def random_chol(d, rng, low_sd=0.3, diag_range=(0.7, 1.6)):
    L = np.tril(rng.normal(0.0, low_sd, (d, d)), -1)
    return L + np.diag(rng.uniform(*diag_range, d))


def random_params(d1, d2, K, rng, low_sd=0.4):
    t1 = np.tril_indices(d1, -1)
    t2 = np.tril_indices(d2, -1)
    low1 = np.zeros((K, d1, d1))
    low2 = np.zeros((K, d2, d2))
    low1[:, t1[0], t1[1]] = rng.normal(0, low_sd, (K, len(t1[0])))
    low2[:, t2[0], t2[1]] = rng.normal(0, low_sd, (K, len(t2[0])))
    omega = rng.dirichlet(np.full(K, 3.0)) if K > 1 else np.ones(1)
    return SCKPDParams(
        lowers1=low1, lowers2=low2,
        d1_diag=rng.uniform(0.5, 2.0, d1), d2_diag=rng.uniform(0.5, 2.0, d2),
        omega=omega, theta=float(rng.uniform(0.2, 0.8)))


def random_dataset(d1, d2, n, rng):
    S = random_spd(d1 * d2, rng)
    Y = rng.normal(size=(n, d1 * d2)) @ np.linalg.cholesky(S).T
    return Y


def targets_and_hyper(d1, d2, rng, n=200):
    """Targets from a simulated sample covariance, rejecting the degenerate
    shape regime so prior draws stay meaningful."""
    for _ in range(50):
        Y = random_dataset(d1, d2, n, rng)
        targets = prior_targets_from_sample(Y.T @ Y / n, d1, d2)
        hyper = solve_hyper(targets)
        if not hyper.degenerate:
            return targets, hyper
    raise RuntimeError("could not draw non-degenerate targets")


def log_posterior(u, layout, data, hyper, targets):
    """Static posterior value assembled from its separately tested parts:
    log_likelihood + log_prior + the log-Jacobian of the layout's transform.
    The value oracle for the one posterior implementation."""
    params, log_jac = layout.decode(u)
    if not np.isfinite(log_jac):
        return -np.inf
    lp = log_prior(params, hyper, targets)
    if not np.isfinite(lp):
        return -np.inf
    return log_likelihood(params, data) + lp + log_jac


def stick_breaking_forward(y):
    """Map y in R^(K-1) to a simplex vector; also return log|det J|, which
    is -inf when a break fraction saturates or a weight underflows to 0.
    The oracle of the sticks part of ``StateLayout`` decoding."""
    y = np.asarray(y, dtype=float)
    z = tr.expit(y - tr.stick_offsets(y.shape[0] + 1))
    omega, left = tr.stick_breaking(z)
    # every weight positive means every z in (0, 1) and every stick positive
    if not omega.min() > 0.0:
        return omega, -np.inf
    return omega, tr.logistic_log_jac(z) + float(np.sum(np.log(left)))


def interval_forward(v):
    """Logistic map to (0, 1) with log-Jacobian log(t(1-t)), -inf when t
    rounds to 0 or 1.  The oracle of the theta part of ``StateLayout``
    decoding."""
    t = float(tr.expit(v))
    if not 0.0 < t < 1.0:
        return t, -np.inf
    return t, tr.logistic_log_jac(t)


def summary_for(Y, d1, d2):
    return DataSummary.from_observations(Y, d1, d2)


@pytest.fixture
def rng():
    return make_rng(1234)
