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


def _autocov(x):
    n = x.shape[0]
    xc = x - x.mean()
    nfft = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(xc, nfft)
    acov = np.fft.irfft(f * np.conjugate(f), nfft)[:n].real
    return acov / n


def effective_sample_size_oracle(chains):
    """Geyer ESS of one coordinate, chains shaped (C, N), one chain and one
    truncation step at a time.  The oracle of ``hmc.effective_sample_size``."""
    chains = np.atleast_2d(np.asarray(chains, dtype=float))
    C, N = chains.shape
    if N < 4:
        return float(N * C)
    acov = np.stack([_autocov(c) for c in chains])
    mean_acov = acov.mean(axis=0)
    W = float(np.mean([c.var(ddof=1) for c in chains]))
    if C > 1:
        B_over_n = float(np.var(chains.mean(axis=1), ddof=1))
        var_plus = W * (N - 1) / N + B_over_n
    else:
        var_plus = W * (N - 1) / N + W / N
    if var_plus <= 0 or not np.isfinite(var_plus):
        return 1.0
    rho = 1.0 - (W - mean_acov) / var_plus
    rho[0] = 1.0
    tau = 0.0
    prev = np.inf
    for k in range(0, (N - 1) // 2):
        pair = rho[2 * k] + rho[2 * k + 1]
        if pair < 0:
            break
        pair = min(pair, prev)
        tau += pair
        prev = pair
    tau = max(2.0 * tau - 1.0, 1.0 / N)
    return float(C * N / tau)


def split_rhat_oracle(chains):
    """Split R-hat of one coordinate, chains (C, N).  The oracle of
    ``hmc.split_rhat``."""
    chains = np.atleast_2d(np.asarray(chains, dtype=float))
    C, N = chains.shape
    half = N // 2
    if half < 2:
        return float("nan")
    splits = np.concatenate([chains[:, :half], chains[:, N - half:]], axis=0)
    m, n = splits.shape
    means = splits.mean(axis=1)
    W = float(np.mean(splits.var(axis=1, ddof=1)))
    B = n * float(np.var(means, ddof=1))
    if W <= 0:
        return 1.0
    var_plus = (n - 1) / n * W + B / n
    return float(np.sqrt(var_plus / W))


def diagnostics_oracle(stacked):
    """(ess, rhat, zero-variance flags) of draws shaped (C, N, dim), one
    coordinate at a time.  The oracle of ``hmc.diagnostics``."""
    C, N, dim = stacked.shape
    ess, rhat, flags = np.empty(dim), np.empty(dim), []
    for k in range(dim):
        coord = stacked[:, :, k]
        if np.allclose(coord, coord.ravel()[0]):
            flags.append(f"zero-variance:{k}")
            ess[k], rhat[k] = 1.0, float("nan")
            continue
        ess[k] = effective_sample_size_oracle(coord)
        rhat[k] = split_rhat_oracle(coord)
    return ess, rhat, flags


def column_summary_oracle(x):
    """mean, sd and quantiles of one column.  The oracle of the per-column
    statistics in ``summary.json``."""
    q = np.quantile(x, [0.025, 0.5, 0.975])
    return {"mean": float(np.mean(x)), "sd": float(np.std(x, ddof=1)),
            "q025": float(q[0]), "q500": float(q[1]), "q975": float(q[2])}


def summary_for(Y, d1, d2):
    return DataSummary.from_observations(Y, d1, d2)


@pytest.fixture
def rng():
    return make_rng(1234)
