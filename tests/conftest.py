from dataclasses import dataclass, field

import numpy as np
import pytest

from sckpd.hyper import prior_targets_from_sample, solve_hyper
from sckpd.model import (LOG_2PI, DataSummary, SCKPDParams, _regroup, assemble_ldagger,
                         log_det_ldagger, log_prior, omega_trajectory, stick_offsets,
                         trace_quadratic)


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


def log_likelihood(params, data):
    """Gaussian log-likelihood of one block with the factor on the precision
    side.  The likelihood part of the value oracle."""
    n, d = data.n_obs, data.d1 * data.d2
    return (n * log_det_ldagger(params.d1_diag, params.d2_diag)
            - 0.5 * trace_quadratic(params, data)
            - 0.5 * n * d * LOG_2PI)


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


def expit(x):
    """The logistic function 1 / (1 + exp(-x)).  It rounds to exactly 0
    below about -709.78, where exp(-x) overflows, without a warning."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def logistic_log_jac(z):
    """sum log(z (1 - z)): the log-Jacobian of the logistic map to each z."""
    return float((np.log(z) + np.log1p(-z)).sum())


def positive_forward(u):
    """exp map to positives with log-Jacobian sum(u), -inf when a value
    underflows to 0 or the values or their sum overflow.  The oracle of
    the positive part of ``StateLayout`` decoding."""
    u = np.asarray(u, dtype=float)
    with np.errstate(over="ignore"):
        x = np.exp(u)
        total = x.sum()
    if x.size and not (x.min() > 0.0 and total < np.inf):
        return x, -np.inf
    return x, float(u.sum())


def positive_grad(x, grad_x):
    """Chain a gradient w.r.t. x > 0 back to the log coordinate, adding the
    gradient of the log-Jacobian."""
    return np.asarray(grad_x, dtype=float) * np.asarray(x, dtype=float) + 1.0


def stick_breaking(z):
    """The simplex vector of K-1 break fractions z in (0, 1), and the stick
    left before each break (K-1 entries).  The oracle of the weights
    ``StateLayout`` decodes."""
    left = np.empty(z.shape[0] + 1)
    left[0] = 1.0
    np.multiply.accumulate(1.0 - z, out=left[1:])
    omega = left.copy()
    omega[:-1] *= z
    return omega, left[:-1]


def stick_breaking_forward(y):
    """Map y in R^(K-1) to a simplex vector; also return log|det J|, which
    is -inf when a break fraction saturates or a weight underflows to 0.
    The oracle of the sticks part of ``StateLayout`` decoding."""
    y = np.asarray(y, dtype=float)
    z = expit(y - stick_offsets(y.shape[0] + 1))
    omega, left = stick_breaking(z)
    # every weight positive means every z in (0, 1) and every stick positive
    if not omega.min() > 0.0:
        return omega, -np.inf
    return omega, logistic_log_jac(z) + float(np.sum(np.log(left)))


def interval_grad(t, grad_t):
    """Chain a gradient w.r.t. t in (0,1) back to the logit coordinate,
    adding the gradient of the log-Jacobian.  The oracle of the theta
    gradient the posterior takes."""
    return float(grad_t * t * (1.0 - t) + (1.0 - 2.0 * t))


def interval_forward(v):
    """Logistic map to (0, 1) with log-Jacobian log(t(1-t)), -inf when t
    rounds to 0 or 1.  The oracle of the theta part of ``StateLayout``
    decoding."""
    t = float(expit(v))
    if not 0.0 < t < 1.0:
        return t, -np.inf
    return t, logistic_log_jac(t)


def stick_breaking_inverse(omega):
    """Unconstrained coordinates of a strictly positive simplex vector: the
    inverse of the sticks part of ``StateLayout`` decoding."""
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


def interval_inverse(t):
    if not 0.0 < t < 1.0:
        raise ValueError(f"value must lie strictly inside (0, 1), got {t}")
    return float(np.log(t) - np.log1p(-t))


def positive_inverse(x):
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise ValueError("values must be strictly positive")
    return np.log(x)


def validate_params(params):
    """Check that one block's params lie in the model's support."""
    K = params.n_components
    if params.lowers2.shape[0] != K or params.omega.shape != (K,):
        raise ValueError("component counts disagree across fields")
    for name, arr in (("lowers1", params.lowers1), ("lowers2", params.lowers2)):
        if np.any(np.triu(arr, 0) != 0):
            raise ValueError(f"{name} must be strictly lower triangular")
    if np.any(params.d1_diag <= 0) or np.any(params.d2_diag <= 0):
        raise ValueError("diagonal vectors must be strictly positive")
    if np.any(params.omega < 0) or abs(params.omega.sum() - 1.0) > 1e-12:
        raise ValueError("omega must be nonnegative and sum to 1")
    if not 0.0 < params.theta < 1.0:
        raise ValueError("theta must lie in (0, 1)")
    return params


@dataclass(frozen=True)
class SDParams:
    """Constrained parameters of T blocks: per-block strict-lower factors,
    shared diagonals, the first block's weights and, for T > 1, the positive
    K x K gamma matrix that generates the transition."""

    lowers1: np.ndarray          # (T, K, d1, d1)
    lowers2: np.ndarray          # (T, K, d2, d2)
    d1_diag: np.ndarray
    d2_diag: np.ndarray
    omega1: np.ndarray           # first-block weights
    theta: float
    gamma: np.ndarray | None = None

    @property
    def transition(self):
        """The column-normalized gamma: the column-stochastic transition."""
        if self.gamma is None:
            return None
        return self.gamma / self.gamma.sum(axis=0, keepdims=True)

    def season_params(self, t, omega_t):
        return SCKPDParams(lowers1=self.lowers1[t], lowers2=self.lowers2[t],
                           d1_diag=self.d1_diag, d2_diag=self.d2_diag,
                           omega=omega_t, theta=self.theta)


def decode_blocks(layout, u):
    """Block-stacked params plus the total log-Jacobian of the transform at
    ``u``, for a layout of any number of blocks: the inverse of ``pack``."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        s = layout._decode(u)
    K = layout.n_components
    params = SDParams(lowers1=s.members1[:, :K], lowers2=s.members2[:, :K],
                      d1_diag=s.d1_diag, d2_diag=s.d2_diag, omega1=s.omega1,
                      theta=s.theta, gamma=s.gamma)
    return params, s.log_jac


def pack(layout, params):
    """Unconstrained coordinates of valid params: the inverse of
    ``layout.unpack`` for SCKPDParams (one block), of ``decode_blocks`` for
    SDParams."""
    if isinstance(params, SCKPDParams):
        validate_params(params)
        params = SDParams(lowers1=params.lowers1[None], lowers2=params.lowers2[None],
                          d1_diag=params.d1_diag, d2_diag=params.d2_diag,
                          omega1=params.omega, theta=params.theta)
    K, T = layout.n_components, layout.n_blocks
    if params.lowers1.shape != (T, K, layout.d1, layout.d1):
        raise ValueError("lowers1 shape does not match the layout")
    if (params.gamma is None) != (T == 1):
        raise ValueError("a layout of more than one block needs one gamma matrix")
    u = np.empty(layout.size)
    u[layout.sl_low1] = params.lowers1[:, :, layout.tril1[0], layout.tril1[1]].reshape(-1)
    u[layout.sl_low2] = params.lowers2[:, :, layout.tril2[0], layout.tril2[1]].reshape(-1)
    u[layout.sl_logd1] = positive_inverse(params.d1_diag)
    u[layout.sl_logd2] = positive_inverse(params.d2_diag)
    if K > 1:
        u[layout.sl_sticks] = stick_breaking_inverse(params.omega1)
    u[layout.sl_theta] = interval_inverse(params.theta)
    if T > 1:
        u[layout.sl_gammas] = positive_inverse(params.gamma).reshape(-1)
    return u


# ----- Kronecker algebra ----------------------------------------------------
#
# Convention (0-based, row-major throughout):
# kron(A, B)[d2*r + v, d2*s + w] == A[r, s] * B[v, w] for A of size d1 x d1
# and B of size d2 x d2.

def kron(A, B):
    """Kronecker product with A indexing the blocks and B the entries."""
    return np.kron(np.asarray(A), np.asarray(B))


def vanloan_rearrange(S, d1, d2):
    """The Van Loan rearrangement of a d1*d2 x d1*d2 matrix, or of each
    matrix of a stack, from its definition, one block at a time: row (r, s)
    of the d1^2 x d2^2 result is the row-major vec of the (r, s) d2 x d2
    block of ``S``, so the rearrangement of kron(A, B) is vec(A) vec(B)^T.
    The oracle of the rearranged form ``DataSummary.from_scatter`` stores."""
    S = np.asarray(S, dtype=float)
    if S.shape[-2:] != (d1 * d2, d1 * d2):
        raise ValueError(f"expected a {d1 * d2} x {d1 * d2} matrix or a stack of them, "
                         f"got {S.shape}")
    rows = [S[..., r * d2:(r + 1) * d2, s * d2:(s + 1) * d2].reshape(S.shape[:-2] + (d2 * d2,))
            for r in range(d1) for s in range(d1)]
    return np.stack(rows, axis=-2)


def vanloan_unrearrange(R, d1, d2):
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
    source_dims: tuple
    residual_fro: float
    singular_values: np.ndarray = field(repr=False, default=None)

    @property
    def n_terms(self):
        return self.left.shape[0]

    @property
    def terms(self):
        return [(self.left[q], self.right[q]) for q in range(self.n_terms)]

    def reconstruct(self):
        d1, d2 = self.source_dims
        out = np.zeros((d1 * d2, d1 * d2))
        for A, B in self.terms:
            out += kron(A, B)
        return out


def max_pvl_terms(d1, d2):
    return min(d1, d2) ** 2


def pvl_decompose(S, d1, d2, n_terms=None):
    """Leading Kronecker terms of ``S`` via SVD of the rearrangement: the
    Pitsianis-Van Loan decomposition (Van Loan & Pitsianis 1993).

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
    U, s, Vt = np.linalg.svd(vanloan_rearrange(S, d1, d2), full_matrices=False)
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


# ----- chain diagnostics ----------------------------------------------------

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


def e_bfmi_oracle(energy):
    """E-BFMI of one chain's energies, one draw at a time.  The oracle of
    the ``e_bfmi`` in ``summary.json``."""
    mean = sum(energy) / len(energy)
    jumps = sum((energy[n] - energy[n - 1]) ** 2 for n in range(1, len(energy)))
    spread = sum((e - mean) ** 2 for e in energy)
    return jumps / spread if spread > 0 else 0.0


def column_summary_oracle(x):
    """mean, sd and quantiles of one column.  The oracle of the per-column
    statistics in ``summary.json``."""
    q = np.quantile(x, [0.025, 0.5, 0.975])
    return {"mean": float(np.mean(x)), "sd": float(np.std(x, ddof=1)),
            "q025": float(q[0]), "q500": float(q[1]), "q975": float(q[2])}


def dense_factor_stats(params):
    """log det, diagonal and strict-lower energies of one block's dense
    factor."""
    L = assemble_ldagger(params)
    diag = np.diagonal(L)
    return {"logdet_factor": float(np.sum(np.log(diag))), "fro2_diag": float(np.sum(diag ** 2)),
            "fro2_lower": float(np.sum(np.tril(L, -1) ** 2))}


def draw_table_oracle(layout, chains):
    """The values of the draws table one draw and one block at a time: each
    block's weights through the trajectory, then the statistics of its
    dense factor.  The oracle of ``harness._draw_table``."""
    rows = []
    for ci, chain in enumerate(chains):
        for di, u in enumerate(chain.draws):
            params, _ = decode_blocks(layout, u)
            omegas = omega_trajectory(params.omega1, params.transition, layout.n_blocks)
            stats = [dense_factor_stats(params.season_params(t, omegas[t]))
                     for t in range(layout.n_blocks)]
            row = [ci, di, float(chain.accept_flags[di]), float(chain.divergence_flags[di]),
                   float(chain.energies[di]), params.theta,
                   stats[0]["logdet_factor"], stats[0]["fro2_diag"]]
            for omega_t, stats_t in zip(omegas, stats):
                row += sorted(omega_t, reverse=True) + [stats_t["fro2_lower"]]
            rows.append(row)
    return np.asarray(rows, dtype=float)


def member_rows(members1, members2):
    """The (T, K+1, d1^2 + d2^2) member rows [vec(U_a), vec(V_a)] the trace
    cores read, from the two modes' (T, K+1, d, d) member stacks."""
    T, m = members1.shape[:2]
    return np.concatenate([members1.reshape(T, m, -1), members2.reshape(T, m, -1)], axis=2)


def regroup_trace_dense(members1, members2, scatters, want_grad, coupling):
    """sum_t tr(L_t L_t^T S_t) = sum_t <L_t, S_t L_t> and the flat member
    gradient through every block's dense factor, from the (T, d, d) stack
    of the scatters, with the factors rearranged by reshapes and axis swaps
    on every call: the dense contraction as it was before its index maps,
    the bit-for-bit oracle of ``model._trace_dense``."""
    T, m, d1, _ = members1.shape
    d2 = members2.shape[-1]
    U = members1.reshape(T, m, d1 * d1)
    CV = coupling @ members2.reshape(T, m, d2 * d2)
    L = _regroup(U.transpose(0, 2, 1) @ CV, d1, d1, d2, d2)
    SL = scatters @ L
    value = float(np.vdot(L, SL))
    if not want_grad:
        return value, None
    H = _regroup(SL, d1, d2, d1, d2)
    grad = np.empty(T * m * (d1 * d1 + d2 * d2))
    n1 = T * m * d1 * d1
    np.matmul(CV, H.transpose(0, 2, 1), out=grad[:n1].reshape(T, m, d1 * d1))
    np.matmul(coupling @ U, H, out=grad[n1:].reshape(T, m, d2 * d2))
    grad *= 2.0
    return value, grad


def summary_for(Y, d1, d2):
    return DataSummary.from_observations(Y, d1, d2)


@pytest.fixture
def rng():
    return make_rng(1234)
