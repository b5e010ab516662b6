"""The Cholesky-sum precision model: parameter containers, the one state
layout, factor assembly, the structured likelihood over the Van Loan
rearrangement of the data scatter, the priors, and the log posterior with
its analytic gradient.

The precision factor of one data block is

    L = sum_i strict_lower(L1_i (x) L2_i) + D1 (x) D2,

with shared diagonal vectors D1, D2 across the K components.  Writing the
left member list as [low1_1, .., low1_K, diag(D1)] and the right list as
[low2_1, .., low2_K, diag(D2)], L = sum_{a,b} C[a,b] U_a (x) V_b with the
0/1 coupling C = [[I_K, 1], [1^T, 1]].  The data enter only through the
scatter S = sum_i y_i y_i^T, held as its rearrangement R = vanloan_rearrange(S)
(Van Loan & Pitsianis 1993), for which tr((A (x) B) S) = vec(A)^T R vec(B).
So

    tr(L L^T S) = sum C[a,b] C[a',b'] vec(U_a U_a'^T)^T R vec(V_b V_b'^T)
                = <CC, PU R QV^T>,

with PU, QV the stacked pair products vec(U_a U_a'^T), vec(V_b V_b'^T) and
CC[(a,a'),(b,b')] = C[a,b] C[a',b']: three matrix products, and no
d1*d2-sized factor is ever formed.  The analytic gradient reuses them.

There is one posterior.  It runs over T time-ordered blocks, each with its
own strict-lower factors, sharing the diagonals; the component weights of
block t+1 are A omega_t for a column-stochastic transition A (see
``dynamic``).  The static model is the case of one block and no
transition, and :class:`SCKPDParams` is its parameter container.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import lgamma

import numpy as np

from . import transforms
from .hyper import PriorTargets, SolvedHyper, digamma
from .kron import vanloan_rearrange

LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class SCKPDParams:
    """Constrained parameters of one block (the static model)."""

    lowers1: np.ndarray   # (K, d1, d1), strictly lower triangular
    lowers2: np.ndarray   # (K, d2, d2), strictly lower triangular
    d1_diag: np.ndarray   # (d1,), positive
    d2_diag: np.ndarray   # (d2,), positive
    omega: np.ndarray     # (K,), on the open unit simplex
    theta: float          # in (0, 1)

    @property
    def n_components(self) -> int:
        return self.lowers1.shape[0]

    @property
    def d1(self) -> int:
        return self.lowers1.shape[1]

    @property
    def d2(self) -> int:
        return self.lowers2.shape[1]

    def validate(self) -> "SCKPDParams":
        K = self.n_components
        if self.lowers2.shape[0] != K or self.omega.shape != (K,):
            raise ValueError("component counts disagree across fields")
        for name, arr in (("lowers1", self.lowers1), ("lowers2", self.lowers2)):
            if np.any(np.triu(arr, 0) != 0):
                raise ValueError(f"{name} must be strictly lower triangular")
        if np.any(self.d1_diag <= 0) or np.any(self.d2_diag <= 0):
            raise ValueError("diagonal vectors must be strictly positive")
        if np.any(self.omega < 0) or abs(self.omega.sum() - 1.0) > 1e-12:
            raise ValueError("omega must be nonnegative and sum to 1")
        if not 0.0 < self.theta < 1.0:
            raise ValueError("theta must lie in (0, 1)")
        return self


@dataclass(frozen=True)
class SDParams:
    """Constrained parameters of T blocks: per-block strict-lower factors,
    shared diagonals, the first block's weights and the positive gamma
    matrices that generate the transitions."""

    lowers1: np.ndarray          # (T, K, d1, d1)
    lowers2: np.ndarray          # (T, K, d2, d2)
    d1_diag: np.ndarray
    d2_diag: np.ndarray
    omega1: np.ndarray           # first-block weights
    theta: float
    gammas: tuple[np.ndarray, ...] = ()

    @property
    def n_blocks(self) -> int:
        return self.lowers1.shape[0]

    @property
    def n_components(self) -> int:
        return self.lowers1.shape[1]

    @property
    def matrices(self) -> tuple[np.ndarray, ...]:
        """Column-normalized gammas: the column-stochastic transitions."""
        return tuple(G / G.sum(axis=0, keepdims=True) for G in self.gammas)

    def season_params(self, t: int, omega_t: np.ndarray) -> SCKPDParams:
        return SCKPDParams(lowers1=self.lowers1[t], lowers2=self.lowers2[t],
                           d1_diag=self.d1_diag, d2_diag=self.d2_diag,
                           omega=omega_t, theta=self.theta)


@dataclass(frozen=True)
class DataSummary:
    """Sufficient statistics: the scatter sum_i y_i y_i^T in its Van Loan
    rearrangement, the (d1^2, d2^2) form the trace term reads."""

    n_obs: int
    d1: int
    d2: int
    scatter_rearranged: np.ndarray

    @classmethod
    def from_observations(cls, Y: np.ndarray, d1: int, d2: int) -> "DataSummary":
        Y = np.asarray(Y, dtype=float)
        if Y.ndim != 2 or Y.shape[1] != d1 * d2:
            raise ValueError(f"expected observations of width {d1 * d2}, got {Y.shape}")
        return cls.from_scatter(Y.T @ Y, Y.shape[0], d1, d2)

    @classmethod
    def from_scatter(cls, scatter: np.ndarray, n_obs: int, d1: int, d2: int) -> "DataSummary":
        return cls(n_obs=int(n_obs), d1=d1, d2=d2,
                   scatter_rearranged=vanloan_rearrange(scatter, d1, d2))


class StateLayout:
    """Index map between model parameters and a flat unconstrained vector.

    Packing order: strict-lower entries of every block's mode-1 components
    (row-major within each), then mode-2, then log D1, log D2, the K-1
    stick-breaking coordinates of the first block's weights, the logit of
    theta, and the log gamma entries of each transition matrix (row-major).

    ``assignment[t]`` names the matrix used for the step t -> t+1, with None
    meaning the identity; by default every step uses one shared matrix.  A
    one-block layout has no transitions and exchanges :class:`SCKPDParams`;
    a longer one exchanges :class:`SDParams`.
    """

    def __init__(self, d1: int, d2: int, n_components: int, n_blocks: int = 1,
                 n_matrices: int | None = None, assignment=None,
                 transition_alpha: float = 1.0):
        if min(d1, d2) < 2 or n_components < 1:
            raise ValueError("need d1, d2 >= 2 and at least one component")
        if n_blocks < 1:
            raise ValueError("need at least one block")
        if n_matrices is None:
            n_matrices = 1 if n_blocks > 1 else 0
        if n_blocks == 1 and n_matrices:
            raise ValueError("a single block has no transitions to assign matrices to")
        if assignment is None:
            assignment = tuple((0 if n_matrices else None) for _ in range(n_blocks - 1))
        assignment = tuple(assignment)
        if len(assignment) != n_blocks - 1:
            raise ValueError("assignment needs one entry per transition")
        for a in assignment:
            if a is not None and not 0 <= a < n_matrices:
                raise ValueError(f"assignment entry {a} has no matching matrix")
        self.d1, self.d2, self.n_components = d1, d2, n_components
        self.n_blocks = n_blocks
        self.n_matrices = n_matrices
        self.assignment = assignment
        self.transition_alpha = float(transition_alpha)
        self.tril1 = np.tril_indices(d1, -1)
        self.tril2 = np.tril_indices(d2, -1)
        self.m1 = len(self.tril1[0])
        self.m2 = len(self.tril2[0])
        K, T = n_components, n_blocks
        sizes = [T * K * self.m1, T * K * self.m2, d1, d2, K - 1, 1, n_matrices * K * K]
        bounds = np.cumsum([0] + sizes)
        (self.sl_low1, self.sl_low2, self.sl_logd1, self.sl_logd2,
         self.sl_sticks, self.sl_theta, self.sl_gammas) = (
            slice(bounds[i], bounds[i + 1]) for i in range(7))
        self.size = int(bounds[-1])

    def pack(self, params: SCKPDParams | SDParams) -> np.ndarray:
        """Unconstrained coordinates of valid params (inverse of unpack)."""
        if isinstance(params, SCKPDParams):
            params.validate()
            params = SDParams(lowers1=params.lowers1[None], lowers2=params.lowers2[None],
                              d1_diag=params.d1_diag, d2_diag=params.d2_diag,
                              omega1=params.omega, theta=params.theta)
        K, T = self.n_components, self.n_blocks
        if params.lowers1.shape != (T, K, self.d1, self.d1):
            raise ValueError("lowers1 shape does not match the layout")
        if len(params.gammas) != self.n_matrices:
            raise ValueError("gamma matrix count does not match the layout")
        u = np.empty(self.size)
        u[self.sl_low1] = params.lowers1[:, :, self.tril1[0], self.tril1[1]].reshape(-1)
        u[self.sl_low2] = params.lowers2[:, :, self.tril2[0], self.tril2[1]].reshape(-1)
        u[self.sl_logd1] = np.log(params.d1_diag)
        u[self.sl_logd2] = np.log(params.d2_diag)
        if K > 1:
            u[self.sl_sticks] = transforms.stick_breaking_inverse(params.omega1)
        u[self.sl_theta] = transforms.interval_inverse(params.theta)
        if self.n_matrices:
            u[self.sl_gammas] = np.concatenate(
                [np.log(np.asarray(G, dtype=float)).reshape(-1) for G in params.gammas])
        return u

    def decode_blocks(self, u: np.ndarray) -> tuple[SDParams, float]:
        """Block-stacked params plus the total log-Jacobian of the transform
        at ``u``, whatever the number of blocks.

        The log-Jacobian is -inf when ``u`` decodes outside the support in
        floating point: a diagonal or transition gamma underflows to 0 or
        overflows, or theta or a stick-breaking coordinate saturates at 0
        or 1 (see ``transforms``)."""
        u = np.asarray(u, dtype=float)
        if u.shape != (self.size,):
            raise ValueError(f"expected a state vector of length {self.size}")
        K, T, d1, d2 = self.n_components, self.n_blocks, self.d1, self.d2
        low1 = np.zeros((T, K, d1, d1))
        low1[:, :, self.tril1[0], self.tril1[1]] = u[self.sl_low1].reshape(T, K, self.m1)
        low2 = np.zeros((T, K, d2, d2))
        low2[:, :, self.tril2[0], self.tril2[1]] = u[self.sl_low2].reshape(T, K, self.m2)
        D1, lj1 = transforms.positive_forward(u[self.sl_logd1])
        D2, lj2 = transforms.positive_forward(u[self.sl_logd2])
        if K > 1:
            omega1, lj_sb = transforms.stick_breaking_forward(u[self.sl_sticks])
        else:
            omega1, lj_sb = np.ones(1), 0.0
        theta, lj_t = transforms.interval_forward(float(u[self.sl_theta][0]))
        gammas, lj_g = transforms.positive_forward(
            u[self.sl_gammas].reshape(self.n_matrices, K, K))
        params = SDParams(lowers1=low1, lowers2=low2, d1_diag=D1, d2_diag=D2,
                          omega1=omega1, theta=theta, gammas=tuple(gammas))
        return params, lj1 + lj2 + lj_sb + lj_t + lj_g

    def decode(self, u: np.ndarray) -> tuple[SCKPDParams | SDParams, float]:
        """Params plus the total log-Jacobian of the transform at ``u``;
        :class:`SCKPDParams` for one block."""
        params, log_jac = self.decode_blocks(u)
        if self.n_blocks == 1:
            return params.season_params(0, params.omega1), log_jac
        return params, log_jac

    def unpack(self, u: np.ndarray) -> SCKPDParams | SDParams:
        return self.decode(u)[0]


def omega_trajectory(omega1: np.ndarray, matrices, assignment, n_blocks: int) -> np.ndarray:
    """Weights for every block: omega_1 then one transition per step.

    ``assignment[t]`` indexes ``matrices`` for the step t -> t+1 (0-based),
    with None meaning the identity.
    """
    K = omega1.shape[0]
    out = np.empty((n_blocks, K))
    out[0] = omega1
    for t in range(n_blocks - 1):
        m = assignment[t]
        out[t + 1] = out[t] if m is None else matrices[m] @ out[t]
    return out


def assemble_ldagger(params: SCKPDParams) -> np.ndarray:
    """Dense lower-triangular factor; diagonal is kron(D1, D2)'s diagonal."""
    D1h = np.diag(params.d1_diag)
    D2h = np.diag(params.d2_diag)
    L = np.kron(D1h, D2h)
    for i in range(params.n_components):
        L += np.kron(params.lowers1[i], D2h)
        L += np.kron(D1h, params.lowers2[i])
        L += np.kron(params.lowers1[i], params.lowers2[i])
    return L


def log_det_ldagger(params: SCKPDParams) -> float:
    """d2 * sum(log D1) + d1 * sum(log D2); the strict-lower parts drop out."""
    return float(params.d2 * np.sum(np.log(params.d1_diag))
                 + params.d1 * np.sum(np.log(params.d2_diag)))


def _coupling(K: int) -> np.ndarray:
    C = np.zeros((K + 1, K + 1))
    C[:K, :K] = np.eye(K)
    C[:, K] = 1.0
    C[K, :K] = 1.0
    return C


def _members(low: np.ndarray, diag: np.ndarray) -> np.ndarray:
    return np.concatenate([low, np.diag(diag)[None]], axis=0)


def lower_energy(lowers1: np.ndarray, lowers2: np.ndarray,
                 d1_diag: np.ndarray, d2_diag: np.ndarray) -> float:
    """Squared Frobenius norm of one block's strict-lower factor part,
    without assembling the factor.

    The strict lower part is sum C'[a,b] U_a (x) V_b, with C' the coupling
    without its diag (x) diag entry, so its energy is
    sum C'[a,b] C'[a',b'] <U_a, U_a'> <V_b, V_b'>.
    """
    K = lowers1.shape[0]
    C = _coupling(K)
    C[K, K] = 0.0
    U = _members(lowers1, d1_diag)
    V = _members(lowers2, d2_diag)
    GU = np.einsum('aij,bij->ab', U, U)
    GV = np.einsum('aij,bij->ab', V, V)
    return float(np.sum(C * (GU @ C @ GV)))


def _pair_products(members: np.ndarray) -> np.ndarray:
    """Row (a, a') is the row-major vec(M_a M_a'^T), for all ordered pairs."""
    m, d, _ = members.shape
    flat = members.reshape(m * d, d)
    return (flat @ flat.T).reshape(m, d, m, d).transpose(0, 2, 1, 3).reshape(m * m, d * d)


def _member_grad(dP: np.ndarray, members: np.ndarray) -> np.ndarray:
    """Pull a gradient w.r.t. the pair-product rows back to the members:
    with W[a,a'] row (a, a') of ``dP`` as a matrix, the gradient of
    sum <M_a M_a'^T, W[a,a']> w.r.t. M_l is
    sum_a' W[l,a'] M_a' + sum_a W[a,l]^T M_a."""
    m, d, _ = members.shape
    W = dP.reshape(m, m, d, d).transpose(0, 2, 1, 3).reshape(m * d, m * d)
    return ((W + W.T) @ members.reshape(m * d, d)).reshape(m, d, d)


def _trace_quad_core(low1, low2, D1, D2, R: np.ndarray, want_grad: bool):
    """tr(L L^T S) = <CC, PU R QV^T> from the rearranged scatter ``R``,
    optionally with gradients w.r.t. the strict-lower stacks and the
    diagonal vectors."""
    K = low1.shape[0]
    m = K + 1
    C = _coupling(K)
    CC = (C[:, None, :, None] * C[None, :, None, :]).reshape(m * m, m * m)
    Us = _members(low1, D1)
    Vs = _members(low2, D2)
    PU = _pair_products(Us)
    QV = _pair_products(Vs)
    dPU = CC @ (QV @ R.T)             # dT/dPU
    T = float(np.vdot(PU, dPU))
    if not want_grad:
        return T, None
    GU = _member_grad(dPU, Us)
    GV = _member_grad(CC.T @ (PU @ R), Vs)
    g_low1 = np.tril(GU[:K], -1)
    g_low2 = np.tril(GV[:K], -1)
    g_D1 = np.diagonal(GU[K]).copy()
    g_D2 = np.diagonal(GV[K]).copy()
    return T, (g_low1, g_low2, g_D1, g_D2)


def trace_quadratic(params: SCKPDParams, data: DataSummary) -> float:
    """tr(L L^T sum_i y_i y_i^T) evaluated on the rearranged scatter."""
    T, _ = _trace_quad_core(params.lowers1, params.lowers2,
                            params.d1_diag, params.d2_diag,
                            data.scatter_rearranged, want_grad=False)
    return T


def log_likelihood(params: SCKPDParams, data: DataSummary) -> float:
    """Gaussian log-likelihood with the factor on the precision side."""
    n, d = data.n_obs, data.d1 * data.d2
    return (n * log_det_ldagger(params)
            - 0.5 * trace_quadratic(params, data)
            - 0.5 * n * d * LOG_2PI)


def _gamma_logpdf(x: np.ndarray, shape: float, rate: float) -> float:
    return float(np.sum(shape * math.log(rate) - lgamma(shape)
                        + (shape - 1.0) * np.log(x) - rate * x))


def _prior_terms(low1, low2, D1, D2, omegas, theta, hyper: SolvedHyper):
    """Log prior density of all but the transition gammas, for (T, K, d, d)
    lower stacks with (T, K) block weights, plus the per-(block, component)
    strict-lower sums of squares.

    Strict-lower entries of block t, component i are N(0, omega_t[i] beta);
    the diagonals are Gamma; the first block's weights are Dirichlet(theta);
    theta is uniform on (0, 1) and contributes zero.
    """
    d1, d2 = D1.shape[0], D2.shape[0]
    n_ent = d1 * (d1 - 1) // 2 + d2 * (d2 - 1) // 2
    ssq = np.einsum('tkij,tkij->tk', low1, low1) + np.einsum('tkij,tkij->tk', low2, low2)
    var = omegas * hyper.lower_variance
    K = omegas.shape[1]
    value = (_gamma_logpdf(D1, hyper.shape1, hyper.rate1)
             + _gamma_logpdf(D2, hyper.shape2, hyper.rate2)
             - 0.5 * float(np.sum(ssq / var + n_ent * (LOG_2PI + np.log(var))))
             + lgamma(K * theta) - K * lgamma(theta)
             + (theta - 1.0) * float(np.sum(np.log(omegas[0]))))
    return value, ssq


def log_prior(params: SCKPDParams, hyper: SolvedHyper,
              targets: PriorTargets | None = None) -> float:
    """Sum of all component log prior densities of one block.

    The centering targets are already baked into ``hyper``; ``targets`` is
    accepted for interface symmetry.  Strict-lower entries are
    N(0, omega_i * beta); a component weight at or below zero (or a
    nonpositive lower variance) puts the state outside the open-simplex
    support and returns -inf, never an exception.
    """
    if np.any(params.omega <= 0.0) or hyper.lower_variance <= 0.0:
        return -np.inf
    value, _ = _prior_terms(params.lowers1[None], params.lowers2[None], params.d1_diag,
                            params.d2_diag, params.omega[None], params.theta, hyper)
    return value


def _all_finite(*arrays) -> bool:
    return all(np.isfinite(a).all() for a in arrays)


def _log_posterior_blocks(u: np.ndarray, layout: StateLayout, blocks,
                          hyper: SolvedHyper) -> tuple[float, np.ndarray]:
    """Log posterior over the layout's blocks in unconstrained coordinates,
    and its exact gradient.

    Value = per-block likelihoods + priors + log-Jacobians of all
    transforms.  Likelihood blocks are independent given the parameters;
    the weight trajectory couples the per-block lower priors to the
    first-block weights and the transition gammas, handled by one reverse
    pass over the chain.  States outside the support return (-inf, zeros);
    the sampler treats those as divergent proposals.
    """
    u = np.asarray(u, dtype=float)
    K, T = layout.n_components, layout.n_blocks
    d1, d2 = layout.d1, layout.d2
    if len(blocks) != T:
        raise ValueError(f"the layout has {T} blocks, the data {len(blocks)}")
    beta = hyper.lower_variance
    zeros = np.zeros(layout.size)

    params, log_jac = layout.decode_blocks(u)
    if (not np.isfinite(log_jac)) or beta <= 0.0:
        return -np.inf, zeros
    matrices = params.matrices
    omegas = omega_trajectory(params.omega1, matrices, layout.assignment, T)
    if np.any(omegas <= 0.0):
        return -np.inf, zeros

    D1, D2 = params.d1_diag, params.d2_diag
    var = omegas * beta
    n_ent = layout.m1 + layout.m2
    # weights so small that the lower variances underflow, or that the
    # prior or its gradient overflows, leave the support
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        prior, ssq = _prior_terms(params.lowers1, params.lowers2, D1, D2, omegas,
                                  params.theta, hyper)
        g1 = -params.lowers1 / var[:, :, None, None]
        g2 = -params.lowers2 / var[:, :, None, None]
        g_omega_direct = ssq / (2.0 * var * omegas) - 0.5 * n_ent / omegas
    if not _all_finite(prior, g1, g2, g_omega_direct):
        return -np.inf, zeros
    value = log_jac + prior
    alpha = layout.transition_alpha
    for G in params.gammas:
        value += float(np.sum((alpha - 1.0) * np.log(G) - G)) - G.size * lgamma(alpha)

    logdet_unit = d2 * float(np.sum(np.log(D1))) + d1 * float(np.sum(np.log(D2)))
    g_D1_T = np.zeros(d1)
    g_D2_T = np.zeros(d2)
    n_total = 0
    # a trace term that overflows (huge diagonals) leaves the support
    with np.errstate(over="ignore", invalid="ignore"):
        for t, block in enumerate(blocks):
            Tq, (gl1, gl2, gD1, gD2) = _trace_quad_core(
                params.lowers1[t], params.lowers2[t], D1, D2,
                block.scatter_rearranged, want_grad=True)
            n_t = block.n_obs
            n_total += n_t
            value += n_t * logdet_unit - 0.5 * Tq - 0.5 * n_t * d1 * d2 * LOG_2PI
            g1[t] -= 0.5 * gl1
            g2[t] -= 0.5 * gl2
            g_D1_T += gD1
            g_D2_T += gD2
    if not _all_finite(value, g1, g2, g_D1_T, g_D2_T):
        return -np.inf, zeros

    grad = np.empty(layout.size)
    grad[layout.sl_low1] = g1[:, :, layout.tril1[0], layout.tril1[1]].reshape(-1)
    grad[layout.sl_low2] = g2[:, :, layout.tril2[0], layout.tril2[1]].reshape(-1)

    # log-diagonal coordinates: d/du = (dlik/dD + dprior/dD) * D + 1, where
    # the 1/D terms of the log-determinant and the Gamma prior times D are
    # the constants n d2 and shape - 1, added without dividing by D
    grad[layout.sl_logd1] = (transforms.positive_grad(D1, -0.5 * g_D1_T - hyper.rate1)
                             + (n_total * d2 + hyper.shape1 - 1.0))
    grad[layout.sl_logd2] = (transforms.positive_grad(D2, -0.5 * g_D2_T - hyper.rate2)
                             + (n_total * d1 + hyper.shape2 - 1.0))

    # the weights enter only the priors: the lower-variance scaling of every
    # block, reached through omega_{t+1} = M_t omega_t by a reverse pass,
    # and the first block's Dirichlet
    g_A = [np.zeros((K, K)) for _ in range(layout.n_matrices)]
    lam = g_omega_direct[T - 1].copy()
    for t in range(T - 2, -1, -1):
        m = layout.assignment[t]
        if m is None:
            lam = g_omega_direct[t] + lam
        else:
            g_A[m] += np.outer(lam, omegas[t])
            lam = g_omega_direct[t] + matrices[m].T @ lam
    g_omega1 = lam + (params.theta - 1.0) / params.omega1
    if K > 1:
        grad[layout.sl_sticks] = transforms.stick_breaking_grad(u[layout.sl_sticks], g_omega1)

    g_theta = K * digamma(K * params.theta) - K * digamma(params.theta) \
        + float(np.sum(np.log(params.omega1)))
    grad[layout.sl_theta] = transforms.interval_grad(params.theta, g_theta)

    # chain gradients on each transition back to its gammas (log coordinates)
    pieces = []
    for G, A, gA in zip(params.gammas, matrices, g_A):
        gG = (gA - np.sum(gA * A, axis=0, keepdims=True)) / G.sum(axis=0, keepdims=True)
        pieces.append((gG * G + alpha - G).reshape(-1))
    if pieces:
        grad[layout.sl_gammas] = np.concatenate(pieces)

    return float(value), grad


def log_posterior_grad(u: np.ndarray, layout: StateLayout, data: DataSummary,
                       hyper: SolvedHyper, targets: PriorTargets
                       ) -> tuple[float, np.ndarray]:
    """Static log posterior in unconstrained coordinates and its exact
    gradient: the one-block case of the seasonal posterior.  ``targets`` is
    accepted for interface symmetry; the centering is baked into ``hyper``.
    """
    return _log_posterior_blocks(u, layout, (data,), hyper)
