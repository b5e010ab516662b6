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
block t+1 are A omega_t for one column-stochastic transition A shared by
every step (see ``dynamic``).  The static model is the case of one block
and no transition; :class:`SCKPDParams` holds the parameters of one block,
as the simulator draws them and a one-block layout decodes them.

One evaluation has no loop over blocks.  The data are the (T, d1^2, d2^2)
stack of the blocks' rearranged scatters (a view of the one scatter for the
static model, stacked once by ``dynamic.SeasonSchedule``).  A state decodes
once: one exp of the log diagonals and log gammas, one expit of the stick
and theta coordinates, a gather into the (T, K+1, d, d) member stacks of
every block, and the column normalization of gamma with the weight
trajectory it gives, which the posterior and the draws table both read.
All T trace terms and their member gradients are batched matrix products
over those stacks, and the gradients of the packed coordinates are read
back by index.  What depends only on the shapes (the coupling CC, the
gather and read-back index maps, the stick offsets) is built once, by
:class:`StateLayout`.  A state outside the floating-point support is found
by one finiteness check of the value and the assembled gradient, and gives
(-inf, zeros) without a RuntimeWarning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import lgamma
from typing import NamedTuple

import numpy as np

from . import transforms
from .hyper import PriorTargets, SolvedHyper, digamma

LOG_2PI = math.log(2.0 * math.pi)


def vanloan_rearrange(S: np.ndarray, d1: int, d2: int) -> np.ndarray:
    """Rearrange a d1*d2 x d1*d2 matrix into the d1^2 x d2^2 form whose
    rank-1 terms correspond to Kronecker terms of ``S``.

    Row (r, s) of the result is the row-major vectorization of the
    (r, s) block of ``S``; the rearrangement of ``np.kron(A, B)`` is the
    rank-1 outer product vec(A) vec(B)^T.
    """
    S = np.asarray(S, dtype=float)
    if S.shape != (d1 * d2, d1 * d2):
        raise ValueError(f"expected a {d1 * d2} x {d1 * d2} matrix, got {S.shape}")
    return S.reshape(d1, d2, d1, d2).transpose(0, 2, 1, 3).reshape(d1 * d1, d2 * d2)


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


class _Decoded(NamedTuple):
    """One state decoded: the (T, K+1, d, d) member stacks [lowers,
    diag(D)] of every block, the first block's weights with their break
    fractions, theta, the transition gamma with its column normalization,
    every block's weights and the log-Jacobian."""

    members1: np.ndarray     # (T, K+1, d1, d1)
    members2: np.ndarray     # (T, K+1, d2, d2)
    d1_diag: np.ndarray
    d2_diag: np.ndarray
    breaks: np.ndarray       # (K-1,) break fractions
    omega1: np.ndarray
    theta: float
    gamma: np.ndarray | None        # (K, K), None for one block
    transition: np.ndarray | None   # gamma's column normalization
    omegas: np.ndarray              # (T, K) weight trajectory
    log_jac: float


class StateLayout:
    """Index map between model parameters and a flat unconstrained vector.

    Packing order: strict-lower entries of every block's mode-1 components
    (row-major within each), then mode-2, then log D1, log D2, the K-1
    stick-breaking coordinates of the first block's weights, the logit of
    theta, and, for more than one block, the K*K log entries (row-major) of
    the gamma matrix whose column normalization is the transition of every
    step.  A one-block layout has no transition, and ``decode`` exchanges
    its :class:`SCKPDParams`.
    """

    def __init__(self, d1: int, d2: int, n_components: int, n_blocks: int = 1,
                 transition_alpha: float = 1.0):
        if min(d1, d2) < 2 or n_components < 1:
            raise ValueError("need d1, d2 >= 2 and at least one component")
        if n_blocks < 1:
            raise ValueError("need at least one block")
        self.d1, self.d2, self.n_components = d1, d2, n_components
        self.n_blocks = n_blocks
        self.transition_alpha = float(transition_alpha)
        self.tril1 = np.tril_indices(d1, -1)
        self.tril2 = np.tril_indices(d2, -1)
        self.m1 = len(self.tril1[0])
        self.m2 = len(self.tril2[0])
        K, T = n_components, n_blocks
        sizes = [T * K * self.m1, T * K * self.m2, d1, d2, K - 1, 1, (T > 1) * K * K]
        bounds = np.cumsum([0] + sizes)
        (self.sl_low1, self.sl_low2, self.sl_logd1, self.sl_logd2,
         self.sl_sticks, self.sl_theta, self.sl_gammas) = (
            slice(bounds[i], bounds[i + 1]) for i in range(7))
        self.size = int(bounds[-1])
        # constants of every evaluation: the coordinates decoded by exp
        # (log D1, log D2, log gammas), the offsets of those decoded by expit
        # (the sticks, then theta), the (block, component) of every
        # strict-lower coordinate, how the member stacks are gathered from
        # [strict lowers, D1, D2, 0] and where their gradients are read, and
        # the coupling of the member lists
        self.positive_index = np.r_[self.sl_logd1, self.sl_logd2, self.sl_gammas]
        self.sl_logistic = slice(self.sl_sticks.start, self.sl_theta.stop)
        self.logistic_offsets = np.append(transforms.stick_offsets(K), 0.0)
        self.sl_lows = slice(0, self.sl_low2.stop)
        self.n_ent = self.m1 + self.m2
        self.lower_block = np.concatenate([np.repeat(np.arange(T * K), self.m1),
                                           np.repeat(np.arange(T * K), self.m2)])
        zero = self.sl_lows.stop + d1 + d2
        self.members1_source, self.low1_pos, self.diag1_pos = _member_maps(
            T, K, d1, self.tril1, 0, self.sl_lows.stop, zero)
        self.members2_source, self.low2_pos, self.diag2_pos = _member_maps(
            T, K, d2, self.tril2, self.sl_low2.start, self.sl_lows.stop + d1, zero)
        self.coupling_pairs = np.kron(_coupling(K), _coupling(K))

    def _decode(self, u: np.ndarray) -> _Decoded:
        """Every decoded quantity at ``u``, from one exp of the positive
        coordinates and one expit of the logistic ones.

        The log-Jacobian is -inf when ``u`` decodes outside the support in
        floating point: a diagonal or transition gamma underflows to 0 or
        overflows, or theta or a stick-breaking coordinate saturates at 0
        or 1 (see ``transforms``).  The transition and the weight
        trajectory are then not finite, and are computed without a
        RuntimeWarning."""
        u = np.asarray(u, dtype=float)
        if u.shape != (self.size,):
            raise ValueError(f"expected a state vector of length {self.size}")
        K, d1, d2 = self.n_components, self.d1, self.d2
        positives, log_jac = transforms.positive_forward(u[self.positive_index])
        D1, D2 = positives[:d1], positives[d1:d1 + d2]
        z = transforms.expit(u[self.sl_logistic] - self.logistic_offsets)
        omega1, left = transforms.stick_breaking(z[:-1])
        theta = float(z[-1])
        # every weight positive means every break fraction lies in (0, 1)
        if log_jac > -np.inf and omega1.min() > 0.0 and 0.0 < theta < 1.0:
            log_jac += transforms.logistic_log_jac(z) + np.log(left).sum()
        else:
            log_jac = -np.inf
        gamma = transition = None
        if self.n_blocks > 1:
            gamma = positives[d1 + d2:].reshape(K, K)
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                transition = gamma / gamma.sum(axis=0, keepdims=True)
                omegas = omega_trajectory(omega1, transition, self.n_blocks)
        else:
            omegas = omega1[None]
        source = np.concatenate((u[self.sl_lows], positives[:d1 + d2], np.zeros(1)))
        return _Decoded(members1=source[self.members1_source],
                        members2=source[self.members2_source], d1_diag=D1, d2_diag=D2,
                        breaks=z[:-1], omega1=omega1, theta=theta, gamma=gamma,
                        transition=transition, omegas=omegas, log_jac=log_jac)

    def decode(self, u: np.ndarray) -> tuple[SCKPDParams, float]:
        """One block's params plus the total log-Jacobian of the transform
        at ``u``; -inf outside the support."""
        if self.n_blocks != 1:
            raise ValueError(f"decode gives one block's params; this layout has "
                             f"{self.n_blocks} blocks")
        s = self._decode(u)
        K = self.n_components
        return SCKPDParams(lowers1=s.members1[0, :K], lowers2=s.members2[0, :K],
                           d1_diag=s.d1_diag, d2_diag=s.d2_diag, omega=s.omega1,
                           theta=s.theta), s.log_jac

    def unpack(self, u: np.ndarray) -> SCKPDParams:
        return self.decode(u)[0]


def omega_trajectory(omega1: np.ndarray, A: np.ndarray | None, n_blocks: int) -> np.ndarray:
    """Weights for every block: omega_1, then omega_{t+1} = A omega_t.  One
    block needs no transition, and ``A`` may then be None."""
    out = np.empty((n_blocks, omega1.shape[0]))
    out[0] = omega1
    for t in range(n_blocks - 1):
        out[t + 1] = A @ out[t]
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


def log_det_ldagger(d1_diag: np.ndarray, d2_diag: np.ndarray) -> float:
    """log det of a factor with diagonals D1, D2: d2 * sum(log D1) +
    d1 * sum(log D2); the strict-lower parts drop out."""
    return float(len(d2_diag) * np.sum(np.log(d1_diag))
                 + len(d1_diag) * np.sum(np.log(d2_diag)))


def _coupling(K: int) -> np.ndarray:
    C = np.zeros((K + 1, K + 1))
    C[:K, :K] = np.eye(K)
    C[:, K] = 1.0
    C[K, :K] = 1.0
    return C


def _member_maps(T: int, K: int, d: int, tril, low_start: int, diag_start: int, zero: int):
    """Where the (T, K+1, d, d) member stacks meet the packed coordinates:
    the position of each of their entries in [strict lowers, D1, D2, 0],
    the flat position in them of each strict-lower coordinate (packing
    order), and the (T, d) flat positions of the diagonal member's diagonal."""
    n_low = T * K * len(tril[0])
    flat = np.arange(T * (K + 1) * d * d).reshape(T, K + 1, d, d)
    low_pos = flat[:, :K, tril[0], tril[1]].reshape(-1)
    diag_pos = flat[:, K, np.arange(d), np.arange(d)]
    source = np.full(flat.size, zero)
    source[low_pos] = low_start + np.arange(n_low)
    source[diag_pos] = diag_start + np.arange(d)
    return source.reshape(flat.shape), low_pos, diag_pos


def _members(low: np.ndarray, diag: np.ndarray) -> np.ndarray:
    """The member stack [lowers, diag(D)] of (..., K, d, d) lowers."""
    D = np.broadcast_to(np.diag(diag), low.shape[:-3] + (1,) + low.shape[-2:])
    return np.concatenate([low, D], axis=-3)


def lower_energies(members1: np.ndarray, members2: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of the strict-lower factor part of every
    block, from its (T, K+1, d, d) member stacks [lowers, diag(D)], without
    assembling a factor: a (T,) array.

    The strict lower part is sum C'[a,b] U_a (x) V_b, with C' the coupling
    without its diag (x) diag entry, so its energy is
    sum C'[a,b] C'[a',b'] <U_a, U_a'> <V_b, V_b'>.
    """
    C = _coupling(members1.shape[1] - 1)
    C[-1, -1] = 0.0
    GU = np.einsum('taij,tbij->tab', members1, members1)
    GV = np.einsum('taij,tbij->tab', members2, members2)
    return np.sum(C * (GU @ C @ GV), axis=(1, 2))


def _pair_products(members: np.ndarray) -> np.ndarray:
    """Row (a, a') of block t is the row-major vec(M_a M_a'^T) of the
    block's (K+1, d, d) members, for all ordered pairs: (T, m^2, d^2)."""
    T, m, d, _ = members.shape
    flat = members.reshape(T, m * d, d)
    return ((flat @ flat.transpose(0, 2, 1)).reshape(T, m, d, m, d)
            .transpose(0, 1, 3, 2, 4).reshape(T, m * m, d * d))


def _member_grad(dP: np.ndarray, members: np.ndarray) -> np.ndarray:
    """Pull a gradient w.r.t. the pair-product rows back to the members of
    every block: with W[a,a'] row (a, a') of ``dP`` as a matrix, the
    gradient of sum <M_a M_a'^T, W[a,a']> w.r.t. M_l is
    sum_a' W[l,a'] M_a' + sum_a W[a,l]^T M_a."""
    T, m, d, _ = members.shape
    W = dP.reshape(T, m, m, d, d).transpose(0, 1, 3, 2, 4).reshape(T, m * d, m * d)
    return ((W + W.transpose(0, 2, 1)) @ members.reshape(T, m * d, d)).reshape(T, m, d, d)


def _trace_quad_core(members1: np.ndarray, members2: np.ndarray, coupling_pairs: np.ndarray,
                     scatters: np.ndarray, want_grad: bool):
    """sum_t tr(L_t L_t^T S_t) = sum_t <CC, PU_t R_t QV_t^T> over the blocks'
    (T, K+1, d, d) member stacks and (T, d1^2, d2^2) rearranged scatters,
    optionally with the gradients w.r.t. every block's members."""
    PU = _pair_products(members1)
    QV = _pair_products(members2)
    dPU = coupling_pairs @ (QV @ scatters.transpose(0, 2, 1))       # dT/dPU
    value = float(np.vdot(PU, dPU))
    if not want_grad:
        return value, None
    # CC is symmetric, so dT/dQV = CC PU R
    return value, (_member_grad(dPU, members1),
                   _member_grad(coupling_pairs @ (PU @ scatters), members2))


def trace_quadratic(params: SCKPDParams, data: DataSummary) -> float:
    """tr(L L^T sum_i y_i y_i^T) evaluated on the rearranged scatter."""
    C = _coupling(params.n_components)
    value, _ = _trace_quad_core(_members(params.lowers1, params.d1_diag)[None],
                                _members(params.lowers2, params.d2_diag)[None],
                                np.kron(C, C), data.scatter_rearranged[None], want_grad=False)
    return value


def _gamma_logpdf(x: np.ndarray, shape: float, rate: float) -> float:
    return (x.size * (shape * math.log(rate) - lgamma(shape))
            + (shape - 1.0) * np.log(x).sum() - rate * x.sum())


def _prior_terms(ssq, D1, D2, omegas, theta, n_ent: int, hyper: SolvedHyper):
    """Log prior density of all but the transition gammas, from the (T, K)
    strict-lower sums of squares ``ssq`` of n_ent entries each and the
    (T, K) block weights, and its gradient w.r.t. those weights taken as
    free.

    Strict-lower entries of block t, component i are N(0, omega_t[i] beta);
    the diagonals are Gamma; the first block's weights are Dirichlet(theta);
    theta is uniform on (0, 1) and contributes zero.
    """
    var = omegas * hyper.lower_variance
    scaled = ssq / var
    K = omegas.shape[1]
    value = (_gamma_logpdf(D1, hyper.shape1, hyper.rate1)
             + _gamma_logpdf(D2, hyper.shape2, hyper.rate2)
             - 0.5 * (scaled.sum() + n_ent * (var.size * LOG_2PI + np.log(var).sum()))
             + lgamma(K * theta) - K * lgamma(theta)
             + (theta - 1.0) * np.log(omegas[0]).sum())
    g_omegas = 0.5 * (scaled - n_ent) / omegas
    g_omegas[0] += (theta - 1.0) / omegas[0]
    return value, g_omegas


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
    ssq = (np.einsum('kij,kij->k', params.lowers1, params.lowers1)
           + np.einsum('kij,kij->k', params.lowers2, params.lowers2))
    n_ent = params.d1 * (params.d1 - 1) // 2 + params.d2 * (params.d2 - 1) // 2
    value, _ = _prior_terms(ssq[None], params.d1_diag, params.d2_diag, params.omega[None],
                            params.theta, n_ent, hyper)
    return value


def _log_posterior_blocks(u: np.ndarray, layout: StateLayout, scatters: np.ndarray,
                          n_obs: int, hyper: SolvedHyper) -> tuple[float, np.ndarray]:
    """Log posterior over the layout's blocks in unconstrained coordinates,
    and its exact gradient, from the blocks' (T, d1^2, d2^2) rearranged
    scatters and their total observation count ``n_obs`` (the shared
    diagonals make the per-block counts enter only through their sum).

    Value = per-block likelihoods + priors + log-Jacobians of all
    transforms.  Likelihood blocks are independent given the parameters;
    the weight trajectory couples the per-block lower priors to the
    first-block weights and the transition gammas, handled by one reverse
    pass over the chain.  States outside the support return (-inf, zeros);
    the sampler treats those as divergent proposals.
    """
    K, T, d1, d2 = layout.n_components, layout.n_blocks, layout.d1, layout.d2
    if scatters.shape != (T, d1 * d1, d2 * d2):
        raise ValueError(f"the layout has {T} blocks of {d1}x{d2}, "
                         f"the data rearranged scatters of shape {scatters.shape}")
    beta = hyper.lower_variance
    s = layout._decode(u)
    if not s.log_jac > -np.inf or beta <= 0.0:
        return -np.inf, np.zeros(layout.size)
    D1, D2, G, A, omegas, theta = s.d1_diag, s.d2_diag, s.gamma, s.transition, s.omegas, s.theta
    alpha = layout.transition_alpha
    grad = np.empty(layout.size)
    # weights so small that the lower variances underflow, a prior or
    # gradient term that overflows, or a trace term that overflows (huge
    # diagonals) leave the support: the value or gradient comes out
    # non-finite and is checked once, at the end
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        var = omegas * beta
        lows = u[layout.sl_lows]
        ssq = np.bincount(layout.lower_block, lows * lows, T * K).reshape(T, K)
        trace, (GU, GV) = _trace_quad_core(s.members1, s.members2, layout.coupling_pairs,
                                           scatters, want_grad=True)
        prior, g_omegas = _prior_terms(ssq, D1, D2, omegas, theta, layout.n_ent, hyper)
        logdet_unit = d2 * u[layout.sl_logd1].sum() + d1 * u[layout.sl_logd2].sum()
        value = (s.log_jac + prior + n_obs * (logdet_unit - 0.5 * d1 * d2 * LOG_2PI)
                 - 0.5 * trace)
        if T > 1:
            value += ((alpha - 1.0) * u[layout.sl_gammas].sum() - G.sum()
                      - G.size * lgamma(alpha))

        # strict lowers: the N(0, omega beta) prior and the trace term
        grad[layout.sl_lows] = -lows / var.take(layout.lower_block)
        grad[layout.sl_low1] -= 0.5 * GU.take(layout.low1_pos)
        grad[layout.sl_low2] -= 0.5 * GV.take(layout.low2_pos)

        # log-diagonal coordinates: d/du = (dlik/dD + dprior/dD) * D + 1, where
        # the 1/D terms of the log-determinant and the Gamma prior times D are
        # the constants n d2 and shape - 1, added without dividing by D
        g_D1 = GU.take(layout.diag1_pos).sum(axis=0)
        g_D2 = GV.take(layout.diag2_pos).sum(axis=0)
        grad[layout.sl_logd1] = (transforms.positive_grad(D1, -0.5 * g_D1 - hyper.rate1)
                                 + (n_obs * d2 + hyper.shape1 - 1.0))
        grad[layout.sl_logd2] = (transforms.positive_grad(D2, -0.5 * g_D2 - hyper.rate2)
                                 + (n_obs * d1 + hyper.shape2 - 1.0))

        # the weights enter only the priors, every block's through
        # omega_{t+1} = A omega_t: a reverse pass gives the gradient w.r.t.
        # each block's weights, lams[0] the first block's
        lams = np.empty((T, K))
        lams[T - 1] = g_omegas[T - 1]
        for t in range(T - 2, -1, -1):
            lams[t] = g_omegas[t] + A.T @ lams[t + 1]
        if K > 1:
            grad[layout.sl_sticks] = transforms.stick_breaking_grad(s.breaks, s.omega1, lams[0])
        g_theta = K * digamma(K * theta) - K * digamma(theta) \
            + np.log(s.omega1).sum()
        grad[layout.sl_theta] = transforms.interval_grad(theta, g_theta)

        # the transition's gradient sums lams[t+1] omegas[t]^T over the
        # steps; chain it back to the gammas (log coordinates) through the
        # column normalization
        if T > 1:
            g_A = lams[1:].T @ omegas[:-1]
            g_G = (g_A - (g_A * A).sum(axis=0, keepdims=True)) / G.sum(axis=0, keepdims=True)
            grad[layout.sl_gammas] = (g_G * G + alpha - G).reshape(-1)

    if not (np.isfinite(value) and np.isfinite(grad).all()):
        return -np.inf, np.zeros(layout.size)
    return float(value), grad


def log_posterior_grad(u: np.ndarray, layout: StateLayout, data: DataSummary,
                       hyper: SolvedHyper, targets: PriorTargets
                       ) -> tuple[float, np.ndarray]:
    """Static log posterior in unconstrained coordinates and its exact
    gradient: the one-block case of the seasonal posterior.  ``targets`` is
    accepted for interface symmetry; the centering is baked into ``hyper``.
    """
    return _log_posterior_blocks(u, layout, data.scatter_rearranged[None], data.n_obs, hyper)
