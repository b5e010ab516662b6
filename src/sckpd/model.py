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
The trace term tr(L L^T S) has two contractions, with m = K + 1 members
and d = d1 d2:

- through the dense factor: the rearrangement of L is U~^T C V~, with U~,
  V~ the members stacked as rows vec(U_a), vec(V_b), so one product and
  one inverse rearrangement give L; then tr(L L^T S) = <L, S L>.  It costs
  about d^3 + 3 m d1^2 d2^2 multiply-adds.
- through the pair products, never forming a d-sized matrix:

      tr(L L^T S) = sum C[a,b] C[a',b'] vec(U_a U_a'^T)^T R vec(V_b V_b'^T)
                  = <CC, PU R QV^T>,

  with PU, QV the stacked pair products and CC[(a,a'),(b,b')] =
  C[a,b] C[a',b'].  It costs about 2 m^2 d1^2 d2^2 + m^4 (d1^2 + d2^2).

:class:`StateLayout` picks the one with fewer flops, once, from (d1, d2,
K) (:func:`trace_contraction`): the dense one at the paper shapes (4x5 and
5x2 with K = 5), the pair products at 16x16.  Both give the member
gradients from the products they already hold.

There is one posterior, :func:`log_posterior_grad`, over T time-ordered
blocks, each with its own strict-lower factors, sharing the diagonals; the
weights of block t+1 are A omega_t for one column-stochastic transition A
shared by every step (see ``dynamic``).  The static model is the case of
one block and no transition; :class:`SCKPDParams` holds the parameters of
one block, as the simulator draws them and a one-block layout decodes them.

One evaluation has no loop over blocks but the weight trajectory's.  The
data are the (T, d1^2, d2^2) stack of the blocks' rearranged scatters (a
fit's ``dynamic.SeasonSchedule`` stacks them once, and a one-block stack
is a view); the dense contraction reads it back as the (T, d, d)
scatters with one reshape per call.  A state decodes once: one
exp over every coordinate after the strict lowers gives the diagonals, the
gammas and the logistic values of the sticks and theta; one gather gives
the (T, K+1, d, d) member stacks of every block in one buffer; and the
column normalization of gamma gives the weight trajectory, which the
posterior and the draws table both read.  All T trace terms and their
member gradients are batched matrix products, the member gradients land
in one buffer, and one index read each takes back every strict-lower and
every diagonal gradient.  The value's terms linear in the coordinates or
in their exps are a few dot products.  What depends only on the shapes
(the contraction and its coupling, the exp signs and offsets, the dot
product weights, the gather and read-back index maps) is built once, by
:class:`StateLayout`.  A state outside the floating-point support is found
by the decode's check or by one finiteness check of the value and the
assembled gradient, and gives (-inf, zeros) without a RuntimeWarning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from math import lgamma
from typing import NamedTuple

import numpy as np

from . import transforms
from .hyper import PriorTargets, SolvedHyper, digamma

LOG_2PI = math.log(2.0 * math.pi)
_ZERO = np.zeros(1)   # the value of the member entries no coordinate sets


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
    return _regroup(S, d1, d2, d1, d2)[0]


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

    @property
    def scatters(self) -> np.ndarray:
        """The (1, d1^2, d2^2) stack :func:`log_posterior_grad` reads: a view."""
        return self.scatter_rearranged[None]


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
    exps: np.ndarray                # the tail's exps, D1 and D2 and gamma among them


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
        # constants of every evaluation.  The coordinates after the strict
        # lowers (the tail) decode by one exp of sign * u + offset: exp(u)
        # for log D1, log D2 and the log gammas, and w = exp(offset - u) for
        # the sticks and theta, whose logistic values are z = 1 / (1 + w).
        # With log z = -log1p(w) and log(1 - z) = offset - u - log1p(w), the
        # log-Jacobian is a dot product of the tail, a constant and a dot
        # product of log1p(w); so are the value's other linear terms.
        self.n_low = self.sl_low2.stop
        n_pos, n_tail = d1 + d2, self.size - self.n_low
        self.sl_logistic = slice(n_pos, n_pos + K)   # within the tail
        offsets = np.append(transforms.stick_offsets(K), 0.0)
        self.tail_sign = np.ones(n_tail)
        self.tail_sign[self.sl_logistic] = -1.0
        self.tail_offset = np.zeros(n_tail)
        self.tail_offset[self.sl_logistic] = offsets
        # log(1 - z_k) enters once for itself and once for every later
        # stick left, log z_k once: theta has no later sticks
        n_logs = np.append(np.arange(K - 1, 0, -1), 1.0)
        self.jac_weights = self.tail_sign.copy()
        self.jac_weights[self.sl_logistic] = -n_logs
        self.jac_offset = float(n_logs @ offsets)
        self.log1p_weights = n_logs + 1.0
        # columns: the unit log-determinant d2 sum log D1 + d1 sum log D2,
        # sum log D1, sum log D2, sum log gamma; and sum D1, sum D2, sum gamma
        W = self.tail_sum_weights = np.zeros((n_tail, 4))
        W[:d1, 0], W[d1:n_pos, 0] = d2, d1
        W[:d1, 1] = W[d1:n_pos, 2] = W[n_pos + K:, 3] = 1.0
        W = self.exp_sum_weights = np.zeros((n_tail, 3))
        W[:d1, 0] = W[d1:n_pos, 1] = W[n_pos + K:, 2] = 1.0
        # the (block, component) of every strict-lower coordinate; the flat
        # member buffer, mode 1's (T, K+1, d1, d1) stack then mode 2's,
        # gathered from [strict lowers, D1, D2, 0]; where the strict-lower
        # coordinates (packing order) and the (T, d1 + d2) diagonal entries
        # of the diagonal members sit in it; and the trace contraction
        self.n_ent = self.m1 + self.m2
        self.lower_block = np.concatenate([np.repeat(np.arange(T * K), self.m1),
                                           np.repeat(np.arange(T * K), self.m2)])
        zero = self.n_low + n_pos
        self.n_members1 = T * (K + 1) * d1 * d1
        source1, low1, diag1 = _member_maps(T, K, d1, self.tril1, 0, self.n_low, zero, 0)
        source2, low2, diag2 = _member_maps(T, K, d2, self.tril2, self.sl_low2.start,
                                            self.n_low + d1, zero, self.n_members1)
        self.member_source = np.concatenate([source1, source2])
        self.low_pos = np.concatenate([low1, low2])
        self.diag_pos = np.concatenate([diag1, diag2], axis=1)
        self.trace_core = trace_contraction(d1, d2, K)

    def _decode(self, u: np.ndarray) -> _Decoded:
        """Every decoded quantity at ``u``, from one exp over the tail.

        The log-Jacobian is -inf when ``u`` decodes outside the support in
        floating point: a diagonal or transition gamma underflows to 0 or
        overflows, or theta or a stick-breaking coordinate saturates at 0
        or 1.  The transition and the weight
        trajectory are then not finite, and are computed without a
        RuntimeWarning."""
        u = np.asarray(u, dtype=float)
        if u.shape != (self.size,):
            raise ValueError(f"expected a state vector of length {self.size}")
        K, d1, d2, n_low = self.n_components, self.d1, self.d2, self.n_low
        tail = u[n_low:]
        with np.errstate(over="ignore"):
            e = np.exp(tail * self.tail_sign + self.tail_offset)
            w = e[self.sl_logistic]
            z = 1.0 / (1.0 + w)
            omega1, _ = transforms.stick_breaking(z[:-1])
            theta = float(z[-1])
            # a positive coordinate that leaves the support gives a zero or
            # an infinite sum of the exps; a saturated logistic one gives a
            # theta of 0 or 1 or a zero last weight
            if e.min() > 0.0 and e.sum() < math.inf and 0.0 < theta < 1.0 and omega1[-1] > 0.0:
                log_jac = (float(tail @ self.jac_weights) + self.jac_offset
                           - float(np.log1p(w) @ self.log1p_weights))
            else:
                log_jac = -math.inf
        gamma = transition = None
        if self.n_blocks > 1:
            gamma = e[d1 + d2 + K:].reshape(K, K)
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                transition = gamma / gamma.sum(axis=0, keepdims=True)
                omegas = omega_trajectory(omega1, transition, self.n_blocks)
        else:
            omegas = omega1[None]
        members = np.concatenate((u[:n_low], e[:d1 + d2], _ZERO)).take(self.member_source)
        return _Decoded(members1=members[:self.n_members1].reshape(-1, K + 1, d1, d1),
                        members2=members[self.n_members1:].reshape(-1, K + 1, d2, d2),
                        d1_diag=e[:d1], d2_diag=e[d1:d1 + d2], breaks=z[:-1], omega1=omega1,
                        theta=theta, gamma=gamma, transition=transition, omegas=omegas,
                        log_jac=log_jac, exps=e)

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
        np.dot(A, out[t], out=out[t + 1])
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


def _member_maps(T: int, K: int, d: int, tril, low_start: int, diag_start: int, zero: int,
                 base: int):
    """Where one mode's (T, K+1, d, d) member stack, at offset ``base`` of
    the flat member buffer, meets the packed coordinates: the position of
    each of its entries in [strict lowers, D1, D2, 0], the buffer position
    of each strict-lower coordinate (packing order), and the (T, d) buffer
    positions of the diagonal member's diagonal."""
    n_low = T * K * len(tril[0])
    flat = np.arange(T * (K + 1) * d * d).reshape(T, K + 1, d, d)
    low_pos = flat[:, :K, tril[0], tril[1]].reshape(-1)
    diag_pos = flat[:, K, np.arange(d), np.arange(d)]
    source = np.full(flat.size, zero)
    source[low_pos] = low_start + np.arange(n_low)
    source[diag_pos] = diag_start + np.arange(d)
    return source, base + low_pos, base + diag_pos


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


def _regroup(x: np.ndarray, p: int, q: int, r: int, s: int) -> np.ndarray:
    """Swap the middle index pair of a (T, p*q, r*s) stack: entry
    [(i, j), (k, l)] moves to [(i, k), (j, l)] of a (T, p*r, q*s) stack.
    With (p, q, r, s) = (d1, d2, d1, d2) this is the Van Loan rearrangement
    of every block; with (d1, d1, d2, d2) it is its inverse."""
    return x.reshape(-1, p, q, r, s).swapaxes(2, 3).reshape(-1, p * r, q * s)


def _trace_dense(members1: np.ndarray, members2: np.ndarray, scatters: np.ndarray,
                 want_grad: bool, coupling: np.ndarray):
    """sum_t tr(L_t L_t^T S_t) = sum_t <L_t, S_t L_t> through every block's
    dense factor.  The gradient w.r.t. the rearrangement U~^T C V~ of L is
    2 H, H the rearrangement of S L, so the member gradients are
    2 (C V~) H^T and 2 (C U~) H, written into one flat buffer in the
    member-buffer layout."""
    T, m, d1, _ = members1.shape
    d2 = members2.shape[-1]
    U = members1.reshape(T, m, d1 * d1)
    CV = coupling @ members2.reshape(T, m, d2 * d2)
    L = _regroup(U.transpose(0, 2, 1) @ CV, d1, d1, d2, d2)
    SL = _regroup(scatters, d1, d1, d2, d2) @ L
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


def _pair_products(members: np.ndarray) -> np.ndarray:
    """Row (a, a') of block t is the row-major vec(M_a M_a'^T) of the
    block's (K+1, d, d) members, for all ordered pairs: (T, m^2, d^2)."""
    T, m, d, _ = members.shape
    flat = members.reshape(T, m * d, d)
    return ((flat @ flat.transpose(0, 2, 1)).reshape(T, m, d, m, d)
            .transpose(0, 1, 3, 2, 4).reshape(T, m * m, d * d))


def _member_grad(dP: np.ndarray, members: np.ndarray, out: np.ndarray) -> None:
    """Pull a gradient w.r.t. the pair-product rows back to the members of
    every block, into the flat ``out``: with W[a,a'] row (a, a') of ``dP``
    as a matrix, the gradient of sum <M_a M_a'^T, W[a,a']> w.r.t. M_l is
    sum_a' W[l,a'] M_a' + sum_a W[a,l]^T M_a."""
    T, m, d, _ = members.shape
    W = dP.reshape(T, m, m, d, d).transpose(0, 1, 3, 2, 4).reshape(T, m * d, m * d)
    np.matmul(W + W.transpose(0, 2, 1), members.reshape(T, m * d, d),
              out=out.reshape(T, m * d, d))


def _trace_pairs(members1: np.ndarray, members2: np.ndarray, scatters: np.ndarray,
                 want_grad: bool, coupling_pairs: np.ndarray):
    """sum_t tr(L_t L_t^T S_t) = sum_t <CC, PU_t R_t QV_t^T> over the pair
    products of every block's members, never forming a d1*d2-sized
    matrix; the member gradients go into one flat buffer in the
    member-buffer layout."""
    PU = _pair_products(members1)
    QV = _pair_products(members2)
    dPU = coupling_pairs @ (QV @ scatters.transpose(0, 2, 1))       # dT/dPU
    value = float(np.vdot(PU, dPU))
    if not want_grad:
        return value, None
    grad = np.empty(members1.size + members2.size)
    _member_grad(dPU, members1, grad[:members1.size])
    # CC is symmetric, so dT/dQV = CC PU R
    _member_grad(coupling_pairs @ (PU @ scatters), members2, grad[members1.size:])
    return value, grad


def trace_contraction(d1: int, d2: int, n_components: int) -> partial:
    """The contraction of the trace term with fewer flops at this shape (the
    counts are in the module docstring), with its coupling bound:
    ``core(members1, members2, scatters, want_grad)`` gives the summed
    trace and the flat member gradient."""
    m, d = n_components + 1, d1 * d2
    C = _coupling(n_components)
    if d ** 3 + 3 * m * d * d < 2 * m * m * d * d + m ** 4 * (d1 * d1 + d2 * d2):
        return partial(_trace_dense, coupling=C)
    return partial(_trace_pairs, coupling_pairs=np.kron(C, C))


def trace_quadratic(params: SCKPDParams, data: DataSummary) -> float:
    """tr(L L^T sum_i y_i y_i^T) evaluated on the rearranged scatter."""
    core = trace_contraction(params.d1, params.d2, params.n_components)
    value, _ = core(_members(params.lowers1, params.d1_diag)[None],
                    _members(params.lowers2, params.d2_diag)[None],
                    data.scatters, want_grad=False)
    return value


def _gamma_logpdf(n: int, log_sum: float, total: float, shape: float, rate: float) -> float:
    """Log density of n iid Gamma(shape, rate) values from the sum of their
    logs and their sum."""
    return n * (shape * math.log(rate) - lgamma(shape)) + (shape - 1.0) * log_sum - rate * total


def _prior_terms(scaled, omegas, theta, n_ent: int, hyper: SolvedHyper):
    """Log prior density of the strict lowers, the first block's weights
    and theta, from the (T, K) strict-lower sums of squares over their
    prior variances ``scaled``, of n_ent entries each, and the (T, K) block
    weights; and its gradients w.r.t. those weights taken as free and
    w.r.t. theta.

    Strict-lower entries of block t, component i are N(0, omega_t[i] beta);
    the first block's weights are Dirichlet(theta); theta is uniform on
    (0, 1) and contributes zero.
    """
    K = omegas.shape[1]
    log_omegas = np.log(omegas)
    log_w = log_omegas.sum(axis=1).tolist()
    value = (-0.5 * (float(scaled.sum()) + n_ent * (omegas.size * (
                 LOG_2PI + math.log(hyper.lower_variance)) + sum(log_w)))
             + lgamma(K * theta) - K * lgamma(theta) + (theta - 1.0) * log_w[0])
    g_omegas = 0.5 * (scaled - n_ent) / omegas
    g_omegas[0] += (theta - 1.0) / omegas[0]
    g_theta = K * digamma(K * theta) - K * digamma(theta) + log_w[0]
    return value, g_omegas, g_theta


def log_prior(params: SCKPDParams, hyper: SolvedHyper,
              targets: PriorTargets | None = None) -> float:
    """Sum of all component log prior densities of one block.

    The centering targets are already baked into ``hyper``; ``targets`` is
    accepted for interface symmetry.  Strict-lower entries are
    N(0, omega_i * beta), the diagonals Gamma; a component weight at or
    below zero (or a nonpositive lower variance) puts the state outside the
    open-simplex support and returns -inf, never an exception.
    """
    if np.any(params.omega <= 0.0) or hyper.lower_variance <= 0.0:
        return -np.inf
    ssq = (np.einsum('kij,kij->k', params.lowers1, params.lowers1)
           + np.einsum('kij,kij->k', params.lowers2, params.lowers2))
    n_ent = params.d1 * (params.d1 - 1) // 2 + params.d2 * (params.d2 - 1) // 2
    scaled = ssq / (params.omega * hyper.lower_variance)
    value, _, _ = _prior_terms(scaled[None], params.omega[None], params.theta, n_ent, hyper)
    D1, D2 = params.d1_diag, params.d2_diag
    return (value + _gamma_logpdf(D1.size, np.log(D1).sum(), D1.sum(), hyper.shape1, hyper.rate1)
            + _gamma_logpdf(D2.size, np.log(D2).sum(), D2.sum(), hyper.shape2, hyper.rate2))


def log_posterior_grad(u: np.ndarray, layout: StateLayout, data, hyper: SolvedHyper,
                       targets: PriorTargets) -> tuple[float, np.ndarray]:
    """Log posterior over the layout's blocks in unconstrained coordinates,
    and its exact gradient.  ``data``, a :class:`DataSummary` or a
    ``dynamic.SeasonSchedule``, gives the (T, d1^2, d2^2) rearranged
    ``scatters`` and their total count ``n_obs`` (the shared diagonals make
    the per-block counts enter only through their sum).  ``targets`` is
    accepted for interface symmetry; the centering is baked into ``hyper``.

    Value = per-block likelihoods + priors + log-Jacobians of all
    transforms.  Likelihood blocks are independent given the parameters;
    the weight trajectory couples the per-block lower priors to the
    first-block weights and the transition gammas, handled by one reverse
    pass over the chain.  States outside the support return (-inf, zeros);
    the sampler treats those as divergent proposals.
    """
    scatters, n_obs = data.scatters, data.n_obs
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
    n_low = layout.n_low
    grad = np.empty(layout.size)
    # weights so small that the lower variances underflow, a prior or
    # gradient term that overflows, or a trace term that overflows (huge
    # diagonals) leave the support: the value or gradient comes out
    # non-finite and is checked once, at the end
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        lows = u[:n_low]
        lows_var = lows / (omegas * beta).take(layout.lower_block)
        scaled = np.bincount(layout.lower_block, lows * lows_var, T * K).reshape(T, K)
        trace, g_members = layout.trace_core(s.members1, s.members2, scatters, True)
        prior, g_omegas, g_theta = _prior_terms(scaled, omegas, theta, layout.n_ent, hyper)
        logdet_unit, log_d1, log_d2, log_g = (u[n_low:] @ layout.tail_sum_weights).tolist()
        sum_d1, sum_d2, sum_g = (s.exps @ layout.exp_sum_weights).tolist()
        value = (s.log_jac + prior - 0.5 * trace
                 + _gamma_logpdf(d1, log_d1, sum_d1, hyper.shape1, hyper.rate1)
                 + _gamma_logpdf(d2, log_d2, sum_d2, hyper.shape2, hyper.rate2)
                 + n_obs * (logdet_unit - 0.5 * d1 * d2 * LOG_2PI))
        if T > 1:
            value += (alpha - 1.0) * log_g - sum_g - G.size * lgamma(alpha)

        # strict lowers: the N(0, omega beta) prior and the trace term
        grad[:n_low] = -0.5 * g_members.take(layout.low_pos) - lows_var

        # log-diagonal coordinates: d/du = (dlik/dD + dprior/dD) * D + 1, where
        # the 1/D terms of the log-determinant and the Gamma prior times D are
        # the constants n d2 and shape - 1: with the 1 they add n d2 + shape,
        # without dividing by D
        g_D = -0.5 * g_members.take(layout.diag_pos).sum(axis=0)
        grad[layout.sl_logd1] = (g_D[:d1] - hyper.rate1) * D1 + (n_obs * d2 + hyper.shape1)
        grad[layout.sl_logd2] = (g_D[d1:] - hyper.rate2) * D2 + (n_obs * d1 + hyper.shape2)

        # the weights enter only the priors, every block's through
        # omega_{t+1} = A omega_t: a reverse pass gives the gradient w.r.t.
        # each block's weights, lams[0] the first block's
        lams = g_omegas
        for t in range(T - 2, -1, -1):
            lams[t] += np.dot(A.T, lams[t + 1])
        if K > 1:
            grad[layout.sl_sticks] = transforms.stick_breaking_grad(s.breaks, s.omega1, lams[0])
        grad[layout.sl_theta] = transforms.interval_grad(theta, g_theta)

        # the transition's gradient sums lams[t+1] omegas[t]^T over the
        # steps; chain it back to the gammas (log coordinates) through the
        # column normalization A = G / colsum(G), whose Jacobian times G is
        # (g_A - colsum(g_A A)) A
        if T > 1:
            g_A = lams[1:].T @ omegas[:-1]
            grad[layout.sl_gammas] = ((g_A - (g_A * A).sum(axis=0)) * A + (alpha - G)).ravel()

    if not (math.isfinite(value) and np.isfinite(grad).all()):
        return -np.inf, np.zeros(layout.size)
    return float(value), grad

