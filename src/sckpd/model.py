"""The Cholesky-sum precision model: parameter containers, the one state
layout, factor assembly, the structured likelihood over the data scatter
in the form its contraction reads, the priors, and the log posterior with
its analytic gradient.

The precision factor of one data block is

    L = sum_i strict_lower(L1_i (x) L2_i) + D1 (x) D2,

with shared diagonal vectors D1, D2 across the K components.  Writing the
left member list as [low1_1, .., low1_K, diag(D1)] and the right list as
[low2_1, .., low2_K, diag(D2)], L = sum_{a,b} C[a,b] U_a (x) V_b with the
0/1 coupling C = [[I_K, 1], [1^T, 1]].  The data enter only through the
scatter S = sum_i y_i y_i^T.  With R its Van Loan rearrangement (Van Loan
& Pitsianis 1993), whose row (r, s) is the row-major vec of the (r, s)
d2 x d2 block of S, tr((A (x) B) S) = vec(A)^T R vec(B).  The trace term
tr(L L^T S) has two contractions, with m = K + 1 members:

- through the dense factor: the rearrangement of L is U~^T C V~, with U~,
  V~ the members stacked as rows vec(U_a), vec(V_b), so one product and
  one take give L; then tr(L L^T S) = <L, S L>, which reads S as it is.
- through the pair products, never forming a d1 d2-sized matrix:

      tr(L L^T S) = sum C[a,b] C[a',b'] vec(U_a U_a'^T)^T R vec(V_b V_b'^T)
                  = <CC, PU R QV^T>,

  with PU, QV the stacked pair products and CC[(a,a'),(b,b')] =
  C[a,b] C[a',b'].  It reads R.

Both give the member gradients from the products they already hold.  The
choice is one predicate of (d1, d2) alone, :func:`dense_contraction`: the
dense factor up to d1 d2 = ``DENSE_CUT`` (80), the pair products above.
Measured per call at T = 1 with one BLAS thread, the dense factor is the
faster up to 64 entries at K = 1, 3 and 5 (at 8x8 and K = 1 the two tie),
and the pair products from 144 entries.  From 70 to 80 entries the dense
factor takes 1.2-1.5x the pair products' time at K = 1, and they take
1.1-1.7x its time at K = 3 and 5; at 9x9 and K = 1 it takes 1.6x.  The
cut ignores K so that a summary, which is built before K is known,
stores its scatters in the one form the layout's contraction reads: the
paper shapes (4x5 and 5x2) read the dense factor, 16x16 the pair
products.

There is one posterior, :func:`log_posterior_grad`, over T time-ordered
blocks, each with its own strict-lower factors, sharing the diagonals; the
weights of block t+1 are A omega_t for one column-stochastic transition A
shared by every step (see ``dynamic``).  The static model is the case of
one block and no transition; :class:`SCKPDParams` holds the parameters of
one block, as the simulator draws them and a one-block layout decodes them.

One evaluation has no loop over blocks but the weight trajectory's.  The
data are a :class:`DataSummary`, built once by a fit's block reader: one
stack of the blocks' scatters in the form the contraction reads, as they
are, (T, d1 d2, d1 d2), or rearranged for the pair products, (T, d1^2,
d2^2).  A state decodes once: one exp over every coordinate
after the strict lowers gives the diagonals, the gammas and the logistic
values of the sticks and theta (the unconstrained reparameterizations:
log for positives, a centered stick-breaking map for the simplex, logit
for the unit interval; see :class:`StateLayout`); one take gives the
member rows [vec(U_a), vec(V_a)] of every block, so that one product
couples both modes; and the column normalization of gamma gives the
weight trajectory, which the posterior and the draws table both read.
All T trace terms and their member gradients are batched matrix
products; the gradients come laid out as the rows, and one take reads
back every strict-lower and every diagonal gradient.  The value's terms
linear in the coordinates or in their exps are a few dot products, and
the gradient of the coordinates after the strict lowers is taken on
Python floats.  What depends only on the shapes is built once:
:func:`trace_contraction` binds the contraction's coupling and, for the
dense one, the index maps that rearrange both ways; :class:`StateLayout`
holds the exp signs and offsets, the dot-product weights and the gather
and read-back index maps.  The data and the prior are read from their
own objects on every call; nothing is kept on the layout between calls.

An evaluation computes only what its caller reads, named by one of two
requests (or both, the default).  The value request, which the sampler
makes at the end of each trajectory, skips the member gradients, their
read-back, the digammas and the pass back over the weights; the gradient
request, which it makes at each leapfrog step, skips the log-Jacobian,
the lgamma and Gamma-density terms and the value's dot products.

The posterior is one core with two ways in.  :func:`log_posterior_grad`,
the entry, checks what is fixed for a whole fit (the request, the state's
length, the data's shapes and scatter form against the layout's, a
positive lower variance), enters the error-state scope and delegates to
:func:`log_posterior_core`, which does all the arithmetic and checks only
what depends on the state.  A fit's value requests go through the entry;
its gradient requests call the core inside ``hmc.leapfrog``'s scope, which
ignores the same floating-point events, so a step pays for neither the
checks nor a second scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from math import lgamma
from typing import NamedTuple

import numpy as np

from .hyper import PriorTargets, SolvedHyper, digamma

LOG_2PI = math.log(2.0 * math.pi)
DENSE_CUT = 80        # the largest d1 d2 whose trace term reads the dense factor
_ZERO = np.zeros(1)   # the value of the member entries no coordinate sets


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


def dense_contraction(d1: int, d2: int) -> bool:
    """Whether the trace term of d1 x d2 blocks contracts through the dense
    factor (else through the pair products): the one choice of the
    contraction, and so of the form a summary stores its scatters in."""
    return d1 * d2 <= DENSE_CUT


@dataclass(frozen=True)
class DataSummary:
    """Sufficient statistics of T time-ordered blocks: every block's scatter
    sum_i y_i y_i^T, stacked in the one form the shape's trace contraction
    reads (``scatters``: as they are, (T, d1 d2, d1 d2), or, with
    ``rearranged``, in their Van Loan rearrangement, (T, d1^2, d2^2)), and
    their total observation count."""

    n_obs: int
    d1: int
    d2: int
    scatters: np.ndarray
    rearranged: bool

    @classmethod
    def from_observations(cls, Y: np.ndarray, d1: int, d2: int) -> "DataSummary":
        Y = np.asarray(Y, dtype=float)
        if Y.ndim != 2 or Y.shape[1] != d1 * d2:
            raise ValueError(f"expected observations of width {d1 * d2}, got {Y.shape}")
        return cls.from_scatter(Y.T @ Y, Y.shape[0], d1, d2)

    @classmethod
    def from_scatter(cls, scatter: np.ndarray, n_obs: int, d1: int, d2: int) -> "DataSummary":
        """The summary of one block's scatter, or of a (T, d, d) stack of
        the blocks' scatters with ``n_obs`` their total count, in the form
        :func:`dense_contraction` picks for (d1, d2)."""
        scatter, d = np.ascontiguousarray(scatter, dtype=float), d1 * d2
        if scatter.shape[-2:] != (d, d):
            raise ValueError(f"expected {d} x {d} scatters, got shape {scatter.shape}")
        rearranged = not dense_contraction(d1, d2)
        stack = _regroup(scatter, d1, d2, d1, d2) if rearranged else scatter.reshape(-1, d, d)
        return cls(int(n_obs), d1, d2, stack, rearranged)


class _Decoded(NamedTuple):
    """One state decoded: every block's member rows [vec(U_a), vec(V_a)] of
    its two modes' members [lowers, diag(D)], the first block's weights with
    their break fractions, theta, the transition gamma with its column
    normalization, every block's weights and the log-Jacobian."""

    members: np.ndarray      # (T, K+1, d1^2 + d2^2)
    d1_diag: np.ndarray
    d2_diag: np.ndarray
    breaks: list             # the K-1 break fractions
    omega: list              # the first block's weights, as floats
    omega1: np.ndarray       # the same, as an array
    theta: float
    gamma: np.ndarray | None        # (K, K), None for one block
    transition: np.ndarray | None   # gamma's column normalization
    omegas: np.ndarray              # (T, K) weight trajectory
    log_jac: float
    exps: np.ndarray                # the tail's exps, D1 and D2 and gamma among them
    exp_floats: list                # the same, as floats

    @property
    def members1(self) -> np.ndarray:   # (T, K+1, d1, d1), a view of the rows
        d = self.d1_diag.shape[0]
        return self.members[..., :d * d].reshape(self.members.shape[:2] + (d, d))

    @property
    def members2(self) -> np.ndarray:   # (T, K+1, d2, d2), a view of the rows
        d = self.d2_diag.shape[0]
        return self.members[..., -d * d:].reshape(self.members.shape[:2] + (d, d))


class StateLayout:
    """Index map between model parameters and a flat unconstrained vector,
    and the one home of the parameterization.

    Packing order: strict-lower entries of every block's mode-1 components
    (row-major within each), then mode-2, then log D1, log D2, the K-1
    stick-breaking coordinates of the first block's weights, the logit of
    theta, and, for more than one block, the K*K log entries (row-major) of
    the gamma matrix, iid Gamma(1, 1) a priori, whose column normalization
    is the transition of every step.  A one-block layout has no transition,
    and ``decode`` exchanges its :class:`SCKPDParams`.

    The forward maps (exp for the positives, the logistic function for the
    sticks and theta, then the stick breaking) and their log-Jacobians
    are evaluated in one pass by ``_decode``, which also finds a state
    outside the floating-point support.  The stick-breaking map is centered
    (:func:`stick_offsets`), so the zero vector maps to the uniform simplex
    point.  :func:`stick_breaking_grad` pulls a gradient back to the
    sticks.
    """

    def __init__(self, d1: int, d2: int, n_components: int, n_blocks: int = 1):
        if min(d1, d2) < 2 or n_components < 1:
            raise ValueError("need d1, d2 >= 2 and at least one component")
        if n_blocks < 1:
            raise ValueError("need at least one block")
        self.d1, self.d2, self.n_components = d1, d2, n_components
        self.n_blocks = n_blocks
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
        offsets = np.append(stick_offsets(K), 0.0)
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
        # sum log D1, sum log D2; and sum D1, sum D2, sum gamma
        W = self.tail_sum_weights = np.zeros((n_tail, 3))
        W[:d1, 0], W[d1:n_pos, 0] = d2, d1
        W[:d1, 1] = W[d1:n_pos, 2] = 1.0
        W = self.exp_sum_weights = np.zeros((n_tail, 3))
        W[:d1, 0] = W[d1:n_pos, 1] = W[n_pos + K:, 2] = 1.0
        # the (block, component) of every strict-lower coordinate; the
        # member rows, gathered from [strict lowers, D1, D2, 0]; where the
        # strict-lower coordinates (packing order) and then the (T, d1 + d2)
        # diagonal entries of the diagonal members sit in the rows, which
        # is also where the trace term's member gradient holds them; and
        # the trace contraction
        self.n_ent = float(self.m1 + self.m2)
        self.lower_block = np.concatenate([np.repeat(np.arange(T * K), self.m1),
                                           np.repeat(np.arange(T * K), self.m2)])
        width = d1 * d1 + d2 * d2
        low1, diag1 = _member_maps(T, K, d1, self.tril1, width, 0)
        low2, diag2 = _member_maps(T, K, d2, self.tril2, width, d1 * d1)
        self.read_pos = np.concatenate([low1, low2, np.concatenate([diag1, diag2], 1).ravel()])
        self.member_source = np.full((T, K + 1, width), self.n_low + n_pos)
        self.member_source.put(self.read_pos, np.append(
            np.arange(self.n_low), np.tile(np.arange(self.n_low, self.n_low + n_pos), T)))
        self.zeros = np.zeros(self.size)
        self.trace_core = trace_contraction(d1, d2, K, T)

    def _decode(self, u: np.ndarray, jacobian: bool = True) -> _Decoded:
        """Every decoded quantity at ``u``, from one exp over the tail.

        The log-Jacobian is -inf when ``u`` decodes outside the support in
        floating point: a diagonal or transition gamma underflows to 0 or
        overflows, theta saturates at 0 or 1, or a weight underflows to 0.
        The transition and the weight trajectory are then not finite; the
        callers (``decode``, the posterior, the draws table) hold the
        error-state scope that ignores overflow, division by zero and
        invalid operations.  With ``jacobian`` false the support is checked
        but the log-Jacobian's dot products are skipped: it reads 0.0.
        ``u`` is a float array of the layout's size, as :meth:`check_state`
        gives it."""
        K, d1, d2, n_low = self.n_components, self.d1, self.d2, self.n_low
        tail = u[n_low:]
        e = np.exp(tail * self.tail_sign + self.tail_offset)
        exps = e.tolist()
        # the logistic values of the sticks break the simplex: weight k is
        # the stick left before break k times its fraction, the last weight
        # the stick left after every break
        *breaks, theta = [1.0 / (1.0 + x) for x in exps[self.sl_logistic]]
        omega, left = [], 1.0
        for zk in breaks:
            omega.append(left * zk)
            left = left * (1.0 - zk)
        omega.append(left)
        omega1 = np.array(omega)
        # a saturated logistic coordinate gives a theta of 0 or 1 or a zero
        # weight; a positive one that leaves the support gives a zero or an
        # infinite sum of the exps
        if not (0.0 < theta < 1.0 and min(omega) > 0.0 and min(exps) > 0.0
                and sum(exps) < math.inf):
            log_jac = -math.inf
        elif jacobian:
            log_jac = (float(tail @ self.jac_weights) + self.jac_offset
                       - float(np.log1p(e[self.sl_logistic]) @ self.log1p_weights))
        else:
            log_jac = 0.0
        gamma = transition = None
        if self.n_blocks > 1:
            gamma = e[d1 + d2 + K:].reshape(K, K)
            transition = gamma / gamma.sum(axis=0, keepdims=True)
            omegas = omega_trajectory(omega1, transition, self.n_blocks)
        else:
            omegas = omega1[None]
        members = np.concatenate((u[:n_low], e[:d1 + d2], _ZERO)).take(self.member_source)
        return _Decoded(members, e[:d1], e[d1:d1 + d2], breaks, omega, omega1, theta, gamma,
                        transition, omegas, log_jac, e, exps)

    def check_state(self, u) -> np.ndarray:
        """``u`` as a float array, refused unless it has the layout's size."""
        u = np.asarray(u, dtype=float)
        if u.shape != (self.size,):
            raise ValueError(f"expected a state vector of length {self.size}")
        return u

    def decode(self, u: np.ndarray) -> tuple[SCKPDParams, float]:
        """One block's params plus the total log-Jacobian of the transform
        at ``u``; -inf outside the support."""
        if self.n_blocks != 1:
            raise ValueError(f"decode gives one block's params; this layout has "
                             f"{self.n_blocks} blocks")
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            s = self._decode(self.check_state(u))
        K = self.n_components
        return SCKPDParams(lowers1=s.members1[0, :K], lowers2=s.members2[0, :K],
                           d1_diag=s.d1_diag, d2_diag=s.d2_diag, omega=s.omega1,
                           theta=s.theta), s.log_jac

    def unpack(self, u: np.ndarray) -> SCKPDParams:
        return self.decode(u)[0]


def stick_offsets(n_weights: int) -> np.ndarray:
    """Centering offsets log(K-1), .., log(1) of the K-1 stick coordinates:
    the zero vector breaks into the uniform simplex point."""
    return np.log(np.arange(n_weights - 1, 0, -1, dtype=float))


def stick_breaking_grad(z, omega, grad_omega) -> list:
    """Pull a gradient w.r.t. the simplex vector back to the y coordinates,
    adding the gradient of log|det J| (the target density includes the
    change-of-variables term).  ``z`` and ``omega`` are the break fractions
    and weights of the forward map at y; the K-1 gradients come as a list."""
    # with q = grad_omega * omega + 1, d/dy_k of f(omega) + log|det J| is
    # (1 - z_k) q_k - z_k sum_{j>k} q_j, since d omega_j / d z_k is left_k
    # at j == k and -omega_j/(1-z_k) for j > k, and log|det J| adds
    # log z_k + log(1 - z_k) + log left_k
    q = [g * w + 1.0 for g, w in zip(grad_omega, omega)]
    out, later = [], q[-1]
    for k in range(len(z) - 1, -1, -1):
        out.append((1.0 - z[k]) * q[k] - z[k] * later)
        later = later + q[k]
    return out[::-1]


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
    C = np.ones((K + 1, K + 1))
    C[:K, :K] = np.eye(K)
    return C


def _member_maps(T: int, K: int, d: int, tril, width: int, start: int):
    """Where one mode's (T, K+1, d, d) member stack sits in (T, K+1) rows of
    ``width`` entries, from entry ``start`` of each: the flat positions of
    its strict-lower entries (packing order) and its diagonal's (T, d)."""
    rows = np.arange(T * (K + 1) * width).reshape(T, K + 1, width)
    flat = rows[:, :, start:start + d * d].reshape(T, K + 1, d, d)
    return flat[:, :K, tril[0], tril[1]].reshape(-1), flat[:, K, np.arange(d), np.arange(d)]


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


def _trace_dense(members: np.ndarray, data, want: str, coupling: np.ndarray,
                 to_dense: np.ndarray, to_rearranged: np.ndarray):
    """sum_t tr(L_t L_t^T S_t) = sum_t <L_t, S_t L_t> through every block's
    dense factor.  The member rows hold U~ and V~ side by side, so one
    product gives C U~ and C V~.  The gradient w.r.t. the rearrangement
    U~^T C V~ of L is 2 H, H the rearrangement of S L, so the member
    gradients are 2 (C V~) H^T and 2 (C U~) H, laid out as the rows.  The
    index maps ``to_dense`` and ``to_rearranged`` rearrange by one take."""
    n = to_rearranged.shape[1]      # d1^2
    CM = coupling @ members
    CV = CM[..., n:]
    L = (members[..., :n].transpose(0, 2, 1) @ CV).take(to_dense)
    SL = data.scatters @ L
    value = float(np.vdot(L, SL)) if want != "grad" else None
    if want == "value":
        return value, None
    H = SL.take(to_rearranged)
    grad = np.empty(members.shape)
    np.matmul(CV, H.transpose(0, 2, 1), out=grad[..., :n])
    np.matmul(CM[..., :n], H, out=grad[..., n:])
    grad *= 2.0
    return value, grad


def _pair_products(members: np.ndarray) -> np.ndarray:
    """Row (a, a') of block t is the row-major vec(M_a M_a'^T) of the
    block's (K+1, d, d) members, for all ordered pairs: (T, m^2, d^2)."""
    T, m, d, _ = members.shape
    flat = members.reshape(T, m * d, d)
    return ((flat @ flat.transpose(0, 2, 1)).reshape(T, m, d, m, d)
            .transpose(0, 1, 3, 2, 4).reshape(T, m * m, d * d))


def _member_grad(dP: np.ndarray, members: np.ndarray) -> np.ndarray:
    """Pull a gradient w.r.t. the pair-product rows back to the members of
    every block, as (T, K+1, d^2) rows: with W[a,a'] row (a, a') of ``dP``
    as a matrix, the gradient of sum <M_a M_a'^T, W[a,a']> w.r.t. M_l is
    sum_a' W[l,a'] M_a' + sum_a W[a,l]^T M_a."""
    T, m, d, _ = members.shape
    W = dP.reshape(T, m, m, d, d).transpose(0, 1, 3, 2, 4).reshape(T, m * d, m * d)
    return ((W + W.transpose(0, 2, 1)) @ members.reshape(T, m * d, d)).reshape(T, m, d * d)


def _trace_pairs(members: np.ndarray, data, want: str, coupling_pairs: np.ndarray,
                 d1: int, d2: int):
    """sum_t tr(L_t L_t^T S_t) = sum_t <CC, PU_t R_t QV_t^T> over the pair
    products of every block's members, never forming a d1*d2-sized
    matrix; the member gradients are written side by side as the rows
    are."""
    T, m, _ = members.shape
    members1 = members[..., :d1 * d1].reshape(T, m, d1, d1)
    members2 = members[..., d1 * d1:].reshape(T, m, d2, d2)
    PU, QV, scatters = _pair_products(members1), _pair_products(members2), data.scatters
    dPU = coupling_pairs @ (QV @ scatters.transpose(0, 2, 1))       # dT/dPU
    value = float(np.vdot(PU, dPU)) if want != "grad" else None
    if want == "value":
        return value, None
    # CC is symmetric, so dT/dQV = CC PU R
    return value, np.concatenate([_member_grad(dPU, members1),
                                  _member_grad(coupling_pairs @ (PU @ scatters), members2)], 2)


def trace_contraction(d1: int, d2: int, n_components: int, n_blocks: int = 1) -> partial:
    """The contraction of the trace term that :func:`dense_contraction` picks
    for (d1, d2), with its constants bound: ``core(members, data, want)``
    gives, from the (T, K+1, d1^2 + d2^2) member rows of ``n_blocks`` blocks
    and a summary of that shape, the summed trace (None for the "grad"
    request) and the member gradient laid out as the rows (None for the
    "value" request)."""
    C = _coupling(n_components)
    if dense_contraction(d1, d2):
        index = np.arange(n_blocks * (d1 * d2) ** 2)
        return partial(_trace_dense, coupling=C, to_dense=_regroup(index, d1, d1, d2, d2),
                       to_rearranged=_regroup(index, d1, d2, d1, d2))
    return partial(_trace_pairs, coupling_pairs=np.kron(C, C), d1=d1, d2=d2)


def trace_quadratic(params: SCKPDParams, data: DataSummary) -> float:
    """tr(L L^T sum_i y_i y_i^T) by the contraction the shape picks."""
    core = trace_contraction(params.d1, params.d2, params.n_components)
    rows = [_members(low, diag).reshape(params.n_components + 1, -1)
            for low, diag in ((params.lowers1, params.d1_diag), (params.lowers2, params.d2_diag))]
    value, _ = core(np.concatenate(rows, axis=1)[None], data, "value")
    return value


def _gamma_logpdf(n: int, log_sum: float, total: float, shape: float, rate: float) -> float:
    """Log density of n iid Gamma(shape, rate) values from the sum of their
    logs and their sum."""
    return n * (shape * math.log(rate) - lgamma(shape)) + (shape - 1.0) * log_sum - rate * total


def _prior_value(scaled, omegas, theta, n_ent: int, hyper: SolvedHyper) -> float:
    """Log prior density of the strict lowers, the first block's weights
    and theta, from the (T, K) strict-lower sums of squares over their
    prior variances ``scaled``, of n_ent entries each, and the (T, K) block
    weights.

    Strict-lower entries of block t, component i are N(0, omega_t[i] beta);
    the first block's weights are Dirichlet(theta); theta is uniform on
    (0, 1) and contributes zero.
    """
    K = omegas.shape[1]
    log_w = np.log(omegas).sum(axis=1).tolist()
    return (-0.5 * (float(scaled.sum()) + n_ent * (omegas.size * (
                LOG_2PI + math.log(hyper.lower_variance)) + sum(log_w)))
            + lgamma(K * theta) - K * lgamma(theta) + (theta - 1.0) * log_w[0])


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
    value = _prior_value(scaled[None], params.omega[None], params.theta, n_ent, hyper)
    D1, D2 = params.d1_diag, params.d2_diag
    return (value + _gamma_logpdf(D1.size, np.log(D1).sum(), D1.sum(), hyper.shape1, hyper.rate1)
            + _gamma_logpdf(D2.size, np.log(D2).sum(), D2.sum(), hyper.shape2, hyper.rate2))


# the entry's error-state scope covers the decode and the whole evaluation:
# weights so small that the lower variances underflow, a prior or gradient
# term that overflows, or a trace term that overflows (huge diagonals) leave
# the support; the value or gradient comes out non-finite and is checked
# once, at the end
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def log_posterior_grad(u: np.ndarray, layout: StateLayout, data, hyper: SolvedHyper,
                       targets: PriorTargets, want: str = "both"):
    """Log posterior over the layout's blocks in unconstrained coordinates,
    its exact gradient, or both.  ``data``, a :class:`DataSummary` (or a
    ``dynamic.SeasonSchedule`` of one summary per block), gives the blocks'
    scatters and their total count ``n_obs`` (the shared diagonals make the
    per-block counts enter only through their sum).  ``targets`` is
    accepted for interface symmetry; the centering is baked into ``hyper``.

    ``want`` names the request: ``"value"`` returns the value alone, a
    float; ``"grad"`` the gradient alone, a fresh array; ``"both"`` (value,
    gradient).  Each request's numbers are those of the combined call.

    Value = per-block likelihoods + priors + log-Jacobians of all
    transforms.  Likelihood blocks are independent given the parameters;
    the weight trajectory couples the per-block lower priors to the
    first-block weights and the transition gammas, handled by one reverse
    pass over the chain.  Outside the support the value request returns
    -inf, the gradient request zeros and the combined call (-inf, zeros),
    all without a RuntimeWarning; the sampler treats those as divergent
    proposals.  Each request finds the state outside when the decode or
    what it computes leaves the floating-point range.

    This is the checked entry: it refuses a bad ``want``, data whose block
    count, mode dimensions or scatter form are not the layout's, and a
    state of another length, gives a nonpositive lower variance the
    outside result, and holds the error-state scope around
    :func:`log_posterior_core`, which does the arithmetic.
    """
    if want not in ("value", "grad", "both"):
        raise ValueError(f"want must be 'value', 'grad' or 'both', got {want!r}")
    form = (layout.n_blocks, layout.d1, layout.d2, not dense_contraction(layout.d1, layout.d2))
    if (len(data.scatters), data.d1, data.d2, data.rearranged) != form:
        raise ValueError(f"the layout has (blocks, d1, d2, rearranged) = {form}, the data "
                         f"{len(data.scatters), data.d1, data.d2, data.rearranged}")
    u = layout.check_state(u)
    if hyper.lower_variance <= 0.0:
        return _outside(want, layout.size)
    return log_posterior_core(u, layout, data, hyper, want)


def log_posterior_core(u: np.ndarray, layout: StateLayout, data, hyper: SolvedHyper,
                       want: str):
    """The arithmetic of :func:`log_posterior_grad`, with the same numbers,
    unchecked: ``u`` is a float array of the layout's size, ``data`` has
    the layout's shape, the lower variance is positive, ``want`` is one of
    the three requests, and the caller holds an error-state scope that
    ignores overflow, division by zero and invalid operations.  Only what
    depends on the state is checked here: the decode's support test and
    the finiteness of the result.  ``fit`` binds its gradient requests to
    this core, inside ``hmc.leapfrog``'s scope."""
    wants_value, wants_grad = want != "grad", want != "value"
    K, T, d1, d2 = layout.n_components, layout.n_blocks, layout.d1, layout.d2
    beta, n_obs, n_low, value, grad = hyper.lower_variance, data.n_obs, layout.n_low, 0.0, None
    s = layout._decode(u, jacobian=wants_value)
    if not s.log_jac > -math.inf:
        return _outside(want, layout.size)
    omegas, theta, omega = s.omegas, s.theta, s.omega
    lows = u[:n_low]
    lows_var = lows / (omegas * beta).take(layout.lower_block)
    scaled = np.bincount(layout.lower_block, lows * lows_var, T * K).reshape(T, K)
    trace, g_members = layout.trace_core(s.members, data, want)
    if wants_value:
        prior = _prior_value(scaled, omegas, theta, layout.n_ent, hyper)
        logdet_unit, log_d1, log_d2 = (u[n_low:] @ layout.tail_sum_weights).tolist()
        sum_d1, sum_d2, sum_g = (s.exps @ layout.exp_sum_weights).tolist()
        value = (s.log_jac + prior - 0.5 * trace
                 + _gamma_logpdf(d1, log_d1, sum_d1, hyper.shape1, hyper.rate1)
                 + _gamma_logpdf(d2, log_d2, sum_d2, hyper.shape2, hyper.rate2)
                 + n_obs * (logdet_unit - 0.5 * d1 * d2 * LOG_2PI)
                 - sum_g)   # the gammas' Gamma(1, 1) prior: 0.0 for one block

    if wants_grad:
        # the weights enter only the priors, every block's through
        # omega_{t+1} = A omega_t: a reverse pass gives the gradient w.r.t.
        # each block's weights, lam0 the first's with its Dirichlet prior
        A = s.transition
        lam0 = [0.5 * (c - layout.n_ent) / w + (theta - 1.0) / w
                for c, w in zip(scaled[0].tolist(), omega)]
        if T > 1:
            lams = 0.5 * (scaled - layout.n_ent) / omegas
            for t in range(T - 2, 0, -1):
                lams[t] += np.dot(A.T, lams[t + 1])
            lam0 = [g + a for g, a in zip(lam0, np.dot(A.T, lams[1]).tolist())]
        g_theta = (K * digamma(K * theta) - K * digamma(theta)
                   + float(np.add.reduce(np.log(s.omega1))))

        # strict lowers: the N(0, omega beta) prior and the trace term; one
        # take reads their member gradients and the diagonal members', whose
        # sum over the blocks one block does not need
        g_read = g_members.take(layout.read_pos)
        grad = np.empty(layout.size)
        np.subtract(-0.5 * g_read[:n_low], lows_var, out=grad[:n_low])
        g_D = (np.add.reduce(g_read[n_low:].reshape(T, d1 + d2)) if T > 1
               else g_read[n_low:]).tolist()

        # log-diagonal coordinates: d/du = (dlik/dD + dprior/dD) * D + 1,
        # where the 1/D terms of the log-determinant and the Gamma prior
        # times D are the constants n d2 and shape - 1: with the 1 they
        # add n d2 + shape, without dividing by D
        D, r1, r2 = s.exp_floats, hyper.rate1, hyper.rate2
        c1, c2 = n_obs * d2 + hyper.shape1, n_obs * d1 + hyper.shape2
        tail = ([(-0.5 * g - r1) * x + c1 for g, x in zip(g_D[:d1], D[:d1])]
                + [(-0.5 * g - r2) * x + c2 for g, x in zip(g_D[d1:], D[d1:d1 + d2])])
        tail += stick_breaking_grad(s.breaks, omega, lam0)
        # theta's logit: the chain rule plus the log-Jacobian's 1 - 2 theta
        tail.append(g_theta * theta * (1.0 - theta) + (1.0 - 2.0 * theta))

        # the transition's gradient sums lams[t+1] omegas[t]^T over the
        # steps; chain it back to the gammas (log coordinates) through
        # the column normalization A = G / colsum(G), whose Jacobian
        # times G is (g_A - colsum(g_A A)) A
        if T > 1:
            g_A = lams[1:].T @ omegas[:-1]
            tail += ((g_A - (g_A * A).sum(axis=0)) * A + (1.0 - s.gamma)).ravel().tolist()
        grad[n_low:] = tail

    # a non-finite gradient entry makes its product with 0 NaN
    if not (math.isfinite(value) and (grad is None or math.isfinite(grad @ layout.zeros))):
        return _outside(want, layout.size)
    if want == "value":
        return float(value)
    return grad if want == "grad" else (float(value), grad)


def _outside(want: str, size: int):
    """What a request returns at a state outside the support."""
    if want == "value":
        return -math.inf
    return np.zeros(size) if want == "grad" else (-math.inf, np.zeros(size))
