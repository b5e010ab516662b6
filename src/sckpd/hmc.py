"""Self-contained Hamiltonian Monte Carlo with a diagonal mass matrix:
position-Verlet leapfrog (half step in position, full step in momentum,
half step in position), Metropolis correction, dual-averaging step-size
adaptation from ``INITIAL_STEP`` toward the acceptance rate ``TARGET_ACCEPT``,
mass estimation from warmup variances at the midpoint of a warmup of at
least 40 iterations, and autocorrelation-based chain diagnostics.

The target comes as two requests: ``value_fn(q)``, the log posterior, and
``grad_fn(q)``, its gradient.  Every proposal, the sampler's and the step
search's, is one ``_trajectory``: ``n_leapfrog`` gradient requests along
the way and one value request at the end point, whose energy is inf if
the trajectory diverges; each caller keeps its own rule on the energy
difference.  A chain makes one more value request, at its initial state.

``effective_sample_size`` and ``split_rhat`` take draws shaped (C, N, m),
C chains of N draws of m columns, and return one value per column as an
(m,) array; the report reads them on the draws table's statistics, not on
the unconstrained draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DIVERGENCE_ENERGY = 1000.0   # |dH| beyond this flags the proposal divergent
TARGET_ACCEPT = 0.8          # acceptance rate the warmup adapts the step toward
INITIAL_STEP = 0.05          # step the warmup's first step search starts from
# fraction by which the step is uniformly jittered each iteration; kills the
# near-periodic trapping a fixed trajectory length suffers on targets whose
# oscillation period divides the integration time
STEP_JITTER = 0.2


@dataclass
class Chain:
    draws: np.ndarray                  # (n_draws, dim) unconstrained states
    accept_flags: np.ndarray
    energies: np.ndarray
    divergence_flags: np.ndarray
    adapted_step_size: float


def leapfrog(grad_fn, q: np.ndarray, p: np.ndarray, step_size: float,
             n_steps: int, mass_inv: np.ndarray | None = None
             ) -> tuple[np.ndarray, np.ndarray] | None:
    """Integrate n_steps of the half-q / full-p / half-q splitting.

    ``grad_fn(q)`` returns the gradient of the log posterior.  Deterministic,
    time reversible (negate p and integrate back), with O(step^2) energy
    error.  Returns None, with no further gradient request, once the state
    turns non-finite; an update that overflows does so, and raises no
    warning.  One error-state scope, which ignores overflow, division by
    zero and invalid operations, covers the whole trajectory, ``grad_fn``'s
    calls included: ``grad_fn`` may hold no scope of its own, as the
    posterior's core, which ``fit`` binds its gradient requests to, does
    not.
    """
    q = np.array(q, dtype=float)
    p = np.array(p, dtype=float)
    minv = np.ones_like(q) if mass_inv is None else mass_inv
    full = step_size * minv
    half = 0.5 * step_size * minv
    zero, move = np.zeros_like(q), np.empty_like(q)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        q += half * p
        for step in range(n_steps):
            p += np.multiply(step_size, grad_fn(q), out=move)
            q += np.multiply(full if step < n_steps - 1 else half, p, out=move)
            # minv is finite and positive, so a non-finite gradient makes q
            # non-finite, whose product with 0 is then NaN: one check for both
            if not math.isfinite(q @ zero):
                return None
    return q, p


@np.errstate(over="ignore", invalid="ignore")
def _kinetic(p: np.ndarray, mass_inv: np.ndarray) -> float:
    """0.5 p^T M^-1 p; a momentum so large that this overflows gives inf
    without a warning, and the caller treats the proposal as divergent."""
    return 0.5 * float(np.sum(p * p * mass_inv))


def _trajectory(value_fn, grad_fn, q: np.ndarray, p: np.ndarray, step_size: float,
                n_steps: int, mass_inv: np.ndarray) -> tuple[np.ndarray, float, float]:
    """One proposal: ``n_steps`` leapfrog steps from (q, p), and the log
    posterior and the energy -value + 0.5 p^T M^-1 p at the end point.  A
    trajectory that diverges ends nowhere: it gives (q, -inf, inf)."""
    end = leapfrog(grad_fn, q, p, step_size, n_steps, mass_inv)
    if end is None:
        return q, -math.inf, math.inf
    q1, p1 = end
    value1 = value_fn(q1)
    return q1, value1, -value1 + _kinetic(p1, mass_inv)


def find_reasonable_step_size(value_fn, grad_fn, q: np.ndarray, value: float,
                              step_size: float, mass: np.ndarray,
                              rng: np.random.Generator) -> float:
    """Double or halve the step until a one-step proposal from ``q`` (log
    posterior ``value``) crosses 50% acceptance (Hoffman & Gelman 2014, Alg. 4)."""
    mass_inv = 1.0 / mass
    p0 = rng.normal(size=q.shape) * np.sqrt(mass)
    h0 = -value + _kinetic(p0, mass_inv)

    def log_ratio(eps):
        ratio = h0 - _trajectory(value_fn, grad_fn, q, p0, eps, 1, mass_inv)[2]
        return ratio if np.isfinite(ratio) else -np.inf

    eps = step_size
    direction = 1.0 if log_ratio(eps) > math.log(0.5) else -1.0
    for _ in range(50):
        eps_next = eps * 2.0 ** direction
        if direction * log_ratio(eps_next) <= direction * math.log(0.5):
            break
        eps = eps_next
    return eps


def philox_rng(seed: int, stream: int) -> np.random.Generator:
    """A counter-based Philox generator keyed (seed, stream), each a 64-bit
    key word: an integer in [0, 2**64), keyed as given; another raises
    OverflowError rather than alias one in the range."""
    return np.random.Generator(np.random.Philox(
        key=np.array([seed, stream], dtype=np.uint64)))


class _DualAveraging:
    """Nesterov-style averaging of log step sizes toward ``TARGET_ACCEPT``."""

    gamma, t0, kappa = 0.05, 10.0, 0.75   # Hoffman & Gelman (2014)

    def __init__(self, step_size: float):
        self.mu = math.log(10.0 * step_size)
        self.h_bar = 0.0
        self.log_eps_bar = 0.0
        self.m = 0
        self.log_eps = math.log(step_size)

    def update(self, accept_prob: float) -> float:
        self.m += 1
        frac = 1.0 / (self.m + self.t0)
        self.h_bar = (1.0 - frac) * self.h_bar + frac * (TARGET_ACCEPT - accept_prob)
        self.log_eps = self.mu - math.sqrt(self.m) / self.gamma * self.h_bar
        w = self.m ** (-self.kappa)
        self.log_eps_bar = w * self.log_eps + (1.0 - w) * self.log_eps_bar
        return math.exp(self.log_eps)

    @property
    def averaged(self) -> float:
        return math.exp(self.log_eps_bar)


def hmc_sample(value_fn, grad_fn, init: np.ndarray, rng: np.random.Generator,
               n_leapfrog: int, n_warmup: int, n_draws: int) -> Chain:
    """Run one chain from ``init``, drawing on ``rng``: ``n_warmup``
    iterations of dual-averaged warmup, then ``n_draws`` of fixed-step
    sampling, each proposal ``n_leapfrog`` leapfrog steps long.

    ``value_fn(q)`` returns the log posterior and ``grad_fn(q)`` its
    gradient.  The warmup adapts from a step search at ``INITIAL_STEP``;
    with no warmup every draw uses ``INITIAL_STEP``.  Momentum is resampled
    every iteration from N(0, mass), with unit mass until the midpoint of a
    warmup of n_warmup >= 40 sets it; proposals are accepted with the
    Metropolis ratio min(1, exp(H0 - H1)); a proposal with |dH| above the
    divergence threshold (or a non-finite trajectory) is rejected and
    flagged.  Identical (generator state, target) pairs give identical
    chains.
    """
    q = np.array(init, dtype=float)
    dim = q.shape[0]

    mass = np.ones(dim)
    mass_inv = 1.0 / mass
    value = value_fn(q)
    if not np.isfinite(value):
        raise ValueError("log posterior is not finite at the initial state")

    eps = INITIAL_STEP
    if n_warmup > 0:
        eps = find_reasonable_step_size(value_fn, grad_fn, q, value, eps, mass, rng)
    averager = _DualAveraging(eps)

    n_total = n_warmup + n_draws
    draws = np.empty((n_draws, dim))
    accept_flags = np.zeros(n_draws, dtype=bool)
    energies = np.empty(n_draws)
    div_flags = np.zeros(n_draws, dtype=bool)
    warmup_div = 0

    # warmup splits at the midpoint: variances of the second quarter of phase
    # one, n_warmup//2 - n_warmup//4 >= 10 states, become the mass diagonal
    mass_switch = n_warmup // 2 if n_warmup >= 40 else None
    window: list[np.ndarray] = []

    for it in range(n_total):
        warmup = it < n_warmup
        p0 = rng.normal(size=dim) * np.sqrt(mass)
        h0 = -value + _kinetic(p0, mass_inv)
        eps_it = eps * (1.0 + STEP_JITTER * rng.uniform(-1.0, 1.0))
        q_new, v_new, h1 = _trajectory(value_fn, grad_fn, q, p0, eps_it, n_leapfrog, mass_inv)
        delta = h0 - h1
        diverged = not abs(delta) <= DIVERGENCE_ENERGY
        accept_prob = 0.0 if diverged else min(1.0, math.exp(min(delta, 0.0)))

        accepted = bool(rng.uniform() < accept_prob)
        if accepted:
            q, value = q_new, v_new

        if warmup:
            warmup_div += int(diverged)
            eps = averager.update(accept_prob)
            if mass_switch is not None:
                if mass_switch // 2 <= it < mass_switch:
                    window.append(q.copy())
                if it == mass_switch - 1:
                    var = np.var(np.asarray(window), axis=0, ddof=1)
                    floor = max(var.max(), 1e-12) * 1e-8
                    mass = 1.0 / np.maximum(var, floor)
                    mass_inv = 1.0 / mass
                    eps = find_reasonable_step_size(value_fn, grad_fn, q, value, eps, mass,
                                                    rng)
                    averager = _DualAveraging(eps)
            if it == n_warmup - 1:
                eps = averager.averaged
                if n_warmup >= 20 and warmup_div == n_warmup:
                    raise RuntimeError(
                        f"every warmup iteration diverged (step size {eps:.3e}); "
                        "the target may be ill-posed at the initial state")
        else:
            k = it - n_warmup
            draws[k] = q
            accept_flags[k] = accepted
            energies[k] = h1 if accepted else h0
            div_flags[k] = diverged

    return Chain(draws=draws, accept_flags=accept_flags, energies=energies,
                 divergence_flags=div_flags, adapted_step_size=eps)


# ---------------------------------------------------------------------------
# diagnostics

CHUNK_VALUES = 1 << 17


def _per_column(core, draws: np.ndarray) -> np.ndarray:
    """Apply ``core``, which maps (m, C, N) draws to (m,) values, to every
    column of (C, N, m) draws.  Columns are taken in chunks of about
    CHUNK_VALUES draws, each copied to a contiguous (chunk, C, N) array, so
    the FFT temporaries stay bounded however many columns there are, and
    every sum runs along a contiguous draw axis as for one column alone."""
    C, N, m = draws.shape
    step = max(1, CHUNK_VALUES // max(C * N, 1))
    out = np.empty(m)
    for start in range(0, m, step):
        out[start:start + step] = core(np.ascontiguousarray(
            draws[:, :, start:start + step].transpose(2, 0, 1), dtype=float))
    return out


def _ess_core(x: np.ndarray) -> np.ndarray:
    m, C, N = x.shape
    if N < 4:
        return np.full(m, float(N * C))
    means = x.mean(axis=2, keepdims=True)                  # (m, C, 1)
    xc = x - means
    nfft = 1 << (2 * N - 1).bit_length()
    f = np.fft.rfft(xc, nfft)
    acov = np.fft.irfft(f * np.conjugate(f), nfft)[:, :, :N] / N
    mean_acov = acov.mean(axis=1)                           # (m, N)
    W = x.var(axis=2, ddof=1).mean(axis=1)
    B_over_N = means[:, :, 0].var(axis=1, ddof=1) if C > 1 else W / N
    var_plus = W * (N - 1) / N + B_over_N
    ok = (var_plus > 0) & np.isfinite(var_plus)
    rho = 1.0 - (W[:, None] - mean_acov) / np.where(ok, var_plus, 1.0)[:, None]
    rho[:, 0] = 1.0
    # Geyer pairs: stop at the first negative pair, enforce non-increase;
    # the running sum adds the pairs in order, then zeros past the stop
    n_pairs = (N - 1) // 2
    pairs = rho[:, 0:2 * n_pairs:2] + rho[:, 1:2 * n_pairs:2]
    stopped = np.logical_or.accumulate(pairs < 0, axis=1)
    kept = np.where(stopped, 0.0, np.minimum.accumulate(pairs, axis=1))
    tau = np.maximum(2.0 * np.cumsum(kept, axis=1)[:, -1] - 1.0, 1.0 / N)
    return np.where(ok, C * N / tau, 1.0)


def effective_sample_size(draws: np.ndarray) -> np.ndarray:
    """Autocorrelation ESS of every column of draws shaped (C, N, m), as an
    (m,) array.

    Uses the combined-chain correlation estimate with Geyer's initial
    monotone positive-pair truncation.  Fewer than 4 draws per chain give
    C*N; degenerate zero-variance input gives 1.0.
    """
    return _per_column(_ess_core, draws)


def _rhat_core(x: np.ndarray) -> np.ndarray:
    m, C, N = x.shape
    n = N // 2
    if n < 2:
        return np.full(m, np.nan)
    splits = np.concatenate([x[:, :, :n], x[:, :, N - n:]], axis=1)   # (m, 2C, n)
    W = splits.var(axis=2, ddof=1).mean(axis=1)
    B = n * splits.mean(axis=2).var(axis=1, ddof=1)
    flat = W <= 0
    W = np.where(flat, 1.0, W)
    var_plus = (n - 1) / n * W + B / n
    return np.where(flat, 1.0, np.sqrt(var_plus / W))


def split_rhat(draws: np.ndarray) -> np.ndarray:
    """Split potential scale reduction of every column of draws shaped
    (C, N, m), as an (m,) array.

    Fewer than 4 draws per chain give NaN; zero within-split variance
    gives 1.0.
    """
    return _per_column(_rhat_core, draws)
