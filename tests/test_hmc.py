import math
import warnings

import numpy as np
import pytest
import scipy.stats

from conftest import effective_sample_size_oracle, split_rhat_oracle
from sckpd.hmc import (effective_sample_size, find_reasonable_step_size, hmc_sample, leapfrog,
                       philox_rng, split_rhat)


def gaussian_target(cov):
    """The (value, gradient) requests of a zero-mean Gaussian log density."""
    prec = np.linalg.inv(cov)
    return (lambda q: float(-0.5 * q @ prec @ q)), (lambda q: -prec @ q)


# ----- leapfrog -----------------------------------------------------------------

def _harmonic_max_energy_error(eps, n_steps, q0=1.0, p0=0.0):
    # step one at a time so the worst deviation from the analytic rotation's
    # conserved energy is observed (at period boundaries the error cancels)
    grad = lambda q: -q
    q, p = np.array([q0]), np.array([p0])
    h0 = 0.5 * (q0 ** 2 + p0 ** 2)
    worst = 0.0
    for _ in range(n_steps):
        q, p = leapfrog(grad, q, p, eps, 1)
        worst = max(worst, abs(0.5 * float(q[0] ** 2 + p[0] ** 2) - h0))
    return worst


def test_leapfrog_harmonic_second_order():
    # one full period of the analytic rotation; the constant in the eps^2
    # error law stays stable across step sizes
    ratios = []
    for eps in (0.1, 0.05, 0.025):
        n = int(round(2 * math.pi / eps))
        err = _harmonic_max_energy_error(eps, n)
        ratios.append(err / eps ** 2)
    assert max(ratios) / min(ratios) < 4.0


def test_leapfrog_reversibility():
    rng = np.random.default_rng(0)
    cov = np.array([[1.0, 0.6], [0.6, 2.0]])
    _, grad = gaussian_target(cov)
    q0 = rng.normal(size=2)
    p0 = rng.normal(size=2)
    q1, p1 = leapfrog(grad, q0, p0, 0.15, 25)
    q2, p2 = leapfrog(grad, q1, -p1, 0.15, 25)
    assert np.allclose(q2, q0, atol=1e-10)
    assert np.allclose(-p2, p0, atol=1e-10)


def test_leapfrog_small_step_first_order_motion():
    grad = lambda q: -q
    q0, p0 = np.array([0.3]), np.array([1.7])
    eps = 1e-4
    q1, _ = leapfrog(grad, q0, p0, eps, 1)
    assert abs(float(q1[0] - q0[0]) - eps * float(p0[0])) < 10 * eps ** 2


def test_leapfrog_divergence_signal():
    calls = []

    def grad(q):
        calls.append(q)
        return np.full_like(q, np.nan)

    assert leapfrog(grad, np.zeros(2), np.ones(2), 0.1, 5) is None
    assert len(calls) == 1


def test_leapfrog_ends_a_divide_by_zero_in_the_gradient_as_a_divergence():
    # a gradient with no error-state scope of its own, as fit's gradient
    # requests are, divides by zero on its second call: the trajectory's
    # scope keeps the RuntimeWarning silent and the step diverges
    calls = []

    def grad(q):
        calls.append(q)
        return -q / (0.0 if len(calls) == 2 else 1.0)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert leapfrog(grad, np.ones(3), np.ones(3), 0.1, 5) is None
    assert len(calls) == 2


def test_energy_error_scaling_slope():
    rng = np.random.default_rng(1)
    cov = np.array([[1.0, 0.5], [0.5, 1.5]])
    _, grad = gaussian_target(cov)
    prec = np.linalg.inv(cov)
    epses = np.array([0.2, 0.1, 0.05, 0.025])
    medians = []
    for eps in epses:
        n = int(round(4.0 / eps))   # fixed integration time
        errs = []
        for _ in range(40):
            q0 = rng.multivariate_normal(np.zeros(2), cov)
            p0 = rng.normal(size=2)
            h0 = 0.5 * q0 @ prec @ q0 + 0.5 * p0 @ p0
            q1, p1 = leapfrog(grad, q0, p0, eps, n)
            h1 = 0.5 * q1 @ prec @ q1 + 0.5 * p1 @ p1
            errs.append(abs(h1 - h0))
        medians.append(np.median(errs))
    slope = np.polyfit(np.log(epses), np.log(medians), 1)[0]
    assert 1.7 < slope < 2.3


# ----- sampling -----------------------------------------------------------------

def _run_chains(target, dim, n_chains=4, n_draws=2000, n_warmup=500, seed=7):
    chains = []
    for c in range(n_chains):
        chains.append(hmc_sample(*target, np.full(dim, 0.5), philox_rng(seed, c),
                                 n_leapfrog=16, n_warmup=n_warmup, n_draws=n_draws))
    return chains


def test_bivariate_normal_moments():
    cov = np.array([[1.0, 0.7], [0.7, 1.0]])
    chains = _run_chains(gaussian_target(cov), 2)
    draws = np.concatenate([c.draws for c in chains])
    ess = effective_sample_size(np.stack([c.draws for c in chains]))
    for k in range(2):
        se_mean = draws[:, k].std(ddof=1) / math.sqrt(ess[k])
        assert abs(draws[:, k].mean()) < 3 * se_mean
        var = draws[:, k].var(ddof=1)
        se_var = var * math.sqrt(2.0 / ess[k])
        assert abs(var - cov[k, k]) < 3 * se_var


def test_post_warmup_acceptance_in_band():
    cov = np.array([[1.0, 0.7], [0.7, 1.0]])
    chains = _run_chains(gaussian_target(cov), 2)
    for c in chains:
        assert 0.6 <= c.accept_flags.mean() <= 0.95


def test_huge_step_no_adaptation_rejects_everything():
    # sd 1e-3: without warmup the constant initial step is 50 sds
    cov = 1e-6 * np.eye(2)
    chain = hmc_sample(*gaussian_target(cov), np.array([3e-4, -2e-4]), philox_rng(3, 0),
                       n_leapfrog=16, n_warmup=0, n_draws=200)
    assert chain.accept_flags.mean() < 0.05
    assert np.allclose(chain.draws[-1], [3e-4, -2e-4], rtol=1e-5, atol=0.0)


def test_detailed_balance_ks_one_dimensional():
    chain = hmc_sample(*gaussian_target(np.eye(1)), np.zeros(1), philox_rng(11, 0),
                       n_leapfrog=12, n_warmup=500, n_draws=10_000)
    stat = scipy.stats.kstest(chain.draws[:, 0], scipy.stats.norm.cdf).statistic
    assert stat < 0.02


def test_seed_determinism_bitwise():
    target = gaussian_target(np.array([[1.0, 0.3], [0.3, 1.0]]))
    counts = dict(n_leapfrog=10, n_warmup=200, n_draws=300)
    a = hmc_sample(*target, np.zeros(2), philox_rng(42, 1), **counts)
    b = hmc_sample(*target, np.zeros(2), philox_rng(42, 1), **counts)
    assert np.array_equal(a.draws, b.draws)
    assert a.adapted_step_size == b.adapted_step_size
    assert np.array_equal(a.accept_flags, b.accept_flags)


def test_different_stream_different_chain():
    target = gaussian_target(np.eye(2))
    counts = dict(n_leapfrog=10, n_warmup=100, n_draws=200)
    a = hmc_sample(*target, np.zeros(2), philox_rng(42, 0), **counts)
    b = hmc_sample(*target, np.zeros(2), philox_rng(42, 1), **counts)
    assert not np.array_equal(a.draws, b.draws)


def test_all_divergent_warmup_aborts():
    def grad(q):
        return np.full_like(q, np.nan)

    with pytest.raises(RuntimeError, match="diverged"):
        hmc_sample(lambda q: 0.0, grad, np.zeros(2), philox_rng(0, 0),
                   n_leapfrog=4, n_warmup=50, n_draws=10)


def test_momentum_overflow_is_a_divergence_not_a_warning():
    # a target so stiff that trajectories reach finite momenta whose kinetic
    # energy overflows; the target itself returns inf without warning, so
    # any RuntimeWarning would come from the sampler
    prec = np.array([1.0, 1e200])

    def value(q):
        with np.errstate(over="ignore", invalid="ignore"):
            return -0.5 * float(np.sum(prec * q * q))

    def grad(q):
        with np.errstate(over="ignore", invalid="ignore"):
            return -prec * q

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeError, match="every warmup iteration diverged"):
            hmc_sample(value, grad, np.array([0.3, 1e-100]), philox_rng(0, 0),
                       n_leapfrog=8, n_warmup=60, n_draws=20)


def test_mass_adaptation_handles_scale_separation():
    cov = np.diag([1.0, 400.0])
    chain = hmc_sample(*gaussian_target(cov), np.zeros(2), philox_rng(5, 0),
                       n_leapfrog=24, n_warmup=600, n_draws=1500)
    assert 0.5 <= chain.accept_flags.mean() <= 0.99
    sd = chain.draws[:, 1].std(ddof=1)
    assert 12.0 < sd < 28.0


class CountingTarget:
    """A Gaussian target whose two requests, ``value`` and ``grad``, record
    every state they are made at, in order, as ("value" | "grad", state)."""

    def __init__(self, cov):
        self.exact_value, self.exact_grad = gaussian_target(cov)
        self.requests = []

    def value(self, q):
        self.requests.append(("value", np.array(q)))
        return self.exact_value(q)

    def grad(self, q):
        self.requests.append(("grad", np.array(q)))
        return self.exact_grad(q)

    def kinds(self) -> list[str]:
        return [kind for kind, _ in self.requests]


def test_chain_without_warmup_makes_one_evaluation_per_step_and_proposal():
    # the initial state's value, then per draw n_leapfrog gradients along
    # the trajectory and one value at its end: no value mid-trajectory and
    # no gradient at an end point
    target = CountingTarget(np.eye(3))
    n_draws, n_leapfrog = 25, 7
    chain = hmc_sample(target.value, target.grad, np.full(3, 0.5), philox_rng(1, 0),
                       n_leapfrog=n_leapfrog, n_warmup=0, n_draws=n_draws)
    assert chain.accept_flags.any()
    proposal = ["grad"] * n_leapfrog + ["value"]
    assert target.kinds() == ["value"] + proposal * n_draws
    assert target.kinds().count("grad") == n_draws * n_leapfrog
    assert target.kinds().count("value") == 1 + n_draws


def test_step_search_takes_the_start_value_and_never_evaluates_there():
    # each trial step is one leapfrog step: one gradient request at the
    # half-step position, then one value request at the end point
    target = CountingTarget(np.array([[1.0, 0.3], [0.3, 2.0]]))
    q = np.array([0.4, -0.7])
    value = target.exact_value(q)
    eps = find_reasonable_step_size(target.value, target.grad, q, value, 0.05, np.ones(2),
                                    philox_rng(0, 0))
    assert eps > 0.05
    kinds = target.kinds()
    assert kinds and kinds == ["grad", "value"] * (len(kinds) // 2)
    assert not any(np.array_equal(state, q) for _, state in target.requests)


# ----- diagnostics ---------------------------------------------------------------

def test_ess_iid_pseudo_chain():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(1, 4000, 1))
    ess = effective_sample_size(x)[0]
    assert abs(ess - 4000) < 0.2 * 4000


def test_ess_constant_chain_degenerate():
    x = np.full((1, 500, 1), 3.14)
    assert effective_sample_size(x)[0] == 1.0


def test_ess_repeated_values_small():
    rng = np.random.default_rng(1)
    base = rng.normal(size=100)
    x = np.repeat(base, 50)[None, :, None]      # strong positive autocorrelation
    ess = effective_sample_size(x)[0]
    assert ess < 0.05 * x.size


def test_split_rhat_detects_drift():
    rng = np.random.default_rng(4)
    stationary = rng.normal(size=(2, 1000, 1))
    drifting = stationary.copy()
    drifting[0, :, 0] += np.linspace(0, 5, 1000)
    assert split_rhat(stationary)[0] < 1.05
    assert split_rhat(drifting)[0] > 1.2


def _ar1(rng, phi, shape):
    e = rng.normal(size=shape)
    x = np.empty(shape)
    x[..., 0] = e[..., 0]
    for t in range(1, shape[-1]):
        x[..., t] = phi * x[..., t - 1] + e[..., t]
    return x


def _oracle_columns(C, N, rng):
    """(C, N, m) draws holding every case the batched diagnostics must
    reproduce, with a name per column."""
    steps = np.arange(N)
    cols = {
        "iid": rng.normal(size=(C, N)),
        "shifted": 5.0 + 0.1 * rng.normal(size=(C, N)) + np.arange(C)[:, None],
        "constant": np.full((C, N), 2.5),
        "near-constant": 2.5 + 1e-9 * rng.normal(size=(C, N)),
        # every chain alternates in phase: with C > 1 the between-chain
        # variance is ~0, lag-1 correlation falls below -1, and the first
        # Geyer pair is already negative
        "antithetic": np.where(steps % 2 == 0, 1.0, -1.0) + 1e-3 * rng.normal(size=(C, N)),
        "ar1": _ar1(rng, 0.98, (C, N)),
        "drift": rng.normal(size=(C, N)) + np.linspace(0.0, 3.0, N),
    }
    return list(cols), np.stack(list(cols.values()), axis=-1)


@pytest.mark.parametrize("C", [1, 4])
@pytest.mark.parametrize("N", [3, 4, 5, 6, 7, 64, 101, 1000])
def test_batched_diagnostics_match_per_column_oracle(C, N):
    names, draws = _oracle_columns(C, N, np.random.default_rng(100 * C + N))
    ess, rhat = effective_sample_size(draws), split_rhat(draws)
    assert ess.shape == rhat.shape == (len(names),)
    ess_ref = np.array([effective_sample_size_oracle(draws[:, :, j]) for j in range(len(names))])
    rhat_ref = np.array([split_rhat_oracle(draws[:, :, j]) for j in range(len(names))])
    np.testing.assert_allclose(ess, ess_ref, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(rhat, rhat_ref, rtol=1e-12, atol=0.0, equal_nan=True)
    assert np.array_equal(np.isnan(rhat), np.isnan(rhat_ref))
    # one column alone, shaped (C, N, 1), gives the same value
    for j in range(len(names)):
        one = draws[:, :, j:j + 1]
        one_ess, one_rhat = effective_sample_size(one)[0], split_rhat(one)[0]
        np.testing.assert_allclose(one_ess, ess_ref[j], rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(one_rhat, rhat_ref[j], rtol=1e-12, atol=0.0, equal_nan=True)

    if N >= 4 and C > 1:
        # tau was clamped to 1/N: the first pair was negative
        assert ess_ref[names.index("antithetic")] == C * N * N
    if N == 1000:
        # the AR(1) column sums many pairs before its truncation
        assert ess_ref[names.index("ar1")] < C * N / 20


def test_diagnostics_chunks_match_one_pass(monkeypatch):
    # more columns than one chunk holds: the chunked results are the same
    rng = np.random.default_rng(8)
    draws = rng.normal(size=(2, 50, 37))
    draws[:, :, 20] = 1.0
    whole = effective_sample_size(draws), split_rhat(draws)
    monkeypatch.setattr("sckpd.hmc.CHUNK_VALUES", 2 * 50 * 4)
    chunked = effective_sample_size(draws), split_rhat(draws)
    assert np.array_equal(chunked[0], whole[0])
    assert np.array_equal(chunked[1], whole[1], equal_nan=True)
