import math

import mpmath
import numpy as np
import pytest

from conftest import make_rng, random_spd, targets_and_hyper
from sckpd.hyper import (DEGENERATE_CLAMP, SHAPE_TOL, NotPositiveDefiniteError, PriorTargets,
                         diag_prior_rate, digamma, prior_targets_from_sample, shape_residual,
                         solve_a, solve_beta, solve_hyper)

EULER_GAMMA = 0.5772156649015329


# ----- digamma ---------------------------------------------------------------

def test_digamma_at_one():
    assert abs(digamma(1.0) - (-EULER_GAMMA)) < 1e-12


def test_digamma_recurrence():
    rng = make_rng(0)
    for x in rng.uniform(0.05, 40.0, size=20):
        assert abs(digamma(x + 1.0) - digamma(x) - 1.0 / x) < 1e-12


def test_digamma_bracket_bound():
    # psi_0(x) sits between log x - 1/x and log x - 1/(2x)
    assert math.log(10) - 0.1 < digamma(10.0) < math.log(10) - 0.05
    for x in (0.5, 1.0, 3.7, 25.0):
        assert math.log(x) - 1.0 / x < digamma(x) < math.log(x) - 0.5 / x


def test_digamma_against_mpmath():
    for x in (1e-3, 0.1, 0.6, 1.0, 2.5, 9.99, 10.0, 123.4, 1e6):
        assert abs(digamma(x) - float(mpmath.digamma(x))) < 1e-12


def test_digamma_trigamma_on_solve_bracket():
    # a log grid over [1e-8, 1e12], the range solve_a's bracket probes
    with mpmath.workdps(40):
        for x in np.logspace(-8.0, 12.0, 401):
            psi0 = mpmath.digamma(mpmath.mpf(x))
            assert abs(digamma(x) - psi0) <= 2e-15 * max(abs(psi0), 1)


def test_digamma_rejects_nonpositive():
    with pytest.raises(ValueError):
        digamma(0.0)


# ----- shape solve -----------------------------------------------------------

def _bisect_oracle(c, iters=200):
    lo, hi = 1e-6, 1e6
    f = lambda a: a * a + a - c * math.exp(2.0 * digamma(a))
    assert f(lo) > 0 > f(hi) or f(lo) > 0 and f(hi) < 0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(lo) * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_solve_a_residual_small():
    a = solve_a(2.0)
    assert shape_residual(a, 2.0) < 1e-8
    assert abs(a - _bisect_oracle(2.0)) < 1e-8


def test_solve_a_monotone_decreasing():
    # a larger dispersion target needs a smaller Gamma shape
    a2, a4 = _bisect_oracle(2.0), _bisect_oracle(4.0)
    assert a4 < a2
    assert solve_a(4.0) < solve_a(2.0)
    assert abs(solve_a(4.0) - a4) < 1e-8


def test_solve_a_self_consistency():
    for c in (1.5, 3.0, 42.0):
        a = solve_a(c)
        rebuilt = (a * a + a) / math.exp(2.0 * digamma(a))
        assert abs(rebuilt - c) < 1e-8


def test_solve_a_boundary_regime():
    # no root exists at or below c = 1; solve_hyper clamps its targets to
    # DEGENERATE_CLAMP, so solve_a refuses such a c and names it
    for c in (0.5, 1.0):
        with pytest.raises(ValueError, match=f"c={c}"):
            solve_a(c)


def test_solve_a_bisection_meets_tolerance_over_its_domain():
    # every c solve_hyper can pass, from the clamp up to the bracket's end
    for c in np.logspace(math.log10(DEGENERATE_CLAMP), 12.0, 241):
        a = solve_a(c)
        assert a > 0
        assert shape_residual(a, c) < SHAPE_TOL


def test_solve_a_residual_history_monotone_and_deterministic():
    a1, a2 = solve_a(7.5), solve_a(7.5)
    assert a1 == a2
    assert shape_residual(a1, 7.5) < SHAPE_TOL


def test_solve_a_rejects_nonpositive():
    with pytest.raises(ValueError):
        solve_a(-1.0)


# ----- prior targets ---------------------------------------------------------

def test_targets_identity():
    t = prior_targets_from_sample(np.eye(6), 3, 2)
    assert t.chol_log_det == 0.0
    assert t.diag_energy == 6.0
    assert t.lower_energy == 0.0


def test_targets_scaling():
    # data in other units: the targets scale, and the shape targets and
    # shapes, which are scale free, do not; set-up accepts every scale
    rng = make_rng(1)
    S = random_spd(6, rng)
    t1 = prior_targets_from_sample(S, 3, 2)
    h1 = solve_hyper(t1)
    for c in (2.7, 1e-16, 1e16):
        t2 = prior_targets_from_sample(c * S, 3, 2)
        assert np.isclose(t2.chol_log_det, t1.chol_log_det + 3.0 * math.log(c), rtol=1e-10)
        assert np.isclose(t2.diag_energy, c * t1.diag_energy, rtol=1e-10)
        assert np.isclose(t2.lower_energy, c * t1.lower_energy, rtol=1e-10)
        h2 = solve_hyper(t2)
        for key in ("c1", "c2", "shape1", "shape2"):
            assert getattr(h2, key) == pytest.approx(getattr(h1, key), rel=1e-12, abs=0), key


def test_targets_match_direct_cholesky():
    rng = make_rng(2)
    S = random_spd(6, rng)
    t = prior_targets_from_sample(S, 3, 2)
    L = np.linalg.cholesky(S)
    assert np.isclose(t.chol_log_det, np.sum(np.log(np.diag(L))), rtol=1e-10)
    assert np.isclose(t.diag_energy, np.sum(np.diag(L) ** 2), rtol=1e-10)
    assert np.isclose(t.lower_energy, np.sum(np.tril(L, -1) ** 2), rtol=1e-10)


def test_targets_rank_deficient_advises_jitter():
    S = np.zeros((6, 6))
    S[0, 0] = 1.0
    with pytest.raises(NotPositiveDefiniteError):
        prior_targets_from_sample(S, 3, 2)


# ----- beta solve ------------------------------------------------------------

def test_beta_zero_lower_energy():
    t = PriorTargets(0.3, 12.0, 0.0, 4, 5)
    assert solve_beta(t) == 0.0


def test_targets_derive_their_counts_and_check_their_inputs():
    t = PriorTargets(0.0, 20.0, 10.0, 4, 5)
    assert (t.n_lower1, t.lower_ratio) == (6.0, 0.6)
    for args, message in (((0.0, 20.0, 10.0, 1, 5), "mode dimensions"),
                          ((0.0, 0.0, 10.0, 4, 5), "diagonal energy"),
                          ((0.0, 20.0, -1.0, 4, 5), "lower energy")):
        with pytest.raises(ValueError, match=message):
            PriorTargets(*args)


def test_beta_plug_back_random():
    rng = make_rng(3)
    for _ in range(10):
        t = PriorTargets(rng.normal(), float(rng.uniform(5, 50)),
                         float(rng.uniform(0, 20)), 4, 5)
        b = solve_beta(t)
        assert b >= 0.0
        plug = math.sqrt(t.diag_energy) * t.n_lower1 * (1 + 1 / t.lower_ratio) * b \
            + (t.n_lower1 ** 2 / t.lower_ratio) * b * b
        assert abs(plug - t.lower_energy) <= 1e-10 * max(t.lower_energy, 1.0)


def test_beta_fixed_case():
    # d1=4, d2=5, F_D=20, F_L=10; root checked against the quadratic oracle
    t = PriorTargets(0.0, 20.0, 10.0, 4, 5)
    b = solve_beta(t)
    m1, c = 6.0, 0.6
    roots = np.roots([m1 * m1 / c, math.sqrt(20.0) * m1 * (1 + 1 / c), -10.0])
    oracle = float(max(roots))
    assert np.isclose(b, oracle, rtol=1e-12)
    plug = math.sqrt(20.0) * m1 * (1 + 1 / c) * b + (m1 * m1 / c) * b * b
    assert abs(plug - 10.0) < 1e-10 * 10.0


# ----- rate and Monte-Carlo centering ----------------------------------------

def test_diag_prior_rate_zero_target():
    for a in (0.7, 2.0, 11.0):
        assert np.isclose(diag_prior_rate(a, 0.0, 4, 5), math.exp(digamma(a)), rtol=1e-12)


def test_diag_prior_rate_centers_log_moment():
    rng = make_rng(4)
    a, gd, d1, d2 = 3.1, 1.7, 4, 5
    rate = diag_prior_rate(a, gd, d1, d2)
    x = rng.gamma(a, 1.0 / rate, size=1_000_000)
    logs = np.log(x)
    se = logs.std(ddof=1) / math.sqrt(logs.size)
    assert abs(logs.mean() - gd / (2 * d1 * d2)) < 3 * se


def test_expected_log_determinant_centered():
    rng = make_rng(5)
    targets, hyper = targets_and_hyper(4, 5, rng)
    n = 1_000_000
    D1 = rng.gamma(hyper.shape1, 1.0 / hyper.rate1, size=(n, 4))
    D2 = rng.gamma(hyper.shape2, 1.0 / hyper.rate2, size=(n, 5))
    logdet = 5 * np.log(D1).sum(axis=1) + 4 * np.log(D2).sum(axis=1)
    se = logdet.std(ddof=1) / math.sqrt(n)
    assert abs(logdet.mean() - targets.chol_log_det) < 3 * se


def test_expected_diag_energy_centered():
    # E||D1 (x) D2||_F^2 equals the diagonal energy target up to the shape
    # solve residual correction, which is ~1e-10 here
    rng = make_rng(6)
    targets, hyper = targets_and_hyper(4, 5, rng)
    n = 400_000
    D1 = rng.gamma(hyper.shape1, 1.0 / hyper.rate1, size=(n, 4))
    D2 = rng.gamma(hyper.shape2, 1.0 / hyper.rate2, size=(n, 5))
    fro = (D1 ** 2).sum(axis=1) * (D2 ** 2).sum(axis=1)
    se = fro.std(ddof=1) / math.sqrt(n)
    assert abs(fro.mean() - targets.diag_energy) < 3 * se


def test_weighted_lower_energy_with_fixed_weights():
    # with component weights fixed, the exact prior mean of the assembled
    # strict-lower energy carries sum(omega^2) on the quadratic term; the
    # deviation from the lower-energy target is bounded by that term's gap
    rng = make_rng(7)
    d1, d2, K = 4, 5, 3
    targets, hyper = targets_and_hyper(d1, d2, rng)
    beta = hyper.lower_variance
    m1, m2 = d1 * (d1 - 1) / 2, d2 * (d2 - 1) / 2
    omega = np.array([0.5, 0.3, 0.2])
    n = 400_000
    D1 = rng.gamma(hyper.shape1, 1.0 / hyper.rate1, size=(n, d1))
    D2 = rng.gamma(hyper.shape2, 1.0 / hyper.rate2, size=(n, d2))
    e1 = (D1 ** 2).sum(axis=1)
    e2 = (D2 ** 2).sum(axis=1)
    s1 = np.zeros(n)
    s2 = np.zeros(n)
    cross = np.zeros(n)
    for w in omega:
        a = rng.normal(0, math.sqrt(w * beta), size=(n, int(m1)))
        b = rng.normal(0, math.sqrt(w * beta), size=(n, int(m2)))
        cross += (a ** 2).sum(axis=1) * (b ** 2).sum(axis=1)
    # sums over components of the two mixed groups have variance beta exactly
    s1 = rng.normal(0, math.sqrt(beta), size=(n, int(m1)))
    s2 = rng.normal(0, math.sqrt(beta), size=(n, int(m2)))
    total = (s1 ** 2).sum(axis=1) * e2 + e1 * (s2 ** 2).sum(axis=1) + cross
    se = total.std(ddof=1) / math.sqrt(n)
    fd = math.sqrt(targets.diag_energy)
    expected = fd * (m1 + m2) * beta + m1 * m2 * beta ** 2 * float(np.sum(omega ** 2))
    assert abs(total.mean() - expected) < 3 * se
    bias_bound = m1 * m2 * beta ** 2 * (1.0 - float(np.sum(omega ** 2)))
    assert abs(total.mean() - targets.lower_energy) < 3 * se + bias_bound + 1e-6


def test_solve_hyper_consistency():
    rng = make_rng(8)
    targets, hyper = targets_and_hyper(4, 5, rng)
    assert hyper.residual < 1e-10
    assert hyper.rate1 == diag_prior_rate(hyper.shape1, targets.chol_log_det, 4, 5)
    assert hyper.lower_variance == solve_beta(targets)
    assert not hyper.degenerate
