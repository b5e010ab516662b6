import math

import numpy as np
import pytest
import scipy.stats

from conftest import (SDParams, decode_blocks, log_likelihood, log_posterior, make_rng, pack,
                      random_dataset, summary_for, targets_and_hyper)
from sckpd.dynamic import SDLayout, SeasonSchedule, sd_log_posterior_grad
from sckpd.hyper import prior_targets_from_sample, solve_hyper
from sckpd.model import DataSummary, StateLayout, log_posterior_grad, omega_trajectory


def _normalized(G):
    """The fit's transition: the column-normalized gamma of SDParams.transition."""
    one = np.zeros((1, 1, 2, 2))
    params = SDParams(lowers1=one, lowers2=one, d1_diag=np.ones(2), d2_diag=np.ones(2),
                      omega1=np.ones(1), theta=0.5, gamma=np.asarray(G, dtype=float))
    return params.transition


def _random_transition(K, rng, alpha=0.5):
    return _normalized(rng.gamma(alpha, 1.0, size=(K, K)) + 1e-12)


def _schedule(rng, d1=3, d2=2, n_seasons=2, n_cycles=2, n=25):
    blocks = tuple(summary_for(random_dataset(d1, d2, n, rng), d1, d2)
                   for _ in range(n_seasons * n_cycles))
    return SeasonSchedule(n_seasons=n_seasons, n_cycles=n_cycles, blocks=blocks)


def test_a_stacked_summary_is_the_schedule_of_its_blocks():
    # the summary a fit builds from the stacked scatters holds the
    # schedule's data bit for bit, in the one form of the shape (dense at
    # 3x2, rearranged at 9x9); a schedule refuses blocks of another shape
    # or form
    rng = make_rng(61)
    for d1, d2, rearranged in ((3, 2, False), (9, 9, True)):
        Ys = [random_dataset(d1, d2, n, rng) for n in (95, 90, 88, 91)]
        sched = SeasonSchedule(n_seasons=2, n_cycles=2,
                               blocks=tuple(summary_for(Y, d1, d2) for Y in Ys))
        stacked = DataSummary.from_scatter(np.stack([Y.T @ Y for Y in Ys]), 364, d1, d2)
        assert isinstance(sched, DataSummary) and sched.n_blocks == 4
        assert np.array_equal(stacked.scatters, sched.scatters)
        form = (364, d1, d2, rearranged)
        assert (stacked.n_obs, stacked.d1, stacked.d2, stacked.rearranged) == form
        assert (sched.n_obs, sched.d1, sched.d2, sched.rearranged) == form
    dense = DataSummary(30, 9, 9, sched.blocks[0].scatters, rearranged=False)
    for other in (summary_for(Ys[0][:, :80], 8, 10), dense):
        with pytest.raises(ValueError, match="all blocks must share the mode dimensions "
                                             "and the scatter form"):
            SeasonSchedule(n_seasons=2, n_cycles=1, blocks=(sched.blocks[0], other))


def _sd_value(u, layout, sched, hyper, targets):
    return sd_log_posterior_grad(u, layout, sched, hyper, targets)[0]


def propagate_omega(A, omega, steps):
    """``steps`` applications of one transition, through the weight trajectory."""
    return omega_trajectory(omega, A, steps + 1)[-1]


# ----- propagation ------------------------------------------------------------

def test_propagate_identity():
    omega = np.array([0.2, 0.5, 0.3])
    for steps in (0, 1, 7):
        assert np.allclose(propagate_omega(np.eye(3), omega, steps), omega)


def test_propagate_averaging_matrix():
    K = 4
    A = np.full((K, K), 1.0 / K)
    omega = np.array([0.7, 0.1, 0.1, 0.1])
    out = propagate_omega(A, omega, 1)
    assert np.allclose(out, np.full(K, 0.25), atol=1e-12)


def test_propagate_matches_matvec_oracle_and_stays_simplex():
    rng = make_rng(0)
    A = _random_transition(4, rng)
    omega = rng.dirichlet(np.ones(4))
    out = propagate_omega(A, omega, 3)
    oracle = omega.copy()
    for _ in range(3):
        oracle = A @ oracle
    assert np.allclose(out, oracle, atol=1e-12)
    assert abs(out.sum() - 1.0) < 1e-12


def test_simplex_conservation_long_runs():
    rng = make_rng(1)
    for _ in range(5):
        A = _random_transition(5, rng)
        omega = rng.dirichlet(np.ones(5))
        out = propagate_omega(A, omega, 50)
        assert abs(out.sum() - 1.0) < 1e-10
        assert np.all(out >= -1e-15)


# ----- transitions from gammas ---------------------------------------------------

def test_gammas_constant_gives_uniform_columns():
    A = _normalized(np.full((3, 3), 4.2))
    assert np.allclose(A, np.full((3, 3), 1.0 / 3.0))


def test_gammas_dominant_entry_near_deterministic():
    G = np.full((3, 3), 1e-6)
    np.fill_diagonal(G, 1e6)
    A = _normalized(G)
    assert np.allclose(np.diag(A), 1.0, atol=1e-9)


def test_gammas_monte_carlo_column_means():
    rng = make_rng(2)
    K, alpha, n = 3, 0.8, 20_000
    cols = np.empty((n, K))
    for i in range(n):
        A = _normalized(rng.gamma(alpha, 1.0, size=(K, K)))
        cols[i] = A[:, 0]
    se = cols.std(axis=0, ddof=1) / math.sqrt(n)
    assert np.all(np.abs(cols.mean(axis=0) - 1.0 / K) < 3 * se)


# ----- seasonal posterior -------------------------------------------------------

def test_seasonal_names_are_the_model_names():
    # the benchmark calls the seasonal names; they are the one layout and
    # the one posterior
    assert sd_log_posterior_grad is log_posterior_grad
    assert SDLayout is StateLayout


def test_single_season_reduces_to_static():
    # the one-block seasonal value against the static oracle assembled from
    # log_likelihood + log_prior + log-Jacobian
    rng = make_rng(3)
    d1, d2, K = 3, 2, 2
    block = summary_for(random_dataset(d1, d2, 30, rng), d1, d2)
    sched = SeasonSchedule(n_seasons=1, n_cycles=1, blocks=(block,))
    targets, hyper = targets_and_hyper(d1, d2, rng)
    sd_layout = SDLayout(d1, d2, K, 1)
    st_layout = StateLayout(d1, d2, K)
    assert sd_layout.size == st_layout.size
    for _ in range(5):
        u = rng.normal(0, 0.4, size=st_layout.size)
        oracle = log_posterior(u, st_layout, block, hyper, targets)
        v_sd, g_sd = sd_log_posterior_grad(u, sd_layout, sched, hyper, targets)
        v_st, g_st = log_posterior_grad(u, st_layout, block, hyper, targets)
        assert np.isclose(v_sd, oracle, rtol=1e-12, atol=0.0)
        assert v_st == v_sd
        assert np.array_equal(g_st, g_sd)


def test_identity_transition_keeps_weights_equal():
    rng = make_rng(4)
    K = 3
    omega1 = rng.dirichlet(np.ones(K))
    traj = omega_trajectory(omega1, np.eye(K), 4)
    assert np.allclose(traj, omega1[None, :].repeat(4, axis=0))


def test_decoded_weights_match_the_oracle():
    # the transition and trajectory a state decodes to, which the posterior
    # and the draws table read, against gamma normalized on the test side
    rng = make_rng(8)
    layout = SDLayout(3, 2, 3, 4)
    for _ in range(3):
        u = rng.normal(0, 0.8, size=layout.size)
        s = layout._decode(u)
        params, _ = decode_blocks(layout, u)
        assert np.array_equal(s.transition, params.transition)
        assert np.array_equal(s.omegas, omega_trajectory(params.omega1, params.transition, 4))
    static = StateLayout(3, 2, 3)
    one = static._decode(rng.normal(size=static.size))
    assert one.transition is None and np.array_equal(one.omegas, one.omega1[None])


def test_two_season_value_matches_per_season_oracle():
    rng = make_rng(5)
    d1, d2, K = 3, 2, 2
    sched = _schedule(rng, d1, d2, n_seasons=2, n_cycles=1)
    targets, hyper = targets_and_hyper(d1, d2, rng)
    alpha = 1.0     # the gammas' fixed prior
    layout = SDLayout(d1, d2, K, 2)
    u = rng.normal(0, 0.4, size=layout.size)
    got = _sd_value(u, layout, sched, hyper, targets)

    params, log_jac = decode_blocks(layout, u)
    omegas = omega_trajectory(params.omega1, params.transition, 2)
    expected = log_jac
    t1, t2 = np.tril_indices(d1, -1), np.tril_indices(d2, -1)
    for t in range(2):
        sp = params.season_params(t, omegas[t])
        expected += log_likelihood(sp, sched.blocks[t])
        for i in range(K):
            sd = math.sqrt(omegas[t][i] * hyper.lower_variance)
            expected += scipy.stats.norm.logpdf(params.lowers1[t][i][t1], scale=sd).sum()
            expected += scipy.stats.norm.logpdf(params.lowers2[t][i][t2], scale=sd).sum()
    expected += scipy.stats.gamma.logpdf(params.d1_diag, hyper.shape1,
                                         scale=1 / hyper.rate1).sum()
    expected += scipy.stats.gamma.logpdf(params.d2_diag, hyper.shape2,
                                         scale=1 / hyper.rate2).sum()
    expected += scipy.stats.dirichlet.logpdf(params.omega1, np.full(K, params.theta))
    expected += scipy.stats.gamma.logpdf(params.gamma, alpha, scale=1.0).sum()
    assert np.isclose(got, expected, rtol=1e-10)


def test_sd_gradient_matches_fd():
    rng = make_rng(6)
    d1, d2, K = 3, 2, 2
    sched = _schedule(rng, d1, d2, n_seasons=2, n_cycles=2)
    targets, hyper = targets_and_hyper(d1, d2, rng)
    layout = SDLayout(d1, d2, K, 4)
    for _ in range(2):
        u = rng.normal(0, 0.4, size=layout.size)
        _, g = sd_log_posterior_grad(u, layout, sched, hyper, targets)
        step = 1e-5
        for j in range(layout.size):
            up, dn = u.copy(), u.copy()
            up[j] += step
            dn[j] -= step
            fd = (_sd_value(up, layout, sched, hyper, targets)
                  - _sd_value(dn, layout, sched, hyper, targets)) / (2 * step)
            assert abs(g[j] - fd) <= 1e-7 + 1e-5 * abs(fd)


def test_sd_layout_pack_round_trip():
    rng = make_rng(7)
    d1, d2, K, T = 3, 2, 2, 3
    layout = SDLayout(d1, d2, K, T)
    u = rng.normal(0, 0.5, size=layout.size)
    params, _ = decode_blocks(layout, u)
    back = pack(layout, params)
    assert np.allclose(back, u, atol=1e-12)


# ----- prior centering across seasons -------------------------------------------

def test_seasonal_prior_magnitude_invariance():
    # prior draws of the precision at every season: the mean log-det of the
    # factor stays on the log-det target, and the mean trace stays on the
    # total-energy target up to the weighted quadratic term's gap
    rng = make_rng(9)
    d1, d2, K, T = 4, 5, 3, 3
    targets, hyper = targets_and_hyper(d1, d2, rng)
    beta = hyper.lower_variance
    m1, m2 = d1 * (d1 - 1) // 2, d2 * (d2 - 1) // 2
    n = 200_000
    A = _random_transition(K, rng, alpha=0.6)
    total_target = targets.diag_energy + targets.lower_energy
    # concentrations below ~0.05 underflow the gamma draws in double precision
    theta = np.maximum(rng.uniform(size=n), 0.05)
    g = rng.gamma(np.repeat(theta[:, None], K, axis=1))
    omega0 = g / g.sum(axis=1, keepdims=True)       # Dirichlet(theta 1_K) rows
    for t in range(T):
        omega = omega0 @ np.linalg.matrix_power(A, t).T
        D1 = rng.gamma(hyper.shape1, 1.0 / hyper.rate1, size=(n, d1))
        D2 = rng.gamma(hyper.shape2, 1.0 / hyper.rate2, size=(n, d2))
        sd = np.sqrt(omega * beta)                  # (n, K)
        a = rng.normal(size=(n, K, m1)) * sd[:, :, None]
        b = rng.normal(size=(n, K, m2)) * sd[:, :, None]
        e1 = (D1 ** 2).sum(axis=1)
        e2 = (D2 ** 2).sum(axis=1)
        s1 = (a.sum(axis=1) ** 2).sum(axis=1)
        s2 = (b.sum(axis=1) ** 2).sum(axis=1)
        cross = ((a ** 2).sum(axis=2) * (b ** 2).sum(axis=2)).sum(axis=1)
        traces = e1 * e2 + s1 * e2 + e1 * s2 + cross
        logdets = d2 * np.log(D1).sum(axis=1) + d1 * np.log(D2).sum(axis=1)
        cond_exp = e1 * e2 + beta * (m1 * e2 + m2 * e1) \
            + m1 * m2 * beta ** 2 * (omega ** 2).sum(axis=1)
        se_log = logdets.std(ddof=1) / math.sqrt(n)
        assert abs(logdets.mean() - targets.chol_log_det) < 3 * se_log
        resid = traces - cond_exp
        se_resid = resid.std(ddof=1) / math.sqrt(n)
        assert abs(resid.mean()) < 3 * se_resid
        se_tr = traces.std(ddof=1) / math.sqrt(n)
        bias_bound = m1 * m2 * beta ** 2
        assert abs(traces.mean() - total_target) < 3 * se_tr + bias_bound


def test_twelve_blocks_match_per_block_oracle():
    # the paper-dynamic shape: 5x2, K=5, 12 blocks of unequal sizes, one
    # shared transition drawn from its Gamma prior; all blocks are
    # evaluated in stacked products, the oracle goes block by block
    rng = make_rng(10)
    d1, d2, K, T, alpha = 5, 2, 5, 12, 1.0
    Ys = [random_dataset(d1, d2, 15 + 4 * t, rng) for t in range(T)]
    blocks = tuple(summary_for(Y, d1, d2) for Y in Ys)
    sched = SeasonSchedule(n_seasons=4, n_cycles=3, blocks=blocks)
    # the fit's centering: targets from the first block (at 5x2 they may
    # fall in the clamped shape regime, which the posterior handles alike)
    targets = prior_targets_from_sample(Ys[0].T @ Ys[0] / len(Ys[0]), d1, d2)
    hyper = solve_hyper(targets)
    layout = SDLayout(d1, d2, K, T)
    u = rng.normal(0, 0.4, size=layout.size)
    u[layout.sl_gammas] = np.log(rng.gamma(alpha, 1.0, size=K * K))
    got, grad = sd_log_posterior_grad(u, layout, sched, hyper, targets)

    params, log_jac = decode_blocks(layout, u)
    omegas = omega_trajectory(params.omega1, params.transition, T)
    expected = log_jac
    t1, t2 = np.tril_indices(d1, -1), np.tril_indices(d2, -1)
    for t in range(T):
        expected += log_likelihood(params.season_params(t, omegas[t]), blocks[t])
        for i in range(K):
            sd = math.sqrt(omegas[t][i] * hyper.lower_variance)
            expected += scipy.stats.norm.logpdf(params.lowers1[t][i][t1], scale=sd).sum()
            expected += scipy.stats.norm.logpdf(params.lowers2[t][i][t2], scale=sd).sum()
    expected += scipy.stats.gamma.logpdf(params.d1_diag, hyper.shape1,
                                         scale=1 / hyper.rate1).sum()
    expected += scipy.stats.gamma.logpdf(params.d2_diag, hyper.shape2,
                                         scale=1 / hyper.rate2).sum()
    expected += scipy.stats.dirichlet.logpdf(params.omega1, np.full(K, params.theta))
    expected += scipy.stats.gamma.logpdf(params.gamma, alpha, scale=1.0).sum()
    assert np.isclose(got, expected, rtol=1e-12, atol=0.0)

    step = 1e-5
    for _ in range(3):
        v = rng.standard_normal(layout.size)
        v /= np.linalg.norm(v)
        fd = (_sd_value(u + step * v, layout, sched, hyper, targets)
              - _sd_value(u - step * v, layout, sched, hyper, targets)) / (2 * step)
        assert abs(grad @ v - fd) <= 1e-6 * abs(fd)
