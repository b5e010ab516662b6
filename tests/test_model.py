import math
import re
import warnings
from functools import partial

import numpy as np
import pytest
import scipy.stats

from conftest import (log_likelihood, log_posterior, make_rng, member_rows, pack,
                      random_dataset, random_params, regroup_trace_dense, summary_for,
                      targets_and_hyper, vanloan_rearrange, vanloan_unrearrange)
from sckpd.dynamic import SeasonSchedule, sd_log_posterior_grad
from sckpd.hyper import prior_targets_from_sample, solve_hyper
from sckpd.model import (DataSummary, SCKPDParams, StateLayout, _coupling, _members, _regroup,
                         _trace_dense, _trace_pairs, assemble_ldagger, log_det_ldagger,
                         log_posterior_core, log_posterior_grad, log_prior, trace_quadratic)


def _problem(rng, d1=3, d2=4, K=2, n=40):
    Y = random_dataset(d1, d2, n, rng)
    data = summary_for(Y, d1, d2)
    targets, hyper = targets_and_hyper(d1, d2, rng)
    layout = StateLayout(d1, d2, K)
    return Y, data, targets, hyper, layout


# ----- assembly ---------------------------------------------------------------

def test_assemble_diagonal_only():
    rng = make_rng(0)
    p = random_params(3, 4, 2, rng)
    p = SCKPDParams(lowers1=np.zeros_like(p.lowers1), lowers2=np.zeros_like(p.lowers2),
                    d1_diag=p.d1_diag, d2_diag=p.d2_diag, omega=p.omega, theta=p.theta)
    L = assemble_ldagger(p)
    assert np.allclose(L, np.diag(np.kron(p.d1_diag, p.d2_diag)), atol=1e-14)


def test_assemble_single_component_unit_diagonals():
    rng = make_rng(1)
    p = random_params(3, 2, 1, rng)
    p = SCKPDParams(lowers1=p.lowers1, lowers2=p.lowers2,
                    d1_diag=np.ones(3), d2_diag=np.ones(2),
                    omega=p.omega, theta=p.theta)
    L = assemble_ldagger(p)
    full1 = p.lowers1[0] + np.eye(3)
    full2 = p.lowers2[0] + np.eye(2)
    expected = np.tril(np.kron(full1, full2), -1) + np.eye(6)
    assert np.allclose(L, expected, atol=1e-13)


def test_assemble_matches_naive_loop():
    rng = make_rng(2)
    p = random_params(4, 3, 2, rng)
    L = assemble_ldagger(p)
    naive = np.diag(np.kron(p.d1_diag, p.d2_diag))
    for i in range(2):
        full1 = p.lowers1[i] + np.diag(p.d1_diag)
        full2 = p.lowers2[i] + np.diag(p.d2_diag)
        naive += np.tril(np.kron(full1, full2), -1)
    assert np.allclose(L, naive, atol=1e-12)


def test_assemble_diagonal_always_positive():
    rng = make_rng(3)
    p = random_params(3, 4, 3, rng, low_sd=5.0)
    L = assemble_ldagger(p)
    assert np.all(np.diag(L) > 0)
    assert np.allclose(np.triu(L, 1), 0.0)


def test_logdet_formula_matches_assembly():
    rng = make_rng(4)
    for _ in range(5):
        p = random_params(4, 5, 3, rng)
        dense = float(np.sum(np.log(np.diag(assemble_ldagger(p)))))
        assert np.isclose(log_det_ldagger(p.d1_diag, p.d2_diag), dense, atol=1e-10)


# ----- likelihood --------------------------------------------------------------

def test_likelihood_identity_factor():
    rng = make_rng(5)
    d1, d2, n = 3, 2, 25
    Y = random_dataset(d1, d2, n, rng)
    data = summary_for(Y, d1, d2)
    p = SCKPDParams(lowers1=np.zeros((1, d1, d1)), lowers2=np.zeros((1, d2, d2)),
                    d1_diag=np.ones(d1), d2_diag=np.ones(d2),
                    omega=np.ones(1), theta=0.5)
    expected = -0.5 * np.trace(Y.T @ Y) - 0.5 * n * d1 * d2 * math.log(2 * math.pi)
    assert np.isclose(log_likelihood(p, data), expected, rtol=1e-12)


def test_likelihood_matches_dense_gaussian():
    rng = make_rng(6)
    d1, d2, n = 3, 2, 30
    Y = random_dataset(d1, d2, n, rng)
    data = summary_for(Y, d1, d2)
    p = random_params(d1, d2, 2, rng)
    L = assemble_ldagger(p)
    cov = np.linalg.inv(L @ L.T)
    oracle = scipy.stats.multivariate_normal(mean=np.zeros(d1 * d2), cov=cov)
    expected = float(np.sum(oracle.logpdf(Y)))
    assert np.isclose(log_likelihood(p, data), expected, rtol=1e-9)


def test_likelihood_additivity_in_observations():
    rng = make_rng(7)
    d1, d2, n = 3, 2, 20
    Y = random_dataset(d1, d2, n, rng)
    p = random_params(d1, d2, 2, rng)
    single = log_likelihood(p, summary_for(Y, d1, d2))
    doubled = log_likelihood(p, summary_for(np.vstack([Y, Y]), d1, d2))
    assert np.isclose(doubled, 2.0 * single, rtol=1e-12)


# ----- trace quadratic ----------------------------------------------------------

def test_trace_quadratic_diagonal_branch():
    rng = make_rng(8)
    d1, d2 = 3, 4
    Y = random_dataset(d1, d2, 15, rng)
    data = summary_for(Y, d1, d2)
    p = random_params(d1, d2, 2, rng)
    p = SCKPDParams(lowers1=np.zeros_like(p.lowers1), lowers2=np.zeros_like(p.lowers2),
                    d1_diag=p.d1_diag, d2_diag=p.d2_diag, omega=p.omega, theta=p.theta)
    dense = np.kron(np.diag(p.d1_diag ** 2), np.diag(p.d2_diag ** 2))
    expected = np.trace(dense @ (Y.T @ Y))
    assert np.isclose(trace_quadratic(p, data), expected, rtol=1e-10)


@pytest.mark.parametrize("dims,K,seed", [((3, 2), 1, 10), ((4, 5), 3, 11)])
def test_trace_quadratic_matches_dense(dims, K, seed):
    rng = make_rng(seed)
    d1, d2 = dims
    Y = random_dataset(d1, d2, 20, rng)
    data = summary_for(Y, d1, d2)
    p = random_params(d1, d2, K, rng)
    L = assemble_ldagger(p)
    dense = float(np.trace(L @ L.T @ (Y.T @ Y)))
    assert np.isclose(trace_quadratic(p, data), dense, rtol=1e-9)


def test_trace_quadratic_many_random_cases():
    rng = make_rng(12)
    worst = 0.0
    for _ in range(100):
        d1 = int(rng.integers(2, 6))
        d2 = int(rng.integers(2, 6))
        K = int(rng.integers(1, 5))
        Y = random_dataset(d1, d2, 12, rng)
        data = summary_for(Y, d1, d2)
        p = random_params(d1, d2, K, rng)
        L = assemble_ldagger(p)
        dense = float(np.trace(L @ L.T @ (Y.T @ Y)))
        worst = max(worst, abs(trace_quadratic(p, data) - dense) / abs(dense))
    assert worst < 1e-9


def _dense_trace_and_grad(p, S):
    """tr(L L^T S) and its gradient from the dense factor: dT/dL = 2 S L,
    pulled back through L = sum C[a,b] U_a (x) V_b, where the derivative
    of <G, A (x) B> is sum_vw G[(r,v),(s,w)] B[v,w] w.r.t. A[r,s] and
    sum_rs G[(r,v),(s,w)] A[r,s] w.r.t. B[v,w]."""
    K, d1, d2 = p.n_components, p.d1, p.d2
    L = assemble_ldagger(p)
    G = (2.0 * S @ L).reshape(d1, d2, d1, d2)
    C = _coupling(K)
    U = np.concatenate([p.lowers1, np.diag(p.d1_diag)[None]])
    V = np.concatenate([p.lowers2, np.diag(p.d2_diag)[None]])
    gU = np.zeros_like(U)
    gV = np.zeros_like(V)
    for a in range(K + 1):
        for b in range(K + 1):
            if C[a, b]:
                gU[a] += np.einsum('rvsw,vw->rs', G, V[b])
                gV[b] += np.einsum('rvsw,rs->vw', G, U[a])
    value = float(np.trace(L @ L.T @ S))
    return value, (np.tril(gU[:K], -1), np.tril(gV[:K], -1),
                   np.diagonal(gU[K]).copy(), np.diagonal(gV[K]).copy())


def _both_cores(d1, d2, K, scatters, n_obs):
    """The dense and the pair-product trace cores of the blocks of a (T, d,
    d) scatter stack, as ``trace_contraction`` binds them, each with the
    summary of the stack in the form it reads, whichever the shape picks."""
    C, index = _coupling(K), np.arange(scatters.size)
    dense = partial(_trace_dense, coupling=C, to_dense=_regroup(index, d1, d1, d2, d2),
                    to_rearranged=_regroup(index, d1, d2, d1, d2))
    pairs = partial(_trace_pairs, coupling_pairs=np.kron(C, C), d1=d1, d2=d2)
    rearranged = vanloan_rearrange(scatters, d1, d2)
    return ((dense, DataSummary(n_obs, d1, d2, scatters, rearranged=False)),
            (pairs, DataSummary(n_obs, d1, d2, rearranged, rearranged=True)))


def _stacked_members_and_scatters(d1, d2, K, T, rng):
    """T blocks' member stacks of random params, and the (T, d, d) scatter
    stack of T random datasets of 3 d rows each."""
    params = [random_params(d1, d2, K, rng) for _ in range(T)]
    Ys = [random_dataset(d1, d2, 3 * d1 * d2, rng) for _ in range(T)]
    members1 = np.stack([_members(p.lowers1, p.d1_diag) for p in params])
    members2 = np.stack([_members(p.lowers2, p.d2_diag) for p in params])
    return params, Ys, members1, members2, np.stack([Y.T @ Y for Y in Ys])


@pytest.mark.parametrize("dims,K", [((3, 2), 2), ((4, 5), 5), ((5, 2), 5), ((8, 8), 5),
                                    ((16, 16), 5), ((8, 8), 1), ((9, 9), 1), ((9, 9), 5)])
def test_trace_core_matches_dense_gradient(dims, K):
    # four cases stacked on the block axis: the value is their sum, and each
    # block's member gradients are its own dense gradient, for both
    # contractions whichever the shape picks, on both sides of the cut
    d1, d2 = dims
    rng = make_rng(26 + d1 * d2 + K)
    params, Ys, members1, members2, scatters = _stacked_members_and_scatters(d1, d2, K, 4, rng)
    dense = [_dense_trace_and_grad(p, Y.T @ Y) for Y, p in zip(Ys, params)]
    dense_value = sum(v for v, _ in dense)
    for core, data in _both_cores(d1, d2, K, scatters, sum(map(len, Ys))):
        value, grad = core(member_rows(members1, members2), data, "both")
        assert abs(value - dense_value) <= 1e-12 * abs(dense_value)
        GU = grad[..., :d1 * d1].reshape(members1.shape)
        GV = grad[..., d1 * d1:].reshape(members2.shape)
        for t, (_, dense_grads) in enumerate(dense):
            grads = (np.tril(GU[t, :K], -1), np.tril(GV[t, :K], -1),
                     np.diagonal(GU[t, K]), np.diagonal(GV[t, K]))
            for got, want in zip(grads, dense_grads):
                assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("d1,d2,K,T", [(4, 5, 5, 1), (5, 2, 5, 12), (3, 2, 1, 1), (16, 16, 5, 1)])
def test_dense_core_matches_the_regroup_oracle_bit_for_bit(d1, d2, K, T):
    # the dense core's index maps and the dense scatters give the value and
    # the member gradient of the contraction that rearranges by reshapes, to
    # the last bit, for every request; at 16x16, where the shape picks the
    # pair products, the dense core is forced
    rng = make_rng(40 + d1 * d2 + K + T)
    _, Ys, members1, members2, scatters = _stacked_members_and_scatters(d1, d2, K, T, rng)
    value, flat = regroup_trace_dense(members1, members2, scatters, True, _coupling(K))
    grad = member_rows(flat[:members1.size].reshape(members1.shape),
                       flat[members1.size:].reshape(members2.shape))
    (dense, data), _ = _both_cores(d1, d2, K, scatters, sum(map(len, Ys)))
    rows = member_rows(members1, members2)
    got_value, got_grad = dense(rows, data, "both")
    assert np.float64(got_value).tobytes() == np.float64(value).tobytes()
    assert got_grad.tobytes() == grad.tobytes()
    assert dense(rows, data, "value") == (got_value, None)
    none, alone = dense(rows, data, "grad")
    assert none is None and alone.tobytes() == grad.tobytes()


def test_trace_contraction_is_cut_at_80_entries():
    # the dense factor up to d1 d2 = 80 (the paper's 4x5 and 5x2 at K = 1
    # among them), the pair products above, whatever K and T; a summary
    # stores the form its shape's contraction reads
    for d1, d2, K, T, dense in ((4, 5, 1, 1, True), (5, 2, 1, 1, True), (8, 8, 3, 1, True),
                                (16, 4, 1, 1, True), (10, 8, 1, 1, True), (4, 5, 5, 1, True),
                                (5, 2, 5, 12, True), (9, 9, 1, 1, False), (12, 12, 3, 1, False),
                                (16, 16, 5, 1, False)):
        core = StateLayout(d1, d2, K, n_blocks=T).trace_core.func
        assert core is (_trace_dense if dense else _trace_pairs), (d1, d2, K, T)
        assert DataSummary.from_scatter(np.eye(d1 * d2), 1, d1, d2).rearranged is not dense


# ----- priors -------------------------------------------------------------------

def test_prior_uniform_dirichlet_constant():
    rng = make_rng(13)
    _, _, targets, hyper, _ = _problem(rng)
    K = 4
    p = random_params(3, 4, K, rng)
    p_theta1 = SCKPDParams(lowers1=p.lowers1, lowers2=p.lowers2, d1_diag=p.d1_diag,
                           d2_diag=p.d2_diag, omega=p.omega, theta=1.0 - 1e-12)
    base = log_prior(p_theta1, hyper, targets)
    manual = scipy.stats.gamma.logpdf(p.d1_diag, hyper.shape1, scale=1 / hyper.rate1).sum()
    manual += scipy.stats.gamma.logpdf(p.d2_diag, hyper.shape2, scale=1 / hyper.rate2).sum()
    for i in range(K):
        sd = math.sqrt(p.omega[i] * hyper.lower_variance)
        t1 = np.tril_indices(3, -1)
        t2 = np.tril_indices(4, -1)
        manual += scipy.stats.norm.logpdf(p.lowers1[i][t1], scale=sd).sum()
        manual += scipy.stats.norm.logpdf(p.lowers2[i][t2], scale=sd).sum()
    # at theta = 1 the Dirichlet reduces to the log (K-1)! constant
    manual += math.log(math.factorial(K - 1))
    assert np.isclose(base, manual, rtol=1e-9)


def test_prior_matches_scalar_density_oracle():
    rng = make_rng(14)
    _, _, targets, hyper, _ = _problem(rng)
    p = random_params(3, 4, 3, rng)
    got = log_prior(p, hyper, targets)
    expected = scipy.stats.gamma.logpdf(p.d1_diag, hyper.shape1, scale=1 / hyper.rate1).sum()
    expected += scipy.stats.gamma.logpdf(p.d2_diag, hyper.shape2, scale=1 / hyper.rate2).sum()
    t1, t2 = np.tril_indices(3, -1), np.tril_indices(4, -1)
    for i in range(3):
        sd = math.sqrt(p.omega[i] * hyper.lower_variance)
        expected += scipy.stats.norm.logpdf(p.lowers1[i][t1], scale=sd).sum()
        expected += scipy.stats.norm.logpdf(p.lowers2[i][t2], scale=sd).sum()
    expected += scipy.stats.dirichlet.logpdf(p.omega, np.full(3, p.theta))
    assert np.isclose(got, expected, rtol=1e-9)


def test_prior_zero_lowers_only_normalizers():
    rng = make_rng(15)
    _, _, targets, hyper, _ = _problem(rng)
    p = random_params(3, 4, 2, rng)
    pz = SCKPDParams(lowers1=np.zeros_like(p.lowers1), lowers2=np.zeros_like(p.lowers2),
                     d1_diag=p.d1_diag, d2_diag=p.d2_diag, omega=p.omega, theta=p.theta)
    got = log_prior(pz, hyper, targets)
    n_ent = 3 + 6
    norm_terms = sum(-0.5 * n_ent * (math.log(2 * math.pi)
                                     + math.log(p.omega[i] * hyper.lower_variance))
                     for i in range(2))
    rest = scipy.stats.gamma.logpdf(p.d1_diag, hyper.shape1, scale=1 / hyper.rate1).sum() \
        + scipy.stats.gamma.logpdf(p.d2_diag, hyper.shape2, scale=1 / hyper.rate2).sum() \
        + scipy.stats.dirichlet.logpdf(p.omega, np.full(2, p.theta))
    assert np.isclose(got, norm_terms + rest, rtol=1e-9)


def test_prior_zero_weight_is_minus_infinity():
    rng = make_rng(16)
    _, _, targets, hyper, _ = _problem(rng)
    p = random_params(3, 4, 2, rng)
    p_bad = SCKPDParams(lowers1=p.lowers1, lowers2=p.lowers2, d1_diag=p.d1_diag,
                        d2_diag=p.d2_diag, omega=np.array([1.0, 0.0]), theta=p.theta)
    assert log_prior(p_bad, hyper, targets) == -np.inf


# ----- unconstrained round trips -------------------------------------------------

def test_unconstrained_round_trip():
    rng = make_rng(17)
    layout = StateLayout(3, 4, 3)
    for _ in range(5):
        p = random_params(3, 4, 3, rng)
        u = pack(layout, p)
        back = layout.unpack(u)
        assert np.allclose(back.lowers1, p.lowers1, atol=1e-12)
        assert np.allclose(back.lowers2, p.lowers2, atol=1e-12)
        assert np.allclose(back.d1_diag, p.d1_diag, atol=1e-12)
        assert np.allclose(back.d2_diag, p.d2_diag, atol=1e-12)
        assert np.allclose(back.omega, p.omega, atol=1e-12)
        assert np.isclose(back.theta, p.theta, atol=1e-12)


def test_uniform_omega_gives_zero_sticks():
    rng = make_rng(18)
    layout = StateLayout(3, 4, 4)
    p = random_params(3, 4, 4, rng)
    p = SCKPDParams(lowers1=p.lowers1, lowers2=p.lowers2, d1_diag=p.d1_diag,
                    d2_diag=p.d2_diag, omega=np.full(4, 0.25), theta=p.theta)
    u = pack(layout, p)
    assert np.allclose(u[layout.sl_sticks], 0.0, atol=1e-12)


def test_diag_recovered_from_log_coordinates():
    layout = StateLayout(3, 4, 2)
    u = make_rng(19).normal(size=layout.size)
    p = layout.unpack(u)
    assert np.allclose(p.d1_diag, np.exp(u[layout.sl_logd1]), atol=1e-14)


def test_decode_refuses_a_layout_of_more_blocks():
    layout = StateLayout(3, 4, 2, n_blocks=3)
    u = make_rng(19).normal(size=layout.size)
    for decode in (layout.decode, layout.unpack):
        with pytest.raises(ValueError, match="this layout has 3 blocks"):
            decode(u)


# ----- posterior gradient ---------------------------------------------------------

def _fd_check(fn_value, fn_grad, u, rtol=1e-5, atol=1e-7, step=1e-5):
    _, g = fn_grad(u)
    for j in range(u.size):
        up, dn = u.copy(), u.copy()
        up[j] += step
        dn[j] -= step
        fd = (fn_value(up) - fn_value(dn)) / (2 * step)
        err = abs(g[j] - fd)
        assert err <= atol + rtol * abs(fd), f"coord {j}: analytic {g[j]} vs fd {fd}"


def test_posterior_gradient_matches_fd():
    rng = make_rng(20)
    _, data, targets, hyper, layout = _problem(rng)
    for _ in range(3):
        u = rng.normal(0, 0.4, size=layout.size)
        _fd_check(lambda v: log_posterior(v, layout, data, hyper, targets),
                  lambda v: log_posterior_grad(v, layout, data, hyper, targets), u)


def test_posterior_gradient_theta_at_uniform_omega():
    rng = make_rng(21)
    _, data, targets, hyper, layout = _problem(rng)
    u = rng.normal(0, 0.3, size=layout.size)
    u[layout.sl_sticks] = 0.0  # symmetric weights
    _fd_check(lambda v: log_posterior(v, layout, data, hyper, targets),
              lambda v: log_posterior_grad(v, layout, data, hyper, targets), u)


def test_zero_data_posterior_is_prior_plus_jacobian():
    rng = make_rng(22)
    d1, d2 = 3, 4
    targets, hyper = targets_and_hyper(d1, d2, rng)
    data0 = DataSummary.from_scatter(np.zeros((12, 12)), 0, d1, d2)
    layout = StateLayout(d1, d2, 2)
    u = rng.normal(0, 0.4, size=layout.size)
    params, log_jac = layout.decode(u)
    v, g = log_posterior_grad(u, layout, data0, hyper, targets)
    assert np.isclose(v, log_prior(params, hyper, targets) + log_jac, rtol=1e-12)
    _fd_check(lambda w: log_posterior(w, layout, data0, hyper, targets),
              lambda w: log_posterior_grad(w, layout, data0, hyper, targets), u)


def test_log_diag_gradient_includes_jacobian_shift():
    # with zero data and the Gamma shape fixed, d/d(log D) = a - rate * D:
    # the +1 from the log-transform Jacobian is folded into the shape term
    rng = make_rng(23)
    d1, d2 = 3, 4
    targets, hyper = targets_and_hyper(d1, d2, rng)
    data0 = DataSummary.from_scatter(np.zeros((12, 12)), 0, d1, d2)
    layout = StateLayout(d1, d2, 1)
    u = rng.normal(0, 0.3, size=layout.size)
    params, _ = layout.decode(u)
    _, g = log_posterior_grad(u, layout, data0, hyper, targets)
    expected = hyper.shape1 - hyper.rate1 * params.d1_diag
    assert np.allclose(g[layout.sl_logd1], expected, rtol=1e-10)


def test_posterior_label_permutation_invariance():
    rng = make_rng(24)
    _, data, targets, hyper, layout = _problem(rng, K=3)
    p = random_params(3, 4, 3, rng)
    perm = np.array([2, 0, 1])
    p_perm = SCKPDParams(lowers1=p.lowers1[perm], lowers2=p.lowers2[perm],
                         d1_diag=p.d1_diag, d2_diag=p.d2_diag,
                         omega=p.omega[perm], theta=p.theta)
    lp = log_likelihood(p, data) + log_prior(p, hyper, targets)
    lp_perm = log_likelihood(p_perm, data) + log_prior(p_perm, hyper, targets)
    assert np.isclose(lp, lp_perm, rtol=1e-12)


def test_one_component_is_the_tensor_normal_model():
    # at K = 1 the factor is the Kronecker product A (x) B of two Cholesky
    # factors, A = D1 + low1 and B = D2 + low2, and the static posterior is
    # the tensor-normal log-likelihood of the d1 x d2 observations plus the
    # prior and the log-Jacobian
    rng = make_rng(26)
    for d1, d2 in ((2, 2), (3, 4), (4, 5), (3, 2)):
        p = random_params(d1, d2, 1, rng)
        A, B = np.diag(p.d1_diag) + p.lowers1[0], np.diag(p.d2_diag) + p.lowers2[0]
        L = assemble_ldagger(p)
        assert np.allclose(L, np.kron(A, B), rtol=0.0, atol=1e-14 * np.abs(L).max())

        Y = random_dataset(d1, d2, 30, rng)
        Yi = Y.reshape(-1, d1, d2)
        data = summary_for(Y, d1, d2)
        targets, hyper = targets_and_hyper(d1, d2, rng)
        layout = StateLayout(d1, d2, 1)
        for _ in range(3):
            u = rng.normal(0.0, 0.4, size=layout.size)
            params, log_jac = layout.decode(u)
            A = np.diag(params.d1_diag) + params.lowers1[0]
            B = np.diag(params.d2_diag) + params.lowers2[0]
            log_det = d2 * np.log(np.diag(A)).sum() + d1 * np.log(np.diag(B)).sum()
            tensor_normal = (len(Y) * log_det - 0.5 * np.sum((A.T @ Yi @ B) ** 2)
                             - 0.5 * len(Y) * d1 * d2 * math.log(2.0 * math.pi))
            value, _ = log_posterior_grad(u, layout, data, hyper, targets)
            expect = tensor_normal + log_prior(params, hyper, targets) + log_jac
            assert abs(value - expect) <= 1e-12 * abs(expect), (d1, d2)


def test_scatter_rearranged_round_trip():
    # the rearrangement of a stack by reshapes, as the summary and the dense
    # core's index maps make it, is the one of the definition, and back
    S = make_rng(25).normal(size=(2, 20, 20))
    R = _regroup(S, 4, 5, 4, 5)
    assert R.shape == (2, 16, 25)
    assert np.array_equal(R, vanloan_rearrange(S, 4, 5))
    assert np.array_equal(_regroup(R, 4, 4, 5, 5), S)
    assert np.array_equal(vanloan_unrearrange(R[1], 4, 5), S[1])


def test_a_summary_stores_only_the_form_its_contraction_reads():
    # 4x5 reads the dense factor, so the summary holds the scatter as it
    # is; 16x16 reads the pair products, so it holds the rearrangement
    rng = make_rng(36)
    for d1, d2, rearranged in ((4, 5, False), (16, 16, True)):
        Y = random_dataset(d1, d2, 2 * d1 * d2, rng)
        S, d = Y.T @ Y, d1 * d2
        data = DataSummary.from_scatter(S, len(Y), d1, d2)
        want = vanloan_rearrange(S, d1, d2) if rearranged else S
        assert data.rearranged is rearranged and data.n_obs == len(Y)
        assert data.scatters.shape == (1,) + want.shape
        assert np.array_equal(data.scatters[0], want)
        assert not hasattr(data, "dense")
        with pytest.raises(ValueError, match=rf"expected {d} x {d} scatters, got shape "
                                             rf"\({d}, {d}, 2\)"):
            DataSummary.from_scatter(np.stack([S, S], axis=-1), len(Y), d1, d2)


def _outside_support_states(layout, rng):
    """A valid state, then copies with one coordinate pushed past the
    floating-point support: diagonals that underflow, overflow or make the
    trace term overflow, a saturated theta or stick coordinate, a weight
    so small that its lower-variance terms overflow, and transition gammas
    that overflow, underflow (one entry, or every column to 0) or overflow
    in their sum."""
    base = rng.normal(0.0, 0.3, size=layout.size)
    edits = [(layout.sl_logd1, 1, -800.0), (layout.sl_logd1, 1, 800.0),
             (layout.sl_logd2, 1, -800.0), (layout.sl_logd1, 1, 400.0),
             (layout.sl_theta, 1, 40.0), (layout.sl_theta, 1, -800.0),
             (layout.sl_sticks, 1, 800.0), (layout.sl_sticks, 1, -800.0),
             (layout.sl_sticks, 1, -400.0)]
    if layout.n_blocks > 1:
        edits += [(layout.sl_gammas, 1, 800.0), (layout.sl_gammas, 1, -800.0),
                  (layout.sl_gammas, 3, 709.0),
                  (layout.sl_gammas, layout.n_components ** 2, -800.0)]
    for sl, n, val in edits:
        u = base.copy()
        u[sl.start:sl.start + n] = val
        yield u


def test_outside_support_is_clean_minus_infinity():
    rng = make_rng(27)
    d1, d2, K = 3, 4, 3
    Ys = [random_dataset(d1, d2, 20, rng) for _ in range(3)]
    targets, hyper = targets_and_hyper(d1, d2, rng)
    data = summary_for(Ys[0], d1, d2)
    sched = SeasonSchedule(n_seasons=3, n_cycles=1,
                           blocks=tuple(summary_for(Y, d1, d2) for Y in Ys))
    static = StateLayout(d1, d2, K)
    seasonal = StateLayout(d1, d2, K, n_blocks=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for layout, post in ((static, lambda u: log_posterior_grad(u, static, data, hyper,
                                                                   targets)),
                             (seasonal, lambda u: sd_log_posterior_grad(u, seasonal, sched,
                                                                        hyper, targets))):
            assert np.isfinite(post(rng.normal(0.0, 0.3, size=layout.size))[0])
            for u in _outside_support_states(layout, rng):
                value, grad = post(u)
                assert value == -np.inf
                assert grad.shape == (layout.size,) and not np.any(grad)


def _static_and_seasonal_posteriors(rng, d1=3, d2=4, K=3):
    """A static layout and a 12-block (4 seasons x 3 cycles) seasonal
    layout, each with ``log_posterior_grad`` bound to its data: the
    partial takes the state and, optionally, ``want``."""
    Ys = [random_dataset(d1, d2, 20, rng) for _ in range(12)]
    targets, hyper = targets_and_hyper(d1, d2, rng)
    sched = SeasonSchedule(n_seasons=4, n_cycles=3,
                           blocks=tuple(summary_for(Y, d1, d2) for Y in Ys))
    return [(layout, partial(log_posterior_grad, layout=layout, data=data, hyper=hyper,
                             targets=targets))
            for layout, data in ((StateLayout(d1, d2, K), summary_for(Ys[0], d1, d2)),
                                 (StateLayout(d1, d2, K, n_blocks=12), sched))]


def _entries_and_cores(rng):
    """At the static 4x5 K5, seasonal 5x2 K5 T = 12 and 16x16 K5 (pair
    products) shapes, a layout with ``log_posterior_grad`` and
    ``log_posterior_core`` bound to it and to one posterior's data and
    hyperparameters, solved from the first block as a fit solves them.
    Both take the state and ``want``; the core is called inside the
    error-state scope that its callers hold."""
    for d1, d2, K, T in ((4, 5, 5, 1), (5, 2, 5, 12), (16, 16, 5, 1)):
        n = 3 * d1 * d2
        scatters = np.stack([Y.T @ Y for Y in (random_dataset(d1, d2, n, rng) for _ in range(T))])
        data = DataSummary.from_scatter(scatters, n * T, d1, d2)
        targets = prior_targets_from_sample(scatters[0] / n, d1, d2)
        hyper = solve_hyper(targets)
        layout = StateLayout(d1, d2, K, n_blocks=T)
        bound = dict(layout=layout, data=data, hyper=hyper)

        def core(u, want, bound=bound):
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                return log_posterior_core(u, want=want, **bound)
        yield layout, partial(log_posterior_grad, targets=targets, **bound), core


def _same_bits(a, b) -> bool:
    """Two requests' results, a float, an array or a (value, gradient)
    pair, hold the same bits."""
    if isinstance(a, tuple):
        return len(b) == 2 and all(_same_bits(x, y) for x, y in zip(a, b))
    return type(a) is type(b) and np.asarray(a).tobytes() == np.asarray(b).tobytes()


def test_value_and_gradient_requests_match_the_combined_call_bit_for_bit():
    rng = make_rng(29)
    for layout, post in _static_and_seasonal_posteriors(rng):
        for _ in range(6):
            u = rng.normal(0.0, 0.4, size=layout.size)
            value, grad = post(u)
            alone = post(u, want="value")
            assert type(alone) is float and math.isfinite(alone)
            assert np.float64(alone).tobytes() == np.float64(value).tobytes()
            g = post(u, want="grad")
            assert g.shape == grad.shape and g.tobytes() == grad.tobytes()
        with pytest.raises(ValueError, match="want"):
            post(u, want="gradient")
    # the core, which fit's gradient requests call, gives the entry's bits
    # for every request, and the entry alone refuses what the core assumes
    for layout, entry, core in _entries_and_cores(rng):
        for _ in range(3):
            u = rng.normal(0.0, 0.4, size=layout.size)
            assert math.isfinite(entry(u, want="value"))
            for want in ("value", "grad", "both"):
                assert _same_bits(core(u, want), entry(u, want=want))
        with pytest.raises(ValueError, match="want must be 'value', 'grad' or 'both', "
                                             "got 'gradient'"):
            entry(u, want="gradient")
        with pytest.raises(ValueError, match=f"expected a state vector of length {layout.size}"):
            entry(u[:-1])
        other = DataSummary.from_observations(rng.normal(size=(30, 12)), 3, 4)
        form = (layout.n_blocks, layout.d1, layout.d2, layout.trace_core.func is _trace_pairs)
        with pytest.raises(ValueError, match=re.escape(
                f"the layout has (blocks, d1, d2, rearranged) = {form}, "
                f"the data (1, 3, 4, False)")):
            entry(u, data=other)


def test_the_entry_refuses_blocks_of_another_shape_or_form():
    # a 4x5 and a 5x4 summary both hold (1, 20, 20) dense scatters, and at
    # 16x16 both forms are (1, 256, 256): the entry compares the blocks'
    # shape and the stored form, and names both sides
    rng = make_rng(37)
    targets, hyper = targets_and_hyper(4, 5, rng)
    cases = ((5, 4, summary_for(random_dataset(4, 5, 30, rng), 4, 5), "(1, 4, 5, False)"),
             (16, 16, DataSummary(30, 16, 16, np.eye(256)[None], rearranged=False),
              "(1, 16, 16, False)"))
    for d1, d2, data, got in cases:
        layout = StateLayout(d1, d2, 2)
        form = (1, d1, d2, layout.trace_core.func is _trace_pairs)
        with pytest.raises(ValueError, match=re.escape(
                f"the layout has (blocks, d1, d2, rearranged) = {form}, the data {got}")):
            log_posterior_grad(np.zeros(layout.size), layout, data, hyper, targets)


def test_requests_outside_the_support_are_minus_infinity_and_zeros():
    # a diagonal at exp(-800), a saturated theta and (seasonal) an
    # overflowing transition gamma leave the support for every request,
    # made through the entry or, inside the sampler's scope, the core
    rng = make_rng(30)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        posts = [(layout, post, None) for layout, post in _static_and_seasonal_posteriors(rng)]
        for layout, post, core in posts + list(_entries_and_cores(rng)):
            edits = [(layout.sl_logd1, -800.0), (layout.sl_theta, 40.0)]
            if layout.n_blocks > 1:
                edits.append((layout.sl_gammas, 800.0))
            for sl, val in edits:
                u = rng.normal(0.0, 0.3, size=layout.size)
                u[sl.start] = val
                assert post(u, want="value") == -math.inf
                grad = post(u, want="grad")
                assert grad.shape == (layout.size,) and not np.any(grad)
                value, grad = post(u)
                assert value == -math.inf and not np.any(grad)
                if core is not None:
                    for want in ("value", "grad", "both"):
                        assert _same_bits(core(u, want), post(u, want=want))


def test_a_state_whose_gradient_overflows_keeps_a_finite_value_request():
    # a first-block weight near exp(-400): the lower-prior gradient divides
    # by it and overflows, while the value stays finite (and far below any
    # reachable state's, so a proposal ending there is rejected as
    # divergent).  Each request checks only what it computes; the combined
    # call gives (-inf, zeros) when either part leaves the range
    rng = make_rng(31)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for layout, post in _static_and_seasonal_posteriors(rng):
            u = rng.normal(0.0, 0.3, size=layout.size)
            u[layout.sl_sticks.start] = -400.0
            assert -math.inf < post(u, want="value") < -1e100
            assert not np.any(post(u, want="grad"))
            value, grad = post(u)
            assert value == -math.inf and not np.any(grad)


@pytest.mark.parametrize("d1,d2,K,T", [(4, 5, 5, 1), (4, 5, 5, 3), (16, 16, 5, 1)])
def test_a_shared_layout_gives_each_posterior_its_own_bits(d1, d2, K, T):
    # one layout serves two posteriors of different data and priors: calls
    # interleaved between them give each the bits it gives on a layout of
    # its own, so no per-fit constant lives on the layout
    rng = make_rng(33 + d1 + T)
    shared = StateLayout(d1, d2, K, n_blocks=T)
    posts = []
    for _ in range(2):
        Ys = [random_dataset(d1, d2, 30, rng) for _ in range(T)]
        data = DataSummary.from_scatter(np.stack([Y.T @ Y for Y in Ys]), 30 * T, d1, d2)
        targets, hyper = targets_and_hyper(d1, d2, rng, n=3 * d1 * d2)
        posts.append(partial(log_posterior_grad, data=data, hyper=hyper, targets=targets))
    states = [rng.normal(0.0, 0.4, size=shared.size) for _ in range(3)]
    alone = [[post(u, StateLayout(d1, d2, K, n_blocks=T), want=want)
              for u in states for want in ("value", "grad")] for post in posts]
    together = [[], []]
    for u in states:
        for want in ("value", "grad"):
            for i in (0, 1):
                together[i].append(posts[i](u, shared, want=want))
    for got, want in zip(together, alone):
        assert [np.asarray(x).tobytes() for x in got] == [np.asarray(x).tobytes() for x in want]


def test_posterior_outputs_are_not_aliased():
    # a call's gradient must survive the next call, which the sampler relies
    # on when it adds gradients into its momentum, and a repeated call at one
    # state must return the same value and gradient
    rng = make_rng(28)
    d1, d2, K = 3, 4, 3
    Ys = [random_dataset(d1, d2, 20, rng) for _ in range(3)]
    targets, hyper = targets_and_hyper(d1, d2, rng)
    data = summary_for(Ys[0], d1, d2)
    sched = SeasonSchedule(n_seasons=3, n_cycles=1,
                           blocks=tuple(summary_for(Y, d1, d2) for Y in Ys))
    static = StateLayout(d1, d2, K)
    seasonal = StateLayout(d1, d2, K, n_blocks=3)
    for layout, post in ((static, lambda u: log_posterior_grad(u, static, data, hyper,
                                                               targets)),
                         (seasonal, lambda u: sd_log_posterior_grad(u, seasonal, sched,
                                                                    hyper, targets))):
        u1 = rng.normal(0.0, 0.4, size=layout.size)
        u2 = rng.normal(0.0, 0.4, size=layout.size)
        u1_kept = u1.copy()
        v1, g1 = post(u1)
        g1_kept = g1.copy()
        v2, g2 = post(u2)
        assert v2 != v1
        assert np.array_equal(g1, g1_kept)
        assert not np.shares_memory(g1, g2)
        v1_again, g1_again = post(u1)
        assert v1_again == v1 and np.array_equal(g1_again, g1)
        assert np.array_equal(u1, u1_kept)
