import warnings

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (decode_blocks, expit, interval_forward, interval_grad, interval_inverse,
                      make_rng, positive_forward, positive_grad, positive_inverse,
                      stick_breaking, stick_breaking_forward, stick_breaking_inverse)
from sckpd.model import StateLayout, stick_breaking_grad, stick_offsets


def test_expit_matches_scipy():
    x = np.linspace(-800.0, 800.0, 160_001)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = expit(x)
        ends = expit(-800.0), expit(800.0)
    expect = scipy.special.expit(x)
    assert np.all(np.abs(got - expect) <= 4 * np.spacing(expect))
    assert ends == (0.0, 1.0)


def test_stick_breaking_round_trip():
    rng = make_rng(0)
    for K in (2, 3, 6):
        omega = rng.dirichlet(np.full(K, 2.0))
        y = stick_breaking_inverse(omega)
        back, _ = stick_breaking_forward(y)
        assert np.allclose(back, omega, atol=1e-12)


def test_uniform_simplex_maps_to_zero():
    for K in (2, 4, 7):
        y = stick_breaking_inverse(np.full(K, 1.0 / K))
        assert np.allclose(y, 0.0, atol=1e-12)
        omega, _ = stick_breaking_forward(np.zeros(K - 1))
        assert np.allclose(omega, 1.0 / K, atol=1e-12)


def test_stick_breaking_log_jacobian_matches_numeric():
    rng = make_rng(1)
    for K in (2, 3, 5):
        y = rng.normal(0, 0.8, size=K - 1)
        _, log_jac = stick_breaking_forward(y)
        eps = 1e-6
        J = np.zeros((K - 1, K - 1))
        for j in range(K - 1):
            up, dn = y.copy(), y.copy()
            up[j] += eps
            dn[j] -= eps
            f_up, _ = stick_breaking_forward(up)
            f_dn, _ = stick_breaking_forward(dn)
            J[:, j] = (f_up[:-1] - f_dn[:-1]) / (2 * eps)
        sign, numeric = np.linalg.slogdet(J)
        assert sign > 0
        assert np.isclose(log_jac, numeric, atol=1e-6)


def test_stick_breaking_grad_matches_fd():
    rng = make_rng(2)
    K = 5
    y = rng.normal(0, 0.7, size=K - 1)
    w = rng.normal(size=K)

    def scalar(yv):
        omega, log_jac = stick_breaking_forward(yv)
        return float(w @ omega) + log_jac

    z = expit(y - stick_offsets(K))
    omega, _ = stick_breaking(z)
    g = stick_breaking_grad(z, omega, w)
    eps = 1e-6
    for j in range(K - 1):
        up, dn = y.copy(), y.copy()
        up[j] += eps
        dn[j] -= eps
        fd = (scalar(up) - scalar(dn)) / (2 * eps)
        assert np.isclose(g[j], fd, rtol=1e-6, atol=1e-8)


def test_stick_breaking_inverse_validates():
    with pytest.raises(ValueError):
        stick_breaking_inverse(np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        stick_breaking_inverse(np.array([1.0, 0.0]))


def test_interval_round_trip_and_grad():
    for t in (0.01, 0.4, 0.97):
        v = interval_inverse(t)
        back, _ = interval_forward(v)
        assert np.isclose(back, t, atol=1e-14)
    v0 = 0.3

    def scalar(v):
        t, lj = interval_forward(v)
        return 2.5 * t + lj

    t0, _ = interval_forward(v0)
    g = interval_grad(t0, 2.5)
    eps = 1e-6
    fd = (scalar(v0 + eps) - scalar(v0 - eps)) / (2 * eps)
    assert np.isclose(g, fd, rtol=1e-7)


def test_positive_round_trip_and_grad():
    rng = make_rng(3)
    x = rng.uniform(0.2, 5.0, size=4)
    u = positive_inverse(x)
    back, log_jac = positive_forward(u)
    assert np.allclose(back, x, atol=1e-14)
    assert np.isclose(log_jac, np.sum(u))
    w = rng.normal(size=4)

    def scalar(uv):
        xv, lj = positive_forward(uv)
        return float(w @ xv) + lj

    g = positive_grad(x, w)
    eps = 1e-7
    for j in range(4):
        up, dn = u.copy(), u.copy()
        up[j] += eps
        dn[j] -= eps
        fd = (scalar(up) - scalar(dn)) / (2 * eps)
        assert np.isclose(g[j], fd, rtol=1e-6)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=7))
def test_stick_breaking_forward_always_simplex(ys):
    omega, _ = stick_breaking_forward(np.asarray(ys))
    assert np.all(omega >= 0)
    assert np.isclose(omega.sum(), 1.0, atol=1e-12)


@pytest.mark.parametrize("n_blocks", [1, 3])
def test_fused_decode_matches_the_transform_oracles(n_blocks):
    # the layout decodes every coordinate after the strict lowers with one
    # exp; its values and log-Jacobian are the per-transform oracles', and
    # it is -inf where one of them is
    layout = StateLayout(3, 4, 3, n_blocks=n_blocks)
    rng = make_rng(5 + n_blocks)
    states = [rng.normal(0.0, 2.0, size=layout.size) for _ in range(50)]
    for sl, val in ((layout.sl_logd1, -800.0), (layout.sl_logd2, 800.0),
                    (layout.sl_theta, 40.0), (layout.sl_sticks, 800.0),
                    (layout.sl_sticks, -800.0), (layout.sl_gammas, -800.0)):
        if sl.stop > sl.start:
            u = rng.normal(size=layout.size)
            u[sl.start] = val
            states.append(u)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for u in states:
            params, log_jac = decode_blocks(layout, u)
            positives = np.r_[u[layout.sl_logd1], u[layout.sl_logd2], u[layout.sl_gammas]]
            x, jac_pos = positive_forward(positives)
            omega, jac_sticks = stick_breaking_forward(u[layout.sl_sticks])
            theta, jac_theta = interval_forward(float(u[layout.sl_theta][0]))
            expected = jac_pos + jac_sticks + jac_theta
            assert np.array_equal(np.r_[params.d1_diag, params.d2_diag], x[:7])
            if n_blocks > 1:
                assert np.array_equal(params.gamma.ravel(), x[7:])
            if expected == -np.inf:
                assert log_jac == -np.inf
                continue
            assert np.allclose(params.omega1, omega, rtol=1e-15, atol=0.0)
            assert theta == params.theta
            assert log_jac == pytest.approx(expected, rel=1e-13, abs=1e-13)
