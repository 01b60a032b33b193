import math

import numpy as np
import pytest
from scipy.integrate import quad

from thetalab.errors import CapacityError, ContractError, DomainError
from thetalab.kernels import (N_MAX, heat_kernel, hermite_eval,
                              hermite_normalized_seq, log_heat_kernel,
                              log_heat_kernel_sq, log_hermite_sq_over_fact_seq)


def test_log_kernel_frozen_oracles():
    # 1-d standard Gaussian at the origin: -0.5 log(2 pi)
    assert log_heat_kernel(np.array([0.0]), 1.0, 1) \
        == pytest.approx(-0.9189385332046727, abs=1e-12)
    # 2-d, eps = 0.5 at (1, 1): log(1/pi) - 2
    assert log_heat_kernel(np.array([1.0, 1.0]), 0.5, 2) \
        == pytest.approx(math.log(1.0 / math.pi) - 2.0, abs=1e-12)


def test_kernel_normalizes_to_one():
    val, _ = quad(lambda x: heat_kernel(np.array([x]), 0.37, 1), -30, 30)
    assert val == pytest.approx(1.0, rel=1e-10)


def test_kernel_semigroup_convolution():
    # (p_a * p_b)(u) = p_{a+b}(u) in one dimension
    a, b, u = 0.3, 0.45, 1.2

    def integrand(z):
        return heat_kernel(np.array([z]), a, 1) \
            * heat_kernel(np.array([u - z]), b, 1)

    val, _ = quad(integrand, -30, 30)
    assert val == pytest.approx(heat_kernel(np.array([u]), a + b, 1),
                                rel=1e-9)


def test_kernel_batch_and_sq_agree():
    rng = np.random.default_rng(0)
    z = rng.normal(size=(7, 3))
    eps = rng.uniform(0.1, 2.0, size=7)
    batch = log_heat_kernel(z, eps, 3)
    via_sq = log_heat_kernel_sq(np.sum(z * z, axis=-1), eps, 3)
    assert np.allclose(batch, via_sq, atol=1e-13)


def test_kernel_domain_errors():
    with pytest.raises(DomainError):
        log_heat_kernel(np.array([1.0]), 0.0, 1)
    with pytest.raises(DomainError):
        log_heat_kernel_sq(1.0, -0.5, 2)
    with pytest.raises(ContractError):
        log_heat_kernel(np.array([1.0, 2.0]), 1.0, 3)


def test_hermite_small_degrees():
    assert hermite_eval(0, 3.7) == 1.0
    assert hermite_eval(1, 3.7) == 3.7
    assert hermite_eval(2, 2.0) == pytest.approx(3.0)   # x^2 - 1
    assert hermite_eval(3, 2.0) == pytest.approx(2.0)   # x^3 - 3x


def test_hermite_matches_numpy_basis():
    for n in range(12):
        coeffs = np.zeros(n + 1)
        coeffs[n] = 1.0
        for x in (-2.5, 0.0, 0.3, 4.0):
            want = np.polynomial.hermite_e.hermeval(x, coeffs)
            assert hermite_eval(n, x) == pytest.approx(want, rel=1e-10,
                                                       abs=1e-10)


def test_hermite_recurrence_fuzz():
    rng = np.random.default_rng(5)
    for x in rng.uniform(-8, 8, 20):
        for n in range(1, 60):
            lhs = hermite_eval(n + 1, x)
            rhs = x * hermite_eval(n, x) - n * hermite_eval(n - 1, x)
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


def test_normalized_seq_matches_direct():
    x = 1.7
    r = hermite_normalized_seq(20, x)
    for n in range(21):
        want = hermite_eval(n, x) / math.sqrt(math.factorial(n))
        assert r[n] == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_normalized_seq_bounded_at_large_degree():
    r = hermite_normalized_seq(N_MAX, 30.0)
    assert np.all(np.isfinite(r))
    # magnitudes stay below exp(x^2/2) for |x| <= 37
    assert np.max(np.abs(r)) < math.exp(30.0 ** 2 / 2.0)


def test_log_hermite_sq_zero_reported():
    # H_1(0) = H_3(0) = 0 exactly
    seq = log_hermite_sq_over_fact_seq(5, 0.0)
    assert seq[1] == -np.inf and seq[3] == -np.inf
    assert np.isfinite(seq[0]) and np.isfinite(seq[2])


def test_log_hermite_sq_finite_past_linear_range():
    # the linear recurrence overflows past |x| ~ 37.6; the log sequence is
    # rescaled and agrees with the direct three-term recurrence
    for x in (60.0, -400.0):
        seq = log_hermite_sq_over_fact_seq(100, x)
        want = [2.0 * math.log(abs(hermite_eval(n, x)))
                - math.lgamma(n + 1.0) for n in range(101)]
        assert np.allclose(seq, want, rtol=1e-13, atol=0.0)
    assert np.all(np.isfinite(log_hermite_sq_over_fact_seq(N_MAX, 400.0)))


def test_mehler_generating_function():
    # sum_n H_n(x)^2 z^n / n! = (1 - z^2)^{-1/2} exp(x^2 z / (1 + z))
    for x in (0.4, 1.3, 2.2):
        for z in (0.2, 0.5, 0.8):
            seq = np.exp(log_hermite_sq_over_fact_seq(400, x))
            got = float(np.sum(seq * z ** np.arange(401)))
            want = (1.0 - z * z) ** -0.5 * math.exp(x * x * z / (1.0 + z))
            assert got == pytest.approx(want, rel=1e-10)


def test_degree_capacity():
    with pytest.raises(DomainError):
        hermite_eval(-1, 0.0)
    with pytest.raises(CapacityError):
        hermite_eval(N_MAX + 1, 0.0)
    with pytest.raises(CapacityError):
        hermite_normalized_seq(N_MAX + 1, 0.0)
