import math

import numpy as np
import pytest
from scipy.special import logsumexp

from thetalab.chaos import (ChaosSpectrum, IncrementSpec, SobolevIndex,
                            delta_increment_norm_sq, delta_increment_spectrum,
                            norm_bound_delta, sobolev_norm_sq,
                            sobolev_partial_sums, wick_convolve)
from thetalab.errors import CapacityError, ContractError, DomainError
from thetalab.kernels import (N_MAX, heat_kernel, log_heat_kernel,
                              log_hermite_sq_over_fact_seq)


def d_fold_spectrum(u, tau, K):
    """Small-K oracle: the d-fold log-domain convolution of the sequences
    log(H_n(x_j)^2/n!), one per coordinate, with no use of rotation
    invariance.  O(d K^2) Python work, so keep K at a few hundred."""
    x = u / math.sqrt(tau)
    log_conv = log_hermite_sq_over_fact_seq(K, x[0])
    for xj in x[1:]:
        nxt = log_hermite_sq_over_fact_seq(K, xj)
        log_conv = np.array([logsumexp(log_conv[: k + 1] + nxt[k::-1])
                             for k in range(K + 1)])
    return np.exp(2.0 * log_heat_kernel(u, tau, u.size) + log_conv)


def test_spectrum_validation():
    with pytest.raises(ContractError, match="^levels: must be finite"):
        ChaosSpectrum(np.array([1.0, -0.1]))
    with pytest.raises(ContractError, match="^levels: must be finite"):
        ChaosSpectrum(np.array([np.inf]))
    with pytest.raises(ContractError, match="^levels: must be finite"):
        ChaosSpectrum(np.array([1.0, np.nan]))
    with pytest.raises(ContractError, match="^levels: must be a nonempty"):
        ChaosSpectrum(np.array([]))
    sp = ChaosSpectrum(np.array([1.0, 2.0, 3.0]))
    assert sp.truncation_K == 2


def test_sobolev_norm_frozen_oracle():
    # levels (1,1,1), gamma = -1: 1 + 1/2 + 1/3
    sp = ChaosSpectrum(np.ones(3))
    val, last = sobolev_norm_sq(sp, SobolevIndex(-1.0))
    assert val == pytest.approx(1.8333333333333333, abs=1e-12)
    assert last == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_partial_sums_consistent():
    sp = ChaosSpectrum(np.array([2.0, 1.0, 4.0]))
    sums = sobolev_partial_sums(sp, SobolevIndex(-2.0))
    val, _ = sobolev_norm_sq(sp, SobolevIndex(-2.0))
    assert sums[-1] == pytest.approx(val, rel=1e-14)
    assert np.all(np.diff(sums) >= 0.0)


def test_delta_spectrum_level_zero_oracle():
    # a_0 = p^d_{t-s}(u)^2; frozen for u=1, tau=1, d=1
    sp = delta_increment_spectrum(
        IncrementSpec(np.array([1.0]), 0.0, 1.0), 1, 5)
    assert sp.levels[0] == pytest.approx(0.05854983152431917, rel=1e-10)


def test_delta_spectrum_mehler_resummation():
    # sum_k a_k z^k = p^2 prod_j (1-z^2)^{-1/2} exp(x_j^2 z/(1+z))
    rng = np.random.default_rng(5)
    for d in (1, 2, 3, 6):
        u = np.array([0.8, -0.5]) if d == 2 else rng.normal(size=d)
        tau = 0.6
        x = u / math.sqrt(tau)
        sp = delta_increment_spectrum(IncrementSpec(u, 0.2, 0.8), d, 500)
        z = 0.3
        got = float(np.sum(sp.levels * z ** np.arange(501)))
        p2 = float(heat_kernel(u, tau, d)) ** 2
        want = p2 * (1.0 - z * z) ** (-d / 2.0) \
            * math.exp(float(np.sum(x * x)) * z / (1.0 + z))
        assert got == pytest.approx(want, rel=1e-10), d


def test_delta_spectrum_matches_d_fold_oracle():
    rng = np.random.default_rng(11)
    for d in (1, 2, 3, 4, 6):
        for x_norm, tau, K in ((0.3, 0.5, 300), (2.0, 0.2, 200),
                               (7.0, 0.1, 120), (18.0, 0.05, 60)):
            v = rng.normal(size=d)
            directions = (v / np.linalg.norm(v), np.eye(d)[d - 1],
                          np.ones(d) / math.sqrt(d))
            for e in directions:
                u = x_norm * math.sqrt(tau) * e
                got = delta_increment_spectrum(
                    IncrementSpec(u, 0.0, tau), d, K).levels
                want = d_fold_spectrum(u, tau, K)
                assert np.all(want > 0.0)
                assert np.max(np.abs(got / want - 1.0)) <= 1e-12, \
                    (d, x_norm, tau, K, e)


def test_delta_spectrum_rotation_invariant():
    rng = np.random.default_rng(13)
    for d in (2, 3, 4, 6):
        q, _ = np.linalg.qr(rng.normal(size=(d, d)))
        u = rng.normal(size=d)
        a = delta_increment_spectrum(IncrementSpec(u, 0.0, 0.4), d, 300)
        b = delta_increment_spectrum(IncrementSpec(q @ u, 0.0, 0.4), d, 300)
        assert np.allclose(a.levels, b.levels, rtol=1e-12, atol=0.0)


def test_delta_spectrum_beyond_double_range_raises():
    # the Hermite recurrence used to overflow at |x| = 400 (a ValueError
    # from ChaosSpectrum), and p_tau(u)^2 at |x| = 35.8 underflowed every
    # level to 0.0; both now name |u|/sqrt(tau)
    for u, t in ((40.0, 0.01), (8.0, 0.05)):
        spec = IncrementSpec(np.array([u, 0.0, 0.0, 0.0]), 0.0, t)
        with pytest.raises(DomainError, match=r"\|u\|/sqrt\(tau\)"):
            delta_increment_spectrum(spec, 4, 200)
    # past K ~ |x|^2 the same increment has representable levels
    spec = IncrementSpec(np.array([8.0, 0.0, 0.0, 0.0]), 0.0, 0.05)
    sp = delta_increment_spectrum(spec, 4, 2000)
    assert sp.levels.max() > 1e-300
    # tiny tau overflows p_tau(u)^2
    with pytest.raises(DomainError, match="above the double range"):
        delta_increment_spectrum(
            IncrementSpec(np.array([1e-160, 0.0]), 0.0, 1e-300), 2, 10)


def test_delta_spectrum_nonnegative_and_errors():
    sp = delta_increment_spectrum(
        IncrementSpec(np.array([1.0, 0.0, 0.0, 0.0]), 0.0, 0.3), 4, 60)
    assert np.all(sp.levels >= 0.0)
    with pytest.raises(DomainError):
        delta_increment_spectrum(
            IncrementSpec(np.zeros(4), 0.0, 0.5), 4, 10)
    with pytest.raises(DomainError):
        delta_increment_spectrum(
            IncrementSpec(np.array([1.0, 0.0]), 0.0, 0.5), 4, 10)
    with pytest.raises(CapacityError):
        delta_increment_spectrum(
            IncrementSpec(np.array([1.0, 0.0, 0.0, 0.0]), 0.0, 0.5),
            4, N_MAX + 1)


def test_increment_spec_time_window():
    with pytest.raises(DomainError):
        IncrementSpec(np.array([1.0]), 0.5, 0.5)
    with pytest.raises(DomainError):
        IncrementSpec(np.array([1.0]), 0.0, 1.5)


def test_wick_identity_element():
    e0 = ChaosSpectrum(np.array([1.0]))
    b = ChaosSpectrum(np.array([0.5, 1.5, 2.5]))
    c = wick_convolve(e0, b)
    assert np.allclose(c.levels, b.levels)


def test_wick_binomial_oracle():
    two = wick_convolve(ChaosSpectrum(np.array([1.0, 1.0])),
                        ChaosSpectrum(np.array([1.0, 1.0])))
    assert np.allclose(two.levels, [1.0, 2.0, 1.0])
    assert two.truncation_K == 2


def test_wick_norm_inequality_fuzz():
    rng = np.random.default_rng(7)
    for _ in range(300):
        a = ChaosSpectrum(rng.uniform(0, 5, rng.integers(1, 30)))
        b = ChaosSpectrum(rng.uniform(0, 5, rng.integers(1, 30)))
        g1, g2 = rng.uniform(-3.0, -0.1, 2)
        lhs, _ = sobolev_norm_sq(wick_convolve(a, b),
                                 SobolevIndex(g1 + g2))
        ra, _ = sobolev_norm_sq(a, SobolevIndex(g1))
        rb, _ = sobolev_norm_sq(b, SobolevIndex(g2))
        assert lhs <= ra * rb * (1.0 + 1e-12)


def test_norm_bound_regime_guard():
    spec = IncrementSpec(np.array([1.0, 0.0, 0.0, 0.0]), 0.0, 0.5)
    with pytest.raises(DomainError):
        norm_bound_delta(spec, 4, SobolevIndex(-2.0))   # gamma >= -d/2
    with pytest.raises(DomainError):
        norm_bound_delta(spec, 4, SobolevIndex(-2.5), alpha=0.6)


def test_norm_bound_dominates_on_grid():
    for norm, tau in ((0.5, 0.3), (2.0, 0.5), (4.0, 1.0)):
        u = np.array([norm, 0.0, 0.0, 0.0])
        spec = IncrementSpec(u, 0.0, tau)
        sp = delta_increment_spectrum(spec, 4, 500)
        val, _ = sobolev_norm_sq(sp, SobolevIndex(-2.5))
        bound = norm_bound_delta(spec, 4, SobolevIndex(-2.5))
        assert math.sqrt(val) <= bound * (1.0 + 1e-9)


def mehler_tail(u, tau, d, gamma, K):
    """sum_{k>K} (k+1)^gamma C k^{d/2-1}, to leading order in K."""
    C = (2.0 * math.pi * tau) ** -d * math.exp(-float(u @ u) / (2.0 * tau)) \
        * 2.0 ** (-d / 2.0) / math.gamma(d / 2.0)
    return C * K ** (gamma + d / 2.0) / (-gamma - d / 2.0)


def test_exact_norm_matches_truncated_sum_plus_mehler_tail():
    u, tau, d, K = np.array([1.0, 0.0, 0.0, 0.0]), 0.3, 4, 2000
    spec = IncrementSpec(u, 0.0, tau)
    sp = delta_increment_spectrum(spec, d, K)
    for gamma in (-2.5, -2.2, -2.05):
        idx = SobolevIndex(gamma)
        exact = delta_increment_norm_sq(spec, d, idx)
        value, _ = sobolev_norm_sq(sp, idx)
        want = value + mehler_tail(u, tau, d, gamma, K)
        assert exact == pytest.approx(want, rel=1e-4), gamma


def test_exact_norm_matches_converged_sum():
    # at gamma = -d/2 - 4 the tail past K = 1000 is below 1e-14 relative
    rng = np.random.default_rng(17)
    for d in (1, 2, 3, 4, 6):
        for norm, tau in ((0.3, 0.5), (1.0, 0.3), (2.0, 0.4)):
            v = rng.normal(size=d)
            spec = IncrementSpec(norm * v / np.linalg.norm(v), 0.0, tau)
            idx = SobolevIndex(-d / 2.0 - 4.0)
            value, _ = sobolev_norm_sq(
                delta_increment_spectrum(spec, d, 1000), idx)
            exact = delta_increment_norm_sq(spec, d, idx)
            assert exact == pytest.approx(value, rel=1e-12), (d, norm, tau)
    with pytest.raises(DomainError):
        delta_increment_norm_sq(spec, 6, SobolevIndex(-3.0))


def test_norm_bound_dominates_exact_norm():
    # the fitted constant this bound replaced fell below the exact norm
    # at small |u| (ratio 1.099 at |u| = 0.01, tau = 0.3, d = 4)
    for d in (2, 4, 6):
        for gamma in (-d / 2.0 - 0.5, -d / 2.0 - 0.05):
            idx = SobolevIndex(gamma)
            for norm in (0.0, 0.01, 0.1, 0.5, 1.0, 2.0, 4.0):
                for tau in (0.05, 0.3, 1.0):
                    u = np.zeros(d)
                    u[0] = norm
                    spec = IncrementSpec(u, 0.0, tau)
                    exact = delta_increment_norm_sq(spec, d, idx)
                    bound = norm_bound_delta(spec, d, idx)
                    assert math.sqrt(exact) <= bound * (1.0 + 1e-12), \
                        (d, gamma, norm, tau)
                    if norm == 0.0:
                        assert math.sqrt(exact) == pytest.approx(bound,
                                                                 rel=1e-12)


def test_norm_bound_reproduces_mehler_constants():
    # sqrt(J(d, gamma)) = bound / p_tau(0) at u = 0
    for d, gamma, want in ((4, -2.5, 1.1818), (4, -3.0, 1.0690),
                           (2, -1.5, 1.2995), (6, -3.5, 1.0717)):
        spec = IncrementSpec(np.zeros(d), 0.0, 0.3)
        bound = norm_bound_delta(spec, d, SobolevIndex(gamma))
        got = bound / float(heat_kernel(np.zeros(d), 0.3, d))
        assert got == pytest.approx(want, abs=5e-5)


def test_sobolev_norm_underflow_raises():
    sp = ChaosSpectrum(np.array([0.0, 1e-300]))
    with pytest.raises(DomainError):
        sobolev_norm_sq(sp, SobolevIndex(-40.0))
    assert sobolev_norm_sq(ChaosSpectrum(np.zeros(3)),
                           SobolevIndex(-1.0)) == (0.0, 0.0)
