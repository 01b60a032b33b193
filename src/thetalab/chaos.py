"""Chaos spectra, weighted Sobolev norms and Wick-product convolution.

A chaos spectrum is the sequence a_k = E[I_k^2] of squared L^2 norms of the
levels of an Ito-Wiener expansion.  The (2, gamma) Sobolev norm squared is
the (k+1)^gamma weighted sum of the spectrum; negative gamma indices the
generalised-function spaces.
"""

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import exprel, gammaln

from .errors import (CapacityError, ContractError, DomainError, _check_dim,
                     _target)
from .kernels import N_MAX, log_heat_kernel, log_hermite_sq_over_fact_seq

_LOG_TINY = float(np.log(np.finfo(float).tiny))
_LOG_MAX = float(np.log(np.finfo(float).max))


@dataclass(frozen=True)
class ChaosSpectrum:
    """Nonnegative sequence a_k = E[I_k^2], k = 0..K."""

    levels: np.ndarray

    def __post_init__(self):
        lv = np.asarray(self.levels, dtype=float)
        if lv.ndim != 1 or lv.size == 0:
            raise ContractError("levels: must be a nonempty 1-d sequence")
        if np.any(lv < 0.0) or not np.all(np.isfinite(lv)):
            raise ContractError("levels: must be finite and nonnegative")
        object.__setattr__(self, "levels", lv)

    @property
    def truncation_K(self):
        return self.levels.size - 1


@dataclass(frozen=True)
class SobolevIndex:
    """Differentiability index gamma of the (2, gamma) norm."""

    gamma: float


@dataclass(frozen=True)
class IncrementSpec:
    """Target vector u for the Brownian increment w(t) - w(s)."""

    u: np.ndarray
    s: float
    t: float

    def __post_init__(self):
        u = np.atleast_1d(np.asarray(self.u, dtype=float))
        object.__setattr__(self, "u", u)
        if not 0.0 <= self.s < self.t <= 1.0:
            raise DomainError("t: need s < t" if self.s >= self.t
                              else "s, t: need 0 <= s < t <= 1")


def sobolev_norm_sq(sp: ChaosSpectrum, idx: SobolevIndex):
    """Sum_k (k+1)^gamma a_k over the truncated spectrum.

    Returns (value, last_term).  The last weighted term does not bound the
    truncation error; for the delta-increment spectrum compare with
    :func:`delta_increment_norm_sq`.  A nonzero spectrum whose weighted sum
    underflows raises DomainError instead of returning 0.0.
    """
    k = np.arange(sp.levels.size, dtype=float)
    terms = (k + 1.0) ** idx.gamma * sp.levels
    value = float(terms.sum())
    if value < np.finfo(float).tiny and np.any(sp.levels > 0.0):
        raise DomainError(f"weighted sum {value!r} of a nonzero spectrum "
                          f"lies below the double range")
    return value, float(terms[-1])


def sobolev_partial_sums(sp: ChaosSpectrum, idx: SobolevIndex):
    """Running partial sums S_K of the weighted series, for Cauchy tests."""
    k = np.arange(sp.levels.size, dtype=float)
    return np.cumsum((k + 1.0) ** idx.gamma * sp.levels)


def delta_increment_spectrum(spec: IncrementSpec, d: int, K: int):
    """Chaos spectrum of the Dirac delta of a Brownian increment at u.

    a_k = (p^d_{t-s}(u))^2 * sum_{n_1+..+n_d=k} prod_j H_{n_j}^2(x_j)/n_j!
    with x = u/sqrt(t-s).  The sum is rotation invariant, so x is put on
    r e_1 with r = |x|: the other d-1 coordinates sit at 0, where
    sum_n H_n(0)^2 s^n/n! = (1-s^2)^{-1/2}, and
    a_k = p^2 sum_{n+2j=k} H_n(r)^2/n! c_j with c_j the s^{2j} coefficient
    of (1-s^2)^{-(d-1)/2}.  Both sequences are nonnegative and enter one
    linear-domain convolution after their largest log is taken out, so each
    level keeps its relative accuracy.  Levels beyond the double range raise
    DomainError naming r.
    """
    _target("u", spec.u, d)
    if K < 0:
        raise DomainError("K must be nonnegative")
    if K > N_MAX:
        raise CapacityError(f"K={K} exceeds N_MAX={N_MAX}")
    tau = spec.t - spec.s
    r = float(np.linalg.norm(spec.u)) / np.sqrt(tau)
    log_h = log_hermite_sq_over_fact_seq(K, r)
    j = np.arange(K // 2 + 1)
    if d == 1:
        log_c = np.where(j == 0, 0.0, -np.inf)
    else:
        a = 0.5 * (d - 1)
        log_c = gammaln(j + a) - gammaln(a) - gammaln(j + 1.0)
    c = np.zeros(K + 1)
    c[::2] = np.exp(log_c - log_c.max())
    top = log_h.max() + log_c.max()
    conv = np.convolve(np.exp(log_h - log_h.max()), c)[: K + 1]
    with np.errstate(divide="ignore"):
        log_a = 2.0 * log_heat_kernel(spec.u, tau, d) + top + np.log(conv)
    _check_range(log_a.max(), np.log(K + 1.0), r, tau,
                 f"the levels up to K={K}")
    return ChaosSpectrum(np.exp(log_a))


def wick_convolve(a: ChaosSpectrum, b: ChaosSpectrum):
    """Spectrum of a Wick product of functionals on orthogonal noise.

    c_k = sum_{i+j=k} a_i b_j; the truncation degree is the sum of the
    factors' degrees.
    """
    return ChaosSpectrum(np.convolve(a.levels, b.levels))


def _mehler_mean(d, gamma, x2):
    """E[(1 - e^{-2R})^{-d/2} exp(-|x|^2 tanh(R/2)/2)], R ~ Gamma(-gamma, 1).

    Finite exactly when gamma < -d/2: the integrand behaves like
    R^{-gamma-d/2-1} at 0.  Below r0 = 1/(1 + |x|^2) the substitution
    w = R^{-gamma-d/2} removes that singularity; above r0 the integral runs
    in log R, as one exponent so that no factor overflows.
    """
    beta, r0 = -gamma - d / 2.0, 1.0 / (1.0 + x2)

    def log_rest(r):
        return -r - 0.5 * x2 * np.tanh(0.5 * r) - gammaln(-gamma)

    def near(w):  # r^{d/2} (1 - e^{-2r})^{-d/2} = (2 exprel(-2r))^{-d/2}
        r = w ** (1.0 / beta)
        return (2.0 * exprel(-2.0 * r)) ** (-d / 2.0) \
            * np.exp(log_rest(r)) / beta

    def far(y):
        r = np.exp(y)
        return np.exp(-gamma * y + log_rest(r)
                      - 0.5 * d * np.log(-np.expm1(-2.0 * r)))

    top = np.log(-gamma + 40.0 + 10.0 * np.sqrt(-gamma))
    mode = min(max(np.log(-gamma), np.log(r0)), top)
    opts = {"epsabs": 0.0, "epsrel": 1e-11, "limit": 200}
    return quad(near, 0.0, r0 ** beta, **opts)[0] \
        + quad(far, np.log(r0), top, points=[mode], **opts)[0]


def _check_convergent(d, idx):
    if idx.gamma >= -d / 2.0:
        raise DomainError(
            f"gamma={idx.gamma} >= -d/2={-d / 2}: series diverges")


def _check_range(log_top, slack, r, tau, what):
    """DomainError naming r = |u|/sqrt(tau) when exp(log_top) is no double."""
    if not _LOG_TINY <= log_top <= _LOG_MAX - slack:
        side = "below" if log_top < _LOG_TINY else "above"
        raise DomainError(
            f"|u|/sqrt(tau) = {r:.6g}, tau = {tau:.3g}: {what} lie {side} "
            f"the double range (largest exp({log_top:.6g}))")


def delta_increment_norm_sq(spec: IncrementSpec, d: int, idx: SobolevIndex):
    """Exact ||delta_u(w(t) - w(s))||^2_{2,gamma}, for gamma < -d/2.

    With (k+1)^gamma = Gamma(-gamma)^{-1} int r^{-gamma-1} e^{-(k+1)r} dr,
    Mehler's formula sums the levels: the norm is p_tau(u)^2
    Gamma(-gamma)^{-1} int_0^inf r^{-gamma-1} e^{-r} (1 - e^{-2r})^{-d/2}
    exp(|x|^2 e^{-r}/(1 + e^{-r})) dr with x = u/sqrt(tau), which equals
    (2 pi tau)^{-d} e^{-|x|^2/2} _mehler_mean(d, gamma, |x|^2).
    """
    _check_convergent(d, idx)
    _check_dim("u", spec.u, d)
    tau = spec.t - spec.s
    x2 = float(spec.u @ spec.u) / tau
    with np.errstate(divide="ignore"):
        log_norm = -d * np.log(2.0 * np.pi * tau) - 0.5 * x2 \
            + np.log(_mehler_mean(d, idx.gamma, x2))
    _check_range(log_norm, 0.0, np.sqrt(x2), tau, "the norm and its tail")
    return float(np.exp(log_norm))


def norm_bound_delta(spec: IncrementSpec, d: int, idx: SobolevIndex,
                     alpha: float = 0.45):
    """Proven bound sqrt(J) * p^d_{t-s}(c u) on the delta-increment norm.

    Valid for gamma < -d/2; c = sqrt(1 - 2 alpha) with alpha in (1/4, 1/2).
    J(d, gamma) = _mehler_mean(d, gamma, 0) is the squared norm at u = 0
    over p_tau(0)^2, where the bound is attained.  The |x|-dependent factor
    of the Mehler integrand is at most 1, so the norm is at most
    sqrt(J) p_tau(0) e^{-|x|^2/4}, and alpha > 1/4 gives
    e^{-|x|^2/4} <= e^{-c^2 |x|^2/2}.
    """
    _check_convergent(d, idx)
    if not (0.25 < alpha < 0.5):
        raise DomainError("alpha must lie in (1/4, 1/2)")
    c = np.sqrt(1.0 - 2.0 * alpha)
    tau = spec.t - spec.s
    return float(np.sqrt(_mehler_mean(d, idx.gamma, 0.0))
                 * np.exp(log_heat_kernel(c * spec.u, tau, d)))
