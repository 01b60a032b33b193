"""Gaussian heat kernels and probabilists' Hermite polynomials.

Everything here is a pure function and log-domain capable: kernels are
evaluated as log-densities and the Hermite square-over-factorial terms are
produced through a normalized three-term recurrence that never forms n! or
H_n(x)^2 directly.
"""

import numpy as np

from .errors import CapacityError, ContractError, DomainError

# Largest Hermite degree accepted by the evaluators.  Sized for the chaos
# truncations used by the series divergence scans.
N_MAX = 5000


def log_heat_kernel(z, eps, d=None):
    """log p_eps^d(z) for the centered Gaussian density with covariance eps*I.

    ``z`` may be a vector in R^d or a batch of vectors (last axis = d);
    ``eps`` broadcasts against the batch shape.
    """
    z = np.asarray(z, dtype=float)
    eps = np.asarray(eps, dtype=float)
    if np.any(eps <= 0.0):
        raise DomainError("heat kernel variance must be positive")
    if d is None:
        d = z.shape[-1]
    elif z.shape[-1] != d:
        raise ContractError(
            f"dimension mismatch: len(z)={z.shape[-1]} but d={d}")
    sq = np.sum(z * z, axis=-1)
    return -0.5 * d * np.log(2.0 * np.pi * eps) - sq / (2.0 * eps)


def log_heat_kernel_sq(sq_norm, eps, d):
    """Same as :func:`log_heat_kernel` but from a precomputed ||z||^2."""
    sq_norm = np.asarray(sq_norm, dtype=float)
    eps = np.asarray(eps, dtype=float)
    if np.any(eps <= 0.0):
        raise DomainError("heat kernel variance must be positive")
    return -0.5 * d * np.log(2.0 * np.pi * eps) - sq_norm / (2.0 * eps)


def heat_kernel(z, eps, d=None):
    """p_eps^d(z) in the linear domain."""
    return np.exp(log_heat_kernel(z, eps, d))


def _check_degree(n):
    if n < 0:
        raise DomainError("Hermite degree must be nonnegative")
    if n > N_MAX:
        raise CapacityError(f"Hermite degree {n} exceeds N_MAX={N_MAX}")


def hermite_eval(n, x):
    """H_n(x), probabilists' convention: H_0=1, H_1=x, H_2=x^2-1, ...

    Three-term recurrence H_{n+1} = x H_n - n H_{n-1}.  Values overflow a
    double somewhere past n ~ 150 at large |x|; use
    :func:`hermite_normalized_seq` for large degrees.
    """
    _check_degree(n)
    x = float(x)
    if n == 0:
        return 1.0
    prev, cur = 1.0, x
    for m in range(1, n):
        prev, cur = cur, x * cur - m * prev
    return cur


def hermite_normalized_seq(nmax, x):
    """Array of r_n = H_n(x)/sqrt(n!) for n = 0..nmax.

    The normalized recurrence r_{n+1} = (x r_n - sqrt(n) r_{n-1})/sqrt(n+1)
    keeps magnitudes of order exp(x^2/2) at worst, so no overflow occurs for
    any degree this module accepts when |x| <= 37.
    """
    _check_degree(nmax)
    x = float(x)
    r = np.empty(nmax + 1)
    r[0] = 1.0
    if nmax >= 1:
        r[1] = x
    for m in range(1, nmax):
        r[m + 1] = (x * r[m] - np.sqrt(m) * r[m - 1]) / np.sqrt(m + 1)
    return r


def log_hermite_sq_over_fact_seq(nmax, x):
    """Vector of log(H_n(x)^2/n!) for n = 0..nmax (-inf at exact zeros)."""
    r = hermite_normalized_seq(nmax, x)
    with np.errstate(divide="ignore"):
        return 2.0 * np.log(np.abs(r))
