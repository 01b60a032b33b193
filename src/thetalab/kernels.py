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

_RESCALE = 2.0 ** 500


def log_heat_kernel(z, eps, d=None):
    """log p_eps^d(z) for the centered Gaussian density with covariance eps*I.

    ``z`` may be a vector in R^d or a batch of vectors (last axis = d);
    ``eps`` broadcasts against the batch shape.
    """
    z = np.asarray(z, dtype=float)
    if d is None:
        d = z.shape[-1]
    elif z.shape[-1] != d:
        raise ContractError(
            f"dimension mismatch: len(z)={z.shape[-1]} but d={d}")
    return log_heat_kernel_sq(np.sum(z * z, axis=-1), eps, d)


def log_heat_kernel_sq(sq_norm, eps, d):
    """Same as :func:`log_heat_kernel` but from a precomputed ||z||^2."""
    sq_norm = np.asarray(sq_norm, dtype=float)
    eps = np.asarray(eps, dtype=float)
    if np.any(eps <= 0.0):
        raise DomainError("heat kernel variance must be positive")
    with np.errstate(over="ignore"):  # -inf past the double range
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


def _normalized_recurrence(nmax, x):
    """Scaled r_n = H_n(x)/sqrt(n!) for n = 0..nmax: (values, exponents).

    r_n = values[n] * 2^exponents[n].  The normalized recurrence
    r_{n+1} = (x r_n - sqrt(n) r_{n-1})/sqrt(n+1) runs on a pair that is
    divided by 2^500 whenever it grows past that, which is exact and keeps
    every degree finite at any x.
    """
    _check_degree(nmax)
    x = float(x)
    vals = np.empty(nmax + 1)
    exps = np.zeros(nmax + 1, dtype=int)
    prev, vals[0], e = 0.0, 1.0, 0
    for m in range(nmax):
        prev, cur = vals[m], (x * vals[m] - np.sqrt(m) * prev) / np.sqrt(m + 1)
        if abs(cur) > _RESCALE:
            prev, cur, e = prev / _RESCALE, cur / _RESCALE, e + 500
        vals[m + 1], exps[m + 1] = cur, e
    return vals, exps


def hermite_normalized_seq(nmax, x):
    """Array of r_n = H_n(x)/sqrt(n!) for n = 0..nmax.

    Magnitudes reach about exp(x^2/2), so the values are finite for every
    degree this module accepts when |x| <= 37; past that use
    :func:`log_hermite_sq_over_fact_seq`.
    """
    return np.ldexp(*_normalized_recurrence(nmax, x))


def log_hermite_sq_over_fact_seq(nmax, x):
    """Vector of log(H_n(x)^2/n!) for n = 0..nmax (-inf at exact zeros).

    Finite at every x: the recurrence is rescaled, never exponentiated.
    """
    vals, exps = _normalized_recurrence(nmax, x)
    with np.errstate(divide="ignore"):
        return 2.0 * (np.log(np.abs(vals)) + exps * np.log(2.0))
