"""Deterministic and Monte Carlo integration over the ordered time simplex.

The integrals of interest are products of heat kernels of consecutive
increments over Delta_k = {0 <= t_1 < ... < t_k <= 1}.  The gap change of
variables g_j = t_{j+1} - t_j turns these into integrals over
{g >= 0, sum g <= 1} of (1 - sum g) * prod_j p^d_{g_j + eps}(s u_j), where
the slack factor accounts for the free translation of t_1.  All kernel
products are accumulated as sums of logs; at large scale factors the
integrand magnitudes fall to e^{-200} and below.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import logsumexp

from .errors import ContractError, DomainError
from .kernels import log_heat_kernel, log_heat_kernel_sq

_DET_MAX_GAP_DIMS = 3


@dataclass(frozen=True)
class SimplexIntegrand:
    """Product of heat kernels over the gaps of an ordered k-tuple.

    ``u_list`` holds the k-1 increment targets; ``eps_shift`` adds a common
    variance shift to every gap (the epsilon of the approximation identity
    p_eps * p_g = p_{g+eps}); ``scale_t`` multiplies every target.
    """

    d: int
    u_list: tuple
    eps_shift: float = 0.0
    scale_t: float = 1.0

    def __post_init__(self):
        us = tuple(np.atleast_1d(np.asarray(u, dtype=float))
                   for u in self.u_list)
        if len(us) < 1:
            raise DomainError("need at least one increment target (k >= 2)")
        for u in us:
            if u.size != self.d:
                raise DomainError("increment target dimension mismatch")
            if self.eps_shift == 0.0 and np.all(u == 0.0) and self.d >= 2:
                raise DomainError(
                    "u_j = 0 with eps_shift = 0 is non-integrable for d >= 2")
        if self.eps_shift < 0.0:
            raise DomainError("eps_shift must be nonnegative")
        if self.scale_t <= 0.0:
            raise DomainError("scale_t must be positive")
        object.__setattr__(self, "u_list", us)

    @property
    def k(self):
        return len(self.u_list) + 1

    def sq_norms(self):
        return [float(np.dot(self.scale_t * u, self.scale_t * u))
                for u in self.u_list]


@dataclass(frozen=True)
class QuadratureSpec:
    method: str = "tensor_gauss"  # or "dirichlet_mc"
    nodes_or_samples: int = 200000
    target_rel_err: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if self.method not in ("tensor_gauss", "dirichlet_mc"):
            raise ContractError(f"unknown quadrature method {self.method!r}")
        if self.nodes_or_samples < 2:
            raise ContractError("nodes_or_samples must be >= 2")
        if self.target_rel_err <= 0.0:
            raise ContractError("target_rel_err must be positive")


@dataclass(frozen=True)
class LogIntegral:
    """Log-domain integral value with a relative error estimate."""

    log_value: float
    rel_err: float
    method: str
    warning: bool = False

    @property
    def value(self):
        return math.exp(self.log_value)


def _scan_max(logf, hi, n=48):
    """Coarse maximum of a log-integrand on (0, hi)."""
    pts = np.concatenate([
        np.linspace(hi * 1e-6, hi * (1.0 - 1e-9), n),
        np.geomspace(hi * 1e-10, hi, n),
    ])
    vals = np.array([logf(g) for g in pts])
    i = int(np.nanargmax(vals))
    return float(pts[i]), float(vals[i])


def _log_quad(logf, hi, epsrel):
    """log of integral_0^hi exp(logf(g)) dg, scaled for relative accuracy."""
    if hi <= 0.0:
        return -np.inf, 0.0
    g_star, m = _scan_max(logf, hi)
    if not np.isfinite(m):
        return -np.inf, 0.0

    def scaled(g):
        v = logf(g) - m
        return math.exp(v) if v > -745.0 else 0.0

    val, abserr = quad(scaled, 0.0, hi, points=[g_star], limit=300,
                       epsabs=0.0, epsrel=epsrel)
    if val <= 0.0:
        return -np.inf, 0.0
    return m + math.log(val), abserr / val


def _log_gap_recursive(sq, d, eps, rem, epsrel, level=0):
    """Nested adaptive quadrature of the gap-reduced integrand.

    Level j integrates gap g_j over (0, rem); the innermost factor is the
    slack (1 - sum g) = rem.  Inner levels run at a slightly looser
    tolerance, which the outer integration averages out.
    """
    if level == len(sq):
        return math.log(rem) if rem > 0.0 else -np.inf, 0.0
    inner_epsrel = epsrel if level == len(sq) - 1 else epsrel * 0.1

    def logf(g):
        lk = log_heat_kernel_sq(sq[level], g + eps, d) if g + eps > 0 \
            else -np.inf
        li, _ = _log_gap_recursive(sq, d, eps, rem - g, inner_epsrel,
                                   level + 1)
        return lk + li

    return _log_quad(logf, rem, epsrel)


def _log_gap_mc(ig: SimplexIntegrand, q: QuadratureSpec):
    m = len(ig.u_list)
    rng = np.random.Generator(np.random.Philox(key=[q.seed, 0x51]))
    sq = np.asarray(ig.sq_norms())
    n = q.nodes_or_samples
    parts = rng.dirichlet(np.ones(m + 1), size=n)
    gaps = parts[:, :m]
    slack = parts[:, m]
    logh = np.log(np.clip(slack, 1e-300, None))
    for j in range(m):
        logh += log_heat_kernel_sq(sq[j], gaps[:, j] + ig.eps_shift, ig.d)
    shift = logh.max()
    w = np.exp(logh - shift)
    mean = w.mean()
    rel = w.std(ddof=1) / (math.sqrt(n) * mean) if mean > 0 else np.inf
    log_value = shift + math.log(mean) - math.lgamma(m + 1)
    return log_value, rel


def gap_reduced_integral(ig: SimplexIntegrand, q: QuadratureSpec = None):
    """log of the Delta_k integral of the kernel product, via gap variables.

    Deterministic nested quadrature for up to three gap dimensions, Dirichlet
    weighted Monte Carlo beyond (or on request).  Monte Carlo noise above the
    target relative error sets the warning flag but the value is returned.
    """
    if q is None:
        q = QuadratureSpec()
    m = len(ig.u_list)
    if q.method == "tensor_gauss" and m <= _DET_MAX_GAP_DIMS:
        epsrel = min(q.target_rel_err, 1e-10)
        log_value, rel = _log_gap_recursive(
            ig.sq_norms(), ig.d, ig.eps_shift, 1.0, epsrel)
        return LogIntegral(log_value, rel, "tensor_gauss",
                           warning=rel > q.target_rel_err)
    log_value, rel = _log_gap_mc(ig, q)
    return LogIntegral(log_value, rel, "dirichlet_mc",
                       warning=rel > q.target_rel_err)


def mass_m(u, d, q: QuadratureSpec = None):
    """Total mass m(u, d) = integral over Delta_2 of p^d_{t-s}(u)."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if np.all(u == 0.0):
        raise DomainError("mass requires u != 0")
    ig = SimplexIntegrand(d, (u,))
    return gap_reduced_integral(ig, q).value


def mass_m_direct(u, d, epsrel=1e-11):
    """Dual evaluation route for m(u, d): raw 2-variable (s, t) quadrature.

    Kept deliberately free of the gap substitution so it can certify
    :func:`mass_m` independently.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if np.all(u == 0.0):
        raise DomainError("mass requires u != 0")

    def inner(s):
        def f(t):
            return math.exp(float(log_heat_kernel(u, t - s, d)))
        val, _ = quad(f, s, 1.0, limit=200, epsrel=epsrel, epsabs=0.0)
        return val

    val, _ = quad(inner, 0.0, 1.0, limit=200, epsrel=epsrel, epsabs=0.0)
    return val


def mc_simplex_raw(u_list, d, n, seed, eps_shift=0.0, scale_t=1.0):
    """Ordered-time Monte Carlo oracle for the same Delta_k integral.

    Samples k sorted uniforms (volume 1/k!) and averages the kernel product
    directly; returns (mean, stderr) in the linear domain.
    """
    us = [np.atleast_1d(np.asarray(u, dtype=float)) for u in u_list]
    k = len(us) + 1
    rng = np.random.Generator(np.random.Philox(key=[seed, 0x52]))
    t = np.sort(rng.random((n, k)), axis=1)
    gaps = np.diff(t, axis=1)
    logh = np.zeros(n)
    for j, u in enumerate(us):
        sq = float((scale_t * u) @ (scale_t * u))
        logh += log_heat_kernel_sq(sq, gaps[:, j] + eps_shift, d)
    vals = np.exp(logh) / math.factorial(k)
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(n))


def ldp_mass_curve(u_list, d, t_grid, q: QuadratureSpec = None):
    """Curve of (t, -(1/t^2) log integral) for targets scaled by t.

    Feeds the asymptotic slope fit; entries of ``t_grid`` must be >= 1.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(t_grid < 1.0):
        raise DomainError("t_grid entries must be >= 1")
    out = []
    for t in t_grid:
        ig = SimplexIntegrand(d, tuple(u_list), scale_t=float(t))
        res = gap_reduced_integral(ig, q)
        out.append((float(t), -res.log_value / t ** 2, res.rel_err))
    return out


def eta_mass_integral(u, d, f_moment, q: QuadratureSpec = None):
    """Double integral over Delta_2 of p^d_{t2-t1}(u) E[f(beta increment)].

    ``f_moment`` maps the gap length to the Gaussian moment of f; with
    f == 1 this collapses to m(u, d).  A divergent moment yields +inf.
    """
    if q is None:
        q = QuadratureSpec()
    u = np.atleast_1d(np.asarray(u, dtype=float))
    sq = float(u @ u)
    if sq == 0.0:
        raise DomainError("eta mass requires u != 0")
    epsrel = min(q.target_rel_err, 1e-10)

    def logf(g):
        if g <= 0.0 or g >= 1.0:
            return -np.inf
        mom = float(f_moment(g))
        if not np.isfinite(mom):
            raise OverflowError
        if mom <= 0.0:
            return -np.inf
        return math.log1p(-g) + log_heat_kernel_sq(sq, g, d) + math.log(mom)

    try:
        log_value, _ = _log_quad(logf, 1.0, epsrel)
    except OverflowError:
        return math.inf
    return math.exp(log_value)
