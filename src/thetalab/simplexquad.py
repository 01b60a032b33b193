"""Deterministic and Monte Carlo integration over the ordered time simplex.

The integrals of interest are products of heat kernels of consecutive
increments over Delta_k = {0 <= t_1 < ... < t_k <= 1}.  The gap change of
variables g_j = t_{j+1} - t_j turns these into integrals over
{g >= 0, sum g <= 1} of (1 - sum g) * prod_j p^d_{g_j + eps}(s u_j), where
the slack factor accounts for the free translation of t_1.  All kernel
products are accumulated as sums of logs; at large scale factors the
integrand magnitudes fall to e^{-200} and below.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad, trapezoid
from scipy.special import logsumexp

from .errors import CapacityError, ContractError, DomainError
from .kernels import log_heat_kernel, log_heat_kernel_sq

_DET_MAX_GAP_DIMS = 3
# Gauss-Legendre nodes per side of the peak on each axis, tried in turn while
# the tensor grid has at most _MAX_NODES nodes, evaluated _CHUNK at a time.
_LADDER = (8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256)
_MAX_NODES = 2 ** 21
_CHUNK = 2 ** 13
_CUT = 45.0        # an axis ends where log f is _CUT below its peak
_Y_MARGIN = 60.0   # y = log s is searched down to log(|u|^2/d + eps) - this
_Y_FLOOR = -700.0  # ... and never below this
# built on first use and shared: callers must not write to the arrays
_gauss_legendre = functools.cache(np.polynomial.legendre.leggauss)


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
        if self.log_value > math.log(np.finfo(float).max):
            raise CapacityError(
                f"integral e^{self.log_value:.6g} overflows a double")
        return math.exp(self.log_value)


def _gap_log_integrand(sq, d, eps, log_moment=None):
    """log of the gap integrand on the cube, as a function of y = log s.

    Stick-breaking (the Duffy transform, SIAM J. Numer. Anal. 19 (1982))
    maps s in (0, 1)^m onto the gaps, g_j = s_j prod_{i<j} (1 - s_i), with
    slack prod_i (1 - s_i).  Slack, Jacobian and ds = s dy give the log
    weight sum_i [y_i + (m - i + 1) log(1 - s_i)], i from 1.
    ``log_moment`` adds a log factor of the first gap (eps = 0 there).

    ``logf`` takes an open grid (``np.ix_``): y_i along axis i, of length 1
    on the others.  Gap j uses axes 0..j; only the last spans the grid.
    """
    def logf(y):
        out = log_run = 0.0  # log_run: sum over i < j of log(1 - s_i)
        for j, (y_j, sq_j) in enumerate(zip(y, sq)):
            g = np.maximum(np.exp(y_j + log_run), np.finfo(float).tiny) + eps
            log1m = np.log(-np.expm1(y_j))
            with np.errstate(over="ignore"):  # |u|^2/g = inf: the kernel is 0
                out = out + (y_j + (len(sq) - j) * log1m) \
                    + log_heat_kernel_sq(sq_j, g, d)
            if j == 0 and log_moment is not None:
                out = out + log_moment(g)
            log_run = log_run + log1m
        return out

    return logf


def _locate_peak(logf, lo):
    """Maximiser and maximum of ``logf`` on prod_i [lo_i, 0), by grid zoom.

    The first grid per axis is uniform in y and in s = e^y, so that peaks
    near s = 0 and near s = 1 are bracketed; each later grid spans the
    neighbours of the best node at a quarter of the spacing.  ``logf`` runs
    on the open grid of the axes.
    """
    axes = [np.unique(np.concatenate([
        np.linspace(a, -1e-12, 10),
        np.log(np.linspace(math.exp(a), 1.0 - 1e-12, 10))])) for a in lo]
    for _ in range(24):
        grid, vals = axes, logf(np.ix_(*axes))
        best = np.unravel_index(int(np.argmax(vals)), vals.shape)
        axes = [np.linspace(ax[max(i - 1, 0)], ax[min(i + 1, ax.size - 1)],
                            9) for ax, i in zip(axes, best)]
    return np.array([ax[i] for ax, i in zip(grid, best)]), float(vals.max())


def _axis_cuts(logf, peak, top, lo):
    """Per-axis intervals around the peak, and a bound on what they cut.

    Along each axis through the peak, the interval ends at the first of 64
    geometric steps where ``logf`` is _CUT below ``top``, or at the axis
    end.  For a product of unimodal axis profiles the mass cut, relative to
    the integral, is at most the end value over ``top`` times the cut length
    over the profile's width (its integral over ``top``); below ``lo`` the
    integrand decays at least like e^{y/2}.  A profile is ``logf`` on an
    open grid whose other axes are the peak's coordinates, of length 1.
    """
    steps = np.geomspace(1e-12, 1.0, 64)
    cuts, bound = [], 0.0
    for i, (p, a) in enumerate(zip(peak, lo)):
        ys = np.concatenate([p - steps[::-1] * (p - a), [p], p - steps * p])
        axes = [ys if j == i else peak[j:j + 1] for j in range(peak.size)]
        with np.errstate(divide="ignore"):  # log(1 - s) at s = 1
            prof = logf(np.ix_(*axes)).ravel() - top
        ia = max(np.flatnonzero(prof[:64] < -_CUT), default=0)
        ib = min(np.flatnonzero(prof[65:] < -_CUT), default=63) + 65
        width = trapezoid(np.exp(prof[ia:ib + 1]), ys[ia:ib + 1])
        bound += (math.exp(prof[ia]) * (ys[ia] - a + 2.0)
                  - math.exp(prof[ib]) * ys[ib]) / width
        cuts.append((ys[ia], ys[ib]))
    return cuts, bound


def _log_gap_tensor(sq, d, eps, tol, log_moment=None):
    """(log value, relative error) of the gap-simplex integral.

    A tensor Gauss-Legendre rule in y = log s of the stick-breaking cube,
    n nodes per axis on each side of the peak within :func:`_axis_cuts`.
    n grows along _LADDER until two successive values agree to ``tol``;
    the error is their relative difference plus the cut bound plus the
    rounding of the log terms.  A moment infinite at the peak search gives
    +inf.  Each rule is summed over open grids of about _CHUNK nodes (rows
    of the first axis), never over the full grid.
    """
    sq = np.asarray(sq, dtype=float)
    with np.errstate(divide="ignore"):
        lo = np.log(sq / d + eps) - _Y_MARGIN
    if d >= 2 and np.any(lo < _Y_FLOOR):
        raise DomainError(
            "increment target too small for the gap quadrature: |u|^2/d + "
            f"eps = {np.min(sq / d + eps):.3g} < e^{_Y_FLOOR + _Y_MARGIN:g}")
    lo = np.maximum(lo, _Y_FLOOR)
    logf = _gap_log_integrand(sq, d, eps, log_moment)
    peak, top = _locate_peak(logf, lo)
    if top == math.inf:
        return top, 0.0
    if not math.isfinite(top):
        raise CapacityError("gap integrand underflows everywhere")
    cuts, cut_err = _axis_cuts(logf, peak, top, lo)
    a, b = np.transpose(cuts)  # per axis: panels [a, p] and [p, b]
    start = np.stack([a, peak], -1)[..., None]
    half = 0.5 * np.stack([peak - a, b - peak], -1)[..., None]
    prev = diff = math.inf
    for n in _LADDER:
        if (2 * n) ** sq.size > _MAX_NODES:
            break
        x, w = _gauss_legendre(n)
        nodes = (start + half * (x + 1.0)).reshape(sq.size, -1)
        with np.errstate(divide="ignore"):  # a panel of length 0
            logw = np.log(half * w).reshape(sq.size, -1)
        rows = max(1, _CHUNK // (2 * n) ** (sq.size - 1))
        cur = float(logsumexp([
            logsumexp(logf(np.ix_(nodes[0, r:r + rows], *nodes[1:]))
                      + sum(np.ix_(logw[0, r:r + rows], *logw[1:])))
            for r in range(0, 2 * n, rows)]))
        diff = abs(math.expm1(cur - prev))
        if diff <= tol:
            break
        prev = cur
    return cur, diff + cut_err + 16.0 * np.finfo(float).eps * (1 + abs(cur))


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

    Tensor Gauss-Legendre quadrature for up to three gap dimensions,
    Dirichlet weighted Monte Carlo beyond (or on request).  An error estimate
    above the target relative error sets the warning flag but the value is
    returned.
    """
    if q is None:
        q = QuadratureSpec()
    m = len(ig.u_list)
    method = q.method if m <= _DET_MAX_GAP_DIMS else "dirichlet_mc"
    if method == "tensor_gauss":
        log_value, rel = _log_gap_tensor(
            ig.sq_norms(), ig.d, ig.eps_shift, min(q.target_rel_err, 1e-10))
    else:
        log_value, rel = _log_gap_mc(ig, q)
    return LogIntegral(float(log_value), float(rel), method,
                       warning=bool(rel > q.target_rel_err))


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
    :func:`mass_m` independently.  Valid for |u| >= 0.01 at d = 4: from
    0.01 to 8 it matches the closed form (2 pi)^{-2} [e^{-a}/a - E_1(a)],
    a = |u|^2/2, to 2e-14, but at |u| = 1e-3 it returns 1.53e4 against
    5.07e4 (after about 150 s), because the adaptive inner integral misses
    the kernel peak of width ~|u|^2 near t = s.
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

    ``f_moment`` maps an array of gap lengths to the Gaussian moments of f;
    with f == 1 this collapses to m(u, d).  A divergent moment yields +inf.
    """
    if q is None:
        q = QuadratureSpec()
    u = np.atleast_1d(np.asarray(u, dtype=float))
    sq = float(u @ u)
    if sq == 0.0:
        raise DomainError("eta mass requires u != 0")

    def log_moment(g):
        with np.errstate(divide="ignore"):
            return np.log(np.maximum(f_moment(g), 0.0))

    log_value, _ = _log_gap_tensor([sq], d, 0.0, min(q.target_rel_err, 1e-10),
                                   log_moment)
    return math.exp(log_value)
