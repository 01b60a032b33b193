"""Deterministic integration over the ordered time simplex.

The integrals of interest are products of heat kernels of consecutive
increments over Delta_k = {0 <= t_1 < ... < t_k <= 1}.  The gap change of
variables g_j = t_{j+1} - t_j turns these into integrals over
{g >= 0, sum g <= 1} of (1 - sum g) * prod_j p^d_{g_j + eps}(s u_j), where
the slack factor accounts for the free translation of t_1.  At eps = 0 that
is the Laplace convolution of the kernels and the slack at time 1, found by
one Bromwich integral for any k (:func:`gap_reduced_integral`), vectorised
over the points of an LDP curve (:func:`ldp_mass_curve`); the
moment-weighted k = 2 integral of :func:`eta_mass_integral` has one gap and
goes to a 1-d Gauss-Legendre rule in log g, vectorised over targets.  All
kernel products are accumulated as sums of logs; at large scale factors the
integrand magnitudes fall to e^{-200} and below.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import kve

from .errors import (CapacityError, ContractError, DomainError,
                     _check_dim, _target)
from .kernels import log_heat_kernel, log_heat_kernel_sq

_CUT = 45.0        # a panel ends where log f is _CUT below its peak
_Y_MARGIN = 60.0   # y = log g is searched down to log(|u|^2/d) - this
_Y_FLOOR = -700.0  # ... and never below this
_ZOOM = 33         # nodes of each of the two grids of the peak search
_STEPS = 48        # geometric steps from the peak to each cut
_N_GL = (16, 2048)  # Gauss-Legendre nodes per panel: first and last rule
# built on first use and shared: callers must not write to the arrays
_gauss_legendre = functools.cache(np.polynomial.legendre.leggauss)
# the Bromwich contour: trapezoid nodes on [0, Y] of the first and the last
# rule, with Y _WIDTHS saddle widths out
_N_FIRST = 32
_N_LAST = 2 ** 12
_WIDTHS = 12.0
# the saddle search's grid, shrunk by 8 about a minimum inside it
_NODES = np.arange(17.0)
_SHRINK = np.where((_NODES > 0) & (_NODES < 16), 8.0, 1.0)


@dataclass(frozen=True)
class SimplexIntegrand:
    """Product of heat kernels over the gaps of an ordered k-tuple.

    ``u_list`` holds the k-1 increment targets; ``scale_t`` multiplies
    every target.
    """

    d: int
    u_list: tuple
    scale_t: float = 1.0

    def __post_init__(self):
        # u_j = 0 is non-integrable for d >= 2
        check = _target if self.d >= 2 else _check_dim
        us = tuple(check(f"u_list[{i}]", u, self.d)
                   for i, u in enumerate(self.u_list))
        if len(us) < 1:
            raise DomainError("need at least one increment target (k >= 2)")
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
    target_rel_err: float = 1e-6

    def __post_init__(self):
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
        """The integral; a CapacityError where it over- or underflows."""
        if not math.log(np.finfo(float).tiny) <= self.log_value \
                <= math.log(np.finfo(float).max):
            raise CapacityError(
                f"integral e^{self.log_value:.6g} leaves the double range")
        return math.exp(self.log_value)


def _log_eta_1d(sq, d, f_moment, tol):
    """(log values, relative errors) of int_0^1 (1 - g) p_g(u) M(g) dg.

    One entry per |u|^2 in ``sq``, all computed at once; ``f_moment`` maps
    an array of gaps g to M(g).  In y = log g the integrand is smooth and
    falls off on both sides of one peak.  The peak is found by a zoom: a
    first grid of _ZOOM nodes, uniform in y and in g so that peaks near g =
    0 and near g = 1 are bracketed, then one of _ZOOM nodes across the best
    node's neighbours.  The rule needs no closer peak: the panels may split
    anywhere near it.  On each side the panel ends at the first of
    _STEPS geometric steps where log f is _CUT below the peak, or at the
    end.  Relative to the integral, the mass cut off on a side is at most f
    at the cut times the cut length, over the trapezoid integral of f
    between the cuts; below y = lo, f decays at least like e^{y/2}.
    Gauss-Legendre on the two panels doubles its nodes from _N_GL[0] until
    two values agree to ``tol`` or _N_GL[1] is reached.  The error is their
    relative difference plus the cut bound plus the rounding of the log
    terms, which grows with |y|.  A moment infinite at the peak gives +inf.
    """
    sq = np.atleast_1d(np.asarray(sq, dtype=float))
    with np.errstate(divide="ignore"):  # u = 0 at d = 1: the floor below
        lo = np.log(sq / d) - _Y_MARGIN
    if d >= 2 and np.any(lo < _Y_FLOOR):
        raise DomainError(
            "increment target too small for the gap quadrature: |u|^2/d = "
            f"{np.min(sq / d):.3g} < e^{_Y_FLOOR + _Y_MARGIN:g}")
    lo = np.maximum(lo, _Y_FLOOR)

    def logf(y, rows):  # y has one row per entry of ``rows``
        g = np.exp(y)
        with np.errstate(divide="ignore", over="ignore"):  # f = 0 at g = 1
            return y + np.log(-np.expm1(y)) \
                + log_heat_kernel_sq(sq[rows, None], g, d) \
                + np.log(np.maximum(f_moment(g), 0.0))

    rows = np.arange(sq.size)
    grid = np.sort(np.concatenate([
        np.linspace(lo, -1e-12, _ZOOM // 2 + 1, axis=-1),
        np.log(np.linspace(np.exp(lo), 1.0 - 1e-12, _ZOOM // 2 + 1,
                           axis=-1)[:, 1:])], axis=1), axis=1)
    for _ in range(2):
        vals = logf(grid, rows)
        i = np.argmax(vals, axis=1)
        peak, top = grid[rows, i], vals[rows, i]
        grid = np.linspace(grid[rows, np.maximum(i - 1, 0)],
                           grid[rows, np.minimum(i + 1, _ZOOM - 1)], _ZOOM,
                           axis=-1)
    if not np.all(top > -math.inf):  # NaN too
        raise CapacityError("eta integrand underflows everywhere")
    out, err = np.full(sq.size, math.inf), np.zeros(sq.size)
    rows = np.flatnonzero(top < math.inf)
    p, top, a = peak[rows, None], top[rows, None], lo[rows, None]
    steps = np.geomspace(1e-12, 1.0, _STEPS)
    ys = np.concatenate([p - steps[::-1] * (p - a), p, p - steps * p], 1)
    prof = logf(ys, rows) - top
    below, above = prof[:, :_STEPS] < -_CUT, prof[:, _STEPS + 1:] < -_CUT
    ia = np.where(below.any(1), _STEPS - 1 - np.argmax(below[:, ::-1], 1), 0)
    ib = _STEPS + 1 + np.where(above.any(1), np.argmax(above, 1), _STEPS - 1)
    r = np.arange(rows.size)
    ya, yb, e = ys[r, ia], ys[r, ib], np.exp(prof)
    j = np.arange(2 * _STEPS)
    width = np.sum(np.where((j >= ia[:, None]) & (j < ib[:, None]),
                            (e[:, :-1] + e[:, 1:]) * np.diff(ys) / 2.0, 0.0),
                   axis=1)
    cut = (e[r, ia] * (ya - a[:, 0] + 2.0) - e[r, ib] * yb) / width
    # per row: panels [ya, p] and [p, yb]
    start = np.stack([ya, p[:, 0]], 1)[..., None]
    half = 0.5 * np.stack([p[:, 0] - ya, yb - p[:, 0]], 1)[..., None]
    live, n, prev = r, _N_GL[0], np.full(rows.size, math.inf)
    while live.size:
        x, w = _gauss_legendre(n)
        nodes = (start[live] + half[live] * (x + 1.0)).reshape(live.size, -1)
        with np.errstate(divide="ignore"):  # a panel of length 0
            logw = np.log(half[live] * w).reshape(live.size, -1)
        cur = top[live, 0] + np.log(np.sum(
            np.exp(logf(nodes, rows[live]) + logw - top[live]), axis=1))
        diff = np.abs(np.expm1(cur - prev[live]))
        done = (diff <= tol) | (n >= _N_GL[1])
        fin = live[done]
        out[rows[fin]] = cur[done]
        err[rows[fin]] = diff[done] + cut[fin] + 16.0 * np.finfo(float).eps \
            * (1.0 + np.abs(cur[done]) - ya[fin])
        prev[live] = cur
        live, n = live[~done], 2 * n
    return out, err


def _log_bromwich(root_a, total, d, sigma, w):
    """log of e^lam lam^-2 prod_j F_j(lam) at lam = sigma w^2, w = 1 + i y.

    F_j(lam) = (2 pi)^{-d/2} 2 (a_j/lam)^{-nu/2} K_nu(2 sqrt(a_j lam)), with
    a_j = |u_j|^2/2 and nu = d/2 - 1, is the Laplace transform of the gap
    kernel g -> p_g(u_j), and lam^-2 that of the slack.  On the contour
    sqrt(lam) = sqrt(sigma) (1 + i y); the exponents lam - sum_j 2 sqrt(a_j
    lam) are summed in closed form, so their large imaginary parts cancel
    before rounding.  One integrand per row: ``root_a`` holds the sqrt(a_j)
    as (rows, m, 1) and ``total`` their sums as (rows, 1); ``sigma`` and
    ``w`` broadcast to (rows, n).
    """
    rs = np.sqrt(sigma)
    log_lam = np.log(sigma) + 2.0 * np.log(w)
    out = sigma * (1.0 - w.imag ** 2) - 2.0 * rs * total \
        + 2j * w.imag * rs * (rs - total) - 2.0 * log_lam
    if d == 1:  # K_{1/2} in closed form; a zero target is allowed
        return out - 0.5 * root_a.shape[1] * (log_lam + math.log(2.0))
    nu = d / 2.0 - 1.0
    z = 2.0 * (root_a * (rs * w)[:, None])  # (rows, m, n)
    with np.errstate(divide="ignore", over="ignore"):
        log_k = np.log(kve(nu, z))  # log K_nu(z) + z
    if not np.isfinite(log_k).all():
        bad = ~np.isfinite(log_k)
        # as z -> 0 kve is inf on the real axis and NaN off it (K_nu(z) ~
        # Gamma(nu)/2 (z/2)^-nu), and NaN past |z| ~ 1.07e9, where the
        # three-term Hankel expansion matches it to 1e-14 from |z| = 1e8 on
        zb, fix, mu = z[bad], log_k[bad], 4.0 * nu * nu
        tiny = np.abs(zb) < 1.0
        if np.any(tiny):  # nu > 0 here: K_0(z) ~ -log z stays finite
            fix[tiny] = math.lgamma(nu) - math.log(2.0) \
                - nu * np.log(zb[tiny] / 2.0) + zb[tiny]
        huge = np.abs(zb) > 1e8
        zh = zb[huge]
        fix[huge] = 0.5 * np.log(math.pi / (2.0 * zh)) + np.log(
            1.0 + (mu - 1.0) / (8.0 * zh)
            + (mu - 1.0) * (mu - 9.0) / (128.0 * zh * zh))
        log_k[bad] = fix
    return out + np.add.reduce(
        math.log(2.0) - 0.5 * d * math.log(2.0 * math.pi)
        + nu * (math.log(2.0) + log_lam[:, None] - np.log(z)) + log_k, 1)


def _log_gap_laplace(sq, d, tol):
    """(log values, relative errors) of gap-simplex integrals at eps = 0.

    One integral per row of ``sq``, the (rows, m) array of |u_j|^2; each
    row runs the iteration below on its own and stops at its own
    convergence, and a row that fails raises for all.  The integral is
    (f_1 * ... * f_m * s)(1), a Laplace convolution of the gap kernels and
    the slack at time 1, so it is the Bromwich integral (1/2 pi i) int
    e^lam lam^-2 prod_j F_j(lam) d lam of :func:`_log_bromwich`.  On the
    parabola lam = sigma (1 + i y)^2 (Weideman and Trefethen, Math. Comp. 76
    (2007)) it is (1/pi) int_0^inf Re[e^lam lam^-2 prod_j F_j 2 sigma (1 +
    i y)] dy.  sigma is the real saddle point, found by a grid of 17 nodes
    in log lam that follows the minimum until it is inside, then shrinks to
    its neighbours (the log integrand is convex in real lam); the grid
    starts at the saddle of lam - 2 log lam - 2 S sqrt(lam), S = sum_j
    sqrt(a_j), which is S^2 to leading order.  A trapezoid rule on [0, Y],
    Y _WIDTHS saddle widths out, doubles its nodes from _N_FIRST until two
    values agree to ``tol``.  The error is their relative difference, plus
    a bound on the cut tail (past Y, |e^lam| = e^{sigma (1 - y^2)} and the
    other factors grow at most like (1 + y^2)^{m d/4 - 3/2}), plus
    the rounding of the log terms, scaled by any cancellation in the sum.
    """
    sq = np.asarray(sq, dtype=float)
    if d >= 2 and (sq == 0.0).any():
        raise DomainError("increment target underflows: |u|^2 = 0 for d >= 2")
    root_a = np.sqrt(sq / 2.0)
    lead, root_a = np.add.reduce(root_a, 1, keepdims=True), root_a[..., None]

    def logg(y):  # the y-integrand of the live rows, d lam/(i dy) included
        w = 1.0 + 1j * y
        return _log_bromwich(root_a, lead, d, sigma, w) \
            + np.log(2.0 * sigma * w)

    # A row's scalar steps run on Python floats with math.exp and math.log:
    # np.exp and np.log may round the last bit differently, which the
    # doubling difference in the error would magnify.  The nodes of all
    # live rows go to _log_bromwich in one batch.
    mu = np.array([2.0 * math.log((s + math.sqrt(s ** 2 + 8.0)) / 2.0)
                   for s in lead.ravel().tolist()])
    half, moving = np.full(mu.size, 4.0), np.full(mu.size, True)
    for _ in range(200):
        lo, hi = mu - half, mu + half
        mus = _NODES * ((hi - lo) / 16.0)[:, None] + lo[:, None]
        mus[:, -1] = hi  # np.linspace(lo, hi, 17) on each row
        i = _log_bromwich(root_a, lead, d, np.exp(mus),
                          1.0 + 0j).real.argmin(1)
        mu = np.where(moving, mus[np.arange(mu.size), i], mu)
        half = np.where(moving, half / _SHRINK[i], half)
        moving = half >= 1e-3  # a finer grid is frozen
        if not moving.any():
            break
    else:
        raise CapacityError("the Laplace integrand has no saddle point")
    sigma = np.array([math.exp(m) for m in mu.tolist()])[:, None]
    dy = 1e-2 / np.sqrt(sigma)
    probe = logg(dy * np.array([0.0, 1.0])).real
    growth, y_cut = sq.shape[1] * d / 4.0 - 1.5, []
    for s, e, (top, side) in zip(sigma.ravel().tolist(), dy.ravel().tolist(),
                                 probe.tolist()):
        # Re log g ~ top - y^2 / (2 w^2) about y = 0, w the saddle width
        if not (math.isfinite(top) and top > side):
            raise CapacityError("the Laplace integrand has no finite peak "
                                f"at its saddle point {s:.6g}")
        y_cut.append(max(_WIDTHS * e / math.sqrt(2.0 * (top - side)),
                         math.sqrt(max(2.0 * growth / s - 1.0, 0.0))))
    top, n = probe[:, :1], _N_FIRST
    h = np.array(y_cut)[:, None] / n
    logs = logg(h * np.arange(n + 1.0)) - top
    # past y_cut the modulus falls at least like e^{-(y - y_cut) r} with
    # r = 2 y_cut (sigma - growth / (1 + y_cut^2)) >= sigma y_cut
    tail = [math.exp(v) / (2.0 * c * (s - growth / (1.0 + c ** 2))) for v, c, s
            in zip(logs[:, -1].real.tolist(), y_cut, sigma.ravel().tolist())]
    terms = np.exp(logs).real
    terms[:, ::n] *= 0.5  # the two end points
    total = np.add.reduce(terms, 1, keepdims=True)
    size = np.add.reduce(np.abs(terms), 1, keepdims=True)
    out, err = np.empty(len(tail)), np.empty(len(tail))
    live, prev = list(range(len(tail))), [math.inf] * len(tail)
    while True:
        keep = []
        for j, (top_j, h_j, total_j, size_j) in enumerate(zip(
                top.ravel().tolist(), h.ravel().tolist(),
                total.ravel().tolist(), size.ravel().tolist())):
            if not total_j > 0.0:
                raise CapacityError("Laplace inversion lost the integral")
            cur = top_j + math.log(h_j * total_j / math.pi)
            diff = abs(math.expm1(cur - prev[j]))
            if diff <= tol or n >= _N_LAST:
                out[live[j]] = cur
                err[live[j]] = diff + tail[j] / (h_j * total_j) + 16.0 \
                    * np.finfo(float).eps * (1 + abs(cur)) * size_j / total_j
            else:
                keep.append(j)
                prev[j] = cur
        if not keep:
            return out, err
        if len(keep) < len(live):
            root_a, lead, sigma, top, h, total, size = (a[keep] for a in (
                root_a, lead, sigma, top, h, total, size))
            live, tail, prev = ([a[j] for j in keep] for a in (live, tail,
                                                                prev))
        terms = np.exp(logg((np.arange(n) + 0.5) * h) - top).real
        total = total + np.add.reduce(terms, 1, keepdims=True)
        size = size + np.add.reduce(np.abs(terms), 1, keepdims=True)
        h, n = h / 2.0, 2 * n


def gap_reduced_integral(ig: SimplexIntegrand, q: QuadratureSpec = None):
    """log of the Delta_k integral of the kernel product, via gap variables.

    Laplace inversion (:func:`_log_gap_laplace`, one row) at any k.  An error
    estimate above the target relative error sets the warning flag but the
    value is returned.
    """
    if q is None:
        q = QuadratureSpec()
    [log_value], [rel] = _log_gap_laplace([ig.sq_norms()], ig.d,
                                          min(q.target_rel_err, 1e-10))
    return LogIntegral(float(log_value), float(rel), "laplace_inversion",
                       warning=bool(rel > q.target_rel_err))


def mass_m(u, d, q: QuadratureSpec = None):
    """Total mass m(u, d) = integral over Delta_2 of p^d_{t-s}(u)."""
    ig = SimplexIntegrand(d, (_target("u", u, d),))
    return gap_reduced_integral(ig, q).value


def mass_m_direct(u, d):
    """Dual evaluation route for m(u, d): raw 2-variable (s, t) quadrature.

    Kept deliberately free of the gap substitution so it can certify
    :func:`mass_m` independently.  Valid for |u| >= 0.01 at d = 4: from
    0.01 to 8 it matches the closed form (2 pi)^{-2} [e^{-a}/a - E_1(a)],
    a = |u|^2/2, to 2e-14, but at |u| = 1e-3 it returns 1.53e4 against
    5.07e4 (after about 150 s), because the adaptive inner integral misses
    the kernel peak of width ~|u|^2 near t = s.
    """
    u = _target("u", u, d)

    def inner(s):
        def f(t):
            return math.exp(float(log_heat_kernel(u, t - s, d)))
        val, _ = quad(f, s, 1.0, limit=200, epsrel=1e-11, epsabs=0.0)
        return val

    val, _ = quad(inner, 0.0, 1.0, limit=200, epsrel=1e-11, epsabs=0.0)
    return val


def mc_simplex_raw(u_list, d, n, seed, eps_shift=0.0):
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
        logh += log_heat_kernel_sq(float(u @ u), gaps[:, j] + eps_shift, d)
    vals = np.exp(logh) / math.factorial(k)
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(n))


def ldp_mass_curve(u_list, d, t_grid, q: QuadratureSpec = None):
    """Curve of (t, -(1/t^2) log integral, rel_err) for targets scaled by t.

    Feeds the asymptotic slope fit; entries of ``t_grid`` must be >= 1.
    The whole curve is one call of :func:`_log_gap_laplace`, one row per t,
    with the values and errors :func:`gap_reduced_integral` gives at
    ``scale_t = t``.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(t_grid < 1.0):
        raise DomainError("t_grid entries must be >= 1")
    if q is None:
        q = QuadratureSpec()
    us = SimplexIntegrand(d, tuple(u_list)).u_list
    # each row is SimplexIntegrand(d, u_list, scale_t=t).sq_norms()
    sq = np.reshape([[float(np.dot(t * u, t * u)) for u in us]
                     for t in t_grid], (t_grid.size, len(us)))
    log_values, rels = _log_gap_laplace(sq, d, min(q.target_rel_err, 1e-10))
    return [(float(t), -float(v) / t ** 2, float(rel))
            for t, v, rel in zip(t_grid, log_values, rels)]


def eta_log_integral(u, d, f_moment, q: QuadratureSpec = None):
    """log of the double integral over Delta_2 of p^d_{t2-t1}(u) M(t2-t1).

    ``f_moment`` maps an array of gap lengths g to M(g), the Gaussian
    moment E[f(beta increment)]; with M == 1 this is the mass m(u, d).  A
    divergent moment gives log_value +inf.  An error estimate above the
    target relative error sets the warning flag.
    """
    if q is None:
        q = QuadratureSpec()
    u = _check_dim("u", u, d)
    sq = float(u @ u)
    if sq == 0.0 and d >= 2:
        raise DomainError("eta mass requires |u|^2 > 0 for d >= 2: u = 0 "
                          "or |u|^2 underflows")
    [log_value], [rel] = _log_eta_1d([sq], d, f_moment,
                                     min(q.target_rel_err, 1e-10))
    return LogIntegral(float(log_value), float(rel), "quadrature",
                       warning=bool(rel > q.target_rel_err))


def eta_mass_integral(u, d, f_moment, q: QuadratureSpec = None):
    """The value of :func:`eta_log_integral`: +inf for a divergent moment,
    a CapacityError where it leaves the double range otherwise."""
    res = eta_log_integral(u, d, f_moment, q)
    return math.inf if res.log_value == math.inf else res.value
