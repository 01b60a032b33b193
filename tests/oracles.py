"""Reference implementations that the tests check the library against.

Each oracle computes a quantity that a library route also computes, by a
different and more general method; no library route calls them.
"""

import functools
import math

import numpy as np
from scipy.integrate import trapezoid
from scipy.linalg import cho_factor, cho_solve
from scipy.optimize import minimize

from thetalab.errors import (CapacityError, ContractError, DomainError,
                             InfeasibleError)
from thetalab.kernels import log_heat_kernel_sq
from thetalab.sampler import interval_overlap
from thetalab.variational import (PiecewiseLinearPath, _merge_knots,
                                  path_energy)


class GaussianConditioner:
    """Exact conditional laws of increment functionals given increments.

    Constraints are increments w(hi_j) - w(lo_j) = u_j; covariances of
    Brownian increments are interval overlaps, identical per coordinate, so
    the Schur complement is computed once on the scalar overlap matrix.
    It is the oracle of ``sampler.window_regression`` (the shares and
    residual variance that ``eta_pairing_correlated`` and the epsilon
    route use), and of overlapping windows that ``IncrementConstraintSet``
    rejects.
    """

    def __init__(self, intervals, targets):
        self.intervals = np.asarray(intervals, dtype=float).reshape(-1, 2)
        self.targets = np.atleast_2d(np.asarray(targets, dtype=float))
        if len(self.intervals) != self.targets.shape[0]:
            raise ContractError("one target per constraint interval required")
        lo, hi = self.intervals.T
        cov = interval_overlap((lo[:, None], hi[:, None]), (lo, hi))
        eig = np.linalg.eigvalsh(cov)
        if eig.min() <= 1e-12 * max(eig.max(), 1.0):
            raise DomainError(
                f"degenerate constraint covariance {cov}: some constraint "
                "interval is linearly dependent on the others")
        self._factor = cho_factor(cov)
        self.cov = cov

    def condition_increment(self, lo, hi):
        """Conditional (mean vector, per-coordinate variance) of w(hi)-w(lo)."""
        alpha = self.alpha_coefficients(lo, hi)
        var = (hi - lo) - float(alpha @ self.cov @ alpha)
        return alpha @ self.targets, max(var, 0.0)

    def alpha_coefficients(self, lo, hi):
        """Regression weights of the query increment on the constraints."""
        return cho_solve(self._factor,
                         interval_overlap((lo, hi), self.intervals.T))


def slsqp_energy_given_times(chain_times, u_list, boxes, d):
    """Box program at fixed chain times as one generic SLSQP solve.

    The oracle of ``variational._energy_given_times``: the n*d knot values
    are the variables, the targets phi(t_{j+1}) - phi(t_j) = u_j are
    equality constraints with a Kronecker Jacobian and the boxes are bounds,
    with no reduction.  Returns (value, path, mu), mu[j] being SLSQP's
    multiplier of the target u_j (zero for a zero target over a zero-length
    interval), or raises InfeasibleError.
    """
    knots = _merge_knots([0.0, 1.0, *chain_times, *(b.time for b in boxes)])
    n_free = knots.size - 1  # phi(0) = 0 pinned

    def idx_of(t):
        return int(np.abs(knots - float(t)).argmin())

    idx = np.array([idx_of(t) for t in chain_times], dtype=int)
    w = 1.0 / np.diff(knots)
    Q = (np.diag(np.r_[w, 0.0] + np.r_[0.0, w]) - np.diag(w, 1)
         - np.diag(w, -1))[1:, 1:]
    U = np.array(u_list, dtype=float).reshape(-1, d)
    moves = idx[1:] != idx[:-1]
    if np.any(U[~moves] != 0.0):
        raise InfeasibleError("increment over a zero-length interval")
    E = np.eye(knots.size)[:, 1:]
    A = E[idx[1:][moves]] - E[idx[:-1][moves]]
    lo = np.full((knots.size, d), -np.inf)
    hi = np.full((knots.size, d), np.inf)
    for b in boxes:
        i = idx_of(b.time)
        if b.lo is not None:
            lo[i] = np.maximum(lo[i], np.asarray(b.lo, dtype=float))
        if b.hi is not None:
            hi[i] = np.minimum(hi[i], np.asarray(b.hi, dtype=float))
    if np.any(lo > hi) or np.any(lo[0] > 0.0) or np.any(hi[0] < 0.0):
        raise InfeasibleError("empty box, or a box at 0 excludes 0")
    lo, hi, U = lo[1:], hi[1:], U[moves]

    def objective(xflat):
        x = xflat.reshape(n_free, d)
        return 0.5 * float(np.einsum("id,ij,jd->", x, Q, x)), (Q @ x).ravel()

    cons = [{"type": "eq",
             "fun": lambda xf: (A @ xf.reshape(n_free, d) - U).ravel(),
             "jac": lambda xf: np.kron(A, np.eye(d))}]
    res = minimize(objective, np.zeros(n_free * d), jac=True,
                   bounds=list(zip(lo.ravel(), hi.ravel())),
                   constraints=cons, method="SLSQP",
                   options={"maxiter": 400, "ftol": 1e-14})
    x = res.x.reshape(n_free, d)
    residual = max(np.abs(A @ x - U).max(initial=0.0),
                   np.max(lo - x), np.max(x - hi))
    if residual > 1e-8:
        raise InfeasibleError(f"no feasible knot values ({residual:.3g})")
    mu = np.zeros((len(u_list), d))
    # absent when the bounds fix every value
    mu[moves] = res.get("multipliers", np.zeros(U.size)).reshape(U.shape)
    path = PiecewiseLinearPath(knots, np.vstack([np.zeros(d), x]))
    return path_energy(path), path, mu


# The m-gap tensor rule.  Gauss-Legendre nodes per side of the peak on each
# axis, tried in turn while the tensor grid has at most _MAX_NODES nodes,
# evaluated _CHUNK at a time.
_LADDER = (8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256)
_MAX_NODES = 2 ** 21
_CHUNK = 2 ** 13
_CUT = 45.0        # an axis ends where log f is _CUT below its peak
_Y_MARGIN = 60.0   # y = log s is searched down to log(|u|^2/d + eps) - this
_Y_FLOOR = -700.0  # ... and never below this
_gauss_legendre = functools.cache(np.polynomial.legendre.leggauss)


def gap_log_integrand(sq, d, eps, log_moment=None):
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


def _log_sum_exp(a):
    """log sum exp(a) by the max shift; -inf for an all -inf ``a``."""
    top = np.max(a)
    if not np.isfinite(top):
        return float(top)
    return float(top + np.log(np.sum(np.exp(a - top))))


def log_gap_tensor(sq, d, eps, tol, log_moment=None):
    """(log value, relative error) of the gap-simplex integral.

    A tensor Gauss-Legendre rule in y = log s of the stick-breaking cube,
    n nodes per axis on each side of the peak within :func:`_axis_cuts`.
    n grows along _LADDER until two successive values agree to ``tol``;
    the error is their relative difference plus the cut bound plus the
    rounding of the log terms.  A moment infinite at the peak search gives
    +inf.  Each rule is summed over open grids of about _CHUNK nodes (rows
    of the first axis), never over the full grid.

    It is the m-gap oracle of the library's rules: of the Laplace route
    (``simplexquad._log_gap_laplace``) at k <= 4, of the epsilon rungs of
    ``pairing_epsilon`` through the shift, and at one gap with a moment of
    the 1-d rule ``simplexquad._log_eta_1d``.  Known limit: the error is
    under-reported when one |u_j|^2 is 1e4-1e21 times another.  At d = 4,
    |u|^2 = 1.676e5 and 1.676e-16, it gives log I 1.35 below the Laplace
    route's -83794.0818 with an error of 8.7e-10; at d = 3, |u|^2 = 36.41
    and 2.65e-8, it is 4e-7 off with 8e-11.  Keep the targets of a check
    of like size.  Its last rung is also short of integrands flat in y over
    hundreds of units: at d = 2 and |u|^2 = 1e-243 it is 8.6e-6 off the
    closed form with an error of 4.0e-6.
    """
    sq = np.asarray(sq, dtype=float)
    if (2 * _LADDER[0]) ** sq.size > _MAX_NODES:
        raise CapacityError(f"{sq.size} gaps exceed the tensor rule's "
                            f"{_MAX_NODES} nodes")
    with np.errstate(divide="ignore"):
        lo = np.log(sq / d + eps) - _Y_MARGIN
    if d >= 2 and np.any(lo < _Y_FLOOR):
        raise DomainError(
            "increment target too small for the gap quadrature: |u|^2/d + "
            f"eps = {np.min(sq / d + eps):.3g} < e^{_Y_FLOOR + _Y_MARGIN:g}")
    lo = np.maximum(lo, _Y_FLOOR)
    logf = gap_log_integrand(sq, d, eps, log_moment)
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
        cur = _log_sum_exp(np.array([
            _log_sum_exp(logf(np.ix_(nodes[0, r:r + rows], *nodes[1:]))
                         + sum(np.ix_(logw[0, r:r + rows], *logw[1:])))
            for r in range(0, 2 * n, rows)]))
        diff = abs(math.expm1(cur - prev))
        if diff <= tol:
            break
        prev = cur
    return cur, diff + cut_err + 16.0 * np.finfo(float).eps * (1 + abs(cur))
