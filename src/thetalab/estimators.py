"""Monte Carlo realizations of the intersection measures and their pairings.

Two independent estimator families are provided for the dual pairing of a
cylinder test functional with the measure theta_{u_1..u_{k-1}}:

* ``pairing_bridge`` integrates the conditional expectation given the
  prescribed increments (in closed form for the catalogue payoffs, else
  sampled exactly by bridge construction) against the product of heat
  kernels over the ordered simplex;
* ``pairing_epsilon`` integrates the Gaussian mollifier p_eps in closed
  form along a ladder of epsilon values, on one draw shared by every rung,
  and extrapolates each sample's rung values to epsilon -> 0.

Agreement of the two routes is the operational content of the measure
representation and is what the acceptance suite checks.
"""

import inspect
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gamma as gamma_fn
from scipy.special import hyp1f1, log_ndtr, ndtr

from .errors import ContractError, DomainError, _check_dim, _target
from .kernels import log_heat_kernel_sq
from .sampler import (bridge_adjust, conditional_law, make_rng, path_at,
                      row_increments, union_times, window_regression)

_CHUNK = 64  # outer nodes per vectorized block, keeps arrays < ~100 MB


@dataclass(frozen=True)
class EstimateWithError:
    value: float
    stderr: float
    n_samples: int
    method: str

    def __post_init__(self):
        if not (np.isfinite(self.value) and np.isfinite(self.stderr)) \
                or self.stderr < 0.0:
            raise ContractError("estimate must be finite with stderr >= 0")

    def agrees_with(self, other, n_sigma=3.0):
        tol = n_sigma * math.hypot(self.stderr, other.stderr)
        return abs(self.value - other.value) <= tol


@dataclass(frozen=True)
class CylinderFunctional:
    """Bounded payoff of finitely many path evaluations.

    ``gaussian_mean(mean, cov)``, when set, is E F(X) in closed form for X
    Gaussian with mean (..., n_eval, d) and, in every coordinate, the
    covariance (..., n_eval, n_eval) across eval times, the leading axes
    broadcasting; the pairing routes then integrate F instead of sampling
    paths.  The catalogue factories set it; a custom payoff has none.
    """

    eval_times: tuple
    payoff: object  # callable, (..., n_eval, dim) -> (...)
    name: str = "custom"
    # (name, array, rows) of the parameter vectors, rows x d entries each
    vectors: tuple = field(default=(), compare=False)
    gaussian_mean: object = field(default=None, compare=False)

    def __post_init__(self):
        ts = tuple(float(t) for t in self.eval_times)
        if not ts or any(not 0.0 <= t <= 1.0 for t in ts):
            raise ContractError("eval_times: need one or more, in [0, 1]")
        object.__setattr__(self, "eval_times", ts)

    def __call__(self, values):
        return self.payoff(values)

    def check(self, d):
        """ContractError naming a parameter vector that does not fit R^d."""
        for name, v, rows in self.vectors:
            _check_dim(name, v, d, ContractError, rows)


@dataclass(frozen=True)
class IncrementFunctional:
    """Payoff F1 of one increment, (..., d) -> (...), for the eta routes,
    with its Gaussian mean in closed form.

    ``increment_mean(mean, var)`` is E F1(mean + sqrt(var) Z), Z standard
    normal in R^d and one ``var`` per row of ``mean``.
    """

    payoff: object
    increment_mean: object

    def __call__(self, values):
        return self.payoff(values)


def _width(width):
    """width^2, once the width is finite and > 0 and its square is too."""
    width = float(width)
    if not (math.isfinite(width) and width > 0.0):
        raise ContractError("width: must be finite and > 0")
    if width * width == 0.0:
        raise ContractError(f"width: {width:g} squared underflows to 0")
    return width * width


def _bump_mean(diff, cov, w2):
    """E exp(-||X||^2 / (2 w2)) for X = diff + N(0, cov) in each coordinate.

    ``diff`` is (..., m, d) and ``cov`` (..., m, m).  Per coordinate it is
    det(I + cov/w2)^{-1/2} exp(-diff^T (cov + w2 I)^{-1} diff / 2), taken
    on the eigenvalues lam >= 0 of cov: every term has one sign, so a
    singular cov (repeated eval times) or a tiny w2 only sends the value
    to its limit.
    """
    d, m = diff.shape[-1], diff.shape[-2]
    if m == 1:  # scalar arithmetic: batched linalg on small blocks is slow
        lam, proj = cov[..., 0, :], diff
    else:
        lam, vec = np.linalg.eigh(cov)
        proj = np.einsum("...nm,...nd->...md", vec, diff)
    lam = np.clip(lam, 0.0, None)  # rounding dips below 0
    with np.errstate(over="ignore"):
        terms = d * np.log1p(lam / w2) \
            + np.sum(proj * proj, axis=-1) / (lam + w2)
    return np.exp(-0.5 * np.sum(terms, axis=-1))


def gaussian_bump(times, center, width=1.0):
    """exp(-||x - center||^2 / (2 width^2)) over the stacked evaluations."""
    center = np.asarray(center, dtype=float).ravel()
    w2 = _width(width)
    m = len(times)

    def payoff(values):
        flat = values.reshape(values.shape[:-2] + (-1,))
        diff = flat - center
        return np.exp(-np.sum(diff * diff, axis=-1) / (2.0 * w2))

    def gaussian_mean(mean, cov):
        return _bump_mean(mean - center.reshape(m, -1), cov, w2)

    return CylinderFunctional(tuple(times), payoff, "gaussian_bump",
                              (("center", center, m),), gaussian_mean)


def gaussian_window(width=1.0):
    """F1(v) = exp(-||v||^2 / (2 width^2)) of an increment v in R^d.

    Its Gaussian mean is (1 + var/width^2)^{-d/2}
    exp(-||mean||^2 / (2 (width^2 + var))).
    """
    w2 = _width(width)

    def payoff(v):
        return np.exp(-np.sum(v * v, axis=-1) / (2.0 * w2))

    def increment_mean(mean, var):
        var = np.asarray(var, dtype=float)
        return _bump_mean(mean[..., None, :], var[..., None, None], w2)

    return IncrementFunctional(payoff, increment_mean)


def _log_ndtr_diff(a, b):
    """log(Phi(b) - Phi(a)) for a <= b, without cancellation in the tails."""
    flip = a > 0.0  # Phi(b) - Phi(a) = Phi(-a) - Phi(-b)
    a, b = np.where(flip, -b, a), np.where(flip, -a, b)
    top = log_ndtr(b)
    return top + np.log1p(-np.exp(log_ndtr(a) - top))


def coordinate_indicator_box(times, lo, hi):
    """Indicator of the path lying in the box [lo, hi] at every eval time."""
    lo = np.asarray(lo, dtype=float).ravel()
    hi = np.asarray(hi, dtype=float).ravel()
    if hi.size != lo.size:
        raise ContractError(f"hi: length {hi.size} does not match lo "
                            f"(length {lo.size})")
    if np.any(hi < lo):
        raise ContractError("hi: degenerate box, hi < lo")

    def payoff(values):
        inside = np.all((values >= lo) & (values <= hi), axis=(-2, -1))
        return inside.astype(float)

    def gaussian_mean(mean, cov):  # one eval time: a product of Phi gaps
        mu, sd = mean[..., 0, :], np.sqrt(cov[..., 0, :1])
        with np.errstate(divide="ignore", invalid="ignore"):
            p = np.exp(_log_ndtr_diff((lo - mu) / sd, (hi - mu) / sd)
                       .sum(axis=-1))
        # a zero variance leaves the point mass at the mean
        return np.where(sd[..., 0] > 0.0, p, payoff(mean))

    return CylinderFunctional(tuple(times), payoff, "indicator_box",
                              (("lo", lo, 1), ("hi", hi, 1)),
                              gaussian_mean if len(times) == 1 else None)


def polynomial_clipped(times, coeffs, clip=10.0):
    """Clipped polynomial of the first coordinate at the first eval time."""
    coeffs = tuple(float(c) for c in coeffs)

    def payoff(values):
        x = values[..., 0, 0]
        return np.clip(np.polyval(coeffs, x), -clip, clip)

    return CylinderFunctional(tuple(times), payoff, "polynomial_clipped")


def constant_one(time=1.0):
    def payoff(values):
        return np.ones(values.shape[:-2])

    def gaussian_mean(mean, cov):
        return np.ones(np.broadcast_shapes(mean.shape[:-2], cov.shape[:-2]))

    return CylinderFunctional((time,), payoff, "one",
                              gaussian_mean=gaussian_mean)


def _one(times=(1.0,)):
    if len(times) != 1:
        raise ContractError("payoff 'one' takes exactly one eval time")
    return constant_one(times[0])


PAYOFF_CATALOGUE = {
    "one": _one,
    "gaussian_bump": gaussian_bump,
    "indicator_box": coordinate_indicator_box,
    "polynomial_clipped": polynomial_clipped,
}


def make_payoff(payoff_id, params=None):
    if payoff_id not in PAYOFF_CATALOGUE:
        raise ContractError(f"unknown payoff id {payoff_id!r}")
    factory = PAYOFF_CATALOGUE[payoff_id]
    params = params or {}
    try:  # names the missing or unknown param
        inspect.signature(factory).bind(**params)
    except TypeError as exc:
        raise ContractError(f"payoff {payoff_id!r}: {exc}") from None
    return factory(**params)


@dataclass(frozen=True)
class WeightFunction:
    """Square-Gaussian-integrable weight f of the 1-d increment.

    Families: "one", "indicator_pos", "abs_power" (param p >= 0),
    "exp_abs" (param a).  Every family satisfies
    integral f^2 e^{-x^2/2} dx < infinity by inspection.
    """

    family: str
    param: float = 0.0

    def __post_init__(self):
        if self.family not in ("one", "indicator_pos", "abs_power",
                               "exp_abs"):
            raise ContractError(f"unknown weight family {self.family!r}")
        if self.family == "abs_power" and self.param < 0.0:
            raise ContractError("abs_power requires p >= 0")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.family == "one":
            return np.ones_like(x)
        if self.family == "indicator_pos":
            return (x > 0.0).astype(float)
        if self.family == "abs_power":
            return np.abs(x) ** self.param
        return np.exp(self.param * np.abs(x))

    def correlated_moment(self, r, u1):
        """g -> E f(beta increment) over a gap g, for beta = r w_1 +
        sqrt(1 - r^2) z given u: mean r u_1 and variance (1 - r^2) g."""
        if not 0.0 < r < 1.0:
            raise DomainError("r: must lie strictly inside (0, 1)")
        return lambda g: self.gaussian_moment((1.0 - r * r) * g, mean=r * u1)

    def gaussian_moment(self, var, mean=0.0):
        """E[f(mean + sqrt(var) Z)], Z standard normal, in closed form.

        |x|^p: c_p var^{p/2} 1F1(-p/2; 1/2; -z) with z = mean^2/(2 var)
        and c_p = 2^{p/2} Gamma((p+1)/2)/sqrt(pi) (Winkelbauer,
        arXiv:1209.4340); past z = 1e8, where var^{p/2} and 1F1 leave the
        doubles first, its series |mean|^p (1 + p(p-1)/(4z) +
        p(p-1)(p-2)(p-3)/(32 z^2)).  e^{a|x|}: over the two half-lines,
        sum_+- e^{+-a mean + a^2 var/2} Phi(+-mean/sqrt(var) + a sqrt(var)),
        with Phi taken in logs.
        """
        var = np.asarray(var, dtype=float)
        if self.family == "one":
            return np.ones_like(var)
        if self.family == "indicator_pos":
            return ndtr(mean / np.sqrt(var))
        if self.family == "abs_power":
            p = self.param
            if mean == 0.0:
                return (2.0 * var) ** (p / 2.0) \
                    * gamma_fn((p + 1.0) / 2.0) / math.sqrt(math.pi)
            z = mean * mean / (2.0 * var)
            with np.errstate(over="ignore", under="ignore",
                             invalid="ignore"):
                near = (2.0 * var) ** (p / 2.0) * hyp1f1(-p / 2.0, 0.5, -z) \
                    * gamma_fn((p + 1.0) / 2.0) / math.sqrt(math.pi)
            t = 1.0 / (4.0 * z)
            far = abs(mean) ** p * (1.0 + p * (p - 1.0) * t
                                    * (1.0 + (p - 2.0) * (p - 3.0) * t / 2.0))
            return np.where(z > 1e8, far, near)
        a, sd = self.param, np.sqrt(var)
        return sum(np.exp(a * m + a * a * var / 2.0
                          + log_ndtr(m / sd + a * sd)) for m in (mean, -mean))


def _warn_small_d(d):
    if d < 4:
        warnings.warn(
            f"d={d} is below the d >= 4 regime of the local-time theory; "
            "results are for debugging against closed forms only",
            stacklevel=3)


def _window(name, pair):
    """A time window (a, b) as an array, once 0 <= a < b <= 1."""
    pair = np.asarray(pair, dtype=float)
    if pair.shape != (2,) or not 0.0 <= pair[0] < pair[1] <= 1.0:
        raise ContractError(f"{name}: need 0 <= a < b <= 1, got {pair}")
    return pair


def _outer_step(n, k, n_inner=1, t_pair=None):
    """Outer points of a pairing estimator, once its sample counts pass.

    Returns (draw, divisor): draw(rng, m) gives m ordered uniform k-tuples
    of [0, 1], or m copies of a fixed ``t_pair``, and the mean of an
    integrand over the points, divided by ``divisor`` (k! or 1), estimates
    its integral over the ordered simplex (or its value at ``t_pair``).
    """
    if n < 2 or n_inner < 1:
        raise ContractError("need n >= 2 outer and n_inner >= 1 inner "
                            f"samples, got n={n}, n_inner={n_inner}")
    if t_pair is None:
        return (lambda rng, m: np.sort(rng.random((m, k)), axis=1),
                math.factorial(k))
    t_pair = _window("t_pair", t_pair)
    return (lambda rng, m: np.tile(t_pair, (m, 1))), 1


def _blockwise(n, size, block, width=()):
    """block(sl) over consecutive slices of range(n) of at most ``size``,
    written into one array of shape (n,) + width."""
    out = np.empty((n,) + width)
    for lo in range(0, n, size):
        out[lo:lo + size] = block(slice(lo, min(lo + size, n)))
    return out


def _estimate(y, divisor, n_samples, method):
    """mean(y) / divisor with the standard error of that mean."""
    return EstimateWithError(
        float(y.mean() / divisor),
        float(y.std(ddof=1) / math.sqrt(y.shape[0]) / divisor),
        n_samples, method)


def _n_samples(integrated, n_outer, n_inner):
    """Paths a route draws: ``n_inner`` per outer point unless the inner
    mean is integrated (or there is none)."""
    return n_outer if integrated else n_outer * n_inner


def _conditional_means(F, t_tuples, u_list, d, n_inner, rng):
    """Inner means E[F | w(t_{j+1}) - w(t_j) = u_j] for each time tuple.

    Given the targets the path at the eval times is Gaussian, with mean
    sum_j share_j u_j and covariance K of :func:`conditional_law`; a payoff
    with ``gaussian_mean`` integrates that law and draws nothing.  Any other
    payoff averages ``n_inner`` paths per tuple, bridge-conditioned on the
    targets, in blocks of _CHUNK tuples.  Returns one inner mean per tuple.
    """
    if F.gaussian_mean is not None:
        shares, cov = conditional_law(F.eval_times, t_tuples)
        return F.gaussian_mean(shares @ np.stack(u_list), cov)

    def block(sl):
        times, pos_eval, pos_t = union_times(t_tuples[sl], F.eval_times)
        incs = row_increments(np.diff(times, axis=1), d, n_inner, rng)
        bridge_adjust(times, incs, pos_t[:, :-1], pos_t[:, 1:], u_list)
        return F(path_at(incs, pos_eval)[0]).mean(axis=1)

    return _blockwise(t_tuples.shape[0], _CHUNK, block)


def _log_kernel_product(t_tuples, u_list, d, eps_shift=0.0):
    """sum_j log p_{g_j + eps_shift}(u_j) per row; an (r, 1) array of
    shifts gives shape (r, rows)."""
    gaps = np.diff(t_tuples, axis=1)
    logp = 0.0
    for j, u in enumerate(u_list):
        logp = logp + log_heat_kernel_sq(float(u @ u), gaps[:, j] + eps_shift,
                                         d)
    return logp


def pairing_bridge(F: CylinderFunctional, u_list, d, n_outer, n_inner,
                   seed):
    """Pairing of F with theta_{u_1..u_{k-1}} via conditioned sampling.

    Outer Monte Carlo over uniform ordered tuples (volume 1/k!), inner
    bridge averaging of the conditional expectation; the outer sample
    variance already carries the inner noise, so the reported stderr
    propagates both stages.
    """
    us = tuple(_target(f"u_list[{i}]", u, d) for i, u in enumerate(u_list))
    F.check(d)
    _warn_small_d(d)
    draw, divisor = _outer_step(n_outer, len(us) + 1, n_inner)
    rng = make_rng(seed, 1)
    t = draw(rng, n_outer)
    h = _conditional_means(F, t, us, d, n_inner, rng)
    y = h * np.exp(_log_kernel_product(t, us, d))
    return _estimate(y, divisor,
                     _n_samples(F.gaussian_mean is not None, n_outer, n_inner),
                     "bridge")


def extrapolation_weights(eps_values):
    """Lagrange weights at 0: sum_r w_r P(eps_r) = P(0) for polynomials P
    of degree below the number of rungs; (1/3, -2, 8/3) on 0.04/0.02/0.01.
    """
    eps = [float(e) for e in eps_values]
    return np.array([math.prod(b / (b - a) for b in eps if b != a)
                     for a in eps])


def _smoothed_rungs(F, us, d, eps_ladder, n, rng):
    """Per-sample pairing values at every rung, shape (n, rungs).

    Given the window increments dw_j ~ N(0, g_j I), the mollifier
    integrates in closed form:

        E[F prod_j p_eps(dw_j - u_j)] = prod_j p_{g_j+eps}(u_j)
                                        E[F | dw_j = Y_j],
        Y_j = g_j/(g_j+eps) u_j + sqrt(g_j eps/(g_j+eps)) xi_j,

    with xi_j standard normal.  Each sample draws its tuple and xi once for
    all rungs.  Given the Y_j the path at the eval times is Gaussian with
    mean sum_j share_j Y_j and covariance K of :func:`conditional_law`, the
    same at every rung; a payoff with ``gaussian_mean`` integrates it, on
    every rung at once.  Any other payoff also draws raw increments once:
    its path at a rung is the zero-target bridge plus that mean.  The values
    are divided by k!, so each rung's column mean is its pairing.
    """
    k = len(us) + 1
    draw, divisor = _outer_step(n, k)
    u = np.stack(us)
    eps = np.asarray(eps_ladder)[:, None]  # (rungs, 1) against the windows

    def block(sl):
        t = draw(rng, sl.stop - sl.start)
        if F.gaussian_mean is None:
            times, pos_eval, pos_t = union_times(t, F.eval_times)
            incs = row_increments(np.diff(times, axis=1), d, 1, rng)
        xi = rng.standard_normal((t.shape[0], k - 1, d))
        g = np.diff(t, axis=1)[:, None, :]
        a = g / (g + eps)  # Y_j = a_j u_j + sqrt(a_j eps) xi_j
        shares, cov = conditional_law(F.eval_times, t)
        sa = shares[:, None] * a[:, :, None]  # (rows, rungs, m, J)
        sb = shares[:, None] * np.sqrt(a * eps)[:, :, None]
        mean = np.tensordot(sa, u, 1) + (sb.reshape(t.shape[0], -1, k - 1)
                                         @ xi).reshape(sa.shape[:-1] + (d,))
        if F.gaussian_mean is not None:
            h = F.gaussian_mean(mean, cov[:, None])
        else:
            bridge_adjust(times, incs, pos_t[:, :-1], pos_t[:, 1:],
                          np.zeros((k - 1, d)))
            h = F(path_at(incs, pos_eval)[0] + mean)
        return h * np.exp(_log_kernel_product(t, us, d, eps).T)

    return _blockwise(n, _CHUNK * 64, block, (len(eps_ladder),)) / divisor


def pairing_epsilon(F: CylinderFunctional, u_list, d, eps_ladder,
                    n_per_eps, seed):
    """Pairing via the epsilon-approximation, extrapolated to eps -> 0.

    All rungs share one draw (:func:`_smoothed_rungs`), so ``n_per_eps``
    is the total sample count.  Each sample's rung values are extrapolated
    with :func:`extrapolation_weights`; the stderr of those values is added
    in quadrature to the change of the extrapolated mean when the coarsest
    rung is dropped (two rungs: against the finest), which covers the
    extrapolation truncation.

    Returns (extrapolated EstimateWithError, per-epsilon ladder of
    (eps, value, stderr) triples).
    """
    us = tuple(_target(f"u_list[{i}]", u, d) for i, u in enumerate(u_list))
    F.check(d)
    _warn_small_d(d)
    eps_ladder = [float(e) for e in eps_ladder]
    if len(eps_ladder) < 2 or min(eps_ladder) <= 0.0 \
            or any(b >= a for a, b in zip(eps_ladder, eps_ladder[1:])):
        raise ContractError("eps_ladder: need two or more positive, "
                            "decreasing rungs")
    vals = _smoothed_rungs(F, us, d, eps_ladder, n_per_eps,
                           make_rng(seed, 100))
    root_n = math.sqrt(n_per_eps)
    means = vals.mean(axis=0)
    ladder = list(zip(eps_ladder, means.tolist(),
                      (vals.std(axis=0, ddof=1) / root_n).tolist()))
    extrapolated = vals @ extrapolation_weights(eps_ladder)
    v0 = float(extrapolated.mean())
    truncation = v0 - means[1:] @ extrapolation_weights(eps_ladder[1:])
    se = math.hypot(extrapolated.std(ddof=1) / root_n, truncation)
    return EstimateWithError(v0, se, n_per_eps, "epsilon"), ladder


def cylinder_mass(eval_times, box_lo, box_hi, u_list, d, n_outer, n_inner,
                  seed):
    """theta mass of the cylinder set {w(t) in [lo, hi] for t in T}.

    The indicator payoff is averaged directly by Monte Carlo; no smooth
    sandwich is needed for an expectation.
    """
    F = coordinate_indicator_box(eval_times, box_lo, box_hi)
    return pairing_bridge(F, u_list, d, n_outer, n_inner, seed)


def eta_pairing_independent(F1, F2, f: WeightFunction, u, d, n_outer,
                            n_inner, seed):
    """Pairing of the weighted measure with F1(w), beta independent.

    F1 (1 when None) by bridge conditioning of w, the weight's factor by its
    closed-form Gaussian moment; ``F2``, a payoff of beta, must be None.
    """
    if F2 is not None:
        raise ContractError("payoffs of beta (F2) are not supported")
    us = (_target("u", u, d),)
    if F1 is not None:
        F1.check(d)
    _warn_small_d(d)
    draw, divisor = _outer_step(n_outer, 2, n_inner)
    rng = make_rng(seed, 2)
    t = draw(rng, n_outer)
    h1 = 1.0 if F1 is None else _conditional_means(F1, t, us, d, n_inner, rng)
    h2 = f.gaussian_moment(t[:, 1] - t[:, 0])
    y = h1 * h2 * np.exp(_log_kernel_product(t, us, d))
    integrated = F1 is None or F1.gaussian_mean is not None
    return _estimate(y, divisor, _n_samples(integrated, n_outer, n_inner),
                     "eta_independent")


def eta_pairing_correlated(F1, F2, f: WeightFunction, u, d, r, s_pair,
                           n_outer, n_inner, seed, t_pair=None):
    """Correlated-noise pairing for beta = r w_1 + sqrt(1-r^2) z.

    F1 is a payoff of the fixed-window increment w(s2) - w(s1); its
    conditional law given w(t2) - w(t1) = u is alpha u + X, the share alpha
    and the variance of the independent centered Gaussian X taken from
    ``window_regression``.  An :class:`IncrementFunctional` F1 (such as
    :func:`gaussian_window`) is integrated over that law; any other callable
    is averaged over ``n_inner`` draws of X.  A fixed ``t_pair`` replaces
    the outer simplex integral by the integrand at that window.
    """
    if F2 is not None:
        raise ContractError("payoffs of beta (F2) are not supported")
    u = _target("u", u, d)
    moment = f.correlated_moment(r, u[0])
    _warn_small_d(d)
    s1, s2 = _window("s_pair", s_pair)
    draw, divisor = _outer_step(n_outer, 2, n_inner, t_pair)
    rng = make_rng(seed, 3)
    t = draw(rng, n_outer)
    alpha, var_x = window_regression(s1, s2, t)  # alpha: (n_outer, 1)

    def block(sl):  # X is the increment over one cell of length var_x
        x = row_increments(var_x[sl, None], d, n_inner, rng)[:, :, 0]
        return F1(alpha[sl, :, None] * u + x).mean(axis=1)

    integrated = F1 is None or isinstance(F1, IncrementFunctional)
    if F1 is None:
        h1 = 1.0
    elif integrated:
        h1 = F1.increment_mean(alpha * u, var_x)
    else:
        h1 = _blockwise(n_outer, _CHUNK, block)
    y = h1 * moment(t[:, 1] - t[:, 0]) \
        * np.exp(_log_kernel_product(t, (u,), d))
    return _estimate(y, divisor, _n_samples(integrated, n_outer, n_inner),
                     "eta_correlated")


def eta_pairing_correlated_direct(F1, F2, f: WeightFunction, u, d, r,
                                  s_pair, eps, n, seed, t_pair=None):
    """Brute-force pre-limit oracle for the correlated pairing at fixed eps.

    Joint Monte Carlo of the smoothed kernel times all factors, with no
    conditioning; used to cross-check :func:`eta_pairing_correlated`.
    """
    if F2 is not None:
        raise ContractError("payoffs of beta (F2) are not supported")
    u = _target("u", u, d)
    f.correlated_moment(r, u[0])  # only checks r: beta is sampled here
    s1, s2 = _window("s_pair", s_pair)
    draw, divisor = _outer_step(n, 2, t_pair=t_pair)
    rng = make_rng(seed, 4)

    def block(sl):
        t = draw(rng, sl.stop - sl.start)
        # d-dimensional path at {s1, s2} union {t1, t2}
        times_w, pos_s, pos_t = union_times(t, (s1, s2))
        at_s, at_t = path_at(
            row_increments(np.diff(times_w, axis=1), d, 1, rng), pos_s, pos_t)
        dws = at_s[:, 0, 1] - at_s[:, 0, 0]
        dwt = at_t[:, 0, 1] - at_t[:, 0, 0]
        # independent 1-d path z on [0, 1], read at {t1, t2}
        times_z, _, pos_tz = union_times(t, (1.0,))
        at_tz, = path_at(
            row_increments(np.diff(times_z, axis=1), 1, 1, rng), pos_tz)
        dz = at_tz[:, 0, 1, 0] - at_tz[:, 0, 0, 0]
        diff = dwt - u
        logw = log_heat_kernel_sq(np.sum(diff * diff, axis=-1), eps, d)
        v = np.exp(logw) * f(r * dwt[:, 0] + math.sqrt(1 - r * r) * dz)
        return v if F1 is None else v * F1(dws)

    return _estimate(_blockwise(n, _CHUNK * 64, block), divisor, n,
                     "eta_correlated_direct")


def eta_mass_scan(f: WeightFunction, d, u_norms):
    """Total masses along a decreasing ||u|| scan plus log-log slope fit.

    All masses come from one vectorised call of the 1-d rule at relative
    tolerance 1e-10; the slope is fitted on their logs.  A mass outside
    the double range, or divergent, raises a CapacityError.
    """
    from .simplexquad import LogIntegral, _log_eta_1d

    u_norms = [float(x) for x in u_norms]
    if any(b >= a for a, b in zip(u_norms, u_norms[1:])):
        raise ContractError("u_norms must be strictly decreasing")
    if u_norms[-1] <= 0.0:
        raise DomainError("u_norms must be positive")
    logs, rels = _log_eta_1d(np.square(u_norms), d, f.gaussian_moment, 1e-10)
    masses = [LogIntegral(float(v), float(e), "quadrature").value
              for v, e in zip(logs, rels)]
    slope = float(np.polyfit(np.log(u_norms), logs, 1)[0])
    return list(zip(u_norms, masses)), slope


def support_check(values, u_list, tol):
    """Search ordered grid indices whose increments match every u_j.

    Greedy depth-first scan with backtracking; returns (found, witness
    indices or None).
    """
    values = np.asarray(values, dtype=float)
    us = [np.atleast_1d(np.asarray(u, dtype=float)) for u in u_list]
    m = values.shape[0]

    def rec(j, i_prev, acc):
        if j == len(us):
            return acc
        target = values[i_prev] + us[j]
        for i in range(i_prev + 1, m):
            if np.linalg.norm(values[i] - target) <= tol:
                hit = rec(j + 1, i, acc + [i])
                if hit is not None:
                    return hit
        return None

    for start in range(m - 1):
        hit = rec(0, start, [start])
        if hit is not None:
            return True, hit
    return False, None
