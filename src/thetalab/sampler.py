"""Brownian paths on per-row time grids: the one path kernel of thetalab.

A batch is a stack of rows, each with its own sorted grid ``times[row]``
from 0 (equal neighbours make zero-length cells), and increments of shape
(rows, n, n_cells, d).  :func:`union_times` builds the grids,
:func:`row_increments` draws raw increments, :func:`bridge_adjust`
conditions per-row windows on prescribed increments exactly (Brownian
bridge) and :func:`path_at` gathers cumulative sums at grid columns;
:func:`window_regression` is the same conditioning in closed form, for
one increment.  The fixed-grid API (:class:`TimeGrid`,
:func:`sample_conditioned_bm`, ...) is the one-row case;
:func:`cameron_martin_weight` applies a Cameron-Martin shift on a fixed
grid with its log weight.  Streams are counter-based Philox keyed by
(seed, stream index), so parallel workers draw non-overlapping
deterministic substreams.  Conditioning windows must be pairwise
disjoint.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DomainError


def make_rng(seed, stream=0):
    """Deterministic Philox generator for (seed, stream index)."""
    return np.random.Generator(
        np.random.Philox(key=[np.uint64(seed) & np.uint64(2**64 - 1),
                              np.uint64(stream)]))


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing times in [0, 1] starting at 0."""

    times: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or t.size < 2:
            raise ContractError("grid needs at least two times")
        if t[0] != 0.0 or t[-1] > 1.0 or np.any(np.diff(t) <= 0.0):
            raise ContractError(
                "times must start at 0, be strictly increasing and end <= 1")
        object.__setattr__(self, "times", t)

    @property
    def dt(self):
        return np.diff(self.times)

    def index_of(self, t):
        i = int(np.searchsorted(self.times, t))
        if i >= self.times.size or self.times[i] != t:
            raise ContractError(f"time {t} is not a grid point")
        return i


@dataclass(frozen=True)
class IncrementConstraintSet:
    """Ordered constraints w(t_hi) - w(t_lo) = u, pairwise non-overlapping.

    Intervals may share endpoints (the consecutive Delta_k case) but must
    not overlap: the bridge correction of :func:`bridge_adjust` is exact
    only for disjoint windows.
    """

    items: tuple  # of (t_lo, t_hi, u)

    def __post_init__(self):
        items = tuple((float(lo), float(hi),
                       np.atleast_1d(np.asarray(u, dtype=float)))
                      for lo, hi, u in self.items)
        items = tuple(sorted(items, key=lambda it: it[0]))
        for lo, hi, _ in items:
            if not lo < hi:
                raise ContractError("constraint interval must have t_lo < t_hi")
        for (_, hi_a, _), (lo_b, _, _) in zip(items, items[1:]):
            if lo_b < hi_a:
                raise ContractError(
                    "overlapping constraint intervals: the bridge "
                    "correction needs disjoint windows")
        object.__setattr__(self, "items", items)

    def endpoints(self):
        out = []
        for lo, hi, _ in self.items:
            out.extend((lo, hi))
        return out


def union_times(t_tuples, eval_times):
    """Sorted union of {0}, eval times and the random tuples, row-wise.

    Returns (times, pos_eval, pos_t): positions of the eval columns and the
    tuple columns inside each sorted row.
    """
    n = t_tuples.shape[0]
    ev = np.asarray(eval_times, dtype=float)
    base = np.concatenate([
        np.zeros((n, 1)),
        np.broadcast_to(ev, (n, ev.size)),
        t_tuples,
    ], axis=1)
    order = np.argsort(base, axis=1, kind="stable")
    times = np.take_along_axis(base, order, axis=1)
    inv = np.argsort(order, axis=1, kind="stable")
    pos_eval = inv[:, 1:1 + ev.size]
    pos_t = inv[:, 1 + ev.size:]
    return times, pos_eval, pos_t


def row_increments(dt, d, n, rng):
    """Raw increments, shape (rows, n, n_cells, d), variance dt[row, cell]."""
    return rng.standard_normal((dt.shape[0], n, dt.shape[1], d)) \
        * np.sqrt(dt)[:, None, :, None]


def bridge_adjust(times, incs, lo, hi, targets):
    """Condition increments in place on w(times[hi_j]) - w(times[lo_j]) = u_j.

    ``lo`` and ``hi`` are (rows, J) grid columns of pairwise non-overlapping
    windows.  Inside window j of length L every cell gets the correction
    (dt/L) * (u_j - S) where S is the raw window sum; this realizes the
    conditional (bridge) law and leaves the cells outside the windows
    untouched.
    """
    dt = np.diff(times, axis=1)
    cells = np.arange(dt.shape[1])
    for j, u in enumerate(targets):
        a, b = lo[:, j:j + 1], hi[:, j:j + 1]
        mask = ((cells >= a) & (cells < b)).astype(float)
        gap = np.take_along_axis(times, b, axis=1) \
            - np.take_along_axis(times, a, axis=1)
        S = np.einsum("rncd,rc->rnd", incs, mask)
        corr = (u - S) / gap[:, None, :]
        incs += mask[:, None, :, None] * dt[:, None, :, None] \
            * corr[:, :, None, :]
    return incs


def _paths_from_increments(incs):
    vals = np.zeros(incs.shape[:-2] + (incs.shape[-2] + 1, incs.shape[-1]))
    np.cumsum(incs, axis=-2, out=vals[..., 1:, :])
    return vals


def path_at(incs, *cols):
    """Path values (w(0) = 0 plus cumulative increments) at grid columns.

    Each ``cols`` array has shape (rows, c); one (rows, n, c, d) array is
    returned per argument.
    """
    paths = _paths_from_increments(incs)
    return tuple(np.take_along_axis(paths, c[:, None, :, None], axis=2)
                 for c in cols)


def sample_bm_increments(grid: TimeGrid, d, n, rng):
    """Raw increments, shape (n, n_cells, d), variance dt per cell."""
    return row_increments(grid.dt[None], d, n, rng)[0]


def sample_conditioned_bm(grid: TimeGrid,
                          constraints: IncrementConstraintSet,
                          d, seed, n=1):
    """Brownian paths conditioned on the prescribed increments.

    Returns (grid, values (n, n_times, d)), the constraint endpoints
    inserted into the grid so the residuals are exact to rounding; the law
    is segment-wise bridge inside each constrained interval and free
    Brownian motion outside (everywhere, for no constraints).
    """
    grid = TimeGrid(np.union1d(grid.times, constraints.endpoints()))
    for _, _, u in constraints.items:
        if u.size != d:
            raise DomainError("constraint target dimension mismatch")
    incs = sample_bm_increments(grid, d, n, make_rng(seed))
    cols = np.array([[grid.index_of(t) for t in constraints.endpoints()]])
    bridge_adjust(grid.times[None], incs[None], cols[:, 0::2], cols[:, 1::2],
                  [u for _, _, u in constraints.items])
    return grid, _paths_from_increments(incs)


def interval_overlap(a, b):
    """Length of the intersection of intervals a = (lo, hi) and b.

    Endpoints may be arrays; the result broadcasts elementwise.
    """
    return np.clip(np.minimum(a[1], b[1]) - np.maximum(a[0], b[0]),
                   0.0, None)


def window_regression(a, b, t):
    """(shares, variance): w(b) - w(a) regressed on the window increments.

    Each row of ``t`` holds ordered times; its windows are consecutive
    pairs, with increments dw_j = w(t_{j+1}) - w(t_j) of length g_j.  Then
    w(b) - w(a) = sum_j share_j dw_j + X with share_j = overlap_j / g_j and
    X independent of the dw_j, centered, of per-coordinate variance
    (b - a) - sum_j overlap_j^2 / g_j.  ``a`` and ``b`` broadcast against
    the rows; shares have one column per window.
    """
    a = np.asarray(a, dtype=float)[..., None]
    b = np.asarray(b, dtype=float)[..., None]
    g = np.diff(t, axis=-1)
    overlap = interval_overlap((a, b), (t[..., :-1], t[..., 1:]))
    var = (b[..., 0] - a[..., 0]) - np.sum(overlap ** 2 / g, axis=-1)
    return overlap / g, np.clip(var, 0.0, None)


def shift_on_grid(grid: TimeGrid, knots, knot_values):
    """Piecewise-linear shift evaluated at the grid times, shape (n, d)."""
    knots = np.asarray(knots, dtype=float)
    knot_values = np.atleast_2d(np.asarray(knot_values, dtype=float))
    out = np.column_stack([
        np.interp(grid.times, knots, knot_values[:, j])
        for j in range(knot_values.shape[1])])
    return out


def cameron_martin_weight(grid: TimeGrid, increments, shift_values):
    """Shifted increments plus log importance weights.

    ``increments`` has shape (n, n_cells, d) and is left unchanged;
    ``shift_values`` is the shift phi at the grid times, (n_times, d).  The
    log-weight W = -sum <dphi, dw>/dt - 0.5 sum ||dphi||^2/dt makes
    E[F(w + phi) e^W] unbiased for E[F(w)] under the Wiener law.
    """
    dphi = np.diff(np.asarray(shift_values, dtype=float), axis=0)
    ratio = dphi / grid.dt[:, None]
    logw = -np.einsum("cd,ncd->n", ratio, increments) \
        - 0.5 * np.sum(ratio * dphi)
    return increments + dphi, logw
