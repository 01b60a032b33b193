"""Schilder energy functional and constrained energy minimization.

The rate functional I(phi) = (1/2) integral ||phi'||^2 is evaluated exactly
on piecewise-linear paths.  ``minimize_energy`` takes one of two routes:

* Increments only.  Between the chain times the minimizer is straight, so
  at fixed times the energy is exactly (1/2) sum ||u_j||^2 / g_j over the
  gaps g_j = t_{j+1} - t_j.  Each maximal run of free times between two
  fixed ones (0 and 1 count as fixed) is a small convex program in its
  gaps, solved once by SLSQP with the analytic gradient.
* With box constraints.  An inner convex quadratic program in the knot
  values (SLSQP over the path Laplacian) and an outer coordinate-descent
  search over the free chain times, with random restarts.

Between active constraints minimizers are linear, so the piecewise-linear
ansatz is exact on both routes.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize, minimize_scalar

from .errors import ContractError, DomainError, InfeasibleError
from .kernels import log_heat_kernel
from .sampler import (TimeGrid, cameron_martin_weight, make_rng,
                      sample_bm_increments, shift_on_grid)

_FEAS_TOL = 1e-8
_MERGE_TOL = 1e-9


@dataclass(frozen=True)
class PiecewiseLinearPath:
    """Knot times (starting at 0) and values (starting at 0) in R^d."""

    knots: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        k = np.asarray(self.knots, dtype=float)
        v = np.atleast_2d(np.asarray(self.values, dtype=float))
        if k[0] != 0.0 or np.any(np.diff(k) <= 0.0) or k[-1] > 1.0:
            raise ContractError("knots must increase strictly from 0 to <= 1")
        if v.shape[0] != k.size:
            raise ContractError("one value row per knot required")
        if np.any(v[0] != 0.0):
            raise ContractError("path must start at 0")
        object.__setattr__(self, "knots", k)
        object.__setattr__(self, "values", v)

    @property
    def d(self):
        return self.values.shape[1]


@dataclass(frozen=True)
class BoxConstraint:
    """phi(time) in [lo, hi] componentwise; None bounds are unbounded."""

    time: float
    lo: object = None
    hi: object = None


@dataclass(frozen=True)
class ConstraintProgram:
    """Consecutive increment targets with free or fixed times, plus boxes.

    ``increments`` is a list of (t_lo, t_hi, u); a None endpoint is a free
    optimization variable.  Free endpoints keep the chain ordering
    t_1 <= ... <= t_k inside [0, 1].
    """

    increments: tuple = ()
    boxes: tuple = ()

    def __post_init__(self):
        incs = tuple((None if lo is None else float(lo),
                      None if hi is None else float(hi),
                      np.atleast_1d(np.asarray(u, dtype=float)))
                     for lo, hi, u in self.increments)
        if len({u.size for _, _, u in incs}) > 1:
            raise ContractError("increment targets must share one dimension")
        object.__setattr__(self, "increments", incs)
        object.__setattr__(self, "boxes", tuple(self.boxes))

    @property
    def u_list(self):
        return [u for _, _, u in self.increments]


def path_energy(path: PiecewiseLinearPath):
    """(1/2) sum ||dphi||^2/dt; exact for piecewise-linear paths."""
    dt = np.diff(path.knots)
    dv = np.diff(path.values, axis=0)
    return 0.5 * float(np.sum(dv * dv / dt[:, None]))


def closed_form_inf(u_list):
    """Unconstrained infimum of the energy over the increment set.

    Equals half the squared sum of the target norms; the chain of
    Cauchy-Schwarz inequalities is saturated by a piecewise-linear path
    traversing the targets with time allocated proportionally to ||u_j||.
    """
    total = sum(float(np.linalg.norm(np.asarray(u, dtype=float)))
                for u in u_list)
    return 0.5 * total ** 2


def _merge_knots(times):
    """Sorted distinct knots, each closer than _MERGE_TOL to the previous
    one dropped: a collapsing cell makes the quadratic form singular."""
    merged = []
    for t in sorted(float(t) for t in times):
        if not merged or t - merged[-1] > _MERGE_TOL:
            merged.append(t)
    return np.array(merged)


def _run_gaps(a, length):
    """Gaps g >= 0 summing to ``length`` that minimise (1/2) sum a_j / g_j.

    A zero weight gets a zero gap, unless every weight is zero (the value is
    then 0 for any split and the gaps are equal).  Positive weights share
    the length by one SLSQP solve from equal gaps on the unit simplex.
    Returns (gaps, iterations, converged).
    """
    g = np.zeros(a.size)
    pos = a > 0.0
    n = int(pos.sum())
    if n == 0:
        g[:] = length / a.size
        return g, 0, True
    if n == 1:
        g[pos] = length
        return g, 0, True
    w = a[pos] / a[pos].max()

    def objective(x):
        return 0.5 * float(np.sum(w / x)), -0.5 * w / x ** 2

    res = minimize(objective, np.full(n, 1.0 / n), jac=True, method="SLSQP",
                   bounds=[(1e-12, 1.0)] * n,
                   constraints=[{"type": "eq",
                                 "fun": lambda x: x.sum() - 1.0,
                                 "jac": lambda x: np.ones((1, n))}],
                   options={"maxiter": 400, "ftol": 1e-16})
    g[pos] = length * res.x / res.x.sum()
    return g, int(res.nit), bool(res.success)


def _minimize_increments(slots, u_list, extra_knots):
    """Minimal energy of an increments-only program, solved in its gaps.

    The chain is 0, t_1, ..., t_k, 1 with weight ||u_j||^2 on the gap
    (t_j, t_{j+1}) and weight 0 on the two outer gaps, where the minimizer
    is flat.  Each run of free times between fixed ones is solved alone.
    """
    times = [0.0, *slots, 1.0]
    weights = np.array([0.0, *(float(u @ u) for u in u_list), 0.0])
    chain = np.array([np.nan if t is None else t for t in times])
    anchors = [i for i, t in enumerate(times) if t is not None]
    iterations, converged = 0, True
    for lo, hi in zip(anchors, anchors[1:]):
        length = chain[hi] - chain[lo]
        if length < 0.0:
            raise InfeasibleError("fixed chain times decrease",
                                  certificate=(chain[lo], chain[hi]))
        if hi - lo > 1:
            g, nit, ok = _run_gaps(weights[lo:hi], length)
            chain[lo + 1:hi] = chain[lo] + np.cumsum(g)[:-1]
            iterations += nit
            converged = converged and ok
    gaps = np.diff(chain)
    pos = weights > 0.0
    short = pos & (gaps <= _MERGE_TOL)
    if short.any():
        j = int(short.argmax())
        raise InfeasibleError(
            "increment constrained over a zero-length interval",
            certificate=(j - 1, u_list[j - 1]))
    value = 0.5 * float(np.sum(weights[pos] / gaps[pos]))
    # knot values: 0 up to t_1, then the partial sums of the targets
    d = u_list[0].size
    chain_values = np.cumsum(
        np.vstack([np.zeros((2, d)), *u_list, np.zeros((1, d))]), axis=0)
    knots = _merge_knots([*chain, *extra_knots])
    values = np.column_stack([np.interp(knots, chain, col)
                              for col in chain_values.T])
    return (PiecewiseLinearPath(knots, values), value,
            {"outer_iterations": iterations, "converged": converged})


def _energy_given_times(chain_times, u_list, boxes, d, extra_knots=()):
    """Inner minimization over knot values at fixed chain times, with boxes.

    A convex QP in the knot values, solved by SLSQP.  Returns
    (value, knots, values) or raises InfeasibleError.
    """
    knots = _merge_knots([0.0, 1.0, *chain_times,
                          *(b.time for b in boxes), *extra_knots])
    n_free = knots.size - 1  # phi(0) = 0 pinned

    def idx_of(t):
        return int(np.abs(knots - float(t)).argmin())

    chain_idx = [idx_of(t) for t in chain_times]

    # quadratic form on free values: E = 0.5 x^T Q x (per coordinate)
    dt = np.diff(knots)
    m = knots.size
    L = np.zeros((m, m))
    for c in range(m - 1):
        w = 1.0 / dt[c]
        L[c, c] += w
        L[c + 1, c + 1] += w
        L[c, c + 1] -= w
        L[c + 1, c] -= w
    Q = L[1:, 1:]

    # equality constraints: phi(t_{j+1}) - phi(t_j) = u_j
    n_eq = len(u_list)
    A = np.zeros((n_eq, n_free))
    U = np.zeros((n_eq, d))
    for j, u in enumerate(u_list):
        i_lo, i_hi = chain_idx[j], chain_idx[j + 1]
        if i_hi == i_lo:
            raise InfeasibleError(
                "increment constrained over a zero-length interval",
                certificate=(i_lo, u))
        if i_lo > 0:
            A[j, i_lo - 1] -= 1.0
        A[j, i_hi - 1] += 1.0
        U[j] = u

    lo = np.full((n_free, d), -np.inf)
    hi = np.full((n_free, d), np.inf)
    for b in boxes:
        i = idx_of(b.time)
        if i == 0:
            # phi(0) = 0 is pinned; a box there either holds or is infeasible
            blo = -np.inf if b.lo is None else np.max(np.asarray(b.lo))
            bhi = np.inf if b.hi is None else np.min(np.asarray(b.hi))
            if blo > 0.0 or bhi < 0.0:
                raise InfeasibleError("box at time 0 excludes the origin",
                                      certificate=(0.0, b))
            continue
        if b.lo is not None:
            lo[i - 1] = np.maximum(lo[i - 1], np.asarray(b.lo, dtype=float))
        if b.hi is not None:
            hi[i - 1] = np.minimum(hi[i - 1], np.asarray(b.hi, dtype=float))
    if np.any(lo > hi):
        raise InfeasibleError("empty box constraint",
                              certificate=(lo, hi))

    def objective(xflat):
        x = xflat.reshape(n_free, d)
        val = 0.5 * float(np.einsum("id,ij,jd->", x, Q, x))
        grad = (Q @ x).ravel()
        return val, grad

    x0 = np.linspace(0.0, 1.0, n_free)[:, None] * np.zeros((1, d))
    cons = [{"type": "eq",
             "fun": lambda xf: (A @ xf.reshape(n_free, d)
                                - U).ravel(),
             "jac": lambda xf: np.kron(A, np.eye(d))}]
    bounds = list(zip(lo.ravel(), hi.ravel()))
    res = minimize(objective, x0.ravel(), jac=True, bounds=bounds,
                   constraints=cons, method="SLSQP",
                   options={"maxiter": 400, "ftol": 1e-14})
    x = res.x.reshape(n_free, d)
    eq_res = np.abs(A @ x - U).max() if n_eq else 0.0
    box_res = max(np.clip(lo - x, 0.0, None).max(),
                  np.clip(x - hi, 0.0, None).max())
    if eq_res > _FEAS_TOL or box_res > _FEAS_TOL:
        j = int(np.abs(A @ x - U).max(axis=1).argmax()) if n_eq else -1
        raise InfeasibleError(
            f"no feasible knot values (residual {max(eq_res, box_res):.3g})",
            certificate=("increment", j) if eq_res >= box_res
            else ("box", float(box_res)))
    vals = np.vstack([np.zeros(d), x])
    value = 0.5 * float(np.einsum("id,ij,jd->", x, Q, x))
    return value, knots, vals


def _chain_time_slots(prog: ConstraintProgram):
    """Chain times t_1..t_k with a fixed/free flag per slot."""
    slots = []
    for j, (lo, hi, _) in enumerate(prog.increments):
        if j == 0:
            slots.append(lo)
        else:
            prev_hi = prog.increments[j - 1][1]
            if prev_hi is not None and lo is not None and prev_hi != lo:
                raise ContractError(
                    "increment chain must share consecutive endpoints")
            slots.append(prev_hi if prev_hi is not None else lo)
    if prog.increments:
        slots.append(prog.increments[-1][1])
    return slots


def minimize_energy(prog: ConstraintProgram, n_extra_knots=0, tol=1e-8,
                    n_restarts=5, seed=0, max_sweeps=200):
    """Minimal energy over paths meeting the program's constraints.

    Programs without boxes are solved in their gap variables: a free t_1
    goes to 0, a free t_k to 1, and each run of free chain times between
    fixed ones is one SLSQP solve with the analytic gradient; the value is
    (1/2) sum ||u_j||^2 / g_j at the solved times.  Programs with boxes
    solve a convex QP in the knot values at fixed chain times and search
    the free times by coordinate descent with a bounded line search, a
    simplex polish and ``n_restarts`` random starts drawn from ``seed``;
    ``tol``, ``n_restarts``, ``seed`` and ``max_sweeps`` act only there.
    ``n_extra_knots`` evenly spaced knots are added to the returned path.
    Returns (PiecewiseLinearPath, value, diagnostics) where diagnostics
    holds ``outer_iterations`` (SLSQP iterations, or coordinate-descent
    sweeps with boxes) and ``converged``.
    """
    slots = _chain_time_slots(prog)
    u_list = prog.u_list
    extra = tuple(np.linspace(0.0, 1.0, n_extra_knots + 2)[1:-1]) \
        if n_extra_knots else ()
    if not prog.boxes:
        if not u_list:
            raise ContractError("cannot infer dimension from an empty program")
        return _minimize_increments(slots, u_list, extra)
    free = [i for i, s in enumerate(slots) if s is None]
    rng = make_rng(seed, 7)

    def inner(times_vec):
        chain = list(slots)
        for i, v in zip(free, times_vec):
            chain[i] = float(v)
        chain_arr = np.asarray(chain, dtype=float)
        if np.any(np.diff(chain_arr) < -1e-12) or np.any(chain_arr < 0) \
                or np.any(chain_arr > 1):
            return math.inf, None, None
        # collapse near-equal times to avoid singular cells
        chain_arr = np.clip(chain_arr, 0.0, 1.0)
        try:
            return _energy_given_times(chain_arr, u_list, prog.boxes,
                                       u_list[0].size if u_list else
                                       _prog_dim(prog), extra_knots=extra)
        except InfeasibleError:
            return math.inf, None, None

    if not free:
        val, knots, vals = _energy_given_times(
            [s for s in slots], u_list, prog.boxes,
            u_list[0].size if u_list else _prog_dim(prog), extra_knots=extra)
        return (PiecewiseLinearPath(knots, vals), val,
                {"outer_iterations": 0, "converged": True})

    best = (math.inf, None)
    n_sweep_total = 0
    for restart in range(max(1, n_restarts)):
        if restart == 0:
            x = np.sort(np.linspace(0.0, 1.0, len(free) + 2)[1:-1])
        else:
            x = np.sort(rng.random(len(free)))
        fx = inner(x)[0]
        for sweep in range(max_sweeps):
            improved = 0.0
            for i in range(len(free)):
                lo = x[i - 1] if i > 0 else 0.0
                hi = x[i + 1] if i + 1 < len(free) else 1.0

                def along(v):
                    y = x.copy()
                    y[i] = v
                    return inner(y)[0]

                res = minimize_scalar(along, bounds=(lo, hi),
                                      method="bounded",
                                      options={"xatol": 1e-10})
                if res.fun < fx:
                    improved += fx - res.fun
                    fx = res.fun
                    x[i] = res.x
            n_sweep_total += 1
            if improved < tol * 1e-3:
                break
        # simplex polish over all free times at once
        res = minimize(lambda y: inner(np.sort(y))[0], x,
                       method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": tol * 1e-4,
                                "maxiter": 2000})
        if res.fun < fx:
            fx, x = res.fun, np.sort(res.x)
        if fx < best[0]:
            best = (fx, x.copy())

    if not math.isfinite(best[0]):
        raise InfeasibleError("no feasible chain times found",
                              certificate=tuple(slots))
    val, knots, vals = inner(best[1])
    converged = n_sweep_total < max_sweeps * max(1, n_restarts)
    return (PiecewiseLinearPath(knots, vals), val,
            {"outer_iterations": n_sweep_total, "converged": converged})


def _prog_dim(prog: ConstraintProgram):
    for b in prog.boxes:
        for side in (b.lo, b.hi):
            if side is not None:
                return np.atleast_1d(np.asarray(side, dtype=float)).size
    raise ContractError("cannot infer dimension from an empty program")


def ldp_slope_fit(curve):
    """Limit of -(1/t^2) log-mass curves via the model L + b/t^2 + c/t^4.

    Residuals are weighted by t^4: the neglected model error (a log t term
    from the Gaussian prefactors) shrinks like log(t)/t^2, so the
    asymptotic points carry the information about L.  Returns
    (L, diagnostics) with per-point residuals.
    """
    pts = [(float(t), float(y)) for t, y, *_ in curve]
    if len(pts) < 3:
        raise ContractError("slope fit needs at least three points")
    t = np.array([p[0] for p in pts])
    if np.any(np.diff(t) <= 0.0):
        raise ContractError("curve times must be increasing")
    y = np.array([p[1] for p in pts])
    A = np.column_stack([np.ones_like(t), t ** -2.0, t ** -4.0])
    w = t ** 4.0
    coef, res, rank, _ = np.linalg.lstsq(A * w[:, None], y * w, rcond=None)
    if rank < 3:
        raise ContractError("degenerate fit matrix")
    fitted = A @ coef
    return float(coef[0]), {
        "coefficients": coef.tolist(),
        "residuals": (y - fitted).tolist(),
        "max_residual": float(np.abs(y - fitted).max()),
    }


def halfspace_set(a, coord=0):
    """Description of {omega : omega(1)_coord >= a}."""
    return {"type": "halfspace", "a": float(a), "coord": int(coord)}


def box_at_one_set(lo, hi):
    """Description of {omega : omega(1) in [lo, hi]}."""
    return {"type": "box_at_one", "lo": list(lo), "hi": list(hi)}


def _set_membership(values_at_one, set_spec, t):
    kind = set_spec["type"]
    if kind == "full":
        return np.ones(values_at_one.shape[0], dtype=bool)
    if kind == "halfspace":
        return values_at_one[:, set_spec["coord"]] >= t * set_spec["a"]
    if kind == "box_at_one":
        lo = t * np.asarray(set_spec["lo"], dtype=float)
        hi = t * np.asarray(set_spec["hi"], dtype=float)
        return np.all((values_at_one >= lo) & (values_at_one <= hi), axis=1)
    raise ContractError(f"unknown set type {set_spec['type']!r}")


def _set_minimizer(set_spec, d):
    """Energy minimizer of the unscaled set, as a piecewise-linear shift."""
    kind = set_spec["type"]
    if kind in ("full",):
        return PiecewiseLinearPath(np.array([0.0, 1.0]), np.zeros((2, d)))
    if kind == "halfspace":
        lo = np.full(d, -np.inf)
        lo[set_spec["coord"]] = set_spec["a"]
        prog = ConstraintProgram(boxes=(BoxConstraint(1.0, lo=lo),))
    elif kind == "box_at_one":
        prog = ConstraintProgram(boxes=(
            BoxConstraint(1.0, lo=set_spec["lo"], hi=set_spec["hi"]),))
    else:
        raise ContractError(f"unknown set type {kind!r}")
    path, _, _ = minimize_energy(prog)
    return path


def schilder_empirical_slope(set_spec, d, t_grid, n_samples, seed,
                             ess_threshold=200.0):
    """Curve of -(1/t^2) log mu(t * set) by Cameron-Martin tilting.

    The tilt is t times the set's energy minimizer, so the shifted cloud
    straddles the rare region; the effective sample size of the
    contributing weights is reported per point and a low value raises the
    warning flag.  Paths are drawn on the minimizer's own knots (plus
    t = 1): the shift is linear between knots, so the Cameron-Martin
    weight and w(1) depend only on the knot-interval increments.
    """
    minimizer = _set_minimizer(set_spec, d)
    grid = TimeGrid(minimizer.knots).with_times([1.0])
    rows = []
    warning = False
    for i, t in enumerate(np.asarray(t_grid, dtype=float)):
        rng = make_rng(seed, 200 + i)
        incs = sample_bm_increments(grid, d, n_samples, rng)
        phi = t * shift_on_grid(grid, minimizer.knots, minimizer.values)
        shifted, logw = cameron_martin_weight(grid, incs, phi)
        end = shifted.sum(axis=1)  # w(1) + phi(1)
        member = _set_membership(end, set_spec, t)
        if not member.any():
            rows.append((float(t), math.inf, 0.0, 0.0))
            warning = True
            continue
        lw = logw[member]
        shift = lw.max()
        wts = np.exp(lw - shift)
        p_hat = wts.sum() / n_samples * math.exp(shift)
        ess = wts.sum() ** 2 / (wts ** 2).sum()
        se_rel = float(np.sqrt(
            np.var(np.where(member, np.exp(logw - shift), 0.0), ddof=1)
            / n_samples) * math.exp(shift) / p_hat)
        if ess < ess_threshold:
            warning = True
        if p_hat >= 1.0 or set_spec["type"] == "full":
            rows.append((float(t), 0.0, 0.0, float(ess)))
            continue
        rows.append((float(t), -math.log(p_hat) / t ** 2,
                     se_rel / t ** 2, float(ess)))
    return rows, warning
