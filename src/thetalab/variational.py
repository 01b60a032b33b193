"""Schilder energy functional and constrained energy minimization.

The rate functional I(phi) = (1/2) integral ||phi'||^2 is evaluated exactly
on piecewise-linear paths.  ``minimize_energy`` takes one of two routes:

* Increments only, in closed form.  Between the chain times the minimizer
  is straight, so at fixed times the energy is exactly
  (1/2) sum ||u_j||^2 / g_j over the gaps g_j = t_{j+1} - t_j.  On each
  maximal run of free times between two fixed ones (0 and 1 count as
  fixed) Cauchy-Schwarz gives the minimizing gaps, proportional to ||u_j||.
* With box constraints.  An inner convex QP in the knot values at fixed
  times: the chain knots share one variable per coordinate, and each
  coordinate is a bounded least-squares problem solved exactly (BVLS).
  With the order of the free chain times among the box times fixed, its
  value is convex in the times (a perspective function): each order is
  one SLSQP solve over the times, and the best order wins.

Between active constraints minimizers are linear, so the piecewise-linear
ansatz is exact on both routes.
"""

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement, product

import numpy as np
from scipy.optimize import lsq_linear, minimize

from .errors import ContractError, InfeasibleError, _check_dim
from .sampler import (TimeGrid, cameron_martin_weight, make_rng,
                      sample_bm_increments)

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
    """phi(time) in [lo, hi] componentwise; a None side or entry is
    unbounded."""

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
                      np.asarray(u, dtype=float).ravel())
                     for lo, hi, u in self.increments)
        object.__setattr__(self, "increments", incs)
        object.__setattr__(self, "boxes", tuple(self.boxes))
        if not self._vectors():
            raise ContractError("increments: program needs increments or "
                                "boxes")
        self.check(self.d)

    def _vectors(self):
        """(name, vector) of each target and box side; the first gives d."""
        return [(f"increments[{i}]", u)
                for i, (_, _, u) in enumerate(self.increments)] \
            + [(f"boxes[{i}].{name}", side) for i, b in enumerate(self.boxes)
               for name, side in (("lo", b.lo), ("hi", b.hi))
               if side is not None]

    def check(self, d):
        """ContractError naming a target or box side not in R^d."""
        for name, v in self._vectors():
            _check_dim(name, v, d, ContractError)

    @property
    def d(self):
        return np.size(self._vectors()[0][1])


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


def _minimize_increments(slots, u_list, extra_knots):
    """Minimal energy of an increments-only program, in closed form.

    The chain is 0, t_1, ..., t_k, 1 with weight ||u_j||^2 on the gap
    (t_j, t_{j+1}) and weight 0 on the two outer gaps, where the minimizer
    is flat.  Each run of free times between fixed ones is solved alone:
    by Cauchy-Schwarz, (sum ||u_j||)^2 <= sum g_j * sum ||u_j||^2 / g_j,
    with equality at gaps g proportional to ||u||, so a zero target takes
    no time.  A run of zero targets has value 0 for any split; its gaps
    are equal.
    """
    times = [0.0, *slots, 1.0]
    weights = np.array([0.0, *(float(u @ u) for u in u_list), 0.0])
    chain = np.array([np.nan if t is None else t for t in times])
    anchors = [i for i, t in enumerate(times) if t is not None]
    for lo, hi in zip(anchors, anchors[1:]):
        length = chain[hi] - chain[lo]
        if length < 0.0:
            raise InfeasibleError("fixed chain times decrease",
                                  certificate=(chain[lo], chain[hi]))
        if hi - lo > 1:
            r = np.sqrt(weights[lo:hi])
            g = r / r.sum() if r.sum() > 0.0 else np.full(r.size, 1 / r.size)
            chain[lo + 1:hi] = chain[lo] + length * np.cumsum(g)[:-1]
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
            {"outer_iterations": 0, "converged": True})


def _energy_given_times(chain_times, u_list, boxes, d, extra_knots=()):
    """Inner minimization over knot values at fixed chain times, with boxes.

    The chain knots move together, phi(t_j) = phi(t_1) + S_j with S_j the
    partial target sums, so phi(t_1) is one variable per coordinate, boxed
    by the intersection of the chain boxes shifted by -S_j; it is pinned to
    0 when t_1 = 0 and absent without increments.  Every other knot after 0
    is a variable with its own box.  The energy separates by coordinate
    into (1/2) |B z - r|^2 under simple bounds, one design B for all
    coordinates, and each coordinate is solved exactly by bounded-variable
    least squares (BVLS).  Returns (value, path, mu) or raises
    InfeasibleError; mu[j] is the KKT multiplier of the target u_j in
    Q x = A^T mu + nu (Q the path Laplacian, A the target rows, nu the box
    multipliers), zero for a zero target over a zero-length interval, which
    holds and is dropped.
    """
    knots = _merge_knots([0.0, 1.0, *chain_times,
                          *(b.time for b in boxes), *extra_knots])

    def idx_of(t):
        return int(np.abs(knots - float(t)).argmin())

    idx = np.array([idx_of(t) for t in chain_times], dtype=int)
    if np.any(np.diff(idx) < 0):
        raise InfeasibleError("fixed chain times decrease",
                              certificate=tuple(chain_times))
    U = np.array(u_list, dtype=float).reshape(-1, d)
    moves = idx[1:] != idx[:-1]
    if np.any(U[~moves] != 0.0):
        raise InfeasibleError("increment constrained over a zero-length "
                              "interval", certificate=np.flatnonzero(~moves))

    lo = np.full((knots.size, d), -np.inf)
    hi = np.full((knots.size, d), np.inf)
    for b in boxes:
        i = idx_of(b.time)
        # NaN, as a None side or entry becomes, leaves the bound alone
        lo[i] = np.fmax(lo[i], np.asarray(b.lo, dtype=float))
        hi[i] = np.fmin(hi[i], np.asarray(b.hi, dtype=float))
    # phi(0) = 0 is pinned: a box there holds or excludes the origin
    if np.any(lo > hi) or np.any(lo[0] > 0.0) or np.any(hi[0] < 0.0):
        raise InfeasibleError("empty box constraint, or a box at time 0 "
                              "excludes the origin", certificate=(lo, hi))
    lo[0] = hi[0] = 0.0
    # the knot values are feasible iff some phi(t_1) meets every chain box
    S = np.cumsum([np.zeros(d), *U], axis=0)
    chain_lo = np.max(lo[idx] - S, axis=0, initial=-np.inf)
    chain_hi = np.min(hi[idx] - S, axis=0, initial=np.inf)
    gap = chain_lo - chain_hi
    if np.any(gap > _FEAS_TOL):
        raise InfeasibleError("no feasible knot values",
                              certificate=float(gap.max()))

    # knot values x = M z + offset over the variables z
    own = np.ones(knots.size, dtype=bool)
    own[0] = False
    own[idx] = False
    M = np.eye(knots.size)[:, own]
    z_lo, z_hi = lo[own], hi[own]
    offset = np.zeros((knots.size, d))
    offset[idx] = S
    if idx.size and idx[0] > 0:  # phi(t_1), unless t_1 = 0 pins it
        M = np.column_stack([np.isin(np.arange(knots.size), idx), M])
        z_lo = np.vstack([chain_lo, z_lo])
        z_hi = np.vstack([chain_hi, z_hi])
    scale = 1.0 / np.sqrt(np.diff(knots))[:, None]
    B = scale * np.diff(M, axis=0)
    r = -scale * np.diff(offset, axis=0)
    # a variable whose box is a point (or, for phi(t_1), empty within
    # _FEAS_TOL) sits at its lower bound
    z = np.where(z_lo >= z_hi, z_lo, 0.0)
    for c in range(d):
        free = z_lo[:, c] < z_hi[:, c]
        if free.any():
            z[free, c] = lsq_linear(
                B[:, free], r[:, c] - B[:, ~free] @ z[~free, c],
                bounds=(z_lo[free, c], z_hi[free, c]), method="bvls").x
    x = M @ z + offset
    residual = max(np.abs(np.diff(x[idx], axis=0) - U).max(initial=0.0),
                   np.max(lo - x), np.max(x - hi))
    if residual > _FEAS_TOL:
        raise InfeasibleError(f"no feasible knot values (residual "
                              f"{residual:.3g})", certificate=residual)
    path = PiecewiseLinearPath(knots, x)
    # stationarity at chain knot c, once per knot: g_c = (Q x)_c is the
    # velocity left of c minus right of c, and g_c = mu_in - mu_out + nu_c.
    # The chain boxes' multipliers sum to the derivative in phi(t_1),
    # sum_c g_c, carried by the chain box that binds; when t_1 = 0 that is
    # the first, phi(0) = 0.
    v = np.diff(x, axis=0) * scale ** 2
    g = np.vstack([np.zeros(d), v]) - np.vstack([v, np.zeros(d)])
    g = np.where(np.r_[True, moves][:, None], g[idx], 0.0)
    nu = np.zeros_like(g)
    if idx.size:
        total = g.sum(axis=0)
        b = np.where(total > 0.0, np.argmax(lo[idx] - S, axis=0),
                     np.argmin(hi[idx] - S, axis=0))
        nu[b, np.arange(d)] = total
    mu = np.cumsum(nu - g, axis=0)[:-1] * moves[:, None]
    # summed per cell, not as x^T Q x, whose large entries from a short
    # cell lose digits to cancellation
    return path_energy(path), path, mu


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


def _orders(slots, boxes):
    """Every order of the free chain times among the box times.

    A run of free slots between fixed chain times (0 and 1 count as fixed)
    is cut into closed cells by the box times inside it.  Yields one cell
    (lo, hi) per free slot, never decreasing along a run; nothing when the
    fixed times decrease.
    """
    times = [0.0, *slots, 1.0]
    anchors = [i for i, t in enumerate(times) if t is not None]
    box_times = sorted({float(b.time) for b in boxes})
    runs = []
    for lo, hi in zip(anchors, anchors[1:]):
        a, b = times[lo], times[hi]
        if b < a:
            return
        edges = [a, *(t for t in box_times if a < t < b), b]
        cells = [(x, y) for x, y in zip(edges, edges[1:]) if y > x]
        runs.append(combinations_with_replacement(cells, hi - lo - 1))
    for parts in product(*runs):
        yield sum(parts, ())


def _solve_order(cells, slots, u_list, boxes, d, extra):
    """One convex SLSQP solve over the free chain times, slot i in cells[i].

    With the order fixed, the inner value V(t) is convex: the energy is a
    perspective function, and minimising out the knot values keeps it so.
    By the envelope theorem dV/dt_i = (|v_right|^2 - |v_left|^2) / 2, v the
    inner minimiser's velocity next to t_i.  A cell opening at a cell edge
    takes the chain knot's own velocity, from its stationarity v_left -
    v_right = mu_{i-1} - mu_i; one opening between chain times on one knot
    (a zero target) has none.  Returns (result, chain times at its x); the
    value is infinite when the order is infeasible.
    """
    free = [i for i, t in enumerate(slots) if t is None]
    # inside the cells, increasing where slots share one
    x0 = [lo + (hi - lo) * (n + 1) / (len(free) + 1)
          for n, (lo, hi) in enumerate(cells)]

    def place(x):
        # SLSQP may step a free time below its predecessor: raise it
        chain = np.array(slots, dtype=float)
        chain[free] = x
        return np.maximum.accumulate(chain)

    def energy(x):
        chain = place(x)
        try:
            val, path, mu = _energy_given_times(chain, u_list, boxes, d,
                                                extra_knots=extra)
        except InfeasibleError:
            return math.inf, np.zeros(x.size)
        # v[k] and v[k + 1] are the velocities left and right of knot k;
        # mu[i] ends at chain slot i and mu[i + 1] starts there
        v = np.vstack([np.zeros(d), np.diff(path.values, axis=0)
                       / np.diff(path.knots)[:, None], np.zeros(d)])
        mu = np.vstack([np.zeros(d), mu, np.zeros(d)])
        k = np.abs(path.knots[None, :] - chain[:, None]).argmin(axis=1)
        grad = np.empty(x.size)
        for n, (i, (lo, hi)) in enumerate(zip(free, cells)):
            # slots f..l share knot k[i] (the chain times never decrease)
            f = np.searchsorted(k, k[i])
            l = np.searchsorted(k, k[i], side="right") - 1
            left = v[k[i]] if i == f else np.zeros(d)
            right = v[k[i] + 1] if i == l else np.zeros(d)
            if i == f and chain[i] - lo <= _MERGE_TOL:
                left = v[k[i] + 1] + mu[f] - mu[l + 1]
            if i == l and hi - chain[i] <= _MERGE_TOL:
                right = v[k[i]] - mu[f] + mu[l + 1]
            grad[n] = 0.5 * float(right @ right - left @ left)
        return val, grad

    D = np.diff(np.eye(len(free)), axis=0)  # chain order t_i <= t_{i+1}
    res = minimize(energy, x0, jac=True, method="SLSQP", bounds=cells,
                   constraints=[{"type": "ineq", "fun": lambda x: D @ x,
                                 "jac": lambda x: D}],
                   options={"maxiter": 400, "ftol": 1e-15})
    return res, place(res.x)


def minimize_energy(prog: ConstraintProgram, n_extra_knots=0,
                    n_restarts=None):
    """Minimal energy over paths meeting the program's constraints.

    Programs without boxes are solved in closed form in their gap
    variables: a free t_1 goes to 0, a free t_k to 1, and each run of free
    chain times between fixed ones shares its length in proportion to
    ||u_j||; the value is (1/2) sum ||u_j||^2 / g_j at those times.
    Programs with boxes solve a convex QP in the knot values at given chain
    times, one exact bounded least-squares solve per coordinate
    (``_energy_given_times``); each order of the free times among the box
    times is one convex SLSQP solve over those times (``_solve_order``),
    and the best order gives the value.  A lone box at time 1 is a
    Schilder set: its minimizer is the straight path on the one cell
    [0, 1] to the box's point nearest the origin, which
    ``schilder_empirical_slope`` uses without a solve.
    ``n_extra_knots`` evenly spaced knots are added to the returned path;
    ``n_restarts`` is ignored, accepted for one more release.  Returns
    (PiecewiseLinearPath, value, diagnostics): ``outer_iterations`` (SLSQP
    iterations, summed over feasible orders; 0 without boxes) and
    ``converged`` (best order's).
    """
    slots = _chain_time_slots(prog)
    u_list = [u for _, _, u in prog.increments]
    extra = tuple(np.linspace(0.0, 1.0, n_extra_knots + 2)[1:-1])
    if prog.d == 0:
        raise ContractError("increments: targets and box sides are empty")
    if not prog.boxes:
        return _minimize_increments(slots, u_list, extra)
    d = prog.d
    chain, diag = slots, {"outer_iterations": 0, "converged": True}
    if None in slots:
        solves = [_solve_order(cells, slots, u_list, prog.boxes, d, extra)
                  for cells in _orders(slots, prog.boxes)]
        solves = [(res, ch) for res, ch in solves if math.isfinite(res.fun)]
        if not solves:
            raise InfeasibleError("no order of the free chain times is "
                                  "feasible", certificate=tuple(slots))
        res, chain = min(solves, key=lambda rc: rc[0].fun)
        diag = {"outer_iterations": sum(int(r.nit) for r, _ in solves),
                "converged": bool(res.success)}
    val, path, _ = _energy_given_times(chain, u_list, prog.boxes, d,
                                       extra_knots=extra)
    return path, val, diag


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
    # unit columns: at large t the weighted columns span many decades
    Aw = A * w[:, None]
    norms = np.linalg.norm(Aw, axis=0)
    coef, res, rank, _ = np.linalg.lstsq(Aw / norms, y * w, rcond=None)
    if rank < 3:
        raise ContractError("degenerate fit matrix")
    coef = coef / norms
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


def _set_box(set_spec, d):
    """The set {omega : omega(1) in [lo, hi]} as (lo, hi); sides may be
    infinite.  An empty box raises InfeasibleError."""
    kind = set_spec["type"]
    lo, hi = np.full(d, -math.inf), np.full(d, math.inf)
    if kind == "halfspace":
        c = set_spec["coord"]
        if not 0 <= c < d:
            raise ContractError(f"coord: {c} is not below d={d}" if c >= 0
                                else f"coord: {c} is negative")
        lo[c] = set_spec["a"]
    elif kind == "box_at_one":
        lo, hi = (_check_dim(side, set_spec[side], d, ContractError)
                  for side in ("lo", "hi"))
    elif kind != "full":
        raise ContractError(f"unknown set type {kind!r}")
    if np.any(lo > hi):
        raise InfeasibleError("empty box at time 1", certificate=(lo, hi))
    return lo, hi


def schilder_empirical_slope(set_spec, d, t_grid, n_samples, seed):
    """Curve of -(1/t^2) log mu(t * set) by Cameron-Martin tilting.

    The tilt is t times the set's energy minimizer, the straight path to
    the point of the box at time 1 nearest the origin (Schilder's rate is
    half its squared norm), so the shifted cloud straddles the rare region;
    the effective sample size of the contributing weights is reported per
    point and one below 200 raises the warning flag.  Paths are drawn on the
    one cell [0, 1]: the shift is linear on it, so the Cameron-Martin
    weight and w(1) depend only on the increment w(1).
    """
    lo, hi = _set_box(set_spec, d)
    grid = TimeGrid(np.array([0.0, 1.0]))
    nearest = np.clip(0.0, lo, hi)
    rows = []
    warning = False
    for i, t in enumerate(np.asarray(t_grid, dtype=float)):
        rng = make_rng(seed, 200 + i)
        incs = sample_bm_increments(grid, d, n_samples, rng)
        phi = t * np.vstack([np.zeros(d), nearest])
        shifted, logw = cameron_martin_weight(grid, incs, phi)
        w1 = shifted[:, 0]  # w(1) + phi(1)
        member = np.all((w1 >= t * lo) & (w1 <= t * hi), axis=1)
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
        if ess < 200.0:
            warning = True
        if p_hat >= 1.0 or set_spec["type"] == "full":
            rows.append((float(t), 0.0, 0.0, float(ess)))
            continue
        rows.append((float(t), -math.log(p_hat) / t ** 2,
                     se_rel / t ** 2, float(ess)))
    return rows, warning
