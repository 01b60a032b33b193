import math
import warnings

import numpy as np
import pytest
from scipy.optimize import minimize_scalar
from scipy.special import log_ndtr

from oracles import slsqp_energy_given_times
from thetalab.errors import ContractError, InfeasibleError
from thetalab.variational import (BoxConstraint, ConstraintProgram,
                                  PiecewiseLinearPath, _energy_given_times,
                                  box_at_one_set, closed_form_inf,
                                  halfspace_set, ldp_slope_fit,
                                  minimize_energy, path_energy,
                                  schilder_empirical_slope)


def test_path_contract():
    with pytest.raises(ContractError):
        PiecewiseLinearPath(np.array([0.1, 1.0]), np.zeros((2, 1)))
    with pytest.raises(ContractError):
        PiecewiseLinearPath(np.array([0.0, 1.0]), np.ones((2, 1)))
    with pytest.raises(ContractError):
        PiecewiseLinearPath(np.array([0.0, 1.0]), np.zeros((3, 1)))


def test_energy_straight_line_oracle():
    # phi(t) = t v has energy ||v||^2 / 2
    v = np.array([3.0, -4.0])
    path = PiecewiseLinearPath(np.array([0.0, 0.5, 1.0]),
                               np.array([0.0 * v, 0.5 * v, v]))
    assert path_energy(path) == pytest.approx(12.5)


def test_energy_two_segment_oracle():
    path = PiecewiseLinearPath(np.array([0.0, 0.25, 1.0]),
                               np.array([[0.0], [1.0], [1.0]]))
    # 0.5 * (1/0.25) = 2
    assert path_energy(path) == pytest.approx(2.0)


def test_closed_form_inf_values():
    assert closed_form_inf([np.array([1.0, 0.0])]) == pytest.approx(0.5)
    assert closed_form_inf([np.array([1.0, 0.0]),
                            np.array([0.0, 1.0])]) == pytest.approx(2.0)
    assert closed_form_inf([np.array([3.0, 4.0])]) == pytest.approx(12.5)


def test_minimize_fixed_times_oracle():
    # increment u over the fixed window (0.2, 0.6): energy ||u||^2/(2*0.4)
    u = np.array([1.0, 2.0])
    prog = ConstraintProgram(increments=((0.2, 0.6, u),))
    path, val, diag = minimize_energy(prog)
    assert val == pytest.approx(float(u @ u) / 0.8, rel=1e-10)
    assert diag["converged"]
    # outside the window the minimizer is flat
    assert np.allclose(path.values[0], 0.0)
    assert np.allclose(path.values[-1], path.values[-2])


def test_minimize_free_times_matches_closed_form():
    rng = np.random.default_rng(3)
    for _ in range(5):
        k = int(rng.integers(2, 5))
        us = [rng.normal(size=3) for _ in range(k - 1)]
        prog = ConstraintProgram(
            increments=tuple((None, None, u) for u in us))
        _, val, _ = minimize_energy(prog, n_restarts=1)
        assert val == pytest.approx(closed_form_inf(us),
                                    rel=1e-9, abs=1e-9)


def _free_chain_cases():
    # all times free (k = 3..7): gaps in proportion to |u_j| from t_1 = 0
    rng = np.random.default_rng(3)
    for k in range(3, 8):
        us = [rng.normal(size=3) for _ in range(k - 1)]
        norms = np.array([np.linalg.norm(u) for u in us])
        yield pytest.param(tuple((None, None, u) for u in us),
                           np.r_[0.0, np.cumsum(norms) / norms.sum()],
                           closed_form_inf(us), id=f"free-k{k}")
    # t_3 = 0.5 fixed: |e1| and |2 e2| share (0, 0.5), 3 e1 takes (0.5, 1)
    e1, e2 = np.eye(2)
    yield pytest.param(
        ((None, None, e1), (None, 0.5, 2 * e2), (0.5, None, 3 * e1)),
        np.array([0.0, 0.5 / 3, 0.5, 1.0]),
        (1 + 2) ** 2 / (2 * 0.5) + 3 ** 2 / (2 * 0.5), id="fixed-interior")
    # a zero target takes no time
    yield pytest.param(
        ((None, None, e1), (None, None, np.zeros(2)), (None, None, 2 * e2)),
        np.array([0.0, 1 / 3, 1 / 3, 1.0]), (1 + 2) ** 2 / 2,
        id="zero-target")


@pytest.mark.parametrize("increments, times, value", _free_chain_cases())
def test_free_chain_times_closed_form(increments, times, value):
    # the free chain times are the |u_j|-proportional allocation, the knots
    # are exactly those times with 0 and 1, and no solver runs
    path, val, diag = minimize_energy(ConstraintProgram(increments=increments))
    dist = np.abs(path.knots[:, None] - np.r_[0.0, times, 1.0])
    assert dist.min(axis=0).max() <= 1e-13
    assert dist.min(axis=1).max() <= 1e-13
    sums = np.cumsum([np.zeros(path.d), *(u for _, _, u in increments)],
                     axis=0)
    assert np.array_equal(path.values[dist[:, 1:-1].argmin(axis=0)], sums)
    assert val == pytest.approx(value, rel=1e-14)
    assert path_energy(path) == pytest.approx(val, rel=1e-14)
    assert diag == {"outer_iterations": 0, "converged": True}


def test_minimize_zero_target_takes_no_time():
    # a zero target gets a zero gap, so the free chain is e1 then e2 with
    # half the time each: 2 * (1/2) * 1 / (1/2) = 2, with no search error
    e1, e2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    prog = ConstraintProgram(increments=(
        (None, None, e1), (None, None, np.zeros(2)), (None, None, e2)))
    path, val, _ = minimize_energy(prog)
    assert val == pytest.approx(2.0, rel=1e-9)
    assert path_energy(path) == pytest.approx(val, rel=1e-12)


def test_minimize_mixed_fixed_and_free_times():
    # t_1 = 0.2 and t_3 = 0.7 fixed, t_2 free, a free t_4 pins to 1:
    # the run (0.2, 0.7) holds [1,2] and [0.5,0], the gap (0.7, 1) holds
    # [0,3]; each run's value is (sum ||u||)^2 / (2 L)
    prog = ConstraintProgram(increments=(
        (0.2, None, [1.0, 2.0]), (None, 0.7, [0.5, 0.0]),
        (0.7, None, [0.0, 3.0])))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n_extra in (0, 7):
            path, val, diag = minimize_energy(prog, n_extra_knots=n_extra)
            assert val == pytest.approx(
                (math.sqrt(5.0) + 0.5) ** 2 / (2 * 0.5) + 9.0 / (2 * 0.3),
                rel=1e-9)
            assert path_energy(path) == pytest.approx(val, rel=1e-12)
            assert diag["converged"]
            assert path.knots[-1] == 1.0
            assert np.allclose(path.values[-1], [1.5, 5.0])


def test_minimize_pinned_endpoint_oracle():
    # both increment times pinned to the endpoints, k=2, phi(1) free
    # afterwards nothing: value = ||u||^2 / 2 over full window
    u = np.array([2.0, 0.0])
    prog = ConstraintProgram(increments=((0.0, 1.0, u),))
    _, val, _ = minimize_energy(prog)
    assert val == pytest.approx(2.0, rel=1e-10)


def test_box_constraint_feasible():
    u = np.array([1.0, 0.0])
    prog = ConstraintProgram(
        increments=((0.0, 1.0, u),),
        boxes=(BoxConstraint(0.5, lo=[1.0, -math.inf]),))
    path, val, _ = minimize_energy(prog)
    # forced detour: reach x1 >= 1 by t=0.5 then end at 1: energy
    # 0.5*(1/0.5) + 0 = 1 with flat second half
    assert val == pytest.approx(1.0, rel=1e-6)


def test_box_infeasible_certificates():
    u = np.array([1.0])
    with pytest.raises(InfeasibleError):
        minimize_energy(ConstraintProgram(
            increments=((0.0, 1.0, u),),
            boxes=(BoxConstraint(0.0, lo=[0.5]),)))
    with pytest.raises(InfeasibleError):
        minimize_energy(ConstraintProgram(
            boxes=(BoxConstraint(0.5, lo=[2.0], hi=[1.0]),)))
    # chain times must not decrease, and a nonzero target needs time
    with pytest.raises(InfeasibleError):
        minimize_energy(ConstraintProgram(increments=(
            (0.5, 0.7, u), (None, None, u), (0.3, 0.4, u))))
    with pytest.raises(InfeasibleError):
        minimize_energy(ConstraintProgram(increments=(
            (0.5, None, u), (None, 0.5, u))))
    # the box route rejects decreasing fixed times as well
    with pytest.raises(InfeasibleError):
        minimize_energy(ConstraintProgram(
            increments=((0.5, 0.7, u), (0.7, 0.3, u)),
            boxes=(BoxConstraint(0.6, lo=[0.0]),)))


def _halfspace_at_one(d, coord, a):
    lo = np.full(d, -math.inf)
    lo[coord] = a
    return BoxConstraint(1.0, lo=lo)


@pytest.mark.parametrize("d, targets, coord, a", [
    (2, [[1, 0]], 1, 0.5),
    (4, [[1, 0, 0, 0], [1, 0, 0, 0]], 1, 1.0),
    (4, [[1, 0, 0, 0], [0, 1, 0, 0], [1, 0, 0, 0]], 2, 0.7),
    (3, [[1, 0, 0], [0, 0, 0], [0, 1, 0]], 2, 0.5),
])
def test_box_program_halfspace_closed_form(d, targets, coord, a):
    # free targets orthogonal to the normal of w(1)_coord >= a: the climb a
    # is one more straight leg, so the value is closed_form_inf of the
    # targets and a e_coord, (sum |u_j| + a)^2 / 2 (1.125, 4.5, 6.845, 3.125)
    us = [np.array(u, dtype=float) for u in targets]
    prog = ConstraintProgram(increments=tuple((None, None, u) for u in us),
                             boxes=(_halfspace_at_one(d, coord, a),))
    path, val, diag = minimize_energy(prog)
    assert val == pytest.approx(closed_form_inf([*us, a * np.eye(d)[coord]]),
                                rel=1e-9)
    assert diag["converged"]
    assert path_energy(path) == pytest.approx(val, rel=1e-12)
    assert path.values[-1, coord] >= a - 1e-8


def test_box_program_interior_box():
    # e1 then e2 with w(0.5)_2 >= 0.8: e1 and 0.8 of e2 by t = 0.5, the rest
    # of e2 after, gives (1.8^2 + 0.2^2) / (2 * 0.5) = 3.28
    e1, e2 = np.eye(2)
    prog = ConstraintProgram(increments=((None, None, e1), (None, None, e2)),
                             boxes=(BoxConstraint(0.5, lo=[-math.inf, 0.8]),))
    path, val, _ = minimize_energy(prog)
    assert val <= 3.28 + 1e-9
    assert path_energy(path) == pytest.approx(val, rel=1e-12)
    assert np.interp(0.5, path.knots, path.values[:, 1]) >= 0.8 - 1e-8


def test_box_program_fixed_and_free_times_oracle():
    # t_1 = 0.1 fixed, e1 on (0.1, t_2), e2 on (t_2, t_3), w(0.3)_1 <= 0.2,
    # w(0.7)_2 >= 1.5.  Both free times fall in (0.3, 0.7), both boxes are
    # active: w_1 is a at t_1, 0.2 at 0.3 and a + 1 at t_2; w_2 is c up to
    # t_2, c + 1 at t_3 and 1.5 at 0.7, so once c is minimised out its legs
    # 0.5 and 1 share (t_2, 0.8).  One free time t_2 is left.
    def spread(legs):
        # min over a of sum (a - m)^2 / w
        wsum = sum(1.0 / w for _, w in legs)
        a = sum(m / w for m, w in legs) / wsum
        return sum((a - m) ** 2 / w for m, w in legs)

    oracle = minimize_scalar(
        lambda t: 0.5 * (spread([(0.0, 0.1), (0.2, 0.2), (-0.8, t - 0.3)])
                         + 1.5 ** 2 / (0.8 - t)),
        bounds=(0.3, 0.7), method="bounded", options={"xatol": 1e-12}).fun
    e1, e2 = np.eye(2)
    prog = ConstraintProgram(
        increments=((0.1, None, e1), (None, None, e2)),
        boxes=(BoxConstraint(0.3, hi=[0.2, math.inf]),
               BoxConstraint(0.7, lo=[-math.inf, 1.5])))
    path, val, diag = minimize_energy(prog)
    assert val == pytest.approx(oracle, rel=1e-9)
    assert path_energy(path) == pytest.approx(val, rel=1e-12)
    assert diag["converged"]


def test_box_program_zero_target_meets_interior_box():
    # e1, 0, e2 with w(0.5)_3 >= 0.5: the zero target takes no time and the
    # climb to 0.5 straddles t_1 inside e1's window.  With a_1, q_1 the first
    # coordinate at t_1 and 0.5, c the third at t_1, the value
    # ((a_1^2 + c^2)/t_1 + ((q_1 - a_1)^2 + (0.5 - c)^2)/(0.5 - t_1)
    #  + ((a_1 + 1 - q_1)^2 + (c - 0.5)^2)/(t_2 - 0.5) + 1/(1 - t_2)) / 2
    # minimised over (a_1, q_1, c, t_1, t_2) is 2.900885125514633
    e1, e2, _ = np.eye(3)
    prog = ConstraintProgram(
        increments=((None, None, e1), (None, None, np.zeros(3)),
                    (None, None, e2)),
        boxes=(BoxConstraint(0.5, lo=[-math.inf, -math.inf, 0.5]),))
    path, val, diag = minimize_energy(prog)
    assert val == pytest.approx(2.900885125514633, rel=1e-9)
    assert path_energy(path) == pytest.approx(val, rel=1e-12)
    assert diag["converged"]


def _fixed_time_program(rng):
    """A feasible box program at fixed chain times, d <= 4, k <= 4.

    Targets and boxes are read off a random reference path, so the
    reference meets every constraint.  Boxes sit at random times, at time 1
    and at chain knots; a side is infinite, at some distance, or (off the
    chain knots) through the reference value.  A box at a chain knot keeps
    its sides off the reference, so at most one chain box binds and the
    target multipliers are unique.
    """
    d, k = int(rng.integers(1, 5)), int(rng.integers(2, 5))
    chain = np.sort(rng.uniform(0.0, 1.0, k))
    if rng.random() < 0.25:
        chain[0] = 0.0
    box_times = [*rng.uniform(0.0, 1.0, int(rng.integers(0, 3)))]
    if rng.random() < 0.5:
        box_times.append(1.0)
    if rng.random() < 0.5:
        box_times.append(float(rng.choice(chain)))
    times = np.unique(np.r_[0.0, chain, box_times, 1.0])
    steps = (rng.normal(size=(times.size - 1, d))
             * np.sqrt(np.diff(times))[:, None])
    ref = np.cumsum(np.vstack([np.zeros(d), steps]), axis=0)

    def at(t):
        return ref[np.searchsorted(times, t)]

    def side(on_chain):
        c = rng.random(d)
        s = np.where(c < 0.3, np.inf, rng.exponential(0.3, d))
        return s if on_chain else np.where(c > 0.8, 0.0, s)

    boxes = []
    for t in box_times:
        on_chain = bool(np.any(chain == t))
        boxes.append(BoxConstraint(float(t), lo=at(t) - side(on_chain),
                                   hi=at(t) + side(on_chain)))
    us = [at(b) - at(a) for a, b in zip(chain, chain[1:])]
    return chain, us, tuple(boxes), d


def _named_fixed_time_programs():
    e1, e2 = np.eye(2)
    inf = math.inf
    # a box at a chain knot that binds: w(0.5)_1 >= 1.3 lifts w(0.2)_1 to 0.3
    yield "box-at-chain-knot", ((0.2, 0.5, 0.9), [e1, e2],
                                (BoxConstraint(0.5, lo=[1.3, -inf]),), 2)
    # t_1 = 0: the chain is pinned at the origin
    yield "t1-zero", ((0.0, 0.4, 0.8), [e1, -e2],
                      (BoxConstraint(0.7, hi=[inf, -0.9]),
                       BoxConstraint(1.0, lo=[1.2, -inf])), 2)
    # a zero target over a zero-length interval and over a positive one
    yield "zero-targets", ((0.1, 0.4, 0.4, 0.6, 0.9),
                           [e1, np.zeros(2), np.zeros(2), e2],
                           (BoxConstraint(0.5, lo=[-inf, 0.6]),), 2)
    # boxes with no increments
    yield "boxes-only", ((), [], (BoxConstraint(0.3, lo=[0.5, -inf]),
                                  BoxConstraint(1.0, hi=[-0.2, 0.1])), 2)
    # a lone box at time 1: the straight path to (0.5, 0)
    yield "lone-box-at-one", ((), [], (BoxConstraint(1.0, lo=[0.5, -inf]),),
                              2)


def test_inner_solve_matches_slsqp_oracle():
    # the per-coordinate BVLS solve against one generic SLSQP solve over
    # every knot value, on 50 random programs and five named ones
    rng = np.random.default_rng(20)
    cases = [*(_fixed_time_program(rng) for _ in range(50)),
             *(args for _, args in _named_fixed_time_programs())]
    for chain, us, boxes, d in cases:
        want, want_path, want_mu = slsqp_energy_given_times(chain, us,
                                                            boxes, d)
        val, path, mu = _energy_given_times(chain, us, boxes, d)
        assert val == pytest.approx(want, rel=1e-9, abs=1e-12)
        assert path_energy(path) == val
        assert np.array_equal(path.knots, want_path.knots)
        # the minimizer is unique: the energy is strictly convex in the
        # knot values after 0
        assert np.allclose(path.values, want_path.values, rtol=0.0,
                           atol=1e-6)
        assert np.allclose(mu, want_mu, rtol=1e-6, atol=1e-6)
    named = dict(_named_fixed_time_programs())
    assert _energy_given_times(*named["lone-box-at-one"])[0] == 0.125


def test_inner_solve_multipliers_are_target_sensitivities():
    # mu_j is dV/du_j: central differences in every target coordinate
    rng = np.random.default_rng(21)
    h = 1e-6
    for _ in range(8):
        chain, us, boxes, d = _fixed_time_program(rng)
        _, _, mu = _energy_given_times(chain, us, boxes, d)
        for j, c in np.ndindex(mu.shape):
            vals = []
            for step in (h, -h):
                moved = [u.copy() for u in us]
                moved[j][c] += step
                vals.append(_energy_given_times(chain, moved, boxes, d)[0])
            fd = (vals[0] - vals[1]) / (2 * h)
            assert fd == pytest.approx(mu[j, c], rel=1e-6, abs=1e-6)


def test_box_program_infeasible_in_every_order():
    # w(1) = 2 whatever t_2 is, above the box's 1.5
    with pytest.raises(InfeasibleError):
        minimize_energy(ConstraintProgram(
            increments=((0.0, None, [1.0]), (None, 1.0, [1.0])),
            boxes=(BoxConstraint(1.0, hi=[1.5]),)))


def test_chain_endpoint_mismatch():
    u = np.array([1.0])
    prog = ConstraintProgram(increments=((0.0, 0.4, u), (0.5, 0.9, u)))
    with pytest.raises(ContractError):
        minimize_energy(prog)
    with pytest.raises(ContractError):
        ConstraintProgram(increments=((None, None, u),
                                      (None, None, [1.0, 0.0])))


def test_program_owns_its_dimension():
    u2 = [1.0, 0.0]
    with pytest.raises(ContractError,
                       match=r"^boxes\[0\]\.lo: length 3 does not match d=2$"):
        ConstraintProgram(increments=[(None, None, u2)],
                          boxes=(BoxConstraint(1.0, [0, 0, 0], None),))
    with pytest.raises(ContractError, match=r"^boxes\[1\]\.hi: length 1"):
        ConstraintProgram(boxes=(BoxConstraint(0.5, hi=u2),
                                 BoxConstraint(1.0, hi=[1.0])))
    with pytest.raises(ContractError, match="^increments: program needs"):
        ConstraintProgram()
    with pytest.raises(ContractError, match="^increments: program needs"):
        ConstraintProgram(boxes=(BoxConstraint(0.5),))
    prog = ConstraintProgram(boxes=(BoxConstraint(0.5, hi=[1.0, 2.0, 3.0]),))
    assert prog.d == 3
    prog.check(3)
    with pytest.raises(ContractError,
                       match=r"^boxes\[0\]\.hi: length 3 does not match d=2$"):
        prog.check(2)


def test_none_box_entries_are_unbounded():
    def solve(lo, hi):
        return minimize_energy(ConstraintProgram(
            increments=((None, None, [1.0, 0.0]),),
            boxes=(BoxConstraint(1.0, lo=lo, hi=hi),)))

    inf = math.inf
    path, val, _ = solve([None, 0.5], [None, None])
    want_path, want, _ = solve([-inf, 0.5], [inf, inf])
    assert val == want
    assert np.array_equal(path.values, want_path.values)


def test_ldp_slope_fit_exact_models():
    t = np.array([4.0, 8.0, 12.0, 16.0, 20.0])
    for L, b, c in ((0.5, -1.0, 2.0), (2.0, 3.0, 0.0)):
        y = L + b / t ** 2 + c / t ** 4
        got, diag = ldp_slope_fit(list(zip(t, y)))
        assert got == pytest.approx(L, abs=1e-10)
        assert diag["max_residual"] <= 1e-10
    # large t: the t^4 row weights span many decades, which the column
    # scaling keeps from lowering the rank of the weighted design
    for t in ([1500.0, 3000.0, 6000.0], [10.0, 100.0, 1e4],
              [4.0, 8.0, 12.0, 16.0, 20.0], [10.0, 20.0, 40.0, 80.0, 160.0]):
        t = np.array(t)
        got, _ = ldp_slope_fit(list(zip(t, 12.5 + 1 / t ** 2 + 3 / t ** 4)))
        assert got == pytest.approx(12.5, rel=6e-12)
    with pytest.raises(ContractError):
        ldp_slope_fit([(1.0, 0.5), (2.0, 0.4)])
    with pytest.raises(ContractError):
        ldp_slope_fit([(2.0, 0.5), (1.0, 0.4), (3.0, 0.3)])


@pytest.mark.parametrize("lo, hi", [
    pytest.param([1.0, -math.inf], [math.inf, math.inf], id="halfspace"),
    pytest.param([-math.inf, 0.7], [math.inf, math.inf],
                 id="halfspace-coord1"),
    pytest.param([0.5, -1.0], [2.0, 1.0], id="box"),
    pytest.param([-2.0, 0.3], [-0.5, 4.0], id="box-upper-left"),
    pytest.param([-math.inf, -math.inf], [math.inf, math.inf], id="full"),
    pytest.param([-1.0, -0.5, -2.0], [1.0, 0.5, 3.0], id="contains-origin"),
])
def test_box_at_one_minimizer_closed_form(lo, hi):
    # Schilder: the rate of {w(1) in [lo, hi]} is half the squared distance
    # from the origin to the box, reached by the straight path to its
    # nearest point; the box solver must find both
    nearest = np.clip(0.0, lo, hi)
    path, val, _ = minimize_energy(
        ConstraintProgram(boxes=(BoxConstraint(1.0, lo=lo, hi=hi),)))
    assert val == pytest.approx(0.5 * float(nearest @ nearest), abs=1e-12)
    assert np.allclose(path.values[-1], nearest, rtol=0.0, atol=1e-12)


def test_schilder_full_space_is_zero():
    rows, warning = schilder_empirical_slope(
        {"type": "full"}, 2, [2.0, 3.0, 4.0], 2000, seed=1)
    assert all(y == 0.0 for _, y, _, _ in rows)
    assert not warning


def test_schilder_halfspace_curve():
    # mu(w_1(1) >= t) = Phi(-t) exactly, so each row has a closed form
    rows, warning = schilder_empirical_slope(
        halfspace_set(1.0), 2, [3.0, 4.0, 5.0, 6.0, 8.0], 20000, seed=2)
    for t, y, se, ess in rows:
        assert y > 0.5           # prefactor bias is from above
        assert ess > 1000
        assert abs(y + log_ndtr(-t) / t ** 2) <= 3.0 * se
    assert not warning


def test_schilder_unknown_set():
    with pytest.raises(ContractError):
        schilder_empirical_slope({"type": "wedge"}, 2, [2.0, 3.0],
                                 100, seed=0)


def test_schilder_set_shape_and_empty_box():
    for spec in (halfspace_set(1.0, coord=2),
                 box_at_one_set([0.0], [1.0, 1.0])):
        with pytest.raises(ContractError):
            schilder_empirical_slope(spec, 2, [2.0, 3.0], 100, seed=0)
    with pytest.raises(InfeasibleError):
        schilder_empirical_slope(box_at_one_set([1.0, 0.0], [0.5, 1.0]), 2,
                                 [2.0, 3.0], 100, seed=0)


def test_schilder_determinism():
    a, _ = schilder_empirical_slope(halfspace_set(1.0), 2, [3.0], 5000,
                                    seed=9)
    b, _ = schilder_empirical_slope(halfspace_set(1.0), 2, [3.0], 5000,
                                    seed=9)
    assert a == b


# Rows computed when the shift's end point came from the box solver; its
# closed form, the box's point nearest the origin, is the same to the bit,
# so these rows and the d = 3 row below must not move by one bit.
SCHILDER_ROWS = [
    (halfspace_set(1.0), 3,
     [(2.0, 0.9463441500411289, 0.005978244237062832, 1217.0076691628926),
      (3.0, 0.7382289421306174, 0.0032566543009151113, 901.8313237751546)]),
    (halfspace_set(1.0), 11,
     [(2.0, 0.9501895662166652, 0.00605342551544175, 1195.9479489174537),
      (3.0, 0.7375653140176358, 0.0032104629102000723, 921.9443881152936)]),
    (box_at_one_set([0.5, -1.0], [2.0, 1.0]), 3,
     [(2.0, 0.47290033598734665, 0.004944345234457348, 1559.9479968327728),
      (3.0, 0.3026157381363108, 0.00239906381381257, 1396.4929232303484)]),
    (box_at_one_set([0.5, -1.0], [2.0, 1.0]), 11,
     [(2.0, 0.470691837914451, 0.00491360164440774, 1571.8349213082085),
      (3.0, 0.3025760868611277, 0.0024013746052815683, 1394.7432735372454)]),
]


@pytest.mark.parametrize("set_spec, seed, rows", SCHILDER_ROWS)
def test_schilder_rows_bit_identical(set_spec, seed, rows):
    got, warning = schilder_empirical_slope(set_spec, 2, [2.0, 3.0], 4000,
                                            seed=seed)
    assert got == rows
    assert not warning


def test_schilder_rows_bit_identical_d3():
    # a half-space on the middle coordinate of three
    got, warning = schilder_empirical_slope(
        halfspace_set(0.7, coord=1), 3, [2.0, 3.0], 4000, seed=3)
    assert got == [
        (2.0, 0.6279171753346331, 0.005255136862509333, 1445.6027995120412),
        (3.0, 0.4514043078376807, 0.0028067579729858325, 1126.1900595381846)]
    assert not warning
