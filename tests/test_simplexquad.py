import dataclasses
import io
import json
import math
import warnings

import numpy as np
import pytest
from scipy.special import exp1, gamma, gammaincc

from oracles import gap_log_integrand, log_gap_tensor
from thetalab import simplexquad
from thetalab.cli import execute, parse_config
from thetalab.errors import CapacityError, ContractError, DomainError
from thetalab.estimators import (WeightFunction, eta_mass_scan,
                                 eta_pairing_correlated,
                                 eta_pairing_independent)
from thetalab.kernels import heat_kernel, log_heat_kernel_sq
from thetalab.simplexquad import (_Y_FLOOR, _Y_MARGIN, LogIntegral,
                                  QuadratureSpec, SimplexIntegrand,
                                  _log_eta_1d, _log_gap_laplace,
                                  eta_log_integral, eta_mass_integral,
                                  gap_reduced_integral,
                                  ldp_mass_curve, mass_m, mass_m_direct,
                                  mc_simplex_raw)
from thetalab.variational import closed_form_inf, ldp_slope_fit

U4 = np.array([1.0, 0.0, 0.0, 0.0])
NORMS = (1e-9, 1e-5, 1e-3, 0.01, 0.5, 4.0)


def exact_mass(r, p=0.0):
    """Exact d = 4 mass of the |x|^p weight at |u| = r, a = r^2/2.

    The integral of (1 - g) (2 pi g)^{-2} e^{-a/g} E|beta_g|^p over (0, 1)
    is c_p (2 pi)^{-2} [a^{p/2-1} Gamma(1-p/2, a) - a^{p/2} Gamma(-p/2, a)]
    with c_p = 2^{p/2} Gamma((p+1)/2) / sqrt(pi); at p = 0 it is
    (2 pi)^{-2} [e^{-a}/a - E_1(a)].
    """
    a, s = r * r / 2.0, -p / 2.0
    upper = gammaincc(s + 1.0, a) * gamma(s + 1.0)
    lower = exp1(a) if p == 0.0 else (upper - a ** s * math.exp(-a)) / s
    c = 2.0 ** (p / 2.0) * gamma((p + 1.0) / 2.0) / math.sqrt(math.pi)
    return c * (a ** (-s - 1.0) * upper - a ** -s * lower) \
        / (2.0 * math.pi) ** 2


def test_integrand_validation():
    with pytest.raises(DomainError):
        SimplexIntegrand(4, ())
    with pytest.raises(DomainError):
        SimplexIntegrand(4, (np.zeros(4),))   # u=0, d>=2
    with pytest.raises(DomainError):
        SimplexIntegrand(2, (U4[:2], np.zeros(2)))
    with pytest.raises(DomainError):
        SimplexIntegrand(4, (np.array([1.0, 0.0]),))
    with pytest.raises(DomainError):
        SimplexIntegrand(4, (U4,), scale_t=0.0)
    assert SimplexIntegrand(1, ([0.0],)).k == 2
    # the integrand carries no shift: the tensor rule takes eps directly,
    # and has no rung for six gaps
    assert [f.name for f in dataclasses.fields(SimplexIntegrand)] \
        == ["d", "u_list", "scale_t"]
    with pytest.raises(CapacityError):
        log_gap_tensor([1.0] * 6, 4, 0.01, 1e-10)


def test_quadrature_spec_validation():
    with pytest.raises(ContractError):
        QuadratureSpec(target_rel_err=0.0)
    # no rule takes a method, a sample count or a seed
    assert [f.name for f in dataclasses.fields(QuadratureSpec)] \
        == ["target_rel_err"]


def test_mass_dual_route_spot():
    a = mass_m(U4, 4)
    b = mass_m_direct(U4, 4)
    assert a == pytest.approx(b, rel=1e-8)
    with pytest.raises(DomainError):
        mass_m(np.zeros(4), 4)
    with pytest.raises(DomainError):
        mass_m_direct(np.zeros(4), 4)


def test_mass_matches_closed_form_down_to_tiny_u():
    # the kernel peak sits at g ~ |u|^2/4; the nested scipy.quad route this
    # rule replaced returned 0.0 at |u| = 1e-9 and was 86% low at 1e-3
    assert exact_mass(1.0) == pytest.approx(mass_m_direct(U4, 4), rel=1e-13)
    for r in NORMS:
        u = [r, 0.0, 0.0, 0.0]
        want = exact_mass(r)
        assert mass_m(u, 4) == pytest.approx(want, rel=1e-10), r
        out = io.StringIO()
        cfg = parse_config(json.dumps({"command": "mass", "d": 4, "u": u,
                                       "format": "json"}))
        assert execute(cfg, out_stream=out) == 0
        row = json.loads(out.getvalue())["rows"][0]
        assert row["value"] == pytest.approx(want, rel=1e-10), r


def test_rel_err_bounds_actual_error():
    for r in NORMS:
        res = gap_reduced_integral(SimplexIntegrand(4, ([r, 0, 0, 0],)))
        want = exact_mass(r)
        assert abs(res.value - want) <= res.rel_err * want, r
        assert res.rel_err <= 1e-9 and not res.warning
    # k = 3 against the same rule run to its finest rule
    full = QuadratureSpec(target_rel_err=1e-300)
    u2 = np.array([0.3, -1.2, 0.5, 0.0])
    for ig in (SimplexIntegrand(4, (U4, U4)),
               SimplexIntegrand(4, (U4, u2), scale_t=20.0),
               SimplexIntegrand(4, (1e-3 * U4, u2))):
        res = gap_reduced_integral(ig)
        ref = gap_reduced_integral(ig, full)
        assert abs(math.expm1(res.log_value - ref.log_value)) \
            <= res.rel_err <= 1e-9
        assert not res.warning
    # the tensor rule with a shift that makes u = 0 integrable
    got, rel = log_gap_tensor([1.0, 0.0], 4, 0.05, 1e-10)
    ref, _ = log_gap_tensor([1.0, 0.0], 4, 0.05, 1e-300)
    assert abs(math.expm1(got - ref)) <= rel <= 1e-9


def test_laplace_route_matches_tensor_rule_over_a_grid():
    # the tensor rule is the route's oracle at k <= 4; each side's error
    # bounds the difference
    rng = np.random.default_rng(1)
    for d in (1, 2, 4, 6):
        for k in (2, 3, 4):
            for t in (1.0, 4.0, 8.0, 20.0, 80.0):
                sq = t * t * np.sum(rng.normal(size=(k - 1, d)) ** 2, axis=1)
                [got], [rel] = _log_gap_laplace([sq], d, 1e-10)
                want, want_rel = log_gap_tensor(sq, d, 0.0, 1e-13)
                assert abs(got - want) <= 1e-11 * max(1.0, abs(want)), \
                    (d, k, t)
                assert abs(math.expm1(got - want)) <= rel + want_rel, \
                    (d, k, t)


def test_laplace_route_matches_closed_forms_within_its_error():
    # d = 4 down to |u| = 1e-4, where the kernel peak has width 1e-8
    for r in (3.0, 1.0, 0.1, 1e-2, 1e-3, 1e-4):
        [got], [rel] = _log_gap_laplace([[r * r]], 4, 1e-10)
        err = abs(math.expm1(got - math.log(exact_mass(r))))
        assert err <= min(rel, 1e-13), r
    # d = 2: (1/2 pi) [(1 + a) E_1(a) - e^{-a}], here at |u| = 1e-20
    for r in (1.5, 1e-20):
        a = r * r / 2.0
        want = ((1.0 + a) * exp1(a) - math.exp(-a)) / (2.0 * math.pi)
        res = gap_reduced_integral(SimplexIntegrand(2, ([r, 0.0],)))
        assert abs(res.value / want - 1.0) <= min(res.rel_err, 1e-13), r
    # d = 1 allows a zero target, with transform (2 lambda)^{-1/2}: the
    # mass is int_0^1 (1 - g) (2 pi g)^{-1/2} dg = (4/3) (2 pi)^{-1/2}
    res = gap_reduced_integral(SimplexIntegrand(1, ([0.0],)))
    want = 4.0 / 3.0 / math.sqrt(2.0 * math.pi)
    assert abs(res.value / want - 1.0) <= min(res.rel_err, 1e-13)
    # k = 3 with one large and one tiny target, against a 1-d adaptive
    # quadrature over the tiny target's gap with the other gap's slack
    # integral in closed form (erfc at d = 3, E_1 at d = 4); the tensor
    # rule is 4e-7 and 1.35 off in log I on these, beyond its own error
    for d, sq, want in ((3, [36.4060958, 2.6460224e-08], -20.026158818301987),
                        (4, [1.67602152e+05, 1.67590360e-16],
                         -83794.08177819829)):
        [got], [rel] = _log_gap_laplace([sq], d, 1e-10)
        assert abs(math.expm1(got - want)) <= rel, d


def test_laplace_route_is_finite_or_raises_a_typed_error():
    # a d = 2 target whose square underflows has no integrable kernel
    with pytest.raises(DomainError):
        gap_reduced_integral(SimplexIntegrand(2, ([1e-200, 0.0],)))
    six = tuple(np.eye(6)[:5])
    res = gap_reduced_integral(SimplexIntegrand(6, six, scale_t=3000.0))
    assert math.isfinite(res.log_value) and not res.warning
    assert -res.log_value / 3000.0 ** 2 == pytest.approx(12.5, rel=1e-5)
    with pytest.raises(CapacityError):  # e^{-1.1e8} is not a double
        res.value
    # past |z| ~ 1.07e9 the Bessel routine has no value and the Hankel
    # expansion takes over; at t = 1e6 the peak is lost to rounding
    for t in (1e4, 1e5):
        res = gap_reduced_integral(SimplexIntegrand(6, six, scale_t=t))
        assert math.isfinite(res.log_value) and math.isfinite(res.rel_err)
        assert -res.log_value / t ** 2 == pytest.approx(12.5, rel=1e-6)
    with pytest.raises(CapacityError):
        gap_reduced_integral(SimplexIntegrand(6, six, scale_t=1e6))


def test_laplace_route_past_the_bessel_limit_matches_tensor_rule():
    # |z| = 2 sqrt(a_j sigma) passes 1.07e9, where kve gives NaN and the
    # Hankel expansion of K_nu takes over; the tensor rule has no Bessel
    # function and agrees to rounding
    for d in (3, 4):
        for t in (1e4, 3e4, 1e5):
            sq = [t * t, 2.0 * t * t]
            [got], _ = _log_gap_laplace([sq], d, 1e-10)
            want, _ = log_gap_tensor(sq, d, 0.0, 1e-10)
            assert abs(got - want) <= 1e-15 * abs(want), (d, t)


def assert_rows_are_one_row_calls(sq, d):
    # a call on many rows gives each row what a call on it alone gives
    values, errors = _log_gap_laplace(sq, d, 1e-10)
    for row, value, error in zip(sq, values, errors):
        [one], [one_err] = _log_gap_laplace([row], d, 1e-10)
        assert abs(value - one) <= 1e-15 * abs(one), (d, row)
        assert abs(error - one_err) <= 1e-15 * one_err, (d, row)


def test_laplace_rows_match_one_row_calls():
    # |u|^2 from 1e-6 to 1e9: the rules stop at 64 to 512 nodes
    rng = np.random.default_rng(3)
    scales = np.array([1e-6, 1e-2, 1.0, 16.0, 400.0, 1e6, 1e9])
    for d in (1, 2, 3, 4, 6):
        for k in range(2, 7):
            sq = scales[:, None] * np.sum(
                rng.normal(size=(scales.size, k - 1, d)) ** 2, axis=2)
            if d == 1:
                sq[2, 0] = 0.0  # a zero target is integrable at d = 1
            assert_rows_are_one_row_calls(sq, d)
    # Hankel-range rows, |z| past the Bessel routine's limit, among
    # ordinary ones: six unit targets at t = 4 ... 1e5
    t = np.array([4.0, 3000.0, 1e4, 1.0, 1e5])
    assert_rows_are_one_row_calls(np.repeat(t[:, None] ** 2, 5, axis=1), 6)


def test_laplace_route_tiny_targets_off_the_real_axis():
    # at tiny |z| kve is inf on the real axis but NaN off it, and both need
    # the small-argument form of K_nu; with one target, log I is then
    # -(d/2) log 2 pi + lgamma(d/2 - 1) + (1 - d/2) log(|u|^2/2) to leading
    # order (these cases once raised "no finite peak at its saddle point")
    for d, sq in ((6, 1e-310), (12, 1e-200), (16, 1e-100), (16, 1e-300)):
        [got], [rel] = _log_gap_laplace([[sq]], d, 1e-10)
        want = math.lgamma(d / 2.0 - 1.0) - d / 2.0 * math.log(2.0 * math.pi) \
            + (1.0 - d / 2.0) * math.log(sq / 2.0)
        assert abs(math.expm1(got - want)) <= min(rel, 1e-12), (d, sq)
    assert_rows_are_one_row_calls(np.array([[1e-100], [1.0]]), 16)
    assert_rows_are_one_row_calls(
        np.array([[1e-100, 1.0], [1.0, 1.0], [1e-300, 1e-300]]), 16)


def test_saddle_search_follows_its_edge_and_freezes_rows(monkeypatch):
    # m zero targets at d = 1 start the saddle search at lam = 2, far below
    # the saddle 2 + m/2: the grid follows its edge once and takes 5 steps
    # where larger targets take 4, so the finished rows freeze while the
    # others move.  With zero targets the integral is 2^{-m/2}/Gamma(2 + m/2)
    m, steps = 400, []
    real = simplexquad._log_bromwich

    def counting(root_a, total, d, sigma, w):
        if np.ndim(w) == 0:  # the search evaluates on the real axis only
            steps[-1] += 1
        return real(root_a, total, d, sigma, w)

    monkeypatch.setattr(simplexquad, "_log_bromwich", counting)
    sq = np.repeat([[0.0], [1e-6], [1e-4], [1.0]], m, axis=1)
    one_row = []
    for row in sq:
        steps.append(0)
        one_row.append(_log_gap_laplace([row], 1, 1e-10))
    assert steps == [5, 5, 4, 4]
    values, errors = _log_gap_laplace(sq, 1, 1e-10)
    for value, error, ([one], [one_err]) in zip(values, errors, one_row):
        assert value == one and error == one_err
    want = -m / 2.0 * math.log(2.0) - math.lgamma(2.0 + m / 2.0)
    assert abs(math.expm1(values[0] - want)) <= min(errors[0], 1e-14)


def test_ldp_curve_matches_per_point_integrals():
    # the curve is one call on rows t^2 |u_j|^2; each point is what the
    # one-row route gives the integrand scaled by t
    rng = np.random.default_rng(4)
    t_grid = [1.0, 2.5, 4.0, 12.0, 20.0, 80.0]
    for d, k in ((1, 3), (2, 2), (3, 4), (4, 3), (6, 5)):
        us = [rng.normal(size=d) for _ in range(k - 1)]
        for t, (got_t, y, rel) in zip(t_grid, ldp_mass_curve(us, d, t_grid)):
            res = gap_reduced_integral(SimplexIntegrand(d, tuple(us),
                                                        scale_t=t))
            assert got_t == t
            assert y == pytest.approx(-res.log_value / t ** 2, rel=1e-15,
                                      abs=0.0)
            assert rel == pytest.approx(res.rel_err, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("k, seed", [(5, 5), (6, 6)])
def test_laplace_route_vs_raw_mc_beyond_the_tensor_rule(k, seed):
    us = [np.eye(4)[j % 4] * (0.5 + 0.3 * j) for j in range(k - 1)]
    det = gap_reduced_integral(SimplexIntegrand(4, tuple(us)))
    mc, se = mc_simplex_raw(us, 4, 1000000, seed=seed)
    assert abs(det.value - mc) <= 3.0 * se
    assert det.rel_err <= 1e-10 and det.method == "laplace_inversion"


def test_ldp_curve_k5_slope_matches_closed_form():
    # five unit targets, L = (sum |u_j|)^2 / 2 = 8; the log t / t^2 term
    # the three-term fit leaves out is small on t = 10 ... 160
    us = list(np.eye(4)[[0, 1, 2, 3]])
    curve = ldp_mass_curve(us, 4, [10.0, 20.0, 40.0, 80.0, 160.0])
    L, _ = ldp_slope_fit(curve)
    assert abs(L - closed_form_inf(us)) <= 1e-3
    assert all(rel <= 1e-8 for _, _, rel in curve)


def test_ldp_curve_k3_matches_nested_quad_values():
    # criterion 4's k = 3 curve as the nested adaptive scipy.quad route
    # computed it; the Laplace route must agree and raise no warning
    old = [2.836654194727329, 2.2630557753959653, 2.1309700952519406,
           2.0792850543727015, 2.0535304171214617]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        curve = ldp_mass_curve([U4, U4], 4, [4.0, 8.0, 12.0, 16.0, 20.0])
    for (_, y, rel), want in zip(curve, old):
        assert y == pytest.approx(want, rel=1e-9)
        assert 0.0 < rel <= 1e-9


# (-log I(t) / t^2, rel_err) on t = 4, 8, 12, 16, 20 for unit targets in
# d = 4, as the stacked-point tensor rule computed them before the
# integrand moved to open grids
PINNED_CURVES = {
    2: [(1.0025190933573156, 6.053932641846789e-14),
        (0.6666594995088405, 3.977853452733899e-12),
        (0.5851120090408792, 3.028906167723974e-13),
        (0.552325008791818, 5.343110922620526e-13),
        (0.5357057266359804, 7.932580482445604e-13)],
    3: [(2.836654194727329, 1.6479783623295466e-13),
        (2.263055775395965, 2.62131852091648e-12),
        (2.1309700952519406, 1.5485622478373394e-12),
        (2.0792850543727015, 1.894655593236431e-12),
        (2.0535304171214617, 3.035520499469697e-12)],
    4: [(5.609920058129797, 3.792850273336452e-13),
        (4.842579342709062, 1.1614712430636933e-12),
        (4.66916178165387, 2.6196264597755952e-12),
        (4.601898016307082, 5.098634797454047e-12),
        (4.568562467462557, 1.6045564830671664e-11)],
}


def assert_pinned(log_value, rel_err, want_log, want_rel):
    # rel_err is the difference of two rule values plus terms known in
    # closed form; that difference is itself rounded, so it is pinned to
    # within the 16 eps (1 + |log I|) rounding term rel_err already carries
    assert log_value == pytest.approx(want_log, rel=1e-13, abs=0.0)
    assert rel_err == pytest.approx(
        want_rel, rel=0.0, abs=16.0 * np.finfo(float).eps * (1 + abs(want_log)))


@pytest.mark.parametrize("k", [2, 3, 4])
def test_ldp_curve_matches_pinned_values(k):
    # the tensor rule reproduces its own pins; the Laplace route that
    # ldp_mass_curve now takes lands on the same log values
    t_grid = [4.0, 8.0, 12.0, 16.0, 20.0]
    curve = ldp_mass_curve(list(np.eye(4)[:k - 1]), 4, t_grid)
    for t, (_, y, _), (want_y, want_rel) in zip(t_grid, curve,
                                                 PINNED_CURVES[k]):
        log_value, rel = log_gap_tensor([t * t] * (k - 1), 4, 0.0, 1e-10)
        assert_pinned(log_value, rel, -want_y * t * t, want_rel)
        assert -y * t * t == pytest.approx(-want_y * t * t, rel=1e-13,
                                           abs=0.0)


def test_shifted_and_weighted_integrals_match_pinned_values():
    e = np.eye(4)
    sq = [float(np.dot(3.0 * u, 3.0 * u))
          for u in (e[0], np.array([0.3, -1.2, 0.5, 0.0]), e[2])]
    log_value, rel = log_gap_tensor(sq, 4, 0.02, 1e-10)
    assert_pinned(log_value, rel, -63.752991943676996, 2.3715602495724535e-13)
    f = WeightFunction("abs_power", 0.5)
    for m, want in ((0, 0.010256747461938137), (4, 2.657257223141805),
                    (8, 175.69590818433605)):
        got = eta_mass_integral([2.0 ** -m, 0, 0, 0], 4, f.gaussian_moment)
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)
    # d = 1 with a tiny third target: the tensor ladder runs to its last
    # rung and stops above the 1e-10 tolerance; its value is 1.7e-10 off
    # the Laplace route's, inside the error it reports
    for t, want_y, want_rel in ((1.0, 9.526773395917724, 5.09018701867371e-10),
                                (4.0, 3.6564169376751714,
                                 4.949694084127049e-10)):
        sq = [t * t * 0.378 ** 2, t * t * 4.0, t * t * 1e-10]
        log_value, rel = log_gap_tensor(sq, 1, 0.0, 1e-10)
        assert_pinned(log_value, rel, -want_y * t * t, want_rel)
        [(_, y, route_rel)] = ldp_mass_curve([[-0.378], [-2.0], [1e-5]], 1,
                                             [t])
        assert abs(math.expm1(-y * t * t - log_value)) <= rel + route_rel


def test_gap_log_integrand_open_grid_oracle():
    # log f at s in the cube, from the stick-broken gaps g_j = s_j
    # prod_{i<j} (1 - s_i): the kernels, the slack prod_i (1 - s_i), the
    # Jacobian prod_j prod_{i<j} (1 - s_i) and ds = s dy
    rng = np.random.default_rng(7)
    for m, d, eps, moment in ((1, 4, 0.0, None), (1, 2, 0.0, np.log),
                              (2, 1, 0.01, None), (2, 4, 0.0, None),
                              (3, 4, 0.0, None), (3, 1, 0.02, None),
                              (3, 2, 0.0, np.sqrt)):
        sq = rng.uniform(1e-3, 4.0, m)
        s_axes = [rng.uniform(0.05, 0.95, 3 + i) for i in range(m)]
        got = gap_log_integrand(sq, d, eps, moment)(
            np.ix_(*[np.log(s) for s in s_axes]))
        assert got.shape == tuple(s.size for s in s_axes)
        for idx in np.ndindex(got.shape):
            s = np.array([ax[i] for ax, i in zip(s_axes, idx)])
            head = np.concatenate([[1.0], np.cumprod(1.0 - s)])
            gaps = s * head[:-1]
            want = (np.sum(log_heat_kernel_sq(sq, gaps + eps, d))
                    + math.log(head[-1]) + np.sum(np.log(head[:-1]))
                    + np.sum(np.log(s)))
            if moment is not None:
                want += moment(gaps[0])
            assert got[idx] == pytest.approx(want, rel=1e-13, abs=1e-13), \
                (m, d, eps, idx)


def test_log_integral_fields_are_plain_python_types():
    res = gap_reduced_integral(SimplexIntegrand(4, (U4, U4)))
    assert type(res.log_value) is float
    assert type(res.rel_err) is float
    assert type(res.warning) is bool
    json.dumps(dataclasses.asdict(res))


def test_gap_reduction_vs_raw_mc_k2():
    det = gap_reduced_integral(SimplexIntegrand(4, (U4,))).value
    mc, se = mc_simplex_raw([U4], 4, 400000, seed=3)
    assert abs(det - mc) <= 3.0 * se


def test_gap_reduction_vs_raw_mc_k3():
    det = gap_reduced_integral(SimplexIntegrand(4, (U4, U4))).value
    mc, se = mc_simplex_raw([U4, U4], 4, 800000, seed=4)
    assert abs(det - mc) <= 3.0 * se


def test_gap_reduction_vs_raw_mc_k4():
    us = [U4, [0.0, 0.5, 0.0, 0.0], [0.0, 0.0, 1.5, 0.0]]
    det = gap_reduced_integral(SimplexIntegrand(4, tuple(us))).value
    mc, se = mc_simplex_raw(us, 4, 800000, seed=6)
    assert abs(det - mc) <= 3.0 * se


def test_eps_shift_semigroup_consistency():
    # shifting every gap variance by eps equals smoothing the kernel
    det, _ = log_gap_tensor([1.0], 4, 0.05, 1e-10)
    mc, se = mc_simplex_raw([U4], 4, 400000, seed=5, eps_shift=0.05)
    assert abs(math.exp(det) - mc) <= 3.0 * se


def test_scale_t_suppresses_mass():
    small = gap_reduced_integral(SimplexIntegrand(4, (U4,), scale_t=1.0))
    big = gap_reduced_integral(SimplexIntegrand(4, (U4,), scale_t=8.0))
    assert big.log_value < small.log_value - 20.0


def test_log_integral_value_property():
    li = LogIntegral(0.0, 1e-12, "laplace_inversion")
    assert li.value == 1.0


def test_ldp_curve_contract():
    with pytest.raises(DomainError):
        ldp_mass_curve([U4], 4, [0.5, 1.0, 2.0])
    # one point that raises makes the curve raise its typed error
    with pytest.raises(DomainError):
        ldp_mass_curve([U4[:2], np.zeros(2)], 2, [1.0, 2.0])
    with pytest.raises(DomainError):  # |t u|^2 underflows at d >= 2
        ldp_mass_curve([[1e-200, 0.0]], 2, [1.0, 2.0])
    with pytest.raises(CapacityError):  # the peak is lost at t = 1e6
        ldp_mass_curve(list(np.eye(6)[:5]), 6, [4.0, 3000.0, 1e6])
    curve = ldp_mass_curve([U4], 4, [2.0, 4.0])
    assert len(curve) == 2 and ldp_mass_curve([U4], 4, []) == []
    # slopes decrease towards the limit from above for this geometry
    assert curve[1][1] < curve[0][1]


def test_eta_mass_f_one_collapses_to_mass():
    got = eta_mass_integral(U4, 4, lambda g: 1.0)
    assert got == pytest.approx(mass_m(U4, 4), rel=1e-8)
    with pytest.raises(DomainError):
        eta_mass_integral(np.zeros(4), 4, lambda g: 1.0)


def test_eta_mass_abs_power_matches_closed_form():
    f = WeightFunction("abs_power", 0.5)
    for m in range(9):
        got = eta_mass_integral([2.0 ** -m, 0, 0, 0], 4, f.gaussian_moment)
        assert got == pytest.approx(exact_mass(2.0 ** -m, 0.5), rel=1e-10)


def test_eta_mass_divergent_moment():
    assert eta_mass_integral(U4, 4, lambda g: math.inf) == math.inf


WEIGHTS = (("one", 0.0), ("indicator_pos", 0.0), ("abs_power", 0.5),
           ("abs_power", 2.0), ("exp_abs", 1.0))


def test_eta_1d_rule_matches_tensor_oracle_over_a_grid():
    # 4 d x 5 weights x 9 targets, each against the one-gap tensor rule;
    # the sum of the two reported errors bounds the difference
    sq = 4.0 ** -np.arange(9)
    for d in (1, 2, 4, 6):
        for family, p in WEIGHTS:
            moment = WeightFunction(family, p).gaussian_moment
            got, rel = _log_eta_1d(sq, d, moment, 1e-10)
            assert np.all(rel <= 1e-9), (d, family, p)
            for s, g, e in zip(sq, got, rel):
                want, want_rel = log_gap_tensor(
                    [s], d, 0.0, 1e-12, lambda x: np.log(moment(x)))
                assert abs(g - want) <= 1e-10 * max(1.0, abs(want)), \
                    (d, family, p, s)
                assert abs(math.expm1(g - want)) <= e + want_rel, \
                    (d, family, p, s)


def test_eta_mass_scan_is_one_integral_per_norm():
    norms = [3.0, 1.0, 0.3, 0.1, 0.01, 1e-3]
    for d in (1, 4, 5):
        for family, p in WEIGHTS:
            f = WeightFunction(family, p)
            pairs, slope = eta_mass_scan(f, d, norms)
            for norm, mass in pairs:
                u = np.zeros(d)
                u[0] = norm
                want = eta_mass_integral(u, d, f.gaussian_moment)
                assert mass == pytest.approx(want, rel=1e-14, abs=0.0)
            logs = [math.log(m) for _, m in pairs]
            assert slope == pytest.approx(
                np.polyfit(np.log(norms), logs, 1)[0], rel=1e-12)


def test_eta_mass_past_the_double_range_raises():
    # e^{-|u|^2/2} leaves the doubles: a CapacityError, not 0.0 and a NaN
    # slope
    f = WeightFunction("abs_power", 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CapacityError):
            eta_mass_scan(f, 4, [60.0, 50.0, 40.0])
        with pytest.raises(CapacityError):
            eta_mass_integral([60.0, 0, 0, 0], 4, f.gaussian_moment)
        with pytest.raises(DomainError):
            eta_mass_scan(f, 4, [1.0, 0.0])


def test_eta_integrals_reject_a_target_of_the_wrong_length():
    # a 3-vector at d = 4 once returned log -4.1015 silently
    for route in (eta_log_integral, eta_mass_integral):
        with pytest.raises(DomainError,
                           match="^u: length 3 does not match d=4$"):
            route([1.0, 0.0, 0.0], 4, lambda g: np.ones_like(g))


def test_eta_mass_target_floor():
    # below |u|^2/d = e^{_Y_FLOOR + _Y_MARGIN} the peak search has no room
    # at d >= 2; at d = 1 the integrand stays integrable at u = 0, and the
    # mass tends to int_0^1 (1 - g) (2 pi g)^{-1/2} dg = (4/3) (2 pi)^{-1/2}
    tiny = math.sqrt(4.0 * math.exp(_Y_FLOOR + _Y_MARGIN)) / 2.0
    with pytest.raises(DomainError):
        eta_mass_integral([tiny, 0, 0, 0], 4, lambda g: 1.0)
    assert eta_mass_integral([2.0 * tiny, 0, 0, 0], 4, lambda g: 1.0) > 0.0
    got = eta_mass_integral([1e-150], 1, lambda g: 1.0)
    assert got == pytest.approx(4.0 / 3.0 / math.sqrt(2.0 * math.pi),
                                rel=1e-12)
    # also where |u|^2 is 0 in doubles, as for the Laplace route and mass_m
    want = 4.0 / 3.0 / math.sqrt(2.0 * math.pi)
    for u in ([0.0], [1e-170]):
        res = eta_log_integral(u, 1, lambda g: 1.0)
        assert abs(math.expm1(res.log_value - math.log(want))) \
            <= res.rel_err <= 1e-12, u
        assert math.exp(res.log_value) == pytest.approx(
            gap_reduced_integral(SimplexIntegrand(1, (u,))).value, rel=1e-12)
    assert math.exp(res.log_value) == pytest.approx(mass_m([1e-170], 1),
                                                    rel=1e-12)
    code, row = run_eta({"command": "eta", "d": 1, "u": [1e-170],
                         "f": {"family": "one", "param": 0.0},
                         "variant": "independent"})
    assert code == 0 and row["value"] == pytest.approx(want, rel=1e-12)
    with pytest.raises(DomainError):
        eta_log_integral([0.0, 0.0], 2, lambda g: 1.0)
    # at d = 2 the integrand is flat in y = log g from log |u|^2 to 0, here
    # over 530 units: the last rules are needed, and the mass is
    # (1/2 pi) [(1 + a) E_1(a) - e^{-a}], a = |u|^2/2
    for sq in (1e-230, 1e-145, 1e-12):
        a = sq / 2.0
        want = ((1.0 + a) * exp1(a) - math.exp(-a)) / (2.0 * math.pi)
        [got], [rel] = _log_eta_1d([sq], 2, lambda g: 1.0, 1e-10)
        assert abs(math.expm1(got - math.log(want))) <= rel <= 1e-10, sq


def run_eta(doc):
    out = io.StringIO()
    code = execute(parse_config(json.dumps(dict(doc, format="json"))),
                   out_stream=out)
    return code, json.loads(out.getvalue())["rows"][0]


def test_cli_eta_is_the_monte_carlo_pairings_expectation():
    # with F1 = F2 = 1 both library Monte Carlo routes average the 1-d
    # integrand over uniform windows; the CLI computes that integral
    u = [1.0, 0.0, 0.0, 0.0]
    for family, p in (("abs_power", 0.5), ("indicator_pos", 0.0)):
        f = WeightFunction(family, p)
        doc = {"command": "eta", "d": 4, "u": u,
               "f": {"family": family, "param": p}}
        code, ind = run_eta(dict(doc, variant="independent"))
        assert code == 0 and ind["method"] == "quadrature"
        assert 0.0 < ind["stderr"] <= 1e-9 * ind["value"]
        code, cor = run_eta(dict(doc, variant="correlated", r=0.6))
        assert code == 0 and cor["method"] == "quadrature"
        assert 0.0 < cor["stderr"] <= 1e-9 * cor["value"]
        for seed in range(10):
            est = eta_pairing_independent(None, None, f, u, 4, 50000, 1,
                                          seed)
            assert abs(est.value - ind["value"]) <= 3.0 * est.stderr, seed
            # the window s_pair only reaches F1, which is 1 here
            est = eta_pairing_correlated(None, None, f, u, 4, 0.6,
                                         (0.1 + 0.04 * seed, 0.9), 50000,
                                         1, seed)
            assert abs(est.value - cor["value"]) <= 3.0 * est.stderr, seed
    # the weight one collapses to the mass
    code, row = run_eta({"command": "eta", "d": 4, "u": u,
                         "f": {"family": "one"}, "variant": "independent"})
    assert row["value"] == pytest.approx(mass_m(u, 4), rel=1e-10)


def test_raw_mc_small_kernel_sanity():
    # direct expectation oracle: E over the simplex of p_g(u) at large u is
    # dominated by the largest-gap region; just pin positivity and scale
    val, se = mc_simplex_raw([4.0 * U4], 4, 200000, seed=9)
    assert val >= 0.0
    assert val < float(heat_kernel(4.0 * U4, 1.0, 4)) + 3 * se
