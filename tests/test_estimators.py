import math

import numpy as np
import pytest
from scipy.integrate import dblquad, quad

from oracles import GaussianConditioner, log_gap_tensor
from thetalab.errors import ContractError, DomainError
from thetalab.estimators import (EstimateWithError, WeightFunction,
                                 coordinate_indicator_box, constant_one,
                                 cylinder_mass, eta_mass_scan,
                                 eta_pairing_correlated,
                                 eta_pairing_correlated_direct,
                                 eta_pairing_independent,
                                 extrapolation_weights, gaussian_bump,
                                 make_payoff, pairing_bridge,
                                 pairing_epsilon, polynomial_clipped,
                                 support_check)
from thetalab.kernels import heat_kernel
from thetalab.sampler import (IncrementConstraintSet, TimeGrid,
                              sample_conditioned_bm, window_regression)
from thetalab.simplexquad import (SimplexIntegrand, eta_mass_integral,
                                  gap_reduced_integral, mass_m)

U4 = np.array([1.0, 0.0, 0.0, 0.0])


def test_estimate_contract():
    with pytest.raises(ContractError):
        EstimateWithError(math.nan, 0.1, 10, "x")
    with pytest.raises(ContractError):
        EstimateWithError(1.0, -0.1, 10, "x")
    with pytest.raises(ContractError):
        EstimateWithError(1.0, math.nan, 10, "x")
    a = EstimateWithError(1.0, 0.1, 10, "x")
    b = EstimateWithError(1.25, 0.1, 10, "y")
    assert a.agrees_with(b) and not a.agrees_with(b, n_sigma=1.0)


def test_payoff_catalogue():
    for pid, params in (("one", {}),
                        ("gaussian_bump", {"times": [1.0],
                                           "center": [0.0] * 4}),
                        ("indicator_box", {"times": [0.5], "lo": [-1] * 4,
                                           "hi": [1] * 4}),
                        ("polynomial_clipped", {"times": [1.0],
                                                "coeffs": [1, 0]})):
        F = make_payoff(pid, params)
        vals = np.zeros((3, len(F.eval_times), 4))
        out = F(vals)
        assert out.shape == (3,)
    with pytest.raises(ContractError):
        make_payoff("nope")
    with pytest.raises(ContractError, match="'gaussian_bump'.*'center'"):
        make_payoff("gaussian_bump", {"times": [1.0]})
    with pytest.raises(ContractError, match="'one'.*'width'"):
        make_payoff("one", {"width": 2.0})
    with pytest.raises(ContractError, match="'one'"):
        make_payoff("one", {"times": [0.5, 0.7]})
    with pytest.raises(ContractError):
        coordinate_indicator_box([0.5], [1.0], [0.0])
    with pytest.raises(ContractError):
        constant_one(1.5)


def test_weight_function_families():
    with pytest.raises(ContractError):
        WeightFunction("bogus")
    with pytest.raises(ContractError):
        WeightFunction("abs_power", -1.0)
    f = WeightFunction("indicator_pos")
    assert f.gaussian_moment(1.0) == pytest.approx(0.5)
    f = WeightFunction("abs_power", 1.0)
    # E|N(0, var)| = sqrt(2 var / pi)
    assert f.gaussian_moment(0.49) \
        == pytest.approx(math.sqrt(2 * 0.49 / math.pi), rel=1e-10)
    f = WeightFunction("one")
    assert f.gaussian_moment(3.0) == pytest.approx(1.0)


def test_weight_moment_vs_mc():
    rng = np.random.default_rng(3)
    z = rng.standard_normal(400000)
    for fam, p, mean, var in (("exp_abs", 0.7, 0.0, 0.8),
                              ("abs_power", 1.5, 0.0, 1.3),
                              ("indicator_pos", 0.0, 0.4, 0.6)):
        f = WeightFunction(fam, p)
        samples = f(mean + math.sqrt(var) * z)
        want = float(f.gaussian_moment(var, mean=mean))
        se = samples.std(ddof=1) / math.sqrt(z.size)
        assert abs(samples.mean() - want) <= 4.0 * se


def test_weight_moments_match_adaptive_quadrature():
    # the closed forms against scipy.quad split at the kink of f; var down
    # to 1e-14 reaches the series branch of |x|^p at mean^2/(2 var) > 1e8,
    # and at 1e-300 var^{p/2} 1F1 would be 0 times inf
    for fam, p in (("abs_power", 0.5), ("abs_power", 2.0), ("abs_power", 3.0),
                   ("abs_power", 7.0), ("exp_abs", 1.0), ("exp_abs", -2.0),
                   ("exp_abs", 3.0)):
        f = WeightFunction(fam, p)
        for mean in (0.0, 0.3, -0.6, 2.0):
            for var in (1e-300, 1e-14, 1e-9, 1e-3, 0.64, 4.0):
                sd = math.sqrt(var)
                want, _ = quad(
                    lambda x: float(f(mean + sd * x))
                    * math.exp(-x * x / 2.0) / math.sqrt(2.0 * math.pi),
                    -40.0, 40.0, limit=400, epsabs=0.0, epsrel=1e-13,
                    points=[-mean / sd] if abs(mean) < 30.0 * sd else None)
                got = float(f.gaussian_moment(var, mean=mean))
                assert got == pytest.approx(want, rel=1e-12), \
                    (fam, p, mean, var)


def test_bridge_mass_reduction_k2():
    F = constant_one()
    est = pairing_bridge(F, [U4], 4, 20000, 4, seed=21)
    assert abs(est.value - mass_m(U4, 4)) <= 3.0 * est.stderr


def test_bridge_mass_reduction_k3():
    F = constant_one()
    est = pairing_bridge(F, [U4, U4], 4, 40000, 2, seed=22)
    want = gap_reduced_integral(SimplexIntegrand(4, (U4, U4))).value
    assert abs(est.value - want) <= 3.0 * est.stderr


def test_bridge_gaussian_bump_conditional_oracle():
    # F(w) = exp(-||w(1)||^2/2); conditional on the (t1,t2) increment = u,
    # w(1) ~ N(u, (1 - (t2-t1)) I), so E[F | inc] has a closed form and the
    # pairing is a plain 2-d integral over the simplex.
    d = 2
    u = np.array([1.0, 0.0])
    F = gaussian_bump((1.0,), np.zeros(d))

    def integrand(t2, t1):
        tau = t2 - t1
        v = 1.0 - tau
        cond = (1.0 + v) ** (-d / 2.0) \
            * math.exp(-float(u @ u) / (2.0 * (1.0 + v)))
        return cond * float(heat_kernel(u, tau, d))

    want, _ = dblquad(integrand, 0.0, 1.0, lambda t1: t1, lambda t1: 1.0)
    est = pairing_bridge(F, [u], d, 20000, 16, seed=23)
    assert abs(est.value - want) <= 3.0 * est.stderr


def test_epsilon_rung_semigroup_oracle():
    # per-eps value equals the eps-shifted simplex integral, and the
    # extrapolated value the unshifted one
    F = constant_one()
    for us, rungs, n in (((U4,), (0.08, 0.04), 150000),
                         ((U4, U4), (0.04, 0.02, 0.01), 100000)):
        est, ladder = pairing_epsilon(F, us, 4, rungs, n, seed=24)
        for eps, val, se in ladder:
            want = math.exp(log_gap_tensor([1.0] * len(us), 4, eps,
                                            1e-10)[0])
            assert abs(val - want) <= 3.0 * se
        want = gap_reduced_integral(SimplexIntegrand(4, us)).value
        assert abs(est.value - want) <= 3.0 * est.stderr


def test_epsilon_ladder_contract():
    F = constant_one()
    with pytest.raises(ContractError):
        pairing_epsilon(F, [U4], 4, (0.04,), 100, seed=0)
    with pytest.raises(ContractError):
        pairing_epsilon(F, [U4], 4, (0.01, 0.04), 100, seed=0)
    with pytest.raises(DomainError):
        pairing_bridge(F, [np.zeros(4)], 4, 10, 1, seed=0)


def test_small_d_warns():
    F = constant_one()
    with pytest.warns(UserWarning):
        pairing_bridge(F, [np.array([1.0, 0.0])], 2, 100, 1, seed=0)


def test_duality_small_budget():
    F = gaussian_bump((1.0,), np.zeros(4))
    b = pairing_bridge(F, [U4], 4, 4000, 16, seed=25)
    e, _ = pairing_epsilon(F, [U4], 4, (0.04, 0.02, 0.01), 60000, seed=26)
    assert b.agrees_with(e)


def test_duality_k3_over_seeds():
    # the epsilon route's error covers bridge at k=3 on every seed
    F = gaussian_bump((1.0,), np.zeros(4))
    for seed in range(20):
        b = pairing_bridge(F, [U4, U4], 4, 2000, 8, seed=1000 + seed)
        e, _ = pairing_epsilon(F, [U4, U4], 4, (0.04, 0.02, 0.01), 20000,
                               seed=2000 + seed)
        assert b.agrees_with(e), (seed, b, e)


def test_duality_k3_at_interior_times():
    # at eval times inside the windows the epsilon route's shares are not
    # 1; the bridge route, which conditions whole paths, is the reference
    F = gaussian_bump((0.3, 0.7), np.zeros(8))
    for seed in range(6):
        b = pairing_bridge(F, [U4, U4], 4, 2000, 8, seed=3000 + seed)
        e, _ = pairing_epsilon(F, [U4, U4], 4, (0.04, 0.02, 0.01), 20000,
                               seed=4000 + seed)
        assert b.agrees_with(e), (seed, b, e)


def test_pairing_linearity():
    bump = gaussian_bump((1.0,), np.zeros(4))
    one = constant_one(1.0)

    def combo(values):
        return 2.0 * bump.payoff(values) + 0.5 * one.payoff(values)

    from thetalab.estimators import CylinderFunctional
    F = CylinderFunctional((1.0,), combo, "combo")
    pc = pairing_bridge(F, [U4], 4, 20000, 8, seed=27)
    pb = pairing_bridge(bump, [U4], 4, 20000, 8, seed=27)
    po = pairing_bridge(one, [U4], 4, 20000, 8, seed=27)
    tol = 3.0 * math.hypot(pc.stderr, math.hypot(2 * pb.stderr,
                                                 0.5 * po.stderr))
    assert abs(pc.value - (2.0 * pb.value + 0.5 * po.value)) <= tol


def test_far_target_mass_negligible():
    F = constant_one()
    u = np.array([6.0, 0.0, 0.0, 0.0])
    b = pairing_bridge(F, [u], 4, 50000, 1, seed=28)
    e, _ = pairing_epsilon(F, [u], 4, (0.04, 0.02), 50000, seed=29)
    assert b.value < 1e-8 + 3 * b.stderr
    assert e.value < 1e-8 + 3 * e.stderr
    assert b.agrees_with(e)


def test_cylinder_mass_whole_space_and_monotone():
    times = (0.5, 1.0)
    big = 50.0
    whole = cylinder_mass(times, [-big] * 4, [big] * 4, [U4], 4,
                          20000, 4, seed=30)
    assert abs(whole.value - mass_m(U4, 4)) <= 3.0 * whole.stderr
    chain = []
    for half in (0.5, 1.0, 2.0):
        est = cylinder_mass(times, [-half] * 4, [half] * 4, [U4], 4,
                            20000, 4, seed=30)
        chain.append(est)
    for small, large in zip(chain, chain[1:]):
        assert small.value <= large.value \
            + 3.0 * math.hypot(small.stderr, large.stderr)
    with pytest.raises(ContractError):
        cylinder_mass((), [-1] * 4, [1] * 4, [U4], 4, 10, 1, seed=0)


def test_cylinder_mass_support_exclusion():
    # tiny box at the origin around a ||u||=2 constraint window: the
    # constrained increment cannot happen inside the box
    u = 2.0 * U4
    est = cylinder_mass((0.3, 0.7), [-0.01] * 4, [0.01] * 4, [u], 4,
                        20000, 4, seed=31)
    assert est.value <= 3.0 * est.stderr + 1e-10


def test_eta_independent_reductions():
    f_one = WeightFunction("one")
    est = eta_pairing_independent(None, None, f_one, U4, 4, 60000, 1,
                                  seed=32)
    assert abs(est.value - mass_m(U4, 4)) <= 3.0 * est.stderr
    f_pos = WeightFunction("indicator_pos")
    est = eta_pairing_independent(None, None, f_pos, U4, 4, 60000, 1,
                                  seed=33)
    assert abs(est.value - mass_m(U4, 4) / 2.0) <= 3.0 * est.stderr
    f_abs = WeightFunction("abs_power", 1.0)
    est = eta_pairing_independent(None, None, f_abs, U4, 4, 60000, 1,
                                  seed=34)
    want = eta_mass_integral(U4, 4, f_abs.gaussian_moment)
    assert abs(est.value - want) <= 3.0 * est.stderr


def test_eta_correlated_reductions():
    f_one = WeightFunction("one")
    est = eta_pairing_correlated(None, None, f_one, U4, 4, 0.5,
                                 (0.2, 0.6), 60000, 1, seed=35)
    assert abs(est.value - mass_m(U4, 4)) <= 3.0 * est.stderr
    # both correlated routes reject the same inputs before sampling
    routes = (
        lambda r, s, t: eta_pairing_correlated(
            None, None, f_one, U4, 4, r, s, 10, 1, seed=0, t_pair=t),
        lambda r, s, t: eta_pairing_correlated_direct(
            None, None, f_one, U4, 4, r, s, 0.01, 10, seed=0, t_pair=t))
    bad = [(DomainError, (r, (0.2, 0.6), None)) for r in (1.2, 0.0, -0.5)]
    bad += [(ContractError, (0.5, s, None))
            for s in ((0.6, 0.2), (0.4, 0.4), (-0.1, 0.5), (0.5, 1.2))]
    bad += [(ContractError, (0.5, (0.2, 0.6), t))
            for t in ((0.8, 0.4), (0.4, 0.4), (0.4, 1.5), (-0.2, 0.5),
                      (0.1, 0.2, 0.3))]
    for route in routes:
        for exc, args in bad:
            with pytest.raises(exc):
                route(*args)


def test_eta_correlated_disjoint_window_alpha_zero():
    # disjoint (s, t) windows: F1 sees only the independent Gaussian X
    f = WeightFunction("one")

    def F1(v):
        return np.exp(-np.sum(v * v, axis=-1) / 2.0)

    est = eta_pairing_correlated(F1, None, f, U4, 4, 0.5, (0.0, 0.05),
                                 60000, 32, seed=36,
                                 t_pair=(0.5, 0.9))
    # alpha = 0, X ~ N(0, 0.05 I): E F1(X) = (1.05)^{-2}
    want = float(heat_kernel(U4, 0.4, 4)) * 1.05 ** -2
    assert abs(est.value - want) <= 3.0 * est.stderr


def test_eta_independent_f1_is_the_bridge_pairing():
    # with f = 1 both routes are the k = 2 pairing of the unit bump at
    # t = 1 with theta_u; given the gap tau, w(1) ~ N(u, v I) with
    # v = 1 - tau, so it is also a 1-d integral over tau with weight v
    F = gaussian_bump((1.0,), np.zeros(4))
    f = WeightFunction("one")

    def integrand(tau):
        v = 1.0 - tau
        return v * (1.0 + v) ** -2 * math.exp(-0.5 / (1.0 + v)) \
            * float(heat_kernel(U4, tau, 4))

    want, _ = quad(integrand, 0.0, 1.0, epsabs=0.0, epsrel=1e-12)
    for seed in range(5):
        a = eta_pairing_independent(F, None, f, U4, 4, 20000, 8,
                                    seed=60 + seed)
        b = pairing_bridge(F, [U4], 4, 20000, 8, seed=70 + seed)
        assert a.agrees_with(b), (seed, a, b)
        assert abs(a.value - want) <= 3.0 * a.stderr, (seed, a, want)


def test_window_regression_matches_gaussian_conditioner():
    # the closed-form regression of w(s2) - w(s1) on w(t2) - w(t1) = u that
    # eta_pairing_correlated takes from the sampler, against the
    # Schur-complement oracle, over random windows (disjoint, nested and
    # partly overlapping)
    rng = np.random.default_rng(40)
    s = np.sort(rng.random((200, 2)), axis=1)
    t = np.sort(rng.random((200, 2)), axis=1)
    u = np.array([0.7, -1.2, 0.4, 2.0])
    for (s1, s2), t_row in zip(s, t):
        shares, var_x = window_regression(s1, s2, t_row[None])
        alpha = shares[:, 0]
        cond = GaussianConditioner([t_row], [u])
        mean, var = cond.condition_increment(s1, s2)
        assert alpha[0] == pytest.approx(
            cond.alpha_coefficients(s1, s2)[0], abs=1e-12)
        assert np.allclose(alpha[0] * u, mean, rtol=0.0, atol=1e-12)
        assert var_x[0] == pytest.approx(var, abs=1e-12)


def test_eta_correlated_vs_direct_small():
    f = WeightFunction("indicator_pos")
    a = eta_pairing_correlated(None, None, f, U4, 4, 0.6, (0.2, 0.6),
                               50000, 8, seed=37, t_pair=(0.4, 0.8))
    b = eta_pairing_correlated_direct(None, None, f, U4, 4, 0.6,
                                      (0.2, 0.6), 0.005, 400000, seed=38,
                                      t_pair=(0.4, 0.8))
    assert a.agrees_with(b)


def test_sample_counts_are_checked_before_sampling():
    # every route needs n >= 2 outer samples (a stderr) and n_inner >= 1
    F = constant_one()
    f = WeightFunction("one")
    routes = {
        "bridge": lambda n, m: pairing_bridge(F, [U4], 4, n, m, seed=0),
        "cylinder": lambda n, m: cylinder_mass(
            (0.5,), [-1.0] * 4, [1.0] * 4, [U4], 4, n, m, seed=0),
        "epsilon": lambda n, m: pairing_epsilon(F, [U4], 4, (0.04, 0.02), n,
                                                seed=0)[0],
        "eta-independent": lambda n, m: eta_pairing_independent(
            None, None, f, U4, 4, n, m, seed=0),
        "eta-correlated": lambda n, m: eta_pairing_correlated(
            None, None, f, U4, 4, 0.5, (0.2, 0.6), n, m, seed=0),
        "eta-correlated-fixed": lambda n, m: eta_pairing_correlated(
            None, None, f, U4, 4, 0.5, (0.2, 0.6), n, m, seed=0,
            t_pair=(0.4, 0.8)),
        "direct": lambda n, m: eta_pairing_correlated_direct(
            None, None, f, U4, 4, 0.5, (0.2, 0.6), 0.01, n, seed=0),
    }
    for name, route in routes.items():
        for n in (0, 1):
            with pytest.raises(ContractError, match=f"n={n},"):
                route(n, 1)
        if name not in ("epsilon", "direct"):  # no inner samples
            with pytest.raises(ContractError, match="n_inner=0"):
                route(10, 0)
        assert route(2, 1).n_samples == 2, name


def test_beta_payoffs_are_rejected():
    # payoffs of beta (F2) are not supported by any eta route
    f = WeightFunction("one")
    F2 = constant_one()
    with pytest.raises(ContractError, match="F2"):
        eta_pairing_independent(None, F2, f, U4, 4, 10, 1, seed=0)
    with pytest.raises(ContractError, match="F2"):
        eta_pairing_correlated(None, F2, f, U4, 4, 0.5, (0.2, 0.6), 10, 1,
                               seed=0)
    with pytest.raises(ContractError, match="F2"):
        eta_pairing_correlated_direct(None, F2, f, U4, 4, 0.5, (0.2, 0.6),
                                      0.01, 10, seed=0)


def test_extrapolation_weights_recover_polynomials():
    assert extrapolation_weights([0.04, 0.02, 0.01]) \
        == pytest.approx([1 / 3, -2.0, 8 / 3], rel=1e-12)
    assert extrapolation_weights([0.3]) == pytest.approx([1.0])
    rng = np.random.default_rng(41)
    for eps in ([0.04, 0.02, 0.01], [0.08, 0.04], [0.1, 0.05, 0.02, 0.01]):
        w = extrapolation_weights(eps)
        linear = [1.0 + 3.0 * e for e in eps]
        assert w @ linear == pytest.approx(1.0, abs=1e-10)
        coef = rng.standard_normal(len(eps))  # degree len(eps) - 1
        assert w @ np.polyval(coef, eps) \
            == pytest.approx(coef[-1], abs=1e-10)


def test_eta_mass_scan_properties():
    f = WeightFunction("one")
    pairs, slope = eta_mass_scan(f, 4, [1.0, 0.5, 0.25, 0.125])
    masses = [m for _, m in pairs]
    assert all(b > a for a, b in zip(masses, masses[1:]))
    assert masses[0] == pytest.approx(mass_m(U4, 4), rel=1e-8)
    with pytest.raises(ContractError):
        eta_mass_scan(f, 4, [0.5, 1.0])


def test_support_check_witness():
    grid = TimeGrid(np.linspace(0, 1, 65))
    u = np.array([0.8, 0.0])
    cons = IncrementConstraintSet(((0.25, 0.75, u),))
    _, vals = sample_conditioned_bm(grid, cons, 2, seed=39)
    ok, witness = support_check(vals[0], [u], tol=1e-9)
    assert ok and len(witness) == 2


def test_support_check_linear_path_false():
    t = np.linspace(0, 1, 33)
    v = np.array([0.05, 0.0])
    values = t[:, None] * v
    ok, _ = support_check(values, [2.0 * v], tol=1e-3)
    assert not ok
