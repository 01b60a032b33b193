"""Built-in invariant suites runnable from the command line.

Each check is a named callable; the runner stops reporting success at the
first violated invariant so a corrupted build points straight at the
earliest broken layer (kernel identities are checked before everything
that consumes them).
"""

import math

import numpy as np
from scipy.special import exp1, gamma, gammaincc

from . import chaos, estimators, kernels, sampler, simplexquad, variational
from .errors import ContractError


def _check_heat_kernel():
    z = np.array([1.0, 1.0])
    got = kernels.log_heat_kernel(z, 0.5, 2)
    want = math.log(1.0 / math.pi) - 2.0
    assert abs(got - want) < 1e-12, f"heat kernel off: {got} vs {want}"
    norms = np.linspace(0.0, 5.0, 40)
    vals = [kernels.log_heat_kernel(np.array([r, 0.0]), 0.3, 2)
            for r in norms]
    assert np.all(np.diff(vals) < 0.0), "kernel not monotone in ||z||"


def _check_hermite():
    rng = np.random.default_rng(0)
    for x in rng.uniform(-10, 10, 25):
        for n in range(2, 40):
            lhs = kernels.hermite_eval(n + 1, x)
            rhs = x * kernels.hermite_eval(n, x) \
                - n * kernels.hermite_eval(n - 1, x)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs)), \
                "Hermite recurrence violated"
    assert kernels.hermite_eval(3, 2.0) == 2.0


def _check_mass_dual_route():
    for norm in (0.5, 2.0):
        u = np.array([norm, 0.0, 0.0, 0.0])
        a = simplexquad.mass_m(u, 4)
        b = simplexquad.mass_m_direct(u, 4)
        assert abs(a - b) <= 1e-8 * abs(b), \
            f"mass dual-route mismatch at ||u||={norm}: {a} vs {b}"


def _check_wick_identity():
    e0 = chaos.ChaosSpectrum(np.array([1.0, 0.0, 0.0]))
    b = chaos.ChaosSpectrum(np.array([0.5, 1.5, 2.5]))
    c = chaos.wick_convolve(e0, b)
    assert np.allclose(c.levels[:3], b.levels), \
        "Wick identity element broken"
    two = chaos.wick_convolve(chaos.ChaosSpectrum(np.array([1.0, 1.0])),
                              chaos.ChaosSpectrum(np.array([1.0, 1.0])))
    assert np.allclose(two.levels, [1.0, 2.0, 1.0])


def _check_wick_inequality(n_cases):
    rng = np.random.default_rng(42)
    for _ in range(n_cases):
        a = chaos.ChaosSpectrum(rng.uniform(0, 10, rng.integers(1, 41)))
        b = chaos.ChaosSpectrum(rng.uniform(0, 10, rng.integers(1, 41)))
        g1, g2 = rng.uniform(-3.0, -0.1, 2)
        lhs, _ = chaos.sobolev_norm_sq(chaos.wick_convolve(a, b),
                                       chaos.SobolevIndex(g1 + g2))
        ra, _ = chaos.sobolev_norm_sq(a, chaos.SobolevIndex(g1))
        rb, _ = chaos.sobolev_norm_sq(b, chaos.SobolevIndex(g2))
        assert lhs <= ra * rb * (1.0 + 1e-12), "Wick norm inequality violated"


def _check_gap_identity():
    u = np.array([1.0, 0.0, 0.0, 0.0])
    det = simplexquad.gap_reduced_integral(
        simplexquad.SimplexIntegrand(4, (u,))).value
    mc, se = simplexquad.mc_simplex_raw([u], 4, 200000, seed=5)
    assert abs(det - mc) <= 3.0 * se, "gap reduction disagrees with raw MC"


def _check_ldp_curve():
    # one inversion for the whole curve; at d = 4, k = 2 each point's mass
    # is (2 pi)^-2 [e^-a / a - E_1(a)], a = t^2 |u|^2 / 2
    for t, y, _ in simplexquad.ldp_mass_curve([[0.6, 0.0, -0.8, 0.0]], 4,
                                              np.arange(4.0, 21.0, 4.0)):
        a = t * t / 2.0
        want = math.log((math.exp(-a) / a - exp1(a)) / (2.0 * math.pi) ** 2)
        err = abs(math.expm1(-y * t * t - want))
        assert err <= 1e-10, f"ldp curve mass off by {err:.2e} at t={t}"


def _check_conditioned_residuals(n):
    grid = sampler.TimeGrid(np.linspace(0, 1, 33))
    cons = sampler.IncrementConstraintSet(
        (((0.25, 0.5, np.array([1.0, -0.5, 0.0, 2.0])),)))
    g, vals = sampler.sample_conditioned_bm(grid, cons, 4, seed=9, n=n)
    i1, i2 = g.index_of(0.25), g.index_of(0.5)
    res = np.abs(vals[:, i2] - vals[:, i1]
                 - np.array([1.0, -0.5, 0.0, 2.0])).max()
    assert res <= 1e-12, f"constraint residual {res} above 1e-12"


def _check_cm_martingale(n):
    grid = sampler.TimeGrid(np.linspace(0, 1, 33))
    rng = sampler.make_rng(11, 0)
    incs = sampler.sample_bm_increments(grid, 2, n, rng)
    phi = sampler.shift_on_grid(grid, [0.0, 1.0],
                                [[0.0, 0.0], [1.0, -0.5]])
    _, logw = sampler.cameron_martin_weight(grid, incs, phi)
    w = np.exp(logw)
    err = abs(w.mean() - 1.0)
    assert err <= 3.0 * w.std(ddof=1) / math.sqrt(n), \
        "importance weights are not mean-one"


def _check_energy_minimizer(n_cases):
    rng = np.random.default_rng(3)
    for _ in range(n_cases):
        k = int(rng.integers(2, 4))
        us = [rng.normal(size=4) for _ in range(k - 1)]
        prog = variational.ConstraintProgram(
            increments=tuple((None, None, u) for u in us))
        path, val, _ = variational.minimize_energy(prog)
        want = variational.closed_form_inf(us)
        assert abs(val - want) <= 1e-6 * max(1.0, want), \
            f"energy minimum {val} vs closed form {want}"
        # the route uses the formula too: check that its path meets every
        # target in order and has the reported energy
        sums = np.cumsum([np.zeros(4), *us], axis=0)
        miss = np.abs(path.values[None] - sums[:, None]).max(axis=2)
        hits = miss.argmin(axis=1)
        assert miss.min(axis=1).max() <= 1e-12 and np.all(np.diff(hits) > 0), \
            "minimizer path misses a target"
        energy = variational.path_energy(path)
        assert abs(energy - val) <= 1e-12 * max(1.0, val), \
            f"path energy {energy} vs reported minimum {val}"


def _check_box_minimizer(n_cases):
    rng = np.random.default_rng(4)
    for _ in range(n_cases):
        k = int(rng.integers(2, 4))
        coord = int(rng.integers(0, 4))
        a = float(rng.uniform(0.2, 2.0))
        us = [rng.normal(size=4) * (np.arange(4) != coord)
              for _ in range(k - 1)]
        lo = np.full(4, -math.inf)
        lo[coord] = a
        prog = variational.ConstraintProgram(
            increments=tuple((None, None, u) for u in us),
            boxes=(variational.BoxConstraint(1.0, lo=lo),))
        path, val, _ = variational.minimize_energy(prog)
        # targets orthogonal to the normal: the climb to a is one more
        # leg, so the value is (sum |u_j| + a)^2 / 2
        want = variational.closed_form_inf([*us, a * np.eye(4)[coord]])
        assert abs(val - want) <= 1e-9 * max(1.0, want), \
            f"box minimum {val} vs closed form {want}"
        assert path.knots[-1] == 1.0 and path.values[-1, coord] >= a - 1e-8, \
            "box minimizer misses the half-space at time 1"
        energy = variational.path_energy(path)
        assert abs(energy - val) <= 1e-12 * max(1.0, val), \
            f"box path energy {energy} vs reported minimum {val}"


def _check_slope_fit():
    t = np.array([4.0, 8.0, 12.0, 16.0])
    L, _ = variational.ldp_slope_fit(list(zip(t, 0.5 - 1.0 / t ** 2)))
    assert abs(L - 0.5) < 1e-10, "slope fit misses exact model"


def _check_support():
    grid = sampler.TimeGrid(np.linspace(0, 1, 65))
    u = np.array([0.8, 0.0])
    cons = sampler.IncrementConstraintSet(((0.25, 0.75, u),))
    _, vals = sampler.sample_conditioned_bm(grid, cons, 2, seed=21)
    ok, _ = estimators.support_check(vals[0], [u], tol=1e-9)
    assert ok, "conditioned path missing its own constraint witness"


def _check_estimator_duality(budget):
    u = np.array([1.0, 0.0, 0.0, 0.0])
    F = estimators.gaussian_bump((1.0,), np.zeros(4))
    n = int(math.sqrt(budget))
    # the bridge side samples whole paths (a custom functional has no closed
    # form), so the check sets sampling against the epsilon closed form
    sampled = estimators.CylinderFunctional(F.eval_times, F.payoff)
    bridge = estimators.pairing_bridge(sampled, [u], 4, n, n, seed=31)
    epsd, _ = estimators.pairing_epsilon(F, [u], 4, (0.04, 0.02, 0.01),
                                         budget, seed=32)
    assert bridge.agrees_with(epsd, 3.0), \
        f"bridge {bridge.value} vs epsilon {epsd.value} beyond 3 sigma"


def _check_eta_scan():
    # at d = 4 the |x|^p weight has M(g) = c_p g^{p/2}, and the mass at
    # a = |u|^2/2 is c_p (2 pi)^{-2} [a^{p/2-1} G(1-p/2, a) - a^{p/2}
    # G(-p/2, a)] with c_p = 2^{p/2} Gamma((p+1)/2)/sqrt(pi), G the upper
    # incomplete gamma function and G(s, a) = (G(s+1, a) - a^s e^{-a})/s
    p, s = 0.5, -0.25
    f = estimators.WeightFunction("abs_power", p)
    pairs, _ = estimators.eta_mass_scan(f, 4, [2.0 ** -m for m in range(6)])
    c = 2.0 ** (p / 2.0) * gamma((p + 1.0) / 2.0) / math.sqrt(math.pi)
    for norm, mass in pairs:
        a = norm * norm / 2.0
        upper = gammaincc(s + 1.0, a) * gamma(s + 1.0)
        lower = (upper - a ** s * math.exp(-a)) / s
        want = c * (a ** (-s - 1.0) * upper - a ** -s * lower) \
            / (2.0 * math.pi) ** 2
        assert abs(mass - want) <= 1e-10 * want, \
            f"eta mass {mass} vs closed form {want} at ||u||={norm}"


def checks_for(tier):
    quick = [
        ("heat-kernel-closed-form", _check_heat_kernel),
        ("hermite-recurrence", _check_hermite),
        ("mass-dual-route", _check_mass_dual_route),
        ("wick-identity-element", _check_wick_identity),
        ("wick-norm-inequality", lambda: _check_wick_inequality(100)),
        ("gap-reduction-vs-raw-mc", _check_gap_identity),
        ("ldp-curve-closed-form", _check_ldp_curve),
        ("conditioned-residuals", lambda: _check_conditioned_residuals(2000)),
        ("cameron-martin-mean-one", lambda: _check_cm_martingale(20000)),
        ("energy-closed-form", lambda: _check_energy_minimizer(3)),
        ("box-halfspace-closed-form", lambda: _check_box_minimizer(3)),
        ("slope-fit-exact-model", _check_slope_fit),
        ("support-witness", _check_support),
    ]
    if tier == "quick":
        return quick
    return quick + [
        ("wick-norm-inequality-full", lambda: _check_wick_inequality(1000)),
        ("estimator-duality", lambda: _check_estimator_duality(250000)),
        ("eta-mass-closed-form", _check_eta_scan),
        ("energy-closed-form-full", lambda: _check_energy_minimizer(10)),
        ("box-halfspace-closed-form-full", lambda: _check_box_minimizer(10)),
    ]


def run_selfcheck(tier="quick", report=print):
    """Run the invariant suite; returns True iff every check passed."""
    if tier not in ("quick", "full"):
        raise ContractError("tier: must be 'quick' or 'full'")
    for name, fn in checks_for(tier):
        try:
            fn()
        except AssertionError as exc:
            report(f"FAIL {name}: {exc}")
            return False
        report(f"PASS {name}")
    return True
