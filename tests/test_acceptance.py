"""Acceptance suite: one criterion per test, one PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
are produced.  Every test also enforces its runtime budget.
"""

import math
import time

import numpy as np
import pytest

from thetalab import chaos
from thetalab import estimators as est
from thetalab import simplexquad as sq
from thetalab import variational as var
from thetalab.sampler import (IncrementConstraintSet, TimeGrid, make_rng,
                              sample_conditioned_bm)

U4 = np.array([1.0, 0.0, 0.0, 0.0])


def report(num, ok, desc):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {desc}")
    return ok


def test_criterion_01_dual_route_mass():
    t0 = time.time()
    worst = 0.0
    for norm in (0.5, 1.0, 2.0, 4.0):
        u = np.array([norm, 0.0, 0.0, 0.0])
        a = sq.mass_m(u, 4)
        b = sq.mass_m_direct(u, 4)
        worst = max(worst, abs(a - b) / abs(b))
    elapsed = time.time() - t0
    ok = worst <= 1e-8 and elapsed < 10.0
    assert report(1, ok, f"dual-route mass identity, worst rel err "
                         f"{worst:.2e} ({elapsed:.1f}s)")


def test_criterion_02_convolution_semigroup():
    t0 = time.time()
    t1, t2, eps = 0.2, 0.7, 0.02
    n = 10 ** 5
    rng = make_rng(1001, 0)
    x = rng.standard_normal((n, 4)) * math.sqrt(t2 - t1)
    from thetalab.kernels import heat_kernel, log_heat_kernel_sq
    diff = x - U4
    vals = np.exp(log_heat_kernel_sq(np.sum(diff * diff, axis=-1),
                                     eps, 4))
    want = float(heat_kernel(U4, t2 - t1 + eps, 4))
    se = vals.std(ddof=1) / math.sqrt(n)
    z = abs(vals.mean() - want) / se
    elapsed = time.time() - t0
    ok = z <= 3.0 and elapsed < 30.0
    assert report(2, ok, f"convolution-semigroup oracle, z={z:.2f} "
                         f"({elapsed:.1f}s)")


def test_criterion_03_estimator_duality():
    F = est.gaussian_bump((1.0,), np.zeros(4))
    ok = True
    msgs = []
    for us, seeds in (([U4], (41, 42)), ([U4, U4], (43, 44))):
        t0 = time.time()
        bridge = est.pairing_bridge(F, us, 4, 15625, 64, seed=seeds[0])
        eps, _ = est.pairing_epsilon(F, us, 4, (0.04, 0.02, 0.01),
                                     333333, seed=seeds[1])
        elapsed = time.time() - t0
        z = abs(bridge.value - eps.value) \
            / math.hypot(bridge.stderr, eps.stderr)
        ok = ok and bridge.agrees_with(eps) and elapsed < 600.0
        msgs.append(f"k={len(us) + 1} z={z:.2f} ({elapsed:.1f}s)")
    assert report(3, ok, "estimator duality at 1e6 budget, "
                         + ", ".join(msgs))


def test_criterion_04_ldp_slope():
    t0 = time.time()
    t_grid = [4.0, 8.0, 12.0, 16.0, 20.0]
    L2, _ = var.ldp_slope_fit(sq.ldp_mass_curve([U4], 4, t_grid))
    L3, _ = var.ldp_slope_fit(sq.ldp_mass_curve([U4, U4], 4, t_grid))
    elapsed = time.time() - t0
    e2 = abs(L2 - 0.5) / 0.5
    e3 = abs(L3 - 2.0) / 2.0
    ok = e2 <= 0.02 and e3 <= 0.03 and elapsed < 60.0
    assert report(4, ok, f"LDP slope limits: k=2 L={L2:.4f} "
                         f"({100 * e2:.2f}%), k=3 L={L3:.4f} "
                         f"({100 * e3:.2f}%) ({elapsed:.1f}s)")


def test_criterion_05_variational_consistency():
    t0 = time.time()
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(50):
        k = int(rng.integers(2, 6))
        us = [rng.normal(size=4) for _ in range(k - 1)]
        prog = var.ConstraintProgram(
            increments=tuple((None, None, u) for u in us))
        _, val, _ = var.minimize_energy(prog, n_restarts=1)
        want = var.closed_form_inf(us)
        worst = max(worst, abs(val - want) / max(1.0, want))
    elapsed = time.time() - t0
    ok = worst <= 1e-9 and elapsed < 60.0
    assert report(5, ok, f"variational consistency over 50 sets, worst "
                         f"rel err {worst:.2e} ({elapsed:.1f}s)")


def test_criterion_06_wick_inequality_fuzz():
    t0 = time.time()
    rng = np.random.default_rng(42)
    violations = 0
    for _ in range(1000):
        a = chaos.ChaosSpectrum(rng.uniform(0, 10, rng.integers(1, 41)))
        b = chaos.ChaosSpectrum(rng.uniform(0, 10, rng.integers(1, 41)))
        g1, g2 = rng.uniform(-3.0, -0.1, 2)
        lhs, _ = chaos.sobolev_norm_sq(chaos.wick_convolve(a, b),
                                       chaos.SobolevIndex(g1 + g2))
        ra, _ = chaos.sobolev_norm_sq(a, chaos.SobolevIndex(g1))
        rb, _ = chaos.sobolev_norm_sq(b, chaos.SobolevIndex(g2))
        if lhs > ra * rb * (1.0 + 1e-12):
            violations += 1
    elapsed = time.time() - t0
    ok = violations == 0 and elapsed < 5.0
    assert report(6, ok, f"Wick norm inequality fuzz, {violations} "
                         f"violations in 1000 ({elapsed:.1f}s)")


def test_criterion_07_series_dichotomy():
    # Mehler's formula sum_k a_k s^k = p^2 (1-s^2)^{-d/2} exp(|x|^2 s/(1+s))
    # is singular at s = 1, so a_k ~ C k^{d/2-1} with
    # C = (2 pi tau)^{-d} exp(-|u|^2 / 2 tau) 2^{-d/2} / Gamma(d/2).  The
    # (k+1)^gamma weighted tail past K then scales as K^{gamma+d/2}: it
    # shrinks for gamma < -d/2 and grows for gamma > -d/2.
    t0 = time.time()
    d, tau, K = 4, 0.3, 2000
    spec = chaos.IncrementSpec(U4, 0.0, tau)
    sp = chaos.delta_increment_spectrum(spec, d, K)
    C = (2.0 * math.pi * tau) ** -d \
        * math.exp(-float(U4 @ U4) / (2.0 * tau)) \
        * 2.0 ** (-d / 2.0) / math.gamma(d / 2.0)
    k = np.arange(801, K + 1, dtype=float)
    halves = []
    for gamma, name in ((-2.5, "convergent"), (-1.5, "divergent")):
        s = chaos.sobolev_partial_sums(sp, chaos.SobolevIndex(gamma))
        tail = float(s[K] - s[800])
        want = C * float(np.sum((k + 1.0) ** gamma * k ** (d / 2.0 - 1.0)))
        doubling = float((s[K] - s[K // 2]) / (s[K // 2] - s[K // 4]))
        rate = 2.0 ** (gamma + d / 2.0)
        half_ok = abs(tail / want - 1.0) <= 0.01 \
            and abs(doubling / rate - 1.0) <= 0.01
        desc = (f"{name} gamma={gamma}: tail past K=800 {tail:.4e} vs "
                f"Mehler {want:.4e} (ratio {tail / want:.4f}), doubling "
                f"{doubling:.4f} vs 2^(gamma+d/2)={rate:.4f}")
        if gamma > -d / 2.0:
            # no plateau: the last quarter still contributes > 5% of the total
            growth = float(s[K] - s[1500])
            half_ok = half_ok and growth > 0.05 * s[K] \
                and bool(np.all(np.diff(s[::100]) > 0.0))
            desc += f", last-quarter growth {growth:.3f}"
        halves.append((name, half_ok, desc))
    elapsed = time.time() - t0
    ok = all(h[1] for h in halves) and elapsed < 60.0
    failed = [f"{h[0]} half" for h in halves if not h[1]]
    assert report(7, ok, "series dichotomy: "
                         + "; ".join(h[2] for h in halves)
                         + f" ({elapsed:.1f}s)"), (
        "failed: " + (", ".join(failed) or "runtime budget"))


def test_criterion_08_eta_mass_asymptotic():
    t0 = time.time()
    norms = [2.0 ** -m for m in range(9)]
    slopes = {}
    for fam, p in (("one", 0.0), ("indicator_pos", 0.0),
                   ("abs_power", 0.5)):
        f = est.WeightFunction(fam, p)
        _, slope = est.eta_mass_scan(f, 4, norms)
        slopes[fam] = slope
    elapsed = time.time() - t0
    ok = all(s >= -2.6 for s in slopes.values()) and elapsed < 60.0
    desc = ", ".join(f"{k}: {v:.3f}" for k, v in slopes.items())
    assert report(8, ok, f"eta-mass log-log slopes >= -2.6 ({desc}) "
                         f"({elapsed:.1f}s)")


def test_criterion_09_correlated_oracle():
    t0 = time.time()
    f = est.WeightFunction("indicator_pos")

    def F1(v):
        return np.exp(-np.sum(v * v, axis=-1) / 2.0)

    cond = est.eta_pairing_correlated(F1, None, f, U4, 4, 0.6,
                                      (0.2, 0.6), 200000, 64, seed=5,
                                      t_pair=(0.4, 0.8))
    direct = est.eta_pairing_correlated_direct(
        F1, None, f, U4, 4, 0.6, (0.2, 0.6), 0.005, 4000000, seed=6,
        t_pair=(0.4, 0.8))
    z = abs(cond.value - direct.value) \
        / math.hypot(cond.stderr, direct.stderr)
    elapsed = time.time() - t0
    ok = cond.agrees_with(direct) and elapsed < 600.0
    assert report(9, ok, f"correlated-case oracle at eps=0.005, z={z:.2f} "
                         f"({elapsed:.1f}s)")


def test_criterion_10_schilder_desk_scale():
    t0 = time.time()
    rows, warning = var.schilder_empirical_slope(
        var.halfspace_set(1.0), 2, [3.0, 4.0, 5.0, 6.0, 8.0], 100000,
        seed=17)
    L, _ = var.ldp_slope_fit([(t, y) for t, y, _, _ in rows])
    min_ess = min(r[3] for r in rows)
    elapsed = time.time() - t0
    rel = abs(L - 0.5) / 0.5
    ok = rel <= 0.05 and min_ess >= 1000 and not warning \
        and elapsed < 120.0
    assert report(10, ok, f"Schilder halfspace slope L={L:.4f} "
                          f"({100 * rel:.2f}% of 0.5), min ESS "
                          f"{min_ess:.0f} ({elapsed:.1f}s)")


def test_criterion_11_support_and_positivity():
    t0 = time.time()
    grid = TimeGrid(np.linspace(0, 1, 33))
    u = np.array([1.0, -0.5, 0.0, 2.0])
    cons = IncrementConstraintSet(((0.25, 0.5, u),))
    g, vals = sample_conditioned_bm(grid, cons, 4, seed=9, n=10 ** 4)
    i1, i2 = g.index_of(0.25), g.index_of(0.5)
    resid = float(np.abs(vals[:, i2] - vals[:, i1] - u).max())

    nonneg_ok = True
    for F in (est.gaussian_bump((1.0,), np.zeros(4)),
              est.coordinate_indicator_box((0.5,), [-1] * 4, [1] * 4),
              est.constant_one()):
        b = est.pairing_bridge(F, [U4], 4, 20000, 8, seed=51)
        e, _ = est.pairing_epsilon(F, [U4], 4, (0.04, 0.02), 50000,
                                   seed=52)
        nonneg_ok = nonneg_ok and b.value >= -3.0 * b.stderr \
            and e.value >= -3.0 * e.stderr
    elapsed = time.time() - t0
    ok = resid <= 1e-12 and nonneg_ok and elapsed < 120.0
    assert report(11, ok, f"support residual {resid:.1e} on 1e4 paths; "
                          f"nonnegative payoffs >= -3 sigma "
                          f"({elapsed:.1f}s)")
