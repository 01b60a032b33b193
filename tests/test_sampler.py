import math

import numpy as np
import pytest

from oracles import GaussianConditioner
from thetalab.errors import ContractError, DomainError
from thetalab.sampler import (IncrementConstraintSet, TimeGrid,
                              cameron_martin_weight, interval_overlap,
                              make_rng, sample_bm_increments,
                              sample_conditioned_bm, shift_on_grid,
                              window_regression)


def test_time_grid_contract():
    with pytest.raises(ContractError):
        TimeGrid(np.array([0.1, 0.5]))       # must start at 0
    with pytest.raises(ContractError):
        TimeGrid(np.array([0.0, 0.5, 0.5]))  # strictly increasing
    with pytest.raises(ContractError):
        TimeGrid(np.array([0.0, 1.5]))       # inside [0, 1]
    g = TimeGrid(np.array([0.0, 0.25, 1.0]))
    assert np.allclose(g.dt, [0.25, 0.75])
    assert g.index_of(0.25) == 1
    with pytest.raises(ContractError):
        g.index_of(0.3)


def test_constraint_set_overlap_rejection():
    with pytest.raises(ContractError):
        IncrementConstraintSet(((0.2, 0.6, [1.0]), (0.4, 0.8, [1.0])))
    with pytest.raises(ContractError):
        IncrementConstraintSet(((0.5, 0.5, [1.0]),))
    # shared endpoints are the consecutive-increment case and are fine
    cs = IncrementConstraintSet(((0.2, 0.5, [1.0]), (0.5, 0.8, [2.0])))
    assert cs.endpoints() == [0.2, 0.5, 0.5, 0.8]


def test_rng_streams_deterministic_and_disjoint():
    a = make_rng(123, 0).standard_normal(8)
    b = make_rng(123, 0).standard_normal(8)
    c = make_rng(123, 1).standard_normal(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_bm_increment_variance():
    grid = TimeGrid(np.linspace(0, 1, 9))
    incs = sample_bm_increments(grid, 2, 40000, make_rng(1, 0))
    var = incs.var(axis=0).mean(axis=-1)
    assert np.allclose(var, grid.dt, rtol=0.05)


def test_conditioned_residuals_exact():
    grid = TimeGrid(np.linspace(0, 1, 33))
    u = np.array([1.0, -0.5, 0.0, 2.0])
    cons = IncrementConstraintSet(((0.25, 0.5, u),))
    g, vals = sample_conditioned_bm(grid, cons, 4, seed=9, n=500)
    i1, i2 = g.index_of(0.25), g.index_of(0.5)
    assert np.abs(vals[:, i2] - vals[:, i1] - u).max() <= 1e-12


def test_bridge_marginal_moments():
    # conditioned on w(1) - w(0) = u, the midpoint is N(u/2, 1/4)
    grid = TimeGrid(np.linspace(0, 1, 17))
    u = np.array([2.0])
    cons = IncrementConstraintSet(((0.0, 1.0, u),))
    _, vals = sample_conditioned_bm(grid, cons, 1, seed=4, n=40000)
    mid = vals[:, grid.index_of(0.5), 0]
    assert mid.mean() == pytest.approx(1.0, abs=0.01)
    assert mid.var() == pytest.approx(0.25, rel=0.05)


def test_conditioned_dimension_mismatch():
    grid = TimeGrid(np.linspace(0, 1, 5))
    cons = IncrementConstraintSet(((0.25, 0.75, [1.0, 0.0]),))
    with pytest.raises(DomainError):
        sample_conditioned_bm(grid, cons, 3, seed=0)


def test_interval_overlap():
    assert interval_overlap((0.2, 0.6), (0.4, 0.8)) == pytest.approx(0.2)
    assert interval_overlap((0.0, 0.1), (0.5, 0.9)) == 0.0


def test_gaussian_conditioner_alpha_oracle():
    # constraint window (0.2, 0.6), query (0.4, 0.8):
    # alpha = overlap / window length = 0.2 / 0.4 = 0.5
    cond = GaussianConditioner([(0.2, 0.6)], [[1.0, 0.0]])
    alpha = cond.alpha_coefficients(0.4, 0.8)
    assert alpha[0] == pytest.approx(0.5, abs=1e-12)
    mean, var = cond.condition_increment(0.4, 0.8)
    assert np.allclose(mean, [0.5, 0.0])
    assert var == pytest.approx(0.4 - 0.2 ** 2 / 0.4, abs=1e-12)


def test_gaussian_conditioner_degenerate():
    with pytest.raises(DomainError):
        GaussianConditioner([(0.2, 0.6), (0.2, 0.6)], [[1.0], [1.0]])


def test_conditioner_matches_bridge_empirically():
    # empirical conditional mean of an overlapping increment
    u = np.array([1.5])
    grid = TimeGrid(np.linspace(0, 1, 41))
    cons = IncrementConstraintSet(((0.2, 0.6, u),))
    g, vals = sample_conditioned_bm(grid, cons, 1, seed=8, n=60000)
    inc = vals[:, g.index_of(0.8), 0] - vals[:, g.index_of(0.4), 0]
    mean, var = GaussianConditioner([(0.2, 0.6)], [u]).condition_increment(
        0.4, 0.8)
    assert inc.mean() == pytest.approx(mean[0], abs=0.02)
    assert inc.var() == pytest.approx(var, rel=0.05)


def test_cameron_martin_unbiased():
    grid = TimeGrid(np.linspace(0, 1, 33))
    rng = make_rng(11, 0)
    n = 40000
    incs = sample_bm_increments(grid, 1, n, rng)
    phi = shift_on_grid(grid, [0.0, 1.0], [[0.0], [1.5]])
    shifted, logw = cameron_martin_weight(grid, incs, phi)
    w = np.exp(logw)
    # weights are mean one
    assert abs(w.mean() - 1.0) <= 3.0 * w.std(ddof=1) / math.sqrt(n)
    # E[F(w + phi) e^W] reproduces E[F(w)] for F = exp(-w(1)^2/2)
    end = shifted.sum(axis=1)[:, 0]
    got = (np.exp(-end ** 2 / 2.0) * w).mean()
    want = 1.0 / math.sqrt(2.0)   # E exp(-N(0,1)^2/2)
    se = (np.exp(-end ** 2 / 2.0) * w).std(ddof=1) / math.sqrt(n)
    assert abs(got - want) <= 3.0 * se


def test_cameron_martin_shift_path():
    grid = TimeGrid(np.array([0.0, 0.5, 1.0]))
    incs = np.array([[[0.3], [-0.2]]])    # the path 0, 0.3, 0.1
    phi = shift_on_grid(grid, [0.0, 1.0], [[0.0], [2.0]])
    shifted, logw = cameron_martin_weight(grid, incs, phi)
    assert shifted[0].sum(axis=0)[0] == pytest.approx(2.1)
    # W = -<dphi, dw>/dt - 0.5 ||phi'||^2 dt with phi' = 2
    want = -(2.0 * 0.3 / 0.5 + 2.0 * (-0.2) / 0.5) * 0.5 - 0.5 * 4.0
    assert logw[0] == pytest.approx(want, abs=1e-12)


def test_sample_bm_shapes():
    # no constraints: plain Brownian paths on the grid, one stream
    grid = TimeGrid(np.linspace(0, 1, 9))
    free = IncrementConstraintSet(())
    g, one = sample_conditioned_bm(grid, free, 3, seed=2)
    _, five = sample_conditioned_bm(grid, free, 3, seed=2, n=5)
    assert np.array_equal(g.times, grid.times)
    assert one.shape == (1, 9, 3) and five.shape == (5, 9, 3)
    assert np.array_equal(one[0], five[0])
    assert np.all(five[:, 0] == 0.0)


def test_window_regression_matches_conditioner_on_window_rows():
    # shares and residual variance of w(b) - w(a) given 1-3 consecutive
    # window increments, against the Schur-complement oracle, for query
    # intervals inside, straddling and outside the windows
    rng = np.random.default_rng(52)
    for m in (1, 2, 3):
        rows = []
        while len(rows) < 40:
            t = np.sort(rng.uniform(0.05, 0.95, m + 1))
            if np.diff(t).min() > 0.02:
                rows.append(t)
        t = np.array(rows)
        t0, t1, tm = t[:, 0], t[:, 1], t[:, -1]
        queries = [
            (t0 + 0.25 * (t1 - t0), t0 + 0.75 * (t1 - t0)),  # in window 1
            ((t0 + t1) / 2.0, (t[:, -2] + tm) / 2.0),        # across windows
            (t0 / 2.0, (t0 + t1) / 2.0),                     # straddling t0
            ((t[:, -2] + tm) / 2.0, (tm + 1.0) / 2.0),       # straddling tm
            (np.zeros(len(t)), t0 / 2.0),                    # before
            ((tm + 1.0) / 2.0, np.ones(len(t))),             # after
            (np.zeros(len(t)), np.ones(len(t))),             # covering
        ]
        for a, b in queries:
            shares, var = window_regression(a, b, t)  # (a, b) per row
            assert shares.shape == (len(t), m) and var.shape == (len(t),)
            for row, a_r, b_r, s_r, v_r in zip(t, a, b, shares, var):
                cond = GaussianConditioner(
                    np.column_stack([row[:-1], row[1:]]), np.ones((m, 1)))
                _, want_var = cond.condition_increment(a_r, b_r)
                assert np.allclose(s_r, cond.alpha_coefficients(a_r, b_r),
                                   rtol=0.0, atol=1e-12)
                assert v_r == pytest.approx(want_var, abs=1e-12)
