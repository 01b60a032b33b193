"""Reference implementations that the tests check the library against.

Each oracle computes a quantity that a library route also computes, by a
different and more general method; no library route calls them.
"""

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.optimize import minimize

from thetalab.errors import ContractError, DomainError, InfeasibleError
from thetalab.sampler import interval_overlap
from thetalab.variational import (PiecewiseLinearPath, _merge_knots,
                                  path_energy)


class GaussianConditioner:
    """Exact conditional laws of increment functionals given increments.

    Constraints are increments w(hi_j) - w(lo_j) = u_j; covariances of
    Brownian increments are interval overlaps, identical per coordinate, so
    the Schur complement is computed once on the scalar overlap matrix.
    It is the oracle of the closed-form window regression that
    ``eta_pairing_correlated`` uses, and of overlapping windows that
    ``IncrementConstraintSet`` rejects.
    """

    def __init__(self, intervals, targets):
        self.intervals = np.asarray(intervals, dtype=float).reshape(-1, 2)
        self.targets = np.atleast_2d(np.asarray(targets, dtype=float))
        if len(self.intervals) != self.targets.shape[0]:
            raise ContractError("one target per constraint interval required")
        lo, hi = self.intervals.T
        cov = interval_overlap((lo[:, None], hi[:, None]), (lo, hi))
        eig = np.linalg.eigvalsh(cov)
        if eig.min() <= 1e-12 * max(eig.max(), 1.0):
            raise DomainError(
                f"degenerate constraint covariance {cov}: some constraint "
                "interval is linearly dependent on the others")
        self._factor = cho_factor(cov)
        self.cov = cov

    def condition_increment(self, lo, hi):
        """Conditional (mean vector, per-coordinate variance) of w(hi)-w(lo)."""
        alpha = self.alpha_coefficients(lo, hi)
        var = (hi - lo) - float(alpha @ self.cov @ alpha)
        return alpha @ self.targets, max(var, 0.0)

    def alpha_coefficients(self, lo, hi):
        """Regression weights of the query increment on the constraints."""
        return cho_solve(self._factor,
                         interval_overlap((lo, hi), self.intervals.T))


def slsqp_energy_given_times(chain_times, u_list, boxes, d):
    """Box program at fixed chain times as one generic SLSQP solve.

    The oracle of ``variational._energy_given_times``: the n*d knot values
    are the variables, the targets phi(t_{j+1}) - phi(t_j) = u_j are
    equality constraints with a Kronecker Jacobian and the boxes are bounds,
    with no reduction.  Returns (value, path, mu), mu[j] being SLSQP's
    multiplier of the target u_j (zero for a zero target over a zero-length
    interval), or raises InfeasibleError.
    """
    knots = _merge_knots([0.0, 1.0, *chain_times, *(b.time for b in boxes)])
    n_free = knots.size - 1  # phi(0) = 0 pinned

    def idx_of(t):
        return int(np.abs(knots - float(t)).argmin())

    idx = np.array([idx_of(t) for t in chain_times], dtype=int)
    w = 1.0 / np.diff(knots)
    Q = (np.diag(np.r_[w, 0.0] + np.r_[0.0, w]) - np.diag(w, 1)
         - np.diag(w, -1))[1:, 1:]
    U = np.array(u_list, dtype=float).reshape(-1, d)
    moves = idx[1:] != idx[:-1]
    if np.any(U[~moves] != 0.0):
        raise InfeasibleError("increment over a zero-length interval")
    E = np.eye(knots.size)[:, 1:]
    A = E[idx[1:][moves]] - E[idx[:-1][moves]]
    lo = np.full((knots.size, d), -np.inf)
    hi = np.full((knots.size, d), np.inf)
    for b in boxes:
        i = idx_of(b.time)
        if b.lo is not None:
            lo[i] = np.maximum(lo[i], np.asarray(b.lo, dtype=float))
        if b.hi is not None:
            hi[i] = np.minimum(hi[i], np.asarray(b.hi, dtype=float))
    if np.any(lo > hi) or np.any(lo[0] > 0.0) or np.any(hi[0] < 0.0):
        raise InfeasibleError("empty box, or a box at 0 excludes 0")
    lo, hi, U = lo[1:], hi[1:], U[moves]

    def objective(xflat):
        x = xflat.reshape(n_free, d)
        return 0.5 * float(np.einsum("id,ij,jd->", x, Q, x)), (Q @ x).ravel()

    cons = [{"type": "eq",
             "fun": lambda xf: (A @ xf.reshape(n_free, d) - U).ravel(),
             "jac": lambda xf: np.kron(A, np.eye(d))}]
    res = minimize(objective, np.zeros(n_free * d), jac=True,
                   bounds=list(zip(lo.ravel(), hi.ravel())),
                   constraints=cons, method="SLSQP",
                   options={"maxiter": 400, "ftol": 1e-14})
    x = res.x.reshape(n_free, d)
    residual = max(np.abs(A @ x - U).max(initial=0.0),
                   np.max(lo - x), np.max(x - hi))
    if residual > 1e-8:
        raise InfeasibleError(f"no feasible knot values ({residual:.3g})")
    mu = np.zeros((len(u_list), d))
    # absent when the bounds fix every value
    mu[moves] = res.get("multipliers", np.zeros(U.size)).reshape(U.shape)
    path = PiecewiseLinearPath(knots, np.vstack([np.zeros(d), x]))
    return path_energy(path), path, mu
