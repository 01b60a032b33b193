"""Reference implementations that the tests check the library against.

Each oracle computes a quantity that a library route also computes, by a
different and more general method; no library route calls them.
"""

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from thetalab.errors import ContractError, DomainError
from thetalab.sampler import interval_overlap


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
