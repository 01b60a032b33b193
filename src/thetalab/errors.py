"""Exception taxonomy shared by all modules.

Domain errors are violations of mathematical preconditions (e.g. a zero
increment target), contract errors are misuse of an API surface, capacity
errors are requests beyond configured limits, and infeasibility carries a
certificate naming the contradicting constraints.  An error about one
argument starts with its name ("u: length 3 does not match d=4").
"""

import numpy as np


class DomainError(ValueError):
    """A mathematical precondition is violated."""


class ContractError(ValueError):
    """An API contract is violated (bad shapes, overlapping intervals, ...)."""


class CapacityError(ValueError):
    """A configurable capacity limit is exceeded."""


class InfeasibleError(RuntimeError):
    """A constrained program admits no feasible point."""

    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate


def _check_dim(name, v, d, error=DomainError, n_eval=1):
    """``v`` as a flat float array of n_eval * d entries, else ``error``."""
    v = np.asarray(v, dtype=float).ravel()
    if v.size != n_eval * d:
        raise error(f"{name}: length {v.size} does not match d={d}"
                    + (f" x {n_eval} eval times" if n_eval > 1 else ""))
    return v


def _target(name, u, d):
    """An increment target: ``_check_dim`` of DomainError, and nonzero."""
    u = _check_dim(name, u, d)
    if np.all(u == 0.0):
        raise DomainError(f"{name}: increment targets must be nonzero")
    return u
