"""Property-based fuzzing of the library's own input checks.

Payoff parameters and box sides of random length go into the payoff
catalogue, ``pairing_bridge`` (two outer points, one inner path) and
``minimize_energy``.  Whatever the lengths, each call returns a value or
raises a ``thetalab.errors`` type, never a bare NumPy error.
"""

import warnings

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from thetalab.errors import (CapacityError, ContractError, DomainError,
                             InfeasibleError)
from thetalab.estimators import make_payoff, pairing_bridge
from thetalab.variational import (BoxConstraint, ConstraintProgram,
                                  minimize_energy)

SETTINGS = settings(derandomize=True, deadline=None, database=None,
                    max_examples=200,
                    suppress_health_check=[HealthCheck.too_slow])
TYPED = (CapacityError, ContractError, DomainError, InfeasibleError)

dims = st.integers(1, 3)
times = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=2)


def filled(value):
    """Lists of ``value`` of length 0 to 4: d - 1, d, d + 1 for small d."""
    return st.integers(0, 4).map(lambda n: [value] * n)


def numbers():
    return st.integers(0, 4).flatmap(
        lambda n: st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n))


payoffs = st.one_of(
    st.tuples(st.just("one"), st.fixed_dictionaries({"times": times})),
    st.tuples(st.just("gaussian_bump"), st.fixed_dictionaries(
        {"times": times, "center": numbers()})),
    st.tuples(st.just("indicator_box"), st.fixed_dictionaries(
        {"times": times, "lo": filled(-1.0), "hi": filled(1.0)})),
    st.tuples(st.just("polynomial_clipped"), st.fixed_dictionaries(
        {"times": times, "coeffs": numbers()})))


def raises_only_typed(call):
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            call()
    except Exception as exc:  # noqa: BLE001 - the type is the property
        assert isinstance(exc, TYPED), repr(exc)


@SETTINGS
@given(dims, payoffs)
def test_payoffs_and_pairing_bridge_raise_only_thetalab_errors(d, payoff):
    pid, params = payoff
    raises_only_typed(lambda: pairing_bridge(
        make_payoff(pid, params), [np.ones(d)], d, 2, 1, seed=0))


boxes = st.lists(st.builds(
    BoxConstraint, st.floats(0.0, 1.0),
    st.none() | filled(-1.0), st.none() | filled(1.0)), max_size=2)
increments = st.lists(st.tuples(
    st.none() | st.floats(0.0, 0.5), st.none() | st.floats(0.5, 1.0),
    numbers()), max_size=2)


@SETTINGS
@given(increments, boxes)
def test_minimize_energy_raises_only_thetalab_errors(incs, box_list):
    raises_only_typed(lambda: minimize_energy(ConstraintProgram(
        increments=incs, boxes=tuple(box_list))))
