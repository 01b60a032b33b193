"""Property-based fuzzing of the CLI: configs in, exit codes and numbers out.

``parse_config`` must turn any document into an ExperimentConfig or a
ConfigError, and ``execute`` of the Monte Carlo commands ``pairing`` and
``schilder``, of the quadrature commands ``mass``, ``ldp-slope`` (Laplace
inversion, up to seven gaps and t up to 300), ``eta`` and
``asymptotic-scan`` (the 1-d rule, with masses past the double range), of
``chaos-norm`` and of ``rate-min`` (free chain times among boxes) must
return an exit code in {0, 2, 3, 4} and emit only finite numbers.  Budgets
are capped so that each example runs in milliseconds.
"""

import io
import json
import math
import warnings

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from thetalab.cli import (COMMANDS, SCHEMAS, ConfigError, execute,
                          parse_config)

SETTINGS = settings(derandomize=True, deadline=None, database=None,
                    max_examples=300,
                    suppress_health_check=[HealthCheck.too_slow])

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3)
    | st.floats(-5.0, 5.0) | st.sampled_from([math.nan, math.inf, 1e308])
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)
nums = st.floats(-3.0, 3.0)


def rarely(draw):
    return draw(st.integers(0, 7)) == 0


def vec(d):
    # mostly length d; sometimes one off, to exercise the length checks
    return st.sampled_from([d] * 14 + [d - 1, d + 1]).filter(
        lambda n: n >= 1).flatmap(
        lambda n: st.lists(nums, min_size=n, max_size=n))


def nonzero_vec(d):
    return vec(d).filter(lambda v: any(x != 0.0 for x in v))


@st.composite
def payoffs(draw, d):
    pid = draw(st.sampled_from(["one", "gaussian_bump", "indicator_box",
                                "polynomial_clipped"]))
    n_eval = draw(st.integers(1, 3))
    t = st.lists(st.floats(0.0, 1.0), min_size=n_eval, max_size=n_eval)
    params = draw({
        "one": st.fixed_dictionaries(
            {}, optional={"times": st.lists(st.floats(0.0, 1.0),
                                            min_size=1, max_size=1)}),
        "gaussian_bump": st.fixed_dictionaries(
            {"times": t, "center": vec(n_eval * d)},
            optional={"width": st.floats(0.0, 2.0)}),
        "indicator_box": st.fixed_dictionaries(
            {"times": t, "lo": st.just([-1.0] * d), "hi": vec(d)}),
        "polynomial_clipped": st.fixed_dictionaries(
            {"times": t, "coeffs": st.lists(nums, min_size=1, max_size=3)},
            optional={"clip": st.floats(0.0, 10.0)}),
    }[pid])
    if params and rarely(draw):
        del params[draw(st.sampled_from(sorted(params)))]
    if rarely(draw):
        params = draw(json_values)
    return {"id": pid, "params": params}


@st.composite
def weights(draw):
    f = {"family": draw(st.sampled_from(["one", "indicator_pos",
                                         "abs_power", "exp_abs"]))}
    if draw(st.booleans()):
        f["param"] = draw(json_values) if rarely(draw) \
            else draw(st.floats(-1.0, 3.0))
    return f


def ordered(lo, hi, min_size, reverse=False):
    return st.lists(st.floats(lo, hi), min_size=min_size, max_size=5,
                    unique=True).map(lambda xs: sorted(xs, reverse=reverse))


def fields(command, d):
    """A strategy for each schema field of ``command``, budgets capped."""
    u = nonzero_vec(d)
    u_list = st.lists(u, min_size=1, max_size=3)
    table = {
        "mass": {"d": st.just(d), "u": u,
                 "target_rel_err": st.floats(1e-8, 1e-2)},
        "ldp-slope": {"d": st.just(d),
                      "u_list": st.lists(u, min_size=1, max_size=7),
                      "t_grid": ordered(1.0, 300.0, 3)},
        "pairing": {"d": st.just(d), "u_list": u_list, "payoff": payoffs(d),
                    "method": st.sampled_from(["bridge", "epsilon", "both"]),
                    "n_outer": st.integers(1, 64),
                    "n_inner": st.integers(1, 4),
                    "eps_ladder": ordered(0.001, 0.2, 2, reverse=True),
                    "n_per_eps": st.integers(2, 64)},
        "eta": {"d": st.just(d), "u": u, "f": weights(),
                "variant": st.sampled_from(["independent", "correlated"]),
                "r": st.floats(0.05, 0.95)},
        "chaos-norm": {"d": st.just(d), "u": u, "s": st.floats(0.0, 0.5),
                       "t": st.floats(0.5, 1.0), "gamma": nums,
                       "K": st.integers(0, 20)},
        "rate-min": {"d": st.just(d),
                     "increments": st.lists(st.tuples(
                         st.none() | st.floats(0.0, 0.5),
                         st.none() | st.floats(0.5, 1.0), vec(d))
                         .map(list), max_size=2),
                     "boxes": st.lists(st.fixed_dictionaries(
                         {"time": st.floats(0.0, 1.0)},
                         optional={"lo": vec(d), "hi": vec(d)}), max_size=2),
                     "n_extra_knots": st.integers(0, 2),
                     "n_restarts": st.integers(1, 2)},
        "asymptotic-scan": {"d": st.just(d), "f": weights(),
                            "u_norms": ordered(0.1, 2.0, 2, reverse=True)},
        "schilder": {"d": st.just(d),
                     "set": st.one_of(
                         st.just({"type": "full"}),
                         st.fixed_dictionaries(
                             {"type": st.just("halfspace"), "a": nums},
                             optional={"coord": st.integers(0, 5)}),
                         st.fixed_dictionaries(
                             {"type": st.just("box_at_one"), "lo": vec(d),
                              "hi": vec(d)})),
                     "t_grid": ordered(1.0, 5.0, 3),
                     "n_samples": st.integers(2, 64)},
        "selfcheck": {"tier": st.sampled_from(["quick", "full"])},
    }
    assert set(table[command]) == set(SCHEMAS[command])
    return table[command]


@st.composite
def documents(draw, commands=COMMANDS, always=()):
    """A config of the schema: required fields and ``always`` are set."""
    command = draw(st.sampled_from(commands))
    doc = {"command": command, "seed": draw(st.integers(0, 2 ** 64 - 1)),
           "format": "json"}
    d = draw(st.integers(1, 5))
    for name, strategy in fields(command, d).items():
        if SCHEMAS[command][name][1] or name in always \
                or draw(st.booleans()):
            doc[name] = draw(strategy)
    if command == "eta" and doc["variant"] == "correlated":
        doc.setdefault("r", 0.5)
    return doc


@st.composite
def malformed(draw):
    """A schema document with one field dropped, replaced or added."""
    doc = draw(documents())
    action = draw(st.sampled_from(["drop", "replace", "add"]))
    if action == "add":
        doc[draw(st.text(min_size=1, max_size=4))] = draw(json_values)
        return doc
    key = draw(st.sampled_from(sorted(doc)))
    if action == "drop":
        del doc[key]
    else:
        doc[key] = draw(json_values)
    return doc


def numbers(node):
    if isinstance(node, dict):
        for v in node.values():
            yield from numbers(v)
    elif isinstance(node, list):
        for v in node:
            yield from numbers(v)
    elif isinstance(node, float):
        yield node


@SETTINGS
@given(st.one_of(documents(), malformed()))
def test_parse_config_raises_only_config_errors(doc):
    try:
        parse_config(json.dumps(doc))
    except ConfigError as exc:
        assert exc.errors and all(":" in e for e in exc.errors)


def check_execute(doc):
    try:
        cfg = parse_config(json.dumps(doc))
    except ConfigError:
        return
    out = io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = execute(cfg, out_stream=out)
    assert code in (0, 2, 3, 4)
    if out.getvalue():
        result = json.loads(out.getvalue())
        assert all(math.isfinite(x) for x in numbers(result)), result
    return code


@SETTINGS
@given(documents(commands=("pairing",),
                 always=("n_outer", "n_inner", "n_per_eps")))
def test_execute_monte_carlo_exit_codes_and_finite_output(doc):
    check_execute(doc)


@settings(SETTINGS, max_examples=100)
@given(documents(commands=("mass", "ldp-slope", "eta")))
def test_execute_quadrature_exit_codes_and_finite_output(doc):
    check_execute(doc)


@settings(SETTINGS, max_examples=100)
@given(documents(commands=("asymptotic-scan",)),
       st.lists(st.floats(-3.0, 2.0), min_size=2, max_size=9, unique=True))
def test_execute_asymptotic_scan_exit_codes_and_finite_output(doc, logs):
    # |u| from 1e-3 to 100: at the top the masses, about e^{-|u|^2/2},
    # leave the double range and the scan must exit 2, not print 0.0 or NaN
    doc["u_norms"] = [10.0 ** x for x in sorted(logs, reverse=True)]
    code = check_execute(doc)
    assert code in (None, 0, 2)


@settings(SETTINGS, max_examples=100)
@given(documents(commands=("schilder",), always=("n_samples",)))
def test_execute_schilder_exit_codes_and_finite_output(doc):
    check_execute(doc)


@settings(SETTINGS, max_examples=100)
@given(documents(commands=("rate-min",), always=("increments", "boxes")))
def test_execute_rate_min_exit_codes_and_finite_output(doc):
    check_execute(doc)


@settings(SETTINGS, max_examples=200)
@given(documents(commands=("chaos-norm",)), st.floats(-1.0, 2.0),
       st.floats(-6.0, 0.0), st.integers(0, 400))
def test_execute_chaos_norm_exit_codes_and_finite_output(doc, log_scale,
                                                         log_tau, K):
    # |u| up to 300 and t - s down to 1e-6 reach |u|/sqrt(tau) far past
    # the double range of the levels as well as the ordinary regime
    doc["u"] = [x * 10.0 ** log_scale for x in doc["u"]]
    doc["t"] = min(1.0, doc["s"] + 10.0 ** log_tau)
    doc["K"] = K
    code = check_execute(doc)
    assert code in (None, 0, 2)
