"""Experiment runner: JSON configs in, provenance-stamped CSV/JSON out.

Usage: ``thetalab <command> --config file.json [--seed N] [--out path]
[--format csv|json] [--strict]``.  Configs are flat JSON documents holding
the command name, its parameters and the seed; unknown fields are rejected
and validation errors name the offending field.  Every artifact carries a
header block with the config hash, seed and package version so results are
traceable to exact inputs.

Exit codes: 0 success, 2 domain/schema error, 3 budget or convergence
warning escalated by --strict, 4 infeasible program.
"""

import argparse
import csv
import hashlib
import io
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .chaos import (IncrementSpec, SobolevIndex, delta_increment_norm_sq,
                    delta_increment_spectrum, sobolev_norm_sq)
from .errors import (CapacityError, ContractError, DomainError,
                     InfeasibleError)
from .estimators import (WeightFunction, eta_mass_scan, make_payoff,
                         pairing_bridge, pairing_epsilon)
from .selfcheck import run_selfcheck
from .simplexquad import (QuadratureSpec, SimplexIntegrand, eta_log_integral,
                          gap_reduced_integral, ldp_mass_curve)
from .variational import (BoxConstraint, ConstraintProgram, ldp_slope_fit,
                          minimize_energy, schilder_empirical_slope)

COMMANDS = ("mass", "ldp-slope", "pairing", "eta", "chaos-norm", "rate-min",
            "asymptotic-scan", "schilder", "selfcheck")

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_WARNING = 3
EXIT_INFEASIBLE = 4


class ConfigError(ValueError):
    """Schema violation; ``errors`` lists 'field.path: message' strings."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass(frozen=True)
class ExperimentConfig:
    command: str
    parameters: dict
    seed: object = None       # int, or None for deterministic commands
    output: object = None     # file path or None (stdout)
    format: str = "csv"


# ---------------------------------------------------------------------------
# field validators: each takes the raw JSON value, returns the canonical
# value or raises ValueError with a message (field path added by caller)

def _v_int(lo=None, hi=None):
    def f(v):
        if isinstance(v, bool) or not isinstance(v, int):
            raise ValueError("expected an integer")
        if lo is not None and v < lo:
            raise ValueError(f"must be >= {lo}")
        if hi is not None and v > hi:
            raise ValueError(f"must be <= {hi}")
        return v
    return f


def _v_num(lo=None, hi=None, strict_lo=False):
    def f(v):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ValueError("expected a number")
        v = float(v)
        if not math.isfinite(v):
            raise ValueError("must be finite")
        if lo is not None and (v <= lo if strict_lo else v < lo):
            raise ValueError(f"must be {'>' if strict_lo else '>='} {lo}")
        if hi is not None and v > hi:
            raise ValueError(f"must be <= {hi}")
        return v
    return f


def _v_vec(nonzero=False):
    def f(v):
        if not isinstance(v, list) or not v \
                or any(isinstance(x, bool) or not isinstance(x, (int, float))
                       for x in v):
            raise ValueError("expected a nonempty list of numbers")
        vec = [float(x) for x in v]
        if any(not math.isfinite(x) for x in vec):
            raise ValueError("entries must be finite")
        if nonzero and all(x == 0.0 for x in vec):
            raise ValueError("the zero vector is excluded: u must be nonzero")
        return vec
    return f


def _v_vec_list():
    inner = _v_vec(nonzero=True)

    def f(v):
        if not isinstance(v, list) or not v:
            raise ValueError("expected a nonempty list of vectors")
        return [inner(x) for x in v]
    return f


def _v_num_list(lo=None, hi=None, increasing=False, decreasing=False,
                min_len=1, max_len=None):
    item = _v_num(lo=lo, hi=hi)

    def f(v):
        if not isinstance(v, list) or len(v) < min_len:
            raise ValueError(f"expected a list of >= {min_len} numbers")
        if max_len is not None and len(v) > max_len:
            raise ValueError(f"expected at most {max_len} numbers")
        xs = [item(x) for x in v]
        if increasing and any(b <= a for a, b in zip(xs, xs[1:])):
            raise ValueError("must be strictly increasing")
        if decreasing and any(b >= a for a, b in zip(xs, xs[1:])):
            raise ValueError("must be strictly decreasing")
        return xs
    return f


def _v_enum(*options):
    def f(v):
        if v not in options:
            raise ValueError(f"expected one of {options}")
        return v
    return f


_EVAL_TIMES = _v_num_list(lo=0.0, hi=1.0)

# payoff id -> {param: (validator, required)}; lengths against d are
# checked in _cross_validate
PAYOFF_PARAMS = {
    "one": {"times": (_v_num_list(lo=0.0, hi=1.0, max_len=1), False)},
    "gaussian_bump": {"times": (_EVAL_TIMES, True),
                      "center": (_v_vec(), True),
                      "width": (_v_num(lo=0.0, strict_lo=True), False)},
    "indicator_box": {"times": (_EVAL_TIMES, True), "lo": (_v_vec(), True),
                      "hi": (_v_vec(), True)},
    "polynomial_clipped": {"times": (_EVAL_TIMES, True),
                           "coeffs": (_v_vec(), True),
                           "clip": (_v_num(lo=0.0), False)},
}


def _check_fields(doc, schema, reserved=()):
    """(validated fields, 'name: message' errors) of a JSON object."""
    errors = [f"{name}: unknown field"
              for name in sorted(set(doc) - set(reserved) - set(schema))]
    out = {}
    for name, (validator, required) in schema.items():
        if name not in doc:
            if required:
                errors.append(f"{name}: required field is missing")
            continue
        try:
            out[name] = validator(doc[name])
        except ValueError as exc:
            errors.append(f"{name}: {exc}")
    return out, errors


def _v_payoff(v):
    if not isinstance(v, dict) or v.get("id") not in PAYOFF_PARAMS:
        raise ValueError(
            f"expected an object with an 'id' in {tuple(PAYOFF_PARAMS)}")
    extra = set(v) - {"id", "params"}
    if extra:
        raise ValueError(f"unknown payoff fields {sorted(extra)}")
    if not isinstance(v.get("params", {}), dict):
        raise ValueError("params: expected an object")
    params, errors = _check_fields(v.get("params", {}),
                                   PAYOFF_PARAMS[v["id"]])
    if not errors and v["id"] == "indicator_box" \
            and len(params["hi"]) != len(params["lo"]):
        errors.append(f"hi: length {len(params['hi'])} does not match "
                      f"lo (length {len(params['lo'])})")
    if errors:
        raise ValueError("; ".join(f"params.{e}" for e in errors))
    make_payoff(v["id"], params)  # semantic checks such as lo <= hi
    return {"id": v["id"], "params": params}


def _v_weight(v):
    if not isinstance(v, dict) or "family" not in v:
        raise ValueError("expected an object with a 'family' field")
    extra = set(v) - {"family", "param"}
    if extra:
        raise ValueError(f"unknown weight fields {sorted(extra)}")
    try:
        param = _v_num()(v.get("param", 0.0))
    except ValueError as exc:
        raise ValueError(f"param: {exc}")
    WeightFunction(v["family"], param)
    return {"family": v["family"], "param": param}


def _v_increments(v):
    if not isinstance(v, list) or not v:
        raise ValueError("expected a nonempty list of [lo, hi, u] triples")
    out = []
    for i, item in enumerate(v):
        if not isinstance(item, list) or len(item) != 3:
            raise ValueError(f"entry {i}: expected [lo, hi, u]")
        lo, hi, u = item
        lo = None if lo is None else _v_num(lo=0.0, hi=1.0)(lo)
        hi = None if hi is None else _v_num(lo=0.0, hi=1.0)(hi)
        if lo is not None and hi is not None and not lo < hi:
            raise ValueError(f"entry {i}: need lo < hi")
        out.append([lo, hi, _v_vec(nonzero=False)(u)])
    return out


def _v_boxes(v):
    if not isinstance(v, list):
        raise ValueError("expected a list of box objects")
    out = []
    for i, item in enumerate(v):
        if not isinstance(item, dict) or "time" not in item:
            raise ValueError(f"entry {i}: expected an object with 'time'")
        extra = set(item) - {"time", "lo", "hi"}
        if extra:
            raise ValueError(f"entry {i}: unknown fields {sorted(extra)}")
        box = {"time": _v_num(lo=0.0, hi=1.0)(item["time"])}
        for side in ("lo", "hi"):
            if item.get(side) is None:
                continue
            if not isinstance(item[side], list):
                raise ValueError(f"entry {i}: {side} must be a list")
            box[side] = [None if x is None else _v_num()(x)
                         for x in item[side]]
        out.append(box)
    return out


def _v_set(v):
    if not isinstance(v, dict) or "type" not in v:
        raise ValueError("expected an object with a 'type' field")
    kind = v["type"]
    if kind == "full":
        allowed = {"type"}
    elif kind == "halfspace":
        allowed = {"type", "a", "coord"}
        if "a" not in v:
            raise ValueError("halfspace needs 'a'")
        _v_num()(v["a"])
    elif kind == "box_at_one":
        allowed = {"type", "lo", "hi"}
        if "lo" not in v or "hi" not in v:
            raise ValueError("box_at_one needs 'lo' and 'hi'")
        _v_vec()(v["lo"])
        _v_vec()(v["hi"])
    else:
        raise ValueError("type must be one of ('full', 'halfspace', "
                         "'box_at_one')")
    extra = set(v) - allowed
    if extra:
        raise ValueError(f"unknown set fields {sorted(extra)}")
    out = dict(v)
    if kind == "halfspace":
        out.setdefault("coord", 0)
        _v_int(lo=0)(out["coord"])
    return out


# schema: field -> (validator, required)
SCHEMAS = {
    "mass": {
        "d": (_v_int(lo=1), True),
        "u": (_v_vec(nonzero=True), True),
        "target_rel_err": (_v_num(lo=0.0, strict_lo=True), False),
    },
    "ldp-slope": {
        "d": (_v_int(lo=1), True),
        "u_list": (_v_vec_list(), True),
        "t_grid": (_v_num_list(lo=1.0, increasing=True, min_len=3), True),
    },
    "pairing": {
        "d": (_v_int(lo=1), True),
        "u_list": (_v_vec_list(), True),
        "payoff": (_v_payoff, True),
        "method": (_v_enum("bridge", "epsilon", "both"), False),
        "n_outer": (_v_int(lo=2), False),
        "n_inner": (_v_int(lo=1), False),
        "eps_ladder": (_v_num_list(lo=0.0, decreasing=True, min_len=2),
                       False),
        "n_per_eps": (_v_int(lo=2), False),
    },
    "eta": {
        "d": (_v_int(lo=1), True),
        "u": (_v_vec(nonzero=True), True),
        "f": (_v_weight, True),
        "variant": (_v_enum("independent", "correlated"), True),
        "r": (_v_num(lo=0.0, hi=1.0, strict_lo=True), False),
    },
    "chaos-norm": {
        "d": (_v_int(lo=1), True),
        "u": (_v_vec(nonzero=True), True),
        "s": (_v_num(lo=0.0, hi=1.0), True),
        "t": (_v_num(lo=0.0, hi=1.0), True),
        "gamma": (_v_num(), True),
        "K": (_v_int(lo=0), True),
    },
    "rate-min": {
        "d": (_v_int(lo=1), True),
        "increments": (_v_increments, False),
        "boxes": (_v_boxes, False),
        "n_extra_knots": (_v_int(lo=0), False),
        # ignored: box programs have no random restarts any more; accepted
        # for one more release so that existing configs still parse
        "n_restarts": (_v_int(lo=1), False),
    },
    "asymptotic-scan": {
        "d": (_v_int(lo=1), True),
        "f": (_v_weight, True),
        "u_norms": (_v_num_list(lo=0.0, decreasing=True, min_len=2), True),
    },
    "schilder": {
        "d": (_v_int(lo=1), True),
        "set": (_v_set, True),
        "t_grid": (_v_num_list(lo=1.0, increasing=True, min_len=3), True),
        "n_samples": (_v_int(lo=2), False),
    },
    "selfcheck": {
        "tier": (_v_enum("quick", "full"), False),
    },
}

# Monte Carlo commands must be seeded; the rest may omit the seed.
MC_COMMANDS = {"pairing", "schilder"}


def parse_config(text):
    """Validate a JSON config document into an ExperimentConfig.

    Raises ConfigError carrying one message per offending field (with its
    path); unknown fields are rejected.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"(document): invalid JSON: {exc}"])
    if not isinstance(doc, dict):
        raise ConfigError(["(document): top level must be an object"])
    command = doc.get("command")
    if command not in COMMANDS:
        raise ConfigError(
            [f"command: expected one of {COMMANDS}, got {command!r}"])
    params, errors = _check_fields(doc, SCHEMAS[command],
                                   ("command", "seed", "output", "format"))

    seed = doc.get("seed")
    if seed is not None and (isinstance(seed, bool)
                             or not isinstance(seed, int)
                             or not 0 <= seed < 2 ** 64):
        errors.append("seed: expected a 64-bit unsigned integer")
        seed = None
    if command in MC_COMMANDS and seed is None:
        errors.append(f"seed: mandatory for Monte Carlo command {command!r}")

    output = doc.get("output")
    if output is not None and not isinstance(output, str):
        errors.append("output: expected a file path string")
    fmt = doc.get("format", "csv")
    if fmt not in ("csv", "json"):
        errors.append("format: expected 'csv' or 'json'")

    # cross-field checks
    if not errors:
        errors.extend(_cross_validate(command, params))
    if errors:
        raise ConfigError(errors)
    return ExperimentConfig(command, params, seed, output, fmt)


def _cross_validate(command, p):
    errs = []
    dim = p.get("d")

    def check_dim(vec, name, n_eval=1):
        if dim is not None and len(vec) != n_eval * dim:
            errs.append(f"{name}: length {len(vec)} does not match d={dim}"
                        + (f" x {n_eval} eval times" if n_eval > 1 else ""))

    if command in ("mass", "eta", "chaos-norm"):
        check_dim(p["u"], "u")
    if command in ("ldp-slope", "pairing"):
        for i, u in enumerate(p["u_list"]):
            check_dim(u, f"u_list[{i}]")
    if command == "pairing":
        payoff = p["payoff"]["params"]
        for name in ("center", "lo", "hi"):
            if name in payoff:  # the bump center stacks all eval times
                check_dim(payoff[name], f"payoff.params.{name}",
                          len(payoff["times"]) if name == "center" else 1)
    if command == "chaos-norm" and not p["s"] < p["t"]:
        errs.append("t: need s < t")
    if command == "eta" and p["variant"] == "correlated":
        if "r" not in p:
            errs.append("r: required for variant 'correlated'")
        elif not p["r"] < 1.0:
            errs.append("r: must lie strictly inside (0, 1)")
    if command == "rate-min":
        if not p.get("increments") and not p.get("boxes"):
            errs.append("increments: program needs increments or boxes")
        for i, (lo, hi, u) in enumerate(p.get("increments", [])):
            check_dim(u, f"increments[{i}]")
        for i, box in enumerate(p.get("boxes", [])):
            for side in ("lo", "hi"):
                if side in box:
                    check_dim(box[side], f"boxes[{i}].{side}")
    if command == "schilder" and p["set"]["type"] == "box_at_one":
        check_dim(p["set"]["lo"], "set.lo")
        check_dim(p["set"]["hi"], "set.hi")
    if command == "schilder" and p["set"]["type"] == "halfspace" \
            and p["set"]["coord"] >= dim:
        errs.append(f"set.coord: {p['set']['coord']} is not below d={dim}")
    return errs


def emit_config(cfg: ExperimentConfig):
    """Canonical JSON form; parse_config(emit_config(cfg)) == cfg."""
    doc = {"command": cfg.command}
    doc.update(cfg.parameters)
    if cfg.seed is not None:
        doc["seed"] = cfg.seed
    if cfg.output is not None:
        doc["output"] = cfg.output
    doc["format"] = cfg.format
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def config_hash(cfg: ExperimentConfig):
    return hashlib.sha256(emit_config(cfg).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# command execution: each runner returns (meta, columns, rows, warning)

def _run_mass(p, seed):
    q = QuadratureSpec(target_rel_err=p.get("target_rel_err", 1e-6))
    res = gap_reduced_integral(SimplexIntegrand(p["d"], (p["u"],)), q)
    rows = [{"value": res.value, "stderr": res.rel_err * res.value,
             "method": res.method}]
    return {}, ("value", "stderr", "method"), rows, res.warning


def _run_ldp_slope(p, seed):
    q = QuadratureSpec()
    curve = ldp_mass_curve(p["u_list"], p["d"], p["t_grid"], q)
    L, diag = ldp_slope_fit(curve)
    # a relative error r of I moves -log(I)/t^2 by about log(1 + r)/t^2
    rows = [{"t": t, "value": y, "stderr": math.log1p(rel) / t ** 2}
            for t, y, rel in curve]
    meta = {"fitted_L": L, "coefficients": diag["coefficients"],
            "max_residual": diag["max_residual"]}
    missed = any(rel > q.target_rel_err for _, _, rel in curve)
    return meta, ("t", "value", "stderr"), rows, missed


def _run_pairing(p, seed):
    F = make_payoff(p["payoff"]["id"], p["payoff"]["params"])
    method = p.get("method", "both")
    rows = []
    if method in ("bridge", "both"):
        est = pairing_bridge(F, p["u_list"], p["d"],
                             p.get("n_outer", 20000),
                             p.get("n_inner", 64), seed)
        rows.append({"method": "bridge", "value": est.value,
                     "stderr": est.stderr, "n": est.n_samples, "eps": ""})
    if method in ("epsilon", "both"):
        ladder_spec = p.get("eps_ladder", [0.04, 0.02, 0.01])
        est, ladder = pairing_epsilon(F, p["u_list"], p["d"], ladder_spec,
                                      p.get("n_per_eps", 200000), seed)
        for eps, v, se in ladder:
            rows.append({"method": "epsilon_rung", "value": v, "stderr": se,
                         "n": p.get("n_per_eps", 200000), "eps": eps})
        rows.append({"method": "epsilon", "value": est.value,
                     "stderr": est.stderr, "n": est.n_samples, "eps": 0.0})
    return {}, ("method", "value", "stderr", "n", "eps"), rows, False


def _run_eta(p, seed):
    # the pairing with F1 = F2 = 1: the integral over the gap g of p_g(u)
    # M(g), M(g) = E f(beta increment); in the correlated variant that
    # increment has mean r u_1 and variance (1 - r^2) g
    f = WeightFunction(p["f"]["family"], p["f"]["param"])
    moment = f.gaussian_moment
    if p["variant"] == "correlated":
        r, u1 = p["r"], p["u"][0]

        def moment(g):
            return f.gaussian_moment((1.0 - r * r) * g, mean=r * u1)
    res = eta_log_integral(p["u"], p["d"], moment)
    rows = [{"value": res.value, "stderr": res.rel_err * res.value,
             "method": res.method}]
    return {}, ("value", "stderr", "method"), rows, res.warning


def _run_chaos_norm(p, seed):
    spec = IncrementSpec(np.asarray(p["u"]), p["s"], p["t"])
    idx = SobolevIndex(p["gamma"])
    sp = delta_increment_spectrum(spec, p["d"], p["K"])
    value, _ = sobolev_norm_sq(sp, idx)
    divergent = p["gamma"] >= -p["d"] / 2.0
    exact = None if divergent else delta_increment_norm_sq(spec, p["d"], idx)
    meta = {"divergence_mode": divergent,
            "truncation_K": sp.truncation_K}
    rows = [{"value": value, "exact": exact,
             "tail": None if divergent else exact - value,
             "divergent": int(divergent)}]
    return meta, ("value", "exact", "tail", "divergent"), rows, False


def _run_rate_min(p, seed):
    def side(b, name, fill):
        if b.get(name) is None:
            return None
        return [fill if x is None else x for x in b[name]]

    boxes = tuple(BoxConstraint(b["time"], side(b, "lo", -math.inf),
                                side(b, "hi", math.inf))
                  for b in p.get("boxes", []))
    prog = ConstraintProgram(increments=p.get("increments", ()), boxes=boxes)
    path, value, diag = minimize_energy(
        prog, n_extra_knots=p.get("n_extra_knots", 0))
    cols = ("time",) + tuple(f"x_{j + 1}" for j in range(path.d))
    rows = [dict(zip(cols, map(float, (t, *v))))
            for t, v in zip(path.knots, path.values)]
    meta = {"value": value, "converged": diag["converged"],
            "outer_iterations": diag["outer_iterations"]}
    return meta, cols, rows, not diag["converged"]


def _run_asymptotic_scan(p, seed):
    f = WeightFunction(p["f"]["family"], p["f"]["param"])
    pairs, slope = eta_mass_scan(f, p["d"], p["u_norms"])
    rows = [{"u_norm": n, "mass": m} for n, m in pairs]
    return {"loglog_slope": slope}, ("u_norm", "mass"), rows, False


def _run_schilder(p, seed):
    rows_raw, warning = schilder_empirical_slope(
        p["set"], p["d"], p["t_grid"], p.get("n_samples", 200000), seed)
    finite = [(t, y, se) for t, y, se, _ in rows_raw if math.isfinite(y)]
    meta = {}
    if len(finite) >= 3:
        L, diag = ldp_slope_fit(finite)
        meta = {"fitted_L": L, "max_residual": diag["max_residual"]}
    else:
        warning = True
    # a point that no sample reached has no estimate: null, not inf
    rows = [{"t": t, "value": y, "stderr": se, "ess": ess} if math.isfinite(y)
            else {"t": t, "value": None, "stderr": None, "ess": ess}
            for t, y, se, ess in rows_raw]
    return meta, ("t", "value", "stderr", "ess"), rows, warning


RUNNERS = {
    "mass": _run_mass,
    "ldp-slope": _run_ldp_slope,
    "pairing": _run_pairing,
    "eta": _run_eta,
    "chaos-norm": _run_chaos_norm,
    "rate-min": _run_rate_min,
    "asymptotic-scan": _run_asymptotic_scan,
    "schilder": _run_schilder,
}


# ---------------------------------------------------------------------------
# artifact emission

def _fmt(v):
    if v is None:
        return ""
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, np.integer):
        return str(int(v))
    return str(v)


def _json_default(v):
    if isinstance(v, np.floating):
        return float(v)
    if isinstance(v, np.integer):
        return int(v)
    if isinstance(v, np.ndarray):
        return v.tolist()
    raise TypeError(f"not JSON serializable: {type(v)}")


def render_csv(cfg, meta, columns, rows):
    buf = io.StringIO()
    buf.write(f"# config_hash={config_hash(cfg)}\r\n")
    buf.write(f"# seed={cfg.seed if cfg.seed is not None else ''}\r\n")
    buf.write(f"# version=thetalab-{__version__}\r\n")
    for key in sorted(meta):
        buf.write(f"# meta.{key}={_fmt(meta[key])}\r\n")
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(row[c]) for c in columns])
    return buf.getvalue()


def render_json(cfg, meta, columns, rows):
    doc = {
        "meta": dict(meta, config_hash=config_hash(cfg), seed=cfg.seed,
                     version=f"thetalab-{__version__}", columns=list(columns)),
        "rows": [{c: row[c] for c in columns} for row in rows],
    }
    return json.dumps(doc, sort_keys=True, indent=1,
                      default=_json_default) + "\n"


def execute(cfg: ExperimentConfig, strict=False, out_stream=None):
    """Run a validated config; returns the process exit code."""
    out_stream = out_stream if out_stream is not None else sys.stdout
    if cfg.command == "selfcheck":
        tier = cfg.parameters.get("tier", "quick")
        ok = run_selfcheck(tier, report=lambda s: print(s, file=out_stream))
        return EXIT_OK if ok else 1
    try:
        meta, columns, rows, warning = RUNNERS[cfg.command](
            cfg.parameters, cfg.seed)
    except InfeasibleError as exc:
        print(f"infeasible program: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (DomainError, ContractError, CapacityError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    text = (render_csv if cfg.format == "csv" else render_json)(
        cfg, meta, columns, rows)
    if cfg.output is None:
        out_stream.write(text)
    else:
        with open(cfg.output, "w", newline="") as fh:
            fh.write(text)
    if warning:
        print("warning: budget/convergence target not met", file=sys.stderr)
        if strict:
            return EXIT_WARNING
    return EXIT_OK


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="thetalab",
        description="Numerical laboratory for generalised multiple "
                    "intersection functionals of Brownian motion.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--out", help="override the output path")
    parser.add_argument("--format", choices=("csv", "json"),
                        help="override the output format")
    parser.add_argument("--strict", action="store_true",
                        help="escalate warnings to exit code 3")
    args = parser.parse_args(argv)

    if args.config is None:
        if args.command != "selfcheck":
            print("error: --config is required", file=sys.stderr)
            return EXIT_DOMAIN
        text = json.dumps({"command": "selfcheck"})
    else:
        try:
            with open(args.config) as fh:
                text = fh.read()
        except OSError as exc:
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            return EXIT_DOMAIN

    try:
        doc = json.loads(text)
        if isinstance(doc, dict):
            if args.seed is not None:
                doc["seed"] = args.seed
            if args.out is not None:
                doc["output"] = args.out
            if args.format is not None:
                doc["format"] = args.format
            text = json.dumps(doc)
        cfg = parse_config(text)
    except ConfigError as exc:
        for err in exc.errors:
            print(f"config error: {err}", file=sys.stderr)
        return EXIT_DOMAIN
    if cfg.command != args.command:
        print(f"config error: command: config says {cfg.command!r} but the "
              f"command line says {args.command!r}", file=sys.stderr)
        return EXIT_DOMAIN
    return execute(cfg, strict=args.strict)


if __name__ == "__main__":
    sys.exit(main())
