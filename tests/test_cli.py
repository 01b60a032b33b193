import json
import math
import time
import warnings

import numpy as np
import pytest
from scipy.special import kve

from thetalab import cli, selfcheck, simplexquad
from thetalab.cli import (ConfigError, EXIT_DOMAIN, EXIT_INFEASIBLE,
                          EXIT_OK, EXIT_WARNING, ExperimentConfig,
                          config_hash, emit_config, execute, main,
                          parse_config)
from thetalab.errors import ContractError
from thetalab.simplexquad import ldp_mass_curve
from thetalab.variational import closed_form_inf


def write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def test_parse_minimal_mass_config():
    cfg = parse_config(
        '{"command":"mass","d":4,"u":[1,0,0,0],"seed":1}')
    assert cfg.command == "mass"
    assert cfg.parameters["u"] == [1.0, 0.0, 0.0, 0.0]
    assert cfg.seed == 1


def test_parse_rejects_zero_u():
    with pytest.raises(ConfigError) as exc:
        parse_config('{"command":"mass","d":4,"u":[0,0,0,0],"seed":1}')
    assert any(e.startswith("u:") and "nonzero" in e
               for e in exc.value.errors)


def test_parse_accepts_divergent_gamma_with_flag():
    cfg = parse_config(
        '{"command":"chaos-norm","d":4,"u":[1,0,0,0],"s":0.0,'
        '"t":0.3,"gamma":-1.5,"K":50}')
    meta, cols, rows, warning = cli._run_chaos_norm(cfg.parameters,
                                                    cfg.seed)
    assert meta["divergence_mode"] is True
    assert rows[0]["divergent"] == 1
    # convergent regime is flagged off
    cfg2 = parse_config(
        '{"command":"chaos-norm","d":4,"u":[1,0,0,0],"s":0.0,'
        '"t":0.3,"gamma":-2.5,"K":50}')
    meta2, _, _, _ = cli._run_chaos_norm(cfg2.parameters, cfg2.seed)
    assert meta2["divergence_mode"] is False


def test_parse_rejects_unknown_fields():
    with pytest.raises(ConfigError) as exc:
        parse_config('{"command":"mass","d":4,"u":[1,0,0,0],'
                     '"seed":1,"bogus":3}')
    assert any(e.startswith("bogus:") for e in exc.value.errors)


def test_parse_reports_field_paths():
    with pytest.raises(ConfigError) as exc:
        parse_config('{"command":"mass","u":[1,0,0,0],"seed":"x"}')
    msgs = exc.value.errors
    assert any(e.startswith("d:") for e in msgs)       # missing
    assert any(e.startswith("seed:") for e in msgs)    # wrong type


def test_parse_requires_seed_for_mc():
    with pytest.raises(ConfigError) as exc:
        parse_config('{"command":"pairing","d":4,"u_list":[[1,0,0,0]],'
                     '"payoff":{"id":"one"}}')
    assert any(e.startswith("seed:") for e in exc.value.errors)


def test_parse_dimension_cross_checks():
    with pytest.raises(ConfigError) as exc:
        parse_config('{"command":"mass","d":3,"u":[1,0,0,0]}')
    assert any("does not match d=3" in e for e in exc.value.errors)


def test_config_round_trip():
    docs = [
        {"command": "mass", "d": 4, "u": [1.0, 0.0, 0.0, 0.0], "seed": 1},
        {"command": "chaos-norm", "d": 4, "u": [1.0, 0.0, 0.0, 0.0],
         "s": 0.0, "t": 0.3, "gamma": -2.5, "K": 100},
        {"command": "pairing", "d": 4, "u_list": [[1.0, 0.0, 0.0, 0.0]],
         "payoff": {"id": "one"}, "seed": 7, "format": "json"},
    ]
    for doc in docs:
        cfg = parse_config(json.dumps(doc))
        assert parse_config(emit_config(cfg)) == cfg


def test_execute_mass_csv(tmp_path, capsys):
    cfg = parse_config(
        '{"command":"mass","d":4,"u":[1,0,0,0],"seed":1}')
    assert execute(cfg) == EXIT_OK
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0].startswith("# config_hash=")
    assert any(line.startswith("# seed=1") for line in lines)
    assert any(line.startswith("# version=thetalab-") for line in lines)
    header = [ln for ln in lines if not ln.startswith("#")][0]
    assert header == "value,stderr,method"
    value = float(out.splitlines()[-1].split(",")[0])
    assert value > 0.0


def test_execute_deterministic_artifacts(tmp_path):
    doc = {"command": "pairing", "d": 4, "u_list": [[1.0, 0, 0, 0]],
           "payoff": {"id": "one"}, "method": "bridge",
           "n_outer": 2000, "n_inner": 2, "seed": 5}
    outs = []
    for name in ("a.csv", "b.csv"):
        doc["output"] = str(tmp_path / name)
        cfg = parse_config(json.dumps(doc))
        assert execute(cfg) == EXIT_OK
        outs.append((tmp_path / name).read_bytes())
    # identical seeds: byte-identical except the output-path hash line
    strip = [b"\r\n".join(ln for ln in o.split(b"\r\n")
                          if not ln.startswith(b"# config_hash"))
             for o in outs]
    assert strip[0] == strip[1]
    # same path twice really is byte-identical
    cfg = parse_config(json.dumps(doc))
    assert execute(cfg) == EXIT_OK
    assert (tmp_path / "b.csv").read_bytes() == outs[1]


def test_execute_ldp_slope_rows(tmp_path):
    doc = {"command": "ldp-slope", "d": 4,
           "u_list": [[1.0, 0.0, 0.0, 0.0]],
           "t_grid": [4, 8, 12, 16, 20],
           "output": str(tmp_path / "slope.csv")}
    cfg = parse_config(json.dumps(doc))
    assert execute(cfg) == EXIT_OK
    text = (tmp_path / "slope.csv").read_text()
    data = [ln for ln in text.splitlines()
            if ln and not ln.startswith("#")]
    assert data[0] == "t,value,stderr"
    assert len(data) == 6   # header + 5 rows
    fitted = [ln for ln in text.splitlines()
              if ln.startswith("# meta.fitted_L=")]
    assert len(fitted) == 1
    L = float(fitted[0].split("=")[1])
    assert abs(L - 0.5) < 0.05


def test_execute_ldp_slope_three_gaps(capsys):
    # k = 4 once ended in an OverflowError traceback after 30-60 s
    us = [[1.0, 0, 0, 0], [0, 1.0, 0, 0], [0, 0, 0.6, 0.8]]
    cfg = parse_config(json.dumps({"command": "ldp-slope", "d": 4,
                                   "u_list": us, "format": "json",
                                   "t_grid": [4, 8, 12, 16, 20]}))
    t0 = time.perf_counter()
    assert execute(cfg) == EXIT_OK
    assert time.perf_counter() - t0 < 10.0
    L = json.loads(capsys.readouterr().out)["meta"]["fitted_L"]
    want = closed_form_inf([np.asarray(u) for u in us])
    assert abs(L - want) <= 0.03 * want


def test_execute_json_format(capsys):
    cfg = parse_config(
        '{"command":"mass","d":4,"u":[1,0,0,0],"format":"json"}')
    assert execute(cfg) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"meta", "rows"}
    assert doc["rows"][0]["value"] > 0.0
    assert doc["meta"]["version"].startswith("thetalab-")


def test_main_exit_codes(tmp_path, capsys):
    bad = write(tmp_path, "bad.json",
                {"command": "mass", "d": 4, "u": [0, 0, 0, 0]})
    assert main(["mass", "--config", bad]) == EXIT_DOMAIN
    assert "u:" in capsys.readouterr().err

    infeasible = write(tmp_path, "inf.json", {
        "command": "rate-min", "d": 1,
        "increments": [[0.0, 1.0, [1.0]]],
        "boxes": [{"time": 0.0, "lo": [0.5]}]})
    assert main(["rate-min", "--config", infeasible]) == EXIT_INFEASIBLE

    mismatch = write(tmp_path, "mm.json",
                     {"command": "mass", "d": 4, "u": [1, 0, 0, 0]})
    assert main(["ldp-slope", "--config", mismatch]) == EXIT_DOMAIN

    assert main(["mass", "--config", str(tmp_path / "nope.json")]) \
        == EXIT_DOMAIN
    capsys.readouterr()


def test_chaos_norm_reports_exact_norm_and_tail(tmp_path, capsys):
    doc = {"command": "chaos-norm", "d": 4, "u": [1.0, 0.0, 0.0, 0.0],
           "s": 0.0, "t": 0.3, "gamma": -2.5, "K": 800, "format": "json"}
    assert main(["chaos-norm", "--config",
                 write(tmp_path, "c.json", doc)]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["meta"]["columns"] == ["value", "exact", "tail", "divergent"]
    row = out["rows"][0]
    assert row["tail"] == pytest.approx(row["exact"] - row["value"],
                                        rel=1e-12)
    assert 1e-4 < row["tail"] < 1e-3          # the last term reads 1.7e-7
    doc.update(gamma=-1.5, format="csv")
    assert main(["chaos-norm", "--config",
                 write(tmp_path, "d.json", doc)]) == EXIT_OK
    last = capsys.readouterr().out.splitlines()[-1].split(",")
    assert last[1:] == ["", "", "1"]          # no exact norm when divergent
    # past the double range: a message and exit 2, not a traceback or 0.0
    for u, t in ((40.0, 0.01), (8.0, 0.05)):
        doc.update(u=[u, 0.0, 0.0, 0.0], t=t, K=200, gamma=-2.5)
        assert main(["chaos-norm", "--config",
                     write(tmp_path, "e.json", doc)]) == EXIT_DOMAIN
        assert "|u|/sqrt(tau)" in capsys.readouterr().err


def test_chaos_norm_subnormal_variance_exits_2_without_warning(tmp_path,
                                                              capsys):
    doc = {"command": "chaos-norm", "d": 2, "u": [1.0, 0.0], "s": 0.0,
           "t": 5e-324, "gamma": -2.5, "K": 10}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["chaos-norm", "--config",
                     write(tmp_path, "c.json", doc)]) == EXIT_DOMAIN
    assert "domain error" in capsys.readouterr().err


def test_ldp_slope_stderr_and_missed_target(tmp_path, capsys):
    # four gaps need no seed and meet the 1e-6 target; the stderr column
    # is log(1 + rel_err)/t^2 of the library curve
    us = [[1, 0, 0, 0], [0, 1, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0]]
    doc = {"command": "ldp-slope", "d": 4, "u_list": us, "t_grid": [2, 3, 4],
           "format": "json"}
    path = write(tmp_path, "s.json", doc)
    assert main(["ldp-slope", "--config", path, "--strict"]) == EXIT_OK
    rows = json.loads(capsys.readouterr().out)["rows"]
    for row, (t, y, rel) in zip(rows, ldp_mass_curve(us, 4, [2, 3, 4])):
        assert 0.0 < rel <= 1e-6 and row["value"] == y
        assert row["stderr"] == pytest.approx(math.log1p(rel) / t ** 2)
    # the Monte Carlo quadrature and its fields are gone
    for extra in ({"method": "dirichlet_mc"}, {"n_samples": 1000}):
        path = write(tmp_path, "m.json", dict(doc, **extra))
        assert main(["ldp-slope", "--config", path]) == EXIT_DOMAIN
        assert f"{next(iter(extra))}: unknown field" \
            in capsys.readouterr().err
    # a target no rule reaches: the row says so and --strict exits 3
    doc = {"command": "mass", "d": 4, "u": [1, 0, 0, 0],
           "target_rel_err": 1e-300, "format": "json"}
    path = write(tmp_path, "g.json", doc)
    assert main(["mass", "--config", path, "--strict"]) == EXIT_WARNING
    [row] = json.loads(capsys.readouterr().out)["rows"]
    assert row["method"] == "laplace_inversion"
    assert 1e-300 * row["value"] < row["stderr"] <= 1e-13 * row["value"]
    assert main(["mass", "--config", path]) == EXIT_OK
    capsys.readouterr()


def test_mass_past_the_double_range_exits_2(tmp_path, capsys):
    # log I is about -|u|^2/2 = -5000: the mass is no double, not 0.0
    doc = {"command": "mass", "d": 4, "u": [100.0, 0, 0, 0]}
    assert main(["mass", "--config", write(tmp_path, "u.json", doc)]) \
        == EXIT_DOMAIN
    assert "double range" in capsys.readouterr().err
    # and past it upwards: at d = 6 and |u|^2 = 1e-310, I ~ |u|^-4 is e^1423
    doc = {"command": "mass", "d": 6, "u": [1e-155] + [0.0] * 5}
    assert main(["mass", "--config", write(tmp_path, "v.json", doc)]) \
        == EXIT_DOMAIN
    assert "leaves the double range" in capsys.readouterr().err


def test_ldp_slope_at_a_tiny_target_in_d16(tmp_path, capsys):
    # the Bessel routine is NaN at these tiny arguments off the real axis
    doc = {"command": "ldp-slope", "d": 16, "u_list": [[1e-50] + [0.0] * 15],
           "t_grid": [1, 2, 3], "format": "json"}
    assert main(["ldp-slope", "--config", write(tmp_path, "t.json", doc)]) \
        == EXIT_OK
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [r["t"] for r in rows] == [1.0, 2.0, 3.0]
    assert all(math.isfinite(r["value"]) for r in rows)


def test_schilder_cli_rows_and_unknown_n_cells(tmp_path, capsys):
    doc = {"command": "schilder", "d": 2, "seed": 4, "format": "json",
           "set": {"type": "halfspace", "a": 1.0},
           "t_grid": [1.0, 2.0, 3.0], "n_samples": 2000}
    path = write(tmp_path, "s.json", doc)
    assert main(["schilder", "--config", path]) == EXIT_OK
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [row["t"] for row in rows] == [1.0, 2.0, 3.0]
    assert all(row["value"] is not None for row in rows)
    # paths are drawn on the one cell [0, 1]; there is no cell count
    path = write(tmp_path, "n.json", dict(doc, n_cells=8))
    assert main(["schilder", "--config", path]) == EXIT_DOMAIN
    assert "n_cells: unknown field" in capsys.readouterr().err
    # a set that no sample reaches has no estimate: null, and a warning
    doc.update(n_samples=2, seed=0)  # both samples miss {w_1(1) >= 1}
    path = write(tmp_path, "r.json", doc)
    assert main(["schilder", "--config", path, "--strict"]) == EXIT_WARNING
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert rows[0]["value"] is None and rows[0]["stderr"] is None
    doc["set"]["coord"] = 2
    assert main(["schilder", "--config",
                 write(tmp_path, "c.json", doc)]) == EXIT_DOMAIN
    assert "set.coord" in capsys.readouterr().err


def test_eta_is_seedless_quadrature(tmp_path, capsys, monkeypatch):
    # the 1-d integral needs no seed and no sample counts; s_pair only ever
    # reached F1, which the CLI never sets
    doc = {"command": "eta", "d": 4, "u": [1.0, 0.0, 0.0, 0.0],
           "f": {"family": "abs_power", "param": 0.5},
           "variant": "correlated", "r": 0.6, "format": "json"}
    path = write(tmp_path, "e.json", doc)
    assert main(["eta", "--config", path, "--strict"]) == EXIT_OK
    [row] = json.loads(capsys.readouterr().out)["rows"]
    assert row["method"] == "quadrature" and row["value"] > 0.0
    for extra in ({"n_outer": 100}, {"n_inner": 2}, {"s_pair": [0.1, 0.2]}):
        bad = write(tmp_path, "x.json", dict(doc, **extra))
        assert main(["eta", "--config", bad]) == EXIT_DOMAIN
        assert f"{next(iter(extra))}: unknown field" \
            in capsys.readouterr().err
    bad = write(tmp_path, "r.json", {k: v for k, v in doc.items() if k != "r"})
    assert main(["eta", "--config", bad]) == EXIT_DOMAIN
    assert "r: required" in capsys.readouterr().err
    # panels cut e^-1 below the peak leave far more than the 1e-6 target:
    # the cut bound says so, the row carries it and --strict exits 3
    monkeypatch.setattr(simplexquad, "_CUT", 1.0)
    assert main(["eta", "--config", path, "--strict"]) == EXIT_WARNING
    [cut_row] = json.loads(capsys.readouterr().out)["rows"]
    assert abs(cut_row["value"] - row["value"]) <= cut_row["stderr"]
    assert cut_row["stderr"] > 1e-6 * cut_row["value"]


def test_asymptotic_scan_past_the_double_range_exits_2(tmp_path, capsys):
    # the masses are about e^{-|u|^2/2}: no doubles, so no 0.0 rows and no
    # NaN slope, and no RuntimeWarning from a log of 0
    doc = {"command": "asymptotic-scan", "d": 4, "format": "json",
           "f": {"family": "abs_power", "param": 0.5},
           "u_norms": [60.0, 50.0, 40.0]}
    path = write(tmp_path, "a.json", doc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["asymptotic-scan", "--config", path]) == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert "double range" in captured.err and captured.out == ""


def test_schilder_empty_box_is_infeasible(tmp_path, capsys):
    doc = {"command": "schilder", "d": 2, "seed": 4,
           "set": {"type": "box_at_one", "lo": [1.0, 0.0], "hi": [0.5, 1.0]},
           "t_grid": [1.0, 2.0, 3.0], "n_samples": 200}
    assert main(["schilder", "--config",
                 write(tmp_path, "e.json", doc)]) == EXIT_INFEASIBLE
    capsys.readouterr()


PAIRING = {"command": "pairing", "d": 4, "u_list": [[1.0, 0.0, 0.0, 0.0]],
           "method": "bridge", "n_outer": 8, "n_inner": 1, "seed": 3}
ETA = {"command": "eta", "d": 4, "u": [1.0, 0.0, 0.0, 0.0],
       "variant": "independent"}


@pytest.mark.parametrize("doc, field", [
    (dict(PAIRING, payoff={"id": "gaussian_bump",
                           "params": {"times": [1.0]}}),
     "payoff: params.center"),
    (dict(PAIRING, payoff={"id": "gaussian_bump", "params": [1.0]}),
     "payoff: params"),
    (dict(ETA, f={"family": "abs_power", "param": [1.0]}), "f: param"),
    (dict(PAIRING, payoff={"id": "gaussian_bump",
                           "params": {"times": [1.0], "center": [0.0] * 3}}),
     "payoff.params.center"),
    (dict(PAIRING, payoff={"id": "one"}, n_outer=1), "n_outer"),
    (dict(ETA, variant="correlated", r=0.5, s_pair=[0.1, 0.2, 0.9]),
     "s_pair"),
    (dict(PAIRING, payoff={"id": "indicator_box",
                           "params": {"times": [0.5], "lo": [-1.0] * 3,
                                      "hi": [1.0] * 4}}),
     "payoff: params.hi"),
    ({"command": "ldp-slope", "d": 4, "t_grid": [1.0, 2.0, 3.0],
      "u_list": [[1.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]},
     "u_list[1]: length 3 does not match d=4"),
    (dict(PAIRING, payoff={"id": "indicator_box",
                           "params": {"times": [0.5], "lo": [-1.0] * 3,
                                      "hi": [1.0] * 3}}),
     "payoff.params.lo: length 3 does not match d=4"),
    ({"command": "chaos-norm", "d": 4, "u": [1.0, 0.0, 0.0, 0.0],
      "s": 0.5, "t": 0.3, "gamma": -2.5, "K": 10}, "t: need s < t"),
    (dict(ETA, variant="correlated", r=1.0, f={"family": "one"}),
     "r: must lie strictly inside (0, 1)"),
    ({"command": "rate-min", "d": 2},
     "increments: program needs increments or boxes"),
    ({"command": "rate-min", "d": 2, "increments": [[0.2, 0.6, [1, 0, 0]]]},
     "increments[0]: length 3 does not match d=2"),
    ({"command": "rate-min", "d": 2, "increments": [[0.2, 0.6, [1, 0]]],
      "boxes": [{"time": 0.4, "lo": [0, 0, 0]}]},
     "boxes[0].lo: length 3 does not match d=2"),
    ({"command": "schilder", "d": 2, "seed": 1, "t_grid": [1.0, 2.0, 3.0],
      "set": {"type": "box_at_one", "lo": [0.0] * 3, "hi": [1.0] * 2}},
     "set.lo: length 3 does not match d=2"),
], ids=["bump-without-center", "params-not-object", "weight-param-list",
        "center-length", "pairing-n-outer-1", "s-pair-three-entries",
        "box-lo-hi-length", "u-list-entry-length", "box-lo-length",
        "chaos-s-after-t", "eta-r-one", "rate-min-empty",
        "rate-min-increment-length", "rate-min-box-length",
        "schilder-set-length"])
def test_main_rejects_malformed_inputs(tmp_path, capsys, doc, field):
    path = write(tmp_path, "bad.json", doc)
    assert main([doc["command"], "--config", path]) == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert f"config error: {field}" in captured.err
    assert captured.out == ""


def test_main_reports_invalid_json(tmp_path, capsys):
    # json.loads once ran outside the ConfigError handler: a traceback
    path = tmp_path / "bad.json"
    path.write_text("{")
    assert main(["mass", "--config", str(path), "--seed", "3"]) \
        == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: (document): invalid JSON")
    assert captured.out == ""


def test_main_overrides(tmp_path):
    doc = write(tmp_path, "m.json",
                {"command": "mass", "d": 4, "u": [1, 0, 0, 0]})
    out = tmp_path / "m.csv"
    assert main(["mass", "--config", doc, "--out", str(out),
                 "--seed", "9"]) == EXIT_OK
    text = out.read_text()
    assert "# seed=9" in text


def test_rate_min_artifact(tmp_path):
    doc = write(tmp_path, "rm.json", {
        "command": "rate-min", "d": 2,
        "increments": [[0.2, 0.6, [1.0, 1.0]]]})
    out = tmp_path / "rm.csv"
    assert main(["rate-min", "--config", doc, "--out", str(out)]) \
        == EXIT_OK
    lines = out.read_text().splitlines()
    header = [ln for ln in lines if not ln.startswith("#")][0]
    assert header == "time,x_1,x_2"
    value = [ln for ln in lines if ln.startswith("# meta.value=")][0]
    assert float(value.split("=")[1]) == pytest.approx(2.0 / 0.8,
                                                       rel=1e-8)
    # n_restarts is still accepted, and changes nothing
    doc = write(tmp_path, "rr.json", {
        "command": "rate-min", "d": 2, "n_restarts": 3,
        "increments": [[0.2, 0.6, [1.0, 1.0]]]})
    again = tmp_path / "rr.csv"
    assert main(["rate-min", "--config", doc, "--out", str(again)]) \
        == EXIT_OK
    assert [ln for ln in again.read_text().splitlines()
            if ln.startswith("# meta.value=")] == [value]


def test_selfcheck_rejects_an_unknown_tier():
    reports = []
    with pytest.raises(ContractError, match="^tier: must be 'quick' or"):
        selfcheck.run_selfcheck("x", report=reports.append)
    assert reports == []  # refused before any check ran


def test_selfcheck_sabotaged_kernel_fails_dual_route(monkeypatch):
    def wrong_power(nu, z):
        # the Laplace transform of a kernel of the wrong power of g
        return kve(nu + 0.5, z)

    monkeypatch.setattr(simplexquad, "kve", wrong_power)
    failures = []
    for name, fn in selfcheck.checks_for("quick"):
        try:
            fn()
        except AssertionError:
            failures.append(name)
            break
    assert failures == ["mass-dual-route"]


def test_selfcheck_sabotaged_wick_fails_identity(monkeypatch):
    from thetalab import chaos

    real = chaos.wick_convolve

    def off_by_one(a, b):
        sp = real(a, b)
        return chaos.ChaosSpectrum(np.concatenate([[0.0], sp.levels]))

    monkeypatch.setattr(selfcheck.chaos, "wick_convolve", off_by_one)
    failures = []
    for name, fn in selfcheck.checks_for("quick"):
        try:
            fn()
        except AssertionError:
            failures.append(name)
            break
    assert failures == ["wick-identity-element"]


def test_selfcheck_sabotaged_box_solve_fails_box_check(monkeypatch):
    from thetalab import variational

    real = variational.lsq_linear

    def stops_short(A, b, bounds, method):
        # a box solver that stops a little off the minimum
        res = real(A, b, bounds=bounds, method=method)
        res.x = np.clip(res.x + 1e-3, *bounds)
        return res

    monkeypatch.setattr(variational, "lsq_linear", stops_short)
    failures = []
    for name, fn in selfcheck.checks_for("quick"):
        try:
            fn()
        except AssertionError:
            failures.append(name)
            break
    assert failures == ["box-halfspace-closed-form"]


def test_selfcheck_sabotaged_rows_fail_ldp_curve(monkeypatch):
    real = simplexquad._log_gap_laplace

    def row_zero_everywhere(sq, d, tol):
        # one-row calls are untouched; a curve gets its first point's value
        # and error at every t
        values, errors = real(sq, d, tol)
        return np.full_like(values, values[0]), np.full_like(errors, errors[0])

    monkeypatch.setattr(simplexquad, "_log_gap_laplace", row_zero_everywhere)
    failures = []
    for name, fn in selfcheck.checks_for("quick"):
        try:
            fn()
        except AssertionError:
            failures.append(name)
            break
    assert failures == ["ldp-curve-closed-form"]


def test_selfcheck_full_tier_checks_pass():
    # the checks that only the full tier runs, estimator-duality among them
    quick = {name for name, _ in selfcheck.checks_for("quick")}
    extra = [(name, fn) for name, fn in selfcheck.checks_for("full")
             if name not in quick]
    assert len(extra) == 5
    for name, fn in extra:
        fn()


def test_selfcheck_runner_reports(capsys):
    ok = selfcheck.run_selfcheck("quick")
    out = capsys.readouterr().out
    assert ok
    assert out.count("PASS") == len(selfcheck.checks_for("quick"))
    with pytest.raises(ValueError):
        selfcheck.run_selfcheck("medium")
