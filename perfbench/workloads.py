"""The benchmark's three workloads: requests, oracle references and checks.

Each workload is built from the workload seed alone; the program under test
only ever sees the generated inputs.  A pass is the fixed list of requests
returned by ``requests(pass_index)``; a request is a callable that receives
the outputs of the earlier requests of its pass.  Oracle references are
computed once per run by ``references()`` and every check runs outside the
timed region.

Why these three workloads: each layer is heavy in one of them and absent
from at least one other, so a change to a layer is predicted to leave the
workloads without that layer unchanged.

* ``chaos-spectra``: only kernels and chaos run; the d-fold log-domain
  convolution dominates.  d against K separates loop depth from length.
* ``ldp-cli``: JSON configs through ``cli.parse_config`` and
  ``cli.execute``; only cli, simplexquad, variational and kernels run.
  Increments-only programs (KKT inner solve) sit next to a box program
  (SLSQP inner solve).
* ``pairing-mc``: only sampler and estimators run, plus one box-only
  variational solve inside the Schilder estimator.  Bridge (chunked,
  nested), epsilon (flat, tilted) and the correlated eta pairing (one large
  array) use the sampler in three different ways.
"""

import io
import json
import math
from contextlib import redirect_stderr
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.integrate import dblquad, quad

from thetalab import chaos, cli, estimators, sampler, simplexquad, variational


class RequestTimeout(BaseException):
    """Raised in the worker when a request exceeds the latency limit.

    A BaseException, so that no ``except Exception`` in the program
    swallows it.
    """


@dataclass
class Request:
    name: str
    call: object           # outputs-of-earlier-requests -> output


@dataclass
class Check:
    name: str
    request: str           # the request a miss is charged to
    ok: bool
    detail: str
    known_defect: str = ""  # non-empty: a documented failure of the program
    covers: tuple = ()      # further requests whose output the check reads
    # False for a Monte Carlo miss that chance can explain (z <= 5): it
    # counts as a failed request but does not mark the run incorrect
    certain: bool = True

    def __post_init__(self):
        # comparisons of numpy scalars give np.bool_
        self.ok, self.certain = bool(self.ok), bool(self.certain)


def _direction(rng, d):
    v = rng.standard_normal(d)
    return v / np.linalg.norm(v)


def _rel(a, b):
    return abs(a - b) / abs(b)


def _missing(out):
    """Detail string for a request that produced no output, else None."""
    if isinstance(out, BaseException):
        return f"request failed: {type(out).__name__}: {out}"
    return None


def _judge(checks, outputs, name, request, judge, z_test=False):
    """Append the check of one request.

    ``judge(output)`` returns ``(ok, detail)``, or ``(z, detail)`` with
    ``z_test`` for a z-test against the 3-sigma limit.
    """
    out = outputs.get(request)
    miss = _missing(out)
    if miss:
        checks.append(Check(name, request, False, miss))
    elif z_test:
        checks.append(_z_check(name, request, *judge(out)))
    else:
        checks.append(Check(name, request, *judge(out)))


Z_LIMIT = 3.0    # a Monte Carlo oracle miss counts as a failed request
Z_CERTAIN = 5.0  # beyond this a miss marks the run incorrect


def _z_check(name, request, z, detail, **kw):
    return Check(name, request, z <= Z_LIMIT,
                 f"{detail}, z={z:.2f} (limit {Z_LIMIT:g})",
                 certain=not z <= Z_CERTAIN, **kw)


# ---------------------------------------------------------------------------
# chaos-spectra

class ChaosSpectra:
    name = "chaos-spectra"
    GAMMAS = (-1.5, -2.5, -3.5)
    MEHLER_S = 0.5

    def __init__(self, seed, smoke=False):
        rng = np.random.default_rng([seed, 1])
        # (d, K, |u|, tau): K=2000 at two scales, a short K at a large
        # |u|/tau, then d=2 and d=6 to separate loop depth from length
        cases = [(4, 2000, 1.0, 0.3), (4, 2000, math.sqrt(5.0), 0.1),
                 (4, 500, 4.0, 0.05), (2, 2000, 1.0, 0.3),
                 (6, 1000, 1.0, 0.3)]
        if smoke:
            cases = [(d, max(K // 50, 8), n, tau) for d, K, n, tau in cases]
        self.cases = [(f"spectrum-d{d}-K{K}-u{norm:.3g}-tau{tau:g}",
                       d, K, norm * _direction(rng, d), tau)
                      for d, K, norm, tau in cases]

    def requests(self, pass_index):
        return [Request(name, partial(self._spectrum, d, K, u, tau,
                                      self.cases[0][0] if i == 1 else None))
                for i, (name, d, K, u, tau) in enumerate(self.cases)]

    def _spectrum(self, d, K, u, tau, wick_with, outputs):
        """Spectrum, its series and, for the second case, the Wick product.

        The Wick product rides on the second request instead of being one
        of its own: a millisecond request would put the median latency in
        the gap between two request classes, where it jumps between them.
        """
        sp = chaos.delta_increment_spectrum(
            chaos.IncrementSpec(u, 0.0, tau), d, K)
        series = {}
        for g in self.GAMMAS:
            idx = chaos.SobolevIndex(g)
            series[g] = (chaos.sobolev_norm_sq(sp, idx),
                         chaos.sobolev_partial_sums(sp, idx))
        wick = None
        if wick_with is not None:
            wick = chaos.wick_convolve(outputs[wick_with][0], sp)
        return sp, series, wick

    def references(self):
        return {}

    def _mehler_log(self, d, u, tau):
        """Log of sum_k a_k s^k by Mehler's formula, x = u / sqrt(tau).

        sum_k a_k s^k = p_tau(u)^2 (1 - s^2)^(-d/2) exp(|x|^2 s / (1 + s)).
        """
        s = self.MEHLER_S
        x2 = float(u @ u) / tau
        log_p = -0.5 * d * math.log(2.0 * math.pi * tau) - float(u @ u) \
            / (2.0 * tau)
        return 2.0 * log_p - 0.5 * d * math.log1p(-s * s) \
            + x2 * s / (1.0 + s)

    def _series_sum(self, levels):
        k = np.arange(levels.size)
        return float(np.sum(levels * self.MEHLER_S ** k))

    def _mehler_check(self, d, u, tau, out):
        err = _rel(self._series_sum(out[0].levels),
                   math.exp(self._mehler_log(d, u, tau)))
        return err <= 1e-10, (f"generating function at s=1/2, rel err "
                              f"{err:.2e} (limit 1e-10)")

    @staticmethod
    def _series_check(K, out):
        sp, series, _ = out
        worst = 0.0
        finite = True
        for g, ((value, last), partial_sums) in series.items():
            finite = finite and math.isfinite(value) and math.isfinite(last)
            worst = max(worst, _rel(value, partial_sums[-1]),
                        _rel(last, (K + 1.0) ** g * sp.levels[-1]))
        return finite and worst <= 1e-12, (f"norm vs partial sums, rel err "
                                           f"{worst:.1e}")

    def check(self, outputs, refs):
        checks = []
        for name, d, K, u, tau in self.cases:
            _judge(checks, outputs, f"mehler:{name}", name,
                   partial(self._mehler_check, d, u, tau))
            _judge(checks, outputs, f"series:{name}", name,
                   partial(self._series_check, K))
        (first, d0, _, u0, t0), (second, d1, _, u1, t1) = self.cases[:2]
        out = outputs.get(second)
        if not _missing(out) and not _missing(outputs.get(first)):
            want = math.exp(self._mehler_log(d0, u0, t0)
                            + self._mehler_log(d1, u1, t1))
            err = _rel(self._series_sum(out[2].levels), want)
            checks.append(Check("mehler:wick", second, err <= 1e-10,
                                f"product of generating functions, rel err "
                                f"{err:.2e} (limit 1e-10)", covers=(first,)))
        return checks

    def route_metrics(self, outputs, seconds):
        return {}


# ---------------------------------------------------------------------------
# ldp-cli

class LdpCli:
    name = "ldp-cli"
    T_GRID = [4.0, 8.0, 12.0, 16.0, 20.0]
    # k -> relative tolerance of the fitted limit against closed_form_inf
    SLOPE_TOL = {2: 0.02, 3: 0.03, 4: 0.03}
    K4_DEFECT = ("3-gap tensor_gauss quadrature raises OverflowError "
                 "after 30-60 s (open item: simplex quadrature)")
    # the only failures of the k=4 request that K4_DEFECT excuses
    K4_DEFECT_ERRORS = (RequestTimeout, OverflowError)

    def __init__(self, seed, smoke=False):
        rng = np.random.default_rng([seed, 2])
        d = 4
        t_grid = self.T_GRID[:3] if smoke else self.T_GRID
        cfg = {}
        self.expect = {}
        for norm in (0.5, 1.0, 2.0, 4.0):
            u = (norm * _direction(rng, d)).tolist()
            name = f"mass-u{norm:g}"
            cfg[name] = {"command": "mass", "d": d, "u": u}
            self.expect[name] = ("mass", u)
        for k in (2, 3, 4):
            u_list = [_direction(rng, d).tolist() for _ in range(k - 1)]
            name = f"ldp-slope-k{k}"
            cfg[name] = {"command": "ldp-slope", "d": d, "u_list": u_list,
                         "t_grid": t_grid}
            self.expect[name] = ("slope", u_list, k)
        readme = [[None, None, [1, 0]], [None, None, [0, 1]]]
        cfg["rate-min-readme"] = {"command": "rate-min", "d": 2,
                                  "increments": readme}
        self.expect["rate-min-readme"] = ("inf", [[1, 0], [0, 1]])
        # Fixed targets, not drawn from the workload seed: the outer search
        # costs 1.4-7.8 s at k=5 across random unit targets of equal norm,
        # so seed-drawn targets would make sweep_s spread across seeds
        # wider than any bound the benchmark may set.
        fixed = np.random.default_rng(0)
        for k in (3, 4, 5):
            us = [_direction(fixed, d).tolist() for _ in range(k - 1)]
            name = f"rate-min-k{k}"
            cfg[name] = {"command": "rate-min", "d": d,
                         "increments": [[None, None, u] for u in us]}
            self.expect[name] = ("inf", us)
        cfg["rate-min-box"] = {"command": "rate-min", "d": 2,
                               "increments": [[None, None, [1, 0]]],
                               "boxes": [{"time": 1.0, "lo": [None, 0.5]}]}
        self.expect["rate-min-box"] = ("box", [[1, 0]])
        cfg["asymptotic-scan"] = {
            "command": "asymptotic-scan", "d": d,
            "f": {"family": "abs_power", "param": 0.5},
            "u_norms": [2.0 ** -m for m in range(9)]}
        self.expect["asymptotic-scan"] = ("scan",)
        for name, doc in cfg.items():
            doc["format"] = "json"
            if smoke and doc["command"] == "rate-min":
                doc["n_restarts"] = 1
        self.configs = {name: json.dumps(doc) for name, doc in cfg.items()}

    def requests(self, pass_index):
        return [Request(name, partial(self._run, text))
                for name, text in self.configs.items()]

    @staticmethod
    def _run(text, outputs):
        """What ``thetalab <cmd>`` does after import, output kept in memory."""
        buf, err = io.StringIO(), io.StringIO()
        with redirect_stderr(err):
            code = cli.execute(cli.parse_config(text), out_stream=buf)
        return code, buf.getvalue(), err.getvalue()

    def references(self):
        refs = {}
        for name, exp in self.expect.items():
            if exp[0] == "mass":
                refs[name] = simplexquad.mass_m_direct(np.asarray(exp[1]), 4)
            elif exp[0] in ("slope", "inf", "box"):
                refs[name] = variational.closed_form_inf(
                    [np.asarray(u) for u in exp[1]])
        return refs

    def check(self, outputs, refs):
        checks = []
        for name, exp in self.expect.items():
            kind = exp[0]
            out = outputs.get(name)
            miss = _missing(out)
            if miss is None and out[0] != 0:
                miss = f"exit code {out[0]}: {out[2].strip()[:200]}"
            if miss:
                # the documented k=4 defect is a timeout or an overflow;
                # any other failure, a nonzero exit too, is not excused
                known = name == "ldp-slope-k4" and isinstance(
                    out, self.K4_DEFECT_ERRORS)
                checks.append(Check(f"{kind}:{name}", name, False, miss,
                                    self.K4_DEFECT if known else ""))
                continue
            doc = json.loads(out[1])
            meta, rows = doc["meta"], doc["rows"]
            if kind == "mass":
                err = _rel(rows[0]["value"], refs[name])
                checks.append(Check(f"mass:{name}", name, err <= 1e-8,
                                    f"vs mass_m_direct, rel err {err:.2e} "
                                    "(limit 1e-8)"))
            elif kind == "slope":
                tol = self.SLOPE_TOL[exp[2]]
                err = _rel(meta["fitted_L"], refs[name])
                checks.append(Check(f"slope:{name}", name, err <= tol,
                                    f"fitted L {meta['fitted_L']:.5f} vs "
                                    f"{refs[name]:g}, rel err {err:.2%} "
                                    f"(limit {tol:.0%})"))
            elif kind == "inf":
                want = refs[name]
                err = abs(meta["value"] - want) / max(1.0, want)
                checks.append(Check(f"inf:{name}", name, err <= 1e-6,
                                    f"value {meta['value']:.9f} vs closed "
                                    f"form {want:g}, rel err {err:.1e} "
                                    "(limit 1e-6)"))
            elif kind == "box":
                ok = meta["value"] >= refs[name] - 1e-6
                checks.append(Check(f"box:{name}", name, ok,
                                    f"value {meta['value']:.6f} >= closed "
                                    f"form {refs[name]:g} - 1e-6"))
            else:
                slope = meta["loglog_slope"]
                finite = all(math.isfinite(r["mass"]) for r in rows)
                checks.append(Check(f"scan:{name}", name,
                                    finite and slope >= -2.6,
                                    f"log-log slope {slope:.4f} >= -2.6"))
        return checks

    def route_metrics(self, outputs, seconds):
        return {}


# ---------------------------------------------------------------------------
# pairing-mc

def _gaussian_window(v):
    return np.exp(-np.sum(v * v, axis=-1) / 2.0)


def _exact_bump_pairing(u, d, k):
    """Pairing of the unit Gaussian bump at t=1 with theta_{u,...,u}, k=2, 3.

    Given the k-1 window increments, each equal to u, w(1) is Gaussian with
    mean (k-1)u and variance s = 1 - (sum of the gaps) per coordinate, and
    E exp(-|X|^2/2) = (1+s)^(-d/2) exp(-|mean|^2 / (2(1+s))).  The pairing
    is then a (k-1)-fold integral over the gaps, weighted by the length s
    left for the first time; plain quadrature, no sampling and no thetalab.
    """
    q = float(u @ u)

    def p(a):  # heat kernel p^d_a at |u|^2 = q
        return (2.0 * math.pi * a) ** (-d / 2) * math.exp(-q / (2.0 * a))

    def tail(s):
        return s * (1.0 + s) ** (-d / 2) \
            * math.exp(-(k - 1) ** 2 * q / (2.0 * (1.0 + s)))

    if k == 2:
        val, _ = quad(lambda a: tail(1.0 - a) * p(a), 0.0, 1.0,
                      epsabs=0.0, epsrel=1e-12, limit=200)
    else:
        val, _ = dblquad(lambda b, a: tail(1.0 - a - b) * p(a) * p(b),
                         0.0, 1.0, 0.0, lambda a: 1.0 - a,
                         epsabs=0.0, epsrel=1e-11)
    return val


class PairingMc:
    name = "pairing-mc"
    LADDER = (0.04, 0.02, 0.01)
    # the miss is one-sided but has no z ceiling: over 40 passes of seeds
    # 172672630-172672649, 13 missed at z=3.2-20.9, every one with epsilon
    # below bridge and a small epsilon stderr, as when the sample misses a
    # heavy right tail; so the side of the miss is what is recorded
    K3_DEFECT = ("epsilon route falls below bridge at k=3 for some seeds, "
                 "its stderr far too small (z=9.5 at seeds 41/42, 6.6 at "
                 "241/242, 20.9 at 172672634)")
    # routes scored by work-normalised variance, stderr^2 x seconds
    WNV = {"bridge-k2": "wnv_bridge_k2", "bridge-k3": "wnv_bridge_k3",
           "epsilon-k2": "wnv_epsilon_k2", "epsilon-k3": "wnv_epsilon_k3",
           "eta-correlated": "wnv_eta_corr"}

    def __init__(self, seed, smoke=False):
        self.seed = seed
        rng = np.random.default_rng([seed, 3])
        d = self.d = 4
        self.u = _direction(rng, d)
        self.cond_u = rng.standard_normal(d)
        self.e1 = np.array([1.0, 0.0, 0.0, 0.0])  # criterion-9 inputs
        scale = 100 if smoke else 1
        self.bridge_n = (15625 // scale, 64)
        self.eps_n = 333333 // scale
        self.cyl_n = (20000 // scale, 8)
        self.eta_n = 200000 // scale
        self.corr_n = (200000 // scale, 64)
        self.direct_n = 4000000 // scale
        self.schilder_n = 100000 // scale
        self.cond_n = 10000 // scale

    REFERENCE_KEY = 2 ** 31  # seed key of the oracle runs, never a pass

    def _mc_seed(self, pass_index, stream):
        return int(np.random.SeedSequence(
            [self.seed, pass_index, stream]).generate_state(1)[0])

    def requests(self, pass_index):
        s = partial(self._mc_seed, pass_index)
        bump = estimators.gaussian_bump((1.0,), np.zeros(self.d))
        reqs = []
        for k in (2, 3):
            us = [self.u] * (k - 1)
            reqs.append(Request(f"bridge-k{k}", partial(
                self._bridge, bump, us, s(10 * k))))
            reqs.append(Request(f"epsilon-k{k}", partial(
                self._epsilon, bump, us, s(10 * k + 1))))
        reqs += [
            Request("cylinder", partial(self._cylinder, s(40))),
            Request("eta-independent", partial(self._eta_ind, s(50))),
            Request("eta-correlated", partial(self._eta_corr, s(60))),
            Request("schilder", partial(self._schilder, s(70))),
            Request("conditioned", partial(self._conditioned, s(80))),
        ]
        return reqs

    def _bridge(self, F, us, seed, outputs):
        n_outer, n_inner = self.bridge_n
        return estimators.pairing_bridge(F, us, self.d, n_outer, n_inner,
                                         seed)

    def _epsilon(self, F, us, seed, outputs):
        return estimators.pairing_epsilon(F, us, self.d, self.LADDER,
                                          self.eps_n, seed)[0]

    def _cylinder(self, seed, outputs):
        n_outer, n_inner = self.cyl_n
        return estimators.cylinder_mass((0.5,), [-1.0] * 4, [1.0] * 4,
                                        [self.u], self.d, n_outer, n_inner,
                                        seed)

    def _eta_ind(self, seed, outputs):
        f = estimators.WeightFunction("abs_power", 0.5)
        return estimators.eta_pairing_independent(None, None, f, self.u,
                                                  self.d, self.eta_n, 1, seed)

    def _corr_args(self):
        return (_gaussian_window, None,
                estimators.WeightFunction("indicator_pos"), self.e1, self.d,
                0.6, (0.2, 0.6))

    def _eta_corr(self, seed, outputs):
        n_outer, n_inner = self.corr_n
        return estimators.eta_pairing_correlated(
            *self._corr_args(), n_outer, n_inner, seed, t_pair=(0.4, 0.8))

    def _schilder(self, seed, outputs):
        rows, warning = variational.schilder_empirical_slope(
            variational.halfspace_set(1.0), 2, [3.0, 4.0, 5.0, 6.0, 8.0],
            self.schilder_n, seed)
        return rows, warning

    def _conditioned(self, seed, outputs):
        grid = sampler.TimeGrid(np.linspace(0.0, 1.0, 33))
        cons = sampler.IncrementConstraintSet(((0.25, 0.5, self.cond_u),))
        g, vals = sampler.sample_conditioned_bm(grid, cons, self.d, seed,
                                                n=self.cond_n)
        i1, i2 = g.index_of(0.25), g.index_of(0.5)
        # reduce inside the request: 1e4 paths are not kept across passes
        return float(np.abs(vals[:, i2] - vals[:, i1] - self.cond_u).max())

    def references(self):
        f = estimators.WeightFunction("abs_power", 0.5)
        return {
            "eta-correlated": estimators.eta_pairing_correlated_direct(
                *self._corr_args(), 0.005, self.direct_n,
                self._mc_seed(self.REFERENCE_KEY, 90), t_pair=(0.4, 0.8)),
            "eta-independent": simplexquad.eta_mass_integral(
                self.u, self.d, f.gaussian_moment),
            "cylinder": simplexquad.mass_m(self.u, self.d),
            "bridge-k2": _exact_bump_pairing(self.u, self.d, 2),
            "bridge-k3": _exact_bump_pairing(self.u, self.d, 3),
        }

    @staticmethod
    def _z(a, b):
        return abs(a.value - b.value) / math.hypot(a.stderr, b.stderr)

    def check(self, outputs, refs):
        checks = []
        for k in (2, 3):
            bn, en = f"bridge-k{k}", f"epsilon-k{k}"
            b, e = outputs.get(bn), outputs.get(en)
            if _missing(b) or _missing(e):
                failed = bn if _missing(b) else en
                checks.append(Check(f"duality:k{k}", failed, False,
                                    _missing(outputs.get(failed)),
                                    covers=(bn, en)))
                continue
            # a miss is charged to the epsilon request, the route whose
            # error estimate is in doubt at k=3; bridge has its own exact
            # check below, so excusing the k=3 miss does not cover bridge
            z = self._z(b, e)
            known = k == 3 and e.value < b.value
            checks.append(_z_check(
                f"duality:k{k}", en, z,
                f"bridge {b.value:.6g} vs epsilon {e.value:.6g}",
                known_defect=self.K3_DEFECT if known else "",
                covers=(bn,)))

        def exact_bridge(k):
            def judge(out):
                want = refs[f"bridge-k{k}"]
                return (abs(out.value - want) / out.stderr,
                        f"{out.value:.6g} vs exact {want:.6g}")
            return judge

        def cylinder(out):
            # distance outside [0, m(u)] in standard errors
            m = refs["cylinder"]
            z = max(0.0, -out.value, out.value - m) / out.stderr
            return z, f"{out.value:.6g} in [0, m(u) = {m:.6g}]"

        def eta_independent(out):
            want = refs["eta-independent"]
            return (abs(out.value - want) / out.stderr,
                    f"{out.value:.6g} vs eta_mass_integral {want:.6g}")

        def eta_correlated(out):
            ref = refs["eta-correlated"]
            return (self._z(out, ref), f"{out.value:.6g} vs direct oracle "
                    f"{ref.value:.6g} at eps=0.005")

        def schilder(out):
            rows, _ = out
            L, _ = variational.ldp_slope_fit([(t, y) for t, y, _, _ in rows])
            min_ess = min(r[3] for r in rows)
            rel = abs(L - 0.5) / 0.5
            return (rel <= 0.05 and min_ess >= 1000,
                    f"L={L:.4f} ({rel:.2%} of 0.5, limit 5%), min ESS "
                    f"{min_ess:.0f} (limit 1000)")

        def conditioned(residual):
            return residual <= 1e-12, (f"increment residual {residual:.1e} "
                                       "(limit 1e-12)")

        for k in (2, 3):
            _judge(checks, outputs, f"exact:bridge-k{k}", f"bridge-k{k}",
                   exact_bridge(k), z_test=True)
        _judge(checks, outputs, "bound:cylinder", "cylinder", cylinder,
               z_test=True)
        _judge(checks, outputs, "quad:eta-independent", "eta-independent",
               eta_independent, z_test=True)
        _judge(checks, outputs, "direct:eta-correlated", "eta-correlated",
               eta_correlated, z_test=True)
        _judge(checks, outputs, "slope:schilder", "schilder", schilder)
        _judge(checks, outputs, "residual:conditioned", "conditioned",
               conditioned)
        return checks

    def route_metrics(self, outputs, seconds):
        """Work-normalised variances and the larger duality z of a pass."""
        done = {name for name, out in outputs.items() if not _missing(out)}
        out = {metric: outputs[name].stderr ** 2 * seconds[name]
               for name, metric in self.WNV.items() if name in done}
        z = [self._z(outputs[f"bridge-k{k}"], outputs[f"epsilon-k{k}"])
             for k in (2, 3) if {f"bridge-k{k}", f"epsilon-k{k}"} <= done]
        if z:
            out["estimators.duality_z"] = max(z)
        return out


WORKLOADS = {w.name: w for w in (ChaosSpectra, LdpCli, PairingMc)}
