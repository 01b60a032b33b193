"""Per-request baseline rows of the ROADMAP performance table.

Usage, from the root of a source checkout::

    python3 perfbench/baseline.py

writes ``perfbench/results/baseline.json`` (``--out`` to write elsewhere).

Each row times one library call (median of ``REPEATS`` runs, in one
process with BLAS threads capped at nproc) and sets it next to the figure
the ROADMAP recorded.  A row counts as reproduced when the median lies
within 25% of that figure and, for Monte Carlo rows, the stderr within a
factor 1.5.  Warnings are captured per row, not printed.
"""

import argparse
import json
import statistics
import sys
import time
import warnings
from collections import Counter
from pathlib import Path

import run

# (row, ROADMAP seconds, ROADMAP stderr or None)
ROADMAP = {
    "delta_increment_spectrum d=4 K=500": (0.23, None),
    "delta_increment_spectrum d=4 K=2000": (1.07, None),
    "mass_m d=4 |u|=1": (0.002, None),
    "mass_m_direct d=4 |u|=1": (0.29, None),
    "ldp_mass_curve k=3, 5 points": (5.35, None),
    "minimize_energy k=2": (0.065, None),
    "minimize_energy k=3": (0.088, None),
    "minimize_energy k=5": (1.73, None),
    "pairing_bridge k=2, 1e6 samples": (0.58, 1.9e-5),
    "pairing_epsilon k=2, 1e6 samples": (0.81, 2.1e-4),
}
TIME_TOL = 0.25
REPEATS = 5
STDERR_FACTOR = 1.5


def calls():
    """Row name -> zero-argument call returning (value, stderr or None)."""
    import numpy as np
    from thetalab import chaos, estimators, simplexquad, variational

    e1 = np.array([1.0, 0.0, 0.0, 0.0])
    spec = chaos.IncrementSpec(e1, 0.0, 0.3)
    # the variational rows follow the variational-consistency criterion:
    # targets are the first draws of its generator, one restart per solve
    rng = np.random.default_rng(12)
    targets = {k: [rng.normal(size=4) for _ in range(k - 1)]
               for k in (2, 3, 5)}
    bump = estimators.gaussian_bump((1.0,), np.zeros(4))

    def spectrum(K):
        sp = chaos.delta_increment_spectrum(spec, 4, K)
        return float(sp.levels.sum()), None

    def energy(k):
        prog = variational.ConstraintProgram(
            increments=tuple((None, None, u) for u in targets[k]))
        return variational.minimize_energy(prog, n_restarts=1)[1], None

    def bridge():
        e = estimators.pairing_bridge(bump, [e1], 4, 15625, 64, seed=41)
        return e.value, e.stderr

    def epsilon():
        e, _ = estimators.pairing_epsilon(bump, [e1], 4, (0.04, 0.02, 0.01),
                                          333333, seed=42)
        return e.value, e.stderr

    return {
        "delta_increment_spectrum d=4 K=500": lambda: spectrum(500),
        "delta_increment_spectrum d=4 K=2000": lambda: spectrum(2000),
        "mass_m d=4 |u|=1": lambda: (simplexquad.mass_m(e1, 4), None),
        "mass_m_direct d=4 |u|=1": lambda: (simplexquad.mass_m_direct(e1, 4),
                                             None),
        "ldp_mass_curve k=3, 5 points": lambda: (variational.ldp_slope_fit(
            simplexquad.ldp_mass_curve([e1, e1], 4,
                                       [4.0, 8.0, 12.0, 16.0, 20.0]))[0],
            None),
        "minimize_energy k=2": lambda: energy(2),
        "minimize_energy k=3": lambda: energy(3),
        "minimize_energy k=5": lambda: energy(5),
        "pairing_bridge k=2, 1e6 samples": bridge,
        "pairing_epsilon k=2, 1e6 samples": epsilon,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", default=str(
        Path(__file__).resolve().parent / "results" / "baseline.json"))
    args = parser.parse_args(argv)
    run.cap_threads()
    thetalab, _ = run.import_program()

    rows = []
    for name, call in calls().items():
        roadmap_s, roadmap_se = ROADMAP[name]
        times, caught = [], Counter()
        for _ in range(REPEATS):
            with warnings.catch_warnings(record=True) as log:
                warnings.simplefilter("always")
                t0 = time.perf_counter()
                value, stderr = call()
                times.append(time.perf_counter() - t0)
            caught.update(w.category.__name__ for w in log)
        median = statistics.median(times)
        ratio = median / roadmap_s
        reproduced = abs(ratio - 1.0) <= TIME_TOL
        if roadmap_se is not None:
            reproduced = reproduced and \
                1.0 / STDERR_FACTOR <= stderr / roadmap_se <= STDERR_FACTOR
        rows.append({
            "row": name, "seconds": median, "seconds_runs": times,
            "roadmap_seconds": roadmap_s, "ratio": ratio,
            "value": value, "stderr": stderr, "roadmap_stderr": roadmap_se,
            "reproduced": reproduced,
            "warnings_per_run": {c: n / REPEATS
                                 for c, n in caught.items()},
        })
        print(f"{name}: {median:.4g} s (ROADMAP {roadmap_s:g} s, ratio "
              f"{ratio:.2f})" + (f", stderr {stderr:.2g} (ROADMAP "
                                 f"{roadmap_se:g})" if stderr else "")
              + ("" if reproduced else "  NOT REPRODUCED"), flush=True)

    record = {"provenance": run.provenance(thetalab, kind="baseline",
                                           repeats=REPEATS),
              "rows": rows}
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
