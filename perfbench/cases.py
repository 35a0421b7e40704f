"""One-shot layer cases of the traced run (the ROADMAP's item-1 table).

Each case runs alone in a fresh interpreter,

    python3 perfbench/cases.py WORKLOAD NAME

and reports its wall time, problem size, outcome and peak RSS (the
process's ``ru_maxrss``, next to the RSS after imports).  run.py runs the
cases of the traced workload after the traced rounds and records them
with the run; they are not part of any metric.
"""

from __future__ import annotations

import json
import os
import re
import resource
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NPROC = os.cpu_count() or 1


def _rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _lift(poly, terms, budget=4_000_000):
    from ultrazeta import Qp, igusa_series, parse_polynomial
    from ultrazeta.errors import BudgetExceeded

    def run():
        try:
            igusa_series(parse_polynomial(poly, 2), Qp(3), terms,
                         method="lift", budget=budget)
        except BudgetExceeded as err:
            level = re.search(r"level (\d+)", str(err))
            return {"outcome": "BudgetExceeded",
                    "level": int(level.group(1)) if level else None,
                    "budget": budget}
        return {"outcome": "ok"}
    return run, {"poly": poly, "field": "Q_3", "terms": terms}


def _brute(threads):
    from ultrazeta import Qp, igusa_series, parse_polynomial
    os.environ["ULTRAZETA_THREADS"] = str(threads)
    K = 7

    def run():
        igusa_series(parse_polynomial("x1^2+x2^3+x1*x2", 2), Qp(3), K,
                     method="brute", budget=10 ** 9)
        return {"outcome": "ok"}
    return run, {"poly": "x1^2+x2^3+x1*x2", "field": "Q_3", "K": K,
                 "points": 3 ** (2 * (K + 1)), "threads": threads}


def _transform(kind):
    import numpy as np
    from ultrazeta import FieldSpec, GridFunction, fourier_transform
    shape = (2 ** 8,) * 3
    v = np.random.default_rng(0).standard_normal(2 * 2 ** 24).view(
        np.complex128).reshape(shape)
    g = GridFunction(FieldSpec(kind, 2), 3, 4, 4, v)

    def run():
        fourier_transform(g)
        return {"outcome": "ok"}
    return run, {"field": kind, "p": 2, "n": 3, "L": 4, "m": 4,
                 "cells": 2 ** 24}


def _axis_q3_10(what, kind):
    """Axis tables at Q = 3^10 through public calls: ``reflect`` builds
    the negation table, ``spectral_space_value`` the character weights
    that ``partial_fourier_restrict`` uses (on one axis, so the grid stays
    3^10 cells)."""
    from fractions import Fraction

    import numpy as np
    from ultrazeta import FieldSpec, GridFunction, LocalFieldElement, \
        SpectralFunction, reflect, spectral_space_value
    field = FieldSpec(kind, 3)
    g = GridFunction(field, 1, 5, 5, np.ones(3 ** 10, dtype=complex))
    if what == "reflect":
        def run():
            reflect(g)
            return {"outcome": "ok"}
    else:
        x = Fraction(1, 3) if kind == "Qp" else \
            LocalFieldElement.from_laurent_coeffs(field, {-1: 1})

        def run():
            spectral_space_value(SpectralFunction(g, ()), [x])
            return {"outcome": "ok"}
    return run, {"field": kind, "p": 3, "Q": 3 ** 10}


def _division():
    from ultrazeta import Qp, parse_polynomial
    from ultrazeta.fundsol import division_check

    def run():
        rep = division_check(parse_polynomial("x1*x2", 2), Qp(3))
        return {"outcome": "ok" if rep.passed else "failed",
                "checked": rep.trials}
    return run, {"poly": "x1*x2", "field": "Q_3", "L": 2, "m": 2,
                 "cells": 3 ** 8}


def _json_io():
    import numpy as np
    from ultrazeta import FieldSpec, GridFunction
    v = np.random.default_rng(0).standard_normal(2 * 2 ** 18).view(
        np.complex128).reshape(2 ** 9, 2 ** 9)
    g = GridFunction(FieldSpec("Qp", 2), 2, 4, 5, v)

    def run():
        text = json.dumps(g.to_json())
        GridFunction.from_json(json.loads(text))
        return {"outcome": "ok", "bytes": len(text)}
    return run, {"field": "Q_2", "n": 2, "cells": 2 ** 18}


# name -> (layer, setup); setup() returns (run, size record)
CASES = {
    "cli": {
        "grid.json.2^18": ("grid", _json_io),
        "division.x1*x2": ("fundsol", _division),
        **{f"lift.cusp.t{t}": ("zeta", lambda t=t: _lift("x1^2-x2^3", t))
           for t in (12, 14, 16, 18)},
        **{f"lift.x1^2*x2-x2^4.t{t}":
           ("zeta", lambda t=t: _lift("x1^2*x2-x2^4", t)) for t in (8, 10)},
        "lift.x1^2*x2-x2^4.t12.budget":
            ("zeta", lambda: _lift("x1^2*x2-x2^4", 12, budget=100_000)),
        "brute.K7.threads1": ("zeta", lambda: _brute(1)),
        f"brute.K7.threads{NPROC}": ("zeta", lambda: _brute(NPROC)),
    },
    "grids": {
        "fourier.qp.256^3": ("grid", lambda: _transform("Qp")),
        "fourier.fpt.256^3": ("grid", lambda: _transform("LaurentFp")),
        "reflect.qp.Q3^10": ("grid", lambda: _axis_q3_10("reflect", "Qp")),
        "reflect.fpt.Q3^10":
            ("grid", lambda: _axis_q3_10("reflect", "LaurentFp")),
        "char_weights.qp.Q3^10": ("grid", lambda: _axis_q3_10("char", "Qp")),
        "char_weights.fpt.Q3^10":
            ("grid", lambda: _axis_q3_10("char", "LaurentFp")),
    },
}


def run_one(workload, name):
    layer, setup = CASES[workload][name]
    run, size = setup()
    base = _rss_mb()
    t0 = time.perf_counter()
    outcome = run()
    seconds = time.perf_counter() - t0
    return {"name": name, "layer": layer, "seconds": seconds, "size": size,
            "peak_rss_mb": _rss_mb(), "rss_before_mb": base, **outcome}


def run_all(workload, env, time_left):
    """Run each case of the workload in its own interpreter, while time is
    left; the results go to stderr and into the run's record."""
    results = []
    for name in CASES[workload]:
        if time_left() < 30:
            results.append({"name": name, "outcome": "skipped: run limit"})
            continue
        try:
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), workload, name],
                cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                timeout=time_left() - 10)
        except subprocess.TimeoutExpired:
            results.append({"name": name, "outcome": "stopped: run limit"})
            continue
        if proc.returncode != 0:
            sys.exit(f"benchmark: case {name} exited with {proc.returncode}")
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(res)
        print(f"case {name}: {res['seconds']:.3f} s, peak "
              f"{res['peak_rss_mb']:.0f} MiB, {res['outcome']}",
              file=sys.stderr)
    times = {r["size"]["threads"]: r["seconds"] for r in results
             if r["name"].startswith("brute.") and "seconds" in r}
    if len(times) == 2 and NPROC > 1:
        eff = times[1] / (NPROC * times[NPROC])
        results.append({"name": "brute.K7.scaling_efficiency",
                        "value": eff, "nproc": NPROC})
        print(f"brute counts: scaling efficiency {eff:.2f} on {NPROC} "
              f"threads", file=sys.stderr)
    return results


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(ROOT, "src"))
    print(json.dumps(run_one(sys.argv[1], sys.argv[2])))
