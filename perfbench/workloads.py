"""The benchmark's two seeded workloads.

Each workload is a fixed catalog of task kinds (25 in ``grids``, 26 in
``cli``).  A *round* is one task of every catalog entry, in an order and
with inputs drawn from ``numpy.random.default_rng([seed, round])``; the
benchmark runs whole rounds, so every run sees the same size mix.  The
seed only picks values that do not change a task's cost: random grid
values, random field elements, evaluation points.

A task kind has three steps, and only ``execute`` is timed:
  prepare(spec)              -> inputs, generated from the spec's seed
  execute(spec, inputs)      -> outputs, through the public ultrazeta API
  check(spec, inputs, out)   -> raises WrongOutput unless an independent
                                oracle agrees

Library entry points are always reached as attributes of their module
(``zeta.igusa_series``), never bound at import time, so that the traced
run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from collections import namedtuple
from fractions import Fraction

import numpy as np

from ultrazeta import cli, fundsol, grid, intpoly, localfield, pdo, ratfunc, \
    zeta

Spec = namedtuple("Spec", "label params seed")

FLOAT_TOL = 1e-12
# brute enumeration as an oracle is affordable up to this many points
BRUTE_POINTS = {"Qp": 400_000, "LaurentFp": 20_000}


class WrongOutput(Exception):
    """A task's output disagrees with its oracle."""


def round_specs(workload, seed, r):
    """The task list of round ``r``: a pure function of (seed, r)."""
    rng = np.random.default_rng([seed, r])
    specs = [Spec(label, params, int(rng.integers(2 ** 62)))
             for label, params in workload.catalog]
    return [specs[i] for i in rng.permutation(len(specs))]


def _field(kind, p):
    return localfield.FieldSpec(kind, p)


def _require(ok, what):
    if not ok:
        raise WrongOutput(what)


def _series_of(num, den, terms):
    """Power series of num/den by long division over Q (the oracle's own)."""
    out = []
    for k in range(terms):
        acc = Fraction(num[k]) if k < len(num) else Fraction(0)
        for j in range(1, min(k, len(den) - 1) + 1):
            acc -= Fraction(den[j]) * out[k - j]
        out.append(acc / Fraction(den[0]))
    return out


def _negation_index(kind, p, width):
    """Axis index of -rep_i, from digit arithmetic (the oracle's own)."""
    i = np.arange(p ** width, dtype=np.int64)
    if kind == "Qp":
        return (-i) % p ** width
    out = np.zeros_like(i)
    for t in range(width):
        out += ((-((i // p ** t) % p)) % p) * p ** t
    return out


def _max_reflect_error(a, b, perm):
    """max |a(x) - b(-x)|, a block of axis 0 at a time to bound memory."""
    n, Q = b.ndim, len(perm)
    step = max(1, 2 ** 20 // Q ** (n - 1))
    err = 0.0
    for s in range(0, Q, step):
        blk = b[perm[s:s + step]]
        for ax in range(1, n):
            blk = np.take(blk, perm, axis=ax)
        err = max(err, float(np.max(np.abs(a[s:s + step] - blk))))
    return err


def _random_complex(rng, shape):
    return rng.standard_normal(2 * math.prod(shape)).view(
        np.complex128).reshape(shape)


def _dual_point(field, m, j):
    """The frequency-grid representative of index j (dual grid L' = m)."""
    digits = [(j // field.p ** t) % field.p for t in range(64)]
    if field.kind == "Qp":
        return Fraction(j, field.p ** m)
    return localfield.LocalFieldElement.from_laurent_coeffs(
        field, {t - m: d for t, d in enumerate(digits) if d})


# -- grids --------------------------------------------------------------------

class Grids:
    """Random grid functions through the transforms, norms, metric,
    convolution, reflection and restriction; no zeta, no exact arithmetic.
    Sizes run from ~10^4 cells (inside the 2 MiB L2 of a core) to 2^18
    and 3^12 cells (4 and 8 MiB); the largest F_p((T)) kind only
    transforms, so that a round stays near two seconds.  Grids past the
    105 MiB L3 are the traced run's 256^3 cases: one such task here costs
    more than the rest of a round."""

    name = "grids"
    # (field, p, n, L, m, steps)
    _small = [(fk, p, n, L, m) for fk in ("Qp", "LaurentFp")
              for p, n, L, m in [(2, 1, 7, 7), (3, 2, 2, 3), (5, 2, 1, 2),
                                 (2, 3, 2, 3), (3, 1, 4, 5), (2, 2, 4, 4),
                                 (2, 1, 8, 8), (5, 1, 3, 4), (2, 2, 3, 4),
                                 (3, 3, 1, 2)]]
    _medium = [("Qp", 5, 2, 2, 2), ("Qp", 2, 3, 3, 3), ("Qp", 3, 3, 2, 2),
               ("LaurentFp", 5, 2, 2, 2)]
    _large = [("LaurentFp", 2, 1, 9, 9)]
    catalog = (
        [(f"full:{fk}:p{p}:n{n}:L{L}m{m}", (fk, p, n, L, m, "full"))
         for fk, p, n, L, m in _small + _medium]
        + [(f"transform:{fk}:p{p}:n{n}:L{L}m{m}", (fk, p, n, L, m,
                                                   "transform"))
           for fk, p, n, L, m in _large])

    def __init__(self, workdir):
        pass

    def prepare(self, spec):
        fk, p, n, L, m, steps = spec.params
        rng = np.random.default_rng(spec.seed)
        field = _field(fk, p)
        shape = (p ** (L + m),) * n
        g = grid.GridFunction(field, n, L, m, _random_complex(rng, shape))
        if steps != "full":
            return g, None, None
        h = grid.GridFunction(field, n, L, m, _random_complex(rng, shape))
        j = int(rng.integers(p ** (L + m)))
        return g, h, j

    def execute(self, spec, inputs):
        fk, p, n, L, m, steps = spec.params
        g, h, j = inputs
        gh = grid.fourier_transform(g)
        out = {"g2": grid.fourier_transform(gh), "l2": grid.l2_norm(g),
               "l2hat": grid.l2_norm(gh)}
        if steps != "full":
            return out
        out["gh"] = gh
        out["sobolev"] = [grid.sobolev_norm(g, l) for l in (0, 1, 2)]
        out["metric"] = grid.hinf_metric(g, h)
        out["conv"] = grid.convolve(g, h)
        out["reflect"] = grid.reflect(g)
        if n >= 2:
            xi0 = _dual_point(g.field, m, j)
            pg = grid.partial_fourier_restrict(g, [n - 1], [xi0])
            out["restricted_hat"] = grid.fourier_transform(pg)
        return out

    def check(self, spec, inputs, out):
        fk, p, n, L, m, steps = spec.params
        g, h, j = inputs
        perm = _negation_index(fk, p, L + m)
        scale = float(np.max(np.abs(g.values)))
        err = _max_reflect_error(out["g2"].values, g.values, perm)
        _require(err <= FLOAT_TOL * scale,
                 f"{spec.label}: involution error {err:.3e}")
        meas = float(Fraction(p) ** (-m * n))
        l2 = math.sqrt(float(np.vdot(g.values, g.values).real) * meas)
        for name in ("l2", "l2hat"):
            _require(abs(out[name] - l2) <= FLOAT_TOL * l2,
                     f"{spec.label}: Parseval ({name}) {out[name]} vs {l2}")
        if steps != "full":
            return
        sob = out["sobolev"]
        _require(abs(sob[0] - l2) <= FLOAT_TOL * l2 and
                 sob[0] <= sob[1] * (1 + FLOAT_TOL) and
                 sob[1] <= sob[2] * (1 + FLOAT_TOL),
                 f"{spec.label}: Sobolev norms {sob}")
        _require(0.0 < out["metric"] < 1.0, f"{spec.label}: metric")
        _require(_max_reflect_error(out["reflect"].values, g.values, perm)
                 == 0.0, f"{spec.label}: reflect")
        gh = out["gh"].values
        hh = grid.fourier_transform(h).values
        conv_hat = grid.fourier_transform(out["conv"]).values
        err = float(np.max(np.abs(conv_hat - gh * hh)))
        _require(err <= 1e-10 * float(np.max(np.abs(gh * hh))),
                 f"{spec.label}: convolution theorem {err:.3e}")
        if n >= 2:
            err = float(np.max(np.abs(out["restricted_hat"].values
                                      - gh[..., j])))
            _require(err <= FLOAT_TOL * float(np.max(np.abs(gh))),
                     f"{spec.label}: restriction error {err:.3e}")


# -- cli ----------------------------------------------------------------------

def _json_plain(obj):
    """The report conventions of the README: Fractions as strings,
    complex numbers as {"re", "im"}."""
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    raise TypeError(type(obj))


def _roundtrip(obj):
    return json.loads(json.dumps(obj, default=_json_plain))


def _write_grid_json(path, g, axis_cache):
    """Write ``g.to_json()`` as JSON text, vectorised on the benchmark's
    side: the library's own encoder is per cell and would make writing the
    inputs cost more than the timed tasks.  Float reprs round-trip, so the
    CLI reads exactly ``g``'s values."""
    p, width = g.field.p, g.L + g.m
    key = (p, width)
    if key not in axis_cache:
        axis_cache[key] = [
            json.dumps([(i // p ** t) % p for t in range(width)])
            for i in range(p ** width)]
    axis = axis_cache[key]
    flat = g.values.reshape(-1)
    keep = np.flatnonzero(flat)
    cosets = [", ".join(axis[i] for i in idx)
              for idx in zip(*np.unravel_index(keep, g.values.shape))]
    entries = ", ".join(
        f'{{"coset": [{c}], "re": {re!r}, "im": {im!r}}}'
        for c, re, im in zip(cosets, flat.real[keep].tolist(),
                             flat.imag[keep].tolist()))
    head = json.dumps({"field": g.field.to_json(), "n": g.n, "L": g.L,
                       "m": g.m})
    with open(path, "w") as fh:
        fh.write(f'{head[:-1]}, "values": [{entries}]}}')


_CLI_GRIDS = [("Qp", 3, 1, 1, 1), ("Qp", 3, 2, 1, 1), ("Qp", 2, 2, 3, 3),
              ("LaurentFp", 3, 2, 2, 2), ("Qp", 2, 2, 4, 3)]
_CLI_GRID_TASKS = [("fourier",) + g for g in _CLI_GRIDS] + [
    (cmd,) + g for cmd in ("sobolev", "riesz") for g in _CLI_GRIDS[2:]] + [
    ("riesz", "LaurentFp", 2, 2, 3, 3)]


class Cli:
    """The README quickstart plus ``sobolev``, ``field`` and singular and
    brute-force ``zeta igusa`` runs, in process through
    ``ultrazeta.cli.main``; inputs and outputs are files in a work
    directory.  Grid JSON runs from 9 to 2^14 cells, so serialisation,
    not arithmetic, is the grid layer's share here.  This workload also
    carries the series engines (lift, brute counts, closed monomial forms,
    reconstruction) and the fundamental-solution checks."""

    name = "cli"
    catalog = (
        [("igusa:x1^2", ("igusa", "Qp", 3, 1, "x1^2", 8, None, "auto")),
         ("igusa:x1*x2", ("igusa", "Qp", 3, 2, "x1*x2", 10, (0, 2), "auto")),
         ("igusa:fpt", ("igusa", "LaurentFp", 3, 2, "x1^2+x1*x2+x2^3", 12,
                        None, "lift")),
         # singular lifts whose open frontier grows (ROADMAP item 2)
         ("igusa:cusp", ("igusa", "Qp", 3, 2, "x1^2-x2^3", 11, None,
                         "lift")),
         ("igusa:x1^2*x2-x2^4", ("igusa", "Qp", 2, 2, "x1^2*x2-x2^4", 8,
                                 None, "lift")),
         ("igusa:brute", ("igusa", "Qp", 3, 2, "x1^2+x1*x2+x2^3", 4,
                          None, "brute")),
         ("hinf:n2", ("hinf", 2, 2, 1.0, 0.7)),
         ("poles:2", ("poles", "(1,1);(2,2)", ["2,1,..."], 10)),
         ("fundsol:x1*x2", ("fundsol", "x1*x2", 2, 3, 10)),
         ("fundsol:x1", ("fundsol", "x1", 1, 3, 6)),
         ("field", ("field", "Qp", 3)),
         ("field:fpt", ("field", "LaurentFp", 5))]
        + [(f"{cmd}:{fk}:p{p}:n{n}:L{L}m{m}", (cmd, fk, p, n, L, m))
           for cmd, fk, p, n, L, m in _CLI_GRID_TASKS]
        + [(f"op_apply:p3:n2:L1m{m}", ("op_apply", "Qp", 3, 2, 1, m))
           for m in (1, 2)])

    def __init__(self, workdir):
        self.dir = workdir
        self._grids = {}        # the grid behind each prepared JSON input
        self._memo = {}         # in-process results of repeated inputs
        self._axes = {}         # JSON digit lists of each axis index
        os.makedirs(workdir, exist_ok=True)

    def _once(self, key, compute):
        """The in-process result for ``key``, computed the first time only:
        most tasks repeat the same inputs every round, and the result of a
        deterministic computation does not change."""
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def _path(self, spec, name):
        return os.path.join(self.dir, f"{spec.seed}-{name}")

    def prepare(self, spec):
        cmd = spec.params[0]
        rng = np.random.default_rng(spec.seed)
        report = self._path(spec, "report.json")
        if cmd == "igusa":
            _, fk, p, n, poly, terms, rec, method = spec.params
            argv = ["zeta", "igusa", "--p", str(p), "--field-kind", fk,
                    "--n", str(n), "--poly", poly, "--terms", str(terms),
                    "--method", method]
            if rec:
                argv += ["--reconstruct", str(rec[0]), str(rec[1])]
        elif cmd == "hinf":
            _, n, d, alpha, s = spec.params
            s = s + float(rng.integers(0, 8)) / 16
            argv = ["zeta", "hinf", "--n", str(n), "--d", str(d),
                    "--alpha", str(alpha), "--s", repr(s), "--mode", "both"]
        elif cmd == "poles":
            _, data, progs, depth = spec.params
            argv = ["poles", "--data", data, "--depth", str(depth)]
            for prog in progs:
                argv += ["--prog", prog]
        elif cmd == "fundsol":
            _, poly, n, p, trials = spec.params
            # one of a few trial seeds, so the in-process oracle is reused
            argv = ["--seed", str(int(rng.integers(4))), "fundsol",
                    "--poly", poly, "--n", str(n), "--p", str(p),
                    "--trials", str(trials)]
        elif cmd == "field":
            return self._prepare_field(spec, rng, report)
        else:
            _, fk, p, n, L, m = spec.params
            g = grid.GridFunction(_field(fk, p), n, L, m,
                                  _random_complex(rng, (p ** (L + m),) * n))
            src = self._path(spec, "g.json")
            _write_grid_json(src, g, self._axes)
            self._grids[spec.seed] = g
            out = self._path(spec, "out.json")
            argv = {"fourier": ["fourier", "--input", src, "--output", out],
                    "sobolev": ["sobolev", "--input", src, "--l",
                                str(int(rng.integers(0, 4)))],
                    "riesz": ["op", "riesz-check", "--alpha", "0.3",
                              "--alpha", "0.5", "--alpha", "0.7",
                              "--input", src],
                    "op_apply": ["op", "apply", "--symbol", "x1^2+x2^2:1.5",
                                 "--input", src, "--out", out, "--norms",
                                 "0", "2"]}[cmd]
        return [["--report", report] + argv]

    def _prepare_field(self, spec, rng, report):
        _, fk, p = spec.params
        field = _field(fk, p)
        elems = []
        for _ in range(2):
            digits = [int(d) for d in rng.integers(0, p, 8)]
            digits[0] = max(digits[0], 1)
            elems.append(json.dumps(localfield.LocalFieldElement.from_digits(
                field, int(rng.integers(-3, 4)), digits).to_json()))
        runs = []
        for k, op in enumerate(("valuation", "char", "add", "sub", "mul",
                                "div")):
            argv = ["--report", f"{report}.{k}", "field", "--op", op,
                    "--a", elems[0]]
            if op not in ("valuation", "char"):
                argv += ["--b", elems[1]]
            runs.append(argv)
        return runs

    def execute(self, spec, runs):
        codes = []
        with contextlib.redirect_stderr(io.StringIO()):
            for argv in runs:
                codes.append(cli.main(argv))
        return codes

    def check(self, spec, runs, codes):
        _require(all(c == 0 for c in codes), f"{spec.label}: exit {codes}")
        reports = []
        for argv in runs:
            with open(argv[1]) as fh:
                reports.append(json.load(fh))
            os.remove(argv[1])
        getattr(self, "_check_" + spec.params[0])(spec, runs, reports)
        for name in ("g.json", "out.json"):
            path = self._path(spec, name)
            if os.path.exists(path):
                os.remove(path)

    def _same(self, spec, got, want):
        _require(got == _roundtrip(want),
                 f"{spec.label}: report differs from the in-process result")

    def _check_igusa(self, spec, runs, reports):
        _, fk, p, n, poly, terms, rec, method = spec.params
        f = intpoly.parse_polynomial(poly, n)
        coeffs = self._once(spec.label, lambda: list(zeta.igusa_series(
            f, _field(fk, p), terms, method=method).coeffs))
        res = reports[0]["results"]
        self._same(spec, res["series"]["coefficients"], coeffs)
        # independent oracles: the other counting method, the closed
        # monomial form, and the reconstruction's own series
        other = "lift" if method == "brute" else "brute"
        K = terms
        while other == "brute" and K > 0 \
                and p ** (n * (K + 1)) > BRUTE_POINTS[fk]:
            K -= 1
        oracle = self._once((poly, n, fk, p, K, other), lambda: list(
            zeta.igusa_series(f, _field(fk, p), K, method=other,
                              budget=10 ** 7).coeffs))
        _require(coeffs[:K + 1] == oracle,
                 f"{spec.label}: differs from the {other} counts")
        if method == "auto" and f.monomial_profile() is not None:
            closed = zeta.monomial_zeta_closed(
                list(f.monomial_profile()[1]), q=p)
            _require(coeffs == _series_of(closed.num.coeffs,
                                          closed.den.coeffs, len(coeffs)),
                     f"{spec.label}: differs from the closed monomial form")
        if rec:
            R = self._once((spec.label, rec), lambda:
                           ratfunc.reconstruct_from_series(coeffs, rec, p))
            self._same(spec, res["rational_function"], R.to_json())
            _require(_series_of(R.num.coeffs, R.den.coeffs, len(coeffs))
                     == coeffs,
                     f"{spec.label}: reconstruction misses series terms")

    def _check_hinf(self, spec, runs, reports):
        argv = runs[0]
        n, d = int(argv[argv.index("--n") + 1]), int(argv[argv.index("--d")
                                                          + 1])
        alpha = float(argv[argv.index("--alpha") + 1])
        s = float(argv[argv.index("--s") + 1])
        eng = zeta.HinfZetaEngine(n, d, alpha, field=_field("Qp", 3))
        res = reports[0]["results"]
        vals = []
        for mode in ("sphere_series", "factored_continuation"):
            r = eng.value(s, mode)
            self._same(spec, res[mode]["value"], complex(r.value))
            vals.append(complex(r.value))
        _require(abs(vals[0] - vals[1]) <= 1e-10,
                 f"{spec.label}: the two evaluation modes disagree")

    def _check_poles(self, spec, runs, reports):
        _, data, progs, depth = spec.params
        pairs = tuple(tuple(int(x) for x in c.strip("()").split(","))
                      for c in data.split(";"))
        prog = zeta.GeneralizedProgression((Fraction(2), Fraction(1)))
        pred = zeta.predict_poles(zeta.ResolutionData(pairs),
                                  [prog] * len(pairs), depth)
        self._same(spec, reports[0]["results"]["pole_list"],
                   [{"value": c.value, "datum": c.datum, "term": c.term}
                    for c in pred.candidates])

    def _check_fundsol(self, spec, runs, reports):
        _, poly, n, p, trials = spec.params
        seed = int(runs[0][runs[0].index("--seed") + 1])
        f = intpoly.parse_polynomial(poly, n)
        field = _field("Qp", p)

        def compute():
            want = fundsol.fundamental_solution_check(f, field,
                                                      trials=trials,
                                                      seed=seed)
            gh = grid.GridFunction.indicator_ball(field, n, 0, exact=True)
            want["t0_on_unit_ball_indicator"] = fundsol.extract_T0(
                gh, f, side="frequency")
            return want
        res = reports[0]["results"]
        self._same(spec, res, self._once((spec.label, seed), compute))
        _require(res["all_passed"], f"{spec.label}: checks failed")
        if poly == "x1":
            # closed form of T0(1_R) for |x|: (1 - 1/q)/2, 1/3 on Q_3
            _require(res["t0_on_unit_ball_indicator"]
                     == str(Fraction(p - 1, 2 * p)),
                     f"{spec.label}: T0 on the unit ball")

    def _check_field(self, spec, runs, reports):
        a = localfield.LocalFieldElement.from_json(json.loads(runs[0][6]))
        b = localfield.LocalFieldElement.from_json(json.loads(runs[2][8]))
        v, nrm = localfield.valuation_and_norm(a)
        self._same(spec, reports[0]["results"],
                   {"valuation": int(v), "norm": nrm})
        r = localfield.char_fraction(a)
        self._same(spec, reports[1]["results"],
                   {"char_exponent": r,
                    "value": complex(np.exp(2j * np.pi * float(r)))})
        for rep, op in zip(reports[2:], ("add", "sub", "mul", "div")):
            self._same(spec, rep["results"],
                       {"result": localfield.field_arith(a, b, op).to_json()})

    def _load(self, spec):
        # JSON keeps every float exactly, so the CLI read this very grid
        return self._grids.pop(spec.seed)

    def _check_fourier(self, spec, runs, reports):
        with open(self._path(spec, "out.json")) as fh:
            got = json.load(fh)
        g = self._load(spec)
        want = grid.fourier_transform(g)
        p, width = g.field.p, want.L + want.m
        entries = got["values"]
        _require((got["L"], got["m"]) == (want.L, want.m)
                 and len(entries) == np.count_nonzero(want.values),
                 f"{spec.label}: transformed grid shape")
        digits = np.array([e["coset"] for e in entries], dtype=np.int64)
        _require(digits.shape[1:] == (g.n, width)
                 and ((0 <= digits) & (digits < p)).all(),
                 f"{spec.label}: transformed grid cosets")
        idx = tuple((digits @ p ** np.arange(width)).T)
        values = np.zeros_like(want.values)
        values.real[idx] = [e["re"] for e in entries]
        values.imag[idx] = [e["im"] for e in entries]
        _require(np.array_equal(values, want.values),
                 f"{spec.label}: transformed values")

    def _check_sobolev(self, spec, runs, reports):
        l = int(runs[0][runs[0].index("--l") + 1])
        val, tail = grid.sobolev_norm_with_tail(self._load(spec), l)
        self._same(spec, reports[0]["results"]["norm"],
                   {"value": val, "mode": "grid-exact-cells",
                    "certified_tail": tail})

    def _check_riesz(self, spec, runs, reports):
        g = self._load(spec)
        res = reports[0]["results"]
        for a in (0.3, 0.5, 0.7):
            lhs = pdo.riesz_pairing([a] * g.n, g)
            rhs = pdo.riesz_space_side([a] * g.n, g)
            self._same(spec, res[str(a)], {"frequency_side": complex(lhs),
                                           "space_side": complex(rhs),
                                           "discrepancy": abs(lhs - rhs)})
            _require(abs(lhs - rhs) <= 1e-10, f"{spec.label}: Riesz identity")

    def _check_op_apply(self, spec, runs, reports):
        g = self._load(spec)
        h = intpoly.parse_polynomial("x1^2+x2^2", 2)
        T = pdo.apply_pseudodiff(pdo.PseudoDiffOp(((h, 1.5),)), g)
        norms = {}
        for l in (0, 2):
            val, tail = grid.sobolev_norm_with_tail(T, l)
            norms[str(l)] = {"value": val, "certified_tail": tail,
                             "mode": "spectral-cells"}
        self._same(spec, reports[0]["results"]["norms"], norms)


WORKLOADS = {w.name: w for w in (Grids, Cli)}
