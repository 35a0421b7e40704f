"""The golden corpus: values the engine must keep, bit for bit.

Every section is a dict from an entry name to a JSON value: exact results
as strings (``Fraction`` and ``to_json``), and sha256 digests of table
bytes (with dtype and shape) and of CLI reports.  ``tests/test_golden.py``
recomputes each section and compares it with ``corpus.json``.

Regenerate with ``PYTHONPATH=src python tests/golden/corpus.py``; any
regeneration is a test change, to be recorded entry by entry.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np

from ultrazeta import cli
from ultrazeta.errors import UltrazetaError
from ultrazeta.fundsol import zeta_exact_in_t
from ultrazeta.grid import (GridFunction, fourier_transform,
                            inverse_fourier_transform, random_grid, reflect)
from ultrazeta.intpoly import IntPolynomial, parse_polynomial
from ultrazeta.localfield import (LaurentFp, LocalFieldElement, Qp,
                                  _digit_group_matrix, _digit_reversal,
                                  char_fraction, field_arith,
                                  valuation_and_norm)
from ultrazeta.zeta import (cells_to_rational, geometric_zeta_factor,
                            igusa_series, monomial_zeta_closed, snc_form_Z0)

PATH = Path(__file__).with_name("corpus.json")
PRIMES = (2, 3, 5, 7)
# (L, m) of the axis tables and grids
SHAPES = ((0, 1), (1, 0), (1, 1), (2, 1), (1, 2))


def _sha(data) -> str:
    if isinstance(data, np.ndarray):
        a = np.ascontiguousarray(data)
        h = hashlib.sha256(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
        return h.hexdigest()
    return hashlib.sha256(data.encode()).hexdigest()


def _outcome(fn, *args):
    """fn(*args), or the name of the package error or ZeroDivisionError it
    raises."""
    try:
        return fn(*args)
    except (UltrazetaError, ZeroDivisionError) as err:
        return type(err).__name__


def _element(rng, field):
    if rng.random() < 0.1:
        return LocalFieldElement.zero(field)
    digits = rng.integers(0, field.p, int(rng.integers(1, 13))).tolist()
    digits[0] = max(digits[0], 1)
    return LocalFieldElement.from_digits(field, int(rng.integers(-3, 4)),
                                         digits)


def tables() -> dict:
    """Digit tables: reversals, F_p^{tensor c}, negations, characters,
    grid JSON digits, and the transforms and reflections built on them."""
    out = {}
    rng = np.random.default_rng(18)
    for p in PRIMES:
        for width in range(5):
            if p ** width <= 2401:
                out[f"reversal/{p}/{width}"] = _sha(_digit_reversal(p, width))
        for c in range(1, 7):
            if p ** c <= 64:
                for inv in (False, True):
                    out[f"group/{p}/{c}/{inv}"] = \
                        _sha(_digit_group_matrix(p, c, inv))
        for L, m in SHAPES:
            for field in (Qp(p), LaurentFp(p)):
                key = f"{field.kind}{p}/{L},{m}"
                out[f"negation/{key}"] = _sha(field.ops.negation(L, m))
                for j in range(3):
                    c = _element(rng, field)
                    w = _outcome(field.ops.char_weights, c, L, m)
                    out[f"char/{key}/{j}"] = w if isinstance(w, str) \
                        else _sha(w)
                n = 2 if p ** (2 * (L + m)) <= 2401 else 1
                g = random_grid(field, n, L, m, rng)
                out[f"json/{key}"] = _sha(json.dumps(g.to_json(dense=True),
                                                     sort_keys=True))
                out[f"json_text/{key}"] = _sha(g.to_json_text(dense=True))
                out[f"fourier/{key}"] = _sha(fourier_transform(g).values)
                out[f"inverse/{key}"] = \
                    _sha(inverse_fourier_transform(g).values)
                out[f"reflect/{key}"] = _sha(reflect(g).values)
    return out


def field_ops() -> dict:
    """The seven ``field`` operations on 20 element pairs per field."""
    out = {}
    rng = np.random.default_rng(7)
    for field in (Qp(3), Qp(5), LaurentFp(3), LaurentFp(5)):
        for i in range(20):
            a, b = _element(rng, field), _element(rng, field)
            if i % 5 == 4:  # equal operands: sub cancels every digit
                b = a
            key = f"{field.kind}{field.p}/{i}"
            v, nrm = valuation_and_norm(a)
            out[f"{key}/valuation"] = [str(v), str(nrm)]
            out[f"{key}/char"] = str(_outcome(char_fraction, a))
            for op in ("add", "sub", "mul", "div"):
                r = _outcome(field_arith, a, b, op)
                out[f"{key}/{op}"] = r if isinstance(r, str) else r.to_json()
    return out


def eval_fpt() -> dict:
    out = {}
    rng = np.random.default_rng(5)
    for p in PRIMES:
        for k in range(6):
            n = int(rng.integers(1, 4))
            f = IntPolynomial.make(n, {
                tuple(rng.integers(0, 4, n).tolist()):
                    int(rng.integers(-9, 10)) for _ in range(4)})
            trunc = int(rng.integers(1, 8))
            point = [tuple(rng.integers(0, p, trunc).tolist())
                     for _ in range(n)]
            out[f"{p}/{k}"] = list(f.eval_fpt(point, p, trunc))
    return out


def rational() -> dict:
    """Exact closed forms, SNC forms and cell sums, as Fraction strings."""
    out = {}
    for q in (2, 3, 5):
        for N in (1, 2, 3):
            for v in (1, 2, 3):
                out[f"geometric/{q}/{N}/{v}"] = \
                    geometric_zeta_factor(q, N, v).to_json()
    for N, v in (((1,), (1,)), ((2, 1), (1, 1)), ((1, 3), (2, 1)),
                 ((2, 2, 1), (1, 2, 3))):
        for q in (3, 5):
            out[f"monomial/{q}/{N}/{v}"] = \
                monomial_zeta_closed(list(N), list(v), q=q).to_json()
    for field, text, n, d, terms in (
            (Qp(3), "x1^2+x2^2", 2, 2, 12), (Qp(5), "x1^2+x2^2", 2, 2, 12),
            (LaurentFp(3), "x1^2+x2^2", 2, 2, 12),
            (LaurentFp(5), "x1^2+x2^2", 2, 2, 12),
            (LaurentFp(3), "x1", 1, 1, 8),
            (Qp(5), "x1^3+x2^3", 2, 3, 14)):
        f = parse_polynomial(text, n)
        series = igusa_series(f, field, terms)
        out[f"snc/{field.kind}{field.p}/{text}"] = \
            snc_form_Z0(f, d, series, field).to_json()
    rng = np.random.default_rng(3)
    for field in (Qp(3), LaurentFp(3)):
        grids = [GridFunction.indicator_ball(field, n, r, exact=True)
                 for n in (1, 2) for r in (-1, 0, 1)]
        g = GridFunction.zeros(field, 2, 1, 1, exact=True)
        for idx in np.ndindex(g.values.shape):
            if rng.random() < 0.4:
                g.values[idx] = Fraction(int(rng.integers(-5, 6)),
                                         int(rng.integers(1, 7)))
        grids.append(g)
        for j, g in enumerate(grids):
            for specs in ([(1, 1)], [(2, 1)], [(1, 2), (1, 1)],
                          [None, (3, 1)], [(2, 3), None]):
                if len(specs) == g.n:
                    out[f"cells/{field.kind}/{j}/{specs}"] = \
                        cells_to_rational(g, specs).to_json()
            poly = "x1^2" if g.n == 1 else "x1*x2^2"
            out[f"zeta_t/{field.kind}/{j}"] = zeta_exact_in_t(
                g, parse_polynomial(poly, g.n), side="frequency").to_json()
    return out


def _commands(d: Path):
    """(name, argv) of the CLI runs, with their input grids written to d."""
    rng = np.random.default_rng(11)
    runs = []
    for field in (Qp(3), LaurentFp(3)):
        kind = field.kind
        grid = d / f"g_{kind}.json"
        grid.write_text(random_grid(field, 2, 1, 1, rng).to_json_text())
        ball = d / f"ball_{kind}.json"
        ball.write_text(GridFunction.indicator_ball(field, 2, 0, L=1,
                                                    m=1).to_json_text())
        for name, g in (("random", grid), ("ball", ball)):
            for l in (-2, 0, 1, 3):
                runs.append((f"sobolev/{kind}/{name}/{l}",
                             ["sobolev", "--input", str(g), "--l", str(l)]))
            for inv in ([], ["--inverse"]):
                runs.append((f"fourier/{kind}/{name}/{inv}",
                             ["fourier", "--input", str(g), "--dense",
                              "--output", str(d / "out.json")] + inv))
            symbols = ["x1:1.5", "x1*x2^2:0.5"]
            if field.kind == "Qp":
                symbols.append("x1^2+x2^2:1.5")
            for sym in symbols:
                runs.append((f"op/{kind}/{name}/{sym}",
                             ["op", "apply", "--symbol", sym, "--input",
                              str(g), "--dense", "--out",
                              str(d / "out.json"), "--norms", "0", "2"]))
        runs.append((f"fundsol/{kind}",
                     ["fundsol", "--poly", "x1*x2", "--n", "2", "--p", "3",
                      "--field-kind", kind, "--trials", "2"]))
        for method in ("auto", "lift", "brute"):
            for poly in ("x1^2-x2^3", "x1*x2^2"):
                runs.append((f"igusa/{kind}/{method}/{poly}",
                             ["zeta", "igusa", "--p", "3", "--field-kind",
                              kind, "--n", "2", "--poly", poly, "--terms",
                              "5", "--method", method]))
    return runs


def reports() -> dict:
    """sha256 of each CLI report's results with sorted keys (the path of
    an output file left out), and of the output file it writes."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        for name, argv in _commands(d):
            written = d / "out.json"
            written.unlink(missing_ok=True)
            rc = cli.main(argv + ["--report", str(d / "report.json")])
            entry = {"exit": rc}
            if rc == 0:
                results = json.loads((d / "report.json").read_text())[
                    "results"]
                results.pop("written", None)
                entry["results"] = _sha(json.dumps(results, sort_keys=True))
                if written.exists():
                    entry["output"] = _sha(written.read_text())
            out[name] = entry
    return out


SECTIONS = {"tables": tables, "field_ops": field_ops, "eval_fpt": eval_fpt,
            "rational": rational, "reports": reports}


def dump(corpus: dict) -> str:
    """JSON text with one entry per line, keys sorted, for short diffs."""
    sections = []
    for name in sorted(corpus):
        entries = ",\n".join(f"  {json.dumps(k)}: "
                             f"{json.dumps(v, sort_keys=True)}"
                             for k, v in sorted(corpus[name].items()))
        sections.append(f" {json.dumps(name)}: {{\n{entries}\n }}")
    return "{\n" + ",\n".join(sections) + "\n}\n"


if __name__ == "__main__":
    corpus = {name: build() for name, build in SECTIONS.items()}
    PATH.write_text(dump(corpus))
    print(f"wrote {sum(map(len, corpus.values()))} entries to {PATH}",
          file=sys.stderr)
