"""Command-line entry point: every engine behind one dispatcher with JSON
input/output and reproducible reports.

A report depends only on the configuration and seed, byte for byte; wall
time goes to stderr so repeated runs stay identical.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from fractions import Fraction

import numpy as np

from . import fundsol as fundsol_mod
from . import pdo, zeta
from .errors import BudgetExceeded, UltrazetaError
from .grid import GridFunction, fourier_transform, \
    inverse_fourier_transform, sobolev_norm_with_tail
from .intpoly import parse_polynomial
from .localfield import MAX_PRINT_DIGITS, FieldSpec, LocalFieldElement, \
    char_fraction, field_arith, valuation_and_norm


def _json_default(obj):
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    raise TypeError(f"not serializable: {type(obj)!r}")


def write_report(report: dict, path):
    text = json.dumps(report, sort_keys=True, indent=2,
                      default=_json_default) + "\n"
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _read(reader, load, src):
    """``reader(load(src))``; input nested past the recursion limit, in
    the JSON parser or in the reader, is a ValueError."""
    try:
        return reader(load(src))
    except RecursionError:
        raise ValueError("JSON input nested too deeply") from None


def _load_element(args, which) -> LocalFieldElement:
    inline = getattr(args, which)
    fname = getattr(args, f"{which}_file", None)
    if inline:
        return _read(LocalFieldElement.from_json, json.loads, inline)
    if fname:
        with open(fname) as fh:
            return _read(LocalFieldElement.from_json, json.load, fh)
    raise ValueError(f"missing --{which} / --{which}-file")


def _load_grid(path) -> GridFunction:
    with open(path) as fh:
        return _read(GridFunction.from_json, json.load, fh)


def _cfg(args, keys):
    out = {"seed": args.seed}
    for k in keys:
        out[k] = getattr(args, k)
    return out


def cmd_field(args):
    a = _load_element(args, "a")
    results = {}
    if args.op in ("valuation", "norm"):
        v, nrm = valuation_and_norm(a)
        results = {"valuation": "inf" if v == float("inf") else int(v),
                   "norm": nrm}
    elif args.op == "char":
        r = char_fraction(a)
        results = {"char_exponent": r,
                   "value": complex(np.exp(2j * np.pi * float(r)))}
    else:
        b = _load_element(args, "b")
        if args.op == "div" and b.is_zero:
            raise ValueError("division by the zero element")
        c = field_arith(a, b, args.op)
        results = {"result": c.to_json()}
    return {"command": "field", "config": _cfg(args, ["op"]),
            "results": results}


def cmd_fourier(args):
    g = _load_grid(args.input)
    gh = inverse_fourier_transform(g) if args.inverse \
        else fourier_transform(g)
    with open(args.output, "w") as fh:
        fh.writelines([gh.to_json_text(dense=args.dense), "\n"])
    return {"command": "fourier", "config": _cfg(args, ["input", "output",
                                                        "inverse", "dense"]),
            "results": {"L": gh.L, "m": gh.m,
                        "written": args.output}}


def cmd_sobolev(args):
    g = _load_grid(args.input)
    val, tail = sobolev_norm_with_tail(g, args.l)
    return {"command": "sobolev", "config": _cfg(args, ["input", "l"]),
            "results": {"norm": {"value": val, "mode": "grid-exact-cells",
                                 "certified_tail": tail}}}


def _field_from_args(args) -> FieldSpec:
    return FieldSpec(args.field_kind, args.p)


def cmd_zeta_igusa(args):
    field = _field_from_args(args)
    f = parse_polynomial(args.poly, args.n)
    # the report prints each c_k, whose denominator divides q^{n(k+1)}, as
    # a decimal Fraction
    digits = f.n * (args.terms + 1) * math.log10(field.q)
    if digits > MAX_PRINT_DIGITS:
        raise BudgetExceeded(
            f"{args.terms} terms print denominators of up to "
            f"{math.ceil(digits)} digits; the report allows "
            f"{MAX_PRINT_DIGITS}")
    series = zeta.igusa_series(f, field, args.terms, method=args.method)
    results = {"series": {"coefficients": list(series.coeffs),
                          "mode": args.method,
                          "truncation": series.truncation}}
    if args.reconstruct:
        dn, dd = args.reconstruct
        from .ratfunc import reconstruct_from_series
        R = reconstruct_from_series(list(series.coeffs), (dn, dd), field.q)
        results["rational_function"] = R.to_json()
    return {"command": "zeta igusa",
            "config": _cfg(args, ["p", "field_kind", "n", "poly", "terms",
                                  "method", "reconstruct"]),
            "results": results}


def cmd_zeta_hinf(args):
    field = FieldSpec("Qp", args.p)
    s = complex(args.s_re, args.s_im)
    if s.imag == 0:
        s = s.real
    eng = zeta.HinfZetaEngine(args.n, args.d, args.alpha, field=field)
    modes = ["sphere_series", "factored_continuation"] \
        if args.mode == "both" else [args.mode]
    results = {}
    for mode in modes:
        try:
            r = eng.value(s, mode)
        except OverflowError:
            raise ValueError(f"s = {s} and alpha = {args.alpha} take "
                             f"{mode} out of floating-point range") from None
        results[mode] = {"value": complex(r.value),
                         "mode": r.mode, "truncation": r.truncation,
                         "certified_tail": r.tail_bound}
    results["pole_list"] = [float(v) for v in eng.prediction.values()
                            if float(v) >= -6]
    return {"command": "zeta hinf",
            "config": _cfg(args, ["p", "n", "d", "alpha", "s_re", "s_im",
                                  "mode"]),
            "results": results}


def _parse_data(text) -> zeta.ResolutionData:
    pairs = []
    for chunk in text.split(";"):
        chunk = chunk.strip().strip("()")
        a, b = chunk.split(",")
        pairs.append((int(a), int(b)))
    return zeta.ResolutionData(tuple(pairs))


def _parse_prog(text) -> zeta.GeneralizedProgression:
    text = text.strip()
    if text.endswith(",..."):
        text = text[:-4]
    vals = []
    for tok in text.split(","):
        tok = tok.strip()
        if "/" in tok:
            vals.append(Fraction(tok))
        else:
            vals.append(Fraction(tok) if "." not in tok else float(tok))
    return zeta.GeneralizedProgression(tuple(vals))


def cmd_poles(args):
    data = _parse_data(args.data)
    progs = [_parse_prog(p) for p in args.prog]
    if len(progs) == 1 and len(data.pairs) > 1:
        progs = progs * len(data.pairs)
    pred = zeta.predict_poles(data, progs, args.depth)
    return {"command": "poles",
            "config": _cfg(args, ["data", "prog", "depth"]),
            "results": {"pole_list": [
                {"value": c.value, "datum": c.datum, "term": c.term}
                for c in pred.candidates]}}


def _parse_symbol(text, n):
    poly_text, _, alpha_text = text.rpartition(":")
    if not poly_text:
        raise ValueError("symbol must look like 'x1^2+x2^2:1.5'")
    h = parse_polynomial(poly_text, n)
    return h, complex(float(alpha_text), 0.0)


def cmd_op_apply(args):
    g = _load_grid(args.input)
    symbols = tuple(_parse_symbol(s, g.n) for s in args.symbol)
    op = pdo.PseudoDiffOp(symbols)
    T = pdo.apply_pseudodiff(op, g)
    multipliers = json.dumps([{"poly": repr(m.poly),
                               "alpha": complex(m.alpha)}
                              for m in T.multipliers],
                             sort_keys=True, default=_json_default)
    norms = {}  # before the file is written: a refused norm writes none
    for l in args.norms or []:
        val, tail = sobolev_norm_with_tail(T, l)
        norms[str(l)] = {"value": val, "certified_tail": tail,
                         "mode": "spectral-cells"}
    # the payload {"base": ..., "multipliers": ...} with sorted keys
    with open(args.output, "w") as fh:
        fh.writelines(['{"base": ', T.base.to_json_text(dense=args.dense),
                       ', "multipliers": ', multipliers, "}\n"])
    return {"command": "op apply",
            "config": _cfg(args, ["input", "output", "symbol"]),
            "results": {"written": args.output, "norms": norms}}


def cmd_op_riesz(args):
    g = _load_grid(args.input)
    results = {}
    for a in args.alpha:
        lhs = pdo.riesz_pairing([a] * g.n, g)
        rhs = pdo.riesz_space_side([a] * g.n, g)
        results[str(a)] = {"frequency_side": complex(lhs),
                           "space_side": complex(rhs),
                           "discrepancy": abs(lhs - rhs)}
    return {"command": "op riesz-check",
            "config": _cfg(args, ["input", "alpha"]),
            "results": results}


def cmd_fundsol(args):
    field = FieldSpec(args.field_kind, args.p)
    f = parse_polynomial(args.poly, args.n)
    out = fundsol_mod.fundamental_solution_check(
        f, field, trials=args.trials, seed=args.seed)
    gh = GridFunction.indicator_ball(field, args.n, 0, exact=True)
    t0 = fundsol_mod.extract_T0(gh, f, side="frequency")
    out["t0_on_unit_ball_indicator"] = t0 if isinstance(t0, Fraction) \
        else complex(t0)
    return {"command": "fundsol",
            "config": _cfg(args, ["poly", "p", "n", "trials"]),
            "results": out}


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: ``parse_args`` keeps no state from
    one call to the next, so ``main`` reuses it."""
    ap = argparse.ArgumentParser(
        prog="ultrazeta",
        description="analysis over non-Archimedean local fields: zeta "
                    "functions, pseudodifferential operators, fundamental "
                    "solutions")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--report", default=None,
                    help="write the JSON report here (default stdout)")
    # the same flags parse after the subcommand as well; SUPPRESS keeps
    # subparser defaults from clobbering values given up front
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    shared.add_argument("--report", default=argparse.SUPPRESS)
    kw = {"parents": [shared]}
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("field", help="local field element operations", **kw)
    p.add_argument("--op", required=True,
                   choices=["valuation", "norm", "char", "add", "sub",
                            "mul", "div"])
    p.add_argument("--a")
    p.add_argument("--a-file")
    p.add_argument("--b")
    p.add_argument("--b-file")
    p.set_defaults(func=cmd_field)

    p = sub.add_parser("fourier", help="grid Fourier transform", **kw)
    p.add_argument("--input", required=True)
    p.add_argument("--output", "--out", required=True)
    p.add_argument("--inverse", action="store_true")
    p.add_argument("--dense", action="store_true")
    p.set_defaults(func=cmd_fourier)

    p = sub.add_parser("sobolev", help="Sobolev norm of a grid function",
                       **kw)
    p.add_argument("--input", required=True)
    p.add_argument("--l", type=int, required=True)
    p.set_defaults(func=cmd_sobolev)

    pz = sub.add_parser("zeta", help="local zeta functions", **kw)
    zsub = pz.add_subparsers(dest="zeta_command", required=True)

    p = zsub.add_parser("igusa", **kw)
    p.add_argument("--p", type=int, default=3)
    p.add_argument("--field-kind", default="Qp",
                   choices=["Qp", "LaurentFp"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--poly", required=True)
    p.add_argument("--terms", type=int, default=8)
    p.add_argument("--method", default="auto",
                   choices=["auto", "lift", "brute"])
    p.add_argument("--reconstruct", type=int, nargs=2, default=None,
                   metavar=("DN", "DD"))
    p.set_defaults(func=cmd_zeta_igusa)

    p = zsub.add_parser("hinf", **kw)
    p.add_argument("--p", type=int, default=3)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--s", dest="s_re", type=float, required=True)
    p.add_argument("--s-im", dest="s_im", type=float, default=0.0)
    p.add_argument("--mode", default="both",
                   choices=["sphere_series", "factored_continuation",
                            "both"])
    p.set_defaults(func=cmd_zeta_hinf)

    for parent in (zsub, sub):
        p = parent.add_parser("poles", **kw)
        p.add_argument("--data", required=True,
                       help='numerical data, e.g. "(1,1);(2,2)"')
        p.add_argument("--prog", action="append", required=True,
                       help='progression gammas, e.g. "2,1,..." '
                            '(repeat per datum)')
        p.add_argument("--depth", type=int, default=10)
        p.set_defaults(func=cmd_poles)

    po = sub.add_parser("op", help="pseudodifferential operators", **kw)
    osub = po.add_subparsers(dest="op_command", required=True)

    p = osub.add_parser("apply", **kw)
    p.add_argument("--symbol", action="append", required=True,
                   help='e.g. "x1^2+x2^2:1.5"')
    p.add_argument("--input", required=True)
    p.add_argument("--output", "--out", required=True, dest="output")
    p.add_argument("--dense", action="store_true")
    p.add_argument("--norms", type=int, nargs="*", default=None)
    p.set_defaults(func=cmd_op_apply)

    p = osub.add_parser("riesz-check", **kw)
    p.add_argument("--alpha", type=float, action="append", required=True)
    p.add_argument("--input", required=True)
    p.set_defaults(func=cmd_op_riesz)

    p = sub.add_parser("fundsol", help="fundamental solution checks", **kw)
    p.add_argument("--poly", required=True)
    p.add_argument("--p", type=int, default=3)
    p.add_argument("--field-kind", default="Qp",
                   choices=["Qp", "LaurentFp"])
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--trials", type=int, default=10)
    p.set_defaults(func=cmd_fundsol)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    t0 = time.perf_counter()
    try:
        report = args.func(args)
        elapsed = time.perf_counter() - t0
        write_report(report, args.report)
    except (ValueError, KeyError, json.JSONDecodeError, OSError) as err:
        print(f"ultrazeta: invalid input: {err}", file=sys.stderr)
        return 2
    except UltrazetaError as err:
        print(f"ultrazeta: {type(err).__name__}: {err}", file=sys.stderr)
        return 1
    print(f"ultrazeta: {report['command']} finished in {elapsed:.3f}s",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
