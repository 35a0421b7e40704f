import io
import json
import os
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import ultrazeta
from ultrazeta import pdo
from ultrazeta.cli import build_parser, main
from ultrazeta.grid import GridFunction, fourier_transform, random_grid
from ultrazeta.intpoly import parse_polynomial
from ultrazeta.localfield import Qp


@pytest.fixture
def grid_file(tmp_path):
    g = random_grid(Qp(3), 1, 1, 1, np.random.default_rng(0))
    path = tmp_path / "g.json"
    path.write_text(json.dumps(g.to_json()))
    return str(path)


def test_igusa_dispatch(tmp_path, capsys):
    report = tmp_path / "r.json"
    rc = main(["--report", str(report), "zeta", "igusa", "--p", "3",
               "--n", "1", "--poly", "x1^2", "--terms", "8"])
    assert rc == 0
    out = json.loads(report.read_text())
    assert out["results"]["series"]["coefficients"][:3] == \
        ["2/3", "0", "2/9"]


def test_igusa_reconstruct(tmp_path):
    report = tmp_path / "r.json"
    rc = main(["--report", str(report), "zeta", "igusa", "--p", "3",
               "--n", "1", "--poly", "x1", "--terms", "10",
               "--reconstruct", "0", "1"])
    assert rc == 0
    out = json.loads(report.read_text())
    # monic denominator: (1 - t/3) normalizes to (t - 3) with num scaled
    rf = out["results"]["rational_function"]
    num = Fraction(rf["num"][0])
    den = [Fraction(c) for c in rf["den"]]
    assert den == [-3, 1] and num == -2  # -2/(t-3) = (2/3)/(1-t/3)


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def test_malformed_poly_exits_two():
    rc = main(["zeta", "igusa", "--p", "3", "--n", "1",
               "--poly", "x1^^2", "--terms", "4"])
    assert rc == 2


def test_engine_error_exits_one(grid_file):
    # sphere series diverges for Re(s) <= 0
    rc = main(["zeta", "hinf", "--n", "2", "--d", "2", "--alpha", "1",
               "--s", "-0.4", "--mode", "sphere_series"])
    assert rc == 1


def test_fourier_roundtrip(tmp_path, grid_file):
    out = tmp_path / "gh.json"
    back = tmp_path / "g2.json"
    assert main(["fourier", "--input", grid_file, "--output",
                 str(out)]) == 0
    assert main(["fourier", "--input", str(out), "--output", str(back),
                 "--inverse"]) == 0
    g = GridFunction.from_json(json.loads(open(grid_file).read()))
    g2 = GridFunction.from_json(json.loads(back.read_text()))
    assert np.max(np.abs(g.values - g2.values)) < 1e-12


def test_fourier_output_matches_json_dump(tmp_path, grid_file):
    out = tmp_path / "gh.json"
    assert main(["fourier", "--input", grid_file, "--output",
                 str(out)]) == 0
    g = GridFunction.from_json(json.loads(open(grid_file).read()))
    want = io.StringIO()
    json.dump(fourier_transform(g).to_json(), want, sort_keys=True)
    assert out.read_text() == want.getvalue() + "\n"


@pytest.mark.parametrize("dense", [False, True])
def test_op_apply_output_matches_json_dump(tmp_path, grid_file, dense):
    out = tmp_path / "T.json"
    argv = ["op", "apply", "--symbol", "x1:1.5", "--symbol", "x1^2:0.5",
            "--input", grid_file, "--output", str(out)]
    assert main(argv + ["--dense"] * dense) == 0
    with open(grid_file) as fh:
        g = GridFunction.from_json(json.load(fh))
    T = pdo.apply_pseudodiff(pdo.PseudoDiffOp((
        (parse_polynomial("x1", 1), 1.5 + 0j),
        (parse_polynomial("x1^2", 1), 0.5 + 0j))), g)
    payload = {"base": T.base.to_json(dense=dense),
               "multipliers": [{"poly": repr(m.poly),
                                "alpha": {"re": m.alpha.real,
                                          "im": m.alpha.imag}}
                               for m in T.multipliers]}
    assert out.read_text() == json.dumps(payload, sort_keys=True) + "\n"


def test_parser_reuse_keeps_no_flags(tmp_path, capsys):
    assert build_parser() is build_parser()
    poles = ["poles", "--data", "(1,1)", "--prog", "2,1,..."]
    r1, r3 = tmp_path / "r1.json", tmp_path / "r3.json"
    runs = [(["--seed", "5", "--report", str(r1)] + poles
             + ["--depth", "3"], r1),
            (poles, None),
            (poles + ["--seed", "9", "--report", str(r3)], r3),
            (poles, None)]
    configs = []
    for argv, report in runs:
        assert main(argv) == 0
        stdout = capsys.readouterr().out
        assert (stdout == "") == (report is not None)
        configs.append(json.loads(report.read_text() if report else stdout)
                       ["config"])
    assert [c["seed"] for c in configs] == [5, 0, 9, 0]
    assert [c["depth"] for c in configs] == [3, 10, 10, 10]
    assert all(c["prog"] == ["2,1,..."] for c in configs)


def test_field_roundtrip(tmp_path):
    report = tmp_path / "r.json"
    elem = {"field": {"kind": "Qp", "p": 3}, "val": 1, "digits": [1, 1]}
    rc = main(["--report", str(report), "field", "--op", "norm",
               "--a", json.dumps(elem)])
    assert rc == 0
    out = json.loads(report.read_text())
    assert out["results"]["norm"] == "1/3"


def test_poles_cli(tmp_path):
    report = tmp_path / "r.json"
    rc = main(["--report", str(report), "poles", "--data", "(1,1);(2,2)",
               "--prog", "2,1/2,...", "--prog", "2,1,...",
               "--depth", "8"])
    assert rc == 0
    vals = [v["value"] for v in
            json.loads(report.read_text())["results"]["pole_list"]]
    assert "-1" in vals and "-3/2" in vals


def test_determinism_byte_identical(tmp_path, grid_file):
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    argv = ["--seed", "7", "fundsol", "--poly", "x1", "--p", "3",
            "--n", "1", "--trials", "5"]
    assert main(["--report", str(r1)] + argv) == 0
    assert main(["--report", str(r2)] + argv) == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_op_apply_and_riesz(tmp_path, grid_file):
    out = tmp_path / "T.json"
    rc = main(["op", "apply", "--symbol", "x1:1.5", "--input", grid_file,
               "--output", str(out), "--norms", "0", "2"])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["multipliers"][0]["alpha"]["re"] == 1.5
    report = tmp_path / "r.json"
    rc = main(["--report", str(report), "op", "riesz-check",
               "--alpha", "0.5", "--input", grid_file])
    assert rc == 0
    res = json.loads(report.read_text())["results"]["0.5"]
    assert res["discrepancy"] < 1e-10


@pytest.mark.parametrize("coset, re, edit", [
    # digit out of range for p = 3
    pytest.param([[7, 0]], 1.0, None, id="coset0-1.0"),
    # more digits than L + m
    pytest.param([[1, 0, 2]], 1.0, None, id="coset1-1.0"),
    # non-finite value
    pytest.param([[1, 0]], float("nan"), None, id="coset2-nan"),
    # two coordinates on an n = 1 grid
    pytest.param([[1, 0], [0, 0]], 1.0, None, id="coset3-1.0"),
    pytest.param([[1, 0]], 10 ** 400, None, id="value-beyond-float"),
    pytest.param([[1, 0]], 1.0, lambda doc: [doc], id="document-list"),
    pytest.param([[1, 0]], 1.0, lambda doc: {**doc, "field": "Qp"},
                 id="field-string"),
    pytest.param([[1, 0]], 1.0,
                 lambda doc: {**doc, "values": [[[1, 0]]]}, id="entry-list"),
    pytest.param([[1, 0]], 1.0, lambda doc: {**doc, "values": {}},
                 id="values-object"),
    pytest.param([[1, 0]], 1.0, lambda doc: {**doc, "m": -2},
                 id="m-negative"),
    pytest.param([[1, 0]], 1.0, lambda doc: {**doc, "L": 1.5}, id="L-float"),
    pytest.param([[1, 0]], 1.0, lambda doc: {**doc, "n": True}, id="n-bool"),
])
def test_fourier_bad_grid_exits_two(tmp_path, coset, re, edit):
    src = tmp_path / "bad.json"
    doc = {"field": {"kind": "Qp", "p": 3}, "n": 1, "L": 1, "m": 1,
           "values": [{"coset": coset, "re": re, "im": 0.0}]}
    src.write_text(json.dumps(edit(doc) if edit else doc))
    rc = main(["fourier", "--input", str(src), "--output",
               str(tmp_path / "out.json")])
    assert rc == 2
    assert not (tmp_path / "out.json").exists()


def test_fourier_duplicate_coset_exits_two(tmp_path):
    src = tmp_path / "dup.json"
    src.write_text(json.dumps({
        "field": {"kind": "Qp", "p": 3}, "n": 1, "L": 1, "m": 1,
        "values": [{"coset": [[1, 0]], "re": 1.0, "im": 0.0},
                   {"coset": [[1, 0]], "re": 5.0, "im": 0.0}]}))
    rc = main(["fourier", "--input", str(src), "--output",
               str(tmp_path / "out.json")])
    assert rc == 2
    assert not (tmp_path / "out.json").exists()


def test_grid_over_cell_budget_exits_one(tmp_path, capsys):
    src = tmp_path / "huge.json"
    src.write_text(json.dumps({"field": {"kind": "Qp", "p": 3}, "n": 3,
                               "L": 6, "m": 6, "values": []}))
    assert main(["sobolev", "--input", str(src), "--l", "0"]) == 1
    assert "BudgetExceeded" in capsys.readouterr().err


@pytest.mark.parametrize("field", [{"kind": "Qp", "p": 3},
                                   {"kind": "LaurentFp", "p": 2}])
def test_n0_grid_commands(tmp_path, field):
    # to_json writes a one-cell document for n = 0; every command reads it
    src = tmp_path / "point.json"
    src.write_text(json.dumps({"field": field, "n": 0, "L": 1, "m": 1,
                               "values": [{"coset": [], "re": 3.0,
                                           "im": 4.0}]}))
    report = tmp_path / "r.json"
    for l in (-1, 0, 2):
        assert main(["--report", str(report), "sobolev", "--input",
                     str(src), "--l", str(l)]) == 0
        assert json.loads(report.read_text())["results"]["norm"]["value"] \
            == 5.0
    out = tmp_path / "ft.json"
    assert main(["--report", str(report), "fourier", "--input", str(src),
                 "--output", str(out)]) == 0
    back = GridFunction.from_json(json.loads(out.read_text()))
    assert back.n == 0 and complex(back.values[()]) == 3 + 4j


@pytest.mark.parametrize("field, name", [
    ({"kind": "Qp", "p": 3.7}, "field p"),
    ({"kind": "Qp", "p": "3"}, "field p"),
    ({"kind": "Qp", "p": True}, "field p"),
    ({"kind": "Qp", "p": 3.0}, "field p"),
    ({"kind": 3, "p": 3}, "field kind"),
    ({"kind": ["Qp"], "p": 3}, "field kind"),
])
def test_fourier_field_types_exit_two(tmp_path, capsys, field, name):
    src = tmp_path / "bad.json"
    src.write_text(json.dumps({"field": field, "n": 1, "L": 1, "m": 1,
                               "values": [{"coset": [[1, 0]], "re": 1.0,
                                           "im": 0.0}]}))
    rc = main(["fourier", "--input", str(src), "--output",
               str(tmp_path / "out.json")])
    assert rc == 2
    assert name in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


_ELEM = {"field": {"kind": "Qp", "p": 3}, "val": 1, "digits": [1, 2]}


@pytest.mark.parametrize("a, name", [
    ([1], "JSON object"),
    ("inf", "JSON object"),
    ({"val": 1, "digits": [1]}, "'field'"),
    ({"field": {"kind": "Qp", "p": 3}, "digits": [1]}, "'val'"),
    ({"field": {"kind": "Qp", "p": 3}, "val": 1}, "'digits'"),
    ({**_ELEM, "field": [3]}, "element field"),
    ({**_ELEM, "field": {"kind": "Qp"}}, "element field"),
    ({**_ELEM, "field": {"kind": "Qp", "p": 4}}, "not prime"),
    ({**_ELEM, "val": 1.5}, "element val"),
    ({**_ELEM, "val": "1"}, "element val"),
    ({**_ELEM, "val": True}, "element val"),
    ({**_ELEM, "val": "-inf"}, "element val"),
    ({**_ELEM, "digits": 12}, "element digits"),
    ({**_ELEM, "digits": [1.5, 7]}, "digit 1.5"),
    ({**_ELEM, "digits": [1, 7]}, "digit 7"),
    ({**_ELEM, "digits": [1, -1]}, "digit -1"),
    ({**_ELEM, "digits": [1, True]}, "digit True"),
    ({**_ELEM, "val": "inf", "digits": [3]}, "digit 3"),
])
@pytest.mark.parametrize("op", ["valuation", "norm", "add"])
def test_field_bad_element_exits_two(tmp_path, capsys, a, name, op):
    report = tmp_path / "r.json"
    rc = main(["--report", str(report), "field", "--op", op,
               "--a", json.dumps(a), "--b", json.dumps(_ELEM)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "invalid input" in err and name in err
    assert "Traceback" not in err
    assert not report.exists()


@pytest.mark.parametrize("val", ["inf", None])
def test_field_zero_element(tmp_path, val):
    report = tmp_path / "r.json"
    zero = {"field": {"kind": "LaurentFp", "p": 5}, "val": val, "digits": []}
    assert main(["--report", str(report), "field", "--op", "valuation",
                 "--a", json.dumps(zero)]) == 0
    assert json.loads(report.read_text())["results"]["valuation"] == "inf"


def test_field_bad_element_file_exits_two(tmp_path):
    src = tmp_path / "b.json"
    src.write_text(json.dumps({**_ELEM, "digits": [1.5, 7]}))
    assert main(["field", "--op", "add", "--a", json.dumps(_ELEM),
                 "--b-file", str(src)]) == 2


# -- inputs that hung or printed a traceback -----------------------------------

def _one_line_exit_two(argv, capsys):
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 2, err
    assert "Traceback" not in err
    assert err.startswith("ultrazeta: invalid input: ")
    assert err.count("\n") == 1
    return err


def _qp_elem(p, val, digits=(1,)):
    return json.dumps({"field": {"kind": "Qp", "p": p}, "val": val,
                       "digits": list(digits)})


@pytest.mark.parametrize("val", [10 ** 30, 100_000, -100_000, 8384])
def test_field_val_whose_norm_cannot_print_exits_two(tmp_path, capsys, val):
    report = tmp_path / "r.json"
    err = _one_line_exit_two(["--report", str(report), "field", "--op",
                              "norm", "--a", _qp_elem(3, val)], capsys)
    assert "8383" in err
    assert not report.exists()


def test_field_largest_val_prints(tmp_path):
    report = tmp_path / "r.json"
    assert main(["--report", str(report), "field", "--op", "norm",
                 "--a", _qp_elem(3, -8383)]) == 0
    assert json.loads(report.read_text())["results"]["norm"] \
        == str(3 ** 8383)


def test_field_large_prime(tmp_path):
    p = 2 ** 61 - 1
    report = tmp_path / "r.json"
    assert main(["--report", str(report), "field", "--op", "mul",
                 "--a", _qp_elem(p, 3, [1, 5]),
                 "--b", _qp_elem(p, -1, [7, p - 1])]) == 0
    out = json.loads(report.read_text())["results"]["result"]
    # (1 + 5p)(7 + (p - 1)p) = 7 + 34p mod p^2
    assert (out["val"], out["digits"]) == (2, [7, 34])


@pytest.mark.parametrize("p", [2 ** 89 - 1, 2 ** 61 + 1])
def test_field_bad_prime_exits_two(capsys, p):
    _one_line_exit_two(["field", "--op", "norm", "--a", _qp_elem(p, 0)],
                       capsys)


@pytest.mark.parametrize("kind", ["Qp", "LaurentFp"])
def test_field_division_by_zero_exits_two(capsys, kind):
    zero = json.dumps({"field": {"kind": kind, "p": 3}, "val": "inf",
                       "digits": []})
    one = json.dumps({"field": {"kind": kind, "p": 3}, "val": 0,
                      "digits": [1]})
    err = _one_line_exit_two(["field", "--op", "div", "--a", one,
                              "--b", zero], capsys)
    assert "zero" in err


def test_unwritable_report_exits_two(tmp_path, capsys):
    _one_line_exit_two(["--report", str(tmp_path / "no" / "r.json"),
                        "field", "--op", "norm", "--a", _qp_elem(3, 0)],
                       capsys)


@pytest.mark.parametrize("flags", [
    ["--alpha", "nan", "--s", "0.7"],
    ["--alpha", "inf", "--s", "0.7"],
    ["--alpha", "1e300", "--s", "0.7"],
    ["--alpha", "1", "--s", "nan"],
    ["--alpha", "1", "--s", "inf"],
    ["--alpha", "1", "--s", "1e300"],
    ["--alpha", "1", "--s", "0.5", "--s-im", "inf"],
])
def test_hinf_non_finite_input_exits_two(capsys, flags):
    _one_line_exit_two(["zeta", "hinf", "--n", "2", "--d", "2"] + flags
                       + ["--mode", "both"], capsys)


def _nested(depth, inner="1"):
    return "[" * depth + inner + "]" * depth


_GRID_HEAD = '{"field": {"kind": "Qp", "p": 3}, "n": 1, "L": 0, "m": 1, '


@pytest.mark.parametrize("text", [
    _nested(20_000),
    _nested(900),
    '{"field": ' + _nested(900) + "}",
    _GRID_HEAD + '"values": ' + _nested(900) + "}",
    _GRID_HEAD + '"values": [{"coset": ' + _nested(900) + ', "re": 1}]}',
])
def test_deeply_nested_json_exits_two(tmp_path, capsys, text):
    src = tmp_path / "g.json"
    src.write_text(text)
    _one_line_exit_two(["fourier", "--input", str(src),
                        "--out", str(tmp_path / "o.json")], capsys)
    _one_line_exit_two(["sobolev", "--input", str(src), "--l", "0"],
                       capsys)
    _one_line_exit_two(["field", "--op", "norm", "--a", text], capsys)
    _one_line_exit_two(["field", "--op", "norm", "--a-file", str(src)],
                       capsys)


@pytest.mark.parametrize("method", ["lift", "brute"])
def test_igusa_large_prime_exceeds_budget(capsys, method):
    # one level of the lift would visit 2^61 children: refused up front
    rc = main(["zeta", "igusa", "--p", str(2 ** 61 - 1), "--n", "1",
               "--poly", "x1^2", "--terms", "4", "--method", method])
    err = capsys.readouterr().err
    assert rc == 1, err
    assert err.startswith("ultrazeta: BudgetExceeded: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["zeta", "igusa", "--n", "1", "--poly", "x1^2", "--terms", "-1"],
    ["zeta", "igusa", "--n", "2", "--poly", "x1*x2", "--terms", "-1"],
    ["fundsol", "--poly", "x1", "--trials", "-1"],
    ["fundsol", "--poly", "x1", "--trials", "0"],
    ["poles", "--data", "(1,1)", "--prog", "2,1,...", "--depth", "-5"],
    ["zeta", "poles", "--data", "(1,1)", "--prog", "2,1,...", "--depth",
     "-1"],
])
def test_negative_size_arguments_exit_two(capsys, argv):
    # an empty series, an empty pole list or a check that never ran must
    # not pass as a result
    _one_line_exit_two(argv, capsys)


def test_igusa_polynomial_zero_in_the_field_exits_two(capsys):
    for method in ("auto", "lift", "brute"):
        err = _one_line_exit_two(
            ["zeta", "igusa", "--field-kind", "LaurentFp", "--p", "3",
             "--n", "1", "--poly", "3*x1", "--terms", "3",
             "--method", method], capsys)
        assert "vanishes in the field" in err


def test_poles_depth_over_budget_exits_one(capsys):
    # refused before any candidate is built: 2 * 10^6 of them
    rc = main(["poles", "--data", "(1,1);(2,2)", "--prog", "2,1,...",
               "--depth", str(10 ** 6)])
    err = capsys.readouterr().err
    assert rc == 1, err
    assert err.startswith("ultrazeta: BudgetExceeded: ")
    assert err.count("\n") == 1


def test_igusa_terms_past_the_report_digits_exit_one(capsys, tmp_path):
    # c_k has a denominator of up to 2 (terms + 1) log10(3) digits, which
    # passes 4,000 at 4,191 terms: refused before any coefficient is
    # computed, not after, when the report cannot print its Fractions
    start = time.perf_counter()
    rc = main(["zeta", "igusa", "--n", "2", "--poly", "x1*x2",
               "--terms", "20000"])
    assert time.perf_counter() - start < 0.1
    err = capsys.readouterr().err
    assert rc == 1, err
    assert err.startswith("ultrazeta: BudgetExceeded: ")
    assert err.count("\n") == 1
    assert main(["zeta", "igusa", "--n", "2", "--poly", "x1*x2",
                 "--terms", "4191"]) == 1
    capsys.readouterr()
    # the largest accepted size prints every coefficient
    report = tmp_path / "r.json"
    assert main(["--report", str(report), "zeta", "igusa", "--n", "2",
                 "--poly", "x1*x2", "--terms", "4190"]) == 0
    coeffs = json.loads(report.read_text())["results"]["series"][
        "coefficients"]
    assert len(coeffs) == 4191
    assert Fraction(coeffs[-1]) > 0


def test_the_report_digits_follow_a_lowered_int_print_limit(tmp_path):
    # under a 1,000-digit limit the bound is 700 digits: 732 terms of x1*x2
    # over Q_3 may print denominators of up to 699.5 digits, 733 of 700.4,
    # and 2,200 terms, whose last denominator 3^2202 has 1,051 digits and
    # cannot print, are refused before any work instead of failing after it
    src = str(Path(ultrazeta.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONINTMAXSTRDIGITS="1000", PYTHONPATH=src)

    def run(terms):
        return subprocess.run(
            [sys.executable, "-m", "ultrazeta.cli", "zeta", "igusa", "--n",
             "2", "--poly", "x1*x2", "--terms", str(terms)],
            env=env, capture_output=True, text=True, cwd=tmp_path)

    ok = run(732)
    assert ok.returncode == 0, ok.stderr
    assert len(json.loads(ok.stdout)["results"]["series"][
        "coefficients"]) == 733
    for terms in (733, 2200):
        refused = run(terms)
        assert refused.returncode == 1, refused.stderr
        assert refused.stderr.startswith("ultrazeta: BudgetExceeded: ")


def test_fundsol_division_walk_over_budget_exits_one(capsys):
    # n = 4 over Q_3 would walk 80^4 cells of element arithmetic
    rc = main(["fundsol", "--poly", "x1*x2*x3*x4", "--n", "4", "--p", "3"])
    err = capsys.readouterr().err
    assert rc == 1, err
    assert err.startswith("ultrazeta: BudgetExceeded: ")
    assert "40960000 cells" in err


# -- element digits and Sobolev norms past the float range ---------------------

def _laurent_elem(digits):
    return json.dumps({"field": {"kind": "LaurentFp", "p": 3}, "val": 0,
                       "digits": [1] + [2] * (digits - 1)})


def test_field_element_past_the_digit_budget_exits_one(capsys):
    from ultrazeta.localfield import MAX_ELEMENT_DIGITS
    assert MAX_ELEMENT_DIGITS < 8000
    start = time.perf_counter()
    rc = main(["field", "--op", "div", "--a", _laurent_elem(8000),
               "--b", _laurent_elem(10)])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert rc == 1, err
    assert err.startswith("ultrazeta: BudgetExceeded: ")
    assert "8000 digits" in err
    assert elapsed < 0.1


def test_field_element_at_the_digit_budget_runs(tmp_path):
    from ultrazeta.localfield import MAX_ELEMENT_DIGITS
    report = tmp_path / "r.json"
    a = _laurent_elem(MAX_ELEMENT_DIGITS)
    assert main(["--report", str(report), "field", "--op", "div",
                 "--a", a, "--b", a]) == 0
    out = json.loads(report.read_text())["results"]["result"]
    assert out["digits"] == [1] + [0] * (MAX_ELEMENT_DIGITS - 1)


def _norms(tmp_path, g, argv):
    src = tmp_path / "g.json"
    src.write_text(g.to_json_text())
    report = tmp_path / "r.json"
    assert main(["--report", str(report)] + argv
                + ["--input", str(src)]) == 0
    return json.loads(report.read_text())["results"]


@pytest.mark.parametrize("l", [700, 5000, -5000])
def test_sobolev_norm_of_the_unit_ball_at_large_l(tmp_path, l):
    # only the shell ||xi|| <= 1 is charged: [xi]^l never enters
    g = GridFunction.indicator_ball(Qp(3), 1, 0, L=1, m=2)
    out = _norms(tmp_path, g, ["sobolev", "--l", str(l)])
    assert out["norm"]["value"] == 1.0


@pytest.mark.parametrize("symbol", ["x1:1.5", "x1^2+x2^2:1.5"])
def test_operator_norms_at_large_l_leave_uncharged_cells_out(tmp_path,
                                                             symbol):
    g = GridFunction.indicator_ball(Qp(3), 2, 0, L=1, m=1)
    argv = ["op", "apply", "--symbol", symbol, "--out",
            str(tmp_path / "T.json"), "--norms", "0", "700"]
    norms = _norms(tmp_path, g, argv)["norms"]
    assert norms["700"] == norms["0"]
    assert 0 < norms["700"]["value"] < 1


@pytest.mark.parametrize("argv", [
    ["sobolev", "--l", "600"],
    ["op", "apply", "--symbol", "x1:1.5", "--norms", "600"],
    ["op", "apply", "--symbol", "x1+1:0.5", "--norms", "600"]])
@pytest.mark.parametrize("scale,l", [(1.0, 600), (1e3, 320)])
def test_sobolev_norm_past_the_float_range_exits_two(tmp_path, capsys,
                                                     argv, scale, l):
    # l = 600: the weight 3^(2l) of the outer shell is inf already; l =
    # 320: it is finite (3^640 < 1e306) and only its product with the
    # shell energy passes the float range
    g = random_grid(Qp(3), 1, 1, 2, np.random.default_rng(0))
    g = GridFunction(g.field, g.n, g.L, g.m, g.values * scale)
    argv = [str(l) if a == "600" else a for a in argv]
    src = tmp_path / "g.json"
    src.write_text(g.to_json_text())
    if argv[0] == "op":
        argv = argv + ["--out", str(tmp_path / "T.json")]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # a numpy warning is a second line
        err = _one_line_exit_two(argv + ["--input", str(src)], capsys)
    assert f"l = {l}" in err
    assert not caught
