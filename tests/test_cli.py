import io
import json
from fractions import Fraction

import numpy as np
import pytest

from ultrazeta.cli import main
from ultrazeta.grid import GridFunction, fourier_transform, random_grid
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


@pytest.mark.parametrize("coset, re", [
    ([[7, 0]], 1.0),          # digit out of range for p = 3
    ([[1, 0, 2]], 1.0),       # more digits than L + m
    ([[1, 0]], float("nan")),  # non-finite value
    ([[1, 0], [0, 0]], 1.0),  # two coordinates on an n = 1 grid
])
def test_fourier_bad_grid_exits_two(tmp_path, coset, re):
    src = tmp_path / "bad.json"
    src.write_text(json.dumps({
        "field": {"kind": "Qp", "p": 3}, "n": 1, "L": 1, "m": 1,
        "values": [{"coset": coset, "re": re, "im": 0.0}]}))
    rc = main(["fourier", "--input", str(src), "--output",
               str(tmp_path / "out.json")])
    assert rc == 2
    assert not (tmp_path / "out.json").exists()
