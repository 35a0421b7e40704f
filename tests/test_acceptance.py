"""Acceptance suite: one test per criterion, each printing a PASS line
with its headline numbers when it holds."""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from ultrazeta.cli import main as cli_main
from ultrazeta.errors import PoleOfGamma
from ultrazeta.fundsol import (delta_identity_check, division_check,
                               extract_T0)
from ultrazeta.grid import (GridFunction, fourier_transform, l2_norm,
                            random_grid, reflect, sobolev_norm)
from ultrazeta.intpoly import parse_polynomial
from ultrazeta.localfield import Qp
from ultrazeta.pdo import GammaFactor, PseudoDiffOp, apply_pseudodiff, \
    riesz_pairing, riesz_space_side
from ultrazeta.zeta import (HeatKernel, HinfZetaEngine, igusa_series,
                            locate_real_poles, monomial_zeta_closed,
                            reconstruct_snc_zeta, snc_form_Z0)


def report(num, text):
    print(f"\nACCEPTANCE {num}: PASS - {text}")


def test_criterion_1_fourier_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_inv, worst_par = 0.0, 0.0
    for k in range(50):
        p = (2, 3, 5)[k % 3]
        n = 1 + k % 2
        L = int(rng.integers(0, 3))
        m = int(rng.integers(0, 3))
        g = random_grid(Qp(p), n, L, m, rng)
        g2 = fourier_transform(fourier_transform(g))
        worst_inv = max(worst_inv,
                        float(np.max(np.abs(g2.values
                                            - reflect(g).values))))
        worst_par = max(worst_par,
                        abs(l2_norm(fourier_transform(g)) - l2_norm(g)))
    elapsed = time.perf_counter() - start
    assert worst_inv <= 1e-12
    assert worst_par <= 1e-12
    assert elapsed < 10.0
    report(1, f"50 transforms: involution {worst_inv:.2e}, Parseval "
              f"{worst_par:.2e}, {elapsed:.2f}s")


def test_criterion_2_igusa_monomial_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(102)
    for _ in range(20):
        p = int(rng.choice([2, 3, 5]))
        n = int(rng.integers(1, 3))
        N = [int(rng.integers(1, 4)) for _ in range(n)]
        mono = "*".join(f"x{i + 1}^{N[i]}" for i in range(n))
        f = parse_polynomial(mono, n)
        series = igusa_series(f, Qp(p), 12)
        closed = monomial_zeta_closed(N, q=p).series(13)
        assert list(series.coeffs) == closed  # exact rational equality
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(2, f"20 random monomials, 12 terms, exact; {elapsed:.2f}s")


def test_criterion_3_snc_reconstruction():
    start = time.perf_counter()
    f = parse_polynomial("x1^2+x2^2", 2)
    for p in (3, 5):
        field = Qp(p)
        q = Fraction(p)
        series = igusa_series(f, field, 12, method="lift")
        # reconstruct from a prefix, verify on >= 3 held-out terms
        prefix = type(series)(p, series.coeffs[:9])
        Z = reconstruct_snc_zeta(prefix, 2, 2)
        assert Z.series(13) == list(series.coeffs)
        # denominator divides (1 - t/q)(1 - q^{-2} t^2)
        from ultrazeta.ratfunc import Poly, RationalFunctionT
        target = Poly([Fraction(1), -1 / q]) \
            * Poly([Fraction(1), Fraction(0), -q ** (-2)])
        _, rem = target.divmod(Z.den)
        assert rem.is_zero
        # (1 - t/q) Z0 is a polynomial
        Z0 = snc_form_Z0(f, 2, series, field)
        L = RationalFunctionT.from_coeffs([1, -1 / q], [1], p) * Z0
        assert L.is_polynomial
        # and the series engine is verified against brute counts
        kmax = 6 if p == 3 else 3
        brute = igusa_series(f, field, kmax, method="brute",
                             budget=6_000_000)
        assert list(brute.coeffs) == list(series.coeffs[:kmax + 1])
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    report(3, f"denominator structure, polynomial L, 4 held-out terms, "
              f"brute-verified; {elapsed:.2f}s")


def test_criterion_4_cross_mode_and_poles():
    start = time.perf_counter()
    eng = HinfZetaEngine(2, 2, 1.0)
    worst = 0.0
    for s in np.linspace(0.12, 3.0, 25):
        a = eng.value(float(s), "sphere_series").value
        b = eng.value(float(s), "factored_continuation").value
        worst = max(worst, abs(a - b))
    assert worst <= 1e-10
    located = locate_real_poles(eng, -2.7, -0.6)
    pred = [float(v) for v in eng.prediction.values()]
    expected = [-1.0, -1.5, -2.0, -2.5]
    assert len(located) >= 4
    for want in expected:
        assert min(abs(x - want) for x in located) < 1e-4
    for x in located:
        assert min(abs(x - p) for p in pred) < 1e-4
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(4, f"25-point agreement {worst:.2e}; poles {located} within "
              f"1e-4 of prediction; {elapsed:.2f}s")


def test_criterion_5_riesz_identity():
    rng = np.random.default_rng(105)
    worst = 0.0
    for k in range(10):
        n = 1 + k % 2
        phi = random_grid(Qp(3), n, 1, 1, rng)
        for a in (0.3, 0.5, 0.7):
            lhs = riesz_pairing([a] * n, phi)
            rhs = riesz_space_side([a] * n, phi)
            worst = max(worst, abs(lhs - rhs))
    assert worst <= 1e-10
    report(5, f"10 random phi x alpha in {{0.3,0.5,0.7}}: max defect "
              f"{worst:.2e}")


def test_criterion_6_operator_continuity():
    rng = np.random.default_rng(106)
    sym1 = parse_polynomial("x1", 2)
    sym2 = parse_polynomial("x1^2+x2^2", 2)
    violations = 0
    for k in range(20):
        g = random_grid(Qp(3), 2, 1, 1, rng)
        for h in (sym1, sym2):
            for a in (0.5, 1.3):
                op = PseudoDiffOp(((h, a),))
                Pg = apply_pseudodiff(op, g)
                for l in (0, 2, 4):
                    lhs = sobolev_norm(Pg, l)
                    rhs = sobolev_norm(g, l + op.sobolev_shift())
                    if lhs > rhs + 1e-9:
                        violations += 1
    assert violations == 0
    report(6, "norm bound held for 20 g x 2 symbols x 2 exponents x 3 l")


def test_criterion_7_fundamental_solutions():
    rng = np.random.default_rng(107)
    field = Qp(3)
    worst = 0.0
    for poly, n in (("x1", 1), ("x1*x2", 2)):
        f = parse_polynomial(poly, n)
        rep = delta_identity_check(f, field, 10, rng)
        assert rep.passed
        worst = max(worst, rep.max_error)
        div = division_check(f, field)
        assert div.passed and not div.failures
    gh = GridFunction.indicator_ball(field, 1, 0, exact=True)
    t0 = extract_T0(gh, parse_polynomial("x1", 1), side="frequency")
    assert isinstance(t0, Fraction) and t0 == Fraction(1, 3)
    report(7, f"[T0, Ag] = g(0) to {worst:.2e}; division exact; "
              f"T0(1_Z3) = 1/3 exactly")


def test_criterion_8_gamma_factor():
    rng = np.random.default_rng(108)
    gf = GammaFactor(3)
    lam = math.log(3)
    worst = 0.0
    checked = 0
    while checked < 100:
        a = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
        try:
            worst = max(worst, gf.reflection_defect(a))
        except PoleOfGamma:
            continue
        checked += 1
    assert worst <= 1e-12
    for j in range(-3, 4):
        for base in (0.0, 1.0):
            mu = complex(base, 2 * math.pi * j / lam)
            with pytest.raises(PoleOfGamma):
                gf(mu + 5e-10)
            with pytest.raises(PoleOfGamma):
                gf(mu + 5e-10j)
    report(8, f"reflection defect {worst:.2e} over 100 samples; pole "
              f"guard trips within 1e-9 of both lattices, |j| <= 3")


def test_criterion_9_heat_kernel_membership():
    worst_tail = 0.0
    for t in (0.1, 1.0):
        for alpha in (1.0, 2.0):
            for n in (1, 2):
                hk = HeatKernel(t, alpha, n, Qp(3))
                last = 0.0
                for l in range(21):
                    sq, tail = hk.norm_sq_with_tail(l)
                    assert math.isfinite(sq)
                    val = math.sqrt(sq)
                    assert val >= last - 1e-12
                    worst_tail = max(worst_tail, tail)
                    last = val
    assert worst_tail < 1e-12
    report(9, f"norms finite and monotone to l = 20; worst certified "
              f"tail {worst_tail:.2e}")


def test_criterion_10_cli_determinism(tmp_path):
    g = random_grid(Qp(3), 1, 1, 1, np.random.default_rng(0))
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps(g.to_json()))
    runs = []
    for name in ("a", "b"):
        rpt = tmp_path / f"{name}.json"
        assert cli_main(["--report", str(rpt), "--seed", "11", "fundsol",
                         "--poly", "x1", "--p", "3", "--n", "1",
                         "--trials", "6"]) == 0
        runs.append(rpt.read_bytes())
    assert runs[0] == runs[1]
    runs = []
    for name in ("c", "d"):
        rpt = tmp_path / f"{name}.json"
        out = tmp_path / f"gh_{name}.json"
        assert cli_main(["--report", str(rpt), "fourier", "--input",
                         str(gpath), "--output", str(out)]) == 0
        runs.append(out.read_bytes())
    assert runs[0] == runs[1]
    report(10, "repeated runs byte-identical (report and payload)")
