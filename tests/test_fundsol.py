import math
from fractions import Fraction

import numpy as np
import pytest

from ultrazeta.errors import UnsupportedPolynomial
from ultrazeta.fundsol import (convolution_check, delta_identity_check,
                               division_check, extract_T0,
                               fundamental_solution_check,
                               laurent_functional,
                               t0_applied_to_operator_image, t0_value,
                               zeta_exact_in_t)
from ultrazeta.grid import GridFunction, fourier_transform, random_grid
from ultrazeta.intpoly import parse_polynomial
from ultrazeta.localfield import LaurentFp, LocalFieldElement, Qp
from ultrazeta.ratfunc import LambdaPoly
from ultrazeta.zeta import monomial_zeta_closed

F3 = Qp(3)
XI = parse_polynomial("x1", 1)
XI12 = parse_polynomial("x1*x2", 2)


def test_zeta_exact_geometric_oracle():
    gh = GridFunction.indicator_ball(F3, 1, 0, exact=True)
    R = zeta_exact_in_t(gh, XI, side="frequency")
    assert R == monomial_zeta_closed([1], q=3)


def test_zeta_exact_fubini():
    gh = GridFunction.indicator_ball(F3, 2, 0, exact=True)
    R = zeta_exact_in_t(gh, XI12, side="frequency")
    assert R == monomial_zeta_closed([1, 1], q=3)


def test_zeta_exact_entire_off_hyperplanes():
    gh = GridFunction.zeros(F3, 1, 1, 1)
    gh.values[5] = 1.0 - 0.5j
    R = zeta_exact_in_t(gh, XI, side="frequency")
    assert all(c == 0 for c in R.den.coeffs[:-1])  # bare power of t


def test_zeta_exact_rejects_general_polynomial():
    with pytest.raises(UnsupportedPolynomial):
        zeta_exact_in_t(GridFunction.indicator_ball(F3, 2, 0, exact=True),
                        parse_polynomial("x1^2+x2^2", 2),
                        side="frequency")


def test_t0_hand_value_exact():
    gh = GridFunction.indicator_ball(F3, 1, 0, exact=True)
    t0 = extract_T0(gh, XI, side="frequency")
    assert isinstance(t0, Fraction) and t0 == Fraction(1, 3)
    gh2 = GridFunction.indicator_ball(F3, 2, 0, exact=True)
    t02 = extract_T0(gh2, XI12, side="frequency")
    assert t02 == Fraction(5, 27)


def _numeric_t0_limit(lf, h0=4e-3):
    """lim_{s -> -1} [Z(s) - c_{-1}/(s+1)] by Richardson extrapolation
    through three nodes (kills the h and h^2 truncation terms)."""
    cm1 = lf.coefficient(-1)
    cm1 = cm1.evaluate(math.log(lf.rational.q)) \
        if isinstance(cm1, LambdaPoly) else complex(cm1)

    def F(h):
        return lf.rational.eval_t(complex(lf.rational.q) ** (1 - h)) \
            - cm1 / h

    return (F(h0) - 6 * F(h0 / 2) + 8 * F(h0 / 4)) / 3


def test_t0_numeric_limit_crosscheck():
    rng = np.random.default_rng(0)
    for _ in range(10):
        g = random_grid(F3, 1, 1, 1, rng)
        lf = laurent_functional(g, XI)
        t0 = t0_value(g, XI)
        numeric = _numeric_t0_limit(lf)
        scale = 1 + abs(t0) + abs(complex(lf.coefficient(-1))
                                  if not isinstance(lf.coefficient(-1),
                                                    LambdaPoly) else 0)
        assert abs(numeric - t0) < 1e-8 * scale


def test_t0_regular_when_support_off_zero():
    gh = GridFunction.zeros(F3, 1, 1, 1)
    gh.values[3] = 2.0  # |rep| = 1, off the hyperplane
    lf = laurent_functional(gh, XI, side="frequency")
    assert lf.expansion.pole_order == 0
    direct = lf.rational.eval_t(complex(3) ** 1)
    assert abs(lf.expansion.coefficient_value(0) - direct) < 1e-12


def test_t0_linearity():
    rng = np.random.default_rng(1)
    g1 = random_grid(F3, 1, 1, 1, rng)
    g2 = random_grid(F3, 1, 1, 1, rng)
    lhs = t0_value(g1 + g2, XI)
    assert abs(lhs - t0_value(g1, XI) - t0_value(g2, XI)) < 1e-10


def test_shift_identity_exact_rational():
    # zeta(g, f) at s+1 equals the zeta of the operator image at s,
    # exactly as rational functions
    from ultrazeta.zeta import cells_to_rational

    rng = np.random.default_rng(2)
    g = random_grid(F3, 1, 1, 1, rng)
    gh = fourier_transform(g)
    R = zeta_exact_in_t(gh, XI, side="frequency")
    shifted = R.substitute_shift(1)
    # the |f|-weighted decomposition: same cells at offset v = N + 1
    RA = cells_to_rational(gh, [(1, 2)])
    diff = shifted - RA
    assert all(abs(complex(c)) < 1e-12 for c in diff.num.coeffs)


def test_delta_identity_direct_small():
    # ghat(0) = 0 and support off zero: [T0, Ag] = integral of ghat
    gh = GridFunction.zeros(F3, 1, 1, 1)
    gh.values[4] = 1.0
    gh.values[8] = -2.0
    val = t0_applied_to_operator_image(gh, XI, side="frequency")
    total = complex(np.sum(gh.values)) * (1 / 3.0)  # cell measure q^{-m}
    assert abs(val - total) < 1e-12


@pytest.mark.parametrize("f,n", [(XI, 1), (XI12, 2)])
def test_fundamental_solution_checks(f, n):
    rng = np.random.default_rng(3)
    rep = delta_identity_check(f, F3, 10, rng)
    assert rep.passed and rep.max_error < 1e-8
    div = division_check(f, F3)
    assert div.passed and div.trials > 0
    conv = convolution_check(f, F3, 5, rng)
    assert conv.passed


def test_full_report():
    out = fundamental_solution_check(XI, F3, trials=6, seed=4)
    assert out["all_passed"]
    assert set(out["checks"]) == {"delta_identity", "division",
                                  "convolution"}


def test_laurent_field_support():
    f3t = LaurentFp(3)
    gh = GridFunction.indicator_ball(f3t, 1, 0, exact=True)
    assert extract_T0(gh, XI, side="frequency") == Fraction(1, 3)
    assert division_check(XI, f3t).passed


def _division_oracle(f, field, L=2, m=2):
    """division_check by its per-cell definition: every cell off the zero
    set builds its elements and its product afresh."""
    c, exps = f.monomial_profile()
    q, width = field.q, L + m
    vc = 0
    while field.kind == "Qp" and c % q ** (vc + 1) == 0:
        vc += 1
    trials, failures = 0, []
    for idx in np.ndindex(*(q ** width,) * f.n):
        if any(e > 0 and i == 0 for e, i in zip(exps, idx)):
            continue
        fv = LocalFieldElement.from_int(field, c) if field.kind == "Qp" \
            else LocalFieldElement.from_rational(field, c)
        ehat = vc
        for i, e in zip(idx, exps):
            if e == 0:
                continue
            digits = [i // q ** t % q for t in range(width)]
            # |rep| = q^{L - t} at the first nonzero digit t
            ehat -= e * (L - next(t for t, d in enumerate(digits) if d))
            if field.kind == "Qp":
                xi = LocalFieldElement.from_digits(field, -L, digits)
            else:
                xi = LocalFieldElement.from_laurent_coeffs(
                    field, {t - L: d for t, d in enumerate(digits)})
            for _ in range(e):
                fv = fv * xi
        trials += 1
        if Fraction(q) ** ehat * fv.norm() != 1:
            failures.append({"cell": tuple(int(i) for i in idx)})
    return trials, failures


@pytest.mark.parametrize("field", [F3, LaurentFp(3)], ids=["Q3", "F3T"])
@pytest.mark.parametrize("text, n", [("x1*x2", 2), ("x1^2*x2", 2),
                                     ("x1", 1)])
def test_division_check_matches_per_cell_definition(field, text, n):
    f = parse_polynomial(text, n)
    rep = division_check(f, field)
    trials, failures = _division_oracle(f, field)
    assert (rep.trials, rep.failures, rep.passed) \
        == (trials, failures, not failures)


def test_division_check_rejects_vanishing_coefficient():
    # 3 = 0 in F_3((T)): the symbol |3 x1 x2| is zero, as zeta_exact_in_t
    # also reports
    f = parse_polynomial("3*x1*x2", 2)
    gh = GridFunction.indicator_ball(LaurentFp(3), 2, 0, exact=True)
    with pytest.raises(UnsupportedPolynomial):
        zeta_exact_in_t(gh, f, side="frequency")
    with pytest.raises(UnsupportedPolynomial):
        division_check(f, LaurentFp(3))


# -- division_check still sees a wrong table or a wrong element ----------------

@pytest.mark.parametrize("field", [Qp(3), LaurentFp(3)])
@pytest.mark.parametrize("bad", [5, 27, 80])
def test_division_check_fails_on_a_wrong_norm_exponent(monkeypatch, field,
                                                       bad):
    from ultrazeta import localfield

    table = localfield._axis_norm_exps

    def off_by_one(*key):
        out = table(*key).copy()
        out[bad] += 1
        return out

    monkeypatch.setattr(localfield, "_axis_norm_exps", off_by_one)
    rep = division_check(XI12, field)
    # every cell with the index on either axis fails, and no other
    assert rep.trials == 80 * 80
    assert len(rep.failures) == 2 * 80 - 1
    assert all(bad in f["cell"] for f in rep.failures)


@pytest.mark.parametrize("field", [Qp(3), LaurentFp(3)])
@pytest.mark.parametrize("bad, zero", [(3, False), (27, False), (60, False),
                                       (9, True)])
def test_division_check_fails_on_a_wrong_element_digit(monkeypatch, field,
                                                       bad, zero):
    from ultrazeta import fundsol

    build = fundsol.index_digits

    def wrong_digit(idx, p, width):
        # the digit table of the axis representatives, wrong at index bad
        out = build(idx, p, width)
        digits = out[bad]
        low = next(t for t, d in enumerate(digits) if d)
        if zero:  # the only nonzero digit dropped: the zero element
            digits[low] = 0
        else:     # a unit digit below the first one: the order drops
            digits[low - 1] = 1
        return out

    monkeypatch.setattr(fundsol, "index_digits", wrong_digit)
    rep = division_check(XI12, field)
    assert rep.trials == 80 * 80
    assert len(rep.failures) == 2 * 80 - 1
    assert all(bad in f["cell"] for f in rep.failures)
