import math
import random
from fractions import Fraction

import pytest
import numpy as np
from hypothesis import assume, given, settings, strategies as st

from ultrazeta.errors import NoSolution
from ultrazeta.ratfunc import (Poly, RationalFunctionT, laurent_at,
                               reconstruct_from_series, rf_arith)
from ultrazeta.zeta import monomial_zeta_closed


def geom(q, v=1, N=1):
    """(1 - 1/q)/(1 - q^{-v} t^N)"""
    qf = Fraction(q)
    return RationalFunctionT.from_coeffs(
        [1 - 1 / qf],
        [Fraction(1)] + [Fraction(0)] * (N - 1) + [-qf ** (-v)], q)


def test_arith_identity():
    R = geom(3)
    zero = RationalFunctionT.const(0, 3)
    assert rf_arith(R, zero, "add") == R
    inv = RationalFunctionT.const(1, 3) / R
    assert rf_arith(R, inv, "mul") == RationalFunctionT.const(1, 3)


def test_self_similarity_rearrangement():
    # Z = q^{-n} t^d Z + Z0 rearranges to Z0 = (1 - q^{-n} t^d) Z
    q, n, d = 3, 2, 2
    qf = Fraction(q)
    Z = geom(q) * geom(q)
    shift = RationalFunctionT.from_coeffs(
        [0, 0, qf ** (-n)], [1], q)  # q^{-n} t^d
    Z0 = Z - shift * Z
    fac = RationalFunctionT.from_coeffs([1, 0, -qf ** (-n)], [1], q)
    assert Z0 == fac * Z


def test_reconstruct_geometric():
    # independent oracle: 1/(1 - t^2/3) = sum t^{2j} 3^{-j}
    q = 3
    target = geom(q, v=1, N=2)
    series = []
    for k in range(12):
        series.append((1 - Fraction(1, 3)) * Fraction(3) ** (-(k // 2))
                      if k % 2 == 0 else Fraction(0))
    rec = reconstruct_from_series(series, (0, 2), q)
    assert rec == target


def test_reconstruct_polynomial_and_failure():
    series = [Fraction(2), Fraction(-1), Fraction(3)] + [Fraction(0)] * 9
    rec = reconstruct_from_series(series, (2, 0), 3)
    assert rec.is_polynomial
    # denominator bound too small for a genuine pole
    bad = geom(3, v=1, N=2).series(12)
    with pytest.raises(NoSolution):
        reconstruct_from_series(bad, (0, 1), 3)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_reconstruct_roundtrip_random(q):
    rng = random.Random(q * 17)
    for _ in range(6):
        dn = rng.randint(0, 6)
        dd = rng.randint(0, 6)
        num = [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
               for _ in range(dn + 1)]
        den = [Fraction(1)] + [Fraction(rng.randint(-3, 3), 4)
                               for _ in range(dd)]
        if all(c == 0 for c in num):
            num[0] = Fraction(1)
        R = RationalFunctionT.from_coeffs(num, den, q)
        series = R.series(dn + dd + 8)
        rec = reconstruct_from_series(series, (dn, dd), q)
        assert rec == R


def test_laurent_exact_coefficients():
    # the worked expansion of (1-1/q)/(1-t/q) around s = -1
    q = 3
    exp = laurent_at(geom(q), -1, 2)
    w = 1 - Fraction(1, q)
    assert exp.pole_order == 1
    # w / (1 - e^{-u}) = w (1/u + 1/2 + u/12 + ...), u = (s + 1) ln q
    assert exp.coefficient(-1) == w
    assert exp.coefficient(0) == w / 2
    assert exp.coefficient(1) == w / 12
    assert exp.coefficient_value(-1) == complex(float(w) / math.log(q))


def test_laurent_regular_point():
    R = geom(3)
    exp = laurent_at(R, 1, 2)
    assert exp.pole_order == 0
    direct = R.eval_t(Fraction(3) ** (-1))
    assert abs(exp.coefficient_value(0) - complex(direct)) < 1e-14


def test_laurent_double_pole_order():
    R = geom(3) * geom(3)
    exp = laurent_at(R, -1, 1)
    assert exp.pole_order == 2


@pytest.mark.parametrize("h", [1e-2, 1e-3])
def test_laurent_partial_sum_order(h):
    R = geom(3) * geom(3, v=2, N=1)
    K = 3
    exp = laurent_at(R, -1, K)
    s = -1 + h
    direct = complex(R.eval_t(complex(3) ** (-s)))
    approx = exp.evaluate_partial(s)
    # truncation error O(h^{K+1}) with a generous constant
    assert abs(direct - approx) < 100 * h ** (K + 1) + 1e-12


def test_exactness_of_exact_path():
    R = geom(5) * geom(5, v=3, N=2)
    for c in R.num.coeffs + R.den.coeffs + R.series(10):
        assert isinstance(c, Fraction)
    exp = laurent_at(R, -1, 2)
    assert exp.coefficients
    for k, c in exp.coefficients.items():
        assert isinstance(c, Fraction)


def test_series_shift_substitution():
    R = geom(3)
    S = R.substitute_shift(1)
    for s in (0.3, 1.1):
        a = complex(R.eval_t(complex(3) ** (-(s + 1))))
        b = complex(S.eval_t(complex(3) ** (-s)))
        assert abs(a - b) < 1e-14


def test_poly_divmod_exact():
    a = Poly([Fraction(1), Fraction(0), Fraction(-1)])
    b = Poly([Fraction(1), Fraction(1)])
    qt, r = a.divmod(b)
    assert r.is_zero and qt == Poly([Fraction(1), Fraction(-1)])


# -- laurent_at below order 0 -------------------------------------------------

@pytest.mark.parametrize("N", [[1, 1], [1], [2]], ids=["double", "simple",
                                                       "regular"])
@pytest.mark.parametrize("k", range(-3, 4))
def test_laurent_truncation_below_order_zero(N, k):
    # the double pole of [1, 1] once dropped c_{-1} at k = -1, the simple
    # pole of [1] raised ZeroDivisionError and the regular [2] leaked
    # StopIteration
    R = monomial_zeta_closed(N, q=3)
    full = laurent_at(R, -1, 4)
    exp = laurent_at(R, -1, k)
    assert exp.coefficients == {j: c for j, c in full.coefficients.items()
                                if j <= k}
    assert (exp.min_order, exp.pole_order) \
        == (full.min_order, full.pole_order) == (-N.count(1), N.count(1))


def test_laurent_double_pole_coefficients():
    # (2/3)^2 / (1 - e^{-u})^2 = 4/9 (u^{-2} + u^{-1} + 5/12 + ...)
    exp = laurent_at(monomial_zeta_closed([1, 1], q=3), -1, 0)
    assert exp.coefficients == {-2: Fraction(4, 9), -1: Fraction(4, 9),
                                0: Fraction(5, 27)}


def test_laurent_of_zero_and_of_a_zero_at_the_center():
    zero = laurent_at(RationalFunctionT.const(0, 3), -1, 2)
    assert (zero.coefficients, zero.min_order) == ({}, 0)
    # 1 - t/3 vanishes at s = -1 to first order: 1 - e^{-u}
    exp = laurent_at(RationalFunctionT.from_coeffs(
        [1, Fraction(-1, 3)], [1], 3), -1, 2)
    assert exp.min_order == 1 and exp.pole_order == 0
    assert exp.coefficients == {1: 1, 2: Fraction(-1, 2)}


# -- refusals at the exact boundary -------------------------------------------

@pytest.mark.parametrize("bad", [0.1, 0.5 + 0.1j, 1.0])
def test_inexact_coefficients_are_refused(bad):
    with pytest.raises(TypeError, match="exact"):
        Poly([Fraction(1), bad])
    with pytest.raises(TypeError, match="exact"):
        RationalFunctionT.from_coeffs([bad], [1], 3)
    with pytest.raises(TypeError, match="exact"):
        RationalFunctionT.from_coeffs([1], [1, bad], 3)
    with pytest.raises(TypeError, match="exact"):
        RationalFunctionT.const(bad, 3)


@pytest.mark.parametrize("center", [-1.0, Fraction(-1), -1 + 0j, "-1"])
def test_laurent_needs_an_integer_center(center):
    with pytest.raises(TypeError, match="integer"):
        laurent_at(geom(3), center, 2)


# -- evaluate_partial against eval_t ------------------------------------------

@st.composite
def _rationals(draw):
    """An exact rational function with numerator and denominator of
    degree at most 3, and an integer center."""
    q = draw(st.sampled_from([2, 3, 5]))
    fr = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    num = draw(st.lists(fr, min_size=1, max_size=4))
    den = [Fraction(1)] + draw(st.lists(fr, max_size=3))
    if all(c == 0 for c in num):
        num[0] = Fraction(1)
    return RationalFunctionT.from_coeffs(num, den, q), \
        draw(st.integers(-2, 1))


def _rounding(R, exp, s):
    """A bound on the rounding of eval_t and of evaluate_partial at s."""
    t = float(R.q) ** (-s)
    value = [abs(P.eval(t)) for P in (R.num, R.den)]
    size = [sum(abs(float(c)) * t ** i for i, c in enumerate(P.coeffs))
            for P in (R.num, R.den)]
    direct = abs(value[0] / value[1]) * (size[0] / value[0]
                                         + size[1] / value[1])
    partial = sum(abs(exp.coefficient_value(k)) * abs(s - exp.center) ** k
                  for k in exp.coefficients)
    return 64 * 2.0 ** -52 * (direct + partial)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_rationals(), st.integers(1, 3))
def test_evaluate_partial_matches_eval_t(case, K):
    R, s0 = case
    exp = laurent_at(R, s0, K)
    t0 = float(R.q) ** (-s0)
    h = 0.04
    # the series in t - t0 converges past 4 |t - t0|: no other pole nearer
    others = [abs(r - t0) for r in np.roots([float(c) for c in
                                             reversed(R.den.coeffs)])
              if abs(r - t0) > 1e-9]
    assume(all(4 * abs(float(R.q) ** -(s0 + h) - t0) < d for d in others))
    assume(R.num.eval(float(R.q) ** -(s0 + h)) != 0)
    errs, floors = [], []
    for step in (h, h / 2):
        s = s0 + step
        errs.append(abs(exp.evaluate_partial(s)
                        - complex(R.eval_t(complex(R.q) ** (-s)))))
        floors.append(_rounding(R, exp, s))
    # the truncation error is O(h^{K+1}): halving h divides it by about
    # 2^{K+1}
    assert errs[1] <= 1.5 * errs[0] / 2 ** (K + 1) + floors[0] + floors[1]
