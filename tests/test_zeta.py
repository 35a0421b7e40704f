import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ultrazeta import grid, localfield, zeta
from ultrazeta.errors import (BudgetExceeded, DivergentIntegral,
                              NondegeneracyFailed, PoleProximity)
from ultrazeta.grid import GridFunction, _poly_weighted_integral, \
    inverse_fourier_transform, power_integral, random_grid
from ultrazeta.intpoly import IntPolynomial, parse_polynomial
from ultrazeta.localfield import LaurentFp, Qp
from ultrazeta.pdo import GammaFactor, vladimirov
from ultrazeta.ratfunc import Poly, RationalFunctionT, laurent_at, \
    reconstruct_from_series
from ultrazeta.zeta import (GeneralizedProgression, HeatKernel,
                            HinfZetaEngine, ResolutionData,
                            check_strong_nondegeneracy, elementary_integral,
                            elementary_integral_exact, igusa_series,
                            locate_real_poles, mixed_integral,
                            monomial_zeta_closed, predict_poles,
                            snc_form_Z0, snc_pole_progressions)
from ultrazeta.zeta import _self_similarity_weights
from ultrazeta.localfield import _axis_norm_exps
from ultrazeta.zeta import cells_to_rational

F3 = Qp(3)
F5 = Qp(5)


def geom_series(q, N, terms):
    """Expansion of (1-1/q)/(1 - q^{-1} t^N): the by-hand sphere
    decomposition of a single power."""
    out = [Fraction(0)] * terms
    j = 0
    while N * j < terms:
        out[N * j] = (1 - Fraction(1, q)) * Fraction(q) ** (-j)
        j += 1
    return out


def convolve_series(a, b):
    out = [Fraction(0)] * len(a)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j < len(a):
                out[i + j] += x * y
    return out


def test_igusa_square_example():
    f = parse_polynomial("x1^2", 1)
    s = igusa_series(f, F3, 5, method="brute")
    assert list(s.coeffs) == [Fraction(2, 3), 0, Fraction(2, 9), 0,
                              Fraction(2, 27), 0]
    assert list(igusa_series(f, F3, 5).coeffs) == list(s.coeffs)
    assert list(igusa_series(f, F3, 5, method="lift").coeffs) \
        == list(s.coeffs)


def test_igusa_product_example():
    f = parse_polynomial("x1*x2", 2)
    s = igusa_series(f, F3, 8)
    oracle = convolve_series(geom_series(3, 1, 9), geom_series(3, 1, 9))
    assert list(s.coeffs) == oracle


def test_igusa_linear_any_q():
    for field in (F3, F5, Qp(2)):
        f = parse_polynomial("x1", 1)
        s = igusa_series(f, field, 10)
        assert list(s.coeffs) == geom_series(field.q, 1, 11)


def test_igusa_methods_agree_nonhomogeneous():
    f = parse_polynomial("x1^2+x2^3", 2)
    lift = igusa_series(f, F3, 6, method="lift")
    brute = igusa_series(f, F3, 4, method="brute")
    assert list(brute.coeffs) == list(lift.coeffs[:5])


def test_igusa_lift_on_singular_monomial():
    # x1^2 x2 has no unit gradient along the x2-axis, so the lifting
    # engine splits the cells there until every Hasse term passes K; it
    # must still agree with the valuation-convolution route at desk depth
    f = parse_polynomial("x1^2*x2", 2)
    mono = igusa_series(f, F3, 8, method="auto")
    lift = igusa_series(f, F3, 5, method="lift", budget=10 ** 6)
    assert list(lift.coeffs) == list(mono.coeffs[:6])
    brute = igusa_series(f, F3, 4, method="brute")
    assert list(brute.coeffs) == list(mono.coeffs[:5])
    assert list(igusa_series(f, F3, 10, method="lift",
                             budget=10 ** 5).coeffs) \
        == monomial_zeta_closed([2, 1], q=3).series(11)
    # sufficiently deep truncations trip the budget guard rather than
    # silently stalling
    with pytest.raises(BudgetExceeded):
        igusa_series(f, F3, 18, method="lift", budget=10 ** 5)


def test_igusa_three_variables():
    f = parse_polynomial("x1^2+x2^2+x3^2", 3)
    lift = igusa_series(f, F3, 6, method="lift")
    brute = igusa_series(f, F3, 2, method="brute")
    assert list(brute.coeffs) == list(lift.coeffs[:3])
    assert sum(lift.coeffs) <= 1


def test_igusa_weighted_gradient_closure():
    # gradients vanishing mod p but not at the representative close at
    # level e + 1; these would otherwise enumerate forever
    f = parse_polynomial("x1^2+3*x2", 2)
    lift = igusa_series(f, F3, 10, method="lift", budget=20_000)
    brute = igusa_series(f, F3, 4, method="brute")
    assert list(brute.coeffs) == list(lift.coeffs[:5])
    # content multiple of an SNC form: the series is the shift of the
    # plain one (ord(3 f) = 1 + ord f exactly)
    g0 = parse_polynomial("x1^2+x2^2", 2)
    g3 = parse_polynomial("3*x1^2+3*x2^2", 2)
    s0 = igusa_series(g0, F3, 9, method="lift")
    s3 = igusa_series(g3, F3, 10, method="lift", budget=200_000)
    assert list(s3.coeffs) == [Fraction(0)] + list(s0.coeffs)
    b3 = igusa_series(g3, F3, 4, method="brute")
    assert list(b3.coeffs) == list(s3.coeffs[:5])


@pytest.mark.parametrize("method", ["auto", "lift", "brute"])
@pytest.mark.parametrize("text, n", [("3*x1", 1), ("3*x1^2-6*x1*x2", 2)])
def test_igusa_refuses_a_polynomial_zero_in_the_field(method, text, n):
    # over F_3((T)) every coefficient is 0: f is the zero polynomial there
    f = parse_polynomial(text, n)
    with pytest.raises(ValueError, match="vanishes in the field"):
        igusa_series(f, LaurentFp(3), 2, method=method)
    assert sum(igusa_series(f, F3, 2, method=method).coeffs) > 0


def test_igusa_laurent_field():
    f = parse_polynomial("x1*x2", 2)
    mono = igusa_series(f, LaurentFp(3), 6)
    lift = igusa_series(f, LaurentFp(3), 4, method="lift")
    brute = igusa_series(f, LaurentFp(3), 2, method="brute")
    assert list(brute.coeffs) == list(mono.coeffs[:3])
    assert list(lift.coeffs) == list(mono.coeffs[:5])
    # only q enters: the Q_3 series coincides
    assert list(mono.coeffs) == list(igusa_series(f, F3, 6).coeffs)


def test_igusa_series_invariants():
    f = parse_polynomial("x1^2+x2^2", 2)
    s = igusa_series(f, F5, 10)
    assert all(c >= 0 for c in s.coeffs)
    assert sum(s.coeffs) <= 1


def test_igusa_budget():
    f = parse_polynomial("x1^2+x2^2", 2)
    with pytest.raises(BudgetExceeded):
        igusa_series(f, F5, 8, method="brute", budget=10 ** 4)


CUSP = parse_polynomial("x1^2-x2^3", 2)


@pytest.mark.parametrize("text, n, expected", [
    ("x1^2+x2^2", 2, ((1, 1), 2)),
    ("x1^2*x2", 2, ((1, 1), 3)),
    ("x1^2-x2^3", 2, ((3, 2), 6)),
    ("x1^2*x2-x2^4", 2, ((3, 2), 8)),
    ("x1+x2^2", 2, None),           # smooth at 0: Hensel closes it
    ("x1*x2+x2^4", 2, None),        # d/dx1 = x2 closes straddling cells
    ("x1^2+x1*x2^3", 2, ((3, 1), 6)),
    ("x1^4+x1^2*x2+x2^2", 2, ((1, 2), 4)),
    ("x1^2+x2^3+x3^6", 3, ((3, 2, 1), 6)),
    ("x1^2+x1*x2+x2^3", 2, None),  # exponents span the plane
    ("x1^2+x2^3+3", 2, None),       # a constant term has degree 0
    ("x1^2-x2^3", 3, None),         # x3 is free: the kernel is a plane
    ("x1^2*x2+x1", 2, None),        # kernel (1, -1) leaves the orthant
])
def test_self_similarity_weights(text, n, expected):
    assert _self_similarity_weights(parse_polynomial(text, n)) == expected


_SMALL_EXPONENTS = {n: [e for e in itertools.product(range(5), repeat=n)
                        if 0 < sum(e) <= 4] for n in (1, 2)}


@st.composite
def _lift_cases(draw):
    """(f, field, K, weighted): three in four f are weighted-homogeneous
    binomials or trinomials, with weighted = (w, d) their primitive
    weights and degree, so the box closure mostly fires; the rest are
    arbitrary polynomials in one or two variables of degree <= 4 and
    weighted = None."""
    kind = draw(st.sampled_from(["Qp", "LaurentFp"]))
    p = draw(st.sampled_from([2, 3, 5] if kind == "Qp" else [2, 3]))
    field = Qp(p) if kind == "Qp" else LaurentFp(p)
    weighted = draw(st.integers(0, 3)) > 0
    if weighted:
        n = 2
        w = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
        groups = {}
        for e in _SMALL_EXPONENTS[2]:
            groups.setdefault(w[0] * e[0] + w[1] * e[1], []).append(e)
        shared = [g for _, g in sorted(groups.items()) if len(g) > 1]
        group = draw(st.sampled_from(shared))
        exps = draw(st.lists(st.sampled_from(group), min_size=2,
                             max_size=3, unique=True))
    else:
        n = draw(st.integers(1, 2))
        exps = draw(st.lists(st.sampled_from(_SMALL_EXPONENTS[n]),
                             min_size=1, max_size=4, unique=True))
    f = IntPolynomial.make(
        n, {e: draw(st.integers(-4, 4).filter(bool)) for e in exps})
    if weighted:
        g = math.gcd(*w)
        weighted = tuple(x // g for x in w), \
            (w[0] * exps[0][0] + w[1] * exps[0][1]) // g
    # brute force enumerates q^{n(K+1)} points
    kmax = 0
    while p ** (n * (kmax + 2)) <= 10 ** 5:
        kmax += 1
    return f, field, draw(st.integers(0, kmax)), weighted


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_lift_cases())
def test_lift_matches_brute(case):
    f, field, K, weighted = case
    if weighted:
        assert _self_similarity_weights(f) in (weighted, None)
    if all(field.ops.int_ord(c) is None for c in f.coefficients()):
        # p divides every coefficient: f is zero in the field
        for method in ("lift", "brute"):
            with pytest.raises(ValueError, match="vanishes in the field"):
                igusa_series(f, field, K, method=method)
        return
    lift = igusa_series(f, field, K, method="lift")
    brute = igusa_series(f, field, K, method="brute")
    assert lift.coeffs == brute.coeffs


def _weighted_exponent_sets():
    """Every exponent set the weighted branch of _lift_cases draws, with
    its primitive weights and degree."""
    for w in itertools.product(range(1, 4), repeat=2):
        g = math.gcd(*w)
        groups = {}
        for e in _SMALL_EXPONENTS[2]:
            groups.setdefault(w[0] * e[0] + w[1] * e[1], []).append(e)
        for deg, group in groups.items():
            for size in (2, 3):
                for exps in itertools.combinations(group, size):
                    yield exps, (tuple(x // g for x in w), deg // g)


def test_weighted_exponent_sets_mostly_close():
    refused = set()
    for exps, expected in _weighted_exponent_sets():
        got = _self_similarity_weights(
            IntPolynomial.make(2, {e: 1 for e in exps}))
        if got is None:
            refused.add(frozenset(exps))
        else:
            assert got == expected
    # five have a linear term; in x1*x2 + x1^4 (w = (1, 3)) d/dx2 = x1
    # has order 1 on the cells that straddle the box at level 2
    assert refused == {frozenset(s) for s in [
        ((0, 1), (2, 0)), ((0, 1), (3, 0)), ((1, 0), (0, 2)),
        ((1, 0), (0, 3)), ((1, 1), (4, 0)), ((1, 1), (0, 4))]}


@pytest.mark.parametrize("field", [F3, LaurentFp(3)], ids=["Q3", "F3T"])
def test_weighted_closure_leaves_hensel_cells_to_hensel(field):
    # the Hensel rule closes the cells near 0 of x1 + x2^16, which is
    # smooth, and of x1*x2 + x2^16, whose d/dx1 = x2 has weight 1; the
    # box (16, 1) or (15, 1) would keep q^k of them open at level k
    smooth = igusa_series(parse_polynomial("x1+x2^16", 2), field, 13,
                          method="lift", budget=10_000)
    assert list(smooth.coeffs) == monomial_zeta_closed([1], q=3).series(14)
    # (x1, x2) -> (x1 + x2^15, x2) keeps Haar measure: Z = Z(x1 x2)
    node = igusa_series(parse_polynomial("x1*x2+x2^16", 2), field, 18,
                        method="lift", budget=10_000)
    assert list(node.coeffs) == \
        monomial_zeta_closed([1, 1], q=3).series(19)


def _cusp_denominator(q):
    """(1 - t/q)(1 - q^-5 t^6): the candidate poles -1 and -5/6."""
    qf = Fraction(q)
    return Poly([Fraction(1), -1 / qf]) \
        * Poly([Fraction(1), 0, 0, 0, 0, 0, -qf ** -5])


def _cusp_closed_form(q, terms):
    """Igusa's Z(s, x1^2 - x2^3) over Z_q: (1 - 1/q)(1 - q^-2 t + q^-2 t^2
    - q^-5 t^5) over the candidate-pole denominator."""
    qf = Fraction(q)
    num = Poly([(1 - 1 / qf) * c for c in
                (1, -qf ** -2, qf ** -2, 0, 0, -qf ** -5)])
    return RationalFunctionT.make(num, _cusp_denominator(q), q).series(terms)


@pytest.mark.parametrize("p", [5, 7])
def test_cusp_poles_from_lift(p):
    s = igusa_series(CUSP, Qp(p), 18, method="lift")
    assert list(s.coeffs) == _cusp_closed_form(p, 19)
    R = reconstruct_from_series(s.coeffs, (6, 7), p)
    assert _cusp_denominator(p).divmod(R.den)[1].is_zero


def test_weighted_closure_keeps_lift_small():
    # the self-similar box closes the quasi-homogeneous frontier, so deep
    # series stay within a small budget of children
    cusp = igusa_series(CUSP, F3, 18, method="lift", budget=10_000)
    assert list(cusp.coeffs) == _cusp_closed_form(3, 19)
    f = parse_polynomial("x1^2*x2-x2^4", 2)
    deep = igusa_series(f, F3, 12, method="lift", budget=10_000)
    brute = igusa_series(f, F3, 4, method="brute")
    assert deep.coeffs[:5] == brute.coeffs
    # x1^2 x2 is homogeneous, but singular along the x2-axis: the box
    # leaves that frontier open, and only 10 terms fit this budget
    f = parse_polynomial("x1^2*x2", 2)
    assert list(igusa_series(f, F3, 10, method="lift",
                             budget=10_000).coeffs) \
        == monomial_zeta_closed([2, 1], q=3).series(11)
    with pytest.raises(BudgetExceeded, match="level"):
        igusa_series(f, F3, 18, method="lift", budget=10_000)


def _block_sensitive_results(field):
    """Brute counts, lift coefficients and a symbol refinement's
    ``float.hex``, each made of many KERNEL_BLOCK chunks at a small
    block."""
    f = parse_polynomial("x1^2+x1*x2+x2^3", 2)
    brute = igusa_series(f, field, 2, method="brute")
    lift = igusa_series(parse_polynomial("x1^2-x2^3+x2^4", 2), field, 10,
                        method="lift")
    ball = GridFunction.indicator_ball(field, 2, 0, L=1, m=1)
    val, tail = _poly_weighted_integral(
        ball, [(parse_polynomial("x1^2-x2^3", 2), 1.5)])
    return brute, lift, [val.real.hex(), val.imag.hex(), tail.hex()]


@pytest.mark.parametrize("field", [F3, LaurentFp(3)], ids=["Q3", "F3T"])
@pytest.mark.parametrize("block", [7, 64])
def test_results_do_not_depend_on_the_kernel_block(monkeypatch, field,
                                                   block):
    # the brute counter, the cell engine's frontier and the F_p((T))
    # kernel each chunk by KERNEL_BLOCK; a block that splits a level, or
    # a row of digits, into many chunks changes no count and no bit
    want = _block_sensitive_results(field)
    for module in (localfield, grid, zeta):
        monkeypatch.setattr(module, "KERNEL_BLOCK", block)
    assert _block_sensitive_results(field) == want


@pytest.mark.parametrize("p", [2, 3])
def test_lift_past_int64_cells(p):
    # one open cell a level: from level 40 (p = 3) or 63 (p = 2) on its
    # children pass 2^63 and are Python ints; this f has the same series
    # over Q_p and F_p((T)), and the deep series extends the short one
    f = parse_polynomial("x1^2+x1*x2+x2^3", 2)
    deep = igusa_series(f, Qp(p), 70, method="lift")
    assert deep == igusa_series(f, LaurentFp(p), 70, method="lift")
    assert deep.coeffs[:21] == igusa_series(f, Qp(p), 20,
                                            method="lift").coeffs


@pytest.mark.parametrize("p", [10007, 1000003])
def test_brute_counts_at_a_large_prime(p):
    # q^n(K+1) = p points: one block of p points, not p blocks of one
    s = igusa_series(parse_polynomial("x1^2-1", 1), Qp(p), 0,
                     method="brute")
    assert s.coeffs == (Fraction(p - 2, p),)


@pytest.mark.parametrize("field", [Qp(2), LaurentFp(2)], ids=["Q2", "F2T"])
@pytest.mark.parametrize("K", [7, 15])
def test_brute_counts_where_the_cells_fill_a_small_dtype(field, K):
    # n = 1, q = 2: the M = 2^(K+1) cells of the brute grid number exactly
    # one more than the largest uint8 (K = 7) or uint16 (K = 15)
    f = parse_polynomial("x1^2", 1)
    assert igusa_series(f, field, K, method="brute") \
        == igusa_series(f, field, K, method="lift")


def test_lift_budget_stops_before_the_level_that_passes_it():
    # the whole frontier of a level is charged before any child of it is
    # evaluated, so the level and the message do not depend on the order
    # in which the children are visited
    f = parse_polynomial("x1^2*x2", 2)
    with pytest.raises(BudgetExceeded) as err:
        igusa_series(f, F3, 18, method="lift", budget=10_000)
    assert str(err.value) == "lifting budget exhausted at level 8"
    assert igusa_series(f, F3, 10, method="lift", budget=10_000) \
        == igusa_series(f, F3, 10)


@pytest.mark.parametrize("text, field, K, children", [
    ("x1^2-x2^3", F3, 18, 27), ("x1^2-x2^3", LaurentFp(3), 18, 27),
    ("x1^2*x2-x2^4", F3, 18, 27), ("x1^2*x2-x2^4", LaurentFp(3), 18, 27),
    ("x1^2-x2^3+x2^4", F3, 18, 594),
    ("x1^2-x2^3+x2^4", LaurentFp(3), 18, 594),
    ("x1^3+x2^3", LaurentFp(3), 18, 6561),
], ids=lambda x: getattr(x, "kind", x))
def test_lift_opens_the_pinned_children(text, field, K, children):
    # the Hasse classifier closes a cell as soon as one term of the
    # expansion dominates, and drops it once every term passes K: it
    # finishes at exactly this budget and raises one child short
    f = parse_polynomial(text, 2)
    igusa_series(f, field, K, method="lift", budget=children)
    with pytest.raises(BudgetExceeded):
        igusa_series(f, field, K, method="lift", budget=children - 1)


# (f, n, field, K, children the gradient-only lift opened)
_GRADIENT_LIFT_CHILDREN = [
    ("x1^2", 1, F3, 5, 3), ("x1^2+x2^3", 2, F3, 6, 99),
    ("x1^2*x2", 2, F3, 5, 2187), ("x1^2+x2^2+x3^2", 3, F3, 6, 27),
    ("x1^2+3*x2", 2, F3, 10, 36), ("x1^2+x2^2", 2, F3, 9, 9),
    ("3*x1^2+3*x2^2", 2, F3, 10, 81), ("x1*x2", 2, LaurentFp(3), 4, 9),
    ("x1+x2^16", 2, F3, 13, 9), ("x1+x2^16", 2, LaurentFp(3), 13, 9),
    ("x1*x2+x2^16", 2, F3, 18, 171),
    ("x1*x2+x2^16", 2, LaurentFp(3), 18, 171),
    ("x1^2-x2^3", 2, F5, 18, 175), ("x1^2-x2^3", 2, Qp(7), 18, 441),
    ("x1^2-x2^3", 2, F3, 18, 99), ("x1^2-x2^3", 2, LaurentFp(3), 11, 99),
    ("x1^2*x2-x2^4", 2, F3, 12, 801), ("x1^2*x2-x2^4", 2, Qp(2), 8, 144),
    ("x1^2*x2-x2^4", 2, LaurentFp(3), 12, 801),
    ("x1^2+x1*x2+x2^3", 2, Qp(2), 70, 284),
    ("x1^2+x1*x2+x2^3", 2, F3, 70, 639),
    ("x1^2+x1*x2+x2^3", 2, LaurentFp(2), 70, 284),
    ("x1^2+x1*x2+x2^3", 2, LaurentFp(3), 70, 639),
    ("x1^2", 1, Qp(2), 15, 2), ("x1^2", 1, LaurentFp(2), 15, 2),
    ("x1^2-x2^3+x2^4", 2, F3, 12, 19_647),
    ("x1^2-x2^3+x2^4", 2, LaurentFp(3), 12, 95_949),
]


def test_lift_opens_no_more_children_than_the_gradient_rule():
    # the Hasse test closes every cell that a unit gradient closed, at the
    # same level and with the same tail, so each run of the tests fits the
    # budget of children the gradient-only lift needed
    for text, n, field, K, children in _GRADIENT_LIFT_CHILDREN:
        f = parse_polynomial(text, n)
        assert igusa_series(f, field, K, method="lift", budget=children) \
            == igusa_series(f, field, K, method="lift")


@pytest.mark.parametrize("field", [F3, LaurentFp(3)], ids=["Q3", "F3T"])
@pytest.mark.parametrize("text", ["x1^2*x2+x1^3", "x1^2*x2+x1^4",
                                  "x1^2*x2^2+x1^5", "x1^2*x2"])
def test_lift_on_polynomials_singular_along_an_axis(field, text):
    # each f is singular along the whole x2-axis, which the box around the
    # origin does not cover: the lift reaches 18 terms at the default budget
    f = parse_polynomial(text, 2)
    lift = igusa_series(f, field, 18, method="lift")
    assert lift.coeffs[:5] == igusa_series(f, field, 4,
                                           method="brute").coeffs
    if text == "x1^2*x2":
        assert lift == igusa_series(f, field, 18)


def test_lift_of_a_frobenius_power():
    # over F_3((T)), x1^3 + x2^3 = (x1 + x2)^3, and (x1 + x2, x2) keeps
    # Haar measure: Z = Z(x1^3); no Hasse derivative of order 1 or 2
    # survives in characteristic 3
    f = parse_polynomial("x1^3+x2^3", 2)
    lift = igusa_series(f, LaurentFp(3), 18, method="lift")
    assert list(lift.coeffs) == monomial_zeta_closed([3], q=3).series(19)


def test_monomial_closed_examples():
    R = monomial_zeta_closed([1], q=3)
    assert R.series(4) == geom_series(3, 1, 4)
    R2 = monomial_zeta_closed([1, 1], q=3)
    assert R2 == R * R
    # cross-oracle against the counting route, 15 terms, exact
    for N, n, q in ((2, 1, 3), (3, 1, 5), (1, 2, 2), (2, 2, 3)):
        exps = [N] * n
        f = parse_polynomial("*".join(f"x{i+1}^{N}" for i in range(n)), n)
        field = Qp(q)
        series = igusa_series(f, field, 14)
        closed = monomial_zeta_closed(exps, q=q)
        assert list(series.coeffs) == closed.series(15)


def _monomial_by_convolution(exps, vc, q, K):
    """c_0..c_K for c x^exps with ord c = vc, by convolving the laws of
    N ord x_i, P(N ord x_i = Nj) = (1 - 1/q) q^{-j}, term by term."""
    q = Fraction(q)
    dist = [Fraction(1)] + [Fraction(0)] * K
    for N in exps:
        if N == 0:
            continue
        new = [Fraction(0)] * (K + 1)
        for k in range(K + 1):
            j = 0
            while k + N * j <= K:
                new[k + N * j] += dist[k] * (1 - 1 / q) * q ** (-j)
                j += 1
        dist = new
    return ([Fraction(0)] * vc + dist)[:K + 1]


@pytest.mark.parametrize("field", [Qp(2), Qp(3), LaurentFp(5)])
@pytest.mark.parametrize("text, n, ords", [
    ("x1*x2", 2, {}), ("x1^2*x2^3", 2, {}), ("9*x1^3", 1, {2: 0, 3: 2}),
    ("x1*x2^2*x3", 3, {}), ("4*x1^2*x3", 3, {2: 2})])
def test_monomial_recurrence_matches_convolution(field, text, n, ords):
    f = parse_polynomial(text, n)
    vc = ords.get(field.p, 0) if field.kind == "Qp" else 0
    want = _monomial_by_convolution(f.monomial_profile()[1], vc, field.q, 40)
    assert list(igusa_series(f, field, 40).coeffs) == want


@pytest.mark.parametrize("q", [2, 3])
def test_monomial_series_matches_closed_form_at_200_terms(q):
    for exps in ((1, 1), (2, 3), (1, 1, 2)):
        f = IntPolynomial.make(len(exps), {exps: 1})
        assert list(igusa_series(f, Qp(q), 199).coeffs) \
            == monomial_zeta_closed(list(exps), q=q).series(200)


@pytest.mark.parametrize("field", [F3, F5])
def test_snc_form(field):
    f = parse_polynomial("x1^2+x2^2", 2)
    series = igusa_series(f, field, 12, method="lift")
    q = Fraction(field.q)
    Z0 = snc_form_Z0(f, 2, series, field)
    # (1 - t/q) Z0 is a polynomial
    from ultrazeta.ratfunc import RationalFunctionT
    L = RationalFunctionT.from_coeffs([1, -1 / q], [1], field.q) * Z0
    assert L.is_polynomial
    # full Z has denominator dividing (1 - t/q)(1 - q^{-2} t^2)
    from ultrazeta.zeta import reconstruct_snc_zeta
    Z = reconstruct_snc_zeta(series, 2, 2)
    from ultrazeta.ratfunc import Poly
    target = Poly([Fraction(1), -1 / q]) * Poly([Fraction(1), Fraction(0),
                                                 -q ** (-2)])
    _, rem = target.divmod(Z.den)
    assert rem.is_zero
    # reconstruction re-verified against held-out coefficients
    short = type(series)(field.q, series.coeffs[:9])
    Zshort = reconstruct_snc_zeta(short, 2, 2)
    assert Zshort.series(13) == list(series.coeffs)


def test_snc_verified_against_brute_counts():
    f = parse_polynomial("x1^2+x2^2", 2)
    lift3 = igusa_series(f, F3, 6, method="lift")
    brute3 = igusa_series(f, F3, 6, method="brute", budget=5_000_000)
    assert list(lift3.coeffs) == list(brute3.coeffs)
    lift5 = igusa_series(f, F5, 3, method="lift")
    brute5 = igusa_series(f, F5, 3, method="brute")
    assert list(lift5.coeffs) == list(brute5.coeffs)


def test_snc_linear_edge():
    # d = 1, n = 1: Z0 is the unit-sphere mass, L constant
    f = parse_polynomial("x1", 1)
    series = igusa_series(f, F3, 8)
    Z0 = snc_form_Z0(f, 1, series, F3)
    from ultrazeta.ratfunc import RationalFunctionT
    assert Z0 == RationalFunctionT.const(Fraction(2, 3), 3)


def test_nondegeneracy_rejected():
    g = parse_polynomial("x1^2+2*x1*x2+x2^2", 2)
    with pytest.raises(NondegeneracyFailed):
        check_strong_nondegeneracy(g, F3)


def _first_singular_zero(f, q):
    """The old scalar scan: the first point of (Z/q)^n, in np.ndindex
    order and past the origin, where f and its gradient vanish mod q."""
    grads = f.gradient()
    for point in np.ndindex(*(q,) * f.n):
        if any(point) and f.eval_int(point, modulus=q) == 0 \
                and all(g.eval_int(point, modulus=q) == 0 for g in grads):
            return point
    return None


@pytest.mark.parametrize("field", [Qp(2), Qp(3), LaurentFp(2)])
def test_nondegeneracy_witness_is_the_first_singular_zero(field):
    rng = np.random.default_rng(26)
    singular = 0
    for _ in range(60):
        n = int(rng.integers(1, 4))
        f = IntPolynomial.make(n, {
            tuple(rng.integers(0, 4, n).tolist()): int(rng.integers(-4, 5))
            for _ in range(4)})
        want = _first_singular_zero(f, field.q)
        if want is None:
            check_strong_nondegeneracy(f, field)
            continue
        singular += 1
        with pytest.raises(NondegeneracyFailed) as err:
            check_strong_nondegeneracy(f, field)
        assert err.value.witness == want
        assert all(type(c) is int for c in err.value.witness)
        assert str(err.value) == f"singular zero of the reduction at {want}"
    assert singular >= 10


def test_hinf_cross_mode_agreement():
    eng = HinfZetaEngine(2, 2, 1.0)
    for s in np.linspace(0.12, 3.0, 25):
        a = eng.value(float(s), "sphere_series").value
        b = eng.value(float(s), "factored_continuation").value
        assert abs(a - b) < 1e-10


def test_hinf_pole_set_matches_claim():
    eng = HinfZetaEngine(2, 2, 1.0, pole_depth=12)
    got = sorted(float(v) for v in eng.prediction.values())
    want = sorted({-1.0} | {-(2 + l) / 2 for l in range(12)})
    for w in want:
        assert any(abs(w - g) < 1e-12 for g in got), w


def test_hinf_poles_located_numerically():
    eng = HinfZetaEngine(2, 2, 1.0)
    located = locate_real_poles(eng, -2.7, -0.6)
    assert len(located) >= 4
    pred = [float(v) for v in eng.prediction.values()]
    for x in located:
        assert min(abs(x - p) for p in pred) < 1e-4


def test_hinf_pole_prediction_covers_other_shapes():
    for n, d, alpha in ((1, 2, 1.0), (2, 2, 1.0), (2, 2, 2.0)):
        eng = HinfZetaEngine(n, d, alpha)
        located = locate_real_poles(eng, -2.4, -0.4)
        pred = [float(v) for v in eng.prediction.values()]
        for x in located:
            assert min(abs(x - p) for p in pred) < 1e-4


def test_hinf_residue_matches_symbolic():
    # x1^3 + x2^3 over Q_5 with alpha = 3: the pole at s = -1 is simple
    # and comes from the Z0 factor alone (Z1 poles sit at -(2+3l)/3)
    eng = HinfZetaEngine(2, 3, 3.0, field=F5)
    exp = laurent_at(eng.Z0, -1, 0)
    assert exp.pole_order == 1
    z1_at_m1, _ = eng.z1_factored(-1.0)
    res_sym = exp.coefficient_value(-1) * z1_at_m1
    # the numeric limit h Z(-1+h) converges to the residue
    errs = []
    for h in (1e-2, 1e-3, 1e-4):
        z = eng.value(-1 + h, "factored_continuation", raw=True).value
        errs.append(abs(h * z - res_sym))
    assert errs[2] < errs[0]
    assert errs[2] < 1e-2 * abs(res_sym)
    # Richardson pair pins it much tighter
    h1, h2 = 1e-3, 5e-4
    z1v = eng.value(-1 + h1, "factored_continuation", raw=True).value * h1
    z2v = eng.value(-1 + h2, "factored_continuation", raw=True).value * h2
    extrap = 2 * z2v - z1v
    assert abs(extrap - res_sym) < 1e-5 * abs(res_sym)


def test_hinf_guard():
    eng = HinfZetaEngine(2, 2, 1.0)
    with pytest.raises(PoleProximity):
        eng.value(-1.5 + 1e-8, "factored_continuation")
    with pytest.raises(DivergentIntegral):
        eng.value(-0.5, "sphere_series")


def test_elementary_against_monomial_closed():
    gh = GridFunction.indicator_ball(F3, 1, 0, L=1, m=1, exact=True)
    R = elementary_integral_exact(gh, [1], [1], side="frequency")
    assert R == monomial_zeta_closed([1], q=3)
    gh2 = GridFunction.indicator_ball(F3, 2, 0, exact=True)
    R2 = elementary_integral_exact(gh2, [2, 1], [1, 2], side="frequency")
    assert R2 == monomial_zeta_closed([2, 1], v=[1, 2], q=3)


def test_elementary_entire_off_hyperplanes():
    gh = GridFunction.zeros(F3, 1, 1, 1, exact=True)
    gh.values[2] = Fraction(3, 2)
    gh.values[7] = Fraction(-1, 2)
    R = elementary_integral_exact(gh, [1], [1], side="frequency")
    # no geometric factors: denominator is a bare power of t
    assert all(c == 0 for c in R.den.coeffs[:-1])


def _exact_grid(field, n, rng, L=1, m=1):
    """A frequency-side grid of random Fractions, zero on about half the
    cells."""
    g = GridFunction.zeros(field, n, L, m, exact=True)
    for idx in np.ndindex(g.values.shape):
        if rng.random() < 0.5:
            g.values[idx] = Fraction(int(rng.integers(-9, 10)),
                                     int(rng.integers(1, 8)))
    return g


def test_elementary_exact_equals_direct():
    rng = np.random.default_rng(21)
    for field in (F3, F3, F3, LaurentFp(3), LaurentFp(3)):
        gh = _exact_grid(field, 2, rng)
        R = elementary_integral_exact(gh, [1, 2], [1, 1], side="frequency")
        for s in (0.4, 1.1, 0.9 + 0.3j):
            d = elementary_integral(gh, [1, 2], [1, 1], s, side="frequency")
            assert abs(R.eval_t(complex(3) ** (-complex(s))) - d) \
                < 1e-12 * (1 + abs(d))


def test_elementary_divergence_precondition():
    rng = np.random.default_rng(22)
    g = random_grid(F3, 1, 1, 1, rng)
    with pytest.raises(DivergentIntegral):
        elementary_integral(g, [1], [1], -1.2)


def test_elementary_functional_equation():
    # the gamma-weighted shift identity between parameters (N, v) and
    # (N, v + beta N), checked with frequency data off the hyperplanes so
    # the shifted side is an exact grid
    q = 3
    N, v = 2, 1
    rng = np.random.default_rng(23)
    gh = GridFunction.zeros(F3, 1, 1, 1)
    for i in range(1, gh.Q):
        gh.values[i] = rng.standard_normal() + 1j * rng.standard_normal()
    g = inverse_fourier_transform(gh)
    gf = GammaFactor(q)
    for beta in (1, 2):
        gam = beta * N
        Dg = vladimirov([float(gam)], g)
        # multiplier is constant on the charged cells: exact grid image
        from ultrazeta.localfield import _axis_norm_exps
        fex = _axis_norm_exps(3, gh.L, gh.m)
        vals = gh.values * np.exp(
            np.where(fex > -10 ** 8, fex, 0) * gam * math.log(q))
        Dg_grid = inverse_fourier_transform(
            GridFunction(F3, 1, gh.L, gh.m, vals))
        lo = (v - 1) / N + 0.05
        hi = v / N - 0.05
        samples = [float(z) for z in np.linspace(lo, hi, 10)]
        samples += [complex(0.5 * (lo + hi), 0.2)]
        for z in samples:
            lhs = power_integral(g, [N * z - v])
            rhs = power_integral(Dg_grid, [N * z - v + gam])
            ratio = gf(-N * z + v - gam) / gf(-N * z + v)
            assert abs(lhs - ratio * rhs) < 1e-10 * (1 + abs(lhs))


def test_mixed_integral_examples():
    g1 = GridFunction.indicator_ball(F3, 1, 0, L=1, m=1)
    # alpha = 1 on I: sphere sum = (1-1/q)/(1-q^{-2})
    val = mixed_integral(g1, [0], [], [1.0], [])
    assert abs(val - float(Fraction(2, 3) / (1 - Fraction(1, 9)))) < 1e-13
    # beta = 1/2: (1-1/q)/(1-q^{-1/2})
    val2 = mixed_integral(g1, [], [0], [], [0.5])
    assert abs(val2 - (1 - 1 / 3) / (1 - 3 ** -0.5)) < 1e-13
    # beta -> 0 recovers the plain integral of ghat
    val3 = mixed_integral(g1, [], [0], [], [1e-8])
    assert abs(val3 - 1.0) < 1e-6


def test_mixed_integral_strip_enforced():
    g1 = GridFunction.indicator_ball(F3, 1, 0, L=1, m=1)
    with pytest.raises(DivergentIntegral):
        mixed_integral(g1, [], [0], [], [1.1])
    with pytest.raises(DivergentIntegral):
        mixed_integral(g1, [0], [], [-0.3], [])


def test_predict_poles_snc_remark():
    data = ResolutionData(((1, 1), (2, 2)))
    pred = predict_poles(data, snc_pole_progressions(1.0), depth=12)
    got = [float(v) for v in pred.values()]
    want = sorted({-1.0} | {-(2 + l) / 2 for l in range(10)})
    for w in want:
        assert any(abs(w - x) < 1e-12 for x in got), w
    # and nothing outside the claim set in that range
    claim = {-1.0} | {-(2 + l) / 2 for l in range(40)}
    for x in got:
        if x >= -6:
            assert any(abs(x - c) < 1e-12 for c in claim), x


def test_predict_poles_single_datum():
    data = ResolutionData(((1, 3),))
    prog = GeneralizedProgression((Fraction(3, 2), Fraction(1, 2)))
    pred = predict_poles(data, [prog], depth=3)
    vals = pred.values()
    # -v, -v-(gamma1-1), -(v+gamma1+gamma2), ...
    assert vals[-1] == Fraction(-3)
    assert Fraction(-7, 2) in [Fraction(v) for v in vals]
    assert all(float(v) < 0 for v in vals)


def test_progression_definition():
    prog = GeneralizedProgression((2, 1))
    assert prog.terms(5) == [0, 1, 3, 4, 5, 6]
    with pytest.raises(ValueError):
        GeneralizedProgression((Fraction(1, 2),))


def test_heat_kernel_norms():
    hk = HeatKernel(1.0, 1.0, 2, F3)
    # two independent splits of the l = 0 sum agree
    q, n = 3, 2
    direct = 0.0
    for j in range(-60, 8):
        direct += (1 - q ** -2) * float(q) ** (j * n) \
            * math.exp(-2 * float(q) ** (j * 1.0))
    sq, tail = hk.norm_sq_with_tail(0)
    assert tail < 1e-12
    assert abs(sq - direct) < 1e-12
    # monotone and finite up to l = 20
    last = 0.0
    for l in range(21):
        val = hk.norm(l)
        assert math.isfinite(val)
        assert val >= last - 1e-12
        last = val


def test_heat_kernel_scaling():
    hk_t = HeatKernel(0.25, 2.0, 1, F3)
    hk_1 = HeatKernel(1.0, 2.0, 1, F3)
    for j in (-2, 0, 1):
        lhs = hk_t.sphere_value(j)
        rhs = math.exp(-0.25 * float(3) ** (j * 2.0))
        assert abs(lhs - rhs) < 1e-15
        # kernel at (t, alpha) equals kernel at (1, alpha) on the argument
        # scaled by t, read off on the log scale
        assert math.log(hk_t.sphere_value(j)) == pytest.approx(
            0.25 * math.log(hk_1.sphere_value(j)), rel=1e-9)


# -- cells_to_rational against the per-cell sum --------------------------------

def _cells_to_rational_per_cell(gh, specs):
    """The cell sum with every coefficient and factor product rebuilt per
    cell."""
    q = gh.field.q
    qf = Fraction(q)
    fexp = _axis_norm_exps(q, gh.L, gh.m)
    meas = qf ** (-gh.m)
    cells = list(zip(*np.nonzero(gh.values)))
    active = sorted({ax for idx in cells for ax in range(gh.n)
                     if specs[ax] is not None and idx[ax] == 0})
    factors = {ax: Poly([Fraction(1)] + [Fraction(0)] * (specs[ax][0] - 1)
                        + [-qf ** (-specs[ax][1])]) for ax in active}
    den = Poly([Fraction(1)])
    for ax in active:
        den = den * factors[ax]
    shift = max((sum(int(fexp[i]) * specs[ax][0]
                     for ax, i in enumerate(idx)
                     if specs[ax] is not None and i != 0 and fexp[i] > 0)
                 for idx in cells), default=0)
    num_terms = {}
    for idx in cells:
        val = gh.values[idx]
        piece_coeff = Fraction(1)
        tpow = shift
        cof = Poly([Fraction(1)])
        for ax, i in enumerate(idx):
            spec = specs[ax]
            if spec is None:
                piece_coeff *= meas
                continue
            N, vv = spec
            if i == 0:
                piece_coeff *= (1 - 1 / qf) * qf ** (-vv * gh.m)
                tpow += N * gh.m
            else:
                fe = int(fexp[i])
                piece_coeff *= meas * qf ** (fe * (vv - 1))
                tpow -= fe * N
                if ax in active:
                    cof = cof * factors[ax]
        for k, c in enumerate(cof.coeffs):
            if c == 0:
                continue
            key = tpow + k
            num_terms[key] = num_terms.get(key, 0) + val * piece_coeff * c
    if not num_terms:
        return RationalFunctionT.const(0, q)
    strip = min(min(num_terms), shift)
    num_terms = {k - strip: v for k, v in num_terms.items()}
    if shift > strip:
        den = den * Poly([Fraction(0)] * (shift - strip) + [Fraction(1)])
    top = max(num_terms)
    num = Poly([num_terms.get(k, 0) for k in range(top + 1)])
    return RationalFunctionT.make(num, den, q)


@st.composite
def _cell_grids(draw):
    """An exact grid on either field (n = 1..3, at most 729 cells), with
    zero cells charged or empty, and per-axis specs."""
    field = (Qp if draw(st.booleans()) else LaurentFp)(
        draw(st.sampled_from([2, 3])))
    n = draw(st.integers(1, 3))
    p = field.p
    widths = [w for w in range(4) if p ** (w * n) <= 729]
    width = draw(st.sampled_from(widths))
    L = draw(st.integers(0, width))
    shape = (p ** width,) * n
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    vals = np.empty(shape, dtype=object)
    nums, dens = rng.integers(-9, 10, shape), rng.integers(1, 7, shape)
    for idx in np.ndindex(shape):
        vals[idx] = Fraction(int(nums[idx]), int(dens[idx]))
    keep = rng.random(shape) < draw(st.sampled_from([0.2, 0.6, 1.0]))
    vals[~keep] = Fraction(0)
    for ax in range(n):
        if draw(st.booleans()):  # an empty zero cell on this axis
            vals[(slice(None),) * ax + (0,)] = Fraction(0)
    specs = [draw(st.one_of(st.none(), st.tuples(st.integers(1, 3),
                                                  st.integers(1, 3))))
             for _ in range(n)]
    return GridFunction(field, n, L, width - L, vals), specs


@settings(derandomize=True, max_examples=120, deadline=None)
@given(_cell_grids())
def test_cells_to_rational_matches_per_cell_sum(case):
    g, specs = case
    got = cells_to_rational(g, specs)
    want = _cells_to_rational_per_cell(g, specs)
    assert got.den.coeffs == want.den.coeffs
    assert got.num.coeffs == want.num.coeffs
    assert all(type(c) is Fraction for c in got.num.coeffs)


# -- dimensions and exactness of the cell sums -----------------------------------

def test_cells_to_rational_needs_one_spec_per_coordinate():
    gh = GridFunction.indicator_ball(F3, 2, 0, exact=True)
    for specs in ([(1, 1)], [(1, 1), None, (2, 1)]):
        with pytest.raises(ValueError, match=f"{len(specs)} specs for a "
                                             f"grid of 2 coordinates"):
            cells_to_rational(gh, specs)
    with pytest.raises(ValueError, match="at least 1"):
        cells_to_rational(gh, [(0, 1), None])


def test_elementary_integrals_check_their_exponents():
    gh = GridFunction.indicator_ball(F3, 1, 0, exact=True)
    for fn, args in ((elementary_integral_exact, ()),
                     (elementary_integral, (1.5,))):
        with pytest.raises(ValueError, match="2 exponents for a grid of 1"):
            fn(gh, [1, 1], [1, 1], *args, side="frequency")
        with pytest.raises(ValueError, match="1 exponents N but 0 offsets"):
            fn(gh, [1], [], *args, side="frequency")
        with pytest.raises(ValueError, match="2 exponents N but 1 offsets"):
            fn(gh, [1, 1], [1], *args, side="frequency")
        # 1 - q^{-v} t^0 is no geometric factor: N = 0 once gave a wrong
        # rational, and a ZeroDivisionError in the direct route
        with pytest.raises(ValueError, match="at least 1"):
            fn(gh, [0], [1], *args, side="frequency")


def test_the_exact_routes_refuse_complex_grids():
    gh = GridFunction.indicator_ball(F3, 1, 0)
    with pytest.raises(TypeError, match="exact grid"):
        cells_to_rational(gh, [(1, 1)])
    with pytest.raises(TypeError, match="exact grid"):
        elementary_integral_exact(gh, [1], [1], side="frequency")
    # the space side transforms into complex values
    with pytest.raises(TypeError, match="exact grid"):
        elementary_integral_exact(GridFunction.indicator_ball(
            F3, 1, 0, exact=True), [1], [1])
