import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ultrazeta.errors import Inexact
from ultrazeta.localfield import (FieldVector, LaurentFp,
                                  LocalFieldElement, Qp, ball_measure,
                                  char_fraction, char_fraction_of_rational,
                                  field_arith, sphere_measure,
                                  valuation_and_norm)
from ultrazeta.localfield import (_PRIME_TEST_BOUND, FieldSpec, _is_prime,
                                  _max_valuation)

F3 = Qp(3)
F5T = LaurentFp(5)


def rational_ord(p, r):
    if r == 0:
        return math.inf
    v = 0
    n, d = r.numerator, r.denominator
    while n % p == 0:
        n //= p
        v += 1
    while d % p == 0:
        d //= p
        v -= 1
    return v


def test_valuation_examples():
    x = LocalFieldElement.from_int(F3, 12)
    assert valuation_and_norm(x) == (1, Fraction(1, 3))
    z = LocalFieldElement.zero(F3)
    assert valuation_and_norm(z) == (math.inf, 0)
    y = LocalFieldElement.from_laurent_coeffs(F5T, {-2: 1, -1: 1})
    assert valuation_and_norm(y) == (-2, 25)


def test_arith_examples():
    one = LocalFieldElement.from_int(F3, 1)
    three = LocalFieldElement.from_int(F3, 3)
    s = field_arith(one, three, "add")
    assert s.valuation == 0 and s.digits[:2] == (1, 1)  # digits of 4
    # ultrametric equality case: ord a = 0, ord b = 2
    b = LocalFieldElement.from_int(F3, 9)
    assert (one + b).valuation == 0
    third = LocalFieldElement.from_rational(F3, Fraction(1, 3))
    assert (third * three).as_fraction() == 1


@pytest.mark.parametrize("seed", range(4))
def test_ultrametric_and_multiplicativity(seed):
    import random

    rng = random.Random(seed)
    for _ in range(60):
        ra = Fraction(rng.randint(-200, 200), rng.randint(1, 120))
        rb = Fraction(rng.randint(-200, 200), rng.randint(1, 120))
        if ra == 0 or rb == 0 or ra + rb == 0:
            continue
        a = LocalFieldElement.from_rational(F3, ra)
        b = LocalFieldElement.from_rational(F3, rb)
        va, vb = rational_ord(3, ra), rational_ord(3, rb)
        assert a.valuation == va and b.valuation == vb
        # |ab| = |a||b| exactly
        assert (a * b).valuation == va + vb
        # |a+b| <= max, equality when norms differ
        s = a + b
        assert s.valuation >= min(va, vb)
        if va != vb:
            assert s.valuation == min(va, vb)
        # division inverts exactly at the rational level
        assert (a / b).valuation == va - vb


def test_add_cancellation_signals_inexact():
    a = LocalFieldElement.from_int(F3, 7, precision=6)
    with pytest.raises(Inexact):
        _ = a + (-a)


def test_division_by_zero():
    a = LocalFieldElement.from_int(F3, 5)
    with pytest.raises(ZeroDivisionError):
        _ = a / LocalFieldElement.zero(F3)


def test_char_examples():
    # trivial on the ring of integers
    assert char_fraction(LocalFieldElement.from_int(F3, 7)) == 0
    third = LocalFieldElement.from_rational(F3, Fraction(1, 3))
    assert char_fraction(third) == Fraction(1, 3)
    # Laurent: coefficient of T^{-1} over p
    y = LocalFieldElement.from_laurent_coeffs(F5T, {-1: 3, 0: 2})
    assert char_fraction(y) == Fraction(3, 5)
    assert char_fraction(LocalFieldElement.from_laurent_coeffs(
        F5T, {0: 2, 3: 1})) == 0


def test_char_multiplicativity_exact():
    import random

    rng = random.Random(11)
    for _ in range(100):
        ra = Fraction(rng.randint(-500, 500), 3 ** rng.randint(0, 5))
        rb = Fraction(rng.randint(-500, 500), 3 ** rng.randint(0, 5))
        lhs = char_fraction_of_rational(3, ra + rb)
        rhs = (char_fraction_of_rational(3, ra)
               + char_fraction_of_rational(3, rb)) % 1
        assert lhs == rhs


def test_char_insufficient_precision():
    x = LocalFieldElement.from_digits(F3, -5, [1, 2])
    with pytest.raises(Inexact):
        char_fraction(x)


def test_measures():
    assert ball_measure(F3, 0, 2) == 1
    assert ball_measure(F3, -1, 1) == Fraction(1, 3)
    assert sphere_measure(F3, 0, 2) == Fraction(8, 9)


def test_sphere_partition_closes_symbolically():
    # sum of sphere measures telescopes to the ball measure
    q = Fraction(3)
    for J in (-2, 0, 3):
        # finite stretch plus the remaining ball reproduces B_{-J}
        for N in (J + 1, J + 6):
            total = sum(sphere_measure(F3, -j, 1) for j in range(J, N + 1))
            assert total + ball_measure(F3, -(N + 1), 1) == \
                ball_measure(F3, -J, 1)
        # closed geometric form
        assert sphere_measure(F3, -J, 1) / (1 - 1 / q) == q ** (-J)


def test_vector_norm_is_max():
    v = FieldVector((LocalFieldElement.from_int(F3, 3),
                     LocalFieldElement.from_int(F3, 2)))
    assert v.norm() == 1
    assert v.ord() == 0


def test_json_roundtrip():
    x = LocalFieldElement.from_rational(F3, Fraction(7, 9), precision=8)
    y = LocalFieldElement.from_json(x.to_json())
    assert x == y
    z = LocalFieldElement.zero(F3)
    assert LocalFieldElement.from_json(z.to_json()).is_zero


def test_laurent_arithmetic_roundtrip():
    a = LocalFieldElement.from_laurent_coeffs(F5T, {-1: 2, 0: 1, 2: 4})
    b = LocalFieldElement.from_laurent_coeffs(F5T, {0: 3, 1: 1})
    prod = a * b
    assert prod.valuation == -1
    back = prod / b
    assert back.valuation == a.valuation
    assert back.digits[:10] == a.digits[:10]


def test_vector_json_roundtrip():
    v = FieldVector((LocalFieldElement.from_int(F3, 3),
                     LocalFieldElement.zero(F3)))
    assert FieldVector.from_json(v.to_json()) == v


_GOOD = {"field": {"kind": "Qp", "p": 3}, "val": 0, "digits": [1]}


@pytest.mark.parametrize("obj, name", [
    ([_GOOD], "JSON object with coords"),
    ({"coord": [_GOOD]}, "JSON object with coords"),
    ({"coords": _GOOD}, "coords must be a list"),
    ({"coords": []}, "empty vector"),
    ({"coords": [_GOOD, {**_GOOD, "val": 0.5}]}, "coordinate 1: element val"),
    ({"coords": [_GOOD, {**_GOOD, "digits": [3]}]},
     "coordinate 1: element digit 3"),
    ({"coords": [{**_GOOD, "field": {"kind": "LaurentFp", "p": 3}}, _GOOD]},
     "mixed fields"),
])
def test_vector_json_rejects_bad_documents(obj, name):
    with pytest.raises(ValueError, match=name):
        FieldVector.from_json(obj)


# -- Q_p arithmetic against the digit-level definition -------------------------

def _ref_unit(x):
    p = x.field.p
    return sum(d * p ** i for i, d in enumerate(x.digits))


def _ref_from_unit(field, val, unit, prec):
    p = field.p
    digits = []
    for _ in range(prec):
        digits.append(unit % p)
        unit //= p
    return LocalFieldElement(field, val, tuple(digits))


def _ref_from_unit_shifted(field, val, s, width):
    p = field.p
    shift = 0
    while s % p == 0:
        s //= p
        shift += 1
    return _ref_from_unit(field, val + shift, s, width - shift)


def _ref_neg(a):
    if a.is_zero:
        return a
    return _ref_from_unit(a.field, a.valuation,
                          (-_ref_unit(a)) % a.field.p ** a.precision,
                          a.precision)


def _ref_add(a, b):
    if a.is_zero:
        return b
    if b.is_zero:
        return a
    p = a.field.p
    v = min(a.valuation, b.valuation)
    width = min(a.known_to, b.known_to) - v
    if width <= 0:
        return "inexact"
    s = (_ref_unit(a) * p ** (a.valuation - v)
         + _ref_unit(b) * p ** (b.valuation - v)) % p ** width
    if s == 0:
        return "inexact"
    return _ref_from_unit_shifted(a.field, v, s, width)


def _ref_mul(a, b):
    if a.is_zero or b.is_zero:
        return LocalFieldElement.zero(a.field)
    prec = min(a.precision, b.precision)
    u = _ref_unit(a) * _ref_unit(b) % a.field.p ** prec
    return _ref_from_unit(a.field, a.valuation + b.valuation, u, prec)


def _outcome(op, a, b):
    try:
        return op(a, b)
    except Inexact:
        return "inexact"


@st.composite
def _qp_elements(draw, field):
    if draw(st.integers(0, 9)) == 0:
        return LocalFieldElement.zero(field)
    digits = draw(st.lists(st.integers(0, field.p - 1), min_size=1,
                           max_size=40))
    digits[0] = max(digits[0], 1)
    return LocalFieldElement.from_digits(field, draw(st.integers(-6, 6)),
                                         digits)


@st.composite
def _qp_triples(draw):
    field = Qp(draw(st.sampled_from([2, 3, 5, 7, 101])))
    return tuple(draw(_qp_elements(field)) for _ in range(3))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_qp_triples())
def test_qp_arithmetic_matches_digit_reference(elems):
    a, b, c = elems
    # products and sums carry their unit integer; use them as operands too
    derived = [x for x in (_outcome(LocalFieldElement.__mul__, a, c),
                           _outcome(LocalFieldElement.__add__, b, c),
                           -a) if x != "inexact"]
    for x in [a, b, c] + derived:
        assert -x == _ref_neg(x)
        for y in [a, b, c] + derived:
            for op, ref in ((LocalFieldElement.__mul__, _ref_mul),
                            (LocalFieldElement.__add__, _ref_add),
                            (LocalFieldElement.__sub__,
                             lambda u, w: _ref_add(u, _ref_neg(w)))):
                got = _outcome(op, x, y)
                assert got == ref(x, y)
                if got != "inexact" and not got.is_zero:
                    assert got._unit == _ref_unit(got)


def test_qp_product_truncates_at_the_shorter_precision():
    a = LocalFieldElement.from_digits(F3, 0, [1, 2, 2, 1, 0, 2])
    b = LocalFieldElement.from_digits(F3, -2, [2, 1, 1])
    assert a * b == _ref_mul(a, b)
    assert (a * b).precision == 3
    assert (a * b * a).digits == _ref_mul(_ref_mul(a, b), a).digits


def test_is_prime_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))
    assert [n for n in range(5000) if _is_prime(n)] \
        == [n for n in range(5000) if trial(n)]


@pytest.mark.parametrize("n, prime", [
    (2 ** 61 - 1, True), (2 ** 31 - 1, True), (1_000_000_007, True),
    (3_215_031_751, False),                  # strong pseudoprime to 2..7
    (3_825_123_056_546_413_051, False),      # strong pseudoprime to 2..23
    (318_665_857_834_031_151_167_461, False),  # strong pseudoprime to 2..37
    (561, False), (2 ** 61 + 1, False),
])
def test_is_prime_known_values(n, prime):
    assert _is_prime(n) is prime


def test_field_refuses_p_past_the_exact_test():
    assert FieldSpec("Qp", 2 ** 61 - 1).p == 2 ** 61 - 1
    for p in (_PRIME_TEST_BOUND, 2 ** 89 - 1):
        with pytest.raises(ValueError, match="below 3.3e24"):
            FieldSpec("Qp", p)


def test_element_json_bounds_val():
    for p in (3, 5, 2 ** 61 - 1):
        top = _max_valuation(p)
        assert len(str(Fraction(p) ** top)) <= 4001
        for val in (top, -top):
            x = LocalFieldElement.from_json(
                {"field": {"kind": "Qp", "p": p}, "val": val, "digits": [1]})
            assert x.valuation == val
        for val in (top + 1, -top - 1, 10 ** 30):
            with pytest.raises(ValueError, match="element val must lie"):
                LocalFieldElement.from_json(
                    {"field": {"kind": "Qp", "p": p}, "val": val,
                     "digits": [1]})


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_qp_triples())
def test_qp_char_fraction_matches_digit_sum(elems):
    for x in elems:
        if x.is_zero or x.known_to < 0:
            continue
        p = x.field.p
        want = sum(Fraction(x.digit_at(j), p ** (-j))
                   for j in range(min(x.valuation, 0), 0)) % 1
        assert char_fraction(x) == want


# -- F_p((T)) arithmetic against the coefficient-level definition -----------

def _kronecker(digits, base):
    """sum d_i base^i: with base past every coefficient of a product, the
    integer product carries the polynomial product digit by digit."""
    return sum(d * base ** i for i, d in enumerate(digits))


def _poly_mul_mod(a, b, p, prec):
    """Coefficients 0..prec-1 of the product of two F_p[T] digit lists,
    through one integer product (Kronecker substitution)."""
    base = prec * p * p + 1
    c = _kronecker(a[:prec], base) * _kronecker(b[:prec], base)
    out = []
    for _ in range(prec):
        out.append(c % base % p)
        c //= base
    return out


def _ref_fpt_neg(a):
    if a.is_zero:
        return a
    return LocalFieldElement(a.field, a.valuation,
                             tuple(-d % a.field.p for d in a.digits))


def _ref_fpt_add(a, b):
    if a.is_zero:
        return b
    if b.is_zero:
        return a
    v = min(a.valuation, b.valuation)
    known = min(a.known_to, b.known_to)
    if known <= v:
        return "inexact"
    coeffs = [(a.digit_at(e) + b.digit_at(e)) % a.field.p
              for e in range(v, known)]
    if not any(coeffs):
        return "inexact"
    return LocalFieldElement.from_digits(a.field, v, coeffs)


def _ref_fpt_mul(a, b):
    if a.is_zero or b.is_zero:
        return LocalFieldElement.zero(a.field)
    prec = min(a.precision, b.precision)
    return LocalFieldElement(a.field, a.valuation + b.valuation, tuple(
        _poly_mul_mod(a.digits, b.digits, a.field.p, prec)))


def _ref_fpt_div(a, b):
    """a times the inverse series of b: inv_0 = 1/b_0 and
    sum_{j <= k} b_j inv_{k-j} = 0 for k >= 1."""
    if b.is_zero:
        return "zerodiv"
    if a.is_zero:
        return a
    p = a.field.p
    prec = min(a.precision, b.precision)
    b0 = pow(b.digits[0], -1, p)
    inv = [b0]
    for k in range(1, prec):
        s = sum(b.digits[j] * inv[k - j] for j in range(1, k + 1))
        inv.append(-s * b0 % p)
    return LocalFieldElement(a.field, a.valuation - b.valuation, tuple(
        _poly_mul_mod(list(a.digits), inv, p, prec)))


def _fpt_outcome(op, a, b):
    try:
        return op(a, b)
    except Inexact:
        return "inexact"
    except ZeroDivisionError:
        return "zerodiv"


@st.composite
def _fpt_triples(draw):
    field = LaurentFp(draw(st.sampled_from([2, 3, 5, 7])))
    return tuple(draw(_qp_elements(field)) for _ in range(3))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_fpt_triples())
def test_laurent_arithmetic_matches_digit_reference(elems):
    a, b, c = elems
    derived = [x for x in (_fpt_outcome(LocalFieldElement.__mul__, a, c),
                           _fpt_outcome(LocalFieldElement.__add__, b, c),
                           _fpt_outcome(LocalFieldElement.__truediv__, a, b),
                           -a) if x not in ("inexact", "zerodiv")]
    for x in [a, b, c] + derived:
        assert -x == _ref_fpt_neg(x)
        for y in [a, b, c] + derived:
            for op, ref in ((LocalFieldElement.__mul__, _ref_fpt_mul),
                            (LocalFieldElement.__add__, _ref_fpt_add),
                            (LocalFieldElement.__sub__,
                             lambda u, w: _ref_fpt_add(u, _ref_fpt_neg(w))),
                            (LocalFieldElement.__truediv__, _ref_fpt_div)):
                assert _fpt_outcome(op, x, y) == ref(x, y)
