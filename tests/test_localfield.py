import math
from fractions import Fraction

import pytest

from ultrazeta.errors import Inexact
from ultrazeta.localfield import (FieldVector, LaurentFp,
                                  LocalFieldElement, Qp, ball_measure,
                                  char_fraction, char_fraction_of_rational,
                                  field_arith, sphere_measure,
                                  valuation_and_norm)

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
