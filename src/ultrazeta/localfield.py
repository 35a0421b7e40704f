"""Finite-precision arithmetic in Q_p and F_p((T)).

Elements are truncated uniformizer expansions ``pi^v * (d_0 + d_1 pi + ...)``
with ``d_0 != 0``; the digit count is the precision.  All valuations, norms
and additive-character values are exact rationals.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import Inexact

DEFAULT_PRECISION = 32

#: valuation assigned to the zero element
INFINITE = math.inf


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

#: Miller-Rabin with the bases _SMALL_PRIMES is exact below this bound
#: (Sorenson and Webster, Math. Comp. 86, 2017); larger p are refused.
_PRIME_TEST_BOUND = 3_317_044_064_679_887_385_961_981

#: a norm q^-val prints as a Fraction; its power of p may have at most this
#: many decimal digits (Python refuses to print ints past 4,300 digits)
_MAX_NORM_DIGITS = 4000


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < _PRIME_TEST_BOUND."""
    if n < 2:
        return False
    for sp in _SMALL_PRIMES:
        if n % sp == 0:
            return n == sp
    if n < _SMALL_PRIMES[-1] ** 2:
        return True
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _max_valuation(p: int) -> int:
    """Largest |val| whose norm p^-val prints in _MAX_NORM_DIGITS digits."""
    return int(_MAX_NORM_DIGITS / math.log10(p))


@dataclass(frozen=True)
class FieldSpec:
    """A non-Archimedean local field: Q_p or F_p((T)), residue field F_p."""

    kind: str
    p: int

    def __post_init__(self):
        if self.kind not in ("Qp", "LaurentFp"):
            raise ValueError(f"unknown field kind {reprlib.repr(self.kind)}")
        if self.p >= _PRIME_TEST_BOUND:
            raise ValueError("p is too large: primes below 3.3e24 are "
                             "supported")
        if not _is_prime(self.p):
            raise ValueError(f"p = {self.p} is not prime")

    @property
    def q(self) -> int:
        # residue cardinality; restricted to q = p
        return self.p

    def to_json(self) -> dict:
        return {"kind": self.kind, "p": self.p}

    @staticmethod
    def from_json(obj: dict) -> "FieldSpec":
        """Inverse of ``to_json``: ``kind`` a string, ``p`` an int (not a
        bool); a wrong type raises ValueError naming the field."""
        kind, p = obj["kind"], obj["p"]
        if type(kind) is not str:
            raise ValueError(f"field kind must be a string, not "
                             f"{reprlib.repr(kind)}")
        if type(p) is not int:
            raise ValueError(f"field p must be an int, not {reprlib.repr(p)}")
        return FieldSpec(kind=kind, p=p)


def Qp(p: int) -> FieldSpec:
    return FieldSpec("Qp", p)


def LaurentFp(p: int) -> FieldSpec:
    return FieldSpec("LaurentFp", p)


@dataclass(frozen=True)
class LocalFieldElement:
    """Truncated element: digits d_0.. with d_0 != 0, or the exact zero.

    Zero carries valuation +inf and an empty digit tuple.
    """

    field: FieldSpec
    valuation: object  # int, or INFINITE for zero
    digits: tuple

    def __post_init__(self):
        if self.valuation is INFINITE:
            if self.digits:
                raise ValueError("zero element must have no digits")
            return
        if not self.digits:
            raise ValueError("nonzero element needs at least one digit")
        p = self.field.p
        if self.digits[0] % p == 0:
            raise ValueError("leading digit must be a unit")
        if min(self.digits) < 0 or max(self.digits) >= p:
            raise ValueError("digits out of range")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(field: FieldSpec) -> "LocalFieldElement":
        return LocalFieldElement(field, INFINITE, ())

    @staticmethod
    def from_digits(field: FieldSpec, valuation: int, digits,
                    ) -> "LocalFieldElement":
        """Build from a digit list, stripping leading zeros.

        An all-zero digit list is taken to mean the exact zero.
        """
        digits = [d % field.p for d in digits]
        shift = 0
        while shift < len(digits) and digits[shift] == 0:
            shift += 1
        if shift == len(digits):
            return LocalFieldElement.zero(field)
        return LocalFieldElement(field, valuation + shift,
                                 tuple(digits[shift:]))

    @staticmethod
    def from_int(field: FieldSpec, n: int,
                 precision: int = DEFAULT_PRECISION) -> "LocalFieldElement":
        return LocalFieldElement.from_rational(field, Fraction(n), precision)

    @staticmethod
    def from_rational(field: FieldSpec, r, precision: int = DEFAULT_PRECISION,
                      ) -> "LocalFieldElement":
        """Exact rational -> truncated expansion.

        For F_p((T)) only rationals with p-power denominator embed (as
        constants times powers of T they do not; we map the integer value
        reduced mod p, so plain integers give residue constants).
        """
        r = Fraction(r)
        if r == 0:
            return LocalFieldElement.zero(field)
        p = field.p
        if field.kind == "Qp":
            num, den = r.numerator, r.denominator
            vn = 0
            while num % p == 0:
                num //= p
                vn += 1
            vd = 0
            while den % p == 0:
                den //= p
                vd += 1
            val = vn - vd
            unit = num * pow(den, -1, p ** precision) % p ** precision
            return _qp_from_unit(field, val, unit, precision)
        # LaurentFp: constants only
        if r.denominator != 1:
            raise ValueError("only integers embed as F_p((T)) constants")
        c = r.numerator % p
        if c == 0:
            return LocalFieldElement.zero(field)
        return LocalFieldElement(field, 0,
                                 (c,) + (0,) * (precision - 1))

    @staticmethod
    def from_laurent_coeffs(field: FieldSpec, coeffs: dict,
                            precision: int = DEFAULT_PRECISION,
                            ) -> "LocalFieldElement":
        """F_p((T)) element from {exponent: coefficient}."""
        if field.kind != "LaurentFp":
            raise ValueError("from_laurent_coeffs needs a LaurentFp field")
        nz = {e: c % field.p for e, c in coeffs.items() if c % field.p}
        if not nz:
            return LocalFieldElement.zero(field)
        val = min(nz)
        digits = [nz.get(val + i, 0) for i in range(precision)]
        return LocalFieldElement(field, val, tuple(digits))

    # -- inspection --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.valuation is INFINITE

    @property
    def precision(self) -> int:
        return len(self.digits)

    @property
    def known_to(self):
        """First uniformizer exponent at which the digit is unknown."""
        if self.is_zero:
            return INFINITE
        return self.valuation + self.precision

    def digit_at(self, exp: int) -> int:
        """Digit of pi^exp; raises Inexact beyond the known range."""
        if self.is_zero:
            return 0
        if exp < self.valuation:
            return 0
        if exp >= self.known_to:
            raise Inexact(f"digit at exponent {exp} beyond precision")
        return self.digits[exp - self.valuation]

    def norm(self) -> Fraction:
        if self.is_zero:
            return Fraction(0)
        return Fraction(self.field.q) ** (-self.valuation)

    def as_fraction(self) -> Fraction:
        """Exact rational value of the truncated representative (Qp only)."""
        if self.field.kind != "Qp":
            raise ValueError("as_fraction is only defined over Qp")
        if self.is_zero:
            return Fraction(0)
        return Fraction(self._unit) * Fraction(self.field.p) ** self.valuation

    # -- arithmetic --------------------------------------------------------

    @cached_property
    def _unit(self) -> int:
        """sum d_i p^i over the digits; Q_p elements built from a unit
        integer carry it from construction (see ``_qp_from_unit``)."""
        p = self.field.p
        return sum(d * p ** i for i, d in enumerate(self.digits))

    def _check_same_field(self, other):
        if self.field != other.field:
            raise ValueError("operands live in different fields")

    def __neg__(self):
        if self.is_zero:
            return self
        p = self.field.p
        if self.field.kind == "Qp":
            u = (-self._unit) % p ** self.precision
            return _qp_from_unit(self.field, self.valuation, u,
                                 self.precision)
        return LocalFieldElement(self.field, self.valuation,
                                 tuple((-d) % p for d in self.digits))

    def __add__(self, other):
        self._check_same_field(other)
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        p = self.field.p
        v = min(self.valuation, other.valuation)
        known = min(self.known_to, other.known_to)
        width = known - v
        if width <= 0:
            raise Inexact("no overlapping known digits")
        if self.field.kind == "Qp":
            s = (self._unit * p ** (self.valuation - v)
                 + other._unit * p ** (other.valuation - v))
            s %= p ** width
            if s == 0:
                raise Inexact("sum indistinguishable from zero "
                              "at current precision")
            return _qp_from_unit_shifted(self.field, v, s, width)
        digits = [0] * width
        for i, d in enumerate(self.digits):
            j = self.valuation - v + i
            if j < width:
                digits[j] = (digits[j] + d) % p
        for i, d in enumerate(other.digits):
            j = other.valuation - v + i
            if j < width:
                digits[j] = (digits[j] + d) % p
        if not any(digits):
            raise Inexact("sum indistinguishable from zero "
                          "at current precision")
        return LocalFieldElement.from_digits(self.field, v, digits)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check_same_field(other)
        if self.is_zero or other.is_zero:
            return LocalFieldElement.zero(self.field)
        p = self.field.p
        prec = min(self.precision, other.precision)
        val = self.valuation + other.valuation
        if self.field.kind == "Qp":
            u = self._unit * other._unit % p ** prec
            return _qp_from_unit(self.field, val, u, prec)
        digits = [0] * prec
        for i, a in enumerate(self.digits[:prec]):
            if a == 0:
                continue
            for j, b in enumerate(other.digits[:prec - i]):
                digits[i + j] = (digits[i + j] + a * b) % p
        return LocalFieldElement(self.field, val, tuple(digits))

    def __truediv__(self, other):
        self._check_same_field(other)
        if other.is_zero:
            raise ZeroDivisionError("division by zero field element")
        if self.is_zero:
            return self
        p = self.field.p
        prec = min(self.precision, other.precision)
        val = self.valuation - other.valuation
        if self.field.kind == "Qp":
            inv = pow(other._unit % p ** prec, -1, p ** prec)
            u = self._unit * inv % p ** prec
            return _qp_from_unit(self.field, val, u, prec)
        a, b = self.digits, other.digits
        inv0 = pow(b[0], -1, p)
        out = []
        for k in range(prec):
            acc = a[k] if k < len(a) else 0
            for j in range(k):
                acc -= out[j] * (b[k - j] if k - j < len(b) else 0)
            out.append(acc * inv0 % p)
        return LocalFieldElement(self.field, val, tuple(out))

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        val = "inf" if self.is_zero else self.valuation
        return {"field": self.field.to_json(), "val": val,
                "digits": list(self.digits)}

    @staticmethod
    def from_json(obj: dict) -> "LocalFieldElement":
        """Inverse of ``to_json``: an object with a field object, ``val``
        an int, ``"inf"`` or null (zero), and ``digits`` a list of int
        digits in 0..p-1.  Anything else raises ValueError naming the
        first faulty field."""
        if type(obj) is not dict:
            raise ValueError(f"a field element is a JSON object, not "
                             f"{reprlib.repr(obj)}")
        for key in ("field", "val", "digits"):
            if key not in obj:
                raise ValueError(f"field element has no {key!r}")
        try:
            fld = FieldSpec.from_json(obj["field"])
        except (KeyError, TypeError):
            raise ValueError(f"bad element field "
                             f"{reprlib.repr(obj['field'])}") from None
        val, digits = obj["val"], obj["digits"]
        if type(val) is not int and val not in ("inf", None):
            raise ValueError(f"element val must be an int, \"inf\" or null, "
                             f"not {reprlib.repr(val)}")
        if type(val) is int and abs(val) > _max_valuation(fld.p):
            raise ValueError(f"element val must lie within "
                             f"+-{_max_valuation(fld.p)} for p = {fld.p}, "
                             f"so that its norm prints")
        if type(digits) is not list:
            raise ValueError(f"element digits must be a list, not "
                             f"{reprlib.repr(digits)}")
        for d in digits:
            if type(d) is not int or not 0 <= d < fld.p:
                raise ValueError(f"element digit {reprlib.repr(d)} is not an "
                                 f"int in 0..{fld.p - 1}")
        if val in ("inf", None):
            return LocalFieldElement.zero(fld)
        return LocalFieldElement.from_digits(fld, val, digits)

    def __repr__(self):
        if self.is_zero:
            return f"0 ({self.field.kind}, p={self.field.p})"
        pi = "T" if self.field.kind == "LaurentFp" else str(self.field.p)
        head = ",".join(str(d) for d in self.digits[:6])
        tail = ".." if self.precision > 6 else ""
        return f"({head}{tail})*{pi}^{self.valuation}"


def _qp_from_unit(field, val, unit, prec):
    """The Q_p element p^val * unit, for a unit 0 < unit < p^prec prime to
    p; it keeps ``unit``, so products never rebuild it from the digits."""
    p = field.p
    digits = []
    u = unit
    for _ in range(prec):
        digits.append(u % p)
        u //= p
    out = LocalFieldElement(field, val, tuple(digits))
    out.__dict__["_unit"] = unit
    return out


def _qp_from_unit_shifted(field, val, s, width):
    """Integer s known mod p^width at base valuation val; normalize."""
    p = field.p
    shift = 0
    while s % p == 0:
        s //= p
        shift += 1
    return _qp_from_unit(field, val + shift, s, width - shift)


# -- module operations ------------------------------------------------------

def valuation_and_norm(x: LocalFieldElement):
    """(ord(x), |x|_K) with the zero convention (inf, 0)."""
    if x.is_zero:
        return INFINITE, Fraction(0)
    return x.valuation, x.norm()


def field_arith(a: LocalFieldElement, b: LocalFieldElement, op: str,
                ) -> LocalFieldElement:
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        return a / b
    raise ValueError(f"unknown operation {op!r}")


def char_fraction(x: LocalFieldElement) -> Fraction:
    """r in [0,1) with chi(x) = exp(2 pi i r) for the standard character.

    Over Q_p this is the p-adic fractional part; over F_p((T)) it is
    (coefficient of T^-1)/p.  Requires every negative-exponent digit of x
    to be resolved.
    """
    if x.is_zero:
        return Fraction(0)
    if x.field.kind == "Qp":
        if x.valuation >= 0:
            return Fraction(0)
        if x.known_to < 0:
            raise Inexact("negative-exponent digits not fully resolved")
        # sum_{v <= j < 0} d_j p^j = (the unit's first -v digits) / p^-v
        pk = x.field.p ** -x.valuation
        return Fraction(x._unit % pk, pk)
    if x.valuation > -1:
        return Fraction(0)
    if x.known_to <= -1:
        raise Inexact("coefficient of T^-1 not resolved")
    return Fraction(x.digit_at(-1), x.field.p)


def char_fraction_of_rational(p: int, r) -> Fraction:
    """p-adic fractional part of an exact rational, reduced mod 1.

    Only the p-part of the denominator contributes; the prime-to-p part is
    inverted modulo the relevant p-power.
    """
    r = Fraction(r)
    den = r.denominator
    k = 0
    while den % p == 0:
        den //= p
        k += 1
    if k == 0:
        return Fraction(0)
    pk = p ** k
    num = r.numerator * pow(den, -1, pk)
    return Fraction(num % pk, pk)


def ball_measure(field: FieldSpec, radius_exp: int, n: int) -> Fraction:
    """Haar measure of an n-dimensional ball of radius q^radius_exp,
    wherever it is centred (the measure is translation invariant).

    Normalized so the unit polydisc has measure 1.
    """
    return Fraction(field.q) ** (radius_exp * n)


def sphere_measure(field: FieldSpec, radius_exp: int, n: int) -> Fraction:
    """Measure of the sphere ||x|| = q^radius_exp in K^n."""
    q = Fraction(field.q)
    return q ** (radius_exp * n) * (1 - q ** (-n))


@dataclass(frozen=True)
class FieldVector:
    """Point of K^n with the max-norm."""

    coords: tuple

    def __post_init__(self):
        if not self.coords:
            raise ValueError("empty vector")
        fld = self.coords[0].field
        if any(c.field != fld for c in self.coords):
            raise ValueError("mixed fields in vector")

    @property
    def field(self) -> FieldSpec:
        return self.coords[0].field

    @property
    def n(self) -> int:
        return len(self.coords)

    def norm(self) -> Fraction:
        return max(c.norm() for c in self.coords)

    def ord(self):
        return min((c.valuation for c in self.coords),
                   default=INFINITE)

    def to_json(self) -> dict:
        return {"coords": [c.to_json() for c in self.coords]}

    @staticmethod
    def from_json(obj: dict) -> "FieldVector":
        """Inverse of ``to_json``: an object whose ``coords`` is a nonempty
        list of field elements of one field.  Anything else raises
        ValueError naming the first faulty field."""
        if type(obj) is not dict or "coords" not in obj:
            raise ValueError(f"a field vector is a JSON object with "
                             f"coords, not {reprlib.repr(obj)}")
        coords = obj["coords"]
        if type(coords) is not list:
            raise ValueError(f"vector coords must be a list, not "
                             f"{reprlib.repr(coords)}")
        out = []
        for i, c in enumerate(coords):
            try:
                out.append(LocalFieldElement.from_json(c))
            except ValueError as err:
                raise ValueError(f"vector coordinate {i}: {err}") from None
        return FieldVector(tuple(out))
