"""Finite-precision arithmetic in Q_p and F_p((T)).

Elements are truncated uniformizer expansions ``pi^v * (d_0 + d_1 pi + ...)``
with ``d_0 != 0``; the digit count is the precision.  All valuations, norms
and additive-character values are exact rationals.

Everything the other layers do differently on the two fields goes through
``FieldSpec.ops``, one small object per field kind (``_QpOps``,
``_LaurentOps``): axis tables, coordinates and characters of coset grids,
the grid transform kernel, orders of integers, and the order kernel
``poly_ords``, which gives the order of a polynomial, capped, at every
point of an integer array at once.  A point of R_K^n whose digits below
pi^k are known is a vector of integers on both fields: sum d_i p^i is the
p-adic integer over Q_p and d_0 + d_1 T + ... over F_p((T)).
"""

from __future__ import annotations

import cmath
import math
import reprlib
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import BudgetExceeded, Inexact, UnsupportedPolynomial

DEFAULT_PRECISION = 32

#: valuation assigned to the zero element
INFINITE = math.inf


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

#: Miller-Rabin with the bases _SMALL_PRIMES is exact below this bound
#: (Sorenson and Webster, Math. Comp. 86, 2017); larger p are refused.
_PRIME_TEST_BOUND = 3_317_044_064_679_887_385_961_981

#: a norm q^-val, or any Fraction over a power of p, prints in decimal; its
#: power of p may have at most this many digits, 300 under the interpreter's
#: limit on printing an int (4,300 unless PYTHONINTMAXSTRDIGITS lowers it)
#: and never more than 4,000, so that a raised limit changes no result
MAX_PRINT_DIGITS = min(4000, (sys.get_int_max_str_digits() or 4300) - 300)

#: most digits an element read by ``from_json`` may carry: F_p((T))
#: division, the slowest element operation, is quadratic in the digits,
#: and took 0.18 s at this bound (0.76 s at 4,000 digits, from the CLI on
#: a 2-vCPU Xeon)
MAX_ELEMENT_DIGITS = 2000


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
    """Largest |val| whose norm p^-val prints in MAX_PRINT_DIGITS digits."""
    return int(MAX_PRINT_DIGITS / math.log10(p))


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

    @cached_property
    def ops(self):
        """The operations that differ between Q_p and F_p((T))."""
        return _field_ops(self)

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
            val = p_adic_ord(p, r)
            num = r.numerator // p ** max(val, 0)
            den = r.denominator // p ** max(-val, 0)
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
        digits = [(self.digit_at(e) + other.digit_at(e)) % p
                  for e in range(v, known)]
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
        return LocalFieldElement(self.field, val, tuple(
            fpt_mul(self.digits, other.digits, p, prec)))

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
        first faulty field; more than MAX_ELEMENT_DIGITS digits raise
        BudgetExceeded before any is read."""
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
        if len(digits) > MAX_ELEMENT_DIGITS:
            raise BudgetExceeded(f"an element of {len(digits)} digits "
                                 f"exceeds the budget of "
                                 f"{MAX_ELEMENT_DIGITS} digits")
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
    out = LocalFieldElement(field, val, tuple(digits_of(unit, field.p, prec)))
    out.__dict__["_unit"] = unit
    return out


def _qp_from_unit_shifted(field, val, s, width):
    """Integer s known mod p^width at base valuation val; normalize."""
    shift = p_adic_ord(field.p, s)
    return _qp_from_unit(field, val + shift, s // field.p ** shift,
                         width - shift)


# -- module operations ------------------------------------------------------

def p_adic_ord(p: int, x):
    """ord_p of an int or a Fraction, None at 0."""
    if x == 0:
        return None
    if type(x) is Fraction:
        return p_adic_ord(p, x.numerator) - p_adic_ord(p, x.denominator)
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def digits_of(i: int, p: int, width: int) -> list:
    """The base-p digits of i at places 0..width-1, least significant
    first."""
    out = []
    for _ in range(width):
        out.append(i % p)
        i //= p
    return out


def index_digits(idx, p: int, width: int) -> np.ndarray:
    """out[..., t]: the base-p digit t, least significant first, of every
    integer 0 <= i < p^width of the array idx; ``digits_of`` on arrays."""
    idx = np.asarray(idx, dtype=np.int64)
    out = np.empty(idx.shape + (width,), dtype=np.min_scalar_type(p))
    for t in range(width):
        out[..., t] = idx % p
        idx = idx // p
    return out


def fpt_mul(a, b, p: int, trunc: int) -> list:
    """a * b in F_p[T] / T^trunc for digit sequences a and b (the
    coefficient of T^i at i): the trunc digits of the product."""
    out = [0] * trunc
    for i, ai in enumerate(a[:trunc]):
        if ai:
            for j, bj in enumerate(b[:trunc - i]):
                out[i + j] += ai * bj
    return [d % p for d in out]


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
    k = p_adic_ord(p, r.denominator)
    if k == 0:
        return Fraction(0)
    pk = p ** k
    num = r.numerator * pow(r.denominator // pk, -1, pk)
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


# -- what differs between the two fields ---------------------------------------

#: the sentinel norm exponent of an axis's zero representative
ZERO_SENTINEL = -(10 ** 9)


@lru_cache(maxsize=None)
def _axis_norm_exps(p: int, L: int, m: int):
    """norm exponent f with |rep_i| = q^f per axis index of a grid with
    support exponent L and resolution m, the same on both fields; the
    sentinel at the zero representative: |i / p^L| = p^(ord_p i - L)."""
    # uncached: the table cache holds only tables of at most 2^16 entries
    out = L - _ord_table.__wrapped__(p, L + m).astype(np.int64)
    out[0] = ZERO_SENTINEL
    return out


@lru_cache(maxsize=None)
def _field_ops(field):
    return (_QpOps if field.kind == "Qp" else _LaurentOps)(field)


class _FieldOps:
    """Operations on coset grids, integers and polynomials that differ
    between the two fields, reached as ``FieldSpec.ops``.

    A coset grid with support exponent L and resolution m indexes the
    representatives of pi^{-L} R_K / pi^m R_K on each axis by
    sum_t d_t p^t over their digits d_t at exponent t - L.
    """

    def __init__(self, field):
        self.field = field
        self.p = field.p

    def norm_exps(self, L: int, m: int):
        return _axis_norm_exps(self.p, L, m)

    def coord_norm(self, c) -> Fraction:
        """|c|, reading a plain rational as ``coord_index`` does."""
        if not isinstance(c, LocalFieldElement):
            c = self._read_rational(c, 1)
        return c.norm()

    def coord_index(self, c, L: int, m: int):
        """Axis index of the coset containing c; None outside B_L."""
        if not isinstance(c, LocalFieldElement):
            c = self._read_rational(c, L + m)
        if c.is_zero:
            return 0
        if c.valuation < -L:
            return None
        if c.known_to < m:
            raise Inexact("coordinate not resolved to the grid resolution")
        return c._unit * self.p ** (c.valuation + L) % self.p ** (L + m)


class _QpOps(_FieldOps):
    """Q_p: an axis index or a cell is a p-adic integer, so negation
    carries, and the transform is one DFT of Z/q^{L+m} per axis."""

    def int_ord(self, c: int):
        """Order of the integer c in Q_p: v_p(c), None at 0."""
        return p_adic_ord(self.p, c)

    def poly_ords(self, f, points, cap: int) -> np.ndarray:
        """ord f(x), capped at cap, at every column x of the (n, N) integer
        array ``points``: f evaluated mod p^cap, on int64 residues while
        p^cap <= _INT64_MODULUS and on Python ints past it."""
        p = self.p
        M = p ** cap
        x = np.asarray(points)
        if M > _INT64_MODULUS:
            x = x.astype(object) % M
        elif x.dtype == object:
            x = (x % M).astype(np.int64)
        elif x.size and (x.min() < 0 or x.max() >= M):
            x = _mod(x, M)
        return _residue_ords(_poly_residues(f, x, M), p, cap)

    def _read_rational(self, c, width):
        # precision width reaches the grid resolution inside B_L
        return LocalFieldElement.from_rational(self.field, c, max(width, 1))

    @lru_cache(maxsize=None)
    def negation(self, L: int, m: int):
        Q = self.p ** (L + m)
        return (-np.arange(Q, dtype=np.int64)) % Q

    def char_weights(self, c, L: int, m: int) -> np.ndarray:
        """chi(-rep_i * c) for every axis representative (exact
        exponents)."""
        q = self.p
        Q = q ** (L + m)
        idx = np.arange(Q, dtype=np.int64)
        if isinstance(c, LocalFieldElement):
            if not c.is_zero and c.known_to < L:
                raise Inexact("xi0 digits unresolved at the grid scale")
            cf = c.as_fraction()
        else:
            cf = Fraction(c)
        # -rep_i * c = -i * cf / q^L = N_i / (q^K u), u a unit mod q; its
        # fractional part is r_i / q^K, r_i = N_i u^{-1} mod q^K exactly
        K = L + p_adic_ord(q, cf.denominator)
        u = cf.denominator // q ** (K - L)
        qK = q ** K
        t = -cf.numerator * pow(u, -1, qK) % qK
        if Q * qK > 2 ** 53:
            idx = idx.astype(object)  # Python ints, exact at any size
        # both correctly rounded: each r_i / q^K is float(Fraction(r_i, q^K))
        frac = (idx * t % qK / qK).tolist()
        return np.array([cmath.exp(2j * math.pi * x) for x in frac],
                        dtype=complex)

    def transform(self, v: np.ndarray, width: int, scale: float, owned: bool,
                  inverse: bool) -> np.ndarray:
        """The grid transform as one ``np.fft.fftn`` (``ifftn`` with
        ``inverse``) over every axis, into v itself when ``owned``."""
        dtype = np.result_type(v.dtype, np.complex64)  # that of np.fft.fftn
        if v.ndim:
            out = v if owned and v.dtype == dtype \
                else np.empty(v.shape, dtype)
            if inverse:
                np.fft.ifftn(v, out=out, norm="forward")  # unscaled
            else:
                np.fft.fftn(v, out=out)
        else:
            out = np.array(v, dtype)  # fftn over no axes returns its input
        out *= scale
        return out

    def scaled_terms(self, h, D: int):
        """(terms, shift) with h(X / p^D) = sum c X^e / p^shift over the
        (c, e) in terms, for every integer vector X: each coefficient
        carries p^{D (deg h - |e|)}, and shift = D deg h."""
        deg = h.degree()
        return tuple((c * self.p ** (D * (deg - sum(e))), e)
                     for e, c in h.terms), D * deg

    def centre_ord(self, scaled, X):
        """ord_p h(X / p^D), None at a zero, from ``scaled_terms(h, D)``:
        the order of one integer numerator, with no rational arithmetic."""
        terms, shift = scaled
        acc = 0
        for c, e in terms:
            for x, k in zip(X, e):
                if k:
                    c *= x ** k
            acc += c
        v = p_adic_ord(self.p, acc)
        return None if v is None else v - shift


#: Q_p residues mod M are int64 up to this modulus: a product of two is
#: below 2^62, so it can be reduced before anything can wrap
_INT64_MODULUS = 2 ** 31

#: points per call of the order kernel ``poly_ords``: its callers pass at
#: most this many, and the F_p((T)) kernel, whose arrays have a row per
#: power of T, takes KERNEL_BLOCK // cap at a time.  On 2^16 the Q_3 brute
#: count of x1^2+x1*x2+x2^3 at K = 4 (3^10 points) ran 3.4x slower and at
#: K = 7 kept 4 MiB more; 2^12 was 1.6x slower at K = 7.
KERNEL_BLOCK = 2 ** 13


def _poly_residues(f, x, M):
    """f(x) mod M at every column of x, an (n, N) array of residues mod M.

    Every product is reduced mod M, unless no term of f, times its
    coefficient and summed over the terms, can reach 2^63 before the one
    reduction at the end.  Skipping the reductions took the Q_3 brute
    counts of x1^2+x1*x2+x2^3 from 1.6 to 1.1 ms at K = 4 and from 1.0
    to 0.7 s at K = 7.
    """
    lazy = x.dtype != object and \
        len(f.terms) * M ** (f.degree() + 1) < 2 ** 63
    mul = (lambda a, b: a * b) if lazy else (lambda a, b: _mod(a * b, M))
    acc = np.zeros(x.shape[1], x.dtype)
    for c, t in _monomials(f.terms, x, mul):
        c %= M
        acc += c if t is None else t if c == 1 else mul(c, t)
    return _mod(acc, M)


def _mod(a, M):
    """a mod M as a - (a // M) M, which numpy runs about twice as fast as
    % on int64."""
    r = a // M
    r *= M
    return a - r


def _monomials(terms, coords, mul):
    """(c, x^e) for every term c x^e, with x^e None for the constant term:
    products by ``mul``, each power of a coordinate built once, from the
    one below it."""
    powers = [[x] for x in coords]  # powers[i][e - 1] = x_i^e
    for exps, c in terms:
        t = None
        for pw, e in zip(powers, exps):
            if e:
                while len(pw) < e:
                    pw.append(mul(pw[-1], pw[0]))
                t = pw[e - 1] if t is None else mul(t, pw[e - 1])
        yield c, t


def _residue_ords(v, p, cap):
    """ord_p of every residue v mod p^cap, with cap at 0: the low c digits
    give the order by a table lookup, and only the residues whose low c
    digits all vanish go on to the next c digits."""
    c = 1
    while c < cap and p ** (c + 1) <= _ORD_TABLE_SIZE:
        c += 1
    low = v if c == cap else _mod(v, p ** c)
    if low.dtype == object:
        low = low.astype(np.int64)
    ords = (_ord_table(p, c)[low] if p ** c <= _ORD_TABLE_SIZE
            else low == 0).astype(np.int64)  # c = 1: the table of 0 and 1
    if c < cap:
        deep = np.flatnonzero(low == 0)
        if len(deep):
            ords[deep] += _residue_ords(v[deep] // p ** c, p, cap - c)
    return ords


# the residue-order table of _residue_ords has at most this many entries
_ORD_TABLE_SIZE = 2 ** 16


@lru_cache(maxsize=None)
def _ord_table(p: int, c: int) -> np.ndarray:
    """ord_p of every residue mod p^c, with c at 0 (c <= 16)."""
    r = np.arange(p ** c, dtype=np.int64)
    out = np.zeros(p ** c, np.int8)
    out[0] = c
    pk = p
    for _ in range(1, c):
        out[1:] += r[1:] % pk == 0
        pk *= p
    out.setflags(write=False)
    return out


class _LaurentOps(_FieldOps):
    """F_p((T)): an axis index or a cell is a digit vector, so negation is
    digitwise, with no carry, and the transform is a tensor power of
    p-point DFTs."""

    def int_ord(self, c: int):
        """Order of the integer c in F_p((T)), where p = 0: 0, or None
        when p divides c."""
        return 0 if c % self.p else None

    def poly_ords(self, f, points, cap: int) -> np.ndarray:
        """ord f(x), capped at cap, at every column x of the (n, N) array
        ``points`` of digit-encoded integers: f evaluated over
        F_p[T] / T^cap on digit arrays, one row per power of T.  Points
        are taken KERNEL_BLOCK // cap at a time, which bounds every array
        the products build."""
        p = self.p
        x = np.asarray(points)
        step = max(1, KERNEL_BLOCK // cap)
        if x.shape[1] > step:
            return np.concatenate([
                self.poly_ords(f, x[:, lo:lo + step], cap)
                for lo in range(0, x.shape[1], step)])
        terms = [(e, c % p) for e, c in f.terms if c % p]
        # digits are reduced mod p after every product, which sums at most
        # cap products of two digits; Python ints where the terms' sum of
        # such digits could pass 2^63
        dt = np.int64 if len(terms) * cap * (p - 1) ** 2 < 2 ** 63 \
            else object
        # row cap is a unit that no term reaches: the first nonzero row
        # of every column is its capped order
        acc = np.zeros((cap + 1, x.shape[1]), dt)
        acc[cap] = 1
        digits = _digit_rows(x, p, cap).astype(dt, copy=False)
        for c, t in _monomials(
                terms, digits, lambda a, b: _mod(_trunc_mul(a, b, cap), p)):
            if t is None:
                acc[0] += c
            else:
                acc[:len(t)] += t if c == 1 else c * t
        return (acc % p != 0).argmax(axis=0)

    def _read_rational(self, c, width):
        raise TypeError("plain rationals only index Q_p grids")

    @lru_cache(maxsize=None)
    def negation(self, L: int, m: int):
        # digitwise negation: -d_t mod p at every place p^t
        p, width = self.p, L + m
        digits = index_digits(np.arange(p ** width), p, width)
        return (p - digits) % p @ _place_values(p, width)

    def char_weights(self, c, L: int, m: int) -> np.ndarray:
        """chi(-rep_i * c) for every axis representative (exact
        exponents)."""
        if not isinstance(c, LocalFieldElement):
            raise TypeError("Laurent grids need LocalFieldElement "
                            "coordinates")
        if not c.is_zero and c.known_to < L:
            raise Inexact("xi0 digits unresolved at the grid scale")
        q, width = self.p, L + m
        # the pairing of digit t of rep_i with the digit of c at L-1-t, mod
        # q; every L-1-t is below L, so below c.known_to
        acc = index_digits(np.arange(q ** width), q, width) @ np.array(
            [c.digit_at(L - 1 - t) for t in range(width)], dtype=np.int64)
        roots = np.array([cmath.exp(-2j * math.pi * a / q) for a in range(q)])
        return roots[acc % q]

    def transform(self, v: np.ndarray, width: int, scale: float, owned: bool,
                  inverse: bool) -> np.ndarray:
        """The grid transform over all D = n * width digits at once.

        The pairing of x and xi on one axis is the digit sum
        sum_t x_t xi_{width-1-t} mod p, so the transform is F_p^{tensor D}
        on the flat index followed by a digit reversal on every axis.
        F_p^{tensor D} runs as one GEMM per group of c digits, where
        p^c <= _GROUP_CELLS: x.reshape(P, N/P).T @ M transforms the top c
        digits and rotates them to the bottom, so after all groups every
        digit is back in place.
        """
        p, n = self.p, v.ndim
        digits = n * width
        if digits == 0:
            return np.asarray(v * scale)  # an array even when n = 0
        c = 1
        while p ** (c + 1) <= _GROUP_CELLS:
            c += 1
        x = v
        done = 0
        while done < digits:
            k = min(c, digits - done)
            mat = _digit_group_matrix(p, k, inverse)
            if done == 0:
                mat = mat * scale
            x = x.reshape(p ** k, -1).T @ mat
            done += k
        x = x.reshape(v.shape)
        rev = _digit_reversal(p, width)
        for ax in range(n):
            x = np.take(x, rev, axis=ax)
        return x

    def scaled_terms(self, h, D: int):
        raise UnsupportedPolynomial(
            "general polynomial symbols are implemented over Q_p")


def _digit_rows(x, p, cap):
    """digits[i, t] = the digit at T^t of every x[i], t below cap and below
    the top digit of max x (at least one row)."""
    top = int(x.max()) if x.size else 0
    rows = 1
    while rows < cap and p ** rows <= top:
        rows += 1
    return x[:, None, :] // _place_values(p, rows)[:, None] % p


@lru_cache(maxsize=None)
def _place_values(p: int, rows: int) -> np.ndarray:
    """p^t for t below rows, in Python ints once p^(rows-1) passes int64."""
    return np.array([p ** t for t in range(rows)],
                    dtype=object if p ** (rows - 1) >= 2 ** 63 else np.int64)


def _trunc_mul(a, b, cap):
    """a * b mod T^cap for digit arrays a, b (rows = powers of T), with no
    reduction of the digits: out[k] = sum_i a[i] b[k - i], one einsum over
    the windows of b, zero-padded above, read backwards."""
    ra = len(a)
    rows = min(cap, ra + len(b) - 1)
    pad = np.zeros((rows + ra - 1, a.shape[1]), a.dtype)
    pad[ra - 1:ra - 1 + min(len(b), rows)] = b[:rows]
    s0, s1 = pad.strides
    # windows[k, i'] = pad[k + i'] = b[k - (ra - 1 - i')]
    windows = as_strided(pad, (rows, ra, a.shape[1]), (s0, s0, s1),
                         writeable=False)
    return np.einsum("kin,in->kn", windows, a[::-1])


# F_p^{tensor c} runs fastest on one BLAS thread for p^c <= 16
_GROUP_CELLS = 16


@lru_cache(maxsize=None)
def _digit_group_matrix(p: int, c: int, inverse=False) -> np.ndarray:
    """F_p^{tensor c}: entry (a, b) is exp(-2 pi i e / p) with the exact
    integer e = sum_t a_t b_t mod p over the base-p digits of a and b;
    with ``inverse`` its conjugate, exp(2 pi i e / p)."""
    d = index_digits(np.arange(p ** c), p, c).astype(np.int64)
    e = d @ d.T
    k = np.arange(p)
    half = np.minimum(k, p - k)
    # conjugate pairs come out exactly conjugate, and p = 2 gives exactly -1,
    # so the conjugate is the root of -e, and at p = 2 the same matrix
    roots = np.cos(2 * np.pi * half / p) \
        - 1j * np.sign(p - 2 * k) * np.sin(2 * np.pi * half / p)
    out = roots[(-e if inverse else e) % p]
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def _digit_reversal(p: int, width: int) -> np.ndarray:
    """Index whose base-p digits are those of i in reverse order."""
    out = index_digits(np.arange(p ** width), p, width) \
        @ _place_values(p, width)[::-1]
    out.setflags(write=False)
    return out
