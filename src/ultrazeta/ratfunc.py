"""Exact rational functions in t = q^{-s} and Laurent expansions in s.

Every coefficient is an ``int`` or a ``Fraction``: a float or complex one
is refused with ``TypeError``.  Floats enter only when a function is
evaluated (``eval_t``, ``eval_s``) and when a Laurent coefficient is
turned into a number (``coefficient_value``, ``evaluate_partial``).

Around an integer center s0, t = t0 e^{-u} with t0 = q^{-s0} and
u = lambda (s - s0), lambda = ln q.  So R(q^{-s}) is a Laurent series
sum_k g_k u^k with rational g_k, and the coefficient of (s - s0)^k is the
single term g_k lambda^k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import AmbiguousSolution, NoSolution


class Poly:
    """Dense univariate polynomial with int or Fraction coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = list(coeffs)
        for c in cs:
            if not isinstance(c, (int, Fraction)):
                raise TypeError(f"polynomial coefficients are exact: "
                                f"{c!r} is a {type(c).__name__}")
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = cs

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, k):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0

    def __eq__(self, other):
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([self[k] + other[k] for k in range(n)])

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if self.is_zero or other.is_zero:
            return Poly([])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly(out)

    def scale(self, c) -> "Poly":
        return Poly([c * a for a in self.coeffs])

    def divmod(self, other):
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(other.coeffs) - 1
        lead = other.coeffs[-1]
        quot = [0] * max(0, len(rem) - dq)
        while len(rem) - 1 >= dq and rem:
            c = Fraction(rem[-1]) / lead
            k = len(rem) - 1 - dq
            quot[k] = c
            for j in range(len(other.coeffs)):
                rem[k + j] = rem[k + j] - c * other.coeffs[j]
            while rem and rem[-1] == 0:
                rem.pop()
        return Poly(quot), Poly(rem)

    def eval(self, t):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def compose_shift(self, t0) -> "Poly":
        """Coefficients of P(t0 + u) as a polynomial in u (Horner)."""
        out = Poly([])
        for c in reversed(self.coeffs):
            out = out * Poly([t0, 1]) + Poly([c])
        return out

    def compose_scale(self, c) -> "Poly":
        """P(c*t)."""
        out, ck = [], 1
        for a in self.coeffs:
            out.append(a * ck)
            ck = ck * c
        return Poly(out)

    def __repr__(self):
        return f"Poly({self.coeffs})"


def _poly_gcd(a: Poly, b: Poly) -> Poly:
    while not b.is_zero:
        _, r = a.divmod(b)
        a, b = b, r
    if a.is_zero:
        return a
    lead = a.coeffs[-1]
    return a.scale(Fraction(1, 1) / lead)


@dataclass(frozen=True)
class RationalFunctionT:
    """Reduced fraction num/den in t, with a monic denominator, tagged
    with the residue cardinality q."""

    num: Poly
    den: Poly
    q: int

    @staticmethod
    def make(num: Poly, den: Poly, q: int) -> "RationalFunctionT":
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        num = Poly([Fraction(c) for c in num.coeffs])
        den = Poly([Fraction(c) for c in den.coeffs])
        g = _poly_gcd(num, den)
        if g.degree() > 0:
            num, _ = num.divmod(g)
            den, _ = den.divmod(g)
        inv = 1 / den.coeffs[-1]
        return RationalFunctionT(num.scale(inv), den.scale(inv), q)

    @staticmethod
    def from_coeffs(num, den, q) -> "RationalFunctionT":
        return RationalFunctionT.make(Poly(num), Poly(den), q)

    @staticmethod
    def const(c, q) -> "RationalFunctionT":
        return RationalFunctionT.make(Poly([c]), Poly([1]), q)

    @property
    def is_polynomial(self) -> bool:
        return self.den.degree() == 0

    def _check(self, other):
        if self.q != other.q:
            raise ValueError("rational functions carry different q")

    def __add__(self, other):
        self._check(other)
        return RationalFunctionT.make(self.num * other.den
                                      + other.num * self.den,
                                      self.den * other.den, self.q)

    def __sub__(self, other):
        self._check(other)
        return RationalFunctionT.make(self.num * other.den
                                      - other.num * self.den,
                                      self.den * other.den, self.q)

    def __mul__(self, other):
        self._check(other)
        return RationalFunctionT.make(self.num * other.num,
                                      self.den * other.den, self.q)

    def __truediv__(self, other):
        self._check(other)
        if other.num.is_zero:
            raise ZeroDivisionError("division by the zero function")
        return RationalFunctionT.make(self.num * other.den,
                                      self.den * other.num, self.q)

    def __eq__(self, other):
        if not isinstance(other, RationalFunctionT):
            return NotImplemented
        return self.q == other.q and \
            (self.num * other.den) == (other.num * self.den)

    def eval_t(self, t):
        d = self.den.eval(t)
        if d == 0:
            raise ZeroDivisionError(f"pole at t = {t}")
        return self.num.eval(t) / d

    def eval_s(self, s):
        """Evaluate at t = q^{-s}."""
        if isinstance(s, int):
            return self.eval_t(Fraction(self.q) ** (-s))
        return self.eval_t(complex(self.q) ** (-complex(s)))

    def series(self, n_terms: int):
        """First n_terms power-series coefficients at t = 0 (den(0) != 0)."""
        d0 = self.den[0]
        if d0 == 0:
            raise ZeroDivisionError("series at a pole of the function")
        out = []
        for k in range(n_terms):
            acc = self.num[k]
            for j in range(1, min(k, self.den.degree()) + 1):
                acc = acc - self.den[j] * out[k - j]
            out.append(Fraction(acc) / d0)
        return out

    def substitute_shift(self, k: int) -> "RationalFunctionT":
        """R(t * q^{-k}), i.e. the substitution s -> s + k."""
        c = Fraction(self.q) ** (-k)
        return RationalFunctionT.make(self.num.compose_scale(c),
                                      self.den.compose_scale(c), self.q)

    def to_json(self):
        return {"q": self.q,
                "num": [str(c) for c in self.num.coeffs],
                "den": [str(c) for c in self.den.coeffs]}

    def __repr__(self):
        return f"({self.num.coeffs})/({self.den.coeffs}) over q={self.q}"


def rf_arith(a: RationalFunctionT, b: RationalFunctionT, op: str,
             ) -> RationalFunctionT:
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        return a / b
    raise ValueError(f"unknown operation {op!r}")


# -- rational reconstruction -------------------------------------------------

def solve_exact(rows, rhs):
    """Gaussian elimination over Fractions.

    Returns (solution, determined) or (None, True) when inconsistent;
    underdetermined systems get free variables pinned to zero.
    """
    m, n = len(rows), len(rows[0]) if rows else 0
    a = [[Fraction(x) for x in row] + [Fraction(rhs[i])]
         for i, row in enumerate(rows)]
    piv_cols = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(m):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        piv_cols.append(c)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if a[i][n] != 0:
            return None, True  # inconsistent
    sol = [Fraction(0)] * n
    for i, c in enumerate(piv_cols):
        sol[c] = a[i][n]
    return sol, len(piv_cols) == n


def reconstruct_from_series(series, deg_bounds, q: int,
                            ) -> RationalFunctionT:
    """Pade-style solve: the unique reduced rational function with
    deg num <= dn, deg den <= dd matching the series; re-verified against
    every supplied extra term.
    """
    dn, dd = deg_bounds
    series = [Fraction(c) for c in series]
    if len(series) < dn + dd + 1:
        raise NoSolution(f"need at least {dn + dd + 1} series terms")
    # denominator d with d_0 = 1 and (c * d)_k = 0 for dn < k <= dn + dd
    rows, rhs = [], []
    for k in range(dn + 1, dn + dd + 1):
        rows.append([series[k - j] if 0 <= k - j < len(series) else Fraction(0)
                     for j in range(1, dd + 1)])
        rhs.append(-series[k])
    determined = True
    if dd:
        sol, determined = solve_exact(rows, rhs)
        if sol is None:
            raise NoSolution("no denominator at the given degree bounds")
        den = Poly([Fraction(1)] + sol)
    else:
        den = Poly([Fraction(1)])
    num_coeffs = []
    for k in range(dn + 1):
        acc = Fraction(0)
        for j in range(min(k, den.degree()) + 1):
            acc += den[j] * series[k - j]
        num_coeffs.append(acc)
    cand = RationalFunctionT.make(Poly(num_coeffs), den, q)
    check = cand.series(len(series))
    if any(check[k] != series[k] for k in range(len(series))):
        if determined:
            # a matching function of these degrees would have solved
            raise NoSolution("no rational function at the degree bounds "
                             "matches the series")
        raise AmbiguousSolution("reconstruction fails held-out verification")
    return cand


# -- Laurent expansions ---------------------------------------------------------

@dataclass
class LaurentExpansion:
    """sum_k g_k lambda^k (s - center)^k, lambda = ln q, through some order.

    ``coefficients`` maps k to g_k: a Fraction from ``laurent_at``, or a
    complex number where a complex grid was contracted with exact tables.
    ``min_order`` is the lowest order with a nonzero coefficient (0 for
    the zero function); ``laurent_at`` reads it exactly, even below a
    truncation at a negative order.
    """

    center: int
    q: int
    coefficients: dict
    min_order: int

    def coefficient(self, k):
        """g_k: the coefficient of (s - center)^k is g_k lambda^k."""
        return self.coefficients.get(k, Fraction(0))

    def coefficient_value(self, k) -> complex:
        """The coefficient of (s - center)^k as a number, g_k (ln q)^k."""
        return complex(self.coefficient(k) * math.log(self.q) ** k)

    @property
    def pole_order(self) -> int:
        return max(0, -self.min_order)

    def evaluate_partial(self, s) -> complex:
        w = complex(s) - complex(self.center)
        acc = 0j
        for k in sorted(self.coefficients):
            acc += self.coefficient_value(k) * w ** k
        return acc


def _series_mul(a, b, depth):
    """The product of two power series, through u^depth."""
    return [sum(a[i] * b[k - i] for i in range(k + 1))
            for k in range(depth + 1)]


def _series_power(f, e: int, depth):
    """f^e through u^depth for f(0) = 1 and any integer e:
    k p_k = sum_{j=1..k} ((e + 1) j - k) f_j p_{k-j}."""
    p = [Fraction(1)]
    for k in range(1, depth + 1):
        p.append(sum(((e + 1) * j - k) * f[j] * p[k - j]
                     for j in range(1, k + 1)) / k)
    return p


def laurent_at(expr: RationalFunctionT, s0: int, max_order: int,
               ) -> LaurentExpansion:
    """Laurent expansion of expr(q^{-s}) around the integer s = s0, through
    (s - s0)^max_order.

    With x = t - t0, expr = x^o b(x) for a unit power series b, where o is
    the order of t0 as a root of the numerator less its order as a root of
    the denominator; o is the lowest order of the expansion.  Since
    x = t0 (e^{-u} - 1) = -t0 u F(u) with F(u) = sum_k (-u)^k / (k+1)!,
    the u-series is (-t0)^o u^o F(u)^o b(x(u)), all in Fractions.
    """
    if not isinstance(s0, int):
        raise TypeError(f"the center of a Laurent expansion is an integer, "
                        f"not {s0!r}")
    q = expr.q
    t0 = Fraction(q) ** (-s0)
    num = expr.num.compose_shift(t0)
    den = expr.den.compose_shift(t0)
    if num.is_zero:
        return LaurentExpansion(s0, q, {}, 0)
    a = next(k for k, c in enumerate(num.coeffs) if c != 0)
    m = next(k for k, c in enumerate(den.coeffs) if c != 0)
    lo = a - m
    depth = max_order - lo
    coeffs = {}
    if depth >= 0:
        F = [Fraction((-1) ** k, math.factorial(k + 1))
             for k in range(depth + 1)]
        x = [Fraction(0)] + [-t0 * c for c in F[:depth]]
        b = RationalFunctionT(Poly(num.coeffs[a:]), Poly(den.coeffs[m:]),
                              q).series(depth + 1)
        bx = [b[depth]] + [Fraction(0)] * depth
        for bk in reversed(b[:depth]):
            bx = _series_mul(bx, x, depth)
            bx[0] += bk
        unit = _series_mul(_series_power(F, lo, depth), bx, depth)
        scale = (-t0) ** lo
        coeffs = {lo + k: scale * c for k, c in enumerate(unit) if c != 0}
    return LaurentExpansion(s0, q, coeffs, lo)
