"""Exact rational functions in t = q^{-s} and Laurent expansions in s.

The expansion around an integer center s0 composes an exact (t - t0)
expansion with t - t0 = t0*(e^{-lambda w} - 1), w = s - s0, lambda = ln q.
For rational inputs every coefficient stays in Q[lambda, 1/lambda].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import AmbiguousSolution, NoSolution


def _is_exact_scalar(c) -> bool:
    return isinstance(c, (int, Fraction))


class Poly:
    """Dense univariate polynomial over Fraction or complex coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = list(coeffs)
        while cs and _is_zero_scalar(cs[-1]):
            cs.pop()
        self.coeffs = cs

    @staticmethod
    def const(c) -> "Poly":
        return Poly([c])

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_exact(self) -> bool:
        return all(_is_exact_scalar(c) for c in self.coeffs)

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
            if _is_zero_scalar(a):
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
            if _is_exact_scalar(rem[-1]) and _is_exact_scalar(lead):
                c = Fraction(rem[-1]) / Fraction(lead)
            else:
                c = rem[-1] / lead
            k = len(rem) - 1 - dq
            quot[k] = c
            for j in range(len(other.coeffs)):
                rem[k + j] = rem[k + j] - c * other.coeffs[j]
            while rem and _is_zero_scalar(rem[-1]):
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


def _is_zero_scalar(c, tol=0.0) -> bool:
    """c == 0 for an exact c, |c| <= tol for a float or complex one."""
    if isinstance(c, (int, Fraction)):
        return c == 0
    return abs(c) <= tol


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
    """Reduced fraction num/den in t, tagged with the residue cardinality q.

    Exact (Fraction) coefficients gcd-reduce; complex coefficients keep
    the fraction as constructed with a monic denominator.
    """

    num: Poly
    den: Poly
    q: int

    @staticmethod
    def make(num: Poly, den: Poly, q: int) -> "RationalFunctionT":
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        if num.is_exact and den.is_exact:
            num = Poly([Fraction(c) for c in num.coeffs])
            den = Poly([Fraction(c) for c in den.coeffs])
            g = _poly_gcd(num, den)
            if not g.is_zero and g.degree() > 0:
                num, _ = num.divmod(g)
                den, _ = den.divmod(g)
        lead = den.coeffs[-1]
        inv = Fraction(1, 1) / lead if _is_exact_scalar(lead) else 1.0 / lead
        return RationalFunctionT(num.scale(inv), den.scale(inv), q)

    @staticmethod
    def from_coeffs(num, den, q) -> "RationalFunctionT":
        return RationalFunctionT.make(Poly(num), Poly(den), q)

    @staticmethod
    def const(c, q) -> "RationalFunctionT":
        return RationalFunctionT.make(Poly([c]), Poly([1]), q)

    @property
    def is_exact(self) -> bool:
        return self.num.is_exact and self.den.is_exact

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
        if _is_zero_scalar(d):
            raise ZeroDivisionError(f"pole at t = {t}")
        return self.num.eval(t) / d

    def eval_s(self, s):
        """Evaluate at t = q^{-s}."""
        if isinstance(s, int) and self.is_exact:
            return self.eval_t(Fraction(self.q) ** (-s))
        return self.eval_t(complex(self.q) ** (-complex(s)))

    def series(self, n_terms: int):
        """First n_terms power-series coefficients at t = 0 (den(0) != 0)."""
        d0 = self.den[0]
        if _is_zero_scalar(d0):
            raise ZeroDivisionError("series at a pole of the function")
        out = []
        for k in range(n_terms):
            acc = self.num[k]
            for j in range(1, min(k, self.den.degree()) + 1):
                acc = acc - self.den[j] * out[k - j]
            if _is_exact_scalar(acc) and _is_exact_scalar(d0):
                out.append(Fraction(acc) / Fraction(d0))
            else:
                out.append(acc / d0)
        return out

    def substitute_shift(self, k: int) -> "RationalFunctionT":
        """R(t * q^{-k}), i.e. the substitution s -> s + k."""
        c = Fraction(self.q) ** (-k) if self.is_exact \
            else float(self.q) ** (-k)
        return RationalFunctionT.make(self.num.compose_scale(c),
                                      self.den.compose_scale(c), self.q)

    def to_json(self):
        return {"q": self.q,
                "num": [_scalar_json(c) for c in self.num.coeffs],
                "den": [_scalar_json(c) for c in self.den.coeffs]}

    def __repr__(self):
        return f"({self.num.coeffs})/({self.den.coeffs}) over q={self.q}"


def _scalar_json(c):
    if isinstance(c, Fraction):
        return str(c)
    if isinstance(c, int):
        return str(c)
    return {"re": c.real, "im": c.imag}


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


# -- coefficients in Q[lambda, 1/lambda] --------------------------------------

class LambdaPoly:
    """Laurent polynomial in lambda = ln q with Fraction coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {k: Fraction(v) for k, v in (terms or {}).items()
                      if v != 0}

    @staticmethod
    def const(c) -> "LambdaPoly":
        return LambdaPoly({0: Fraction(c)})

    @staticmethod
    def mono(c, k: int) -> "LambdaPoly":
        return LambdaPoly({k: Fraction(c)})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, Fraction(0)) + v
        return LambdaPoly(out)

    def __neg__(self):
        return LambdaPoly({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return LambdaPoly({k: v * other for k, v in self.terms.items()})
        out = {}
        for k1, v1 in self.terms.items():
            for k2, v2 in other.terms.items():
                k = k1 + k2
                out[k] = out.get(k, Fraction(0)) + v1 * v2
        return LambdaPoly(out)

    __rmul__ = __mul__

    def inverse(self) -> "LambdaPoly":
        if len(self.terms) != 1:
            raise ValueError("only lambda-monomials invert exactly")
        (k, v), = self.terms.items()
        return LambdaPoly({-k: 1 / v})

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LambdaPoly.const(other)
        return self.terms == other.terms

    def as_fraction(self) -> Fraction:
        """The value when lambda-free; raises otherwise."""
        if not self.terms:
            return Fraction(0)
        if set(self.terms) != {0}:
            raise ValueError(f"coefficient involves lambda: {self}")
        return self.terms[0]

    def evaluate(self, ln_q: float) -> float:
        return sum(float(v) * ln_q ** k for k, v in self.terms.items())

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for k in sorted(self.terms):
            v = self.terms[k]
            if k == 0:
                bits.append(str(v))
            else:
                bits.append(f"{v}*L^{k}" if k != 1 else f"{v}*L")
        return " + ".join(bits)


class _WSeries:
    """Truncated Laurent series in w with generic coefficients."""

    __slots__ = ("terms", "trunc")

    def __init__(self, terms, trunc):
        self.terms = {k: v for k, v in terms.items()
                      if k <= trunc and v != 0}
        self.trunc = trunc

    def __add__(self, other):
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out[k] + v if k in out else v
        return _WSeries(out, min(self.trunc, other.trunc))

    def __mul__(self, other):
        # a factor's unknown tail enters at its trunc plus the other
        # factor's (negative) leading order
        lo_s = min(0, self.min_order() if self.terms else 0)
        lo_o = min(0, other.min_order() if other.terms else 0)
        trunc = min(self.trunc + lo_o, other.trunc + lo_s)
        out = {}
        for k1, v1 in self.terms.items():
            for k2, v2 in other.terms.items():
                k = k1 + k2
                if k <= trunc:
                    out[k] = out[k] + v1 * v2 if k in out else v1 * v2
        return _WSeries(out, trunc)

    def scale(self, c) -> "_WSeries":
        return _WSeries({k: c * v for k, v in self.terms.items()}, self.trunc)

    def min_order(self):
        return min(self.terms) if self.terms else None

    def inverse(self) -> "_WSeries":
        """Invert a series with invertible leading coefficient."""
        lo = self.min_order()
        if lo is None:
            raise ZeroDivisionError("inverting the zero series")
        c0 = self.terms[lo]
        c0_inv = _coeff_inverse(c0)
        # normalized tail: self = c0 w^lo (1 + R), invert the unit part
        r_terms = {k - lo: c0_inv * v for k, v in self.terms.items()
                   if k != lo}
        depth = self.trunc - lo
        unit_inv = {0: _coeff_one_like(c0)}
        # (1+R)^{-1} = sum (-R)^k, computed by the standard recursion
        for k in range(1, depth + 1):
            acc = None
            for j, rv in r_terms.items():
                if 1 <= j <= k and (k - j) in unit_inv:
                    term = rv * unit_inv[k - j]
                    acc = term if acc is None else acc + term
            if acc is not None:
                unit_inv[k] = -acc
        out = {}
        for k, v in unit_inv.items():
            if v != 0:
                out[k - lo] = c0_inv * v
        return _WSeries(out, self.trunc - 2 * lo)


def _coeff_inverse(v):
    if isinstance(v, LambdaPoly):
        return v.inverse()
    return 1.0 / v


def _coeff_one_like(v):
    if isinstance(v, LambdaPoly):
        return LambdaPoly.const(1)
    return 1.0 + 0.0j


@dataclass
class LaurentExpansion:
    """Expansion sum_k c_k (s - center)^k; exact coefficients live in
    Q[lambda, 1/lambda], float-path coefficients are complex."""

    center: object
    q: int
    coefficients: dict
    min_order: int
    exact: bool

    def coefficient(self, k):
        zero = LambdaPoly() if self.exact else 0j
        return self.coefficients.get(k, zero)

    def coefficient_value(self, k) -> complex:
        c = self.coefficient(k)
        if isinstance(c, LambdaPoly):
            return complex(c.evaluate(math.log(self.q)))
        return complex(c)

    @property
    def pole_order(self) -> int:
        return max(0, -self.min_order)

    def evaluate_partial(self, s) -> complex:
        w = complex(s) - complex(self.center)
        acc = 0j
        for k in sorted(self.coefficients):
            acc += self.coefficient_value(k) * w ** k
        return acc


def laurent_at(expr: RationalFunctionT, s0, max_order: int,
               ) -> LaurentExpansion:
    """Laurent expansion of expr(q^{-s}) around s = s0.

    Rational t-functions have finite-order poles, so every request is a
    plain pole or regular point; the exact path needs integer s0 (then
    t0 = q^{-s0} is rational).
    """
    q = expr.q
    exact = expr.is_exact and isinstance(s0, int)
    if exact:
        t0 = Fraction(q) ** (-s0)
    else:
        t0 = complex(q) ** (-complex(s0))
    num_s = expr.num.compose_shift(t0)
    den_s = expr.den.compose_shift(t0)

    # pole order = multiplicity of the root u = 0 of the shifted denominator
    tol = 0.0
    if not exact:
        tol = 1e-12 * max(1.0, max(abs(complex(c)) for c in den_s.coeffs))
    m = 0
    while m <= den_s.degree() and _is_zero_scalar(den_s[m], tol):
        m += 1
    if m > den_s.degree():
        raise ZeroDivisionError("expression is identically singular")
    dhat = Poly(den_s.coeffs[m:])

    # u-series of num_s / dhat up to degree m + max_order
    depth = m + max_order
    b = RationalFunctionT(num_s, dhat, q).series(depth + 1)

    # w-series of u = t0 (e^{-lambda w} - 1), truncated at max_order
    if exact:
        e_terms = {k: LambdaPoly.mono(Fraction((-1) ** k, math.factorial(k))
                                      * t0, k) for k in range(1, depth + 2)}
    else:
        lam = math.log(q)
        e_terms = {k: t0 * (-lam) ** k / math.factorial(k)
                   for k in range(1, depth + 2)}
    u = _WSeries(e_terms, max_order + depth + 1)

    acc = _WSeries({}, max_order)
    if m == 0:
        upow = _WSeries({0: _coeff_one_like(next(iter(u.terms.values())))},
                        max_order + depth + 1)
    else:
        uinv = u.inverse()
        upow = uinv
        for _ in range(m - 1):
            upow = upow * uinv
    for i, bi in enumerate(b):
        if not _is_zero_scalar(bi):
            ci = LambdaPoly.const(bi) if exact else complex(bi)
            acc = acc + upow.scale(ci)
        if i < len(b) - 1:
            upow = upow * u
    coeffs = {k: v for k, v in acc.terms.items() if k <= max_order}
    min_order = min(coeffs) if coeffs else 0
    return LaurentExpansion(center=s0, q=q, coefficients=coeffs,
                            min_order=min_order, exact=exact)
