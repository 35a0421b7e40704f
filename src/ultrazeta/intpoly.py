"""Multivariate polynomials with integer coefficients.

These are the polynomials whose norms get integrated: coefficients sit in
the ring of integers (literal integers for Q_p, residue constants for
F_p((T))).  Includes the tiny CLI grammar ``3*x1^2 + x1*x2 - 4``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .localfield import fpt_mul


@dataclass(frozen=True)
class IntPolynomial:
    """terms: {exponent tuple -> nonzero int coefficient}, n variables."""

    n: int
    terms: tuple  # sorted tuple of (exponents, coeff) pairs

    @staticmethod
    def make(n: int, terms: dict) -> "IntPolynomial":
        clean = {}
        for exps, c in terms.items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != n or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent tuple {exps}")
            c = int(c)
            if c:
                clean[exps] = clean.get(exps, 0) + c
        clean = {e: c for e, c in clean.items() if c}
        return IntPolynomial(n, tuple(sorted(clean.items())))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e, _ in self.terms)

    def degree(self) -> int:
        return max((sum(e) for e, _ in self.terms), default=-1)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e, _ in self.terms}
        return len(degs) <= 1

    def monomial_profile(self):
        """(coeff, exponent vector) if the polynomial is a single term."""
        if len(self.terms) != 1:
            return None
        exps, c = self.terms[0]
        return c, exps

    def coefficients(self):
        return [c for _, c in self.terms]

    # -- evaluation ----------------------------------------------------------

    def eval_int(self, point, modulus=None):
        """Evaluate at an integer point, optionally mod ``modulus``."""
        acc = 0
        for exps, c in self.terms:
            t = c
            for x, e in zip(point, exps):
                if e:
                    t *= pow(x, e, modulus) if modulus else x ** e
            acc += t
        return acc % modulus if modulus else acc

    def eval_fraction(self, point) -> Fraction:
        acc = Fraction(0)
        for exps, c in self.terms:
            t = Fraction(c)
            for x, e in zip(point, exps):
                if e:
                    t *= Fraction(x) ** e
            acc += t
        return acc

    def eval_fpt(self, point, p: int, trunc: int):
        """Evaluate at a point of (F_p[T]/T^trunc)^n.

        Coordinates are digit tuples of length ``trunc`` (coefficient of
        T^i at slot i); so is the result.
        """
        acc = [0] * trunc
        for exps, c in self.terms:
            t = [c % p] + [0] * (trunc - 1)
            for x, e in zip(point, exps):
                for _ in range(e):
                    t = fpt_mul(t, x, p, trunc)
            for i in range(trunc):
                acc[i] = (acc[i] + t[i]) % p
        return tuple(acc)

    # -- calculus ------------------------------------------------------------

    def partial(self, i: int) -> "IntPolynomial":
        """df/dx_i, the Hasse derivative of order one in x_i."""
        return self.hasse_derivative(tuple(int(j == i)
                                           for j in range(self.n)))

    def gradient(self):
        return [self.partial(i) for i in range(self.n)]

    def hasse_derivative(self, gamma) -> "IntPolynomial":
        """D^gamma f with the binomial normalization: integral coefficients.

        f(x + d) = sum_gamma D^gamma f(x) d^gamma, which is what ultrametric
        perturbation bounds need.
        """
        out = {}
        for exps, c in self.terms:
            cc = c
            new = []
            ok = True
            for e, g in zip(exps, gamma):
                if g > e:
                    ok = False
                    break
                cc *= math.comb(e, g)
                new.append(e - g)
            if ok:
                new = tuple(new)
                out[new] = out.get(new, 0) + cc
        return IntPolynomial.make(self.n, out)

    def hasse_derivatives(self):
        """All nonzero D^gamma f with |gamma| >= 1."""
        out = []

        def rec(prefix, remaining, budget):
            if remaining == 0:
                if sum(prefix) >= 1:
                    d = self.hasse_derivative(tuple(prefix))
                    if not d.is_zero:
                        out.append((tuple(prefix), d))
                return
            for g in range(budget + 1):
                rec(prefix + [g], remaining - 1, budget - g)

        rec([], self.n, self.degree())
        return out

    def __repr__(self):
        if self.is_zero:
            return "0"
        bits = []
        for exps, c in self.terms:
            mono = "*".join(f"x{i + 1}" + (f"^{e}" if e > 1 else "")
                            for i, e in enumerate(exps) if e)
            if mono:
                bits.append(f"{c}*{mono}" if abs(c) != 1
                            else ("-" if c == -1 else "") + mono)
            else:
                bits.append(str(c))
        return " + ".join(bits).replace("+ -", "- ")


_TERM_RE = re.compile(r"^\s*(\d+)\s*$")
_VAR_RE = re.compile(r"^\s*x(\d+)\s*(?:\^\s*(\d+)\s*)?$")
_COEFF_VAR_RE = re.compile(r"^\s*(\d+)\s*x(\d+)\s*(?:\^\s*(\d+)\s*)?$")


def parse_polynomial(text: str, n: int) -> IntPolynomial:
    """Parse ``coeff '*'? var('^'int)?`` factors joined by '*', with
    '+'/'-' separators.  Variables are x1..xn."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty polynomial")
    # split into signed terms
    terms = []
    sign, buf = 1, ""
    for i, ch in enumerate(s):
        if ch in "+-" and i > 0 and s[i - 1] not in "+-*^":
            terms.append((sign, buf))
            sign, buf = (1 if ch == "+" else -1), ""
        elif ch in "+-" and buf == "" and i == 0:
            sign = 1 if ch == "+" else -1
        else:
            buf += ch
    terms.append((sign, buf))

    out = {}
    for sign, term in terms:
        if not term:
            raise ValueError(f"dangling sign in {text!r}")
        coeff = sign
        exps = [0] * n
        for factor in term.split("*"):
            m = _TERM_RE.match(factor)
            if m:
                coeff *= int(m.group(1))
                continue
            m = _COEFF_VAR_RE.match(factor)
            if m:  # the star is optional: "2x1^3"
                coeff *= int(m.group(1))
                var, exp = m.group(2), m.group(3)
            else:
                m = _VAR_RE.match(factor)
                if not m:
                    raise ValueError(f"cannot parse factor {factor!r}")
                var, exp = m.group(1), m.group(2)
            idx = int(var)
            if not 1 <= idx <= n:
                raise ValueError(f"variable x{idx} out of range 1..{n}")
            exps[idx - 1] += int(exp or 1)
        key = tuple(exps)
        out[key] = out.get(key, 0) + coeff
    poly = IntPolynomial.make(n, out)
    return poly
