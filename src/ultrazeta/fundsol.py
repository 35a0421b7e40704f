"""Fundamental solutions through the analytic-continuation trick: expand
Z_ghat(s, f) at s = -1, read off the order-zero functional T_0, and verify
that it inverts the operator with symbol |f| (division problem, delta
identity, convolution solution)."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import BudgetExceeded, UnsupportedPolynomial
from .grid import GridFunction, Multiplier, SpectralFunction, \
    fourier_transform, pairing, random_grid
from .intpoly import IntPolynomial
from .localfield import FieldSpec, LocalFieldElement, digits_of
from .ratfunc import LambdaPoly, RationalFunctionT, laurent_at
from .zeta import cells_to_rational


def _monomial_exponents(f: IntPolynomial):
    prof = f.monomial_profile()
    if prof is None:
        raise UnsupportedPolynomial(
            "fundamental-solution machinery handles monomials; general "
            "polynomials reduce to this case only through a resolution "
            "of singularities, which is out of scope")
    return prof


def zeta_exact_in_t(g: GridFunction, f: IntPolynomial,
                    side: str = "space") -> RationalFunctionT:
    """Z_ghat(s, f) = integral |f(xi)|^s ghat(xi) as a rational function
    of t = q^{-s}, for monomial f.

    Cells off the coordinate hyperplanes contribute monomials in t; cells
    meeting xi_i = 0 contribute geometric factors with denominator
    1 - q^{-1} t^{N_i}.
    """
    c, exps = _monomial_exponents(f)
    gh = g if side == "frequency" else fourier_transform(g)
    vc = gh.field.ops.int_ord(c)
    if vc is None and any(e > 0 for e in exps):
        raise UnsupportedPolynomial("monomial coefficient vanishes")
    specs = [(e, 1) if e > 0 else None for e in exps]
    R = cells_to_rational(gh, specs)
    if vc:
        # |c prod xi^N|^s = q^{-vc s} |prod xi^N|^s shifts by t^{vc}
        shift = RationalFunctionT.from_coeffs(
            [Fraction(0)] * vc + [Fraction(1)], [Fraction(1)], gh.field.q)
        R = R * shift
    return R


@dataclass
class LaurentFunctional:
    """The Laurent data of g -> Z_ghat(s, f) at s = -1 for a monomial f."""

    f: IntPolynomial
    expansion: object
    rational: RationalFunctionT

    def coefficient(self, k):
        return self.expansion.coefficient(k)

    def order0(self):
        return self.expansion.coefficient(0)


def laurent_functional(g: GridFunction, f: IntPolynomial,
                       side: str = "space") -> LaurentFunctional:
    """The Laurent expansion at s = -1 through order 2."""
    R = zeta_exact_in_t(g, f, side=side)
    exp = laurent_at(R, -1, 2)
    return LaurentFunctional(f, exp, R)


def extract_T0(g: GridFunction, f: IntPolynomial, side: str = "space"):
    """Order-zero Laurent coefficient of Z_ghat(s, f) at s = -1.

    Exact in Q[lambda, 1/lambda] for exact frequency data; a lambda-free
    exact value is returned as a Fraction.
    """
    lf = laurent_functional(g, f, side=side)
    c0 = lf.order0()
    if isinstance(c0, LambdaPoly):
        try:
            return c0.as_fraction()
        except ValueError:
            return c0
    return c0


def t0_value(g: GridFunction, f: IntPolynomial, side: str = "space",
             ) -> complex:
    c0 = extract_T0(g, f, side=side)
    if isinstance(c0, LambdaPoly):
        return complex(c0.evaluate(math.log(g.field.q)))
    return complex(c0)


def t0_applied_to_operator_image(g: GridFunction, f: IntPolynomial,
                                 side: str = "space") -> complex:
    """[T_0, A(d, f) g], computed by shifting the integrand: the zeta
    function of |f| ghat at s is the original at s + 1, regular at -1."""
    R = zeta_exact_in_t(g, f, side=side)
    shifted = R.substitute_shift(1)
    exp = laurent_at(shifted, -1, 0)
    if exp.pole_order:
        raise ArithmeticError("shifted zeta function should be regular "
                              "at s = -1")
    return exp.coefficient_value(0)


# -- the three equivalence checks ----------------------------------------------

@dataclass
class CheckReport:
    name: str
    trials: int
    max_error: float
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


def delta_identity_check(f: IntPolynomial, field: FieldSpec, trials: int,
                         rng) -> CheckReport:
    """[T_0, A(d, f) g] = g(0) to 1e-8 over random grid functions with
    L = m = 1."""
    rep = CheckReport("delta_identity", trials, 0.0)
    n = f.n
    for k in range(trials):
        g = random_grid(field, n, 1, 1, rng)
        lhs = t0_applied_to_operator_image(g, f)
        rhs = complex(g.values[(0,) * n])  # the cell of x = 0
        err = abs(lhs - rhs)
        rep.max_error = max(rep.max_error, err)
        if err > 1e-8:
            rep.failures.append({"trial": k, "error": err,
                                 "g": g.to_json()})
    return rep


#: cells the division check walks at most, about a second of element
#: arithmetic: q = 3 and n = 2 walk 6,400, and n = 3 would walk 512,000
_DIVISION_CELLS = 100_000


def division_check(f: IntPolynomial, field: FieldSpec) -> CheckReport:
    """E-hat |f| = 1 exactly on every cell off f^{-1}(0) of the grid with
    L = m = 2.

    E-hat(xi) = |f(xi)|^{-1} = q^e uses the per-axis norm tables; |f(xi)|
    = q^{-ord f(xi)} is recomputed independently through truncated element
    arithmetic at the representative.  E-hat |f| = 1 exactly when the two
    integers e and ord f(xi) are equal (a zero product never passes).
    Cells run in ``np.ndindex`` order; each axis element is built once,
    and the product c x_1^{N_1} ... over the leading axes is shared by
    every cell below it, multiplied in the same order as for one cell.
    """
    c, exps = _monomial_exponents(f)
    vc = field.ops.int_ord(c)
    if vc is None:
        raise UnsupportedPolynomial("monomial coefficient vanishes")
    q, L, m = field.q, 2, 2
    n = f.n
    Q = q ** (L + m)
    cells = math.prod(Q - 1 if N > 0 else Q for N in exps)
    if cells > _DIVISION_CELLS:
        raise BudgetExceeded(f"the division check walks {cells} cells; "
                             f"the budget is {_DIVISION_CELLS}")
    fexp = field.ops.norm_exps(L, m).tolist()
    elems = [_element_from_rep(field, None, L, m, i) for i in range(Q)]
    rep = CheckReport("division", 0, 0.0)

    def walk(ax, idx, fv, ehat_exp):
        if ax == n:
            # route 1 (axis tables) against route 2 (element arithmetic);
            # the zero element's valuation is inf, never an int exponent
            rep.trials += 1
            if fv.valuation != ehat_exp:
                rep.failures.append({"cell": idx})
            return
        N = exps[ax]
        for i in range(1 if N > 0 else 0, Q):  # index 0 meets the zero set
            g = fv
            for _ in range(N):
                g = g * elems[i]
            walk(ax + 1, idx + (i,), g, ehat_exp - fexp[i] * N)

    walk(0, (), _element_from_rep(field, c, L, m, None), vc)
    return rep


def _element_from_rep(field, const, L, m, index):
    """The constant ``const``, or the representative of axis index
    ``index``, as a field element."""
    if index is None:
        return LocalFieldElement.from_rational(field, const)
    return LocalFieldElement.from_digits(
        field, -L, digits_of(int(index), field.q, L + m))


def convolution_check(f: IntPolynomial, field: FieldSpec, trials: int,
                      rng) -> CheckReport:
    """u = E * g solves the adjoint equation: [A* u - g, h] vanishes to
    1e-10, over random grid functions with L = m = 1.

    u-hat = E-hat ghat, so [A* u, h] integrates conj(ghat) |f|^{-1} |f|
    h-hat; the exponents cancel coordinate-wise in the multiplier
    machinery and the result must match the plain pairing [g, h].
    """
    c, exps = _monomial_exponents(f)
    n = f.n
    rep = CheckReport("convolution", trials, 0.0)
    for k in range(trials):
        g = random_grid(field, n, 1, 1, rng)
        h = random_grid(field, n, 1, 1, rng)
        ghat = fourier_transform(g)
        # symbol +N and regularized inverse -N, composed exponent-wise
        mults = []
        for ax, e in enumerate(exps):
            if e == 0:
                continue
            xi = IntPolynomial.make(
                n, {tuple(1 if j == ax else 0 for j in range(n)): 1})
            mults.append(Multiplier(xi, complex(e)))
            mults.append(Multiplier(xi, complex(-e)))
        u_side = SpectralFunction(ghat, tuple(mults))
        lhs = pairing(u_side, h)
        rhs = pairing(SpectralFunction(ghat, ()), h)
        err = abs(lhs - rhs)
        rep.max_error = max(rep.max_error, err)
        if err > 1e-10:
            rep.failures.append({"trial": k, "error": err})
    return rep


def fundamental_solution_check(f: IntPolynomial, field: FieldSpec,
                               trials: int = 10, seed: int = 0) -> dict:
    """Run the delta-identity, division, and convolution checks."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, not {trials}: a check "
                         f"that never ran cannot pass")
    rng = np.random.default_rng(seed)
    reports = [
        delta_identity_check(f, field, trials, rng),
        division_check(f, field),
        convolution_check(f, field, trials, rng),
    ]
    return {
        "polynomial": repr(f),
        "field": field.to_json(),
        "trials": trials,
        "checks": {r.name: {"passed": r.passed, "max_error": r.max_error,
                            "cases": r.trials,
                            "failures": r.failures[:3]}
                   for r in reports},
        "all_passed": all(r.passed for r in reports),
    }
