"""Local zeta functions: exact Igusa series by point counting, closed
monomial forms, strongly non-degenerate forms, elementary and mixed
integrals, pole prediction, and the heat-kernel evaluator.

The series engine counts residues mod p^{k+1} with early pruning, a
level at a time through the field layer's order kernel, and two closure
rules that keep desk-scale depths reachable: unit-gradient cells close
with a geometric valuation tail (the pushforward of Haar measure
under a submersion is Haar), and for weighted (quasi-homogeneous) f the
box prod pi^{w_i} R_K closes by self-similarity
f(pi^{w_1} x_1, ..., pi^{w_n} x_n) = pi^d f(x), which adds q^{-|w|} t^d Z,
unless the first rule already closes the cells around the box;
w = (1, ..., 1) is the homogeneous case.  Plain enumeration stays
available as ``method="brute"`` and is the oracle the closures are tested
against.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import AmbiguousSolution, BudgetExceeded, DivergentIntegral, \
    NondegeneracyFailed, NoSolution, PoleProximity
from .grid import GridFunction, fourier_transform, power_integral
from .intpoly import IntPolynomial
from .localfield import KERNEL_BLOCK, FieldSpec, Qp, digits_of, \
    index_digits
from .ratfunc import Poly, RationalFunctionT, reconstruct_from_series, \
    solve_exact


# -- zeta series --------------------------------------------------------------

@dataclass(frozen=True)
class ZetaSeries:
    """c_k = Haar measure of {x in R_K^n : ord f(x) = k}, k = 0..K."""

    q: int
    coeffs: tuple

    def __post_init__(self):
        if any(c < 0 for c in self.coeffs):
            raise ValueError("series coefficients must be nonnegative")
        if sum(self.coeffs) > 1:
            raise ValueError("series coefficients must sum to at most 1")

    @property
    def truncation(self) -> int:
        return len(self.coeffs) - 1

    def evaluate(self, s) -> complex:
        t = complex(self.q) ** (-complex(s))
        return sum(complex(c) * t ** k for k, c in enumerate(self.coeffs))


def igusa_series(f: IntPolynomial, field: FieldSpec, terms: int,
                 method: str = "auto", budget: int = 4_000_000,
                 ) -> ZetaSeries:
    """Exact coefficients c_0..c_terms of Z(s, f) over the unit polydisc."""
    if f.is_zero or f.is_constant:
        raise ValueError("zeta series needs a nonconstant polynomial")
    if all(field.ops.int_ord(c) is None for c in f.coefficients()):
        raise ValueError(f"{f!r} vanishes in the field: p divides every "
                         f"coefficient")
    if terms < 0:
        raise ValueError(f"terms must be non-negative, not {terms}")
    if method == "brute":
        coeffs = _igusa_brute(f, field, terms, budget)
    elif method in ("auto", "lift"):
        mono = f.monomial_profile()
        if method == "auto" and mono is not None:
            coeffs = _igusa_monomial(f, field, terms)
        else:
            coeffs = _igusa_lift(f, field, terms, budget)
    else:
        raise ValueError(f"unknown method {method!r}")
    return ZetaSeries(field.q, tuple(coeffs))


def _igusa_monomial(f, field, K):
    """Valuation-distribution convolution for a global monomial.

    ord f = ord(coeff) + sum N_i ord(x_i) with independent geometrically
    distributed digits; an elementary count, independent of the
    rational-function route.  Each factor x_i^N convolves with
    P(N ord x_i = Nj) = (1 - 1/q) q^{-j}, which is the recurrence
    new[k] = (1 - 1/q) dist[k] + new[k - N] / q.
    """
    c, exps = f.monomial_profile()
    q = Fraction(field.q)
    vc = field.ops.int_ord(c)
    dist = [Fraction(1)] + [Fraction(0)] * K
    for N in exps:
        if N == 0:
            continue
        new = [(1 - 1 / q) * d for d in dist]
        for k in range(N, K + 1):
            new[k] += new[k - N] / q
        dist = new
    return ([Fraction(0)] * vc + dist)[:K + 1]


def _igusa_brute(f, field, K, budget):
    """Histogram of ord f, capped at K + 1, over the residues mod
    pi^{K+1}.

    The points are counted in blocks of q^s consecutive flat indices
    (first coordinate slowest), s >= 1 and q^s <= KERNEL_BLOCK unless q is
    larger than KERNEL_BLOCK itself: a block's start has s zero base-q
    digits at the bottom, so its coordinates are those of the start plus
    one fixed offset table, with no carry.
    """
    q, n = field.q, f.n
    M = q ** (K + 1)
    points = M ** n
    if points > budget:
        raise BudgetExceeded(f"brute enumeration needs {points} points")
    size = q  # past KERNEL_BLOCK only when q is: one block per residue digit
    while size * q <= min(KERNEL_BLOCK, points):
        size *= q
    # coordinates: the base-M digits of the flat index, most significant first
    offsets = np.ascontiguousarray(
        index_digits(np.arange(size), M, n)[:, ::-1].T, np.int64)

    counts = 0
    for start in range(0, points, size):
        at = np.array(digits_of(start, M, n)[::-1], np.int64)
        counts += np.bincount(field.ops.poly_ords(f, offsets + at[:, None],
                                                  K + 1), minlength=K + 2)
    # counts[k] = #{x mod pi^{K+1} : ord f(x) = k}, ord K + 1 for >= K + 1
    total = Fraction(q) ** (-n * (K + 1))
    return [int(c) * total for c in counts[:K + 1]]


def _igusa_lift(f, field, K, budget):
    q = field.q
    n = f.n
    # base[k] * q^E, on one denominator q^E that every closure divides
    E = n * (K + 1) + K + 1
    base = [0] * (K + 1)
    weights = _self_similarity_weights(f)
    if weights is not None:
        w, wdeg = weights
        wtop = max(w)
    grads = [g for g in f.gradient() if not g.is_zero]
    ops = field.ops
    spent = 0
    # a cell is the integer vector of its known digits (see localfield),
    # one column per open cell; a child adds one digit to every coordinate
    open_cells = np.zeros((n, 1), np.int64)
    per_chunk = max(1, KERNEL_BLOCK // q ** n)
    for k in range(K + 1):
        if not open_cells.shape[1]:
            break  # every cell is closed: the deeper levels add nothing
        # digits of each coordinate that vanish on the box prod pi^{w_i} R_K
        box = None
        if weights is not None and k < wtop:
            box = tuple(min(wi, k + 1) for wi in w)
        # every child of every open cell is visited: check before any is
        total_children = open_cells.shape[1] * q ** n
        spent += total_children
        if spent > budget:
            raise BudgetExceeded(
                f"lifting budget exhausted at level {k + 1}")
        if k == 0:  # the q^n digit vectors, now known to fit the budget
            digits = np.indices((q,) * n).reshape(n, -1)
        if q ** (k + 1) >= 2 ** 63:  # children past int64: Python ints
            open_cells = open_cells.astype(object)
            digits = digits.astype(object)
        survivors = 0
        # const[l]: closed cells on which ord f = l; tail[l]: closed cells
        # whose ord f is uniformly distributed from l on (l < 2(k + 1))
        const = np.zeros(2 * k + 2, np.int64)
        tail = np.zeros(2 * k + 2, np.int64)
        new_open = []
        for lo in range(0, open_cells.shape[1], per_chunk):
            cells = open_cells[:, lo:lo + per_chunk]
            kids = (cells[:, :, None] + digits[:, None, :] * q ** k
                    ).reshape(n, -1)
            # f does not vanish mod pi^{k+1} on a cell whose order is below
            kids = kids[:, ops.poly_ords(f, kids, k + 1) == k + 1]
            survivors += kids.shape[1]
            keep = np.zeros(kids.shape[1], bool)
            rest = np.ones(kids.shape[1], bool)
            if box is not None:
                inside = np.logical_and.reduce(
                    [kids[i] % q ** b == 0 for i, b in enumerate(box)])
                # inside the box at its last level: repaid afterwards;
                # straddling it: a closure would count it twice
                keep |= inside & (k + 1 < wtop)
                rest &= ~inside
            if rest.any():
                e, lvl = _cell_closures(f, grads, ops, kids[:, rest], k + 1)
                closes = e < k + 1
                tails = closes & (lvl == k + 1 + e)
                const += np.bincount(lvl[closes & ~tails],
                                     minlength=len(const))
                tail += np.bincount(lvl[tails], minlength=len(tail))
                keep[rest] = ~closes
            new_open.append(kids[:, keep])
        # a cell of level k + 1 has measure q^{-n(k+1)}
        wk = q ** (E - n * (k + 1))
        base[k] += (total_children - survivors) * wk
        for lvl in np.flatnonzero(const[:K + 1]).tolist():
            base[lvl] += int(const[lvl]) * wk
        for lvl in np.flatnonzero(tail[:K + 1]).tolist():
            # uniform pushforward: (1 - 1/q) q^{-(j - lvl)} from level lvl
            wt = int(tail[lvl]) * (q - 1) * wk // q
            for j in range(lvl, K + 1):
                base[j] += wt
                wt //= q
        open_cells = np.concatenate(new_open, axis=1)
    denom = Fraction(1, q ** E)
    out = [c * denom for c in base]
    if weights is None:
        return out
    # the box: f(pi^w x) = pi^d f(x) gives c_k += q^{-|w|} c_{k-d}
    qfr = Fraction(q)
    for j in range(wdeg, K + 1):
        out[j] += qfr ** (-sum(w)) * out[j - wdeg]
    return out


def _self_similarity_weights(f):
    """Positive integer weights w and a degree d with <w, a> = d for every
    exponent a of f, or None.

    w = (1, ..., 1) for homogeneous f; otherwise the primitive solution of
    <w, a> = 1 over the exponents, when it is unique and positive.  Every
    variable then occurs in f, so f vanishes mod pi^{k+1} on every cell
    that meets the box at level k.  Cells that straddle the box stay open
    below level max w, so the weights are kept only when the Hensel rule
    could not close a straddling cell either: every monomial b of every
    partial derivative has <w, b> >= max w - 1 or a variable of top
    weight.  The lift then opens a subset of the cells it opens without
    the box; a linear term (b = 0) always fails, as f is smooth there.
    """
    exps = [e for e, _ in f.terms]
    n = f.n
    if f.is_homogeneous():
        return (1,) * n, f.degree()
    sol, determined = solve_exact([list(e) for e in exps], [1] * len(exps))
    if sol is None or not determined or not all(x > 0 for x in sol):
        return None
    scale = math.lcm(*(x.denominator for x in sol))
    ints = [int(x * scale) for x in sol]
    g = math.gcd(*ints)
    w = tuple(x // g for x in ints)
    d = scale // g
    top = max(w)
    for a in exps:
        for i, ai in enumerate(a):
            if not ai:
                continue
            b = a[:i] + (ai - 1,) + a[i + 1:]
            if d - w[i] < top - 1 and \
                    not any(bj and wj == top for bj, wj in zip(b, w)):
                return None
    return w, d


def _cell_closures(f, grads, ops, cells, M):
    """Hensel-style closure of the survivor cells x + B_{-M}^n, one column
    of ``cells`` each: (e, lvl), with e = ord grad f at the canonical
    representative capped at M, and lvl = ord f there capped at M + e.

    When e < M, every higher-order Hasse term sits strictly below the
    linear scale q^{-(M+e)}, so |f| = q^{-lvl} on the whole cell when
    lvl < M + e, and otherwise ord f is uniformly distributed from M + e
    on: the linear map pushes Haar measure onto a coset.  A cell with
    e = M does not close.
    """
    e = np.full(cells.shape[1], M, np.int64)
    for g in grads:
        e = np.minimum(e, ops.poly_ords(g, cells, M))
    lvl = np.zeros_like(e)
    for ev in np.flatnonzero(np.bincount(e[e < M])).tolist():
        at = e == ev
        lvl[at] = ops.poly_ords(f, cells[:, at], M + ev)
    return e, lvl


# -- closed forms -------------------------------------------------------------

def _one_minus(c, N: int) -> Poly:
    """The polynomial 1 - c t^N (N >= 1)."""
    return Poly([Fraction(1)] + [Fraction(0)] * (N - 1) + [-c])


def geometric_zeta_factor(q: int, N: int, v) -> RationalFunctionT:
    """(1 - 1/q) / (1 - q^{-v} t^N): the integral of |xi|^{N s + v - 1}
    over R_K."""
    qf = Fraction(q)
    return RationalFunctionT.make(Poly([1 - 1 / qf]),
                                  _one_minus(qf ** (-v), N), q)


def monomial_zeta_closed(N, v=None, q: int = 3) -> RationalFunctionT:
    """Z(s, prod x_i^{N_i}) = prod (1-1/q)/(1 - q^{-v_i} t^{N_i})."""
    if v is None:
        v = [1] * len(N)
    out = RationalFunctionT.const(Fraction(1), q)
    for Ni, vi in zip(N, v):
        if Ni < 1 or vi < 1:
            raise ValueError("exponents and offsets must be >= 1")
        out = out * geometric_zeta_factor(q, Ni, vi)
    return out


def check_strong_nondegeneracy(f: IntPolynomial, field: FieldSpec):
    """Brute-force the condition over the residue field: the reduction
    has no singular zero away from the origin."""
    q, n = field.q, f.n
    # the points of the residue field, in np.ndindex order past the origin
    for lo in range(1, q ** n, KERNEL_BLOCK):
        points = index_digits(np.arange(lo, min(lo + KERNEL_BLOCK, q ** n)),
                              q, n)[:, ::-1].T.astype(np.int64)
        for g in [f] + f.gradient():  # keep the points where g vanishes too
            if points.shape[1]:
                points = points[:, field.ops.poly_ords(g, points, 1) == 1]
        if points.shape[1]:
            point = tuple(points[:, 0].tolist())
            raise NondegeneracyFailed(
                f"singular zero of the reduction at {point}", witness=point)


def snc_form_Z0(f: IntPolynomial, d: int, series: ZetaSeries,
                field: FieldSpec = None) -> RationalFunctionT:
    """Z_0(s) = (1 - q^{-n} t^d) Z(s, f) for a strongly non-degenerate
    form, reconstructed exactly; (1 - q^{-1} t) Z_0 must come out
    polynomial."""
    field = field or Qp(series.q)
    if not f.is_homogeneous() or f.degree() != d:
        raise ValueError("form must be homogeneous of the stated degree")
    if any(field.ops.int_ord(c) != 0 for c in f.coefficients()):
        raise ValueError("form needs unit coefficients")
    check_strong_nondegeneracy(f, field)
    q = series.q
    n = f.n
    Z = reconstruct_snc_zeta(series, n, d)
    qf, one = Fraction(q), Poly([Fraction(1)])
    Z0 = RationalFunctionT.make(_one_minus(qf ** (-n), d), one, q) * Z
    L = RationalFunctionT.make(_one_minus(1 / qf, 1), one, q) * Z0
    if not L.is_polynomial:
        raise NondegeneracyFailed(
            "(1 - t/q) Z_0 is not polynomial; the form does not have the "
            "two-factor denominator")
    return Z0


def reconstruct_snc_zeta(series: ZetaSeries, n: int, d: int,
                         ) -> RationalFunctionT:
    """Rational Z from its series, denominator dividing
    (1 - t/q)(1 - q^{-n} t^d), verified on held-out terms."""
    q = series.q
    dd = d + 1
    coeffs = list(series.coeffs)
    last_err = None
    for dn in range(0, max(1, len(coeffs) - dd - 3)):
        try:
            Z = reconstruct_from_series(coeffs, (dn, dd), q)
        except (NoSolution, AmbiguousSolution) as err:
            last_err = err
            continue
        qf = Fraction(q)
        target = _one_minus(1 / qf, 1) * _one_minus(qf ** (-n), d)
        _, rem = target.divmod(Z.den)
        if rem.is_zero:
            return Z
        last_err = NondegeneracyFailed(
            "denominator does not divide (1 - t/q)(1 - q^{-n} t^d)")
    raise last_err if last_err else ValueError("series too short")


# -- the H-infinity zeta function for SNC forms -------------------------------

# truncation tolerance of both evaluation modes, and the distance from a
# predicted pole inside which factored_continuation refuses s
_HINF_TOL = 1e-14
_POLE_GUARD = 1e-6


@dataclass
class EvalResult:
    value: complex
    tail_bound: float
    mode: str
    truncation: int


class HinfZetaEngine:
    """Z(s) = Z_0(s) * sum_j q^{-j(ds+n)} exp(-q^{-j alpha}) for a
    strongly non-degenerate form (default: the diagonal form sum x_i^d),
    against the frequency-side heat profile exp(-||xi||^alpha).
    """

    def __init__(self, n: int, d: int, alpha: float, field: FieldSpec = None,
                 f: IntPolynomial = None, pole_depth: int = 24):
        self.field = field or Qp(3)
        self.n, self.d, self.alpha = n, d, float(alpha)
        if not math.isfinite(self.alpha):
            raise ValueError(f"alpha must be finite, not {self.alpha}")
        self.q = self.field.q
        if f is None:
            f = IntPolynomial.make(
                n, {tuple(d if j == i else 0 for j in range(n)): 1
                    for i in range(n)})
        self.f = f
        series = igusa_series(f, self.field, 2 * d + 8)
        self.Z0 = snc_form_Z0(f, d, series, self.field)
        self.prediction = predict_poles(
            ResolutionData(((1, 1), (d, n))),
            snc_pole_progressions(alpha, n, d), depth=pole_depth)

    # candidate pole real parts, for the proximity guard
    def pole_real_parts(self):
        return [float(v) for v in self.prediction.values()]

    def _proximity_check(self, s):
        sd = complex(s)
        for pole in self.pole_real_parts():
            if abs(sd - pole) < _POLE_GUARD:
                raise PoleProximity(
                    f"s = {s} within {_POLE_GUARD} of predicted pole {pole}",
                    s=s, pole=pole)

    def value(self, s, mode: str = "factored_continuation",
              raw: bool = False) -> EvalResult:
        if not cmath.isfinite(complex(s)):
            raise ValueError(f"s must be finite, not {s}")
        if mode == "sphere_series":
            return self.sphere_series(s)
        if mode == "factored_continuation":
            if not raw:
                self._proximity_check(s)
            return self.factored(s)
        raise ValueError(f"unknown mode {mode!r}")

    def sphere_series(self, s) -> EvalResult:
        """Partition over the spheres pi^j S_0^n; only valid on Re s > 0."""
        sd, tol = complex(s), _HINF_TOL
        c = self.d * sd.real + self.n
        if c <= 0 or sd.real <= 0:
            raise DivergentIntegral(
                "sphere series converges only for Re(s) > 0")
        q, alpha, lnq = self.q, self.alpha, math.log(self.q)
        acc = 0.0 + 0.0j
        j = 0
        while True:  # shrinking spheres
            term = cmath.exp(-j * (self.d * sd + self.n) * lnq) \
                * math.exp(-float(q) ** (-j * alpha))
            acc += term
            j += 1
            tail = math.exp(-j * c * lnq) / (1 - math.exp(-c * lnq))
            if tail < tol:
                break
        trunc = j
        j = -1
        while True:  # growing spheres, doubly exponential decay
            mag = math.exp(-j * c * lnq - float(q) ** (-j * alpha))
            if mag < tol and \
                    float(q) ** (-j * alpha) * (q ** alpha - 1) > \
                    2 * c * lnq + math.log(2.0):
                tail2 = 2 * mag
                break
            acc += cmath.exp(-j * (self.d * sd + self.n) * lnq) \
                * math.exp(-float(q) ** (-j * alpha))
            j -= 1
        z0 = complex(self.Z0.eval_t(complex(q) ** (-sd)))
        return EvalResult(z0 * acc, abs(z0) * (tol + tail2),
                          "sphere_series", trunc - j)

    def z1_factored(self, s):
        """Z_1 = Z_11 + Z_12 by the exponential-series split over the unit
        ball plus the entire large-sphere part; continues past Re s = 0.
        Returns (value, split order used)."""
        sd, tol = complex(s), _HINF_TOL
        q, alpha, lnq = self.q, self.alpha, math.log(self.q)
        L = 1
        while math.lgamma(L + 2) < math.log(1e16):
            L += 1
        need = (-self.d * sd.real - self.n) / alpha
        L = max(L, int(math.ceil(need)) + 2)
        # polar singular part
        z11 = 0.0 + 0.0j
        for l in range(L + 1):
            den = 1 - cmath.exp(-(self.d * sd + self.n + alpha * l) * lnq)
            z11 += (-1) ** l / math.factorial(l) / den
        # remainder sum_j q^{-j(ds+n)} f(q^{-j}), f = exp tail beyond L
        c_rem = self.d * sd.real + self.n + alpha * (L + 1)
        if c_rem <= 0:
            raise DivergentIntegral(
                f"continuation strip ends at Re(s) = "
                f"{-(self.n + alpha * (L + 1)) / self.d}")
        j = 0
        rem = 0.0 + 0.0j
        while True:
            x = float(q) ** (-j)
            fx = _exp_tail(-x ** alpha, L)
            rem += cmath.exp(-j * (self.d * sd + self.n) * lnq) * fx
            j += 1
            tail = math.exp(-j * c_rem * lnq) \
                / math.factorial(L + 1) / (1 - math.exp(-c_rem * lnq))
            if tail < tol:
                break
        z11 += rem
        # entire part over ||xi|| > 1
        z12 = 0.0 + 0.0j
        jj = 1
        while True:
            mag = math.exp(jj * (self.d * sd.real + self.n) * lnq
                           - float(q) ** (jj * alpha))
            if mag < tol:
                break
            z12 += cmath.exp(jj * (self.d * sd + self.n) * lnq) \
                * math.exp(-float(q) ** (jj * alpha))
            jj += 1
        return z11 + z12, L

    def factored(self, s) -> EvalResult:
        z1, L = self.z1_factored(s)
        z0 = complex(self.Z0.eval_t(complex(self.q) ** (-complex(s))))
        return EvalResult(z0 * z1, abs(z0) * 3 * _HINF_TOL,
                          "factored_continuation", L)


def _exp_tail(x, L):
    """exp(x) - sum_{l<=L} x^l/l!, summed forward (no cancellation)."""
    term = x ** (L + 1) / math.factorial(L + 1)
    acc = 0.0
    l = L + 1
    while abs(term) > 1e-300:
        acc += term
        l += 1
        term *= x / l
        if l > L + 200:
            break
    return acc


def locate_real_poles(engine: HinfZetaEngine, lo: float, hi: float):
    """Scan |Z(s)| on the real axis in steps of 10^-3 and refine each
    spike above 10^4 by ternary search; returns the located pole
    positions."""

    def mag(s):
        try:
            return abs(engine.value(s, "factored_continuation",
                                    raw=True).value)
        except ZeroDivisionError:
            return float("inf")

    xs = np.arange(lo, hi, 1e-3)
    vals = [mag(float(x)) for x in xs]
    found = []
    for i in range(1, len(xs) - 1):
        if vals[i] > 1e4 and vals[i] >= vals[i - 1] \
                and vals[i] >= vals[i + 1]:
            a, b = float(xs[i - 1]), float(xs[i + 1])
            for _ in range(80):
                m1 = a + (b - a) / 3
                m2 = b - (b - a) / 3
                if mag(m1) < mag(m2):
                    a = m1
                else:
                    b = m2
            found.append(0.5 * (a + b))
    return found


# -- elementary and mixed integrals -------------------------------------------

def elementary_integral(g: GridFunction, N, v, s, side="space") -> complex:
    """E_ghat(s; N, v) = integral of prod |xi_i|^{N_i s + v_i - 1} ghat.

    ``side="frequency"`` treats g as the frequency-side data directly.
    """
    r = len(N)
    sd = complex(s)
    bound = max(-vi / Ni for Ni, vi in zip(N, v))
    if sd.real <= bound:
        raise DivergentIntegral(
            f"direct evaluation needs Re(s) > {bound}")
    gh = g if side == "frequency" else fourier_transform(g)
    w = [N[i] * sd + v[i] - 1 if i < r else 0 for i in range(g.n)]
    return complex(power_integral(gh, w))


def elementary_integral_exact(g: GridFunction, N, v,
                              side="space") -> RationalFunctionT:
    """The same integral as an exact rational function of t = q^{-s}."""
    gh = g if side == "frequency" else fourier_transform(g)
    specs = [(N[i], v[i]) if i < len(N) else None for i in range(g.n)]
    return cells_to_rational(gh, specs)


def cells_to_rational(gh: GridFunction, specs) -> RationalFunctionT:
    """Sum the cell decomposition of integral prod |xi_i|^{N_i s + v_i - 1}
    ghat(xi) into one rational function in t.

    Hyperplane-free coordinates contribute plain measures, off-hyperplane
    cells contribute monomials q^{f(v-1)} t^{fN}, and zero cells the
    geometric factor (1-1/q)(q^{-v} t^N)^m / (1-q^{-v} t^N).
    """
    q = gh.field.q
    qf = Fraction(q)
    fexp = gh.field.ops.norm_exps(gh.L, gh.m).tolist()
    meas = qf ** (-gh.m)
    exact = gh.is_exact
    nz = np.nonzero(gh.values)
    # only axes whose zero cell carries mass contribute denominator factors
    active = [ax for ax in range(gh.n)
              if specs[ax] is not None and (nz[ax] == 0).any()]
    factors = {ax: _one_minus(qf ** (-specs[ax][1]), specs[ax][0])
               for ax in active}
    den = Poly([Fraction(1)])
    for ax in active:
        den = den * factors[ax]
    # per (axis, index): the cell's coefficient factor, built once per
    # distinct norm exponent, its t-power and its share of the shift
    fe = np.array(fexp, dtype=np.int64)
    fe[0] = 0
    coef, tdeg, lead = [], [], []
    for ax in range(gh.n):
        if specs[ax] is None:
            coef.append([meas if exact else float(meas)] * len(fexp))
            tdeg.append(0 * fe)
            lead.append(0 * fe)
            continue
        N, vv = specs[ax]
        at_zero = (1 - 1 / qf) * qf ** (-vv * gh.m)
        by_exp = {e: meas * qf ** (e * (vv - 1)) for e in set(fexp[1:])}
        if not exact:
            at_zero = float(at_zero)
            by_exp = {e: float(w) for e, w in by_exp.items()}
        coef.append([at_zero] + [by_exp[e] for e in fexp[1:]])
        tdeg.append(-fe * N)
        tdeg[-1][0] = N * gh.m
        lead.append(np.where(fe > 0, fe * N, 0))
    shares = sum(lead[ax][nz[ax]] for ax in range(gh.n))
    shift = int(shares.max()) if shares.size else 0
    tpows = (shift + sum(tdeg[ax][nz[ax]] for ax in range(gh.n))).tolist()
    # the product of the active factors of each set of axes off zero
    products = {}
    num_terms = {}
    one = Fraction(1) if exact else 1.0 + 0.0j
    zero = Fraction(0) if exact else 0.0 + 0.0j
    vals = gh.values[nz] if exact else gh.values[nz].astype(complex)
    for val, tpow, idx in zip(vals.tolist(), tpows,
                              zip(*(a.tolist() for a in nz))):
        piece_coeff = one
        for ax, i in enumerate(idx):
            piece_coeff *= coef[ax][i]
        axes = tuple(ax for ax in active if idx[ax])
        if axes not in products:
            cof = Poly([Fraction(1)])
            for ax in axes:
                cof = cof * factors[ax]
            products[axes] = [(k, c if exact else complex(c))
                              for k, c in enumerate(cof.coeffs) if c != 0]
        for k, c in products[axes]:
            key = tpow + k
            num_terms[key] = num_terms.get(key, zero) + val * piece_coeff * c
    if not num_terms:
        return RationalFunctionT.const(Fraction(0) if exact else 0.0j, q)
    strip = min(min(num_terms), shift)
    num_terms = {k - strip: v for k, v in num_terms.items()}
    if shift > strip:
        den = den * Poly([Fraction(0)] * (shift - strip) + [Fraction(1)])
    top = max(num_terms)
    num = Poly([num_terms.get(k, Fraction(0) if exact else 0.0j)
                for k in range(top + 1)])
    return RationalFunctionT.make(num, den, q)


def mixed_integral(g: GridFunction, I, J, alpha_I, beta_J) -> complex:
    """integral over K^n minus 0 of prod_I |xi|^alpha / prod_J |xi|^beta
    against ghat."""
    for a in alpha_I:
        if complex(a).real <= 0:
            raise DivergentIntegral(f"Re(alpha) must be positive, got {a}")
    for b in beta_J:
        if not 0 < complex(b).real < 1:
            raise DivergentIntegral(
                f"Re(beta) must lie in (0,1), got {b}")
    gh = fourier_transform(g)
    w = [0] * g.n
    for i, a in zip(I, alpha_I):
        w[i] = w[i] + complex(a)
    for i, b in zip(J, beta_J):
        w[i] = w[i] - complex(b)
    return complex(power_integral(gh, w))


# -- pole prediction ----------------------------------------------------------

@dataclass(frozen=True)
class GeneralizedProgression:
    """m_0 = 0, m_1 = gamma_1 - 1, m_l = gamma_1 + ... + gamma_l for
    l >= 2; gammas repeat their last entry beyond the given length."""

    gammas: tuple

    def __post_init__(self):
        if not self.gammas:
            raise ValueError("need at least one gamma")
        g = [Fraction(x) if isinstance(x, (int, Fraction)) else float(x)
             for x in self.gammas]
        if g[0] < 1:
            raise ValueError("gamma_1 must be at least 1")
        if any(x <= 0 for x in g):
            raise ValueError("gammas must be positive")

    def gamma(self, i: int):
        g = self.gammas[min(i - 1, len(self.gammas) - 1)]
        return Fraction(g) if isinstance(g, (int, Fraction)) else float(g)

    def terms(self, depth: int):
        out = [Fraction(0), self.gamma(1) - 1]
        acc = self.gamma(1)
        for l in range(2, depth + 1):
            acc = acc + self.gamma(l)
            out.append(acc)
        return out[:depth + 1]


@dataclass(frozen=True)
class ResolutionData:
    """Numerical data (N_E, v_E) of an embedded resolution, one pair per
    exceptional divisor."""

    pairs: tuple

    def __post_init__(self):
        for N, v in self.pairs:
            if N < 1 or v < 1:
                raise ValueError("numerical data must be positive")


@dataclass(frozen=True)
class PoleCandidate:
    value: object
    datum: int
    term: int


@dataclass(frozen=True)
class PolePrediction:
    candidates: tuple

    def values(self):
        return [c.value for c in self.candidates]

    def __contains__(self, x):
        return any(abs(float(c.value) - float(x)) < 1e-9
                   for c in self.candidates)


# most (datum, term) pairs predict_poles builds
_MAX_POLE_CANDIDATES = 10 ** 4


def predict_poles(data: ResolutionData, progressions, depth: int,
                  ) -> PolePrediction:
    """All -(v_E + m)/N_E over the progression terms, sorted and
    deduplicated with provenance.  More than 10^4 (datum, term) pairs
    raise BudgetExceeded before any is built."""
    if len(progressions) != len(data.pairs):
        raise ValueError("one progression per datum")
    if depth < 0:
        raise ValueError(f"depth must be non-negative, not {depth}")
    if len(data.pairs) * (depth + 1) > _MAX_POLE_CANDIDATES:
        raise BudgetExceeded(
            f"{len(data.pairs)} data to depth {depth} exceed the budget of "
            f"{_MAX_POLE_CANDIDATES} pole candidates")
    found = []
    for di, ((N, v), prog) in enumerate(zip(data.pairs, progressions)):
        for ti, m in enumerate(prog.terms(depth)):
            if isinstance(m, Fraction):
                val = -(Fraction(v) + m) / N
            else:
                val = -(v + m) / N
            found.append(PoleCandidate(val, di, ti))
    found.sort(key=lambda c: float(c.value))
    dedup = []
    for c in found:
        if dedup and abs(float(dedup[-1].value) - float(c.value)) < 1e-12:
            continue
        dedup.append(c)
    if any(float(c.value) >= 0 for c in dedup):
        raise ValueError("pole candidates must be negative")
    return PolePrediction(tuple(dedup))


def snc_pole_progressions(alpha, n: int = None, d: int = None):
    """Progressions (one per datum, in the order (1,1), (d,n)) whose
    union of predicted poles reproduces {-1} union {-(n + alpha l)/d}.

    The first-term quirk of the progression definition (m_1 = gamma_1 - 1
    but m_2 = gamma_1 + gamma_2) drops the value 2 from any unit-step
    sequence, so for alpha = 1 the (d,n)-datum runs gammas (2,1,1,...)
    realizing {0,1,3,4,...} and the (1,1)-datum picks its second term at
    (n+2)/d - 1 to recover the missing pole, stepping by 1/d after.  For
    alpha > 1 the choice (alpha+1, alpha-1, alpha, ...) realizes
    {0, alpha, 2 alpha, ...} outright.
    """
    if float(alpha) < 1:
        raise ValueError("need alpha >= 1 for the SNC progression")
    unitstep = GeneralizedProgression((Fraction(2), Fraction(1)))
    if float(alpha) == 1.0:
        if n is not None and d is not None and n + 2 >= d:
            patch = GeneralizedProgression(
                (Fraction(n + 2, d), Fraction(1, d)))
            return [patch, unitstep]
        return [unitstep, unitstep]
    a = Fraction(alpha) if isinstance(alpha, (int, Fraction)) else alpha
    if isinstance(a, float) and a.is_integer():
        a = Fraction(int(a))
    main = GeneralizedProgression((a + 1, a - 1, a))
    return [unitstep, main]


# -- heat kernel --------------------------------------------------------------

class HeatKernel:
    """Frequency-side heat profile exp(-t ||xi||^alpha) on K^n."""

    def __init__(self, t: float, alpha: float, n: int,
                 field: FieldSpec = None):
        if t <= 0 or alpha <= 0:
            raise ValueError("need t > 0 and alpha > 0")
        self.field = field or Qp(3)
        self.t, self.alpha, self.n = float(t), float(alpha), n
        self.q = self.field.q

    def sphere_value(self, j: int) -> float:
        """Value on the sphere ||xi|| = q^j."""
        return math.exp(-self.t * float(self.q) ** (j * self.alpha))

    def norm_sq_with_tail(self, l: int):
        """integral [xi]^l exp(-2t ||xi||^alpha): sphere series with a
        certified geometric tail on the small side and doubly-exponential
        cutoff on the large side, each below 10^-13."""
        q, n, lnq, tol = self.q, self.n, math.log(self.q), 1e-13
        acc = 0.0
        j = 0
        while True:  # ||xi|| = q^{-j}, j >= 0: [xi] = 1
            acc += (1 - q ** float(-n)) * math.exp(-j * n * lnq) \
                * self.sphere_value(-j) ** 2
            j += 1
            tail_small = math.exp(-j * n * lnq) / (1 - math.exp(-n * lnq))
            if tail_small < tol:
                break
        tail = tail_small
        jj = 1
        while True:
            term = (1 - q ** float(-n)) \
                * math.exp(jj * (n + l) * lnq) * self.sphere_value(jj) ** 2
            acc += term
            jj += 1
            nxt = math.exp(jj * (n + l) * lnq
                           - 2 * self.t * float(q) ** (jj * self.alpha))
            if nxt < tol and nxt < 0.25 * max(term, tol):
                tail += 2 * nxt
                break
        return acc, tail

    def norm(self, l: int) -> float:
        sq, _ = self.norm_sq_with_tail(l)
        return math.sqrt(sq)
