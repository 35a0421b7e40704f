"""Bruhat-Schwartz test functions on coset grids, with exact Fourier analysis.

A grid function lives on K^n, is supported in the ball of radius q^L and is
constant on cosets of the ball of radius q^{-m}.  Coset representatives of
pi^{-L} R_K / pi^m R_K are indexed 0..q^{L+m}-1 by their digit expansion
(least-significant digit at exponent -L).  Over Q_p the Fourier transform is
then a scaled DFT of Z/q^{L+m}; over F_p((T)) a digit-reversed tensor power
of p-point DFTs, evaluated over all n(L+m) digits of the grid at once as one
matrix product per group of c digits (p^c <= 64, the matrix F_p^{tensor c}
built from exact integer exponents) and one digit-reversal gather per axis.
Either way the involution F(F g)(x) = g(-x) and Parseval hold at double
precision, with every character exponent exact.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import BudgetExceeded, DivergentIntegral, Inexact, \
    UnsupportedPolynomial
from .intpoly import IntPolynomial
from .localfield import FieldSpec, LocalFieldElement

_ZERO_SENTINEL = -(10 ** 9)


# -- per-axis index tables ----------------------------------------------------

@lru_cache(maxsize=None)
def _axis_norm_exps(kind: str, p: int, L: int, m: int):
    """norm exponent f with |rep_i| = q^f per index; sentinel at the
    zero representative."""
    Q = p ** (L + m)
    idx = np.arange(Q, dtype=np.int64)
    out = np.full(Q, L, dtype=np.int64)
    pk = p
    for _ in range(1, L + m):
        out -= idx % pk == 0
        pk *= p
    out[0] = _ZERO_SENTINEL
    return out


@lru_cache(maxsize=None)
def _axis_negation(kind: str, p: int, L: int, m: int):
    Q = p ** (L + m)
    if kind == "Qp":
        return (-np.arange(Q, dtype=np.int64)) % Q
    # digitwise negation: -d_t mod p at every place p^t
    idx = np.arange(Q, dtype=np.int64)
    out = np.zeros(Q, dtype=np.int64)
    pk = 1
    for _ in range(L + m):
        out += (-(idx // pk) % p) * pk
        pk *= p
    return out


def _axis_digits(i: int, p: int, width: int):
    out = []
    for _ in range(width):
        out.append(i % p)
        i //= p
    return out


def _axis_index(digits, p: int) -> int:
    acc = 0
    for d in reversed(list(digits)):
        acc = acc * p + d
    return acc


# -- grid functions -----------------------------------------------------------

@dataclass(frozen=True)
class GridFunction:
    """Test function on K^n: support in B_L^n, constant on B_{-m}^n cosets.

    ``values`` has shape (q^{L+m},)*n; complex128 normally, object dtype
    (Fraction entries) on the exact path.  Treated as immutable.
    """

    field: FieldSpec
    n: int
    L: int
    m: int
    values: np.ndarray

    def __post_init__(self):
        if self.L < 0 or self.m < 0:
            raise ValueError("support and resolution exponents must be >= 0")
        Q = self.field.q ** (self.L + self.m)
        if self.values.shape != (Q,) * self.n:
            raise ValueError(f"values shape {self.values.shape} does not "
                             f"match grid size {(Q,) * self.n}")

    # construction ----------------------------------------------------------

    @staticmethod
    def zeros(field, n, L, m, exact=False) -> "GridFunction":
        Q = field.q ** (L + m)
        if exact:
            v = np.full((Q,) * n, Fraction(0), dtype=object)
        else:
            v = np.zeros((Q,) * n, dtype=complex)
        return GridFunction(field, n, L, m, v)

    @staticmethod
    def indicator_ball(field, n, radius_exp, center=None, L=None, m=None,
                       exact=False) -> "GridFunction":
        """Indicator of B_radius(center), optionally on a larger grid."""
        if L is None:
            L = max(radius_exp, 0)
        if m is None:
            m = max(-radius_exp, 0)
        if center is not None:
            cidx = [_coord_index(field, c, L, m) for c in center]
            if any(i is None for i in cidx):
                raise ValueError("center lies outside the representable grid")
        g = GridFunction.zeros(field, n, L, m, exact=exact)
        one = Fraction(1) if exact else 1.0 + 0.0j
        q = field.q
        norm_exps = _axis_norm_exps(field.kind, q, L, m)
        in_ball = [i for i in range(q ** (L + m))
                   if norm_exps[i] <= radius_exp]
        v = g.values
        if center is None:
            for idx in np.ndindex(*(len(in_ball),) * n):
                v[tuple(in_ball[k] for k in idx)] = one
        else:
            for idx in np.ndindex(*(len(in_ball),) * n):
                # center + ball member, computed through index arithmetic
                pt = tuple(_axis_add(field, cidx[ax], in_ball[k], L, m)
                           for ax, k in enumerate(idx))
                v[pt] = one
        return g

    @property
    def Q(self) -> int:
        return self.field.q ** (self.L + self.m)

    @property
    def is_exact(self) -> bool:
        return self.values.dtype == object

    def as_complex(self) -> np.ndarray:
        if self.values.dtype == complex:
            return self.values
        out = np.empty(self.values.shape, dtype=complex)
        for idx in np.ndindex(*self.values.shape):
            out[idx] = complex(self.values[idx])
        return out

    def coset_measure(self) -> Fraction:
        return Fraction(self.field.q) ** (-self.m * self.n)

    # pointwise algebra -------------------------------------------------------

    def __add__(self, other):
        a, b = unify_pair(self, other)
        return GridFunction(a.field, a.n, a.L, a.m, a.values + b.values)

    def __sub__(self, other):
        a, b = unify_pair(self, other)
        return GridFunction(a.field, a.n, a.L, a.m, a.values - b.values)

    def __mul__(self, other):
        if isinstance(other, GridFunction):
            a, b = unify_pair(self, other)
            return GridFunction(a.field, a.n, a.L, a.m, a.values * b.values)
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, c) -> "GridFunction":
        return GridFunction(self.field, self.n, self.L, self.m,
                            self.values * c)

    def conj(self) -> "GridFunction":
        if self.is_exact:
            return self
        return GridFunction(self.field, self.n, self.L, self.m,
                            np.conj(self.values))

    # evaluation ------------------------------------------------------------

    def evaluate(self, point) -> complex:
        """Value at a point given as LocalFieldElements or Fractions."""
        idx = []
        for c in point:
            i = _coord_index(self.field, c, self.L, self.m)
            if i is None:
                return 0.0 if not self.is_exact else Fraction(0)
            idx.append(i)
        return self.values[tuple(idx)]

    def to_json(self, dense=False) -> dict:
        q = self.field.q
        width = self.L + self.m
        flat = self.as_complex().reshape(-1)
        keep = np.arange(flat.size) if dense else np.flatnonzero(flat)
        axes = np.unravel_index(keep, self.values.shape) if self.n else ()
        coords = np.array(axes, dtype=np.int64).reshape(self.n, keep.size).T
        # digits[k, axis, t]: digit t of kept cell k, least significant first
        digits = np.empty(coords.shape + (width,), dtype=np.min_scalar_type(q))
        for t in range(width):
            digits[..., t] = coords % q
            coords = coords // q
        vals = [{"coset": c, "re": re, "im": im}
                for c, re, im in zip(digits.tolist(), flat.real[keep].tolist(),
                                     flat.imag[keep].tolist())]
        return {"field": self.field.to_json(), "n": self.n,
                "L": self.L, "m": self.m, "values": vals}

    @staticmethod
    def from_json(obj: dict) -> "GridFunction":
        """Inverse of ``to_json``; a coset needs n digit vectors of L+m
        digits in 0..p-1 and a finite value, or ValueError is raised."""
        field = FieldSpec.from_json(obj["field"])
        n, L, m = int(obj["n"]), int(obj["L"]), int(obj["m"])
        g = GridFunction.zeros(field, n, L, m)
        q, width = field.q, L + m
        for entry in obj["values"]:
            coset = entry["coset"]
            if not isinstance(coset, list) or len(coset) != n:
                raise ValueError(f"coset {coset!r} needs {n} digit vectors")
            idx = []
            for digits in coset:
                if not isinstance(digits, list) or len(digits) != width:
                    raise ValueError(f"coset {coset!r} needs {width} "
                                     f"digits per coordinate")
                acc = 0
                for d in reversed(digits):
                    if type(d) is not int or not 0 <= d < q:
                        raise ValueError(f"coset {coset!r} has a digit "
                                         f"outside 0..{q - 1}")
                    acc = acc * q + d
                idx.append(acc)
            try:
                val = complex(entry["re"], entry.get("im", 0.0))
            except TypeError:
                raise ValueError(f"value of coset {coset!r} is not a "
                                 f"number") from None
            if not cmath.isfinite(val):
                raise ValueError(f"value of coset {coset!r} is not finite")
            g.values[tuple(idx)] = val
        return g


def _axis_add(field, i, j, L, m):
    """Index of rep_i + rep_j on the same axis grid."""
    q = field.q
    Q = q ** (L + m)
    if field.kind == "Qp":
        return (i + j) % Q
    di = _axis_digits(i, q, L + m)
    dj = _axis_digits(j, q, L + m)
    return _axis_index([(a + b) % q for a, b in zip(di, dj)], q)


def _qp_digit_stream(r: Fraction, p: int, lo: int, hi: int):
    """p-adic digits of an exact rational at exponents lo..hi-1.

    None when the denominator carries more p-power than pi^lo allows.
    """
    den = r.denominator
    k = 0
    while den % p == 0:
        den //= p
        k += 1
    if k > -lo:
        return None
    x = r * Fraction(p) ** (-lo)  # now a p-integer
    digits = []
    for _ in range(hi - lo):
        d = int((x.numerator * pow(x.denominator, -1, p)) % p)
        digits.append(d)
        x = (x - d) / p
    return digits


def _coord_index(field, c, L, m):
    """Axis index of the coset containing c; None if outside B_L."""
    p = field.q
    if isinstance(c, LocalFieldElement):
        if c.is_zero:
            return 0
        if c.valuation < -L:
            return None
        if c.known_to < m:
            raise Inexact("coordinate not resolved to the grid resolution")
        digits = [c.digit_at(e) for e in range(-L, m)]
        return _axis_index(digits, p)
    if field.kind != "Qp":
        raise TypeError("plain rationals only index Q_p grids")
    digits = _qp_digit_stream(Fraction(c), p, -L, m)
    if digits is None:
        return None
    return _axis_index(digits, p)


def unify_pair(a: GridFunction, b: GridFunction):
    if a.field != b.field or a.n != b.n:
        raise ValueError("incompatible grids")
    L, m = max(a.L, b.L), max(a.m, b.m)
    return embed(a, L, m), embed(b, L, m)


def embed(g: GridFunction, L: int, m: int) -> GridFunction:
    """Represent g on a finer/larger grid (L >= g.L, m >= g.m)."""
    if L == g.L and m == g.m:
        return g
    if L < g.L or m < g.m:
        raise ValueError("embedding cannot shrink the grid")
    q = g.field.q
    Q2 = q ** (L + m)
    low = q ** (L - g.L)
    mid = q ** (g.L + g.m)
    idx = np.arange(Q2, dtype=np.int64)
    src = (idx // low) % mid
    keep = (idx % low) == 0
    v = g.values
    for ax in range(g.n):
        v = np.take(v, src, axis=ax)
    if not keep.all():
        mask = np.ones((Q2,) * g.n, dtype=bool)
        for ax in range(g.n):
            shape = [1] * g.n
            shape[ax] = Q2
            mask &= keep.reshape(shape)
        zero = Fraction(0) if g.is_exact else 0.0
        v = v.copy()
        v[~mask] = zero
    return GridFunction(g.field, g.n, L, m, v)


# -- Fourier transform --------------------------------------------------------

# F_p((T)): the pairing of x and xi on one axis is the digit sum
# sum_t x_t xi_{w-1-t} mod p, so the transform of a grid with D = n(L+m)
# digits is F_p^{tensor D} on the flat index followed by a digit reversal on
# every axis.  F_p^{tensor D} runs as one GEMM per group of c digits, where
# p^c <= _GROUP_CELLS: x.reshape(P, N/P).T @ M transforms the top c digits
# and rotates them to the bottom, so after all groups every digit is back
# in place.
_GROUP_CELLS = 64


@lru_cache(maxsize=None)
def _digit_group_matrix(p: int, c: int) -> np.ndarray:
    """F_p^{tensor c}: entry (a, b) is exp(-2 pi i e / p) with the exact
    integer e = sum_t a_t b_t mod p over the base-p digits of a and b."""
    idx = np.arange(p ** c, dtype=np.int64)
    e = np.zeros((p ** c,) * 2, dtype=np.int64)
    pk = 1
    for _ in range(c):
        d = (idx // pk) % p
        e += np.multiply.outer(d, d)
        pk *= p
    k = np.arange(p)
    half = np.minimum(k, p - k)
    # conjugate pairs come out exactly conjugate, and p = 2 gives exactly -1
    roots = np.cos(2 * np.pi * half / p) \
        - 1j * np.sign(p - 2 * k) * np.sin(2 * np.pi * half / p)
    out = roots[e % p]
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def _digit_reversal(p: int, width: int) -> np.ndarray:
    """Index whose base-p digits are those of i in reverse order."""
    idx = np.arange(p ** width, dtype=np.int64)
    out = np.zeros(p ** width, dtype=np.int64)
    lo, hi = 1, p ** max(width - 1, 0)
    for _ in range(width):
        out += (idx // lo) % p * hi
        lo *= p
        hi //= p
    out.setflags(write=False)
    return out


def _laurent_ft(v: np.ndarray, p: int, width: int, scale: float):
    n = v.ndim
    digits = n * width
    if digits == 0:
        return v * scale
    c = 1
    while p ** (c + 1) <= _GROUP_CELLS:
        c += 1
    x = v
    done = 0
    while done < digits:
        k = min(c, digits - done)
        mat = _digit_group_matrix(p, k)
        if done == 0:
            mat = mat * scale
        x = x.reshape(p ** k, -1).T @ mat
        done += k
    x = x.reshape(v.shape)
    rev = _digit_reversal(p, width)
    for ax in range(n):
        x = np.take(x, rev, axis=ax)
    return x


def fourier_transform(g: GridFunction) -> GridFunction:
    """Exact grid Fourier transform; (L, m) swap to (m, L).

    F g(xi) = sum over cosets g(x) chi(-x.xi) q^{-mn}; the character
    exponents are exact rationals realized through the DFT kernel.
    """
    v = g.values.astype(complex) if g.is_exact else g.values
    q = g.field.q
    scale = float(Fraction(q) ** (-g.m * g.n))
    if g.field.kind == "Qp":
        out = np.fft.fftn(v)
        out *= scale
    else:
        out = _laurent_ft(v, q, g.L + g.m, scale)
    return GridFunction(g.field, g.n, g.m, g.L, out)


def inverse_fourier_transform(h: GridFunction) -> GridFunction:
    return reflect(fourier_transform(h))


def reflect(g: GridFunction) -> GridFunction:
    """g(-x) on the same grid."""
    perm = _axis_negation(g.field.kind, g.field.q, g.L, g.m)
    v = g.values
    for ax in range(g.n):
        v = np.take(v, perm, axis=ax)
    return GridFunction(g.field, g.n, g.L, g.m, v)


def convolve(f: GridFunction, g: GridFunction) -> GridFunction:
    """Convolution via the transform product F(f * g) = Ff . Fg."""
    fh, gh = unify_pair(fourier_transform(f), fourier_transform(g))
    prod = GridFunction(fh.field, fh.n, fh.L, fh.m, fh.values * gh.values)
    return inverse_fourier_transform(prod)


# -- norms, metric ------------------------------------------------------------

def l2_norm(g: GridFunction) -> float:
    v = g.as_complex() if g.is_exact else g.values
    return math.sqrt(float(np.sum(np.abs(v) ** 2))
                     * float(g.coset_measure()))


def sup_norm(g: GridFunction) -> float:
    v = g.as_complex() if g.is_exact else g.values
    return float(np.max(np.abs(v))) if v.size else 0.0


def _bracket_weight(g: GridFunction, l) -> np.ndarray:
    """[xi]^l = max(1, ||xi||)^l as an array over the grid of g."""
    q = float(g.field.q)
    f = _axis_norm_exps(g.field.kind, g.field.q, g.L, g.m).astype(float)
    axis_norm = np.where(f <= _ZERO_SENTINEL / 2, 0.0, q ** f)
    w = None
    for ax in range(g.n):
        shape = [1] * g.n
        shape[ax] = g.Q
        a = axis_norm.reshape(shape)
        w = a if w is None else np.maximum(w, a)
    return np.maximum(w, 1.0) ** l


def sobolev_norm(g, l: int) -> float:
    """||g||_l; grid functions transform first, spectral functions are
    already frequency-side."""
    value, _ = sobolev_norm_with_tail(g, l)
    return value


def sobolev_norm_with_tail(g, l: int):
    """(||g||_l, certified tail bound on the squared norm)."""
    if isinstance(g, SpectralFunction):
        sq, tail = g.norm_sq(l)
        return math.sqrt(max(sq, 0.0)), tail
    gh = fourier_transform(g)
    w = _bracket_weight(gh, l)
    sq = float(np.sum(w * np.abs(gh.values) ** 2)) \
        * float(gh.coset_measure())
    return math.sqrt(sq), 0.0


def hinf_metric(f: GridFunction, g: GridFunction, l_max=None) -> float:
    """max_l 2^{-l} ||f-g||_l / (1 + ||f-g||_l).

    With no l_max the cutoff is self-certifying: once 2^{-(l+1)} cannot
    beat the running max no larger l can either, because x/(1+x) < 1.
    """
    d = f - g
    dh = fourier_transform(d)
    if not np.any(dh.values):
        return 0.0
    w1 = _bracket_weight(dh, 1)
    base = np.abs(dh.values) ** 2 * float(dh.coset_measure())
    best = 0.0
    l = 0
    cur = base.copy()
    while True:
        nl = math.sqrt(float(np.sum(cur)))
        best = max(best, 2.0 ** (-l) * nl / (1.0 + nl))
        l += 1
        if l_max is not None and l > l_max:
            break
        if l_max is None and 2.0 ** (-l) <= best:
            break
        cur *= w1
    return best


def sup_norm_constant_sq(field: FieldSpec, n: int, l: int) -> Fraction:
    """C(n,l)^2 = integral of [xi]^{-l} over K^n, in closed form (l > n)."""
    if l <= n:
        raise ValueError("need l > n")
    q = Fraction(field.q)
    return 1 + (1 - q ** (-n)) * q ** (n - l) / (1 - q ** (n - l))


# -- weighted power integrals (PATH A: coordinate powers) ----------------------

def _zero_cell_power(q: int, w, m: int, as_series=False, terms=40):
    """integral over B_{-m} of |xi|^w d xi.

    Closed geometric form by default; ``as_series`` sums spheres
    explicitly and closes the tail, giving an independent route.
    """
    if isinstance(w, (int, Fraction)):
        wr = Fraction(w)
        if wr <= -1:
            raise DivergentIntegral(f"|xi|^{w} not integrable near 0",
                                    multiplier=w)
        if not as_series:
            qq = Fraction(q)
            return (1 - 1 / qq) * qq ** (-m * (wr + 1)) \
                / (1 - qq ** (-(wr + 1)))
    wc = complex(w)
    if wc.real <= -1:
        raise DivergentIntegral(f"|xi|^{w} not integrable near 0",
                                multiplier=w)
    lnq = math.log(q)
    if not as_series:
        return (1 - 1.0 / q) * cmath.exp(-m * (wc + 1) * lnq) \
            / (1 - cmath.exp(-(wc + 1) * lnq))
    acc = 0.0 + 0.0j
    for j in range(m, m + terms):
        acc += (1 - 1.0 / q) * cmath.exp(-j * (wc + 1) * lnq)
    # closed-form tail for the remaining spheres
    acc += (1 - 1.0 / q) * cmath.exp(-(m + terms) * (wc + 1) * lnq) \
        / (1 - cmath.exp(-(wc + 1) * lnq))
    return acc


def _axis_power_weights(g: GridFunction, w, zero_mode="closed"):
    """Per-index weight: coset measure times |rep|^w, with the zero cell
    integrated analytically."""
    q = g.field.q
    f = _axis_norm_exps(g.field.kind, q, g.L, g.m)
    lnq = math.log(q)
    wc = complex(w)
    out = np.empty(g.Q, dtype=complex)
    out[1:] = np.exp((f[1:] * wc) * lnq) * (q ** float(-g.m))
    out[0] = complex(_zero_cell_power(q, w, g.m,
                                      as_series=(zero_mode == "series")))
    return out


def power_integral(g: GridFunction, exponents, zero_mode="closed"):
    """integral over K^n of prod_i |xi_i|^{w_i} g(xi) d xi, cell by cell.

    ``exponents`` may contain None/0 entries for unweighted coordinates.
    Divergent zero-cell exponents raise unless g vanishes on the
    offending hyperplane slab.
    """
    w = [0 if e is None else e for e in exponents]
    if len(w) != g.n:
        raise ValueError("one exponent per coordinate")
    for ax in range(g.n):
        if complex(w[ax]).real <= -1 and _touches_hyperplane(g.values, ax):
            raise DivergentIntegral(
                f"exponent {w[ax]} on coordinate {ax} diverges on the "
                f"zero cell", multiplier=(ax, w[ax]))
    if g.is_exact and all(isinstance(x, (int, Fraction)) for x in w):
        return _power_integral_exact(g, w)
    v = g.values.astype(complex) if g.is_exact else g.values
    for ax in range(g.n):
        we = w[ax]
        if complex(we).real <= -1:
            wt = _axis_power_weights_skip_zero(g, we)
        else:
            wt = _axis_power_weights(g, we, zero_mode)
        v = np.tensordot(v, wt, axes=([0], [0]))
    return complex(v)


def _axis_power_weights_skip_zero(g, w):
    q, lnq = g.field.q, math.log(g.field.q)
    f = _axis_norm_exps(g.field.kind, q, g.L, g.m)
    out = np.empty(g.Q, dtype=complex)
    out[1:] = np.exp((f[1:] * complex(w)) * lnq) * (q ** float(-g.m))
    out[0] = 0.0
    return out


def _touches_hyperplane(v: np.ndarray, ax: int) -> bool:
    sl = [slice(None)] * v.ndim
    sl[ax] = 0
    return bool(np.any(v[tuple(sl)] != 0))


def _power_integral_exact(g: GridFunction, w):
    q = g.field.q
    f = _axis_norm_exps(g.field.kind, q, g.L, g.m)
    total = Fraction(0)
    meas = Fraction(q) ** (-g.m)
    for idx in zip(*np.nonzero(g.values)):
        val = g.values[idx]
        factor = Fraction(1)
        for ax, i in enumerate(idx):
            we = Fraction(w[ax])
            if i == 0:
                factor *= _zero_cell_power(q, we, g.m)
            else:
                factor *= meas * Fraction(q) ** (int(f[i]) * we)
        total += Fraction(val) * factor
    return total


# -- spectral functions -------------------------------------------------------

@dataclass(frozen=True)
class Multiplier:
    """|h(xi)|^alpha attached to a frequency-side function."""

    poly: IntPolynomial
    alpha: complex

    def coordinate_profile(self):
        """(|const|, exponent vector) when h is a single monomial."""
        prof = self.poly.monomial_profile()
        if prof is None:
            return None
        c, exps = prof
        return c, exps


@dataclass(frozen=True)
class SpectralFunction:
    """Frequency-side function: grid base times prod_i |h_i(xi)|^{alpha_i}.

    Negative-real-part exponents are admitted only when some dual norm
    ||.||_{-m} stays finite, which for coordinate powers means the squared
    exponent clears -1 on every populated zero cell.
    """

    base: GridFunction
    multipliers: tuple

    def __post_init__(self):
        # dual-norm finiteness is a property of the combined symbol: sum
        # the per-axis real exponents before testing the zero cells
        combined = [0.0] * self.base.n
        for mult in self.multipliers:
            prof = mult.coordinate_profile()
            if prof is None:
                if complex(mult.alpha).real < 0:
                    raise DivergentIntegral(
                        "negative exponents need coordinate-power symbols",
                        multiplier=mult)
                continue
            _, exps = prof
            for ax, e in enumerate(exps):
                combined[ax] += complex(mult.alpha).real * e
        for ax, w in enumerate(combined):
            if 2 * w <= -1 and _touches_hyperplane(self.base.values, ax):
                raise DivergentIntegral(
                    f"||T||_{{-m}} infinite: squared symbol carries "
                    f"|xi_{ax + 1}|^{2 * w} on a charged zero cell",
                    multiplier=ax)

    @property
    def field(self):
        return self.base.field

    @property
    def n(self):
        return self.base.n

    def plain(self) -> bool:
        return not self.multipliers

    def coordinate_exponents(self, conjugate=False, scale=1):
        """Combined per-axis exponent when all multipliers are coordinate
        powers; None otherwise.  Also returns the constant factor."""
        w = [0] * self.n
        const = 1.0 + 0.0j
        for mult in self.multipliers:
            prof = mult.coordinate_profile()
            if prof is None:
                return None
            c, exps = prof
            a = complex(mult.alpha).conjugate() if conjugate \
                else complex(mult.alpha)
            a *= scale
            if abs(c) != 1:
                cn = _int_norm(self.field, c)
                const *= cn ** a if isinstance(cn, float) \
                    else float(cn) ** a
            for ax, e in enumerate(exps):
                w[ax] += a * e
        return const, w

    def norm_sq(self, l: int):
        """(||T||_l^2, tail bound): integral of [xi]^l |T-hat|^2."""
        exps = self.coordinate_exponents(scale=2)
        weight = _bracket_weight(self.base, l)
        vals = np.abs(self.base.values.astype(complex)) ** 2 * weight
        carrier = GridFunction(self.field, self.n, self.base.L, self.base.m,
                               vals)
        if exps is not None:
            const, w = exps
            # squared modulus: twice the real part of each exponent
            w = [complex(x).real for x in w]
            try:
                val = power_integral(carrier, w)
            except DivergentIntegral as err:
                raise DivergentIntegral(
                    f"||T||_{l} diverges: {err}", multiplier=err.multiplier)
            return (val * abs(const)).real, 0.0
        val, tail = _poly_weighted_integral(
            carrier, [(mu.poly, 2 * complex(mu.alpha).real)
                      for mu in self.multipliers])
        return val.real, tail

    def pairing_against(self, ghat: GridFunction):
        """integral of conj(T-hat) ghat over the common grid."""
        base, gh = unify_pair(self.base, ghat)
        prod = GridFunction(base.field, base.n, base.L, base.m,
                            np.conj(base.values.astype(complex))
                            * gh.values.astype(complex))
        exps = self.coordinate_exponents(conjugate=True)
        if exps is not None:
            const, w = exps
            return complex(power_integral(prod, w)) * const
        val, _ = _poly_weighted_integral(
            prod, [(mu.poly, complex(mu.alpha).conjugate())
                   for mu in self.multipliers])
        return val


def dirac(field: FieldSpec, n: int, support_exp: int = 4,
          ) -> SpectralFunction:
    """The Dirac distribution as T-hat = 1 on a large frequency ball."""
    base = GridFunction.indicator_ball(field, n, support_exp)
    return SpectralFunction(base, ())


def pairing(T, g: GridFunction) -> complex:
    """[T, g] = integral conj(T-hat) g-hat."""
    ghat = fourier_transform(g)
    if isinstance(T, GridFunction):
        T = SpectralFunction(T, ())
    return T.pairing_against(ghat)


def dual_norm(T, m: int) -> float:
    """||T||_{-m} for frequency-side data."""
    if isinstance(T, GridFunction):
        T = SpectralFunction(T, ())
    sq, _ = T.norm_sq(-m)
    return math.sqrt(max(sq, 0.0))


def _int_norm(field: FieldSpec, c: int):
    p = field.q
    if c == 0:
        return 0.0
    if field.kind == "LaurentFp":
        return 0.0 if c % p == 0 else 1.0
    v = 0
    while c % p == 0:
        c //= p
        v += 1
    return float(Fraction(p) ** (-v))


# -- general polynomial multipliers (PATH B, Q_p) ------------------------------

def _frac_ord(p: int, x: Fraction):
    if x == 0:
        return None
    v = 0
    n = x.numerator
    while n % p == 0:
        n //= p
        v += 1
    d = x.denominator
    while d % p == 0:
        d //= p
        v -= 1
    return v


def _poly_weighted_integral(carrier: GridFunction, mults, tol=1e-12,
                            max_cells=2_000_000):
    """Sum over carrier cells of value * integral_cell prod |h_j|^{beta_j}.

    Certified adaptive refinement for Q_p: on each cell a factor is either
    constant (its value dominates every Hasse-derivative perturbation),
    closed by the smooth-zero pushforward (unit-gradient at cell scale), or
    the cell is subdivided; unresolved mass at the depth cap is bounded and
    reported as the tail.  Requires Re(beta_j) > 0.
    """
    field = carrier.field
    if field.kind != "Qp":
        raise UnsupportedPolynomial(
            "general polynomial symbols are implemented over Q_p")
    for h, b in mults:
        if complex(b).real <= 0:
            raise DivergentIntegral(
                "general symbols need positive real exponent", multiplier=h)
    p = field.q
    total = 0.0 + 0.0j
    tail = 0.0
    budget = [max_cells]
    cells = list(zip(*np.nonzero(carrier.values)))
    tol_cell = tol / max(1, len(cells))
    hasse = [(h, b, h.hasse_derivatives()) for h, b in mults]
    for idx in cells:
        val = complex(carrier.values[idx])
        center = tuple(Fraction(int(i), p ** carrier.L) for i in idx)
        cval, ctail = _cell_poly_integral(p, hasse, center, carrier.m,
                                          tol_cell, budget)
        total += val * cval
        tail += abs(val) * ctail
    return total, tail


def _cell_poly_integral(p, hasse, center, M, tol, budget):
    """integral over center + B_{-M}^n of prod |h_j|^{beta_j}.

    Per factor the cell is classified: ``const`` when |h(center)| beats
    every Hasse perturbation, ``smooth`` when the linear term dominates
    (the pushforward of Haar measure is then uniform on a coset, closing
    the valuation distribution in closed form), otherwise it splits.
    """
    n = len(center)
    lnp = math.log(p)
    vol = float(Fraction(p) ** (-M * n))
    statuses = []
    sup_exp = 0.0  # - log_q of the sup bound of prod |h|^{Re b}
    for h, b, der in hasse:
        hc = h.eval_fraction(center)
        oc = _frac_ord(p, hc)
        lin = None
        higher = None
        for gamma, dh in der:
            od = _frac_ord(p, dh.eval_fraction(center))
            if od is None:
                continue
            e = od + M * sum(gamma)
            if sum(gamma) == 1:
                lin = e if lin is None else min(lin, e)
            else:
                higher = e if higher is None else min(higher, e)
        pert = min((x for x in (lin, higher) if x is not None), default=None)
        rb = complex(b).real
        if pert is None:
            if oc is None:
                raise DivergentIntegral(
                    "symbol vanishes identically on a charged cell",
                    multiplier=h)
            statuses.append(("const", oc))
            sup_exp += oc * rb
        elif oc is not None and oc < pert:
            statuses.append(("const", oc))
            sup_exp += oc * rb
        elif lin is not None and (higher is None or higher > lin) \
                and (oc is None or oc >= lin):
            statuses.append(("smooth", lin))
            sup_exp += lin * rb
        else:
            statuses.append(("split", None))
            eff = min(x for x in (oc, pert) if x is not None)
            sup_exp += eff * rb

    n_smooth = sum(1 for s, _ in statuses if s == "smooth")
    n_split = sum(1 for s, _ in statuses if s == "split")
    if n_split == 0 and n_smooth <= 1:
        out = 1.0 + 0.0j
        for (status, e), (h, b, _) in zip(statuses, hasse):
            bc = complex(b)
            if status == "const":
                out *= cmath.exp(-e * bc * lnp)
            else:
                out *= (1 - 1.0 / p) * cmath.exp(-e * bc * lnp) \
                    / (1 - cmath.exp(-(1 + bc) * lnp))
        return vol * out, 0.0
    upper = vol * math.exp(-sup_exp * lnp)
    if upper < tol:
        return 0.0 + 0.0j, upper
    if budget[0] <= 0:
        raise BudgetExceeded("refinement budget exhausted before the "
                             "certified tolerance was reached")
    total = 0.0 + 0.0j
    tail = 0.0
    children = p ** n
    budget[0] -= children
    step = Fraction(p) ** M
    for off in np.ndindex(*(p,) * n):
        child = tuple(c + int(d) * step for c, d in zip(center, off))
        cval, ctail = _cell_poly_integral(p, hasse, child, M + 1,
                                          tol / children, budget)
        total += cval
        tail += ctail
    return total, tail


# -- partial Fourier restriction ----------------------------------------------

def partial_fourier_restrict(g: GridFunction, J, xi0) -> GridFunction:
    """P_{J, xi0} g: integrate out the J coordinates (0-based) against
    chi(-x_J . xi0_J); then F(P g)(xi_I) = g-hat(xi_I, xi0_J).
    """
    J = sorted(J)
    if not J or len(J) >= g.n:
        raise ValueError("J must be a nonempty proper subset of coordinates")
    if len(xi0) != len(J):
        raise ValueError("one xi0 coordinate per J index")
    q = g.field.q
    # outside the dual ball the character integral vanishes
    for c in xi0:
        nrm = c.norm() if isinstance(c, LocalFieldElement) else \
            _rational_norm(q, Fraction(c))
        if nrm > Fraction(q) ** g.m:
            keep = [ax for ax in range(g.n) if ax not in J]
            return GridFunction.zeros(g.field, len(keep), g.L, g.m)
    v = g.values.astype(complex) if g.is_exact else g.values
    meas = float(Fraction(q) ** (-g.m))
    for ax, c in sorted(zip(J, xi0), reverse=True):
        ph = _axis_char_weights(g, c) * meas
        v = np.tensordot(v, ph, axes=([ax], [0]))
    return GridFunction(g.field, g.n - len(J), g.L, g.m, v)


def _rational_norm(p, r: Fraction) -> Fraction:
    if r == 0:
        return Fraction(0)
    return Fraction(p) ** (-_frac_ord(p, r))


def _axis_char_weights(g: GridFunction, c) -> np.ndarray:
    """chi(-rep_i * c) for every axis representative (exact exponents)."""
    q = g.field.q
    Q = g.Q
    out = np.empty(Q, dtype=complex)
    if g.field.kind == "Qp":
        if isinstance(c, LocalFieldElement):
            if not c.is_zero and c.known_to < g.L:
                raise Inexact("xi0 digits unresolved at the grid scale")
            cf = c.as_fraction()
        else:
            cf = Fraction(c)
        for i in range(Q):
            rep = Fraction(i, q ** g.L)
            r = _qp_char_fraction(q, -rep * cf)
            out[i] = cmath.exp(2j * math.pi * float(r))
        return out
    if not isinstance(c, LocalFieldElement):
        raise TypeError("Laurent grids need LocalFieldElement coordinates")
    if not c.is_zero and c.known_to < g.L:
        raise Inexact("xi0 digits unresolved at the grid scale")
    width = g.L + g.m
    for i in range(Q):
        digits = _axis_digits(i, q, width)
        acc = 0
        for t, d in enumerate(digits):
            if d == 0:
                continue
            exp_needed = -1 - (t - g.L)
            if c.is_zero:
                cd = 0
            elif exp_needed < c.valuation:
                cd = 0
            elif exp_needed >= c.known_to:
                raise Inexact("xi0 digits unresolved at the grid scale")
            else:
                cd = c.digit_at(exp_needed)
            acc = (acc + d * cd) % q
        out[i] = cmath.exp(-2j * math.pi * acc / q)
    return out


def _qp_char_fraction(p, r: Fraction) -> Fraction:
    den = r.denominator
    k = 0
    while den % p == 0:
        den //= p
        k += 1
    if k == 0:
        return Fraction(0)
    pk = p ** k
    return Fraction((r.numerator * pow(den, -1, pk)) % pk, pk)


# -- space-side evaluation of spectral functions -------------------------------

def spectral_space_value(T: SpectralFunction, point) -> complex:
    """(F^{-1} T-hat)(x) for ||x|| within the dual resolution ball.

    Cell sums with exact zero-cell tails; the character is constant on
    every cell in this range.
    """
    base = T.base
    q = base.field.q
    exps = T.coordinate_exponents()
    if exps is None:
        raise UnsupportedPolynomial("space-side values need coordinate-"
                                    "power multipliers")
    const, w = exps
    nrm = max((c.norm() if isinstance(c, LocalFieldElement)
               else _rational_norm(q, Fraction(c))) for c in point)
    if nrm > Fraction(q) ** base.m:
        raise ValueError("point outside the dual resolution ball")
    v = base.values.astype(complex)
    meas = float(Fraction(q) ** (-base.m))
    for ax in reversed(range(base.n)):
        c = point[ax]
        ph = np.conj(_axis_char_weights(base, c))  # chi(+x.xi)
        we = w[ax]
        wt = _axis_power_weights(base, we)
        # zero cell: the character is 1 there, the power integral closes it
        col = ph * 0.0
        col[1:] = ph[1:] * wt[1:]
        col[0] = wt[0]
        v = np.tensordot(v, col, axes=([ax], [0]))
    return complex(v) * const


def random_grid(field: FieldSpec, n: int, L: int, m: int, rng,
                density: float = 1.0) -> GridFunction:
    """Random complex grid function (dense by default)."""
    Q = field.q ** (L + m)
    v = rng.standard_normal((Q,) * n) + 1j * rng.standard_normal((Q,) * n)
    if density < 1.0:
        mask = rng.random((Q,) * n) < density
        v = np.where(mask, v, 0.0)
    return GridFunction(field, n, L, m, v)
