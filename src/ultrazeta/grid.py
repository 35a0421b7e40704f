"""Bruhat-Schwartz test functions on coset grids, with exact Fourier analysis.

A grid function lives on K^n, is supported in the ball of radius q^L and is
constant on cosets of the ball of radius q^{-m}.  Coset representatives of
pi^{-L} R_K / pi^m R_K are indexed 0..q^{L+m}-1 by their digit expansion
(least-significant digit at exponent -L).  Over Q_p the Fourier transform is
then a scaled DFT of Z/q^{L+m}, one ``np.fft.fftn`` that writes every axis
into a single preallocated array (the input's own array where the caller
owns it, as convolution does) and is scaled there; over F_p((T)) a
digit-reversed tensor power of p-point DFTs, evaluated over all n(L+m)
digits of the grid at once as one matrix product per group of c digits
(p^c <= 16, the fastest size on one BLAS thread; the matrix F_p^{tensor c}
built from exact integer exponents) and one digit-reversal gather per axis.
The inverse transform uses the conjugate kernel, not a transform and a
reflection.  Either way the involution F(F g)(x) = g(-x) and Parseval hold
at double precision, with every character exponent exact.  Both kernels,
the axis tables and the characters belong to the field layer
(``FieldSpec.ops`` in ``localfield``); this module tells no field from
the other.

Sobolev norms and the metric need no transform: [xi]^l is q^{kl} on the
shell ||xi|| = q^k, whose spectral energy is read on the x side by block
sums (``_shell_energies``).  The first Sobolev norm of a grid keeps
those m+1 energies on it, read-only, for the norms at every other l; it
is the only reader that keeps anything.  The grid's ``values`` then
become read-only too, so that a later write raises ValueError instead of
leaving the kept energies stale.  Pairings, Riesz pairings and
convolution transform their operands afresh, and ``fourier_transform``
always returns a new writable array.
"""

from __future__ import annotations

import cmath
import json
import math
import reprlib
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, groupby

import numpy as np

from .errors import BudgetExceeded, DivergentIntegral, UnsupportedPolynomial
from .intpoly import IntPolynomial
from .localfield import KERNEL_BLOCK, ZERO_SENTINEL, FieldSpec, \
    index_digits

# Most cells GridFunction.zeros and embed allocate: 2 GiB of complex128.
MAX_GRID_CELLS = 2 ** 27


def _check_grid_cells(q: int, n: int, width: int):
    """BudgetExceeded unless a grid of (q^width)^n cells fits the budget."""
    digits = n * width
    # q >= 2, so an exponent past log2 of the budget is over it; this test
    # comes first, so a huge exponent never builds a huge power
    if digits > MAX_GRID_CELLS.bit_length() - 1 \
            or q ** digits > MAX_GRID_CELLS:
        raise BudgetExceeded(f"a grid of {q}^{digits} cells exceeds the "
                             f"budget of {MAX_GRID_CELLS} cells")


# -- axis digits of grid JSON -------------------------------------------------

@lru_cache(maxsize=None)
def _axis_digit_text(q: int, width: int):
    """JSON text of every axis index's digit list, as ``to_json`` writes
    it: a list of ints prints as its JSON array."""
    return list(map(str, index_digits(np.arange(q ** width), q,
                                      width).tolist()))


# -- grid functions -----------------------------------------------------------

@dataclass(frozen=True)
class GridFunction:
    """Test function on K^n: support in B_L^n, constant on B_{-m}^n cosets.

    ``values`` has shape (q^{L+m},)*n; complex128 normally, object dtype
    (Fraction entries) on the exact path.  Treated as immutable: the first
    Sobolev norm of a grid keeps its shell energies, and from then on
    ``values`` (with every array it is a view of) is read-only.  No other
    reader keeps data or freezes ``values``.
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
        _check_grid_cells(field.q, n, L + m)
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
        cidx = [0] * n
        if center is not None:
            if len(center) != n:
                raise ValueError(f"center needs {n} coordinates, not "
                                 f"{len(center)}")
            cidx = [field.ops.coord_index(c, L, m) for c in center]
            if any(i is None for i in cidx):
                raise ValueError("center lies outside the representable grid")
        g = GridFunction.zeros(field, n, L, m, exact=exact)
        # on both fields the ball is, on every axis, the class of the
        # centre's index mod q^(L - radius_exp): its digits below -radius_exp
        k = field.q ** min(max(L - radius_exp, 0), L + m)
        idx = np.arange(g.Q)
        g.values[np.ix_(*(np.flatnonzero(idx % k == cidx[ax] % k)
                          for ax in range(n)))] = \
            Fraction(1) if exact else 1.0 + 0.0j
        return g

    @property
    def Q(self) -> int:
        return self.field.q ** (self.L + self.m)

    @property
    def is_exact(self) -> bool:
        return self.values.dtype == object

    def as_complex(self) -> np.ndarray:
        """The values as complex128: ``values`` itself when they are."""
        return self.values.astype(complex, copy=False)

    def coset_measure(self) -> Fraction:
        return Fraction(self.field.q) ** (-self.m * self.n)

    # pointwise algebra -------------------------------------------------------

    def _with(self, values) -> "GridFunction":
        # numpy gives a scalar for an operation on 0-d arrays (n = 0)
        return GridFunction(self.field, self.n, self.L, self.m,
                            np.asarray(values))

    def __add__(self, other):
        a, b = unify_pair(self, other)
        return a._with(a.values + b.values)

    def __sub__(self, other):
        a, b = unify_pair(self, other)
        return a._with(a.values - b.values)

    def __mul__(self, other):
        if isinstance(other, GridFunction):
            a, b = unify_pair(self, other)
            return a._with(a.values * b.values)
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, c) -> "GridFunction":
        return self._with(self.values * c)

    def conj(self) -> "GridFunction":
        if self.is_exact:
            return self
        return self._with(np.conj(self.values))

    # evaluation ------------------------------------------------------------

    def evaluate(self, point) -> complex:
        """Value at a point given as LocalFieldElements or Fractions."""
        idx = []
        for c in point:
            i = self.field.ops.coord_index(c, self.L, self.m)
            if i is None:
                return 0.0 if not self.is_exact else Fraction(0)
            idx.append(i)
        return self.values[tuple(idx)]

    def _kept_cells(self, dense):
        """Values of the cells ``to_json`` writes (every cell, or the
        nonzero ones) in row-major order, and their indices on each axis."""
        flat = self.as_complex().reshape(-1)
        keep = np.arange(flat.size) if dense else np.flatnonzero(flat)
        axes = np.unravel_index(keep, self.values.shape) if self.n else ()
        return flat[keep], axes

    def to_json(self, dense=False) -> dict:
        vals, axes = self._kept_cells(dense)
        coords = np.array(axes, dtype=np.int64).reshape(self.n, vals.size).T
        digits = index_digits(coords, self.field.q, self.L + self.m)
        entries = [{"coset": c, "re": re, "im": im}
                   for c, re, im in zip(digits.tolist(), vals.real.tolist(),
                                        vals.imag.tolist())]
        return {"field": self.field.to_json(), "n": self.n,
                "L": self.L, "m": self.m, "values": entries}

    def to_json_text(self, dense=False) -> str:
        """Equals ``json.dumps(self.to_json(dense), sort_keys=True)``,
        built from per-axis digit-list texts without the per-cell dicts."""
        vals, axes = self._kept_cells(dense)
        text = _axis_digit_text(self.field.q, self.L + self.m)
        cosets = map(", ".join, zip(*(map(text.__getitem__, a.tolist())
                                      for a in axes))) \
            if self.n else [""] * vals.size
        entries = ", ".join([f'{{"coset": [{c}], "im": {im}, "re": {re}}}'
                             for c, im, re in zip(cosets,
                                                  _json_floats(vals.imag),
                                                  _json_floats(vals.real))])
        head = json.dumps({"L": self.L, "field": self.field.to_json(),
                           "m": self.m, "n": self.n}, sort_keys=True)
        return f'{head[:-1]}, "values": [{entries}]}}'

    @staticmethod
    def from_json(obj: dict) -> "GridFunction":
        """Inverse of ``to_json``.  ``n``, ``L`` and ``m`` are non-negative
        ints; each entry is an object whose coset has n digit vectors of
        L+m int digits in 0..p-1, whose value complex(re, im) is finite,
        and whose coset no earlier entry lists.  Anything else raises
        ValueError, naming the first faulty coset; a grid over the cell
        budget raises BudgetExceeded."""
        if not isinstance(obj, dict) or not isinstance(obj.get("field"),
                                                       dict):
            raise ValueError("a grid is a JSON object with a field object")
        try:
            field = FieldSpec.from_json(obj["field"])
        except (KeyError, TypeError):
            raise ValueError(f"bad grid field "
                             f"{reprlib.repr(obj['field'])}") from None
        for key in ("n", "L", "m"):
            if type(obj.get(key)) is not int or obj[key] < 0:
                raise ValueError(f"grid {key} must be a non-negative int, "
                                 f"not {reprlib.repr(obj.get(key))}")
        values = obj.get("values")
        if type(values) is not list:
            raise ValueError("grid values must be a list")
        for entry in values:
            if type(entry) is not dict:
                raise ValueError(f"grid entry {reprlib.repr(entry)} is not "
                                 f"an object")
        n, L, m = obj["n"], obj["L"], obj["m"]
        g = GridFunction.zeros(field, n, L, m)
        cosets = [e.get("coset") for e in values]
        cells = _coset_cells(cosets, n, field.q, L + m)
        vals = _entry_values(values, cosets)
        order = np.argsort(cells, kind="stable")
        ordered = cells[order]
        repeats = order[1:][ordered[1:] == ordered[:-1]]
        if repeats.size:
            raise ValueError(f"coset {reprlib.repr(cosets[repeats.min()])} "
                             f"is listed twice")
        g.values.reshape(-1)[cells] = vals  # a view, row-major
        return g


# -- grid JSON ----------------------------------------------------------------

# json's spellings of the non-finite floats; float.__repr__ gives the rest
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_floats(x: np.ndarray):
    out = list(map(float.__repr__, x.tolist()))
    if not np.isfinite(x).all():
        out = [_JSON_NONFINITE.get(t, t) for t in out]
    return out


def _all_of_type(items, t) -> bool:
    return list(map(type, items)).count(t) == len(items)


def _lists_of(items, length: int) -> bool:
    return _all_of_type(items, list) and set(map(len, items)) <= {length}


def _coset_fault(coset, n: int, q: int, width: int):
    """Why ``coset`` is not n digit vectors of ``width`` digits in
    0..q-1, or None."""
    if type(coset) is not list or len(coset) != n:
        return f"coset {reprlib.repr(coset)} needs {n} digit vectors"
    for digits in coset:
        if type(digits) is not list or len(digits) != width:
            return (f"coset {reprlib.repr(coset)} needs {width} digits per "
                    f"coordinate")
        if any(type(d) is not int or not 0 <= d < q for d in digits):
            return (f"coset {reprlib.repr(coset)} has a digit outside "
                    f"0..{q - 1}")
    return None


def _coset_cells(cosets, n: int, q: int, width: int) -> np.ndarray:
    """Row-major cell index of every coset, all checked at once; on a
    fault, ValueError names the first faulty coset."""
    digits = None
    if _lists_of(cosets, n):
        coords = list(chain.from_iterable(cosets))
        if _lists_of(coords, width):
            flat = list(chain.from_iterable(coords))
            if _all_of_type(flat, int):
                # bytes() converts fastest and refuses ints outside 0..255
                try:
                    digits = np.frombuffer(bytes(flat), np.uint8) \
                        if q <= 256 else np.fromiter(flat, np.int64, len(flat))
                except (ValueError, OverflowError):
                    pass
    if digits is None or ((digits < 0) | (digits >= q)).any():
        raise ValueError(next(filter(None, (
            _coset_fault(c, n, q, width) for c in cosets))))
    axes = digits.reshape(len(cosets), n, width) \
        @ q ** np.arange(width, dtype=np.int64)
    return axes @ (q ** width) ** np.arange(n - 1, -1, -1, dtype=np.int64)


def _finite_complex(coset, re, im) -> complex:
    try:
        val = complex(re, im)
    except (TypeError, OverflowError):
        val = None
    if val is None or not cmath.isfinite(val):
        raise ValueError(f"value of coset {reprlib.repr(coset)} is not a "
                         f"finite number")
    return val


def _entry_values(values, cosets) -> np.ndarray:
    """complex(re, im) of every entry, which must be finite; JSON numbers
    convert all at once, anything else entry by entry."""
    re = [e.get("re") for e in values]
    im = [e.get("im", 0.0) for e in values]
    out = np.empty(len(values), dtype=complex)
    if set(map(type, chain(re, im))) <= {int, float, bool}:
        try:
            out.real = re
            out.imag = im
        except OverflowError:
            pass
        else:
            if np.isfinite(out).all():
                return out
    out[:] = [_finite_complex(*e) for e in zip(cosets, re, im)]
    return out


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
    _check_grid_cells(g.field.q, g.n, L + m)
    q = g.field.q
    low = q ** (L - g.L)
    # the new indices whose low L - g.L digits vanish lie in B_{g.L}; the
    # digits past g.m do not move the old cell
    keep = np.arange(0, q ** (L + m), low, dtype=np.int64)
    src = keep // low % q ** (g.L + g.m)
    v = np.full((q ** (L + m),) * g.n, Fraction(0) if g.is_exact else 0.0,
                g.values.dtype)
    v[np.ix_(*[keep] * g.n)] = g.values[np.ix_(*[src] * g.n)]
    return GridFunction(g.field, g.n, L, m, v)


# -- Fourier transform --------------------------------------------------------

def _transform(g: GridFunction, owned=False, inverse=False) -> GridFunction:
    """Fourier transform of g, or with ``inverse`` the transform with the
    conjugate kernel, F^{-1} g(x) = F g(-x).  Over Q_p it is written into
    one array: g.values itself when ``owned`` (the caller's own array, not
    needed after), else a new one; exact values convert to a new array
    first."""
    v = g.values
    if g.is_exact:
        v, owned = v.astype(complex), True
    scale = float(Fraction(g.field.q) ** (-g.m * g.n))
    out = g.field.ops.transform(v, g.L + g.m, scale, owned, inverse)
    return GridFunction(g.field, g.n, g.m, g.L, out)


def fourier_transform(g: GridFunction) -> GridFunction:
    """Exact grid Fourier transform; (L, m) swap to (m, L).

    F g(xi) = sum over cosets g(x) chi(-x.xi) q^{-mn}; the character
    exponents are exact rationals realized through the DFT kernel.
    """
    return _transform(g)


def inverse_fourier_transform(h: GridFunction) -> GridFunction:
    """F^{-1} h(x) = F h(-x), computed with the conjugate kernel."""
    return _transform(h, inverse=True)


def _freeze(a):
    """Make a, and every array it is a view of, read-only."""
    while isinstance(a, np.ndarray):
        a.flags.writeable = False
        a = a.base


def reflect(g: GridFunction) -> GridFunction:
    """g(-x) on the same grid, in a new array."""
    perm = g.field.ops.negation(g.L, g.m)
    v = g.values if g.n else g.values.copy()
    for ax in range(g.n):
        v = np.take(v, perm, axis=ax)
    return GridFunction(g.field, g.n, g.L, g.m, v)


def convolve(f: GridFunction, g: GridFunction) -> GridFunction:
    """Convolution via the transform product F(f * g) = Ff . Fg; f and g
    are only read."""
    fh, gh = unify_pair(fourier_transform(f), fourier_transform(g))
    # the product goes into fh, a new array.  For one cell numpy rounds a
    # complex product in place differently from a new one, so one cell
    # goes to a new array
    a, b = fh.values, gh.values
    own = a.size > 1 and a.dtype == b.dtype
    prod = np.multiply(a, b, out=a if own else None)
    return _transform(fh._with(prod), owned=True, inverse=True)


# -- norms, metric ------------------------------------------------------------

def l2_norm(g: GridFunction) -> float:
    a = np.abs(g.as_complex())
    a **= 2
    return math.sqrt(float(np.sum(a)) * float(g.coset_measure()))


def sup_norm(g: GridFunction) -> float:
    v = g.as_complex()
    return float(np.max(np.abs(v))) if v.size else 0.0


def _bracket_weight(g: GridFunction, l) -> np.ndarray:
    """[xi]^l = max(1, ||xi||)^l as an array over the grid of g."""
    q = float(g.field.q)
    f = g.field.ops.norm_exps(g.L, g.m).astype(float)
    axis = np.maximum(np.where(f <= ZERO_SENTINEL / 2, 0.0, q ** f), 1.0)
    w = np.empty(g.values.shape)
    w[...] = axis.reshape((-1,) + (1,) * (g.n - 1)) if g.n else 1.0
    for ax in range(1, g.n):
        np.maximum(w, axis.reshape((-1,) + (1,) * (g.n - 1 - ax)), out=w)
    w **= l
    return w


def _shell_energies(g: GridFunction) -> np.ndarray:
    """S_k, k = 0..m: the energy of the spectrum of g on the shell
    ||xi|| = q^k (on ||xi|| <= 1 for k = 0), where [xi]^l is q^{kl}.

    By Parseval on each ball, S_k = ||E_k g - E_{k-1} g||^2 for k >= 1 and
    S_0 = ||E_0 g||^2, with E_k g the average of g over the cosets of
    B_{-k}^n; no transform is needed.  On every axis the coset of an index
    is its class mod q^{L+k}, so the sums of level k - 1 come from those
    of level k by summing out the top base-q digit of every axis index.
    Each S_k comes from the difference array, never as a difference of
    squared norms, so an empty shell reads zero, not rounding noise.
    """
    q, n, L, m = g.field.q, g.n, g.L, g.m
    sums = [g.as_complex()]
    for k in range(m, 0, -1):
        top = sums[-1].reshape((q, q ** (L + k - 1)) * n)
        sums.append(top.sum(axis=tuple(range(0, 2 * n, 2)), keepdims=True))
    sums.reverse()
    # E_k g is sums[k] / q^{(m-k)n} on cells of measure q^{-kn}
    out = np.empty(m + 1)
    a = np.abs(sums[0])
    a **= 2
    out[0] = float(np.sum(a)) * float(Fraction(q) ** (-2 * m * n))
    for k in range(1, m + 1):
        d = sums[k].reshape((q, q ** (L + k - 1)) * n) - sums[k - 1] / q ** n
        out[k] = np.vdot(d, d).real * float(Fraction(q) ** ((k - 2 * m) * n))
    return out


def sobolev_norm(g, l: int) -> float:
    """||g||_l; grid functions from their shell energies, spectral
    functions frequency-side."""
    value, _ = sobolev_norm_with_tail(g, l)
    return value


def sobolev_norm_with_tail(g, l: int):
    """(||g||_l, certified tail bound on the squared norm).  A grid keeps
    its shell energies on the first call, read-only, and its values are
    frozen with them, so that no write can leave them stale.  An empty
    shell adds exactly 0, whatever l; a norm or bound past the float range
    raises ValueError."""
    if isinstance(g, SpectralFunction):
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            sq, tail = g.norm_sq(l)
        value = math.sqrt(max(sq, 0.0))
    else:
        S = getattr(g, "_shells", None)
        if S is None:
            S = _shell_energies(g)
            _freeze(S)
            _freeze(g.values)
            # not a field: == and repr stay
            object.__setattr__(g, "_shells", S)
        with np.errstate(over="ignore"):  # refused below
            w = float(g.field.q) ** (np.arange(S.size) * l)
            terms = np.zeros_like(S)
            np.multiply(w, S, out=terms, where=S > 0)
            value, tail = math.sqrt(float(np.sum(terms))), 0.0
    if not (math.isfinite(value) and math.isfinite(tail)):
        raise ValueError(f"the Sobolev norm at l = {l} is beyond float "
                         f"range")
    return value, tail


def hinf_metric(f: GridFunction, g: GridFunction, l_max=None) -> float:
    """max_l 2^{-l} ||f-g||_l / (1 + ||f-g||_l), from the shell energies
    of f - g.

    The cutoff is self-certifying: once 2^{-(l+1)} cannot beat the
    running max no larger l can either, because x/(1+x) < 1; l_max stops
    the walk sooner.
    """
    cur = _shell_energies(f - g)
    if not cur.any():
        return 0.0
    w1 = float(f.field.q) ** np.arange(cur.size)
    best = 0.0
    l = 0
    while True:
        nl = math.sqrt(float(np.sum(cur)))
        best = max(best, 2.0 ** (-l) * nl / (1.0 + nl))
        l += 1
        if 2.0 ** (-l) <= best or l_max is not None and l > l_max:
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
    rational = isinstance(w, (int, Fraction))
    if (w if rational else complex(w).real) <= -1:
        raise DivergentIntegral(f"|xi|^{w} not integrable near 0",
                                multiplier=w)
    if rational and not as_series:
        qq = Fraction(q)
        return (1 - 1 / qq) * qq ** (-m * (w + 1)) / (1 - qq ** (-(w + 1)))
    wc = complex(w)
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


def _axis_power_weights(g: GridFunction, w, zero_mode="closed",
                        exact=False):
    """Per-index weight: coset measure times |rep|^w, with the zero cell
    integrated analytically (or left out, with ``zero_mode="skip"``);
    ``exact`` (an int or Fraction w) gives Fractions, the zero cell in
    closed form."""
    q = g.field.q
    f = g.field.ops.norm_exps(g.L, g.m)
    if exact:
        meas, we = Fraction(q) ** (-g.m), Fraction(w)
        out = np.empty(g.Q, dtype=object)
        out[1:] = [meas * Fraction(q) ** (int(e) * we) for e in f[1:]]
        out[0] = 0 if zero_mode == "skip" else _zero_cell_power(q, we, g.m)
        return out
    lnq = math.log(q)
    wc = complex(w)
    out = np.empty(g.Q, dtype=complex)
    out[1:] = np.exp((f[1:] * wc) * lnq) * (q ** float(-g.m))
    out[0] = 0.0 if zero_mode == "skip" else complex(_zero_cell_power(
        q, w, g.m, as_series=(zero_mode == "series")))
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
    # exact only for integral exponents: q^(k w) is a Fraction just then
    exact = g.is_exact and all(isinstance(x, (int, Fraction))
                               and x.denominator == 1 for x in w)
    v = g.values if exact else g.as_complex()
    for ax in range(g.n):
        skip = complex(w[ax]).real <= -1  # g vanishes on that zero cell
        wt = _axis_power_weights(g, w[ax], "skip" if skip else zero_mode,
                                 exact)
        v = np.tensordot(v, wt, axes=([0], [0]))
    return v[()] if exact else complex(v)


def _touches_hyperplane(v: np.ndarray, ax: int) -> bool:
    sl = [slice(None)] * v.ndim
    sl[ax] = 0
    return bool(np.any(v[tuple(sl)] != 0))


# -- spectral functions -------------------------------------------------------

@dataclass(frozen=True)
class Multiplier:
    """|h(xi)|^alpha attached to a frequency-side function."""

    poly: IntPolynomial
    alpha: complex

    def coordinate_profile(self):
        """(const, exponent vector) when h is a single monomial."""
        return self.poly.monomial_profile()


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
                vc = self.field.ops.int_ord(c)
                const *= (0.0 if vc is None
                          else float(Fraction(self.field.q) ** -vc)) ** a
            for ax, e in enumerate(exps):
                w[ax] += a * e
        return const, w

    def norm_sq(self, l: int):
        """(||T||_l^2, tail bound): integral of [xi]^l |T-hat|^2."""
        exps = self.coordinate_exponents(scale=2)
        vals = np.asarray(np.abs(self.base.as_complex()) ** 2)  # n = 0 too
        # an uncharged cell adds exactly 0, also where [xi]^l overflows
        np.multiply(vals, _bracket_weight(self.base, l), out=vals,
                    where=vals > 0)
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
                            np.conj(base.as_complex()) * gh.as_complex())
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


# -- the cell engine ----------------------------------------------------------

def _homogenised(g: IntPolynomial):
    """(H, deg g), H(x, z) = sum c x^e z^(deg g - |e|) over the terms of g:
    ord g(X / pi^D) = ord H(X, p^D) - D deg g, as p^D encodes pi^D."""
    deg = max(g.degree(), 0)
    return IntPolynomial.make(g.n + 1, {e + (deg - sum(e),): c
                                        for e, c in g.terms}), deg


@lru_cache(maxsize=256)
def hasse_factor(h: IntPolynomial, ops):
    """(top, deg, H, parts) of h over the field: deg is h's degree in the
    field, top the least order of its coefficients of that degree (Hasse
    derivatives of h, None if h = 0), H = _homogenised(h), and parts the
    (|gamma|, D^gamma h) of the Hasse derivatives nonzero in the field, a
    constant one kept as its order and any other as (H, deg, the least
    order of its coefficients)."""
    terms = {e: c for e, c in h.terms if ops.int_ord(c) is not None}
    deg = max(map(sum, terms), default=0)
    h = IntPolynomial.make(h.n, terms)
    parts = []
    for gamma, dh in h.hasse_derivatives():
        ords = [o for o in map(ops.int_ord, dh.coefficients())
                if o is not None]
        if ords:
            parts.append((sum(gamma), ords[0] if dh.is_constant
                          else (*_homogenised(dh), min(ords))))
    top = min((ops.int_ord(c) for e, c in terms.items() if sum(e) == deg),
              default=None)
    return top, deg, _homogenised(h), parts


def hasse_classify(factor, ops, cells, D, M, cap):
    """(status, order) of h = ``factor`` (see ``hasse_factor``) on each
    cell X / pi^D + pi^M R^n, one integer column X of ``cells`` each.

    Denef's expansion h(X / pi^D + pi^M y) = sum_gamma D^gamma h(X / pi^D)
    pi^{M |gamma|} y^gamma decides it.  Status 0, constant: |h| = q^-order
    on the cell, as h(X / pi^D) lies below every other term.  1, smooth:
    the linear terms, of least order ``order``, lie below the higher ones
    and h(X / pi^D) not below them, so h pushes the cell's Haar measure
    onto pi^order R.  2, open: ord h >= order on the cell.  Every order is
    read capped at ``cap``, which decides every cell whose orders lie below
    it.  Derivatives are evaluated only on the cells where ord h(X / pi^D)
    does not already lie below every term's least possible order.
    """
    (H, deg), parts = factor[2:]
    points = np.vstack([cells, np.full((1, cells.shape[1]), ops.p ** D,
                                       cells.dtype)])
    order = ops.poly_ords(H, points, cap + D * deg) - D * deg
    status = np.zeros(len(order), np.int64)
    least = [cap, cap]  # perturbations of order one, and of higher order
    polys = []  # (|gamma|, D^gamma h, least order its term can take)
    for size, g in parts:
        if isinstance(g, tuple):
            polys.append((size, g, g[2] - D * g[1] + M * size))
        else:
            least[size > 1] = min(least[size > 1], g + M * size)
    # a term that cannot read below its group's constant ones is left out,
    # and so is a higher one that cannot read below a constant linear one
    polys = [t for t in polys if t[2] < least[t[0] > 1]
             and (t[0] == 1 or t[2] <= least[0])]
    open_ = np.flatnonzero(order >= min([t[2] for t in polys] + least))
    if not open_.size:
        return status, order
    at = points[:, open_]
    for size, (G, gdeg, _), _ in polys:
        o = ops.poly_ords(G, at, cap - M * size + D * gdeg) - D * gdeg
        least[size > 1] = np.minimum(least[size > 1], o + M * size)
    lin, higher = least
    oc = order[open_]
    pert = np.minimum(lin, higher)
    const = oc < pert
    smooth = ~const & (lin < higher) & (oc >= lin)
    status[open_] = np.where(const, 0, np.where(smooth, 1, 2))
    order[open_] = np.where(const, oc, np.where(smooth, lin, pert))
    return status, order


def walk_cells(cells, p, D, M, visit, budget, exhausted):
    """Walk the cells X / pi^D + pi^M R^n, one integer column X of
    ``cells`` each (see ``localfield``), level by level.

    ``visit(chunk, M)`` takes at most KERNEL_BLOCK cells of level M at a
    time, in order, and returns the mask of those to split.  The p^n
    children X + d p^(M+D) of a split cell follow those of the cells
    split before it, in ``np.ndindex`` order of the digits d; past 2^63
    they are Python ints.  A level's children are charged to ``budget``
    before any is visited: past it, BudgetExceeded with
    ``exhausted.format(M + 1)``, M the level of the split cells.
    """
    n = cells.shape[0]
    digits, step, spent = np.zeros((n, 1), np.int64), 0, 0
    while cells.shape[1]:
        per = digits.shape[1]  # children of each cell; 1: the cells
        total = cells.shape[1] * per
        split = []
        for lo in range(0, total, KERNEL_BLOCK):
            at = np.arange(lo, min(lo + KERNEL_BLOCK, total))
            kids = cells[:, at // per] + digits[:, at % per] * step
            split.append(kids[:, visit(kids, M)])
        cells = np.concatenate(split, axis=1)
        spent += cells.shape[1] * p ** n
        if spent > budget:
            raise BudgetExceeded(exhausted.format(M + 1))
        step, digits = p ** (M + D), np.indices((p,) * n).reshape(n, -1)
        if step * p >= 2 ** 63:  # children past int64: Python ints
            cells, digits = cells.astype(object), digits.astype(object)
        M += 1


# -- general polynomial multipliers --------------------------------------------

def _poly_weighted_integral(carrier: GridFunction, mults, tol=1e-12,
                            max_cells=2_000_000, max_depth=1000):
    """Sum over carrier cells of value * integral_cell prod |h_j|^{beta_j}.

    Certified adaptive refinement on the cell engine (``walk_cells`` and
    ``hasse_classify``): on each cell a factor is either constant,
    closed by the smooth-zero pushforward, or the cell splits; a cell
    whose sup bound is below its share of tol adds that bound to the
    tail.  Needs Re(beta_j) > 0.  Split 1 + max_cells / q^n, or one at
    depth max_depth, raises BudgetExceeded (there a cell's share of tol is
    at most tol 2^-1000, past any useful tail, and near the float range).
    A cell X / pi^L + pi^M R^n is the integer vector X; its orders are read
    capped at top + M deg + 1 (see ``hasse_factor``), past every
    perturbation bound, so no decision changes and a zero reads as the
    cap.  Split cells sum their children in ``np.ndindex`` order.
    """
    ops, p, D, n = carrier.field.ops, carrier.field.p, carrier.L, carrier.n
    factors = [hasse_factor(h, ops) for h, _ in mults]
    for (h, _), (_, deg, *_) in zip(mults, factors):
        if not deg and not h.is_constant:
            raise ValueError(f"symbol {h} is constant in the field")
    for h, b in mults:
        if complex(b).real <= 0:
            raise DivergentIntegral(
                "general symbols need positive real exponent", multiplier=h)
    nz = np.nonzero(carrier.values)
    cells = np.array(nz, dtype=np.int64).reshape(n, -1)
    for (h, _), (top, *_) in zip(mults, factors):
        if top is None and cells.size:
            raise DivergentIntegral(
                "symbol vanishes identically on a charged cell",
                multiplier=h)
    children = p ** n
    message = "refinement budget exhausted before the certified tolerance " \
        "was reached"
    # (level, values, tails, split) per chunk; each level's tol and rule
    chunks, tols, rule = [], [tol / max(1, cells.shape[1])], {}

    def visit(chunk, M):
        # keep the chunk's (values, tails, split), a split cell's value
        # left at 0 for its children, and split those
        if len(tols) == M - carrier.m:  # a new level
            tols.append(tols[-1] / children)
            rule.clear()
        vol = float(Fraction(p) ** (-M * n))  # correctly rounded
        status, ords = [], []
        key = np.zeros(chunk.shape[1], np.int64)  # numbers the patterns
        for factor in factors:
            top, deg = factor[:2]
            cap = top + M * deg + 1
            s, o = hasse_classify(factor, ops, chunk, D, M, cap)
            status.append(s)
            ords.append(o)
            width = cap + D * deg + 1  # every order lies in [-D deg, cap]
            key = np.unique(key, return_inverse=True)[1].reshape(-1) \
                * 3 * width + s * width + o + D * deg
        _, first, at = np.unique(key, return_index=True, return_inverse=True)
        rows = list(map(tuple, np.array(status + ords)[:, first].T.tolist()))
        rule.update({row: _cell_outcome(row, mults, p, vol, tols[-1])
                     for row in rows if row not in rule})
        chunks.append((M, *(np.array(x)[at.reshape(-1)]
                            for x in zip(*(rule[row] for row in rows)))))
        if chunks[-1][3].any() and M - carrier.m >= max_depth:
            raise BudgetExceeded(message)
        return chunks[-1][3]

    walk_cells(cells, p, D, carrier.m, visit, max_cells + children - 1,
               message)
    levels = [[np.concatenate(x) for x in zip(*(c[1:] for c in level))]
              for _, level in groupby(chunks, lambda c: c[0])]
    # deepest level first, each split cell adds up its children
    for (vals, tails, split), (kv, kt, _) in zip(levels[-2::-1],
                                                  levels[:0:-1]):
        for c in range(children):
            vals[split] += kv[c::children]
            tails[split] += kt[c::children]
    total, tail = 0.0 + 0.0j, 0.0
    for val, cval, ctail in zip(map(complex, carrier.values[nz].tolist()), *(
            x.tolist() for x in levels[0][:2])) if levels else ():
        total += val * cval
        tail += abs(val) * ctail
    return total, tail


def _cell_outcome(row, mults, p, vol, tol):
    """(value, tail, split) of a cell of measure vol whose factors have the
    statuses row[:k] (0 constant, 1 smooth, 2 split) and the orders
    row[k:]: a closed value, or a tail below tol, or a split."""
    status, ords = row[:len(mults)], row[len(mults):]
    lnp = math.log(p)
    if 2 not in status and status.count(1) <= 1:
        out = 1.0 + 0.0j
        for s, e, (_, b) in zip(status, ords, mults):
            bc = complex(b)
            if s == 0:
                out *= cmath.exp(-e * bc * lnp)
            else:
                out *= (1 - 1.0 / p) * cmath.exp(-e * bc * lnp) \
                    / (1 - cmath.exp(-(1 + bc) * lnp))
        return vol * out, 0.0, False
    sup_exp = 0.0  # - log_q of the sup bound of prod |h|^{Re b}
    for e, (_, b) in zip(ords, mults):
        sup_exp += e * complex(b).real
    upper = vol * math.exp(-sup_exp * lnp)
    return (0.0 + 0.0j, upper, False) if upper < tol \
        else (0.0 + 0.0j, 0.0, True)


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
    q, ops = g.field.q, g.field.ops
    # outside the dual ball the character integral vanishes
    for c in xi0:
        if ops.coord_norm(c) > Fraction(q) ** g.m:
            keep = [ax for ax in range(g.n) if ax not in J]
            return GridFunction.zeros(g.field, len(keep), g.L, g.m)
    v = g.as_complex()
    meas = float(Fraction(q) ** (-g.m))
    for ax, c in sorted(zip(J, xi0), reverse=True):
        ph = ops.char_weights(c, g.L, g.m) * meas
        v = np.tensordot(v, ph, axes=([ax], [0]))
    return GridFunction(g.field, g.n - len(J), g.L, g.m, v)


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
    ops = base.field.ops
    if max(map(ops.coord_norm, point)) > Fraction(q) ** base.m:
        raise ValueError("point outside the dual resolution ball")
    v = base.as_complex()
    meas = float(Fraction(q) ** (-base.m))
    for ax in reversed(range(base.n)):
        c = point[ax]
        ph = np.conj(ops.char_weights(c, base.L, base.m))  # chi(+x.xi)
        we = w[ax]
        wt = _axis_power_weights(base, we)
        # zero cell: the character is 1 there, the power integral closes it
        col = ph * 0.0
        col[1:] = ph[1:] * wt[1:]
        col[0] = wt[0]
        v = np.tensordot(v, col, axes=([ax], [0]))
    return complex(v) * const


def random_grid(field: FieldSpec, n: int, L: int, m: int, rng) -> GridFunction:
    """Random dense complex grid function."""
    Q = field.q ** (L + m)
    v = np.asarray(rng.standard_normal((Q,) * n)
                   + 1j * rng.standard_normal((Q,) * n))  # 0-d when n = 0
    return GridFunction(field, n, L, m, v)
