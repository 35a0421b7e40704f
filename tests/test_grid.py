import cmath
import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ultrazeta.errors import BudgetExceeded, DivergentIntegral, Inexact
from ultrazeta.grid import (MAX_GRID_CELLS, GridFunction, Multiplier,
                            SpectralFunction, convolve, dirac, dual_norm,
                            embed, fourier_transform, hinf_metric, l2_norm,
                            pairing, partial_fourier_restrict, power_integral,
                            random_grid, reflect, sobolev_norm,
                            spectral_space_value, sup_norm,
                            sup_norm_constant_sq, unify_pair,
                            inverse_fourier_transform, sobolev_norm_with_tail)
from ultrazeta.localfield import (FieldSpec, _axis_norm_exps,
                                  char_fraction_of_rational, digits_of,
                                  p_adic_ord)
from ultrazeta.intpoly import IntPolynomial
from ultrazeta.localfield import LaurentFp, LocalFieldElement, Qp
from ultrazeta.pdo import riesz_pairing

F3 = Qp(3)


def reference_ft(g):
    """Direct double sum with exact character exponents; the slow oracle."""
    q = g.field.q
    Q = g.Q
    width = g.L + g.m
    out = GridFunction.zeros(g.field, g.n, g.m, g.L)
    vol = float(Fraction(q) ** (-g.m * g.n))
    for oidx in np.ndindex(*(Q,) * g.n):
        acc = 0.0 + 0.0j
        for iidx in np.ndindex(*(Q,) * g.n):
            val = complex(g.values[iidx])
            if val == 0:
                continue
            if g.field.kind == "Qp":
                # x.xi = sum i_k j_k / q^{L+m} mod 1
                r = Fraction(sum(int(i) * int(j)
                                 for i, j in zip(iidx, oidx)), q ** width)
                phase = cmath.exp(-2j * math.pi * float(r % 1))
            else:
                c = 0
                for i, j in zip(iidx, oidx):
                    di = digits_of(int(i), q, width)
                    dj = digits_of(int(j), q, width)
                    c += sum(di[t] * dj[width - 1 - t] for t in range(width))
                phase = cmath.exp(-2j * math.pi * (c % q) / q)
            acc += val * phase
        out.values[oidx] = acc * vol
    return out


@pytest.mark.parametrize("field", [Qp(2), Qp(3), LaurentFp(3)])
@pytest.mark.parametrize("n", [1, 2])
def test_ft_matches_reference(field, n):
    rng = np.random.default_rng(hash((field.kind, field.p, n)) % 2 ** 31)
    g = random_grid(field, n, 1, 1, rng)
    fast = fourier_transform(g)
    slow = reference_ft(g)
    assert np.max(np.abs(fast.values - slow.values)) < 1e-12


# digit counts n(L+m) off the GEMM group size (4 digits at p=2, 2 at p=3,
# 1 at p=5 and p=7), and the one-cell grids L = m = 0
@pytest.mark.parametrize("field, n, L, m", [
    (LaurentFp(2), 1, 3, 4), (LaurentFp(2), 3, 1, 1), (LaurentFp(3), 1, 2, 2),
    (LaurentFp(5), 1, 2, 1), (LaurentFp(5), 3, 1, 0), (LaurentFp(7), 1, 1, 1),
    (LaurentFp(2), 2, 0, 0), (LaurentFp(5), 1, 0, 0), (Qp(3), 1, 0, 0)])
def test_ft_matches_reference_digit_groups(field, n, L, m):
    rng = np.random.default_rng(field.p * 100 + n * 10 + L + m)
    g = random_grid(field, n, L, m, rng)
    fast = fourier_transform(g)
    slow = reference_ft(g)
    assert (fast.L, fast.m) == (m, L)
    assert np.max(np.abs(fast.values - slow.values)) < 1e-12


@st.composite
def _grid_pairs(draw):
    """Two random grids on one field kind, p in {2, 3, 5, 7}, n <= 3 and at
    most 4096 cells."""
    kind = draw(st.sampled_from(["Qp", "LaurentFp"]))
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(1, 3))
    width = 0
    while p ** ((width + 1) * n) <= 4096:
        width += 1
    w = draw(st.integers(0, width))
    L = draw(st.integers(0, w))
    field = Qp(p) if kind == "Qp" else LaurentFp(p)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return (random_grid(field, n, L, w - L, rng),
            random_grid(field, n, L, w - L, rng))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_grid_pairs(), st.complex_numbers(max_magnitude=4),
       st.complex_numbers(max_magnitude=4))
def test_transform_properties(pair, a, b):
    f, g = pair
    fh, gh = fourier_transform(f), fourier_transform(g)
    # involution F(F g) = g(-x)
    assert np.max(np.abs(fourier_transform(gh).values
                         - reflect(g).values)) < 1e-12
    # Parseval
    assert abs(l2_norm(gh) - l2_norm(g)) < 1e-12 * max(1.0, l2_norm(g))
    # linearity
    lin = fourier_transform(f.scale(a) + g.scale(b)).values
    scale = 1.0 + abs(a) * np.max(np.abs(fh.values)) \
        + abs(b) * np.max(np.abs(gh.values))
    assert np.max(np.abs(lin - (a * fh.values + b * gh.values))) \
        < 1e-12 * scale


@pytest.mark.parametrize("kind", ["Qp", "LaurentFp"])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_axis_tables_match_per_index_definitions(kind, p):
    for width in range(7):
        for L in sorted({0, width // 2, width}):
            m = width - L
            Q = p ** width
            neg = FieldSpec(kind, p).ops.negation(L, m)
            exps = _axis_norm_exps(p, L, m)
            assert neg.shape == exps.shape == (Q,)
            for i in range(Q):
                d = digits_of(i, p, width)
                if kind == "Qp":
                    assert neg[i] == (Q - i) % Q
                else:
                    assert neg[i] == sum((-x) % p * p ** t
                                         for t, x in enumerate(d))
                if i == 0:
                    assert exps[i] < -10 ** 8
                else:
                    v = next(t for t, x in enumerate(d) if x)
                    assert exps[i] == L - v


def test_ft_unit_ball_fixed_point():
    g = GridFunction.indicator_ball(F3, 1, 0, L=1, m=1)
    gh = fourier_transform(g)
    assert np.max(np.abs(gh.values - g.values)) < 1e-14


def test_ft_single_coset_formula():
    # g = 1_{1+3Z_3}: ghat(xi) = (1/3) chi(-xi) on the ball of radius 3
    g = GridFunction.indicator_ball(F3, 1, -1, center=[Fraction(1)])
    gh = fourier_transform(g)
    for i in range(gh.Q):
        xi = Fraction(i, 3 ** gh.L)
        expect = cmath.exp(-2j * math.pi
                           * float(char_fraction_of_rational(3, xi))) / 3
        assert abs(gh.values[i] - expect) < 1e-14


@pytest.mark.parametrize("field", [Qp(3), LaurentFp(5)])
def test_involution_and_parseval(field):
    rng = np.random.default_rng(7)
    for k in range(20):
        n = 1 + k % 2
        g = random_grid(field, n, k % 3, 1 + k % 2, rng)
        g2 = fourier_transform(fourier_transform(g))
        assert np.max(np.abs(g2.values - reflect(g).values)) < 1e-12
        assert abs(l2_norm(fourier_transform(g)) - l2_norm(g)) < 1e-12


def test_norm_examples():
    g = GridFunction.indicator_ball(F3, 1, 0)
    for l in (0, 1, 4):
        assert abs(sobolev_norm(g, l) - 1.0) < 1e-14
    rng = np.random.default_rng(1)
    for _ in range(20):
        h = random_grid(F3, 2, 1, 1, rng)
        assert abs(sobolev_norm(h, 0) - l2_norm(h)) < 1e-10


def test_norms_monotone():
    rng = np.random.default_rng(2)
    for _ in range(10):
        g = random_grid(F3, 1, 2, 1, rng)
        norms = [sobolev_norm(g, l) for l in range(6)]
        assert all(a <= b + 1e-12 for a, b in zip(norms, norms[1:]))


def test_sup_norm_bound():
    # ||g||_inf <= C(n,l) ||g||_l for l > n, with the closed-form constant
    rng = np.random.default_rng(3)
    for k in range(50):
        n = 1 + k % 2
        l = n + 1 + k % 3
        g = random_grid(F3, n, 1, 1, rng)
        c = math.sqrt(float(sup_norm_constant_sq(F3, n, l)))
        assert sup_norm(g) <= c * sobolev_norm(g, l) + 1e-10


def test_pairing_examples():
    rng = np.random.default_rng(4)
    g = random_grid(F3, 2, 1, 1, rng)
    # [delta, g] = g(0)
    d = dirac(F3, 2, support_exp=g.m)
    assert abs(pairing(d, g) - complex(g.values[0, 0])) < 1e-12
    # [g, g] = ||g||^2
    T = SpectralFunction(fourier_transform(g), ())
    assert abs(pairing(T, g) - l2_norm(g) ** 2) < 1e-10


def test_pairing_continuity_bound():
    rng = np.random.default_rng(5)
    xi1 = IntPolynomial.make(2, {(1, 0): 1})
    for k in range(20):
        g = random_grid(F3, 2, 1, 1, rng)
        base = random_grid(F3, 2, 1, 1, rng)
        T = SpectralFunction(base, (Multiplier(xi1, 0.8 + 0.1j),))
        for m in (1, 2, 4):
            assert abs(pairing(T, g)) <= \
                dual_norm(T, m) * sobolev_norm(g, m) + 1e-9


def test_pairing_bound_polynomial_symbol():
    # Cauchy-Schwarz through the certified-refinement route
    rng = np.random.default_rng(17)
    h = IntPolynomial.make(2, {(2, 0): 1, (0, 2): 1})
    for _ in range(5):
        base = random_grid(F3, 2, 1, 1, rng)
        g = random_grid(F3, 2, 1, 1, rng)
        T = SpectralFunction(base, (Multiplier(h, 0.8),))
        val = pairing(T, g)
        for m in (0, 2):
            assert abs(val) <= dual_norm(T, m) * sobolev_norm(g, m) + 1e-8


def test_refinement_budget_guard():
    from ultrazeta.errors import BudgetExceeded
    from ultrazeta.grid import _poly_weighted_integral

    h = IntPolynomial.make(1, {(2,): 1})
    carrier = GridFunction.indicator_ball(F3, 1, 0, L=0, m=0)
    with pytest.raises(BudgetExceeded):
        _poly_weighted_integral(carrier, [(h, 0.4)], tol=1e-30,
                                max_cells=10)


def test_refinement_depth_guard():
    # at a singular zero a small beta splits one cell a level for
    # thousands of levels: a split at max_depth raises BudgetExceeded
    from ultrazeta.grid import _poly_weighted_integral

    h = IntPolynomial.make(1, {(2,): 1, (3,): 1})
    carrier = GridFunction.indicator_ball(F3, 1, 0, L=0, m=0)
    want = _poly_weighted_integral(carrier, [(h, 0.5)])  # 25 levels deep
    assert _poly_weighted_integral(carrier, [(h, 0.5)], max_depth=26) \
        == want
    with pytest.raises(BudgetExceeded):  # its split at level 25
        _poly_weighted_integral(carrier, [(h, 0.5)], max_depth=25)
    with pytest.raises(BudgetExceeded):
        _poly_weighted_integral(carrier, [(h, 0.01)], max_depth=30)


def test_spectral_construction_rejects_divergent():
    xi1 = IntPolynomial.make(1, {(1,): 1})
    base = GridFunction.indicator_ball(F3, 1, 0, L=1, m=1)
    with pytest.raises(DivergentIntegral):
        SpectralFunction(base, (Multiplier(xi1, -0.8),))
    # fine when the zero cell is uncharged
    off = GridFunction.zeros(F3, 1, 1, 1)
    off.values[1] = 1.0
    SpectralFunction(off, (Multiplier(xi1, -0.8),))


def test_partial_restrict_indicator():
    g = GridFunction.indicator_ball(F3, 2, 0, L=1, m=1)
    out = partial_fourier_restrict(g, [1], [Fraction(0)])
    ref = GridFunction.indicator_ball(F3, 1, 0, L=1, m=1)
    assert np.max(np.abs(out.values - ref.values)) < 1e-13


def test_partial_restrict_ft_identity():
    # F(P_{J,xi0} g)(xi_I) = ghat(xi_I, xi0) on all grid points
    rng = np.random.default_rng(6)
    for xi0r in (Fraction(0), Fraction(1), Fraction(1, 3)):
        g = random_grid(F3, 2, 1, 1, rng)
        gh = fourier_transform(g)
        pg = partial_fourier_restrict(g, [1], [xi0r])
        pgh = fourier_transform(pg)
        j = F3.ops.coord_index(xi0r, gh.L, gh.m)
        assert np.max(np.abs(pgh.values - gh.values[:, j])) < 1e-12


def test_partial_restrict_norm_contraction():
    rng = np.random.default_rng(8)
    for _ in range(10):
        g = random_grid(F3, 2, 1, 1, rng)
        pg = partial_fourier_restrict(g, [0], [Fraction(1)])
        for l in (0, 2, 4):
            assert sobolev_norm(pg, l) <= sobolev_norm(g, l) + 1e-9


def test_partial_restrict_outside_dual_ball_vanishes():
    g = GridFunction.indicator_ball(F3, 2, 0, L=1, m=1)
    out = partial_fourier_restrict(g, [1], [Fraction(1, 27)])
    assert not np.any(out.values)


def test_partial_restrict_laurent_field():
    field = LaurentFp(3)
    rng = np.random.default_rng(15)
    g = random_grid(field, 2, 1, 1, rng)
    gh = fourier_transform(g)
    xi0 = LocalFieldElement.from_laurent_coeffs(field, {-1: 1})
    pg = partial_fourier_restrict(g, [1], [xi0])
    pgh = fourier_transform(pg)
    j = field.ops.coord_index(xi0, gh.L, gh.m)
    assert np.max(np.abs(pgh.values - gh.values[:, j])) < 1e-12


def test_metric_properties():
    rng = np.random.default_rng(9)
    f = random_grid(F3, 1, 1, 1, rng)
    assert hinf_metric(f, f) == 0.0
    for _ in range(10):
        a = random_grid(F3, 1, 1, 1, rng)
        b = random_grid(F3, 1, 1, 1, rng)
        dab = hinf_metric(a, b)
        assert abs(dab - hinf_metric(b, a)) < 1e-12
        assert dab <= 1.0
    for _ in range(50):
        a = random_grid(F3, 1, 1, 1, rng)
        b = random_grid(F3, 1, 1, 1, rng)
        c = random_grid(F3, 1, 1, 1, rng)
        assert hinf_metric(a, c) <= \
            hinf_metric(a, b) + hinf_metric(b, c) + 1e-12


def test_metric_lmax_truncation():
    rng = np.random.default_rng(10)
    a = random_grid(F3, 1, 1, 1, rng)
    b = random_grid(F3, 1, 1, 1, rng)
    assert hinf_metric(a, b, l_max=40) == pytest.approx(hinf_metric(a, b))


@pytest.mark.parametrize("l_max", [0, 3, 700])
def test_metric_lmax_stops_before_overflow(l_max):
    # no later term beats 2^-l <= best, so the walk stops there whatever
    # l_max says; at l = 700 the weights would pass the float range
    rng = np.random.default_rng(23)
    a, b = (random_grid(F3, 1, 1, 2, rng) for _ in range(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = hinf_metric(a, b, l_max=l_max)
        full = hinf_metric(a, b)
    if l_max >= 3:
        assert got == full
    else:
        assert 0 < got <= full


def test_convolution_identities():
    rng = np.random.default_rng(11)
    g = random_grid(F3, 1, 1, 1, rng)
    # delta approximant at the resolution of g reproduces g
    m = g.m
    bump = GridFunction.indicator_ball(F3, 1, -m).scale(float(3 ** m))
    out = convolve(bump, g)
    a, b = unify_pair(out, g)
    assert np.max(np.abs(a.values - b.values)) < 1e-12
    # 1_{Zp} * 1_{Zp} = 1_{Zp}
    one = GridFunction.indicator_ball(F3, 1, 0, L=1, m=1)
    conv = convolve(one, one)
    c, d = unify_pair(conv, one)
    assert np.max(np.abs(c.values - d.values)) < 1e-13


def test_convolution_ft_product():
    rng = np.random.default_rng(12)
    f = random_grid(F3, 1, 1, 1, rng)
    g = random_grid(F3, 1, 2, 1, rng)
    conv = convolve(f, g)
    lhs = fourier_transform(conv)
    fh, gh = unify_pair(fourier_transform(f), fourier_transform(g))
    rhs = GridFunction(fh.field, 1, fh.L, fh.m, fh.values * gh.values)
    a, b = unify_pair(lhs, rhs)
    assert np.max(np.abs(a.values - b.values)) < 1e-12


def test_embed_preserves_function():
    rng = np.random.default_rng(13)
    g = random_grid(F3, 2, 1, 1, rng)
    big = embed(g, 2, 2)
    assert abs(l2_norm(big) - l2_norm(g)) < 1e-12
    for l in (0, 3):
        assert abs(sobolev_norm(big, l) - sobolev_norm(g, l)) < 1e-9
    # evaluation agrees at a sample point
    pt = [Fraction(1, 3), Fraction(2)]
    assert complex(big.evaluate(pt)) == pytest.approx(
        complex(g.evaluate(pt)))


def test_embed_and_convolve_laurent():
    field = LaurentFp(3)
    rng = np.random.default_rng(16)
    g = random_grid(field, 1, 1, 1, rng)
    big = embed(g, 2, 2)
    assert abs(l2_norm(big) - l2_norm(g)) < 1e-12
    x = LocalFieldElement.from_laurent_coeffs(field, {-1: 2, 0: 1})
    assert complex(big.evaluate([x])) == pytest.approx(
        complex(g.evaluate([x])))
    # delta approximant reproduces g over the Laurent field too
    bump = GridFunction.indicator_ball(field, 1, -g.m).scale(
        float(3 ** g.m))
    out = convolve(bump, g)
    a, b = unify_pair(out, g)
    assert np.max(np.abs(a.values - b.values)) < 1e-12


def test_evaluate_with_elements():
    g = GridFunction.indicator_ball(F3, 1, 0, L=1, m=1)
    x = LocalFieldElement.from_rational(F3, Fraction(2))
    assert complex(g.evaluate([x])) == 1.0
    y = LocalFieldElement.from_rational(F3, Fraction(1, 3))
    assert complex(g.evaluate([y])) == 0.0


def test_grid_json_roundtrip():
    rng = np.random.default_rng(14)
    g = random_grid(F3, 2, 1, 1, rng)
    h = GridFunction.from_json(g.to_json())
    assert np.max(np.abs(g.values - h.values)) < 1e-15


def test_power_integral_divergence_guard():
    g = GridFunction.indicator_ball(F3, 1, 0, L=1, m=1)
    with pytest.raises(DivergentIntegral):
        power_integral(g, [-1.2])


def _zero_cell_reference(q, w, m):
    """integral over B_{-m} of |x|^w: sum over the spheres |x| = q^-j,
    j >= m, of measure (1 - 1/q) q^-j, a geometric series."""
    r = Fraction(q) ** -(w + 1)
    return (1 - Fraction(1, q)) * r ** m / (1 - r)


@pytest.mark.parametrize("field", [Qp(3), LaurentFp(2)])
@pytest.mark.parametrize("n, w", [(1, [0]), (1, [3]), (1, [-2]),
                                  (2, [1, 2]), (2, [-3, 0])])
def test_exact_power_integral_matches_per_cell_sum(field, n, w):
    rng = np.random.default_rng(24)
    L, m, q = 1, 2, field.q
    g = _exact_grid(field, n, L, m, rng)
    for ax, e in enumerate(w):
        if e <= -1:  # the integral converges only off that zero slab
            g.values[(slice(None),) * ax + (0,)] = Fraction(0)
    want = Fraction(0)
    for idx in np.ndindex(g.values.shape):
        cell = g.values[idx]
        for i, e in zip(idx, w):
            if i == 0:
                cell *= _zero_cell_reference(q, e, m) if e > -1 else 0
            else:  # |i / p^L| = q^(L - ord i), measure q^-m
                cell *= Fraction(q) ** ((L - p_adic_ord(q, i)) * e - m)
        want += cell
    got = power_integral(g, w)
    assert type(got) is Fraction and got == want


def test_power_integral_with_a_half_exponent_is_complex():
    # q^(k/2) is irrational: an exact grid takes the complex path, and
    # gives the float grid's value
    exact = GridFunction.indicator_ball(Qp(3), 1, 0, L=1, m=1, exact=True)
    flt = GridFunction.indicator_ball(Qp(3), 1, 0, L=1, m=1)
    got = power_integral(exact, [Fraction(1, 2)])
    assert type(got) is complex
    assert got == power_integral(flt, [Fraction(1, 2)])
    assert got == pytest.approx(0.8255423698129906)
    # an integral Fraction exponent stays exact
    assert type(power_integral(exact, [Fraction(2)])) is Fraction


@pytest.mark.parametrize("field", [Qp(3), LaurentFp(2)])
@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("n", [1, 2])
def test_embed_matches_per_cell_evaluation(field, exact, n):
    # each cell of the embedding holds g at its representative, 0 outside
    # the support of g
    rng = np.random.default_rng(25)
    q = field.q
    g = _exact_grid(field, n, 1, 1, rng) if exact \
        else random_grid(field, n, 1, 1, rng)
    for L, m in ((2, 1), (1, 2), (2, 2)):
        big = embed(g, L, m)
        assert big.values.dtype == g.values.dtype
        for idx in np.ndindex(big.values.shape):
            rep = [LocalFieldElement.from_digits(
                field, -L, digits_of(i, q, L + m)) for i in idx]
            assert big.values[idx] == g.evaluate(rep)
            assert type(big.values[idx]) is (Fraction if exact
                                             else np.complex128)


def _per_cell_json_values(g, dense):
    """The payload's "values" by its per-cell definition."""
    out = []
    for idx in np.ndindex(*g.values.shape):
        v = complex(g.values[idx])
        if dense or v != 0:
            out.append({"coset": [digits_of(i, g.field.q, g.L + g.m)
                                  for i in idx],
                        "re": v.real, "im": v.imag})
    return out


@pytest.mark.parametrize("field", [Qp(2), Qp(3), LaurentFp(3)])
@pytest.mark.parametrize("n", [0, 1, 2])
@pytest.mark.parametrize("dense", [False, True])
def test_grid_json_matches_per_cell_definition(field, n, dense):
    rng = np.random.default_rng(15)
    for L, m in [(0, 0), (1, 1), (2, 0)]:
        g = random_grid(field, n, L, m, rng)
        flat = g.values.reshape(-1)
        flat[::2] = 0
        flat[1::4] = complex(-0.0, 0.0)
        if flat.size > 3:
            flat[3] = complex(math.nan, 1.0)
        if flat.size > 5:
            flat[5] = complex(math.inf, -math.inf)
        got = g.to_json(dense=dense)
        assert json.dumps(got["values"]) == \
            json.dumps(_per_cell_json_values(g, dense))
        assert (got["n"], got["L"], got["m"]) == (n, L, m)
        assert g.to_json_text(dense) == json.dumps(got, sort_keys=True)
    exact = GridFunction.indicator_ball(field, n, 0, L=1, m=1, exact=True)
    assert exact.to_json(dense=dense)["values"] == \
        _per_cell_json_values(exact, dense)
    assert exact.to_json_text(dense) == \
        json.dumps(exact.to_json(dense), sort_keys=True)


def _one_entry_grid(field, n, L, m, coset, re=1.0):
    return {"field": field.to_json(), "n": n, "L": L, "m": m,
            "values": [{"coset": coset, "re": re, "im": 0.0}]}


@pytest.mark.parametrize("obj", [
    # digit 7 is not a base-3 digit
    _one_entry_grid(Qp(3), 1, 1, 1, [[7, 0]]),
    # three digits on a two-digit axis
    _one_entry_grid(Qp(3), 1, 1, 1, [[1, 0, 2]]),
    _one_entry_grid(LaurentFp(3), 1, 1, 1, [[1]]),
    # NaN and infinite values
    _one_entry_grid(Qp(3), 1, 1, 1, [[1, 0]], re=float("nan")),
    _one_entry_grid(Qp(3), 1, 1, 1, [[1, 0]], re=float("inf")),
    # one coordinate on an n = 2 grid
    _one_entry_grid(Qp(3), 2, 1, 1, [[1, 0]]),
    # malformed digits and values
    _one_entry_grid(Qp(3), 1, 1, 1, [[1.0, 0]]),
    _one_entry_grid(Qp(3), 1, 1, 1, [1]),
    _one_entry_grid(Qp(3), 1, 1, 1, [[1, 0]], re="1"),
    # a document, field or entry that is not an object; values not a list
    [_one_entry_grid(Qp(3), 1, 1, 1, [[1, 0]])],
    {**_one_entry_grid(Qp(3), 1, 1, 1, [[1, 0]]), "field": "Qp"},
    {**_one_entry_grid(Qp(3), 1, 1, 1, [[1, 0]]), "values": [[[1, 0]]]},
    {**_one_entry_grid(Qp(3), 1, 1, 1, [[1, 0]]), "values": {}},
    # an integer value beyond float range
    _one_entry_grid(Qp(3), 1, 1, 1, [[1, 0]], re=10 ** 400),
    # n, L and m are non-negative ints
    {**_one_entry_grid(Qp(3), 1, 1, 1, [[1, 0]]), "m": -2},
    {**_one_entry_grid(Qp(3), 1, 1, 1, [[1, 0]]), "L": 1.5},
    {**_one_entry_grid(Qp(3), 1, 1, 1, [[1, 0]]), "n": True},
    # a bool digit
    _one_entry_grid(Qp(3), 1, 1, 1, [[True, 0]]),
])
def test_grid_json_rejects_bad_cosets(obj):
    with pytest.raises(ValueError):
        GridFunction.from_json(obj)


def test_grid_json_rejects_duplicate_coset():
    obj = _one_entry_grid(Qp(3), 1, 1, 1, [[1, 0]])
    obj["values"].append({"coset": [[1, 0]], "re": 5.0, "im": 0.0})
    with pytest.raises(ValueError, match="twice"):
        GridFunction.from_json(obj)
    # the n = 0 grid that to_json emits stays valid: one cell, listed once
    g = GridFunction.zeros(Qp(3), 0, 1, 1)
    g.values[()] = 2.0
    back = GridFunction.from_json(json.loads(json.dumps(g.to_json())))
    assert back.n == 0 and complex(back.values[()]) == 2.0


def test_grid_json_wide_residue_field():
    # digits past 255 take the reader's int64 path
    g = random_grid(Qp(257), 1, 1, 0, np.random.default_rng(16))
    back = GridFunction.from_json(json.loads(g.to_json_text()))
    assert np.array_equal(back.values, g.values)
    with pytest.raises(ValueError, match="outside 0..256"):
        GridFunction.from_json(_one_entry_grid(Qp(257), 1, 1, 0, [[257]]))


def test_grid_cell_budget():
    # the traced 256^3-cell transforms fit; 3^36 cells would need 2 EiB
    assert 2 ** 24 <= MAX_GRID_CELLS < 3 ** 36
    obj = {"field": {"kind": "Qp", "p": 3}, "n": 3, "L": 6, "m": 6,
           "values": []}
    with pytest.raises(BudgetExceeded):
        GridFunction.from_json(obj)
    with pytest.raises(BudgetExceeded):
        GridFunction.zeros(Qp(3), 3, 6, 6)
    with pytest.raises(BudgetExceeded):
        GridFunction.zeros(Qp(2), 1, 10 ** 9, 0)
    g = GridFunction.zeros(Qp(2), 2, 4, 3)
    assert embed(g, 4, 4).values.shape == (256, 256)
    with pytest.raises(BudgetExceeded):
        embed(g, 8, 6)


def _exact_grid(field, n, L, m, rng):
    v = np.empty((field.q ** (L + m),) * n, dtype=object)
    v.reshape(-1)[:] = [Fraction(int(a), int(b)) for a, b in zip(
        rng.integers(-9, 10, v.size), rng.integers(1, 7, v.size))]
    return GridFunction(field, n, L, m, v)


@pytest.mark.parametrize("field", [Qp(3), LaurentFp(2)])
@pytest.mark.parametrize("exact", [False, True])
def test_n0_grids(field, exact):
    # a point: every Sobolev norm is |g|, and the metric sees one cell
    rng = np.random.default_rng(21)
    g = _exact_grid(field, 0, 1, 2, rng) if exact \
        else random_grid(field, 0, 1, 2, rng)
    h = GridFunction.zeros(field, 0, 1, 2, exact=exact)
    l2 = l2_norm(g)
    assert l2 == abs(complex(g.values[()])) > 0
    for l in range(-2, 4):
        assert sobolev_norm(g, l) == l2
        assert sobolev_norm_with_tail(g, l) == (l2, 0.0)
    assert dual_norm(fourier_transform(g), 1) == l2
    assert hinf_metric(g, h) == pytest.approx(l2 / (1 + l2), rel=1e-15)
    assert hinf_metric(g, g) == 0.0
    gh = fourier_transform(g)
    assert gh.values.shape == () and complex(gh.values[()]) == \
        complex(g.values[()])
    assert not np.shares_memory(gh.values, g.values)
    # the integral over K^0 is the value itself, exact on exact grids
    got = power_integral(g, [])
    assert got == g.values[()] and type(got) is (Fraction if exact
                                                 else complex)


@pytest.mark.parametrize("field", [Qp(2), Qp(3), LaurentFp(2),
                                   LaurentFp(3)])
@pytest.mark.parametrize("n", [0, 1, 2, 3])
@pytest.mark.parametrize("exact", [False, True])
def test_grid_operations_leave_arguments_alone(field, n, exact):
    rng = np.random.default_rng(22)
    f, g = [_exact_grid(field, n, 1, 1, rng) if exact
            else random_grid(field, n, 1, 1, rng) for _ in range(2)]
    before = [x.values.copy() for x in (f, g)]
    results = [fourier_transform(f), inverse_fourier_transform(f),
               convolve(f, g), convolve(f, embed(g, 2, 1))]
    hinf_metric(f, g)
    hinf_metric(f, g, l_max=3)
    sobolev_norm_with_tail(f, 2)
    for x, old in zip((f, g), before):
        assert x.values.dtype == old.dtype
        if exact:
            assert (x.values == old).all()
        else:
            assert x.values.tobytes() == old.tobytes()
    for r in results:
        for x in (f, g):
            assert not np.shares_memory(r.values, x.values)
    # the product in place rounds as the product into a new array
    prod = fourier_transform(f) * fourier_transform(g)
    assert results[2].values.tobytes() == \
        inverse_fourier_transform(prod).values.tobytes()
    if field.kind == "Qp":
        # the transform into a preallocated array is numpy's, bitwise
        v = f.values.astype(complex)
        scale = float(Fraction(field.q) ** (-f.m * n))
        assert results[0].values.tobytes() == \
            np.asarray(np.fft.fftn(v) * scale).tobytes()


def _char_weights_per_index(g, c):
    """chi(-rep_i * c) index by index, from the definition."""
    q = g.field.q
    out = np.empty(g.Q, dtype=complex)
    for i in range(g.Q):
        if g.field.kind == "Qp":
            cf = c.as_fraction() if isinstance(c, LocalFieldElement) \
                else Fraction(c)
            r = char_fraction_of_rational(q, -Fraction(i, q ** g.L) * cf)
            out[i] = cmath.exp(2j * math.pi * float(r))
        else:
            # digit t of rep_i sits at exponent t - L; it pairs with the
            # digit of c at -1 - (t - L)
            acc = sum(d * c.digit_at(g.L - 1 - t)
                      for t, d in enumerate(digits_of(i, q, g.L + g.m)))
            out[i] = cmath.exp(-2j * math.pi * (acc % q) / q)
    return out


@pytest.mark.parametrize("field, L, m", [
    (Qp(2), 3, 4), (Qp(3), 2, 2), (Qp(5), 1, 3), (Qp(7), 0, 2),
    (LaurentFp(2), 3, 4), (LaurentFp(3), 2, 2), (LaurentFp(5), 2, 1)])
def test_axis_char_weights_match_per_index_definition(field, L, m):
    g = GridFunction.zeros(field, 1, L, m)
    q = field.q
    cs = [LocalFieldElement.zero(field)]
    pattern = [1, q - 1, 2 % q, 0, 1, q - 1, 1] * 3
    for val in range(-m - 1, L + 2):
        for extra in (1, 4):
            # known down to the grid scale: known_to >= L
            digits = pattern[:max(L - val, 0) + extra]
            cs.append(LocalFieldElement.from_digits(field, val, digits))
    if field.kind == "Qp":
        cs += [Fraction(0), Fraction(-7, 5 * q ** 2), Fraction(22, 7 * q ** m),
               Fraction(q ** 2, 11), Fraction(3, q ** 40), 12345678901234567]
    for c in cs:
        want = _char_weights_per_index(g, c)
        assert g.field.ops.char_weights(c, g.L, g.m).tobytes() \
            == want.tobytes(), c
    # an xi0 without digits down to the grid scale is refused
    if L > 0:
        with pytest.raises(Inexact):
            g.field.ops.char_weights(LocalFieldElement.from_digits(
                field, L - 2, [1]), g.L, g.m)


# -- a grid a norm has frozen, against a fresh copy --------------------------

def _copy(g):
    """g on a new, writable array that no norm has seen."""
    return GridFunction(g.field, g.n, g.L, g.m, g.values.copy())


def _bits(g):
    return repr(g.values.tolist()) if g.is_exact else g.values.tobytes()


def _grid_pair(field, n, exact, seed):
    rng = np.random.default_rng(seed)
    return [_exact_grid(field, n, 1, 1, rng) if exact
            else random_grid(field, n, 1, 1, rng) for _ in range(2)]


@pytest.mark.parametrize("field", [Qp(2), Qp(3), LaurentFp(2),
                                   LaurentFp(3)])
@pytest.mark.parametrize("n", [0, 1, 2, 3])
@pytest.mark.parametrize("exact", [False, True])
def test_kept_spectrum_gives_the_same_bits(field, n, exact):
    """Norms, pairings and convolve give the same bits on a grid that a
    Sobolev norm has frozen as on a fresh copy of it."""
    g, h = _grid_pair(field, n, exact, 31)
    T = fourier_transform(random_grid(field, n, 1, 1,
                                      np.random.default_rng(32)))
    for l in range(-2, 4):
        assert repr(sobolev_norm(g, l)) == repr(sobolev_norm(_copy(g), l))
    assert not g.values.flags.writeable
    assert repr(pairing(T, g)) == repr(pairing(T, _copy(g)))
    for a in (0.5, 1.5, 0.0):
        assert repr(riesz_pairing([a] * n, g)) \
            == repr(riesz_pairing([a] * n, _copy(g)))
    # one operand kept, then both
    assert _bits(convolve(g, h)) == _bits(convolve(_copy(g), _copy(h)))
    assert _bits(convolve(h, g)) == _bits(convolve(_copy(h), _copy(g)))
    sobolev_norm(h, 0)
    assert _bits(convolve(g, h)) == _bits(convolve(_copy(g), _copy(h)))
    assert _bits(convolve(g, g)) == _bits(convolve(_copy(g), _copy(g)))


@pytest.mark.parametrize("field", [Qp(3), LaurentFp(2)])
@pytest.mark.parametrize("n", [0, 1, 2, 3])
@pytest.mark.parametrize("exact", [False, True])
def test_transform_after_a_norm_is_new_and_writable(field, n, exact):
    g, _ = _grid_pair(field, n, exact, 33)
    sobolev_norm(g, 1)
    gh = fourier_transform(g)
    assert gh.values.flags.writeable
    assert gh.values.tobytes() == fourier_transform(_copy(g)).values.tobytes()
    assert not np.shares_memory(gh.values, g.values)
    snapshot = _bits(g)
    gh.values[...] = 0
    assert _bits(g) == snapshot


@pytest.mark.parametrize("field", [Qp(3), LaurentFp(2)])
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_write_after_a_norm_raises(field, n):
    g, _ = _grid_pair(field, n, False, 34)
    # pairings keep nothing on the grid, so its values stay writable
    pairing(fourier_transform(g), g)
    riesz_pairing([0.5] * n, g)
    assert g.values.flags.writeable
    sobolev_norm(g, 0)
    with pytest.raises(ValueError):
        g.values[...] = 1.0
    # a grid whose values are a view: its base array freezes as well
    shape = (field.q ** 2,) * n
    base = np.random.default_rng(35).standard_normal(2 * math.prod(shape))
    v = GridFunction(field, n, 1, 1,
                     base.view(np.complex128).reshape(shape))
    sobolev_norm(v, 0)
    before = base.tobytes()
    with pytest.raises(ValueError):
        base[0] = 1.0
    with pytest.raises(ValueError):
        v.values[...] = 1.0
    assert base.tobytes() == before


@pytest.mark.parametrize("field", [Qp(2), LaurentFp(3)])
@pytest.mark.parametrize("n", [0, 1, 2, 3])
@pytest.mark.parametrize("exact", [False, True])
def test_convolve_leaves_kept_spectra_alone(field, n, exact):
    """convolve never writes into its operands: writable ones keep their
    bits, and frozen ones (after a Sobolev norm) would raise."""
    f, g = _grid_pair(field, n, exact, 36)
    big = embed(g, 2, 1)

    def convolve_all():
        convolve(f, f)
        convolve(f, big)
        convolve(big, g)
        convolve(embed(f, 1, 2), g)

    before = [_bits(x) for x in (f, g, big)]
    convolve_all()
    assert [_bits(x) for x in (f, g, big)] == before
    for x in (f, g, big):
        sobolev_norm(x, 2)
    convolve_all()
    assert [_bits(x) for x in (f, g, big)] == before


@pytest.mark.parametrize("field", [Qp(3), LaurentFp(2)])
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_reflect_shares_no_memory(field, n):
    g, _ = _grid_pair(field, n, False, 37)
    r = reflect(g)
    assert not np.shares_memory(r.values, g.values)
    assert r.values.flags.writeable
    sobolev_norm(g, 0)
    assert reflect(g).values.flags.writeable


# -- shell energies and the conjugate-kernel inverse ---------------------------

def _spectral_sobolev_sq(g, l):
    """||g||_l^2 as a per-cell weighted sum over the spectrum: the sum of
    [xi]^l |F g(xi)|^2 times the spectral cell measure."""
    gh = fourier_transform(g)
    q = float(gh.field.q)
    f = _axis_norm_exps(gh.field.q, gh.L, gh.m).astype(float)
    axis = np.maximum(np.where(f < -10 ** 8, 0.0, q ** f), 1.0)
    w = np.ones(gh.values.shape)
    for ax in range(gh.n):
        w = np.maximum(w, axis.reshape((-1,) + (1,) * (gh.n - 1 - ax)))
    a = np.abs(gh.values) ** 2 * w ** l
    return float(np.sum(a)) * float(gh.coset_measure())


def _spectral_metric(f, g, l_max=None):
    d = f - g
    if not np.any(d.values):
        return 0.0
    best, l = 0.0, 0
    while True:
        nl = math.sqrt(_spectral_sobolev_sq(d, l))
        best = max(best, 2.0 ** (-l) * nl / (1.0 + nl))
        l += 1
        if l_max is not None and l > l_max:
            return best
        if l_max is None and 2.0 ** (-l) <= best:
            return best


@st.composite
def _shell_grids(draw):
    """Two grids on one field kind, n <= 3, m >= 0 and at most 4096 cells:
    random, exact, or the indicator of a ball (whose shells past the
    ball's dual radius are empty), and a random grid to measure against.
    q^{8m} stays below 10^12, so that the rounding noise of the spectral
    reference on the empty shells stays below 1e-14 of the norm at l = 8."""
    kind = draw(st.sampled_from(["Qp", "LaurentFp"]))
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(0, 3))
    m = draw(st.integers(0, max(i for i in range(5) if p ** (8 * i) < 1e12)))
    L = draw(st.integers(0, 3))
    assume(p ** ((L + m) * n) <= 4096)
    field = Qp(p) if kind == "Qp" else LaurentFp(p)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    form = draw(st.sampled_from(["random", "exact", "ball"]))
    if form == "exact":
        g = _exact_grid(field, n, L, m, rng)
    elif form == "ball":
        g = GridFunction.indicator_ball(field, n, draw(st.integers(-m, L)),
                                        L=L, m=m)
    else:
        g = random_grid(field, n, L, m, rng)
    return g, random_grid(field, n, L, m, rng)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_shell_grids())
def test_shell_energies_match_the_weighted_spectrum(pair):
    g, h = pair
    for l in range(-3, 9):
        want = math.sqrt(_spectral_sobolev_sq(g, l))
        assert sobolev_norm(g, l) == pytest.approx(want, rel=1e-14, abs=0)
        assert sobolev_norm(_copy(g), l) == sobolev_norm(g, l)
    for a, b in ((g, h), (h, g), (g, g)):
        for l_max in (None, 0, 3, 9):
            assert hinf_metric(a, b, l_max) == pytest.approx(
                _spectral_metric(a, b, l_max), rel=1e-14, abs=0)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_grid_pairs())
def test_inverse_transform_is_the_reflected_transform(pair):
    g, _ = pair
    inv = inverse_fourier_transform(g)
    want = reflect(fourier_transform(g))
    assert (inv.L, inv.m) == (want.L, want.m) == (g.m, g.L)
    assert np.max(np.abs(inv.values - want.values)) \
        <= 1e-15 * np.max(np.abs(want.values))
    if g.field == LaurentFp(2):
        # negation is the identity, so the conjugate kernel is the kernel
        assert inv.values.tobytes() == fourier_transform(g).values.tobytes()


# digit counts that leave a remainder group at p = 2 and p = 3 (groups of
# 4 and 2 digits), forward and inverse
@pytest.mark.parametrize("field, n, L, m", [
    (LaurentFp(2), 1, 2, 3), (LaurentFp(3), 1, 2, 1), (LaurentFp(3), 3, 1, 0),
    (LaurentFp(3), 1, 3, 2)])
def test_transforms_match_reference_with_remainder_groups(field, n, L, m):
    rng = np.random.default_rng(field.p * 1000 + n * 10 + L + m)
    g = random_grid(field, n, L, m, rng)
    slow = reference_ft(g)
    assert np.max(np.abs(fourier_transform(g).values - slow.values)) < 1e-12
    assert np.max(np.abs(inverse_fourier_transform(g).values
                         - reflect(slow).values)) < 1e-12


# -- cell orders of the symbol refinement --------------------------------------

@st.composite
def _poly_at_centre(draw):
    """A field, an integer polynomial (n <= 3, degree <= 4, coefficients
    often divisible by p), a refinement centre X / pi^L with
    X = i + d p^(M+L) (digit-encoded over F_p((T))), sometimes a zero of
    the polynomial over Q_p, and a cap on the order."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    field = draw(st.sampled_from([Qp(p), LaurentFp(p)]))
    n = draw(st.integers(1, 3))
    L, M = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    i = [draw(st.integers(0, p ** (L + M) - 1)) for _ in range(n)]
    d = [draw(st.integers(0, p - 1)) for _ in range(n)]
    X = tuple(a + b * p ** (M + L) for a, b in zip(i, d))
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        left, e = 4, []
        for _ in range(n):
            e.append(draw(st.integers(0, left)))
            left -= e[-1]
        terms[tuple(e)] = draw(st.integers(-30, 30)) \
            * p ** draw(st.integers(0, 3))
    if draw(st.booleans()):
        # p^L x_j - X_j vanishes at the centre over Q_p; so does every
        # multiple
        j = draw(st.integers(0, n - 1))
        unit = tuple(int(k == j) for k in range(n))
        c = draw(st.integers(1, 3))
        terms = {unit: c * p ** L, (0,) * n: -c * X[j]}
    return field, L, X, IntPolynomial.make(n, terms), draw(st.integers(1, 8))


def _kernel_ord(field, poly, X, L, cap):
    """min(ord poly(X / pi^L), cap) from the order kernel on the
    homogenised polynomial, as the symbol refinement reads it."""
    from ultrazeta.grid import _homogenised

    H, deg = _homogenised(poly)
    points = np.array([[x] for x in X] + [[field.p ** L]], np.int64)
    return int(field.ops.poly_ords(H, points, cap + L * deg)[0]) - L * deg


def _fpt_ord(poly, X, p, L, cap):
    """min(ord poly(X / T^L), cap) over F_p((T)) by ``eval_fpt``: the
    order of T^(L deg) poly(X / T^L), summed term by term, less L deg."""
    deg = poly.degree()
    trunc = cap + L * deg
    point = [tuple(digits_of(x, p, trunc)) for x in X]
    acc = [0] * trunc
    for e, c in poly.terms:
        shift = L * (deg - sum(e))
        term = IntPolynomial.make(len(X), {e: c}).eval_fpt(point, p, trunc)
        for k in range(trunc - shift):
            acc[k + shift] = (acc[k + shift] + term[k]) % p
    first = next((k for k, a in enumerate(acc) if a), trunc)
    return first - L * deg


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_poly_at_centre())
def test_integer_cell_order_matches_fraction_order(case):
    field, L, X, h, cap = case
    p = field.p
    for poly in [h] + [dh for _, dh in h.hasse_derivatives()]:
        if field.kind == "Qp":
            v = p_adic_ord(p, poly.eval_fraction(
                tuple(Fraction(x, p ** L) for x in X)))
            want = cap if v is None else min(v, cap)
        else:
            want = _fpt_ord(poly, X, p, L, cap)
        assert _kernel_ord(field, poly, X, L, cap) == want


def test_integer_cell_order_exact_zeros():
    # a zero reads as the cap, at every cap, on both fields
    h = IntPolynomial.make(2, {(2, 0): 1, (0, 2): -1})  # x1^2 - x2^2
    zero = IntPolynomial.make(2, {})
    for field in (Qp(2), Qp(3), LaurentFp(2), LaurentFp(3)):
        for L in (0, 1, 2):
            for cap in (1, 5):
                assert _kernel_ord(field, h, (5, 5), L, cap) == cap
                assert _kernel_ord(field, h, (0, 0), L, cap) == cap
                assert _kernel_ord(field, zero, (1, 2), L, cap) == cap
    # x1^2 - x2^2 at (2, 1) / 3 is 3 / 9 over Q_3; at (2, 0) / T it is
    # 4 / T^2 = 1 / T^2 over F_3((T)), where (2, 1) / T is a zero
    assert _kernel_ord(Qp(3), h, (2, 1), 1, 5) \
        == p_adic_ord(3, Fraction(3, 9)) == -1
    assert _kernel_ord(LaurentFp(3), h, (2, 0), 1, 5) == -2
    assert _kernel_ord(LaurentFp(3), h, (2, 1), 1, 5) == 5


def test_symbol_refinement_past_int64_cells():
    # at beta = 0.2 the cell around 0 splits down to level 88; past level
    # 21, 7^(M+1) passes 2^63 and the cells are Python ints
    from ultrazeta.grid import _poly_weighted_integral

    h = IntPolynomial.make(1, {(2,): 1})
    want = (1 - 1 / 7) / (1 - 7 ** -1.4)  # integral of |x|^0.4 over R
    for field in (Qp(7), LaurentFp(7)):
        carrier = GridFunction.indicator_ball(field, 1, 0, L=0, m=0)
        val, tail = _poly_weighted_integral(carrier, [(h, 0.2)], tol=1e-30)
        assert tail < 1e-30
        assert abs(val - want) <= 1e-14


# F_2((T)) is left out: there x1^2 + x2^2 = (x1 + x2)^2 exhausts the budget
@pytest.mark.parametrize("field", [Qp(2), Qp(3), LaurentFp(3)],
                         ids=["2", "3", "F3"])
@pytest.mark.parametrize("text, k", [("x1^2+x2^2", 2), ("x1*x2", 2),
                                     ("x1^3-2*x1*x2^2", 3)])
def test_symbol_refinement_scales_with_support(field, text, k):
    # xi = x / pi^L maps X + pi^{M+L} R^n onto the cell X / pi^L + pi^M R^n
    # and |h(xi)| = p^{kL} |h(x)| for h homogeneous of degree k, so a cell
    # of an L = 1 carrier integrates to p^{nL + kL beta} times the same
    # cell, read at L = 0, of a carrier one digit finer
    from ultrazeta.grid import _poly_weighted_integral
    from ultrazeta.intpoly import parse_polynomial

    p = field.p
    h = parse_polynomial(text, 2)
    for beta in (0.7, 1.5):
        for idx in [(0, 0), (1, 0), (p, 2 * p - 1), (p + 1, 1)]:
            coarse = GridFunction.zeros(field, 2, 1, 1)
            coarse.values[idx] = 1.0
            fine = GridFunction.zeros(field, 2, 0, 2)
            fine.values[idx] = 1.0
            a, ta = _poly_weighted_integral(coarse, [(h, beta)])
            b, tb = _poly_weighted_integral(fine, [(h, beta)])
            scale = float(p) ** (2 + k * beta)
            assert abs(a - scale * b) <= 1e-10 * abs(a) + ta + scale * tb


# -- what F_p((T)) grids refuse ----------------------------------------------

@pytest.mark.parametrize("c", [Fraction(0), Fraction(1, 3), 2])
def test_evaluate_refuses_rationals_on_laurent_grid(c):
    field = LaurentFp(3)
    g = GridFunction.indicator_ball(field, 2, 0, L=1, m=1)
    with pytest.raises(TypeError):
        g.evaluate([c, LocalFieldElement.zero(field)])
    with pytest.raises(TypeError):
        g.evaluate([LocalFieldElement.zero(field), c])


@pytest.mark.parametrize("c", [Fraction(1, 3), Fraction(1, 27)])
def test_restriction_refuses_rationals_on_laurent_grid(c):
    # a rational far outside the dual ball is refused like one inside it
    field = LaurentFp(3)
    g = GridFunction.indicator_ball(field, 2, 0, L=1, m=1)
    with pytest.raises(TypeError):
        partial_fourier_restrict(g, [1], [c])
    T = SpectralFunction(g, ())
    with pytest.raises(TypeError):
        spectral_space_value(T, [c, LocalFieldElement.zero(field)])


def test_as_complex_matches_per_cell_conversion():
    rng = np.random.default_rng(21)
    vals = [Fraction(int(a), int(b)) for a, b in zip(
        rng.integers(-10 ** 12, 10 ** 12, 81 * 81),
        rng.integers(1, 10 ** 12, 81 * 81))]
    vals[:4] = [Fraction(0), Fraction(1, 3 ** 200), Fraction(-7), 10 ** 300]
    g = GridFunction(Qp(3), 2, 2, 2,
                     np.array(vals, dtype=object).reshape(81, 81))
    want = np.array([complex(v) for v in vals]).reshape(81, 81)
    assert g.as_complex().tobytes() == want.tobytes()
    big = GridFunction(Qp(3), 1, 0, 1,
                       np.array([Fraction(10 ** 400, 3)] * 3, dtype=object))
    with pytest.raises(OverflowError):
        big.as_complex()


@pytest.mark.parametrize("field", [Qp(2), Qp(3), LaurentFp(2), LaurentFp(3)])
def test_indicator_ball_about_a_centre_matches_the_definition(field):
    # the cell of x lies in B_r(c) when |x - c| <= q^r, by element arithmetic
    p, L, m = field.p, 2, 1
    reps = [LocalFieldElement.from_digits(field, -L, digits_of(i, p, L + m))
            for i in range(p ** (L + m))]

    def inside(c, r):
        out = []
        for x in reps:
            try:
                out.append((x - c).norm() <= Fraction(p) ** r)
            except Inexact:  # x = c at the grid resolution
                out.append(True)
        return np.array(out)

    for r in range(-m, L + 2):
        for ci, cj in ((0, 1), (p + 1, p ** (L + m) - 1), (p * p, p)):
            g = GridFunction.indicator_ball(field, 2, r, L=L, m=m,
                                            center=[reps[ci], reps[cj]])
            want = np.outer(inside(reps[ci], r), inside(reps[cj], r))
            assert np.array_equal(g.values != 0, want)


@pytest.mark.parametrize("field", [Qp(3), LaurentFp(3)])
@pytest.mark.parametrize("k", [0, 1, 3])
def test_indicator_ball_needs_one_centre_coordinate_per_axis(field, k):
    centre = [LocalFieldElement.zero(field)] * k
    with pytest.raises(ValueError, match="center needs 2 coordinates"):
        GridFunction.indicator_ball(field, 2, 0, center=centre)
