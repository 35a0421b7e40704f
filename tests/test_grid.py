import cmath
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ultrazeta.errors import DivergentIntegral
from ultrazeta.grid import (GridFunction, Multiplier, SpectralFunction,
                            convolve, dirac, dual_norm, embed,
                            fourier_transform, hinf_metric, l2_norm, pairing,
                            partial_fourier_restrict, power_integral,
                            random_grid, reflect, sobolev_norm, sup_norm,
                            sup_norm_constant_sq, unify_pair,
                            _axis_digits, _axis_negation, _axis_norm_exps,
                            _qp_char_fraction)
from ultrazeta.intpoly import IntPolynomial
from ultrazeta.localfield import LaurentFp, LocalFieldElement, Qp

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
                    di = _axis_digits(int(i), q, width)
                    dj = _axis_digits(int(j), q, width)
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


# digit counts n(L+m) off the GEMM group size (6 digits at p=2, 3 at p=3,
# 2 at p=5 and p=7), and the one-cell grids L = m = 0
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
            neg = _axis_negation(kind, p, L, m)
            exps = _axis_norm_exps(kind, p, L, m)
            assert neg.shape == exps.shape == (Q,)
            for i in range(Q):
                d = _axis_digits(i, p, width)
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
                           * float(_qp_char_fraction(3, xi))) / 3
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
        from ultrazeta.grid import _coord_index
        j = _coord_index(F3, xi0r, gh.L, gh.m)
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
    from ultrazeta.grid import _coord_index
    j = _coord_index(field, xi0, gh.L, gh.m)
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


def _per_cell_json_values(g, dense):
    """The payload's "values" by its per-cell definition."""
    out = []
    for idx in np.ndindex(*g.values.shape):
        v = complex(g.values[idx])
        if dense or v != 0:
            out.append({"coset": [_axis_digits(i, g.field.q, g.L + g.m)
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
        got = g.to_json(dense=dense)
        assert json.dumps(got["values"]) == \
            json.dumps(_per_cell_json_values(g, dense))
        assert (got["n"], got["L"], got["m"]) == (n, L, m)
    exact = GridFunction.indicator_ball(field, n, 0, L=1, m=1, exact=True)
    assert exact.to_json(dense=dense)["values"] == \
        _per_cell_json_values(exact, dense)


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
])
def test_grid_json_rejects_bad_cosets(obj):
    with pytest.raises(ValueError):
        GridFunction.from_json(obj)
