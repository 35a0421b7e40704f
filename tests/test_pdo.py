import math
from fractions import Fraction

import numpy as np
import pytest

from ultrazeta.errors import PoleOfGamma
from ultrazeta.grid import (GridFunction, SpectralFunction,
                            fourier_transform, pairing, random_grid,
                            sobolev_norm, spectral_space_value, unify_pair)
from ultrazeta.intpoly import parse_polynomial
from ultrazeta.localfield import Qp
from ultrazeta.pdo import (GammaFactor, PseudoDiffOp, RieszKernelSpec,
                           adjoint_pairing, apply_pseudodiff,
                           compose_vladimirov, gamma, prop3_identity_check,
                           riesz_pairing, riesz_space_side, vladimirov)

F3 = Qp(3)


def test_gamma_direct_value():
    assert gamma(2, 2.0) == pytest.approx(-4 / 3)


def test_gamma_reflection():
    rng = np.random.default_rng(0)
    gf = GammaFactor(3)
    checked = 0
    while checked < 20:
        a = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        try:
            defect = gf.reflection_defect(a)
        except PoleOfGamma:
            continue
        assert defect < 1e-12
        checked += 1


def test_gamma_pole_families():
    gf = GammaFactor(3)
    lam = math.log(3)
    for j in range(-3, 4):
        for base in (0.0, 1.0):
            mu = complex(base, 2 * math.pi * j / lam)
            with pytest.raises(PoleOfGamma):
                gf(mu + 5e-10)
            # comfortably away from the lattice evaluates fine
            gf(mu + 0.05)


def test_gamma_small_alpha_blows_up():
    gf = GammaFactor(3)
    assert abs(gf(1e-6)) > 1e5


def test_apply_pseudodiff_zero_limit():
    # for ghat vanishing near h^{-1}(0) a tiny exponent barely moves the
    # pairing
    rng = np.random.default_rng(1)
    h = parse_polynomial("x1", 1)
    gh = GridFunction.zeros(F3, 1, 1, 1)
    for i in range(1, gh.Q):
        gh.values[i] = rng.standard_normal()
    from ultrazeta.grid import inverse_fourier_transform, Multiplier
    g = inverse_fourier_transform(gh)
    probe = random_grid(F3, 1, 1, 1, rng)
    base_val = pairing(SpectralFunction(fourier_transform(g), ()), probe)
    small = pairing(SpectralFunction(fourier_transform(g),
                                     (Multiplier(h, 1e-9),)), probe)
    assert abs(base_val - small) < 1e-6


def test_vladimirov_composition():
    rng = np.random.default_rng(2)
    g = random_grid(F3, 2, 1, 1, rng)
    T = vladimirov([1.0, 0.5], g)
    T2 = compose_vladimirov(T, [0.5, 0.25])
    direct = vladimirov([1.5, 0.75], g)
    assert [m.alpha for m in T2.multipliers] == \
        [m.alpha for m in direct.multipliers]
    probe = random_grid(F3, 2, 1, 1, rng)
    assert abs(pairing(T2, probe) - pairing(direct, probe)) < 1e-12


def test_vladimirov_identity_at_zero_exponent():
    rng = np.random.default_rng(3)
    g = random_grid(F3, 1, 1, 1, rng)
    T = vladimirov([0.0], g)
    assert not T.multipliers
    probe = random_grid(F3, 1, 1, 1, rng)
    assert abs(pairing(T, probe)
               - pairing(SpectralFunction(fourier_transform(g), ()), probe)
               ) < 1e-13


def test_vladimirov_pointwise_sphere_sum():
    # (D^1 1_{Zp})(0) = integral over Zp of |xi| = (1-1/q)/(1-q^{-2})
    g = GridFunction.indicator_ball(F3, 1, 0, L=1, m=1)
    T = vladimirov([1.0], g)
    v0 = spectral_space_value(T, [Fraction(0)])
    assert abs(v0 - float(Fraction(2, 3) / (1 - Fraction(1, 9)))) < 1e-13


def test_vladimirov_pointwise_laurent_field():
    # only q enters the sphere sums: same value over F_3((T))
    from ultrazeta.localfield import LaurentFp, LocalFieldElement

    field = LaurentFp(3)
    g = GridFunction.indicator_ball(field, 1, 0, L=1, m=1)
    T = vladimirov([1.0], g)
    v0 = spectral_space_value(T, [LocalFieldElement.zero(field)])
    assert abs(v0 - float(Fraction(2, 3) / (1 - Fraction(1, 9)))) < 1e-13


def test_adjoint_identity():
    rng = np.random.default_rng(4)
    for _ in range(5):
        base = random_grid(F3, 2, 1, 1, rng)
        T = vladimirov([0.8, 0.3],
                       random_grid(F3, 2, 1, 1, rng))
        T = SpectralFunction(base, T.multipliers)
        g = random_grid(F3, 2, 1, 1, rng)
        alpha = [0.5, 1.0]
        lhs = adjoint_pairing(T, alpha, g)
        # independent route: move the multiplier onto ghat cell-wise
        gh = fourier_transform(g)
        b2, gh2 = unify_pair(T.base, gh)
        prod = GridFunction(F3, 2, b2.L, b2.m,
                            np.conj(b2.values) * gh2.values)
        from ultrazeta.grid import power_integral
        w = [complex(0.8).conjugate() + 0.5,
             complex(0.3).conjugate() + 1.0]
        rhs = power_integral(prod, w)
        assert abs(lhs - rhs) < 1e-11


def test_pseudodiff_norm_bound():
    rng = np.random.default_rng(5)
    sym1 = parse_polynomial("x1", 2)
    sym2 = parse_polynomial("x1^2+x2^2", 2)
    for k in range(20):
        g = random_grid(F3, 2, 1, 1, rng)
        for h, a in ((sym1, 0.5), (sym1, 1.3), (sym2, 0.5), (sym2, 1.3)):
            op = PseudoDiffOp(((h, a),))
            Pg = apply_pseudodiff(op, g)
            l = 2 * (k % 3)
            assert sobolev_norm(Pg, l) <= \
                sobolev_norm(g, l + op.sobolev_shift()) + 1e-9


def test_polynomial_symbol_integral_vs_counting_oracle():
    # integral over Zp^2 of |x1^2+x2^2|^beta equals sum_k c_k q^{-k beta}
    # where c_k is the exact valuation distribution from point counting:
    # two fully independent engines (certified cell refinement vs residue
    # lifting)
    from ultrazeta.grid import _poly_weighted_integral
    from ultrazeta.zeta import igusa_series
    from ultrazeta.localfield import Qp as _Qp

    h = parse_polynomial("x1^2+x2^2", 2)
    for p in (3, 5):
        carrier = GridFunction.indicator_ball(_Qp(p), 2, 0, L=0, m=0)
        for beta in (0.8, 2.6):
            val, tail = _poly_weighted_integral(carrier, [(h, beta)])
            series = igusa_series(h, _Qp(p), 40, method="lift")
            oracle = sum(float(c) * float(p) ** (-k * beta)
                         for k, c in enumerate(series.coeffs))
            # remaining mass beyond the truncation decays geometrically
            rest = float(1 - sum(series.coeffs)) * float(p) ** (-40 * beta)
            assert abs(val - oracle) < 1e-11 + rest + tail


@pytest.mark.parametrize("text", ["x1^2+x2^2", "x1^2-x2^3",
                                  "x1^2-x2^3+x2^4"])
@pytest.mark.parametrize("p", [3, 5])
def test_polynomial_symbol_on_laurent_unit_ball(p, text):
    # the refinement reads only orders, which agree on Q_p and F_p((T))
    # here, so the two values are equal; the F_p((T)) value also lies in
    # the bracket of its own lift series
    from ultrazeta.grid import _poly_weighted_integral
    from ultrazeta.localfield import LaurentFp
    from ultrazeta.zeta import igusa_series

    h = parse_polynomial(text, 2)
    K = 10
    series = igusa_series(h, LaurentFp(p), K, method="lift")
    rest = float(1 - sum(series.coeffs))
    for beta in (0.8, 2.6):
        qp, fpt = (_poly_weighted_integral(
            GridFunction.indicator_ball(field, 2, 0, L=0, m=0), [(h, beta)])
            for field in (Qp(p), LaurentFp(p)))
        assert fpt == qp
        val, tail = fpt
        low = sum(float(c) * float(p) ** (-k * beta)
                  for k, c in enumerate(series.coeffs))
        high = low + rest * float(p) ** (-(K + 1) * beta)
        assert low - tail - 1e-12 <= val.real <= high + tail + 1e-12
        assert val.imag == 0


def test_polynomial_symbol_in_characteristic_two():
    # over F_2((T)), x1^2 + x2^2 = (x1 + x2)^2: not the Q_2 value
    from ultrazeta.grid import _poly_weighted_integral
    from ultrazeta.localfield import LaurentFp

    h = parse_polynomial("x1^2+x2^2", 2)
    q2, f2 = (_poly_weighted_integral(
        GridFunction.indicator_ball(field, 2, 0, L=0, m=0), [(h, 1.5)])[0]
        for field in (Qp(2), LaurentFp(2)))
    assert q2.real == pytest.approx(0.6074, abs=1e-4)
    # |x1 + x2|^3 over R^2: (1 - 1/2) / (1 - 2^-4)
    assert f2.real == pytest.approx(8 / 15, abs=1e-10)


def test_symbol_estimate_on_grid_points():
    # |h(xi)|^{Re a} <= [xi]^{deg ceil(Re a)} pointwise (p-adic norms)
    h = parse_polynomial("x1^2+x2^2", 2)
    q = 3
    for a in (0.5, 1.3):
        for i1 in range(-2, 3):
            for i2 in range(-2, 3):
                x1 = Fraction(q) ** i1
                x2 = Fraction(q) ** i2
                val = h.eval_fraction((x1, x2))
                nrm = float(q) ** -(_ord3(val)) if val else 0.0
                bracket = max(1.0, float(q) ** -i1, float(q) ** -i2)
                assert nrm ** a <= bracket ** (2 * math.ceil(a)) + 1e-12


def _ord3(r):
    v = 0
    n, d = r.numerator, r.denominator
    while n % 3 == 0:
        n //= 3
        v += 1
    while d % 3 == 0:
        d //= 3
        v -= 1
    return v


def test_riesz_kernel_spec_exclusions():
    with pytest.raises(ValueError):
        RieszKernelSpec(3, (1.0,))
    with pytest.raises(PoleOfGamma):
        RieszKernelSpec(3, (5e-10 + 0j,))
    RieszKernelSpec(3, (0.5, 0j))  # delta factor passes


def test_riesz_identity_examples():
    phi = GridFunction.indicator_ball(F3, 1, 0, L=1, m=1)
    rhs = riesz_space_side([0.5], phi)
    assert abs(rhs - (1 - 1 / 3) / (1 - 3 ** -0.5)) < 1e-13
    for a in (0.3, 0.5, 0.7):
        assert abs(riesz_pairing([a], phi)
                   - riesz_space_side([a], phi)) < 1e-12


def test_riesz_identity_random():
    rng = np.random.default_rng(6)
    for _ in range(10):
        phi = random_grid(F3, 1, 1, 1, rng)
        for a in (0.3, 0.7):
            lhs = riesz_pairing([a], phi)
            rhs = riesz_space_side([a], phi)
            assert abs(lhs - rhs) < 1e-10
    phi2 = random_grid(F3, 2, 1, 1, rng)
    for a in ([0.3, 0.7], [0.5, 0.5]):
        assert abs(riesz_pairing(a, phi2)
                   - riesz_space_side(a, phi2)) < 1e-10


def test_riesz_delta_limit():
    # alpha -> 0 turns the kernel into the Dirac factor: the pairing
    # approaches the integral of phi (phi-hat at 0)
    phi = GridFunction.indicator_ball(F3, 1, 0, L=1, m=1)
    exact0 = riesz_pairing([0.0], phi)
    assert abs(exact0 - 1.0) < 1e-14
    small = riesz_pairing([1e-8], phi)
    assert abs(small - exact0) < 1e-6


def test_prop3_identity():
    rng = np.random.default_rng(7)
    g = GridFunction.indicator_ball(F3, 1, 0, L=1, m=1)
    rep = prop3_identity_check([0.5], [0.5], g)
    assert rep["max_discrepancy"] < 1e-10
    # beta -> 0 degenerates to identical expressions
    rep0 = prop3_identity_check([0.7], [1e-12], g)
    assert rep0["max_discrepancy"] < 1e-10
    g2 = random_grid(F3, 2, 1, 1, rng)
    rep2 = prop3_identity_check([0.5, 1.5], [1.0, 1.0], g2)
    assert rep2["max_discrepancy"] < 1e-10
    assert "conjugated" in rep2 and "literal" in rep2
