"""ultrazeta: desk-scale analysis over non-Archimedean local fields."""

from .localfield import (FieldSpec, FieldVector, LocalFieldElement, Qp,
                         LaurentFp, ball_measure, char_fraction, field_arith,
                         sphere_measure, valuation_and_norm)
from .intpoly import IntPolynomial, parse_polynomial
from .ratfunc import (LaurentExpansion, Poly, RationalFunctionT, laurent_at,
                      reconstruct_from_series, rf_arith)
from .grid import (GridFunction, Multiplier, SpectralFunction, convolve,
                   dirac, dual_norm, embed, fourier_transform, hinf_metric,
                   inverse_fourier_transform, l2_norm, pairing,
                   partial_fourier_restrict, power_integral, random_grid,
                   reflect, sobolev_norm, sobolev_norm_with_tail,
                   spectral_space_value, sup_norm, sup_norm_constant_sq,
                   unify_pair)
from .zeta import (GeneralizedProgression, HeatKernel, HinfZetaEngine,
                   PolePrediction, ResolutionData, ZetaSeries,
                   elementary_integral, elementary_integral_exact,
                   igusa_series, locate_real_poles, mixed_integral,
                   monomial_zeta_closed, predict_poles, snc_form_Z0,
                   snc_pole_progressions)
from .pdo import (GammaFactor, PseudoDiffOp, RieszKernelSpec,
                  apply_pseudodiff, adjoint_pairing, compose_vladimirov,
                  gamma, prop3_identity_check, riesz_pairing,
                  riesz_space_side, vladimirov)
from .fundsol import (extract_T0, fundamental_solution_check,
                      laurent_functional, t0_applied_to_operator_image,
                      t0_value, zeta_exact_in_t)

__version__ = "0.1.0"
