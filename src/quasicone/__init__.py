"""quasicone: quasiconvex quadratic forms on 3x3 matrices, their acoustic
determinants, and numerical extremality certification."""

__version__ = "0.1.0"

from .certify import (CertifyConfig, LatticeScan, MarginReport,
                      PreconditionError, ProbeReport,
                      extremal_polynomial_probe, extreme_point_probe,
                      lattice_scan, milton_extremality_probe,
                      polyconvexity_test, quasiconvexity_margin,
                      rank_one_zeros)
from .determinant import (DetReport, acoustic_det, det_report,
                          pencil_identity_check, perfect_square_test,
                          reduced_det_closed_form)
from .forms import (NullLagrangianCoeffs, OrthotropicCoefficients,
                    QuadraticForm, ReducedOrthotropicForm, acoustic_matrix,
                    add_null_lagrangian, biquadratic_eval, catalog,
                    form_from_reduced, form_from_single_shear, form_from_voigt,
                    minor_gram_basis, reduce_modulo_null_lagrangians,
                    reduced_view)
from .minors import (ChainReport, HypothesisError, MinorSums,
                     SymmetricMatrixPair, minor_chain_check, minor_sum,
                     minor_sums, pencil_poly, pencil_roots,
                     random_ordered_pair)
from .poly import (HomogeneousPolynomial, UnivariatePolynomial, poly_combine,
                   poly_equal_within, poly_eval, poly_mul)

__all__ = [
    "CertifyConfig", "ChainReport", "DetReport",
    "HomogeneousPolynomial", "HypothesisError", "LatticeScan", "MarginReport",
    "MinorSums",
    "NullLagrangianCoeffs", "OrthotropicCoefficients", "PreconditionError",
    "ProbeReport", "QuadraticForm", "ReducedOrthotropicForm",
    "SymmetricMatrixPair", "UnivariatePolynomial", "acoustic_det",
    "acoustic_matrix", "add_null_lagrangian", "biquadratic_eval", "catalog",
    "det_report", "extremal_polynomial_probe", "extreme_point_probe",
    "form_from_reduced", "form_from_single_shear", "form_from_voigt",
    "lattice_scan", "milton_extremality_probe", "minor_chain_check",
    "minor_gram_basis",
    "minor_sum", "minor_sums", "pencil_identity_check", "pencil_poly",
    "pencil_roots", "perfect_square_test", "poly_combine",
    "poly_equal_within", "poly_eval", "poly_mul", "polyconvexity_test",
    "quasiconvexity_margin", "random_ordered_pair", "rank_one_zeros",
    "reduce_modulo_null_lagrangians", "reduced_det_closed_form", "reduced_view",
]
