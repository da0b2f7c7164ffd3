"""Spectra of the second derivative under Gegenbauer/Jacobi Tau truncation.

The package builds the banded integration form of the discrete operator
(tridiagonal plus one boundary row), its characteristic polynomials, and the
classical differentiation pencils, and ships a verification suite for the
qualitative spectral claims: real, negative, distinct eigenvalues with parity
interlacing below the family-parameter threshold, conjugate pairs above it,
and the conditioning contrast between the integration and differentiation
routes.
"""

from .charpoly import (
    MuPolynomial,
    charpoly_direct,
    charpoly_sequence,
    jacobi_char_poly,
    k_constant,
    k_constants,
    mixed_char_poly,
    omega_poly,
    poly_roots,
)
from .orthopoly import (
    GegenbauerIndex,
    JacobiIndex,
    Parity,
    apply_derivative,
    gegenbauer_at_one,
    gegenbauer_at_one_upto,
    gegenbauer_eval,
    gegenbauer_norm,
    gegenbauer_norms,
    jacobi_at_one,
    jacobi_deriv_at_one,
    jacobi_eval,
    one_minus_x2_block,
    second_derivative_block,
)
from .spectra import (
    EigenPair,
    Spectrum,
    SweepResult,
    dense_eigs,
    eigenfunction,
    exact_spectrum,
    pencil_spectrum,
    tau_spectrum,
)
from .tau_operator import (
    DIFF_VARIANTS,
    GeneralizedPencil,
    TauMatrix,
    build_diff_pencil,
    build_gi2,
    matrix_to_coord,
    matrix_to_csv,
)
from .verify import (
    DEFAULT_GAMMA_GRID,
    VerificationReport,
    check_positive_pair,
    check_stable,
    conditioning_sweep,
    gamma_scan,
    hb_compose,
    hb_random_suite,
    interlace_conjecture_suite,
    jacobi_suite,
    lemma_suite,
    phi_poly,
    phi_suite,
    realness_suite,
    sharpness_suite,
    spectrum_error_report,
)

__version__ = "0.1.0"
