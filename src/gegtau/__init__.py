"""Spectra of the second derivative under Gegenbauer/Jacobi Tau truncation.

The package builds the banded integration form of the discrete operator
(tridiagonal plus one boundary row), its characteristic polynomials, and the
classical differentiation pencils, and ships a verification suite for the
qualitative spectral claims: real, negative, distinct eigenvalues with parity
interlacing below the family-parameter threshold, conjugate pairs above it,
and the conditioning contrast between the integration and differentiation
routes.

The names below are the public API, the ones README's Library section
documents; everything else lives in its module.
"""

from .charpoly import (
    MuPolynomial,
    charpoly_sequence,
    jacobi_char_poly,
    mixed_char_poly,
    poly_roots,
    poly_roots_batch,
)
from .orthopoly import GegenbauerIndex, JacobiIndex, Parity, jacobi_derivs_at_one
from .spectra import (
    EigenPair,
    Spectrum,
    SweepResult,
    eigenfunction,
    exact_spectrum,
    pencil_spectrum,
    tau_spectrum,
)
from .tau_operator import DIFF_VARIANTS, GeneralizedPencil, TauMatrix, build_diff_pencil, build_gi2
from .verify import (
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
