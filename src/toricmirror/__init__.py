"""Cross-verification of toric Fano mirror pairs.

The exact side builds disc-counting generating functions and their lattice
convolution algebra; the mirror side builds the superpotential, its bounded
domain and numeric critical points; the transform layer identifies the two,
and the ring layer compares quotient presentations with critical-point
spectra.
"""

from .toric_core import (
    ToricFanoData,
    build_toric_data,
    disc_area,
    kernel_basis,
    lambda_from_q,
    polytope_vertices,
    reference_lambda,
    vertex_count_reference,
)
from .disc_algebra import (
    AdmissibleFunction,
    DiscSeries,
    QLaurent,
    convolve,
    disc_series,
    divisor_function,
    divisor_power,
    q_log_derivative,
    to_admissible,
    unit,
)
from .syz_transform import ZLaurent, exp_superpotential, inverse_transform, transform
from .lg_model import (
    CriticalPointSet,
    SolverConfig,
    Superpotential,
    critical_points,
    domain_membership,
    evaluate_at_critical,
    jacobian_generators,
    superpotential,
)
from .quantum_ring import (
    DivisorPolynomial,
    QuotientModel,
    RingPresentation,
    VerificationReport,
    linear_ideal,
    multiplication_spectrum,
    product_structure,
    quantum_sr_ideal,
    quotient_model,
    substitute_divisors,
    verify_isomorphism,
)
from .fixtures import REGISTRY, fixture

__all__ = [name for name in dir() if not name.startswith("_")]
