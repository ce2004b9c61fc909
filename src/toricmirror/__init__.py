"""Cross-verification of toric Fano mirror pairs.

The exact side builds disc-counting generating functions and their lattice
convolution algebra; the mirror side builds the superpotential, its bounded
domain and numeric critical points; the transform layer identifies the two,
and the ring layer compares quotient presentations with critical-point
spectra.

``import toricmirror`` loads no layer.  Each public name is imported from
its home module on first access (PEP 562), so a caller, like each command
of the CLI, pays only for the layers it uses.
"""

from importlib import import_module as _import_module

_HOMES = {
    "toric_core": (
        "ToricFanoData",
        "build_toric_data",
        "kernel_basis",
        "lambda_from_q",
        "polytope_vertices",
        "product_structure",
        "reference_lambda",
        "vertex_count_reference",
    ),
    "disc_algebra": (
        "AdmissibleFunction",
        "DiscSeries",
        "QLaurent",
        "convolve",
        "disc_series",
        "divisor_function",
        "divisor_power",
        "q_log_derivative",
        "to_admissible",
        "unit",
    ),
    "syz_transform": (
        "ZLaurent",
        "exp_superpotential",
        "inverse_transform",
        "transform",
    ),
    "lg_model": (
        "CriticalPointSet",
        "SolverConfig",
        "critical_points",
        "domain_membership",
        "evaluate_at_critical",
        "jacobian_generators",
        "superpotential",
    ),
    "quantum_ring": (
        "DivisorPolynomial",
        "QuotientModel",
        "RingPresentation",
        "VerificationReport",
        "linear_ideal",
        "multiplication_spectrum",
        "quantum_sr_ideal",
        "quotient_model",
        "substitute_divisors",
        "verify_isomorphism",
    ),
    "fixtures": ("REGISTRY", "fixture"),
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}
# the layers themselves are public names too, resolved to the submodule
_HOME_OF.update((module, None) for module in (*_HOMES, "errors"))

__all__ = sorted(_HOME_OF)


def __getattr__(name):
    if name not in _HOME_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    home = _HOME_OF[name]
    if home is None:
        return _import_module(f"{__name__}.{name}")
    value = getattr(_import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
