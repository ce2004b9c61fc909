"""Exception types and warning categories used across the package."""


class ToricMirrorError(Exception):
    """Base class for all errors raised by this package."""


# --- lattice / polytope layer -------------------------------------------

class NonSpanningRays(ToricMirrorError):
    """The rays do not span the ambient lattice over the integers."""


class NonPrimitiveRay(ToricMirrorError):
    """A ray is zero or its coordinates have a common factor."""


class RepeatedRay(ToricMirrorError):
    """The same ray is given twice; a fan has each ray once."""


class BasisNotKernel(ToricMirrorError):
    """A supplied basis matrix is not an integral basis of the ray kernel."""


class InconsistentLambda(ToricMirrorError):
    """Facet-constant data does not match the kernel basis."""


class UnboundedPolytope(ToricMirrorError):
    """The facet inequalities admit an unbounded direction."""


class DegeneratePolytope(ToricMirrorError):
    """The facet inequalities cut out a region with empty interior."""


class PointOutsidePolytope(ToricMirrorError):
    """A base point does not lie in the open polytope interior."""


class IndexOutOfRange(ToricMirrorError):
    """A ray or parameter index is out of range."""


# --- mirror side ---------------------------------------------------------

class ZeroCoordinate(ToricMirrorError):
    """A mirror coordinate vanishes where a Laurent monomial needs it."""


class IncompleteRootSet(ToricMirrorError):
    """The critical-point search did not end with the expected root count."""


# --- ring presentations --------------------------------------------------

class NotAProduct(ToricMirrorError):
    """The fan is not a product of projective-space fans."""


class DimensionUnstable(ToricMirrorError):
    """The quotient is certified positive-dimensional by its Groebner basis."""


class EmptyQuotient(ToricMirrorError):
    """The quotient ring collapsed to zero."""


class ClassNotReducible(ToricMirrorError):
    """A ring class does not reduce into the span of the quotient basis."""


# --- front end -----------------------------------------------------------

class UnknownFixture(ToricMirrorError):
    """No registered input fixture under that name."""


class ParseError(ToricMirrorError):
    """An input document is malformed."""


class DegenerateSpectrum(UserWarning):
    """Two critical points nearly coincide; spectra may be unreliable."""
