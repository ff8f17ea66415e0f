"""Exception hierarchy for the gerbe calculator.

Every numerically dangerous precondition (cuts hitting eigenvalues,
ambiguous eigenvalue clusters, ...) and every numerical failure (quadrature
that does not converge) raises a dedicated subclass of :class:`GerbeError`
so callers can distinguish "bad input" from genuine bugs.
"""


class GerbeError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(GerbeError):
    """Matrix shapes are incompatible with the requested operation."""


class AmbiguousClusterError(GerbeError):
    """Eigenvalue chain cannot be split into clusters at the given tolerance."""


class IllConditionedCutError(GerbeError):
    """A cut point lies too close to an eigenvalue of g."""


class BoundaryError(GerbeError):
    """A point coincides with an arc endpoint where betweenness is undefined."""


class IncomparableError(GerbeError):
    """Two cut points (or two fiber elements) cannot be compared."""


class EmptySpaceError(GerbeError):
    """A determinant-line operation was asked for an empty eigenspace."""


class StepTooLargeError(GerbeError):
    """A finite-difference or loop step could carry an eigenvalue to a cut:
    its reach is not below the distance from spec(g) to the cuts."""


class GapError(GerbeError):
    """An eigenvalue is not isolated well enough for the requested formula."""


class EvaluationError(GerbeError):
    """A numerical evaluation failed: a non-finite integrand value, or
    Gauss-Kronrod nodes whose Newton iteration did not converge."""


class QuadratureError(EvaluationError):
    """Contour quadrature reached its node limit without converging."""


class RegularityError(GerbeError):
    """The group element is not regular (has a repeated eigenvalue)."""


class SamplingError(GerbeError):
    """Rejection sampling failed to produce a valid point."""


class SchemaError(GerbeError):
    """A JSON document does not match the expected schema."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")
