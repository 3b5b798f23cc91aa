"""Exception types shared across the package."""


class OrthozeroError(Exception):
    """Base class for all package errors."""


class BadParameterError(OrthozeroError, ValueError):
    """A basis or kernel parameter is outside its validity range."""


class DegreeZeroError(OrthozeroError, ValueError):
    """Root finding requested for a polynomial of degree < 1."""


class BadIntervalError(OrthozeroError, ValueError):
    """Interval endpoints are not strictly ordered."""


class SeriesDivergenceError(OrthozeroError, ArithmeticError):
    """An intermediate truncated series has a vanishing constant term."""


class OutOfDomainError(OrthozeroError, ValueError):
    """Kernel evaluated outside its declared domain rectangle."""


class BadTupleError(OrthozeroError, ValueError):
    """Minor nodes are not strictly increasing or lie outside the domain."""


class IncompleteSpecError(OrthozeroError, ValueError):
    """A transform spec lacks constants for a required degree."""


class QuadratureError(OrthozeroError, ArithmeticError):
    """Adaptive quadrature failed to meet its error target."""


class BadNodesError(OrthozeroError, ValueError):
    """Biorthogonal nodes are not pairwise distinct."""


class SingularSystemError(OrthozeroError, ArithmeticError):
    """The biorthogonality moment determinant is numerically singular."""


class NonFiniteError(OrthozeroError, ArithmeticError):
    """A result would leave the double range: it overflows, or underflows
    below the normal doubles."""
