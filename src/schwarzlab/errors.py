"""Exception types shared across the package."""


class SchwarzlabError(Exception):
    """Base class for all package errors."""


class DomainError(SchwarzlabError):
    """Evaluation point lies outside the open domain of a metric."""


class DerivativeUnavailable(SchwarzlabError):
    """Numeric differencing would have to step outside the domain."""


class NonIntegrable(SchwarzlabError):
    """Adaptive quadrature detected a divergent integral."""


class OutOfRange(SchwarzlabError):
    """Requested value lies outside the range of a monotone transform."""


class OutsideDisk(SchwarzlabError):
    """Evaluation point lies outside the open unit disk."""


class StencilOutsideDisk(SchwarzlabError):
    """A finite-difference stencil leaves the unit disk."""


class NoConvergence(SchwarzlabError):
    """Iterative solver hit its cap before reaching tolerance."""


class InvalidInput(SchwarzlabError):
    """Structurally invalid input (non-odd map, bad samples, ...)."""


class PreconditionViolated(SchwarzlabError):
    """An operation's mathematical precondition failed a sampled check."""


class ParameterOutOfRange(InvalidInput):
    """Family parameter outside its admissible range (bad input: exit 2)."""


class NumericInversionFailure(SchwarzlabError):
    """Newton inversion (of H or of a conformal map) did not converge."""
