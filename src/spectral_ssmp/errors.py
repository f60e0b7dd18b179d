"""Exception and warning types shared across the library."""


class SpectralError(Exception):
    """Base class for all library errors."""


class DomainError(SpectralError):
    """An argument lies outside the mathematical domain of the operation."""


class QuadratureError(SpectralError):
    """A quadrature routine failed to meet its internal error target."""


class ConvergenceError(SpectralError):
    """An adaptive truncation could not reach the requested tolerance."""


class MetadataError(SpectralError):
    """The factor lacks a tail fact the estimate needs: the power form of
    asymptotic_magnitude needs drift > 0 and finite activity nu_bar(0+),
    both read off the factor's triplet."""


class ConditionError(SpectralError):
    """A verifiable precondition on the input measure fails."""


class OverflowGuard(SpectralError):
    """A series evaluation would lose all significant digits; refusing."""


class ResolutionError(SpectralError):
    """The grid is too coarse to resolve the requested object."""


class InterpolationError(SpectralError):
    """A coordinate change maps points too far outside the sampled box."""


class ConfigError(SpectralError):
    """Inconsistent simulation or run configuration."""


class ValidationError(SpectralError):
    """A JSON configuration failed schema validation."""


class DomainWarning(UserWarning):
    """Diagnostic warning: an input is likely outside the discretized
    domain of the operator being applied (spectral tail mass too large)."""
