"""Exception and warning types shared across the library: one error class
per remedy."""


class SpectralError(Exception):
    """Base class for all library errors."""


class DomainError(SpectralError):
    """A value lies outside the domain of the operation: an argument, a
    simulation setting, a precondition on the input measure, or a tail
    fact the estimate needs.  Fix the input."""


class ValidationError(SpectralError):
    """The CLI/JSON layer's wrapper: a configuration, family or flag failed
    validation, and the message names the one at fault.  Fix it."""


class ConvergenceError(SpectralError):
    """An adaptive target was not met: a truncation, a quadrature or a
    series guard.  Relax the target or change the parameters."""


class ResolutionError(SpectralError):
    """The grid or box cannot resolve the requested object.  Refine the
    grid or widen the box."""


class DomainWarning(UserWarning):
    """Diagnostic warning: an input is likely outside the discretized
    domain of the operator being applied (spectral tail mass too large)."""
