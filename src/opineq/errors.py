"""Exception taxonomy shared by all modules."""


class OpineqError(Exception):
    """Base class for all package errors."""


class DomainError(OpineqError, ValueError):
    """Input outside the documented domain (negative charge, NaN integrand, ...)."""


class SingularInputError(DomainError):
    """Evaluation requested exactly on a non-integrable singularity."""


class AccuracyError(OpineqError):
    """Requested accuracy not reached within the subdivision budget.

    Carries the best available estimate so callers can still inspect it.
    """

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class ConfigurationError(OpineqError, ValueError):
    """Invalid run configuration (unknown field component, unknown key, ...)."""


class RefinementNeededError(OpineqError):
    """Grid too coarse for the requested accuracy; carries the refinement trace."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace if trace is not None else []
