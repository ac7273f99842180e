"""Exception types shared across the package."""


class PMBPError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(PMBPError, ValueError):
    """Array shapes or dimension counts are inconsistent."""


class ParameterError(PMBPError, ValueError):
    """Parameter values violate their constraints (sign, range, ordering)."""


class DomainError(PMBPError, ValueError):
    """A function was queried outside its valid domain (e.g. a negative
    time)."""


class NumericalConsistencyError(PMBPError, RuntimeError):
    """A numerically computed quantity violates a structural invariant beyond
    tolerance (e.g. a compensator increment is negative)."""


class ConvergenceError(PMBPError, RuntimeError):
    """An iterative routine failed to converge within its iteration budget."""


class RegularityError(PMBPError, ValueError):
    """The parameters violate a regularity precondition (e.g. the censored
    kernel block is not subcritical, so the response series diverges)."""


class ExplosionError(PMBPError, RuntimeError):
    """A sampler exceeded its event-count cap, indicating a (numerically)
    supercritical configuration."""


class InsufficientDataError(PMBPError, ValueError):
    """Not enough data to run the requested computation (e.g. a diagnostic
    that needs at least two events)."""
