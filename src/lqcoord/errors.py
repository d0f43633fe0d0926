"""Exception taxonomy shared across the package."""


class LqcoordError(Exception):
    """Base class for all package errors."""


class NotSymmetric(LqcoordError):
    """Matrix expected to be symmetric is not, beyond tolerance."""


class NotPsd(LqcoordError):
    """Matrix expected to be positive semidefinite has a clearly negative eigenvalue."""


class NotPd(LqcoordError):
    """Matrix expected to be positive definite is singular or indefinite."""


class RankDeficient(LqcoordError):
    """Matrix fails a required full-rank condition."""


class ZeroMatrix(LqcoordError):
    """Matrix is numerically zero where a nonzero one is required."""


class DimensionMismatch(LqcoordError):
    """Operands have incompatible shapes."""


class NotControllable(LqcoordError):
    """Controllability rank test failed for the requested pair."""


class SingularInnovation(LqcoordError):
    """An innovation/normal matrix that must be inverted is numerically singular."""


class SigmaNearSingular(NotPsd):
    """Estimation-error covariance is invalid (not PSD within tolerance)."""


class NonIntegerPeriod(LqcoordError):
    """State dimension is not an integer multiple of the channel rank."""


class IndexOutOfRange(LqcoordError):
    """Projection index outside 0..period-1."""


class InvalidTheta(LqcoordError):
    """Heuristic decay base outside (0, 1]."""


class ZeroLambdaEntry(LqcoordError):
    """Power entry is zero where a 1/sqrt term requires it positive."""


class NoRootFound(LqcoordError):
    """Stationarity equation has no sign change on the search bracket."""


class HorizonMismatch(LqcoordError):
    """Reports with different horizons cannot be combined."""


class ParseError(LqcoordError):
    """Configuration file could not be parsed."""


class ValidationError(LqcoordError):
    """Configuration violates a model invariant; message names the field."""


class BudgetExhaustedWarning(UserWarning):
    """Optimizer stopped on its evaluation budget; best-found result returned."""
