"""Exception taxonomy shared across the package, and the numeric-field check."""

import math
from numbers import Real


class LqcoordError(Exception):
    """Base class for all package errors."""


class NotSymmetric(LqcoordError):
    """Matrix expected to be symmetric is not, beyond tolerance."""


class NotPsd(LqcoordError):
    """Matrix expected to be positive semidefinite has a clearly negative eigenvalue."""


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
    """Estimation-error covariance is invalid (not PSD within tolerance), or
    too near singular for a quantity computed from it to stay finite."""


class SigmaTraceGrowth(LqcoordError):
    """Tr Sigma_t grows from one step to the next beyond roundoff; the
    channel map did not contract."""


class NonIntegerPeriod(LqcoordError):
    """State dimension is not an integer multiple of the channel rank."""


class InvalidTheta(LqcoordError):
    """Heuristic decay base outside (0, 1]."""


class NoRootFound(LqcoordError):
    """The scalar power solver found no stationary schedule."""


class HorizonMismatch(LqcoordError):
    """Reports with different horizons cannot be combined."""


class NonFiniteRollout(LqcoordError):
    """A rollout left the floating-point range; names the policy, run and step."""


class ParseError(LqcoordError):
    """Configuration file could not be parsed."""


class ValidationError(LqcoordError):
    """Configuration violates a model invariant; message names the field."""


class BudgetExhaustedWarning(UserWarning):
    """Optimizer stopped on its evaluation budget; best-found result returned."""


def checked_number(name: str, value, integer: bool = False) -> float | int:
    """A finite number, never a bool or a string; an integer field rejects
    2.7 rather than read it as 2. Raises ValidationError naming the field."""
    if (isinstance(value, Real) and not isinstance(value, bool) and math.isfinite(value)
            and (not integer or float(value).is_integer())):
        return int(value) if integer else float(value)
    raise ValidationError(f"{name}: {value!r} is not "
                          + ("an integer" if integer else "a finite number"))
