"""Exception types shared across the package."""


class RfsoError(Exception):
    """Base class for all package errors."""


class ParameterError(RfsoError, ValueError):
    """A constructor or operation received parameters outside its domain."""


class PoleCollisionError(ParameterError):
    """Meijer G parameters place numerator gamma poles on top of each other,
    so no separating integration contour exists."""


class DegenerateParameterError(ParameterError):
    """The ascending and descending numerator pole families interlace, so no
    vertical contour separates them.  (Coincident poles are not an error:
    the residues handle poles of any order.)"""


class UnsupportedCaseError(RfsoError):
    """A named special case that this parameterization cannot represent."""


class AccuracyError(RfsoError):
    """Quadrature did not reach the requested tolerance.

    Carries the best available estimate and an error bound so callers can
    decide whether the partial result is still usable.
    """

    def __init__(self, message, best_estimate, error_bound):
        super().__init__(f"{message} (best estimate {best_estimate!r}, "
                         f"error bound {error_bound!r})")
        self.best_estimate = best_estimate
        self.error_bound = error_bound


class ConfigError(RfsoError):
    """Configuration file or CLI flag rejected; message names the cause."""


class NumericsWarning(UserWarning):
    """Base category for numerical-diagnostics warnings."""


class ClampExcessWarning(NumericsWarning):
    """A probability landed outside [0,1] by more than the flag threshold
    and was clamped."""
