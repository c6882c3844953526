"""Exception types raised by the hopcav package."""


class HopcavError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(HopcavError):
    """Invalid configuration document or parameter values."""


class ConvergenceFailureError(HopcavError):
    """The self-consistent steady-state search found no converged branch."""

    def __init__(self, message, best_residual=None):
        super().__init__(message)
        self.best_residual = best_residual


class StabilityError(HopcavError):
    """A drift matrix is not Hurwitz where a steady covariance was requested."""


class UnphysicalBathError(HopcavError):
    """Squeezed-bath parameters violate the quantum correlation bound."""


class InvalidStateError(HopcavError):
    """A covariance matrix failed a physicality diagnostic."""


class ConventionError(HopcavError):
    """The fidelity determinant argument is not positive."""


class UnknownPresetError(HopcavError):
    """Requested figure preset does not exist."""

    def __init__(self, name, available):
        super().__init__(
            f"unknown preset {name!r}; available: {', '.join(available)}"
        )
        self.available = tuple(available)
