"""Exception types shared across the package.

Configuration problems raise :class:`ConfigError` subclasses; failures of the
numerics themselves raise :class:`NumericalError` subclasses.  The CLI maps the
former to exit code 2 and the latter to exit code 3.
"""


class SdeCubError(Exception):
    """Base class for all package errors."""


class ConfigError(SdeCubError):
    """Invalid configuration or inconsistent inputs."""


class NumericalError(SdeCubError):
    """A numerical procedure failed."""


class UnsupportedDimension(ConfigError):
    """Requested cubature construction is not implemented for this dimension."""


class LevelTooLarge(ConfigError):
    """Tensor truncation level exceeds the combinatorial guard."""


class InvalidParameter(ConfigError):
    """A scalar parameter is outside its admissible range."""


class TreeTooLarge(ConfigError):
    """The q**k leaf tree exceeds the enumeration guard."""


class DimensionMismatch(ConfigError):
    """Inconsistent array or vector-field dimensions."""


class ManifestMismatch(ConfigError):
    """A weight table's manifest does not match the supplied inputs."""


class OracleUnavailable(ConfigError):
    """No reference value is available for the requested benchmark."""


class NoNullVector(NumericalError):
    """The moment constraint matrix has a trivial kernel; support is minimal."""


class MatchFailure(NumericalError):
    """A surviving support point could not be traced back to a tree prefix."""


class RecombinationDefect(NumericalError):
    """Recombination changed the total mass or a basis moment past tolerance.

    ``interval`` is the 1-based interval whose reduction failed the check and
    ``defect`` the largest relative change seen there.
    """

    def __init__(self, message: str, interval: int, defect: float):
        super().__init__(message)
        self.interval = interval
        self.defect = defect


class NonFiniteState(NumericalError):
    """An integrator state left the finite floating-point range.

    ``segment`` is the index of the solver segment after which the state was
    first seen non-finite, or ``None`` where the solver has no segments.
    """

    def __init__(self, message: str, segment: int | None = None):
        super().__init__(message)
        self.segment = segment


class SingularDiffusion(NumericalError):
    """The diffusion matrix is not invertible at a grid point."""


class NonFiniteGradient(NumericalError):
    """A reverse-mode gradient contains NaN or infinity."""


class DivergenceDetected(NumericalError):
    """Training loss exceeded the divergence threshold."""
