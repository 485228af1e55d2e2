"""Exception types shared across the package."""


class DegenerateFrameError(ValueError):
    """Projector set is (numerically) linearly dependent; no dual frame exists."""


class FrameSearchError(RuntimeError):
    """Rejection sampling failed to find a well-conditioned projector frame."""


class UndersampledDomainError(ValueError):
    """Tomogram domain too coarse for the requested inversion."""


class SchemeMismatchError(ValueError):
    """Propagation scheme not applicable to the requested operation."""


class UnsupportedInverseError(ValueError):
    """Requested inverse map is ill-posed by design (e.g. Husimi deconvolution)."""


class UnsteppableFieldError(ValueError):
    """Field whose Strang factors or phase-space flow overflow; the message
    starts with the field parameter at fault, phi or a_long, or with dt when
    the time step overflows the kinetic phase whatever the field."""


class ConfigError(ValueError):
    """Scenario configuration is malformed; message carries the offending field path."""
