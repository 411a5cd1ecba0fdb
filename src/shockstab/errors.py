"""Exception types shared across the package."""

__all__ = [
    "ShockStabError",
    "GridError",
    "FlowFileError",
    "StateError",
    "SettingsError",
    "LinearizationError",
    "EigenSolveError",
    "EvolutionError",
    "FitError",
]


class ShockStabError(Exception):
    """Base class for all errors raised by this package."""


class GridError(ShockStabError):
    """Malformed grid file or geometrically invalid mesh."""


class FlowFileError(ShockStabError):
    """Malformed or inconsistent flow-field or matrix-dump files."""


class StateError(ShockStabError):
    """Non-physical state (non-positive density/pressure) or bad state input."""


class SettingsError(ShockStabError):
    """Invalid, missing, or unknown configuration keys/values."""


class LinearizationError(ShockStabError):
    """Finite-difference linearization produced non-finite entries."""


class EigenSolveError(ShockStabError):
    """Eigenvalue solve failed, exceeded its size cap, or did not converge."""


class EvolutionError(ShockStabError):
    """Time integration diverged or produced an unusable signal."""


class FitError(ShockStabError):
    """Growth-rate fit could not isolate a clean exponential segment."""
