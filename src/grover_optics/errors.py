"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes, so simulation code should
raise the most specific type that applies rather than bare ValueError.
"""

__all__ = [
    "GroverOpticsError",
    "ConfigurationError",
    "GridMismatchError",
    "MeasurementError",
]


class GroverOpticsError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(GroverOpticsError, ValueError):
    """A parameter or config file violates a documented constraint."""


class GridMismatchError(GroverOpticsError, ValueError):
    """Fields or grids with incompatible sampling were combined."""


class MeasurementError(GroverOpticsError, RuntimeError):
    """A profile measurement's precondition does not hold (e.g. no
    interior maximum, or a peak clipped by the grid edge)."""
