"""Derived quantities: peak growth, N/m estimates, diffraction limits."""

from dataclasses import dataclass

import numpy as np

from .cavity import SearchTrace
from .errors import ConfigurationError, MeasurementError

__all__ = [
    "PeakTrace",
    "first_maximum",
    "estimate_nm",
    "expected_nm",
    "rayleigh_resolution",
    "max_database_size",
    "equivalent_qubits",
]


@dataclass(frozen=True)
class PeakTrace:
    """Peak value/position versus iteration count."""

    iteration_counts: np.ndarray
    peak_values: np.ndarray
    peak_positions: np.ndarray

    def __post_init__(self) -> None:
        counts = np.asarray(self.iteration_counts, dtype=float)
        values = np.asarray(self.peak_values, dtype=float)
        positions = np.asarray(self.peak_positions, dtype=float)
        if not (counts.size == values.size == positions.size):
            raise ConfigurationError("peak trace arrays must have equal length")
        if counts.size >= 2 and not np.all(np.diff(counts) > 0):
            raise ConfigurationError("iteration_counts must be strictly increasing")
        object.__setattr__(self, "iteration_counts", counts)
        object.__setattr__(self, "peak_values", values)
        object.__setattr__(self, "peak_positions", positions)

    @classmethod
    def from_search_trace(cls, trace: SearchTrace, compensated: bool = True) -> "PeakTrace":
        """Extract the peak trace, by default from loss-compensated profiles."""
        values = trace.compensated_peak_values if compensated else trace.peak_values
        return cls(trace.iteration_counts, values, trace.peak_positions)


def first_maximum(trace: PeakTrace) -> float:
    """Iteration count of the first local maximum of the peak values.

    The discrete maximum is refined to the vertex of the parabola through
    the three bracketing samples, so half-integer results are meaningful
    even at unit pulse spacing.  With steps h0 and h1 on either side of
    sample i, a = h0 (v[i] - v[i+1]) > 0 and b = h1 (v[i] - v[i-1]) >= 0,
    the vertex t[i] + (h1 b - h0 a) / (2 (a + b)) lies within half a step
    of t[i].  Raises MeasurementError when the trace has no interior
    maximum (run more pulses).
    """
    t = trace.iteration_counts
    v = trace.peak_values
    if t.size < 3:
        raise MeasurementError("need at least 3 trace points to locate a maximum")
    for i in range(1, t.size - 1):
        if v[i - 1] <= v[i] > v[i + 1]:
            h0, h1 = t[i] - t[i - 1], t[i + 1] - t[i]
            a, b = h0 * (v[i] - v[i + 1]), h1 * (v[i] - v[i - 1])
            return float(t[i] + (h1 * b - h0 * a) / (2.0 * (a + b)))
    raise MeasurementError(
        "peak values have no interior maximum; extend the run to cover one"
    )


def estimate_nm(k_star: float, phase_per_pass: float) -> float:
    """Invert the optimum-iteration formula: N/m = (4 sin|phi| k*/pi)^2.

    With phase_per_pass = pi/2 this is the ideal-phase inversion
    (4 k*/pi)^2.
    """
    if k_star <= 0:
        raise ConfigurationError(f"k_star must be positive, got {k_star}")
    magnitude = abs(phase_per_pass)
    if not (0 < magnitude <= np.pi / 2):
        raise ConfigurationError(
            f"phase_per_pass magnitude must lie in (0, pi/2], got {phase_per_pass}"
        )
    return float((4.0 * np.sin(magnitude) * k_star / np.pi) ** 2)


def expected_nm(beam_fwhm: float, flat_width: float) -> float:
    """Geometric N/m: beam FWHM over oracle flat width."""
    if beam_fwhm <= 0 or flat_width <= 0:
        raise ConfigurationError("beam_fwhm and flat_width must be positive")
    return float(beam_fwhm / flat_width)


def rayleigh_resolution(wavelength: float, numerical_aperture: float) -> float:
    """Smallest resolvable feature 0.61 * lambda / NA."""
    if wavelength <= 0 or numerical_aperture <= 0:
        raise ConfigurationError("wavelength and numerical_aperture must be positive")
    return float(0.61 * wavelength / numerical_aperture)


def max_database_size(beam_diameter: float, resolution: float, dims: int) -> float:
    """Distinguishable item positions: (diameter/resolution)^dims."""
    if beam_diameter <= 0 or resolution <= 0:
        raise ConfigurationError("beam_diameter and resolution must be positive")
    if dims not in (1, 2):
        raise ConfigurationError(f"dims must be 1 or 2, got {dims}")
    return float((beam_diameter / resolution) ** dims)


def equivalent_qubits(beam_diameter: float, resolution: float, dims: int) -> float:
    """Qubit count whose register matches the database size: dims*log2(D/r)."""
    if dims not in (1, 2):
        raise ConfigurationError(f"dims must be 1 or 2, got {dims}")
    return float(dims * np.log2(max_database_size(beam_diameter, resolution, 1)))
