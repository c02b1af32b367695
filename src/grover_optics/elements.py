"""Cavity elements as pure field transformations.

Phase plates multiply the field by a unit-modulus phase mask, loss is a
uniform amplitude scalar, and the detection slit integrates intensity
over a window with fractional edge-sample coverage.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .fields import ComplexField, Grid1D

__all__ = [
    "TrapezoidPhasePlate",
    "LossModel",
    "Slit",
    "phase_profile",
    "plate_phasor",
    "apply_phasor",
    "apply_plate",
    "apply_roundtrip_loss",
    "slit_energy",
]


@dataclass(frozen=True)
class TrapezoidPhasePlate:
    """Phase plate with a flat core and linear ramps on either side.

    The imprinted phase equals ``phase_depth`` (radians, per single
    pass) on ``[center - flat_width/2, center + flat_width/2]``, falls
    linearly to zero over ``ramp_width`` on each side, and is zero
    outside.  ``ramp_width = 0`` gives a hard-edged plate.
    """

    center: float
    flat_width: float
    ramp_width: float
    phase_depth: float

    def __post_init__(self) -> None:
        if not (self.flat_width > 0):
            raise ConfigurationError(
                f"flat_width must be positive, got {self.flat_width}"
            )
        if self.ramp_width < 0:
            raise ConfigurationError(
                f"ramp_width must be non-negative, got {self.ramp_width}"
            )
        if abs(self.phase_depth) > np.pi:
            raise ConfigurationError(
                f"|phase_depth| must not exceed pi, got {self.phase_depth}"
            )

    @property
    def support_half_width(self) -> float:
        """Distance from center to where the profile reaches zero."""
        return self.flat_width / 2.0 + self.ramp_width


@dataclass(frozen=True)
class LossModel:
    """Uniform roundtrip energy loss; factor 0.75 means 25% lost."""

    roundtrip_energy_factor: float = 0.75

    def __post_init__(self) -> None:
        if not (0 < self.roundtrip_energy_factor <= 1):
            raise ConfigurationError(
                "roundtrip_energy_factor must lie in (0, 1], got "
                f"{self.roundtrip_energy_factor}"
            )


@dataclass(frozen=True)
class Slit:
    """Movable detection slit (width defaults to 55 um)."""

    center: float
    width: float = 55e-6

    def __post_init__(self) -> None:
        if not (self.width > 0):
            raise ConfigurationError(f"slit width must be positive, got {self.width}")


def check_plate_fits(plate: TrapezoidPhasePlate, grid: Grid1D, label: str) -> None:
    """Raise ConfigurationError when the plate's support extends past the
    first or last sample of ``grid``, since a clipped plate silently
    changes the physics.  ``label`` names the plate in the message.
    """
    # grid.coordinates[0] and [-1], without building the array.
    half = grid.n_samples // 2
    first, last = -half * grid.pitch, (half - 1) * grid.pitch
    reach = plate.support_half_width
    if plate.center - reach < first or plate.center + reach > last:
        raise ConfigurationError(
            f"{label} plate support [{plate.center - reach:.6g}, "
            f"{plate.center + reach:.6g}] m does not fit inside its "
            f"plane's extent [{first:.6g}, {last:.6g}] m"
        )


def phase_profile(plate: TrapezoidPhasePlate, grid: Grid1D) -> np.ndarray:
    """Per-sample phase (radians) of a trapezoid plate on a grid.

    Raises ConfigurationError when the plate does not fit the grid
    (see :func:`check_plate_fits`).
    """
    check_plate_fits(plate, grid, "phase")
    x = grid.coordinates
    distance = np.abs(x - plate.center)
    half_flat = plate.flat_width / 2.0
    if plate.ramp_width == 0:
        shape = (distance <= half_flat).astype(float)
    else:
        shape = np.clip((half_flat + plate.ramp_width - distance) / plate.ramp_width, 0.0, 1.0)
    return plate.phase_depth * shape


def plate_phasor(plate: TrapezoidPhasePlate, grid: Grid1D, passes: int) -> np.ndarray:
    """The complex mask exp(i * passes * phase_profile) of a plate on a grid.

    ``passes`` is 1 for a one-way traversal, 2 for the double pass a
    plate sees per cavity roundtrip.  A plate that acts on many pulses
    needs its phasor built only once.
    """
    if passes not in (1, 2):
        raise ConfigurationError(f"passes must be 1 or 2, got {passes}")
    return np.exp(1j * passes * phase_profile(plate, grid))


def apply_phasor(field: ComplexField, phasor: np.ndarray) -> ComplexField:
    """Multiply the field by a unit-modulus mask from :func:`plate_phasor`.

    The product is written ``phasor * amplitudes``, in that order: the
    vectorized complex multiply is not bitwise commutative, and this is
    the order in which numpy evaluated ``amplitudes * exp(...)`` on
    arrays of 256 KiB and more, where it reuses the temporary ``exp``
    result in place.  Keeping it pins the output bits on the default
    grid.
    """
    return ComplexField(field.grid, np.multiply(phasor, field.amplitudes))


def apply_plate(field: ComplexField, plate: TrapezoidPhasePlate, passes: int) -> ComplexField:
    """Multiply the field by exp(i * passes * phase_profile).

    Energy is unchanged.  See :func:`plate_phasor` for ``passes``.
    """
    return apply_phasor(field, plate_phasor(plate, field.grid, passes))


def apply_roundtrip_loss(
    field: ComplexField, loss: LossModel, fraction_of_roundtrip: float
) -> ComplexField:
    """Scale amplitudes so energy drops by factor**fraction_of_roundtrip."""
    if not (0 < fraction_of_roundtrip <= 1):
        raise ConfigurationError(
            f"fraction_of_roundtrip must lie in (0, 1], got {fraction_of_roundtrip}"
        )
    scale = loss.roundtrip_energy_factor ** (fraction_of_roundtrip / 2.0)
    return ComplexField(field.grid, field.amplitudes * scale)


def _window_overlap(grid: Grid1D, lo: float, hi: float) -> np.ndarray:
    """Length of each sample cell's intersection with [lo, hi]."""
    x = grid.coordinates
    half = grid.pitch / 2.0
    return np.clip(np.minimum(x + half, hi) - np.maximum(x - half, lo), 0.0, None)


def slit_energy(field: ComplexField, slit: Slit) -> float:
    """Intensity integral over the slit window.

    Each sample is a cell of width ``pitch`` centered on its
    coordinate; cells partially covered by the slit contribute in
    proportion to the covered fraction.
    """
    lo = slit.center - slit.width / 2.0
    hi = slit.center + slit.width / 2.0
    overlap = _window_overlap(field.grid, lo, hi)
    return float(np.sum(field.intensity * overlap))
