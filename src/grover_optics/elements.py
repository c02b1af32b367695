"""Cavity elements as pure field transformations.

Phase plates multiply the field by a unit-modulus phase mask, loss is a
uniform amplitude scalar, and a detection window weights each sample
cell by the length of it that the window covers.  Where the slit sits
and how wide it is are ``CavityConfig`` settings (``slit_window``).
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .fields import ComplexField, Grid1D

__all__ = [
    "TrapezoidPhasePlate",
    "phase_profile",
    "plate_phasor",
    "apply_plate",
    "apply_roundtrip_loss",
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


def plate_phasor(plate: TrapezoidPhasePlate, grid: Grid1D) -> np.ndarray:
    """The complex mask exp(i * phase_profile) of one pass through a
    plate.  A plate that acts on many pulses needs its phasor built only
    once."""
    return np.exp(1j * phase_profile(plate, grid))


def apply_plate(field: ComplexField, plate: TrapezoidPhasePlate, passes: int) -> ComplexField:
    """Multiply the field by exp(i * passes * phase_profile), phasor first
    (as the pulse loop does; see ``cavity._run_batch``).

    ``passes`` is 1 for a one-way traversal, 2 for the double pass a
    plate sees per cavity roundtrip.  Energy is unchanged.
    """
    if passes not in (1, 2):
        raise ConfigurationError(f"passes must be 1 or 2, got {passes}")
    phasor = np.exp(1j * passes * phase_profile(plate, field.grid))
    return ComplexField(field.grid, np.multiply(phasor, field.amplitudes))


def apply_roundtrip_loss(
    field: ComplexField, roundtrip_energy_factor: float, fraction_of_roundtrip: float
) -> ComplexField:
    """Scale amplitudes so energy drops by
    roundtrip_energy_factor**fraction_of_roundtrip; a factor of 0.75
    loses 25% of the energy per roundtrip."""
    for name, value in (("roundtrip_energy_factor", roundtrip_energy_factor),
                        ("fraction_of_roundtrip", fraction_of_roundtrip)):
        if not (0 < value <= 1):
            raise ConfigurationError(f"{name} must lie in (0, 1], got {value}")
    scale = roundtrip_energy_factor ** (fraction_of_roundtrip / 2.0)
    return ComplexField(field.grid, field.amplitudes * scale)


def _window_overlap(grid: Grid1D, lo: float, hi: float) -> np.ndarray:
    """Length of each sample cell's intersection with [lo, hi]."""
    x = grid.coordinates
    half = grid.pitch / 2.0
    return np.clip(np.minimum(x + half, hi) - np.maximum(x - half, lo), 0.0, None)
