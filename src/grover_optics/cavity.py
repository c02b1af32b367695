"""Cavity composition of the optical search iterator.

One cavity roundtrip applies the oracle plate, a lens transform into
the Fourier plane, the inversion-about-average (IAA) plate, a second
lens transform out, and the same chain mirrored on the way back — each
plate is traversed twice per roundtrip.  Because two successive
centered transforms equal a parity flip and the IAA plate is symmetric
about the axis, the whole roundtrip collapses to the amplitude
amplification iterator: a double-pass oracle phase followed by
``F^-1 * Phi_f^2 * F``.

Conventions used throughout:

* All propagation is expressed in oracle-plane coordinates with a
  single Fourier frame built from the first focal length; the physical
  output magnification adds no physics and is not applied.
* The output coupler records a pulse every half roundtrip.  Pulse j has
  made j - 1/2 roundtrips, so its ``iteration_count`` is j - 0.5.
* Recorded profiles are reported in a single consistent orientation —
  the oracle-plane orientation, in which the amplified peak sits at the
  oracle plate's center.
* The aggregate roundtrip energy loss is split evenly between the two
  half passes; the output mirror transmission only scales what is
  recorded and does not deplete the circulating field further.

How a pulse is computed: ``half_pass_forward`` and ``grover_iterate``
compose the checked public chain — ``ComplexField``, ``dft_centered``,
``idft_centered``, ``parity_flip`` — which validates grids at every
step and returns a fresh field each time.  ``run_search`` repeats that
chain for every pulse, so its loop instead keeps the circulating field
as a plain array in FFT-native (``ifftshift``ed) order, with both plate
phasors shifted into that order once per run.  Every step is then either
a permutation or the same arithmetic on the same operands as the chain,
so the recorded intensities (``fftshift``ed back) are bit-identical to
it; the tests use the chain as the oracle for the loop.
"""

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .elements import (
    LossModel,
    Slit,
    TrapezoidPhasePlate,
    _window_overlap,
    apply_phasor,
    apply_plate,
    apply_roundtrip_loss,
    check_plate_fits,
    plate_phasor,
)
from .errors import ConfigurationError
from .fields import (
    ComplexField,
    FourierGrid,
    Grid1D,
    _reverse_about_zero,
    dft_centered,
    gaussian_input,
    idft_centered,
    parity_flip,
)

__all__ = [
    "CavityConfig",
    "SearchTrace",
    "half_pass_forward",
    "grover_iterate",
    "run_search",
    "pulse_train",
]


def _default_grid() -> Grid1D:
    return Grid1D(n_samples=16384, pitch=2e-6)


@dataclass(frozen=True)
class CavityConfig:
    """Complete physical description of one search experiment.

    The defaults describe the reference setup: 532 nm beam with 1.33 mm
    intensity FWHM, 400/600 mm lens pair, 25% roundtrip energy loss, 2%
    output coupling, and a 16384-sample grid at 2 um pitch.
    """

    oracle_plate: TrapezoidPhasePlate
    iaa_plate: TrapezoidPhasePlate
    wavelength: float = 532e-9
    input_fwhm: float = 1.33e-3
    focal_length_1: float = 0.400
    focal_length_2: float = 0.600
    loss: LossModel = LossModel(0.75)
    output_mirror_transmission: float = 0.02
    slit: Slit | None = None
    grid: Grid1D = dataclass_field(default_factory=_default_grid)
    n_pulses: int = 12

    def __post_init__(self) -> None:
        for name in ("wavelength", "input_fwhm", "focal_length_1", "focal_length_2"):
            if not (getattr(self, name) > 0):
                raise ConfigurationError(
                    f"{name} must be positive, got {getattr(self, name)}"
                )
        if not (0 < self.output_mirror_transmission <= 1):
            raise ConfigurationError(
                "output_mirror_transmission must lie in (0, 1], got "
                f"{self.output_mirror_transmission}"
            )
        if self.n_pulses < 1:
            raise ConfigurationError(f"n_pulses must be >= 1, got {self.n_pulses}")
        if not (self.input_fwhm < self.grid.extent / 2):
            raise ConfigurationError(
                f"input_fwhm {self.input_fwhm:.6g} m must be below half the "
                f"grid extent {self.grid.extent:.6g} m"
            )
        check_plate_fits(self.oracle_plate, self.grid, "oracle")
        check_plate_fits(self.iaa_plate, self.fourier_grid.as_grid(), "IAA")

    @property
    def fourier_grid(self) -> FourierGrid:
        """Fourier frame of the first lens, shared by all transforms."""
        return FourierGrid(self.grid, self.wavelength, self.focal_length_1)

    def input_field(self) -> ComplexField:
        """The normalized gaussian beam injected into the cavity."""
        return gaussian_input(self.grid, self.input_fwhm)


@dataclass(frozen=True)
class SearchTrace:
    """Per-pulse record of a cavity run.

    Pulse j (1-based) appears at row j - 1 with iteration_count j - 0.5.
    ``profiles`` holds the recorded output intensities (scaled by the
    output mirror transmission); ``compensated_peak_values`` additionally
    multiply pulse j's peak by loss^-(j - 0.5), undoing the uniform decay
    the way the raw measurement data is rescaled for display.  Peaks that
    fall on the first or last grid sample are flagged, not fatal.

    ``peak_values`` are the brightest-sample intensities while
    ``peak_positions`` locate the dominant lobe by the centroid of its
    half-maximum region (see ``_lobe_center``): a flat-topped lobe is
    reported at its center rather than at whichever plateau edge the
    beam envelope happens to favor.
    """

    grid: Grid1D
    iteration_counts: np.ndarray
    profiles: np.ndarray
    peak_positions: np.ndarray
    peak_values: np.ndarray
    compensated_peak_values: np.ndarray
    total_energies: np.ndarray
    peak_at_edge: np.ndarray

    @property
    def n_pulses(self) -> int:
        return int(self.iteration_counts.size)


def _iaa_phasor(config: CavityConfig, passes: int) -> np.ndarray:
    """The IAA plate's mask on the Fourier plane (see ``plate_phasor``)."""
    return plate_phasor(config.iaa_plate, config.fourier_grid.as_grid(), passes)


def _through_fourier_plane(
    field: ComplexField, config: CavityConfig, iaa: np.ndarray, fraction: float
) -> ComplexField:
    """Lens, IAA plate (phasor ``iaa``), inverse lens, then ``fraction``
    of the roundtrip loss: the chain every half pass and roundtrip share.

    The result is upright (oracle-plane orientation); the physical second
    lens adds a parity flip, F = parity after F^-1, which callers apply
    where they need it.  The loss is one real scalar, so applying it
    before or after that flip gives the same bits.
    """
    fgrid = config.fourier_grid
    shifted = apply_phasor(dft_centered(field, fgrid), iaa)
    return apply_roundtrip_loss(idft_centered(shifted, fgrid), config.loss, fraction)


def _native_half_pass(field: np.ndarray, iaa: np.ndarray, scale: float) -> np.ndarray:
    """``_through_fourier_plane`` on FFT-native arrays: FFT, IAA, iFFT, loss.

    ``iaa`` is the ``ifftshift``ed phasor and ``scale`` the amplitude
    factor of the loss; the arithmetic is the chain's, operand for
    operand, so the result is its output ``ifftshift``ed, bit for bit.
    """
    spectrum = np.multiply(iaa, np.fft.fft(field, norm="ortho"))
    return np.fft.ifft(spectrum, norm="ortho") * scale


def half_pass_forward(field: ComplexField, config: CavityConfig) -> ComplexField:
    """One forward traversal: oracle, lens, IAA, lens, half the loss.

    The two lens transforms invert the image, so with both plate depths
    at zero this returns the parity-flipped input times the half-pass
    amplitude factor.  The returned field is the physical one at the
    output coupler (inverted orientation), before mirror transmission.
    """
    marked = apply_plate(field, config.oracle_plate, 1)
    return parity_flip(_through_fourier_plane(marked, config, _iaa_phasor(config, 1), 0.5))


def grover_iterate(field: ComplexField, config: CavityConfig) -> ComplexField:
    """One full roundtrip in oracle-plane coordinates.

    Applies the double-pass oracle phase, transforms to the Fourier
    plane, applies the double-pass IAA phase, transforms back, and
    takes one full roundtrip of loss.  With plate depths 0 and loss 1
    this is the identity.
    """
    marked = apply_plate(field, config.oracle_plate, 2)
    return _through_fourier_plane(marked, config, _iaa_phasor(config, 2), 1.0)


def _lobe_center(intensity: np.ndarray, coords: np.ndarray) -> float:
    """Position of the dominant intensity lobe.

    The amplified structure is flat-topped (it fills the oracle flat
    region), so the brightest single sample rides the plateau edge
    wherever the beam envelope tilts it.  The lobe is therefore located
    by the intensity-weighted centroid of the contiguous half-maximum
    region around the brightest sample, which lands at the plateau
    center for a (tilted) top-hat and at the peak for a smooth lobe.
    """
    idx = int(np.argmax(intensity))
    half = intensity[idx] / 2.0
    lo = idx
    while lo > 0 and intensity[lo - 1] >= half:
        lo -= 1
    hi = idx
    while hi < intensity.size - 1 and intensity[hi + 1] >= half:
        hi += 1
    segment = intensity[lo : hi + 1]
    return float(np.sum(coords[lo : hi + 1] * segment) / np.sum(segment))


def run_search(config: CavityConfig) -> SearchTrace:
    """Run the full cavity experiment and record every output pulse.

    The circulating field is kept at the input mirror in the oracle
    frame, in FFT-native order (see the module docstring).  Each loop
    turn records the output-plane image (upright orientation, via the
    forward half pass), then completes the roundtrip with the mirrored
    backward half pass to advance the field.  Both plates act once per
    half pass with the same mask, so each phasor is built once, before
    the pulse loop.
    """
    n = config.grid.n_samples
    loss_factor = config.loss.roundtrip_energy_factor
    scale = loss_factor ** (0.5 / 2.0)
    transmission = config.output_mirror_transmission

    iteration_counts = np.arange(1, config.n_pulses + 1) - 0.5
    profiles = np.empty((config.n_pulses, n))
    peak_positions = np.empty(config.n_pulses)
    peak_values = np.empty(config.n_pulses)
    compensated_peaks = np.empty(config.n_pulses)
    energies = np.empty(config.n_pulses)
    at_edge = np.zeros(config.n_pulses, dtype=bool)

    coords = config.grid.coordinates
    oracle = np.fft.ifftshift(plate_phasor(config.oracle_plate, config.grid, 1))
    iaa = np.fft.ifftshift(_iaa_phasor(config, 1))
    circulating = np.fft.ifftshift(config.input_field().amplitudes)
    for row, count in enumerate(iteration_counts):
        # Forward half pass, recorded in upright (oracle) orientation.
        upright = _native_half_pass(np.multiply(oracle, circulating), iaa, scale)

        intensity = np.fft.fftshift(transmission * np.abs(upright) ** 2)
        profiles[row] = intensity
        idx = int(np.argmax(intensity))
        peak_positions[row] = _lobe_center(intensity, coords)
        peak_values[row] = intensity[idx]
        compensated_peaks[row] = intensity[idx] * loss_factor ** (-count)
        energies[row] = float(np.sum(intensity) * config.grid.pitch)
        at_edge[row] = idx in (0, n - 1)

        # Backward half pass: flip to the physical output orientation,
        # traverse IAA and oracle once more, and arrive back upright.
        returned = _native_half_pass(_reverse_about_zero(upright), iaa, scale)
        circulating = np.multiply(oracle, _reverse_about_zero(returned))

    return SearchTrace(
        grid=config.grid,
        iteration_counts=iteration_counts,
        profiles=profiles,
        peak_positions=peak_positions,
        peak_values=peak_values,
        compensated_peak_values=compensated_peaks,
        total_energies=energies,
        peak_at_edge=at_edge,
    )


def pulse_train(
    config: CavityConfig, slit: Slit | None = None
) -> list[tuple[float, float]]:
    """Slit-integrated energy of every recorded (uncompensated) pulse.

    The slit defaults to ``config.slit``, or, if that is unset, to a
    55 um slit centered on the image of the oracle line.
    """
    if slit is None:
        slit = config.slit
    if slit is None:
        slit = Slit(center=config.oracle_plate.center)
    trace = run_search(config)
    overlap = _window_overlap(
        config.grid, slit.center - slit.width / 2, slit.center + slit.width / 2
    )
    return [
        (float(count), float(np.sum(trace.profiles[row] * overlap)))
        for row, count in enumerate(trace.iteration_counts)
    ]

