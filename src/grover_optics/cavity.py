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

How a pulse is computed: one kernel, ``_run_batch``, computes every
pulse of every CLI path.  It keeps the circulating field as a plain
array in FFT-native (``ifftshift``ed) order, with both plate phasors
shifted into that order once per run, so each half pass is
``np.fft.fft``, the IAA phasor, ``np.fft.ifft`` and the loss, with no
shifts; only the recorded intensity is ``fftshift``ed back.  Every step
is a permutation or the arithmetic of the same step in centered order,
on the same operands, so the profiles are bit-identical to the centered
chain; ``tests/oracle.py`` writes that chain in plain numpy and the
tests hold the kernel to it bit for bit.

The loop runs B cavities with one grid and pulse count at once along
a leading batch axis: the circulating fields and both plate phasors
are ``(B, n)`` arrays, the loss scale and the output transmission
``(B, 1)`` columns, and each half pass writes into the same
preallocated buffers.  Each row's arithmetic is the single-cavity
arithmetic, so batching changes no bit.  ``run_search`` is the batch
of one.

Each pulse is measured in the loop, row by row, on its intensity: the
brightest sample, the lobe center, the total energy and the energy
through the detection slit.  The loop then hands the pulse's ``(B, n)``
intensities, a new array each pulse, to the caller's ``on_pulse``, if
any: the CLI's search mode writes ``profiles.csv`` from that hand-off
on a second thread while the loop runs (see ``runner``), so no
``(B, P, n)`` array is built.  The hand-off is the only way a profile
leaves the loop; a trace keeps the measurements, and the pulse train
reads its slit energies off it.
"""

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .elements import TrapezoidPhasePlate, _window_overlap, check_plate_fits, plate_phasor
from .errors import ConfigurationError
from .fields import FourierGrid, Grid1D, _reverse_about_zero, gaussian_input

# Patched by perfbench/spans.py; delete with ROADMAP item 2.
from .elements import apply_plate, apply_roundtrip_loss  # noqa: F401
from .fields import dft_centered, idft_centered, parity_flip  # noqa: F401

__all__ = [
    "CavityConfig",
    "SearchTrace",
    "run_search",
    "pulse_train",
]


def _default_grid() -> Grid1D:
    return Grid1D(n_samples=16384, pitch=2e-6)


@dataclass(frozen=True)
class CavityConfig:
    """Complete physical description of one search experiment.

    The defaults describe the reference setup: 532 nm beam with 1.33 mm
    intensity FWHM, a 400 mm first lens (whose Fourier frame every
    transform uses), 25% roundtrip energy loss, 2% output coupling, a
    55 um detection slit on the image of the oracle line, and a
    16384-sample grid at 2 um pitch.  ``roundtrip_energy_factor`` is the
    fraction of the pulse energy a roundtrip keeps and
    ``output_mirror_transmission`` the fraction the output mirror
    records; both lie in (0, 1].  ``slit_center`` None means the
    oracle plate's center; ``slit_window`` is the window it gives, and
    the one every pulse's slit energy integrates over.
    """

    oracle_plate: TrapezoidPhasePlate
    iaa_plate: TrapezoidPhasePlate
    wavelength: float = 532e-9
    input_fwhm: float = 1.33e-3
    focal_length_1: float = 0.400
    roundtrip_energy_factor: float = 0.75
    output_mirror_transmission: float = 0.02
    slit_center: float | None = None
    slit_width: float = 55e-6
    grid: Grid1D = dataclass_field(default_factory=_default_grid)
    n_pulses: int = 12

    def __post_init__(self) -> None:
        for name in ("wavelength", "input_fwhm", "focal_length_1", "slit_width"):
            if not (getattr(self, name) > 0):
                raise ConfigurationError(
                    f"{name} must be positive, got {getattr(self, name)}"
                )
        for name in ("roundtrip_energy_factor", "output_mirror_transmission"):
            if not (0 < getattr(self, name) <= 1):
                raise ConfigurationError(
                    f"{name} must lie in (0, 1], got {getattr(self, name)}"
                )
        if self.n_pulses < 1:
            raise ConfigurationError(f"n_pulses must be >= 1, got {self.n_pulses}")
        # The last pulse's compensation (``_pulse_counts``) must be finite,
        # and its mean intensity normal, so that its brightest sample, at
        # least the mean, has a lobe to measure.
        with np.errstate(over="ignore"):
            compensation = self.roundtrip_energy_factor ** (0.5 - np.float64(self.n_pulses))
        mean = self.output_mirror_transmission / compensation / self.grid.extent
        if not (mean >= np.finfo(np.float64).tiny):
            raise ConfigurationError(
                f"pulse {self.n_pulses} leaves float64's normal range: mean intensity "
                f"{mean:.6g} at loss compensation {compensation:.6g}"
            )
        if not (self.input_fwhm < self.grid.extent / 2):
            raise ConfigurationError(
                f"input_fwhm {self.input_fwhm:.6g} m must be below half the "
                f"grid extent {self.grid.extent:.6g} m"
            )
        check_plate_fits(self.oracle_plate, self.grid, "oracle")
        check_plate_fits(self.iaa_plate, self.fourier_grid.as_grid(), "IAA")
        # A slit that misses every sample cell would record 0 energy for
        # every pulse and nan for every ratio.  Outer edges of the first
        # and last sample cells:
        half, pitch = self.grid.n_samples // 2, self.grid.pitch
        first, last = -(half + 0.5) * pitch, (half - 0.5) * pitch
        lo, hi = self.slit_window
        if hi <= first or lo >= last:
            raise ConfigurationError(
                f"slit window [{lo:.6g}, {hi:.6g}] m does not overlap the "
                f"grid's extent [{first:.6g}, {last:.6g}] m"
            )

    @property
    def slit_window(self) -> tuple[float, float]:
        """The detection slit's ``(lo, hi)`` in meters, oracle plane."""
        center = self.oracle_plate.center if self.slit_center is None else self.slit_center
        return center - self.slit_width / 2, center + self.slit_width / 2

    @property
    def fourier_grid(self) -> FourierGrid:
        """Fourier frame of the first lens, shared by all transforms."""
        return FourierGrid(self.grid, self.wavelength, self.focal_length_1)


@dataclass(frozen=True)
class SearchTrace:
    """Per-pulse record of a cavity run.

    Pulse j (1-based) appears at row j - 1 with iteration_count j - 0.5.
    The trace keeps no profile: each pulse's output intensity (scaled
    by the output mirror transmission) goes to ``run_search``'s
    ``on_pulse`` as the loop measures it.  ``slit_energies`` are the
    uncompensated energies through ``CavityConfig.slit_window``: each
    sample cell's intensity weighted by the length of it the window
    covers, summed over the whole grid.  ``compensation`` holds pulse
    j's factor ``roundtrip_energy_factor ** -(j - 0.5)``, which undoes
    the uniform decay the way the raw measurement data is rescaled for
    display; ``compensated_peak_values`` and the compensated profiles of
    ``profiles.csv`` are scaled by it.  Peaks that fall on the first or
    last grid sample are flagged, not fatal.

    ``peak_values`` are the brightest-sample intensities while
    ``peak_positions`` locate the dominant lobe by the centroid of its
    half-maximum region (see ``_lobe_center``): a flat-topped lobe is
    reported at its center rather than at whichever plateau edge the
    beam envelope happens to favor.
    """

    iteration_counts: np.ndarray
    peak_positions: np.ndarray
    peak_values: np.ndarray
    compensation: np.ndarray
    total_energies: np.ndarray
    slit_energies: np.ndarray
    peak_at_edge: np.ndarray

    @property
    def n_pulses(self) -> int:
        return int(self.iteration_counts.size)

    @property
    def compensated_peak_values(self) -> np.ndarray:
        return self.peak_values * self.compensation


def _native_half_pass(
    field: np.ndarray, iaa: np.ndarray, scale: float | np.ndarray, spectrum: np.ndarray
) -> np.ndarray:
    """Lens, IAA plate, inverse lens and half the roundtrip loss, on
    FFT-native arrays: FFT, IAA phasor, iFFT, loss.

    Works in place along the last axis: ``field`` (one row or a
    ``(B, n)`` batch) is overwritten with the result and returned, and
    ``spectrum``, of the same shape, holds the Fourier plane.  ``iaa`` is
    each row's ``ifftshift``ed phasor, shaped as ``field``, and ``scale``
    the loss's amplitude factor, a float or a ``(B, 1)`` column.  The
    result is upright (oracle-plane orientation); the physical second
    lens adds a parity flip, F = parity after F^-1, which the caller
    applies where it needs it.  ``out=`` on the fft functions needs
    numpy 2.0, the package's declared floor.
    """
    np.fft.fft(field, norm="ortho", out=spectrum)
    np.multiply(iaa, spectrum, out=spectrum)
    np.fft.ifft(spectrum, norm="ortho", out=field)
    return np.multiply(field, scale, out=field)


def _lobe_center(intensity: np.ndarray, coords: np.ndarray, idx: int) -> float:
    """Position of the dominant intensity lobe.

    The amplified structure is flat-topped (it fills the oracle flat
    region), so the brightest single sample rides the plateau edge
    wherever the beam envelope tilts it.  The lobe is therefore located
    by the intensity-weighted centroid of the contiguous half-maximum
    region around the brightest sample, ``intensity[idx]``, which lands
    at the plateau center for a (tilted) top-hat and at the peak for a
    smooth lobe.
    """
    half = intensity[idx] / 2.0
    lo = idx
    while lo > 0 and intensity[lo - 1] >= half:
        lo -= 1
    hi = idx
    while hi < intensity.size - 1 and intensity[hi + 1] >= half:
        hi += 1
    segment = intensity[lo : hi + 1]
    return float(np.sum(coords[lo : hi + 1] * segment) / np.sum(segment))


def _batch_key(config: CavityConfig) -> tuple:
    """The settings that cavities run together by ``_run_batch`` share:
    the two that fix the arrays' shapes.  Every other setting is a row's
    own."""
    return config.grid, config.n_pulses


def _pulse_counts(config: CavityConfig) -> tuple[np.ndarray, np.ndarray]:
    """Pulse j's iteration count j - 0.5 and loss compensation factor
    roundtrip_energy_factor^-(j - 0.5), for j = 1..``n_pulses``."""
    counts = np.arange(1, config.n_pulses + 1) - 0.5
    loss_factor = config.roundtrip_energy_factor
    return counts, np.array([loss_factor ** (-count) for count in counts])


def _run_batch(configs: list[CavityConfig], on_pulse=None) -> list[SearchTrace]:
    """Run cavities as the rows of one array; one trace each.

    Every config must have the same ``_batch_key``; each row's IAA phasor
    is built on its own Fourier grid (see the module docstring for the
    layout).  All arithmetic is row-wise, so each row's trace is
    bit-identical to running its config alone.  After measuring pulse
    ``row`` the loop calls ``on_pulse(row, intensities)`` with the
    ``(B, n)`` centered intensities, a new array that the caller owns.
    """
    first = configs[0]
    if any(_batch_key(config) != _batch_key(first) for config in configs):
        raise ValueError("batched cavities must share the grid and the pulse count")
    rows, n, n_pulses = len(configs), first.grid.n_samples, first.n_pulses
    scale = np.array([[c.roundtrip_energy_factor ** (0.5 / 2.0)] for c in configs])
    transmission = np.array([[c.output_mirror_transmission] for c in configs])
    pitch = first.grid.pitch
    coords = first.grid.coordinates
    half = (n + 1) // 2  # fftshift moves samples [half, n) to the front

    peak_positions, peak_values, energies, slit_energies = np.empty((4, rows, n_pulses))
    at_edge = np.zeros((rows, n_pulses), dtype=bool)

    def native(lines: list) -> np.ndarray:  # the (B, n) stack in FFT-native order
        return np.fft.ifftshift(np.stack(lines), axes=-1)

    oracle = native([plate_phasor(c.oracle_plate, c.grid) for c in configs])
    iaa = native([plate_phasor(c.iaa_plate, c.fourier_grid.as_grid()) for c in configs])
    circulating = native([gaussian_input(c.grid, c.input_fwhm) for c in configs])
    field = np.empty_like(circulating)
    spectrum = np.empty_like(circulating)
    power = np.empty((rows, n))
    overlaps = [_window_overlap(c.grid, *c.slit_window) for c in configs]
    for row in range(n_pulses):
        # Forward half pass, recorded in upright (oracle) orientation.
        # Every plate multiply puts the phasor first: the vectorized
        # complex multiply is not bitwise commutative, and this is the
        # order in which numpy evaluated ``amplitudes * exp(...)`` on
        # arrays of 256 KiB and more, where it reuses the temporary
        # ``exp`` result in place.  Keeping it pins the output bits.
        np.multiply(oracle, circulating, out=field)
        _native_half_pass(field, iaa, scale, spectrum)

        # transmission * |field|**2, fftshifted back to centered order.
        np.abs(field, out=power)
        np.square(power, out=power)
        np.multiply(power, transmission, out=power)
        intensities = np.concatenate((power[:, half:], power[:, :half]), axis=-1)
        for b, line in enumerate(intensities):
            idx = int(np.argmax(line))
            peak_positions[b, row] = _lobe_center(line, coords, idx)
            peak_values[b, row] = line[idx]
            energies[b, row] = float(np.sum(line) * pitch)
            slit_energies[b, row] = np.sum(line * overlaps[b])
            at_edge[b, row] = idx in (0, n - 1)
        if on_pulse is not None:
            on_pulse(row, intensities)
        if row == n_pulses - 1:
            break

        # Backward half pass: flip to the physical output orientation,
        # traverse IAA and oracle once more, and arrive back upright.
        _reverse_about_zero(field, out=circulating)
        _native_half_pass(circulating, iaa, scale, spectrum)
        _reverse_about_zero(circulating, out=field)
        np.multiply(oracle, field, out=circulating)

    return [
        SearchTrace(iteration_counts=counts, peak_positions=peak_positions[b],
                    peak_values=peak_values[b], compensation=compensation,
                    total_energies=energies[b], slit_energies=slit_energies[b],
                    peak_at_edge=at_edge[b])
        for b, (counts, compensation) in enumerate(map(_pulse_counts, configs))
    ]


def run_search(config: CavityConfig, on_pulse=None) -> SearchTrace:
    """Run the full cavity experiment and record every output pulse.

    This is ``_run_batch`` with a batch of one.  The circulating field
    is kept at the input mirror in the oracle frame, in FFT-native order
    (see the module docstring).  Each loop turn records the output-plane
    image (upright orientation, via the forward half pass), then, but
    after the last pulse, completes the roundtrip with the mirrored
    backward half pass to advance the field.  Both plates act once per
    half pass with the same mask, so each phasor is built once, before
    the pulse loop.  The trace keeps the per-pulse measurements;
    ``on_pulse``, if given, takes each pulse's ``(1, n)`` intensity as
    the loop measures it, a new array that the caller may keep.
    """
    return _run_batch([config], on_pulse)[0]


def pulse_train(config: CavityConfig) -> list[tuple[float, float]]:
    """``(iteration_count, slit_energy)`` of every recorded pulse.

    The energies are uncompensated and integrate over
    ``config.slit_window`` (see ``SearchTrace``).  The loop measures them
    pulse by pulse, so no profile is kept.
    """
    trace = run_search(config)
    return [
        (float(count), float(energy))
        for count, energy in zip(trace.iteration_counts, trace.slit_energies)
    ]
