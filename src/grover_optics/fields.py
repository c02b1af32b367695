"""Sampled complex fields and the centered unitary Fourier transform.

A transverse beam profile is represented by complex amplitudes on a
uniform 1-D grid.  Both the spatial plane and the lens Fourier plane are
indexed with sample n/2 at the origin, so that applying the transform
twice is exactly the parity permutation ``i -> (n - i) mod n`` — the
discrete counterpart of a lens pair imaging with inversion.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, GridMismatchError, MeasurementError

__all__ = [
    "Grid1D",
    "ComplexField",
    "FourierGrid",
    "gaussian_input",
    "dft_centered",
    "idft_centered",
    "parity_flip",
    "total_energy",
    "intensity_fwhm",
    "peak",
]


@dataclass(frozen=True)
class Grid1D:
    """Uniform sampling lattice with a physical pitch.

    Parameters
    ----------
    n_samples:
        Number of samples; must be a power of two and at least 16.
    pitch:
        Sample spacing in meters.
    """

    n_samples: int
    pitch: float

    def __post_init__(self) -> None:
        n = self.n_samples
        if n < 16 or (n & (n - 1)) != 0:
            raise ConfigurationError(
                f"n_samples must be a power of two >= 16, got {n}"
            )
        if not (self.pitch > 0):
            raise ConfigurationError(f"pitch must be positive, got {self.pitch}")

    @property
    def extent(self) -> float:
        """Total physical width covered by the grid, in meters."""
        return self.n_samples * self.pitch

    @property
    def coordinates(self) -> np.ndarray:
        """Sample coordinates x_i = (i - n/2) * pitch, in meters."""
        return (np.arange(self.n_samples) - self.n_samples // 2) * self.pitch


@dataclass(frozen=True)
class ComplexField:
    """Complex amplitude samples E(x_i) on a grid.

    The amplitude array is copied on construction and should be treated
    as immutable; every operation in this package returns a new field.
    """

    grid: Grid1D
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amp = np.array(self.amplitudes, dtype=np.complex128, copy=True)
        if amp.ndim != 1 or amp.shape[0] != self.grid.n_samples:
            raise GridMismatchError(
                f"amplitude array of length {amp.shape} does not match "
                f"grid with {self.grid.n_samples} samples"
            )
        object.__setattr__(self, "amplitudes", amp)

    @property
    def intensity(self) -> np.ndarray:
        """Per-sample intensity |E|^2 (a fresh real array)."""
        return np.abs(self.amplitudes) ** 2


@dataclass(frozen=True)
class FourierGrid:
    """Coordinate frame of the lens Fourier plane.

    A thin lens of focal length ``f`` maps spatial frequency nu to the
    transverse coordinate x' = lambda * f * nu, so a source grid of
    extent L acquires a Fourier-plane pitch of lambda * f / L.

    Parameters
    ----------
    source:
        Grid the input field is sampled on.
    wavelength:
        Vacuum wavelength in meters.
    focal_length:
        Lens focal length in meters.
    """

    source: Grid1D
    wavelength: float
    focal_length: float

    def __post_init__(self) -> None:
        if not (self.wavelength > 0):
            raise ConfigurationError(
                f"wavelength must be positive, got {self.wavelength}"
            )
        if not (self.focal_length > 0):
            raise ConfigurationError(
                f"focal_length must be positive, got {self.focal_length}"
            )

    @property
    def pitch(self) -> float:
        """Fourier-plane sample spacing lambda * f / extent, in meters."""
        return self.wavelength * self.focal_length / self.source.extent

    @property
    def extent(self) -> float:
        """Fourier-plane width lambda * f / source pitch, in meters."""
        return self.wavelength * self.focal_length / self.source.pitch

    @property
    def coordinates(self) -> np.ndarray:
        """Fourier-plane coordinates x'_k = (k - n/2) * pitch."""
        n = self.source.n_samples
        return (np.arange(n) - n // 2) * self.pitch

    def as_grid(self) -> Grid1D:
        """The Fourier plane viewed as a plain Grid1D."""
        return Grid1D(self.source.n_samples, self.pitch)


def gaussian_input(grid: Grid1D, fwhm: float) -> ComplexField:
    """Flat-phase gaussian beam with a given intensity FWHM, energy 1.

    Parameters
    ----------
    grid:
        Grid to sample on.
    fwhm:
        Full width at half maximum of the intensity profile, meters.
        Must satisfy 0 < fwhm < extent/2 so the tails are not clipped.

    Returns
    -------
    ComplexField
        Real, non-negative amplitudes normalized so total_energy == 1.
    """
    if not (0 < fwhm < grid.extent / 2):
        raise ConfigurationError(
            f"gaussian fwhm {fwhm} m outside (0, extent/2) = "
            f"(0, {grid.extent / 2}) m"
        )
    x = grid.coordinates
    amp = np.exp(-2.0 * np.log(2.0) * (x / fwhm) ** 2)
    amp = amp / np.sqrt(np.sum(amp**2) * grid.pitch)
    return ComplexField(grid, amp.astype(np.complex128))


def _centered_dft(amplitudes: np.ndarray, inverse: bool) -> np.ndarray:
    shifted = np.fft.ifftshift(amplitudes)
    if inverse:
        transformed = np.fft.ifft(shifted, norm="ortho")
    else:
        transformed = np.fft.fft(shifted, norm="ortho")
    return np.fft.fftshift(transformed)


def dft_centered(field: ComplexField, fgrid: FourierGrid) -> ComplexField:
    """Unitary centered DFT of a spatial field, onto the Fourier plane.

    Zero frequency lands at sample n/2; energy (array norm) is
    preserved exactly up to floating point.
    """
    if field.grid != fgrid.source:
        raise GridMismatchError(
            "field grid does not match the Fourier grid's source grid"
        )
    return ComplexField(fgrid.as_grid(), _centered_dft(field.amplitudes, False))


def idft_centered(field: ComplexField, fgrid: FourierGrid) -> ComplexField:
    """Exact inverse of :func:`dft_centered`, back onto the source grid."""
    if field.grid != fgrid.as_grid():
        raise GridMismatchError(
            "field grid does not match the Fourier plane of this FourierGrid"
        )
    return ComplexField(fgrid.source, _centered_dft(field.amplitudes, True))


def parity_flip(field: ComplexField) -> ComplexField:
    """Spatial inversion x -> -x on the same grid.

    This is the index permutation i -> (n - i) mod n, which is exactly
    what two successive centered transforms produce: sample 0 stays and
    the rest are reversed, so no index array is needed.
    """
    return ComplexField(field.grid, _reverse_about_zero(field.amplitudes))


def _reverse_about_zero(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The permutation i -> (n - i) mod n along the last axis of ``a``.

    It is the parity flip in centered order and, because it commutes
    with the half-length roll, in FFT-native (``ifftshift``) order too.
    ``out``, if given, receives the result and must not overlap ``a``.
    """
    return np.concatenate((a[..., :1], a[..., :0:-1]), axis=-1, out=out)


def total_energy(field: ComplexField) -> float:
    """Discrete energy integral: sum of |E|^2 times the grid pitch."""
    return float(np.sum(field.intensity) * field.grid.pitch)


def _max_plateau(intensity: np.ndarray) -> tuple[int, int]:
    """Indices [lo, hi] of the contiguous run of global-maximum samples.

    Raises MeasurementError when the maximum is attained on two or more
    disjoint plateaus (no unique maximum) or touches the grid edge.
    """
    peak_val = float(np.max(intensity))
    at_max = np.flatnonzero(intensity >= peak_val * (1.0 - 1e-12))
    lo, hi = int(at_max[0]), int(at_max[-1])
    if hi - lo + 1 != at_max.size:
        raise MeasurementError(
            "intensity profile has multiple disjoint maxima; "
            "no unique peak to measure"
        )
    if lo == 0 or hi == intensity.size - 1:
        raise MeasurementError(
            "intensity maximum touches the grid boundary (profile clipped)"
        )
    return lo, hi


def intensity_fwhm(field: ComplexField) -> float:
    """Full width at half maximum of |E|^2, in meters.

    Half-maximum crossings are located by linear interpolation between
    the bracketing samples; no model fitting.  A flat-topped profile is
    treated as a single plateau maximum.
    """
    intensity = field.intensity
    lo, hi = _max_plateau(intensity)
    half = float(np.max(intensity)) / 2.0
    x = field.grid.coordinates

    i = lo
    while i > 0 and intensity[i] > half:
        i -= 1
    if intensity[i] > half:
        raise MeasurementError("left half-maximum crossing clipped by grid edge")
    frac = (half - intensity[i]) / (intensity[i + 1] - intensity[i])
    x_left = x[i] + frac * field.grid.pitch

    j = hi
    while j < intensity.size - 1 and intensity[j] > half:
        j += 1
    if intensity[j] > half:
        raise MeasurementError("right half-maximum crossing clipped by grid edge")
    frac = (half - intensity[j]) / (intensity[j - 1] - intensity[j])
    x_right = x[j] - frac * field.grid.pitch

    return float(x_right - x_left)


def peak(field: ComplexField) -> tuple[float, float]:
    """Position and intensity of the global intensity maximum.

    Ties are broken toward the smaller coordinate (first sample in
    argmax order).  Returns ``(position_m, intensity_value)``.
    """
    intensity = field.intensity
    idx = int(np.argmax(intensity))
    return float(field.grid.coordinates[idx]), float(intensity[idx])
