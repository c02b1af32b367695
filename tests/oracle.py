"""A plain-numpy oracle for the cavity kernel and the full Grover state.

It imports only numpy and reads a ``CavityConfig``'s plain numbers, so
a fault in the package's transforms, flip, masks or loop passes none of
these tests unseen.  Arrays are in centered order (sample n/2 at the
origin) throughout; the package's kernel works in FFT-native order and
must still give the same bits.  Every complex multiply puts the phasor
first, as the kernel does: the vectorized complex multiply is not
bitwise commutative.  ``np.multiply`` is spelled out because numpy
evaluates ``phasor * temporary`` on arrays of 256 KiB and more in place,
as ``temporary * phasor``.
"""

import numpy as np


def centered(a, inverse=False):
    """The unitary DFT (or its inverse) with zero frequency at n/2."""
    transform = np.fft.ifft if inverse else np.fft.fft
    return np.fft.fftshift(transform(np.fft.ifftshift(a), norm="ortho"))


def flip(a):
    """The parity flip x -> -x: index i -> (n - i) % n."""
    n = a.shape[-1]
    return a[..., (n - np.arange(n)) % n]


def phasor(plate, n, pitch, passes=1):
    """exp(i * passes * phase) of a trapezoid plate on n samples."""
    distance = np.abs((np.arange(n) - n // 2) * pitch - plate.center)
    half_flat = plate.flat_width / 2.0
    if plate.ramp_width == 0:
        shape = (distance <= half_flat).astype(float)
    else:
        shape = np.clip((half_flat + plate.ramp_width - distance) / plate.ramp_width, 0.0, 1.0)
    return np.exp(1j * passes * (plate.phase_depth * shape))


def plate_phasors(config, passes=1):
    """The oracle mask on the grid and the IAA mask on the Fourier plane."""
    n, pitch = config.grid.n_samples, config.grid.pitch
    fourier_pitch = config.wavelength * config.focal_length_1 / (n * pitch)
    return (phasor(config.oracle_plate, n, pitch, passes),
            phasor(config.iaa_plate, n, fourier_pitch, passes))


def gaussian(config):
    """The unit-energy, flat-phase input beam."""
    x = (np.arange(config.grid.n_samples) - config.grid.n_samples // 2) * config.grid.pitch
    amp = np.exp(-2.0 * np.log(2.0) * (x / config.input_fwhm) ** 2)
    return (amp / np.sqrt(np.sum(amp**2) * config.grid.pitch)).astype(np.complex128)


def half_pass(a, iaa, scale):
    """Lens, IAA mask, inverse lens, then the amplitude ``scale``."""
    return centered(np.multiply(iaa, centered(a)), inverse=True) * scale


def roundtrip(a, config):
    """One whole roundtrip: double-pass oracle, lens, double-pass IAA,
    inverse lens and one roundtrip of loss."""
    oracle, iaa = plate_phasors(config, passes=2)
    return half_pass(np.multiply(oracle, a), iaa, config.roundtrip_energy_factor ** 0.5)


def profiles(config):
    """The recorded intensity of every pulse, one row each."""
    oracle, iaa = plate_phasors(config)
    scale = config.roundtrip_energy_factor ** (0.5 / 2.0)
    circulating, rows = gaussian(config), []
    for _ in range(config.n_pulses):
        upright = half_pass(np.multiply(oracle, circulating), iaa, scale)
        rows.append(config.output_mirror_transmission * np.abs(upright) ** 2)
        circulating = np.multiply(oracle, flip(half_pass(flip(upright), iaa, scale)))
    return np.array(rows)


def grover_step(v, marked, phase_oracle, phase_diffusion):
    """One generalized Grover iteration on a full state vector: the
    oracle phase on the ``marked`` indices, then
    (1 - exp(i * phase_diffusion))|s><s| - I."""
    v = v.copy()
    v[marked] *= np.exp(1j * phase_oracle)
    return (1.0 - np.exp(1j * phase_diffusion)) * np.sum(v) / v.size - v


def uniform(n_items):
    """Equal superposition over ``n_items``."""
    return np.full(n_items, 1.0 / np.sqrt(n_items), dtype=np.complex128)
