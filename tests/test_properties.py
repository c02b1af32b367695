"""Properties of the FFT-native pulse loop, on random complex arrays.

``run_search`` keeps its field in FFT-native (``ifftshift``ed) order and
relies on three facts checked here for every power of two from 16 to
4096 samples: the parity flip has the same formula in both orders, two
unitary FFTs are that flip, and one native half pass is the checked
``ComplexField`` chain, bit for bit.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from grover_optics import (  # noqa: E402
    CavityConfig,
    ComplexField,
    Grid1D,
    LossModel,
    TrapezoidPhasePlate,
    parity_flip,
)
from grover_optics.cavity import _native_half_pass, _through_fourier_plane  # noqa: E402
from grover_optics.fields import _reverse_about_zero  # noqa: E402

sizes = st.integers(min_value=4, max_value=12).map(lambda k: 2**k)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def random_field(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


@settings(deadline=None)
@given(n=sizes, seed=seeds)
def test_native_flip_is_the_centered_parity_flip(n, seed):
    a = random_field(n, seed)
    centered = ComplexField(Grid1D(n, 1.0), np.fft.fftshift(a))
    expected = np.fft.ifftshift(parity_flip(centered).amplitudes)
    assert np.array_equal(_reverse_about_zero(a), expected)


@settings(deadline=None)
@given(n=sizes, seed=seeds)
def test_two_unitary_ffts_are_the_flip(n, seed):
    a = random_field(n, seed)
    twice = np.fft.fft(np.fft.fft(a, norm="ortho"), norm="ortho")
    assert np.max(np.abs(twice - _reverse_about_zero(a))) <= 1e-12


@settings(deadline=None)
@given(n=sizes, seed=seeds, factor=st.floats(min_value=0.05, max_value=1.0))
def test_native_half_pass_is_the_field_chain_bit_for_bit(n, seed, factor):
    # Plates that fit any of these grids; the IAA mask itself is random.
    plate = TrapezoidPhasePlate(center=0.0, flat_width=1e-6, ramp_width=0.0, phase_depth=0.0)
    grid = Grid1D(n, 2e-6)
    config = CavityConfig(oracle_plate=plate, iaa_plate=plate, input_fwhm=grid.extent / 8,
                          loss=LossModel(factor), grid=grid)
    a = random_field(n, seed)
    iaa = np.exp(1j * np.random.default_rng(seed + 1).uniform(-np.pi, np.pi, n))
    chain = _through_fourier_plane(ComplexField(grid, a), config, iaa, 0.5)
    native = _native_half_pass(np.fft.ifftshift(a), np.fft.ifftshift(iaa),
                               factor ** (0.5 / 2.0))
    assert np.array_equal(native, np.fft.ifftshift(chain.amplitudes))
