import numpy as np
import pytest

from grover_optics import (
    ComplexField,
    ConfigurationError,
    FourierGrid,
    Grid1D,
    GridMismatchError,
    dft_centered,
    gaussian_input,
    idft_centered,
    parity_flip,
)


def intensity(amplitudes: np.ndarray) -> np.ndarray:
    return np.abs(amplitudes) ** 2


def random_field(grid: Grid1D, rng: np.random.Generator) -> ComplexField:
    amps = rng.standard_normal(grid.n_samples) + 1j * rng.standard_normal(grid.n_samples)
    return ComplexField(grid, amps)


class TestGrid1D:
    @pytest.mark.parametrize("n", [0, 8, 15, 1000, 16383])
    def test_rejects_non_power_of_two(self, n):
        with pytest.raises(ConfigurationError):
            Grid1D(n, 2e-6)

    @pytest.mark.parametrize("pitch", [0.0, -1e-6])
    def test_rejects_bad_pitch(self, pitch):
        with pytest.raises(ConfigurationError):
            Grid1D(1024, pitch)

    def test_coordinates_centered(self):
        grid = Grid1D(64, 1e-6)
        x = grid.coordinates
        assert x[32] == 0.0
        assert np.all(np.diff(x) > 0)
        assert x[0] == -grid.extent / 2
        # even-length centering: symmetric except the single leftmost sample
        assert np.allclose(x[1:], -x[1:][::-1])

    def test_extent(self):
        assert Grid1D(1024, 10e-6).extent == pytest.approx(10.24e-3)


def gaussian_fwhm(grid: Grid1D, amplitudes: np.ndarray) -> float:
    """Intensity FWHM of a centered gaussian from its second moment:
    sqrt(8 ln2 * sum(x^2 I) / sum(I))."""
    x, i = grid.coordinates, intensity(amplitudes)
    return float(np.sqrt(8 * np.log(2) * np.sum(x**2 * i) / np.sum(i)))


class TestGaussianInput:
    def test_measured_fwhm_matches_request(self):
        grid = Grid1D(16384, 2e-6)
        amplitudes = gaussian_input(grid, 1.33e-3)
        assert gaussian_fwhm(grid, amplitudes) == pytest.approx(1.33e-3, rel=1e-12)

    def test_unit_energy_exact(self):
        grid = Grid1D(1024, 10e-6)
        amplitudes = gaussian_input(grid, grid.extent / 4)
        assert amplitudes.dtype == np.complex128
        assert np.sum(intensity(amplitudes)) * grid.pitch == pytest.approx(1.0, abs=1e-12)

    def test_peak_at_center_flat_phase(self):
        grid = Grid1D(1024, 10e-6)
        amplitudes = gaussian_input(grid, 1e-3)
        assert grid.coordinates[np.argmax(intensity(amplitudes))] == 0.0
        assert np.all(amplitudes.imag == 0)
        assert np.all(amplitudes.real >= 0)

    @pytest.mark.parametrize("fwhm", [0.0, -1e-3, 1.0])
    def test_rejects_out_of_range_fwhm(self, fwhm):
        with pytest.raises(ConfigurationError, match="fwhm"):
            gaussian_input(Grid1D(1024, 10e-6), fwhm)


class TestCenteredTransform:
    def setup_method(self):
        self.grid = Grid1D(2048, 2e-6)
        self.fgrid = FourierGrid(self.grid, 532e-9, 0.4)

    def test_parseval(self, rng):
        for _ in range(5):
            field = random_field(self.grid, rng)
            out = dft_centered(field, self.fgrid)
            before = np.sum(intensity(field.amplitudes))
            after = np.sum(intensity(out.amplitudes))
            assert abs(after / before - 1.0) < 1e-12

    def test_delta_transforms_to_constant(self):
        amps = np.zeros(self.grid.n_samples, dtype=complex)
        amps[self.grid.n_samples // 2] = 1.0
        out = dft_centered(ComplexField(self.grid, amps), self.fgrid)
        expected = 1.0 / np.sqrt(self.grid.n_samples)
        assert np.allclose(np.abs(out.amplitudes), expected, atol=1e-13)

    def test_constant_transforms_to_delta(self):
        n = self.grid.n_samples
        amps = np.full(n, 1.0 / np.sqrt(n), dtype=complex)
        out = dft_centered(ComplexField(self.grid, amps), self.fgrid)
        assert np.argmax(np.abs(out.amplitudes)) == n // 2
        assert abs(out.amplitudes[n // 2] - 1.0) < 1e-12

    def test_applied_twice_is_parity(self, rng):
        field = random_field(self.grid, rng)
        once = dft_centered(field, self.fgrid)
        # transform the Fourier-plane field again in its own frame
        fgrid2 = FourierGrid(self.fgrid.as_grid(), 532e-9, 0.4)
        twice = dft_centered(once, fgrid2)
        flipped = parity_flip(field)
        assert np.max(np.abs(twice.amplitudes - flipped.amplitudes)) < 1e-10

    def test_roundtrip_identity(self, rng):
        field = random_field(self.grid, rng)
        back = idft_centered(dft_centered(field, self.fgrid), self.fgrid)
        assert np.max(np.abs(back.amplitudes - field.amplitudes)) < 1e-12

    def test_inverse_is_unitary(self, rng):
        field = random_field(self.grid, rng)
        fourier = dft_centered(field, self.fgrid)
        back = idft_centered(fourier, self.fgrid)
        assert np.sum(intensity(back.amplitudes)) == pytest.approx(
            np.sum(intensity(fourier.amplitudes)), rel=1e-12
        )

    def test_linearity(self, rng):
        f1 = random_field(self.grid, rng)
        f2 = random_field(self.grid, rng)
        a, b = 1.7 - 0.3j, -0.8 + 2.1j
        combined = ComplexField(self.grid, a * f1.amplitudes + b * f2.amplitudes)
        lhs = dft_centered(combined, self.fgrid).amplitudes
        rhs = a * dft_centered(f1, self.fgrid).amplitudes + b * dft_centered(f2, self.fgrid).amplitudes
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_grid_mismatch_rejected(self, rng):
        other = random_field(Grid1D(1024, 2e-6), rng)
        with pytest.raises(GridMismatchError):
            dft_centered(other, self.fgrid)
        # a source-plane field is not a valid input for the inverse
        with pytest.raises(GridMismatchError):
            idft_centered(random_field(self.grid, rng), self.fgrid)

    def test_fourier_grid_scaling(self):
        # pitch = lambda f / extent, extent = lambda f / pitch
        assert self.fgrid.pitch == pytest.approx(532e-9 * 0.4 / self.grid.extent)
        assert self.fgrid.as_grid().extent == pytest.approx(532e-9 * 0.4 / self.grid.pitch)

    def test_gaussian_fwhm_product(self):
        # Transform-pair check of the Fourier-plane scaling: a gaussian
        # with intensity FWHM w focuses to an intensity FWHM of
        # (2 ln2 / pi) * lambda * f / w.  Verified against a direct
        # numerical transform of the sampled beam.
        grid = Grid1D(16384, 2e-6)
        fgrid = FourierGrid(grid, 532e-9, 0.4)
        w = 1.33e-3
        focal = dft_centered(ComplexField(grid, gaussian_input(grid, w)), fgrid)
        predicted = (2.0 * np.log(2.0) / np.pi) * 532e-9 * 0.4 / w
        measured = gaussian_fwhm(focal.grid, focal.amplitudes)
        assert measured == pytest.approx(predicted, rel=1e-12)


class TestMeasurements:
    @pytest.mark.parametrize("n", [16, 4096])
    def test_parity_flip_is_the_index_permutation(self, n, rng):
        field = random_field(Grid1D(n, 1e-6), rng)
        idx = (n - np.arange(n)) % n
        assert np.array_equal(parity_flip(field).amplitudes, field.amplitudes[idx])

    def test_parity_flip_is_involution(self, rng):
        field = random_field(Grid1D(128, 1e-6), rng)
        double = parity_flip(parity_flip(field))
        assert np.array_equal(double.amplitudes, field.amplitudes)

    def test_field_length_mismatch_rejected(self):
        with pytest.raises(GridMismatchError):
            ComplexField(Grid1D(256, 1e-6), np.zeros(255, dtype=complex))
