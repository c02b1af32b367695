import numpy as np
import pytest

from grover_optics import (
    ComplexField,
    ConfigurationError,
    Grid1D,
    LossModel,
    TrapezoidPhasePlate,
    apply_plate,
    apply_roundtrip_loss,
    gaussian_input,
    phase_profile,
    plate_phasor,
)
from grover_optics.elements import _window_overlap

from conftest import paper_cavity


def energy(field: ComplexField) -> float:
    return float(np.sum(np.abs(field.amplitudes) ** 2) * field.grid.pitch)


def sample_at(values: np.ndarray, grid: Grid1D, x: float) -> float:
    return float(values[np.argmin(np.abs(grid.coordinates - x))])


class TestPhaseProfile:
    def setup_method(self):
        self.grid = Grid1D(1024, 1e-6)
        self.plate = TrapezoidPhasePlate(
            center=0.0, flat_width=40e-6, ramp_width=10e-6, phase_depth=-1.1
        )

    def test_sampled_values(self):
        phi = phase_profile(self.plate, self.grid)
        assert sample_at(phi, self.grid, 0.0) == pytest.approx(-1.1)
        assert sample_at(phi, self.grid, 20e-6) == pytest.approx(-1.1)  # flat edge
        assert sample_at(phi, self.grid, 25e-6) == pytest.approx(-0.55)  # mid-ramp
        assert sample_at(phi, self.grid, 30e-6) == pytest.approx(0.0)  # support edge
        assert sample_at(phi, self.grid, -25e-6) == pytest.approx(-0.55)
        assert sample_at(phi, self.grid, 400e-6) == 0.0

    def test_profile_is_continuous(self):
        phi = phase_profile(self.plate, self.grid)
        max_step = abs(self.plate.phase_depth) * self.grid.pitch / self.plate.ramp_width
        assert np.max(np.abs(np.diff(phi))) <= max_step + 1e-12

    def test_hard_edge_is_indicator(self):
        plate = TrapezoidPhasePlate(
            center=0.0, flat_width=40e-6, ramp_width=0.0, phase_depth=0.7
        )
        phi = phase_profile(plate, self.grid)
        inside = np.abs(self.grid.coordinates) <= 20e-6
        assert np.all(phi[inside] == 0.7)
        assert np.all(phi[~inside] == 0.0)

    def test_support_clipped_by_grid_rejected(self):
        plate = TrapezoidPhasePlate(
            center=500e-6, flat_width=40e-6, ramp_width=10e-6, phase_depth=0.5
        )
        with pytest.raises(ConfigurationError, match="support"):
            phase_profile(plate, self.grid)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(center=0.0, flat_width=0.0, ramp_width=1e-6, phase_depth=0.5),
            dict(center=0.0, flat_width=-1e-6, ramp_width=1e-6, phase_depth=0.5),
            dict(center=0.0, flat_width=1e-6, ramp_width=-1e-6, phase_depth=0.5),
            dict(center=0.0, flat_width=1e-6, ramp_width=1e-6, phase_depth=3.5),
            dict(center=0.0, flat_width=1e-6, ramp_width=1e-6, phase_depth=-3.2),
        ],
    )
    def test_invalid_plate_parameters(self, kwargs):
        with pytest.raises(ConfigurationError):
            TrapezoidPhasePlate(**kwargs)


class TestApplyPlate:
    def setup_method(self):
        self.grid = Grid1D(2048, 2e-6)
        self.field = ComplexField(self.grid, gaussian_input(self.grid, 0.5e-3))
        self.plate = TrapezoidPhasePlate(
            center=150e-6, flat_width=42e-6, ramp_width=4e-6, phase_depth=-1.1
        )

    def test_zero_depth_is_identity(self):
        plate = TrapezoidPhasePlate(
            center=0.0, flat_width=42e-6, ramp_width=4e-6, phase_depth=0.0
        )
        out = apply_plate(self.field, plate, 1)
        assert np.array_equal(out.amplitudes, self.field.amplitudes)

    def test_energy_preserved(self):
        out = apply_plate(self.field, self.plate, 2)
        assert energy(out) == pytest.approx(energy(self.field), abs=1e-12)

    def test_double_pass_equals_two_single_passes(self):
        twice = apply_plate(self.field, self.plate, 2)
        once_twice = apply_plate(apply_plate(self.field, self.plate, 1), self.plate, 1)
        assert np.max(np.abs(twice.amplitudes - once_twice.amplitudes)) < 1e-12

    @pytest.mark.parametrize("passes", [1, 2])
    def test_flat_region_phase_shift(self, passes):
        out = apply_plate(self.field, self.plate, passes)
        on_flat = np.abs(self.grid.coordinates - 150e-6) <= 21e-6
        shift = np.angle(out.amplitudes[on_flat] / self.field.amplitudes[on_flat])
        assert np.allclose(shift, passes * -1.1, atol=1e-12)

    @pytest.mark.parametrize("passes", [0, 3, -1])
    def test_invalid_pass_count(self, passes):
        with pytest.raises(ConfigurationError):
            apply_plate(self.field, self.plate, passes)

    @pytest.mark.parametrize("n", [4096, 16384])
    def test_multiplies_phasor_first_bit_for_bit(self, n, rng):
        # The complex multiply is not bitwise commutative; the phasor
        # comes first on both sides of numpy's in-place temporary
        # threshold (256 KiB, 16384 samples).
        grid = Grid1D(n, 2e-6)
        amps = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        field = ComplexField(grid, amps)
        phasor = plate_phasor(self.plate, grid, 1)
        expected = np.multiply(phasor, field.amplitudes)
        assert np.array_equal(apply_plate(field, self.plate, 1).amplitudes, expected)


class TestRoundtripLoss:
    def setup_method(self):
        self.grid = Grid1D(256, 1e-6)
        self.field = ComplexField(self.grid, gaussian_input(self.grid, 20e-6))

    def test_full_roundtrip_energy_factor(self):
        out = apply_roundtrip_loss(self.field, LossModel(0.75), 1.0)
        assert energy(out) / energy(self.field) == pytest.approx(
            0.75, abs=1e-12
        )

    def test_lossless_model_is_identity(self):
        out = apply_roundtrip_loss(self.field, LossModel(1.0), 1.0)
        assert np.array_equal(out.amplitudes, self.field.amplitudes)

    def test_two_half_roundtrips_compose(self):
        loss = LossModel(0.75)
        half_half = apply_roundtrip_loss(
            apply_roundtrip_loss(self.field, loss, 0.5), loss, 0.5
        )
        full = apply_roundtrip_loss(self.field, loss, 1.0)
        assert np.max(np.abs(half_half.amplitudes - full.amplitudes)) < 1e-12

    @pytest.mark.parametrize("fraction", [0.0, -0.5, 1.5])
    def test_invalid_fraction(self, fraction):
        with pytest.raises(ConfigurationError):
            apply_roundtrip_loss(self.field, LossModel(0.75), fraction)

    @pytest.mark.parametrize("factor", [0.0, -0.1, 1.2])
    def test_invalid_energy_factor(self, factor):
        with pytest.raises(ConfigurationError):
            LossModel(factor)


class TestSlitEnergy:
    # pulse_train integrates intensity times these per-cell window lengths.
    def setup_method(self):
        self.grid = Grid1D(1024, 2e-6)
        self.intensity = np.abs(gaussian_input(self.grid, 0.4e-3)) ** 2

    def test_full_aperture_recovers_total_energy(self):
        weights = _window_overlap(self.grid, -self.grid.extent, self.grid.extent)
        assert np.sum(self.intensity * weights) == pytest.approx(
            np.sum(self.intensity) * self.grid.pitch, abs=1e-12
        )

    def test_uniform_intensity_scales_with_width(self):
        extent = self.grid.extent
        weights = _window_overlap(self.grid, -0.05 * extent, 0.05 * extent)
        assert np.sum(weights) == pytest.approx(0.1 * extent, rel=1e-6)

    def test_slit_outside_grid_collects_nothing(self):
        weights = _window_overlap(self.grid, 10.0 - 27.5e-6, 10.0 + 27.5e-6)
        assert np.sum(self.intensity * weights) == 0.0

    def test_monotone_in_width(self):
        widths = [10e-6, 55e-6, 200e-6, 1e-3]
        energies = [
            np.sum(self.intensity * _window_overlap(self.grid, -w / 2, w / 2))
            for w in widths
        ]
        assert all(a < b for a, b in zip(energies, energies[1:]))

    def test_half_covered_cell(self):
        # slit edge through the middle of a sample cell collects half of it
        pitch = self.grid.pitch
        one_cell = np.sum(_window_overlap(self.grid, -pitch / 2.0, pitch / 2.0))
        edge_cell = np.sum(_window_overlap(self.grid, 0.0, pitch))
        assert edge_cell == pytest.approx(one_cell, rel=1e-12)
        assert one_cell == pytest.approx(pitch, rel=1e-12)

    def test_zero_width_rejected(self):
        with pytest.raises(ConfigurationError, match="slit_width"):
            paper_cavity(42.0, slit_width=0.0)
