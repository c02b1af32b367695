import numpy as np
import pytest

from grover_optics import (
    ConfigurationError,
    MeasurementError,
    PeakTrace,
    equivalent_qubits,
    estimate_nm,
    expected_nm,
    first_maximum,
    max_database_size,
    optimal_iterations,
    rayleigh_resolution,
    run_search,
)

from conftest import ideal_cavity


def synthetic_trace(counts, values):
    return PeakTrace(
        iteration_counts=np.asarray(counts, dtype=float),
        peak_values=np.asarray(values, dtype=float),
        peak_positions=np.zeros(len(counts)),
    )


class TestPeakTrace:
    def test_arrays_must_match(self):
        with pytest.raises(ConfigurationError, match="length"):
            PeakTrace(np.arange(3.0), np.arange(4.0), np.arange(3.0))

    def test_counts_must_increase(self):
        with pytest.raises(ConfigurationError, match="increasing"):
            synthetic_trace([0.5, 0.5, 2.5], [1.0, 2.0, 3.0])

    def test_from_search_trace_picks_series(self):
        trace = run_search(ideal_cavity(42.0, n_pulses=4))
        compensated = PeakTrace.from_search_trace(trace)
        raw = PeakTrace.from_search_trace(trace, compensated=False)
        assert np.array_equal(compensated.peak_values, trace.compensated_peak_values)
        assert np.array_equal(raw.peak_values, trace.peak_values)
        assert np.array_equal(compensated.peak_positions, trace.peak_positions)


class TestFirstMaximum:
    @pytest.mark.parametrize("n_over_m", [9.0, 25.0, 49.0])
    def test_parabolic_refinement_on_ideal_curve(self, n_over_m):
        # integer-sampled sin^2((2k+1) theta) peaks at (pi/4)/theta - 1/2
        theta = np.arcsin(np.sqrt(1.0 / n_over_m))
        counts = np.arange(0, 40, dtype=float)
        values = np.sin((2 * counts + 1) * theta) ** 2
        found = first_maximum(synthetic_trace(counts, values))
        assert found == pytest.approx((np.pi / 4) / theta - 0.5, abs=0.25)

    @pytest.mark.parametrize("n_items", [8, 16, 32, 64, 128])
    def test_half_integer_sampling_matches_optimal_count(self, n_items):
        # sampling the probability mid-roundtrip (counts k + 1/2, the
        # cavity's pulse timing) centers the first maximum on the
        # continuous optimum pi/4 * sqrt(N)
        theta = np.arcsin(np.sqrt(1.0 / n_items))
        counts = np.arange(30, dtype=float) + 0.5
        values = np.sin(2 * counts * theta) ** 2
        found = first_maximum(synthetic_trace(counts, values))
        assert abs(found - optimal_iterations(n_items, 1, np.pi / 2)) <= 0.5

    def test_vertex_on_uneven_steps_with_a_plateau(self):
        # Samples (1, 2), (3, 2) and (4, 0): h0 = 2, h1 = 1, a = 2 * (2 - 0)
        # = 4 and b = 1 * (2 - 2) = 0, so the vertex is 3 + (0 - 8) / 8 = 2,
        # midway along the plateau.
        trace = synthetic_trace([0.0, 1.0, 3.0, 4.0], [1.0, 2.0, 2.0, 0.0])
        assert first_maximum(trace) == 2.0

    def test_first_of_several_maxima_wins(self):
        counts = np.arange(10, dtype=float)
        values = np.array([0.1, 0.9, 0.2, 0.1, 0.3, 1.5, 0.2, 0.1, 0.05, 0.0])
        assert first_maximum(synthetic_trace(counts, values)) == pytest.approx(
            1.0, abs=0.5
        )

    def test_monotone_trace_has_no_maximum(self):
        with pytest.raises(MeasurementError, match="maximum"):
            first_maximum(synthetic_trace([0.5, 1.5, 2.5, 3.5], [1, 2, 3, 4]))

    def test_too_short_trace_rejected(self):
        with pytest.raises(MeasurementError, match="3"):
            first_maximum(synthetic_trace([0.5, 1.5], [1.0, 2.0]))


class TestDatabaseSizeEstimate:
    def test_known_values(self):
        assert estimate_nm(5.0, 1.1) == pytest.approx(32.0, abs=0.5)
        assert estimate_nm(3.0, 1.1) == pytest.approx(11.6, abs=0.2)

    def test_ideal_phase_form(self):
        for k_star in (2.0, 3.5, 7.25):
            assert estimate_nm(k_star, np.pi / 2) == pytest.approx(
                (4 * k_star / np.pi) ** 2
            )

    def test_inverts_optimal_iterations(self, rng):
        for _ in range(25):
            n_over_m = float(rng.uniform(2.0, 500.0))
            phase = float(rng.uniform(0.2, np.pi / 2))
            k_star = optimal_iterations(n_over_m, 1.0, phase)
            assert estimate_nm(k_star, phase) == pytest.approx(n_over_m, rel=1e-9)

    @pytest.mark.parametrize("k_star", [0.0, -2.0])
    def test_nonpositive_maximum_rejected(self, k_star):
        with pytest.raises(ConfigurationError, match="k_star"):
            estimate_nm(k_star, 1.1)

    @pytest.mark.parametrize("phase", [0.0, 2.5])
    def test_out_of_range_phase_rejected(self, phase):
        with pytest.raises(ConfigurationError, match="phase"):
            estimate_nm(3.0, phase)

    def test_expected_nm(self):
        assert expected_nm(1.33e-3, 42e-6) == pytest.approx(31.67, abs=0.01)
        assert expected_nm(1.33e-3, 126e-6) == pytest.approx(10.56, abs=0.01)
        # narrower lines mean effectively larger databases
        assert expected_nm(1.33e-3, 42e-6) > expected_nm(1.33e-3, 84e-6)
        with pytest.raises(ConfigurationError):
            expected_nm(0.0, 42e-6)


class TestDiffractionBudget:
    def test_rayleigh_resolution(self):
        value = rayleigh_resolution(532e-9, 0.03)
        assert 10e-6 < value < 11e-6
        assert value == pytest.approx(0.61 * 532e-9 / 0.03)
        assert rayleigh_resolution(532e-9, 0.61) == pytest.approx(532e-9)
        assert rayleigh_resolution(1064e-9, 0.03) == pytest.approx(2 * value)

    def test_max_database_size(self):
        resolution = rayleigh_resolution(532e-9, 0.03)
        assert max_database_size(1.44e-3, resolution, 1) == pytest.approx(
            133.1, abs=0.2
        )
        assert max_database_size(1e-3, 1e-6, 2) == pytest.approx(1e6)
        assert max_database_size(5e-6, 5e-6, 1) == pytest.approx(1.0)
        with pytest.raises(ConfigurationError, match="dims"):
            max_database_size(1e-3, 1e-6, 3)

    def test_equivalent_qubits(self):
        assert equivalent_qubits(1e-3, 1e-6, 2) == pytest.approx(19.93, abs=0.01)
        assert equivalent_qubits(2e-6, 1e-6, 1) == pytest.approx(1.0)
        with pytest.raises(ConfigurationError, match="dims"):
            equivalent_qubits(1e-3, 1e-6, 0)

    def test_two_dimensional_register_doubles_the_qubits(self):
        one = equivalent_qubits(1.5e-3, 2e-6, 1)
        two = equivalent_qubits(1.5e-3, 2e-6, 2)
        assert two == pytest.approx(2 * one)
