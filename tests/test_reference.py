import numpy as np
import pytest

from grover_optics import (
    ConfigurationError,
    GroverReducedState,
    optimal_iterations,
    oscillation_period,
    reduced_iterate,
    success_probability,
)

import oracle


def run_reduced(n_items, n_marked, k, phase_oracle, phase_diffusion):
    state = GroverReducedState.uniform(n_items, n_marked)
    for _ in range(k):
        state = reduced_iterate(state, phase_oracle, phase_diffusion)
    return state


def run_full(n_items, n_marked, k, phase_oracle, phase_diffusion):
    """The full state vector after ``k`` iterations; the first
    ``n_marked`` items are the marked ones."""
    v = oracle.uniform(n_items)
    for _ in range(k):
        v = oracle.grover_step(v, slice(n_marked), phase_oracle, phase_diffusion)
    return v


def marked_probability(v, marked):
    return float(np.sum(np.abs(v[marked]) ** 2))


class TestStates:
    def test_uniform_reduced_state(self):
        state = GroverReducedState.uniform(32, 1)
        assert state.amp_marked == pytest.approx(1 / np.sqrt(32))
        assert state.amp_unmarked == state.amp_marked
        assert state.success_probability == pytest.approx(1 / 32)

    def test_uniform_accepts_fractional_sizes(self):
        state = GroverReducedState.uniform(31.67, 1.0)
        assert state.success_probability == pytest.approx(1 / 31.67)

    def test_everything_marked_succeeds_immediately(self):
        assert GroverReducedState.uniform(8, 8).success_probability == pytest.approx(1.0)
        assert success_probability(0, 8, 8) == pytest.approx(1.0)

    def test_unnormalized_states_rejected(self):
        with pytest.raises(ConfigurationError, match="norm"):
            GroverReducedState(4, 1, 1.0 + 0j, 1.0 + 0j)
        amp = complex(np.sqrt((1 + 1e-6) / 4))  # norm 1 + 1e-6
        with pytest.raises(ConfigurationError, match="norm"):
            GroverReducedState(4, 1, amp, amp)

    def test_bad_counts_rejected(self):
        with pytest.raises(ConfigurationError):
            GroverReducedState.uniform(0, 1)
        with pytest.raises(ConfigurationError):
            GroverReducedState.uniform(8, 9)
        with pytest.raises(ConfigurationError, match="finite in float64"):
            oscillation_period(1e300, 1e-10)


class TestIterates:
    def test_textbook_four_item_search_is_exact(self):
        # one iteration of the pi/pi search over four items finds the
        # marked item with certainty
        reduced = run_reduced(4, 1, 1, np.pi, np.pi)
        assert reduced.success_probability == pytest.approx(1.0, abs=1e-12)
        full = run_full(4, 1, 1, np.pi, np.pi)
        assert marked_probability(full, slice(1)) == pytest.approx(1.0, abs=1e-12)
        assert success_probability(1, 4, 1) == pytest.approx(1.0, abs=1e-12)

    def test_zero_oracle_phase_only_redistributes_global_phase(self):
        state = oracle.uniform(16)
        stepped = oracle.grover_step(state, slice(2), 0.0, np.pi)
        assert np.allclose(np.abs(stepped), np.abs(state), atol=1e-13)

    def test_reduced_matches_full_for_generalized_phases(self):
        # mirror of a cavity run with per-pass phase -1.1 on both plates
        phase = 2.0 * -1.1
        reduced = GroverReducedState.uniform(1024, 7)
        full = oracle.uniform(1024)
        for _ in range(50):
            reduced = reduced_iterate(reduced, phase, phase)
            full = oracle.grover_step(full, slice(7), phase, phase)
            assert reduced.success_probability == pytest.approx(
                marked_probability(full, slice(7)), abs=1e-12
            )
        assert np.allclose(full[:7], reduced.amp_marked, atol=1e-12)

    def test_unmarked_amplitudes_stay_pairwise_equal(self):
        state = oracle.uniform(64)
        for _ in range(20):
            state = oracle.grover_step(state, [10, 40], 2.2, -0.7)
        unmarked = np.delete(state, [10, 40])
        assert np.max(np.abs(unmarked - unmarked[0])) < 1e-13

    @pytest.mark.parametrize(
        "phases", [(np.pi, np.pi), (-2.2, -2.2), (1.3, -0.4)]
    )
    def test_iteration_is_unitary(self, phases):
        state = run_full(128, 5, 100, *phases)
        assert np.sum(np.abs(state) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_closed_form_matches_full_simulation(self, rng):
        for _ in range(30):
            n_items = int(rng.integers(4, 2048))
            n_marked = int(rng.integers(1, max(2, n_items // 4)))
            k = int(rng.integers(0, 64))
            simulated = run_full(n_items, n_marked, k, np.pi, np.pi)
            assert marked_probability(simulated, slice(n_marked)) == pytest.approx(
                success_probability(k, n_items, n_marked), abs=1e-10
            )


class TestScalings:
    def test_optimal_iterations_ideal_phase(self):
        assert optimal_iterations(32, 1, np.pi / 2) == pytest.approx(
            np.pi / 4 * np.sqrt(32)
        )

    def test_optimal_iterations_reduced_phase(self):
        # weaker plates stretch the optimum by 1/sin|phase|
        assert optimal_iterations(32, 1, -1.1) == pytest.approx(
            np.pi / (4 * np.sin(1.1)) * np.sqrt(32)
        )
        assert optimal_iterations(32, 1, -1.1) > optimal_iterations(32, 1, np.pi / 2)

    def test_optimal_iterations_degenerate_database(self):
        assert optimal_iterations(5, 5, np.pi / 2) == pytest.approx(np.pi / 4)

    @pytest.mark.parametrize("phase", [0.0, 2.0, -3.0])
    def test_optimal_iterations_rejects_out_of_range_phase(self, phase):
        with pytest.raises(ConfigurationError, match="phase"):
            optimal_iterations(32, 1, phase)

    def test_oscillation_period_values(self):
        assert oscillation_period(16, 1) == pytest.approx(2 * np.pi)
        assert oscillation_period(31.7, 1) == pytest.approx(8.844, abs=0.01)

    def test_oscillation_period_matches_probability_cycle(self):
        # distance between the first two maxima of the simulated
        # success curve for N/m = 100
        p = np.array([marked_probability(run_full(100, 1, k, np.pi, np.pi), slice(1))
                      for k in range(41)])
        maxima = [
            i
            for i in range(1, p.size - 1)
            if p[i - 1] <= p[i] > p[i + 1]
        ]
        measured = maxima[1] - maxima[0]
        assert abs(measured - oscillation_period(100, 1)) <= 1.0

    def test_matched_plate_phases_maximize_the_peak(self):
        # sweep the diffusion phase with the oracle phase pinned at the
        # cavity value: the best response sits at equal phases
        oracle_phase = 2.0 * -1.1
        best_phase, best_peak = None, -1.0
        for offset in np.arange(-0.6, 0.6001, 0.1):
            diffusion_phase = 2.0 * (-1.1 + offset)
            state = GroverReducedState.uniform(32, 1)
            peak = state.success_probability
            for _ in range(12):
                state = reduced_iterate(state, oracle_phase, diffusion_phase)
                peak = max(peak, state.success_probability)
            if peak > best_peak:
                best_phase, best_peak = diffusion_phase, peak
        assert best_phase == pytest.approx(oracle_phase, abs=1e-9)
