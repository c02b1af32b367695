"""End-to-end checks of the package's headline physics claims.

Each test covers one numbered claim; run with ``pytest -v`` to get one
pass/fail line per claim.  All expected values and tolerances are
stated inline.
"""

import numpy as np
import pytest

from grover_optics import (
    GroverReducedState,
    PeakTrace,
    apply_plate,
    build_config,
    dft_centered,
    equivalent_qubits,
    estimate_nm,
    expected_nm,
    first_maximum,
    idft_centered,
    max_database_size,
    optimal_iterations,
    parity_flip,
    pulse_train,
    rayleigh_resolution,
    reduced_iterate,
    run_search,
    success_probability,
)
from grover_optics.fields import ComplexField, FourierGrid

import oracle

PAPER_PRESETS = ("paper-42um", "paper-84um", "paper-126um")


@pytest.fixture(scope="module")
def preset_first_maxima():
    """first_maximum of the compensated peak trace, per paper preset."""
    found = {}
    for name in PAPER_PRESETS:
        cavity = build_config({"preset": name}).to_cavity_config()
        trace = run_search(cavity)
        found[name] = first_maximum(PeakTrace.from_search_trace(trace))
    return found


def test_criterion_1_first_maximum_reproduction(preset_first_maxima):
    # search runs with the shipped presets place the first peak-height
    # maximum at 5, 3.5, and 3 iterations (each +/- 0.5)
    expected = {"paper-42um": 5.0, "paper-84um": 3.5, "paper-126um": 3.0}
    for name, target in expected.items():
        assert abs(preset_first_maxima[name] - target) <= 0.5, (
            f"{name}: first maximum {preset_first_maxima[name]:.3f} "
            f"outside {target} +/- 0.5"
        )


def test_criterion_2_database_size_estimation():
    # inverting the optimum-iteration formula at the observed maxima
    # (phase 1.1 per pass) reproduces the quoted N/m values within 1%,
    # and lands within 15% of the geometric width ratio
    cases = [
        (5.0, 32.0, expected_nm(1.33e-3, 42e-6)),
        (3.5, 15.8, expected_nm(1.33e-3, 84e-6)),
        (3.0, 11.6, expected_nm(1.33e-3, 126e-6)),
    ]
    for k_star, quoted, geometric in cases:
        formula = estimate_nm(k_star, 1.1)
        assert abs(quoted - formula) / formula < 0.01, (
            f"quoted {quoted} deviates more than 1% from formula {formula:.3f}"
        )
        assert abs(formula - geometric) / geometric < 0.15, (
            f"formula {formula:.3f} deviates more than 15% from "
            f"geometric {geometric:.3f}"
        )


def test_criterion_3_pulse_train_behavior():
    # bare lossy cavity: successive output pulses decay by 0.75 +/- 0.01
    disabled = build_config(
        {
            "preset": "paper-42um",
            "oracle": {"phase_rad": 0.0},
            "iaa": {"phase_rad": 0.0},
        }
    ).to_cavity_config()
    energies = [energy for _, energy in pulse_train(disabled)]
    for before, after in zip(energies, energies[1:]):
        assert after / before == pytest.approx(0.75, abs=0.01)

    # with the plates on, the slit at the marked image sees pulses 2-4
    # each brighter than pulse 1, against the decaying total energy
    enabled = build_config({"preset": "paper-42um"}).to_cavity_config()
    amplified = [energy for _, energy in pulse_train(enabled)]
    for row in (1, 2, 3):
        assert amplified[row] > amplified[0], (
            f"pulse {row + 1} ({amplified[row]:.4g}) not above "
            f"pulse 1 ({amplified[0]:.4g})"
        )


def test_criterion_4_closed_form_equivalence():
    # the explicit state vector, the two-amplitude recursion, and the
    # closed form sin^2((2k+1) asin sqrt(m/N)) agree within 1e-10
    # across randomized (N, m, k) triples
    rng = np.random.default_rng(20260818)
    n_triples = 0
    for _ in range(40):
        n_items = int(rng.integers(2, 2049))
        n_marked = int(rng.integers(1, n_items + 1))
        n_steps = int(rng.integers(5, 65))
        full = oracle.uniform(n_items)
        reduced = GroverReducedState.uniform(n_items, n_marked)
        for k in range(n_steps + 1):
            closed = success_probability(k, n_items, n_marked)
            found = np.sum(np.abs(full[:n_marked]) ** 2)
            assert abs(found - closed) < 1e-10
            assert abs(found - reduced.success_probability) < 1e-10
            n_triples += 1
            full = oracle.grover_step(full, slice(n_marked), np.pi, np.pi)
            reduced = reduced_iterate(reduced, np.pi, np.pi)
    assert n_triples >= 200


def test_criterion_5_phase_corrected_optimum():
    # pi/(4 sin|phi|) sqrt(N/m): the reduced plate phase stretches the
    # 32-item optimum from 4.44 to 4.99 iterations
    assert optimal_iterations(32, 1, 1.1) == pytest.approx(4.99, abs=0.02)
    assert optimal_iterations(32, 1, np.pi / 2) == pytest.approx(4.44, abs=0.01)


def test_criterion_6_oscillation_period():
    # the lossless quarter-wave cavity at N/m ~ 32 cycles with period
    # (pi/2) sqrt(32) = 8.9 +/- 1 iterations
    cavity = build_config({"preset": "ideal"}).to_cavity_config()
    trace = run_search(cavity)
    t = trace.iteration_counts
    v = trace.peak_values

    maxima = []
    for i in range(1, t.size - 1):
        if v[i - 1] <= v[i] > v[i + 1]:
            coeffs = np.polyfit(t[i - 1 : i + 2], v[i - 1 : i + 2], 2)
            vertex = -coeffs[1] / (2.0 * coeffs[0])
            maxima.append(vertex if t[i - 1] <= vertex <= t[i + 1] else t[i])
    assert len(maxima) >= 2, "run too short to see two maxima"
    spacing = maxima[1] - maxima[0]
    assert spacing == pytest.approx(np.pi / 2 * np.sqrt(32), abs=1.0)


def test_criterion_7_diffraction_bookkeeping():
    # resolution, addressable positions, and the equivalent register
    assert 10e-6 <= rayleigh_resolution(532e-9, 0.03) <= 11e-6
    assert max_database_size(1.33e-3, 10e-6, 1) == pytest.approx(133.0, abs=1.0)
    assert equivalent_qubits(1e26, 10e-6, 2) == pytest.approx(206.0, abs=1.0)
    assert equivalent_qubits(1e-2, 10e-6, 2) == pytest.approx(20.0, abs=0.5)


def test_criterion_8_conservation_suite():
    cavity = build_config({"preset": "ideal"}).to_cavity_config()
    fgrid = cavity.fourier_grid
    rng = np.random.default_rng(20260818)
    random_field = ComplexField(
        cavity.grid,
        rng.standard_normal(cavity.grid.n_samples)
        + 1j * rng.standard_normal(cavity.grid.n_samples),
    )

    def energy(field):
        return np.sum(np.abs(field.amplitudes) ** 2)

    # the lens transform preserves energy (Parseval) ...
    transformed = dft_centered(random_field, fgrid)
    assert energy(transformed) == pytest.approx(energy(random_field), rel=1e-12)

    # ... phase plates only re-phase ...
    plated = apply_plate(random_field, cavity.oracle_plate, 2)
    assert energy(plated) == pytest.approx(energy(random_field), rel=1e-12)

    # ... and the lossless cavity conserves energy over 30 roundtrips:
    # every recorded pulse of the unit-energy input carries the output
    # coupling's share of it
    trace = run_search(cavity)
    assert trace.n_pulses == 30
    np.testing.assert_allclose(
        trace.total_energies, cavity.output_mirror_transmission, rtol=1e-9
    )

    # ... and two transforms amount to a parity flip
    second_lens = FourierGrid(fgrid.as_grid(), cavity.wavelength, cavity.focal_length_1)
    twice = dft_centered(transformed, second_lens)
    flipped = parity_flip(random_field)
    assert np.max(np.abs(twice.amplitudes - flipped.amplitudes)) < 1e-10

    # round trip closes exactly
    back = idft_centered(transformed, fgrid)
    assert np.max(np.abs(back.amplitudes - random_field.amplitudes)) < 1e-12


def test_criterion_9_phase_matching():
    # with the oracle phase pinned at -1.1 per pass, the best success
    # probability over a 26-iteration budget is maximized when the
    # diffusion phase matches, to within the 0.05 rad scan step
    oracle_phase = 2.0 * -1.1
    scan = np.round(np.arange(-1.7, -0.4999, 0.05), 10)
    best_setting, best_peak = None, -1.0
    for per_pass in scan:
        state = GroverReducedState.uniform(32, 1)
        peak = state.success_probability
        for _ in range(26):
            state = reduced_iterate(state, oracle_phase, 2.0 * per_pass)
            peak = max(peak, state.success_probability)
        if peak > best_peak:
            best_setting, best_peak = per_pass, peak
    assert best_setting == pytest.approx(-1.1, abs=0.026)
