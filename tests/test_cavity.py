from dataclasses import replace

import numpy as np
import pytest

from grover_optics import cavity, elements
from grover_optics import (
    CavityConfig,
    ConfigurationError,
    Grid1D,
    LossModel,
    PeakTrace,
    TrapezoidPhasePlate,
    pulse_train,
    run_search,
    build_config,
    first_maximum,
)

import oracle
from conftest import PAPER_PLATES, compensated_rows, ideal_cavity, paper_cavity


def disabled_cavity(**overrides) -> CavityConfig:
    """Default geometry with both plate depths at zero."""
    kwargs = dict(
        oracle_plate=TrapezoidPhasePlate(150e-6, 42e-6, 4e-6, 0.0),
        iaa_plate=TrapezoidPhasePlate(0.0, 136e-6, 8e-6, 0.0),
    )
    kwargs.update(overrides)
    return CavityConfig(**kwargs)


class TestHalfPassForward:
    # The first recorded pulse is the upright forward half pass: oracle
    # once, then the Fourier-plane chain with the single-pass IAA phasor
    # and half the roundtrip loss.
    def test_flat_plates_reduce_to_the_loss(self):
        config = disabled_cavity(n_pulses=1, output_mirror_transmission=1.0)
        trace = run_search(config)
        expected = 0.75**0.5 * np.abs(oracle.gaussian(config)) ** 2
        assert np.max(np.abs(trace.profiles[0] - expected)) < 1e-10 * np.max(expected)

    def test_energy_drops_by_half_roundtrip(self):
        config = paper_cavity(42.0, n_pulses=1, output_mirror_transmission=1.0)
        assert run_search(config).total_energies[0] == pytest.approx(0.75**0.5, rel=1e-9)


class TestGroverIterate:
    # One roundtrip of the pulse loop, seen from pulse to pulse.
    def test_identity_when_plates_and_loss_disabled(self):
        config = disabled_cavity(loss=LossModel(1.0), n_pulses=2)
        profiles = run_search(config).profiles
        assert np.max(np.abs(profiles[1] - profiles[0])) < 1e-10 * np.max(profiles[0])

    def test_energy_scaling_per_roundtrip(self):
        energies = run_search(paper_cavity(42.0, n_pulses=2)).total_energies
        assert energies[1] / energies[0] == pytest.approx(0.75, rel=1e-9)

    def test_marked_fraction_grows_on_first_iterations(self):
        config = ideal_cavity(42.0, n_pulses=5)
        mask = np.abs(config.grid.coordinates - 150e-6) <= 21e-6
        fractions = [np.sum(profile[mask]) / np.sum(profile)
                     for profile in run_search(config).profiles]
        assert all(a < b for a, b in zip(fractions, fractions[1:]))


class TestRunSearch:
    def test_trace_layout(self):
        config = paper_cavity(42.0)
        trace = run_search(config)
        assert trace.n_pulses == 12
        assert trace.profiles.shape == (12, config.grid.n_samples)
        assert compensated_rows(trace, 0.75).shape == trace.profiles.shape
        assert trace.compensation.tolist() == [0.75 ** -c for c in trace.iteration_counts]
        assert np.allclose(trace.iteration_counts, np.arange(12) + 0.5)
        assert np.all(np.diff(trace.iteration_counts) == 1.0)
        assert not trace.peak_at_edge.any()

    def test_recorded_energy_decays_at_loss_rate(self):
        trace = run_search(paper_cavity(42.0))
        ratios = trace.total_energies[1:] / trace.total_energies[:-1]
        assert np.allclose(ratios, 0.75, rtol=1e-9)
        # phase plates and lenses are unitary, so the very first pulse
        # carries the transmitted input energy after half a roundtrip
        assert trace.total_energies[0] == pytest.approx(0.02 * 0.75**0.5, rel=1e-9)

    def test_compensation_exactly_cancels_decay(self):
        config = paper_cavity(84.0)
        trace = run_search(config)
        compensated = compensated_rows(trace, config.loss.roundtrip_energy_factor)
        energies = np.sum(compensated, axis=1) * config.grid.pitch
        assert np.allclose(energies, 0.02, rtol=1e-9)

    def test_disabled_cavity_reimages_the_input_every_pulse(self):
        config = disabled_cavity(
            loss=LossModel(1.0), output_mirror_transmission=1.0, n_pulses=3
        )
        trace = run_search(config)
        reference = np.abs(oracle.gaussian(config)) ** 2
        scale = float(np.max(reference))
        for row in range(3):
            assert np.max(np.abs(trace.profiles[row] - reference)) < 1e-9 * scale

    def test_first_pulse_is_a_phase_contrast_image(self):
        lit = run_search(paper_cavity(42.0, n_pulses=1))
        dark = run_search(disabled_cavity(n_pulses=1))
        on_flat = np.abs(paper_cavity(42.0).grid.coordinates - 150e-6) <= 21e-6
        enhancement = lit.profiles[0][on_flat].mean() / dark.profiles[0][on_flat].mean()
        assert enhancement > 2.0
        # the plates only move energy around; totals agree
        assert lit.total_energies[0] == pytest.approx(dark.total_energies[0], rel=1e-9)

    def test_consecutive_pulses_follow_the_cavity_iterator(self):
        # In the recorded (upright) frame, pulse j+1 is obtained from
        # pulse j by conjugating the roundtrip: a Fourier-plane IAA pass,
        # the double oracle pass, a second IAA pass, and one roundtrip
        # of amplitude loss.
        config = paper_cavity(42.0, n_pulses=2)
        trace = run_search(config)
        once, iaa = oracle.plate_phasors(config)
        twice = oracle.plate_phasors(config, passes=2)[0]
        upright_1 = oracle.half_pass(once * oracle.gaussian(config), iaa, 0.75**0.25)
        step = oracle.half_pass(twice * oracle.half_pass(upright_1, iaa, 1.0), iaa, 1.0)
        predicted = 0.02 * (0.75**0.5 * np.abs(step)) ** 2
        scale = float(np.max(trace.profiles[1]))
        assert np.max(np.abs(trace.profiles[1] - predicted)) < 1e-10 * scale

    @pytest.mark.parametrize("preset", ["paper-42um", "ideal"])
    def test_first_pulse_is_the_recorded_half_pass_bit_for_bit(self, preset):
        # The pulse loop's forward half pass is the Fourier-plane chain
        # in FFT-native order, so the first recorded pulse is exactly the
        # upright half pass of the chain.
        config = build_config({"preset": preset, "grid_samples": 4096}).to_cavity_config()
        trace = run_search(config)
        once, iaa = oracle.plate_phasors(config)
        scale = config.loss.roundtrip_energy_factor ** (0.5 / 2.0)
        out = oracle.half_pass(np.multiply(once, oracle.gaussian(config)), iaa, scale)
        expected = config.output_mirror_transmission * np.abs(out) ** 2
        assert np.array_equal(trace.profiles[0], expected)

    @pytest.mark.parametrize("n_samples", [4096, 16384])
    @pytest.mark.parametrize("preset", ["paper-42um", "ideal"])
    def test_every_pulse_matches_the_field_chain_bit_for_bit(self, preset, n_samples):
        # The pulse loop of run_search written as the centered field
        # chain in plain numpy (tests/oracle.py).  Both sizes matter: from
        # 16384 samples on, numpy reuses temporaries in place, which
        # changes a multiply's operand order and so its last bit.
        config = build_config({"preset": preset, "grid_samples": n_samples}).to_cavity_config()
        n = config.grid.n_samples
        loss_factor = config.loss.roundtrip_energy_factor
        coords = config.grid.coordinates
        overlap = elements._window_overlap(config.grid, *config.slit_window)
        rows = []
        counts = np.arange(1, config.n_pulses + 1) - 0.5
        for count, intensity in zip(counts, oracle.profiles(config)):
            idx = int(np.argmax(intensity))
            rows.append((
                intensity,
                cavity._lobe_center(intensity, coords, idx),
                intensity[idx],
                (intensity * loss_factor ** (-count))[idx],
                float(np.sum(intensity) * config.grid.pitch),
                np.sum(intensity * overlap),
                idx in (0, n - 1),
            ))

        trace = run_search(config)
        names = ("profiles", "peak_positions", "peak_values", "compensated_peak_values",
                 "total_energies", "slit_energies", "peak_at_edge")
        for name, expected in zip(names, zip(*rows)):
            assert np.array_equal(getattr(trace, name), np.array(expected)), name

    def test_pulse_loop_does_not_use_the_field_chain(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("run_search called the ComplexField chain")

        for name in ("dft_centered", "idft_centered", "parity_flip", "apply_plate",
                     "apply_roundtrip_loss"):
            monkeypatch.setattr(cavity, name, forbidden)
        trace = run_search(paper_cavity(42.0, n_pulses=3, grid=Grid1D(4096, 2e-6)))
        assert trace.n_pulses == 3

    @pytest.mark.parametrize("flat_um", sorted(PAPER_PLATES))
    def test_peak_locates_the_marked_line(self, flat_um):
        best_row = {42.0: 5, 84.0: 3, 126.0: 2}[flat_um]
        config = paper_cavity(flat_um)
        trace = run_search(config)
        assert abs(trace.peak_positions[best_row] - 150e-6) <= config.grid.pitch

    @pytest.mark.parametrize("n_pulses", [2, 12])
    def test_builds_each_plate_mask_once_per_run(self, n_pulses, monkeypatch):
        calls = []
        original = elements.phase_profile

        def counted(plate, grid):
            calls.append(plate)
            return original(plate, grid)

        monkeypatch.setattr(elements, "phase_profile", counted)
        config = paper_cavity(42.0, n_pulses=n_pulses, grid=Grid1D(4096, 2e-6))
        run_search(config)
        assert calls == [config.oracle_plate, config.iaa_plate]

    def test_batch_builds_each_oracle_mask_and_one_iaa_mask(self, monkeypatch):
        calls = []
        original = elements.phase_profile

        def counted(plate, grid):
            calls.append(plate)
            return original(plate, grid)

        monkeypatch.setattr(elements, "phase_profile", counted)
        configs = [paper_cavity(flat_um, n_pulses=2, grid=Grid1D(4096, 2e-6))
                   for flat_um in sorted(PAPER_PLATES)]
        cavity._run_batch(configs, record_profiles=False)
        assert calls == [config.oracle_plate for config in configs] + [configs[0].iaa_plate]

    def test_analyze_sweep_points_batched_equal_single_runs_bit_for_bit(self):
        # The benchmark's analyze sweep: three oracle widths at four
        # centers, all twelve in one batch.
        configs = [
            build_config({"preset": "paper-42um", "grid_samples": 4096,
                          "oracle": {"flat_width_um": flat_um, "center_um": center_um}}
                         ).to_cavity_config()
            for flat_um in (42.0, 84.0, 126.0)
            for center_um in (-450.0, -150.0, 150.0, 450.0)
        ]
        names = ("iteration_counts", "profiles", "peak_positions", "peak_values",
                 "compensated_peak_values", "total_energies", "slit_energies",
                 "peak_at_edge")
        batch = cavity._run_batch(configs, record_profiles=True)
        for config, batched in zip(configs, batch):
            single = run_search(config)
            for name in names:
                assert np.array_equal(getattr(batched, name), getattr(single, name)), name

    def test_batch_rejects_cavities_that_differ_beyond_the_oracle(self):
        configs = [paper_cavity(42.0, n_pulses=2), paper_cavity(84.0, n_pulses=3)]
        with pytest.raises(ValueError, match="oracle plate and input FWHM"):
            cavity._run_batch(configs, record_profiles=False)

    def test_lossless_cavity_conserves_recorded_energy(self):
        config = ideal_cavity(42.0, n_pulses=10)
        trace = run_search(config)
        assert np.allclose(
            trace.total_energies,
            config.output_mirror_transmission,
            rtol=1e-9,
        )


class TestReducedModelAgreement:
    def test_marked_fraction_tracks_two_level_prediction(self):
        # Hard-edged quarter-wave plates on a fine grid, marked line on
        # the beam axis: the marked-region energy fraction after k
        # roundtrips follows sin^2((2k+1) * asin(sqrt(m/N))) with
        # N/m = beam FWHM / line width.
        flat = 126e-6
        fwhm = 1.33e-3
        config = CavityConfig(
            oracle_plate=TrapezoidPhasePlate(0.0, flat, 0.0, -np.pi / 2),
            iaa_plate=TrapezoidPhasePlate(0.0, 136e-6, 0.0, -np.pi / 2),
            loss=LossModel(1.0),
            grid=Grid1D(32768, 1e-6),
        )
        theta = np.arcsin(np.sqrt(flat / fwhm))
        k_max = int(np.pi / (4 * theta)) + 2
        mask = np.abs(config.grid.coordinates) <= flat / 2
        field = oracle.gaussian(config)
        worst = 0.0
        for k in range(k_max + 1):
            intensity = np.abs(field) ** 2
            fraction = float(np.sum(intensity[mask]) / np.sum(intensity))
            predicted = np.sin((2 * k + 1) * theta) ** 2
            worst = max(worst, abs(fraction - predicted))
            field = oracle.roundtrip(field, config)
        assert worst < 0.15


class TestGridConvergence:
    # The extent stays at 32.768 mm while the pitch halves: 4, 2 and
    # 1 um at 8192, 16384 and 32768 samples.  paper-42um's first maximum
    # still drifts at the default grid (its 4 um oracle ramp and 8 um
    # IAA ramp are barely sampled), paper-126um's has converged.  These
    # values were measured; a change to the grid defaults, or to the
    # sampling, must update them on purpose.
    GRIDS = ((8192, 4.0), (16384, 2.0), (32768, 1.0))

    def first_maxima(self, preset):
        found = []
        for n_samples, pitch_um in self.GRIDS:
            config = build_config(
                {"preset": preset, "grid_samples": n_samples, "grid_pitch_um": pitch_um}
            ).to_cavity_config()
            found.append(first_maximum(PeakTrace.from_search_trace(run_search(config))))
        return found

    def test_paper_42um_first_maximum_drifts_with_the_pitch(self):
        found = self.first_maxima("paper-42um")
        assert found == pytest.approx([5.568, 5.417, 5.355], abs=0.005)

    def test_paper_126um_first_maximum_has_converged(self):
        found = self.first_maxima("paper-126um")
        assert max(found) - min(found) < 2e-3


class TestPulseTrain:
    def test_disabled_plates_decay_at_loss_rate(self):
        extent = disabled_cavity().grid.extent
        train = pulse_train(disabled_cavity(n_pulses=6, slit_center=0.0, slit_width=2 * extent))
        energies = [e for _, e in train]
        counts = [c for c, _ in train]
        assert counts == [0.5, 1.5, 2.5, 3.5, 4.5, 5.5]
        for before, after in zip(energies, energies[1:]):
            assert after / before == pytest.approx(0.75, rel=1e-9)

    def test_marked_line_signal_rises_before_decaying(self):
        train = pulse_train(paper_cavity(42.0))
        energies = [e for _, e in train]
        assert energies[1] > energies[0]
        assert energies[2] > energies[1]
        assert energies[3] > energies[2]
        assert energies[4] < energies[3]

    def test_default_slit_sits_on_the_marked_image(self):
        config = paper_cavity(42.0, n_pulses=4)
        assert config.slit_window == (150e-6 - 27.5e-6, 150e-6 + 27.5e-6)
        explicit = replace(config, slit_center=150e-6, slit_width=55e-6)
        assert pulse_train(config) == pulse_train(explicit)


class TestCavityConfigValidation:
    def base_plates(self):
        return dict(
            oracle_plate=TrapezoidPhasePlate(150e-6, 42e-6, 4e-6, -1.1),
            iaa_plate=TrapezoidPhasePlate(0.0, 136e-6, 8e-6, -1.1),
        )

    def test_slit_far_outside_grid_rejected(self):
        with pytest.raises(ConfigurationError, match="slit window"):
            CavityConfig(**self.base_plates(), slit_center=10.0)

    def test_zero_pulses_rejected(self):
        with pytest.raises(ConfigurationError, match="n_pulses"):
            CavityConfig(**self.base_plates(), n_pulses=0)

    @pytest.mark.parametrize("transmission", [0.0, -0.1, 1.5])
    def test_bad_transmission_rejected(self, transmission):
        with pytest.raises(ConfigurationError):
            CavityConfig(**self.base_plates(), output_mirror_transmission=transmission)

    def test_beam_wider_than_grid_rejected(self):
        with pytest.raises(ConfigurationError, match="input_fwhm"):
            CavityConfig(**self.base_plates(), input_fwhm=20e-3)

    def test_oracle_plate_outside_grid_rejected(self):
        plates = self.base_plates()
        plates["oracle_plate"] = TrapezoidPhasePlate(20e-3, 42e-6, 4e-6, -1.1)
        with pytest.raises(ConfigurationError, match="oracle"):
            CavityConfig(**plates)

    def test_iaa_plate_outside_fourier_plane_rejected(self):
        plates = self.base_plates()
        plates["iaa_plate"] = TrapezoidPhasePlate(60e-3, 136e-6, 8e-6, -1.1)
        with pytest.raises(ConfigurationError, match="IAA"):
            CavityConfig(**plates)

    def test_nonpositive_wavelength_rejected(self):
        with pytest.raises(ConfigurationError, match="wavelength"):
            CavityConfig(**self.base_plates(), wavelength=0.0)
