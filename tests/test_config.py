import json
import math

import pytest

from grover_optics import (
    ConfigurationError,
    ExperimentConfig,
    PRESET_NAMES,
    build_config,
    load_config,
)
from grover_optics.config import preset_values


class TestPresets:
    def test_all_presets_load_and_validate(self):
        for name in PRESET_NAMES:
            cfg = build_config({"preset": name})
            assert cfg.preset == name

    def test_measured_setup_preset(self):
        cfg = build_config({"preset": "paper-42um"})
        assert cfg.wavelength_nm == 532.0
        assert cfg.input_fwhm_mm == 1.33
        assert cfg.oracle.center_um == 150.0
        assert cfg.oracle.flat_width_um == 42.0
        assert cfg.oracle.ramp_width_um == 4.0
        assert cfg.oracle.phase_rad == -1.1
        assert cfg.iaa.flat_width_um == 136.0
        assert cfg.iaa.ramp_width_um == 8.0
        assert cfg.roundtrip_energy_factor == 0.75
        assert cfg.n_pulses == 12

    def test_wider_line_presets_scale_the_plate(self):
        for name, flat, ramp in [
            ("paper-84um", 84.0, 8.0),
            ("paper-126um", 126.0, 37.0),
        ]:
            cfg = build_config({"preset": name})
            assert cfg.oracle.flat_width_um == flat
            assert cfg.oracle.ramp_width_um == ramp

    def test_ideal_preset_is_lossless_quarter_wave(self):
        cfg = build_config({"preset": "ideal"})
        assert cfg.roundtrip_energy_factor == 1.0
        assert cfg.oracle.ramp_width_um == 0.0
        assert cfg.iaa.ramp_width_um == 0.0
        assert cfg.oracle.phase_rad == pytest.approx(-math.pi / 2)
        assert cfg.iaa.phase_rad == pytest.approx(-math.pi / 2)
        assert cfg.n_pulses == 30

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown preset"):
            build_config({"preset": "paper-999um"})
        with pytest.raises(ConfigurationError, match="unknown preset"):
            preset_values("nope")

    def test_user_keys_override_preset_field_by_field(self):
        cfg = build_config(
            {"preset": "paper-42um", "oracle": {"flat_width_um": 50.0}}
        )
        assert cfg.oracle.flat_width_um == 50.0
        # untouched nested keys keep their preset values
        assert cfg.oracle.ramp_width_um == 4.0
        assert cfg.oracle.center_um == 150.0


class TestValidation:
    def test_negative_wavelength_names_the_key(self):
        with pytest.raises(ConfigurationError, match="wavelength_nm"):
            build_config({"wavelength_nm": -1.0})

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigurationError, match="wavelength_um"):
            build_config({"wavelength_um": 0.532})

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ConfigurationError, match="oracle"):
            build_config({"oracle": {"flat_width_um": 42.0, "tilt_deg": 3.0}})

    def test_grid_samples_must_be_power_of_two(self):
        with pytest.raises(ConfigurationError, match="power of two"):
            build_config({"grid_samples": 1000})

    def test_reference_counts_cross_checked(self):
        with pytest.raises(ConfigurationError, match="n_marked"):
            build_config({"reference": {"n_items": 8, "n_marked": 9}})

    def test_sweep_axis_needs_values(self):
        with pytest.raises(ConfigurationError, match="sweep"):
            build_config({"sweep": [{"parameter": "n_pulses", "values": []}]})

    def test_geometry_cross_check_at_load_time(self):
        # plate far outside the grid: rejected even though every field
        # is individually in range
        with pytest.raises(ConfigurationError, match="plate support"):
            build_config(
                {
                    "preset": "paper-42um",
                    "oracle": {"center_um": 20000.0},
                }
            )

    def test_reference_mode_skips_geometry_check(self):
        cfg = build_config(
            {
                "mode": "reference",
                "preset": "paper-42um",
                "oracle": {"center_um": 20000.0},
            }
        )
        assert cfg.mode == "reference"

    def test_root_must_be_object(self):
        with pytest.raises(ConfigurationError, match="object"):
            build_config([1, 2, 3])


class TestUnitConversion:
    def test_cavity_config_in_si_units(self):
        cavity = build_config({"preset": "paper-42um"}).to_cavity_config()
        assert cavity.wavelength == pytest.approx(532e-9)
        assert cavity.input_fwhm == pytest.approx(1.33e-3)
        assert cavity.focal_length_1 == pytest.approx(0.400)
        assert cavity.focal_length_2 == pytest.approx(0.600)
        assert cavity.oracle_plate.center == pytest.approx(150e-6)
        assert cavity.oracle_plate.flat_width == pytest.approx(42e-6)
        assert cavity.iaa_plate.flat_width == pytest.approx(136e-6)
        assert cavity.grid.n_samples == 16384
        assert cavity.grid.pitch == pytest.approx(2e-6)
        assert cavity.loss.roundtrip_energy_factor == 0.75

    def test_slit_defaults_to_oracle_center(self):
        cavity = build_config({"preset": "paper-42um"}).to_cavity_config()
        assert cavity.slit is not None
        assert cavity.slit.center == pytest.approx(150e-6)
        assert cavity.slit.width == pytest.approx(55e-6)

    def test_explicit_slit_center_wins(self):
        cavity = build_config(
            {"preset": "paper-42um", "slit_center_um": -30.0}
        ).to_cavity_config()
        assert cavity.slit.center == pytest.approx(-30e-6)

    @pytest.mark.parametrize("center_um", [100000.0, -100000.0])
    def test_slit_that_misses_the_grid_is_rejected(self, center_um):
        # At 4096 samples of 2 um the cells span [-4097, 4095] um.
        with pytest.raises(ConfigurationError, match="slit window .* grid's extent"):
            build_config({"preset": "paper-42um", "grid_samples": 4096,
                          "slit_center_um": center_um})

    def test_slit_that_clips_the_grid_edge_is_kept(self):
        cavity = build_config({"preset": "paper-42um", "grid_samples": 4096,
                               "slit_center_um": 4100.0}).to_cavity_config()
        assert cavity.slit.center == pytest.approx(4100e-6)

    def test_defaults_round_trip_through_dump(self):
        cfg = ExperimentConfig()
        again = ExperimentConfig.model_validate(cfg.model_dump())
        assert again == cfg


class TestFileLoading:
    def test_load_valid_file(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"preset": "paper-84um", "n_pulses": 5}))
        cfg = load_config(path)
        assert cfg.oracle.flat_width_um == 84.0
        assert cfg.n_pulses == 5

    def test_parse_error_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"n_pulses": 5,}')
        with pytest.raises(ConfigurationError, match="line 1"):
            load_config(path)

    def test_non_object_root_rejected(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigurationError, match="object"):
            load_config(path)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_config(tmp_path / "absent.json")
