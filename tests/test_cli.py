import ctypes
import json
import platform
import subprocess
import sys
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from grover_optics import build_config, cavity, cli, pulse_train, runner
from grover_optics.cli import main

from conftest import recorded

SMALL_GRID = {"grid_samples": 4096, "grid_pitch_um": 2.0}


def write_config(tmp_path, name="config.json", **entries):
    path = tmp_path / name
    path.write_text(json.dumps(entries))
    return path


def small_search_config(tmp_path, **extra):
    return write_config(
        tmp_path, preset="paper-42um", n_pulses=8, **SMALL_GRID, **extra
    )


def read_summary(out_dir):
    return json.loads((out_dir / "summary.json").read_text())


class TestRunCommand:
    def test_search_run_writes_all_outputs(self, tmp_path):
        cfg = small_search_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "profiles.csv").exists()
        assert (out / "peaks.csv").exists()
        summary = read_summary(out)
        assert summary["mode"] == "search"
        assert summary["expected_nm"] == pytest.approx(1.33e-3 / 42e-6, rel=1e-6)
        header = (out / "peaks.csv").read_text().splitlines()[0]
        assert header == "iteration_count,peak_position_m,peak_value"
        n_rows = len((out / "peaks.csv").read_text().splitlines())
        assert n_rows == 1 + 8

    def test_profiles_table_layout(self, tmp_path):
        cfg = write_config(
            tmp_path, preset="paper-42um", n_pulses=2, **SMALL_GRID
        )
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "profiles.csv").read_text().splitlines()
        assert lines[0] == "iteration_count,x_m,intensity,compensated_intensity"
        assert len(lines) == 1 + 2 * 4096
        first = lines[1].split(",")
        assert float(first[0]) == 0.5
        assert float(first[1]) == pytest.approx(-4096e-6)

    def test_runs_are_byte_deterministic(self, tmp_path):
        cfg = small_search_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(cfg), "--out", str(out_a)]) == 0
        assert main(["run", "--config", str(cfg), "--out", str(out_b)]) == 0
        for name in ("profiles.csv", "peaks.csv", "summary.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_compensation_flag_changes_peak_values(self, tmp_path):
        cfg = small_search_config(tmp_path)
        out_on, out_off = tmp_path / "on", tmp_path / "off"
        assert main(
            ["run", "--config", str(cfg), "--out", str(out_on),
             "--compensate-loss", "true"]
        ) == 0
        assert main(
            ["run", "--config", str(cfg), "--out", str(out_off),
             "--compensate-loss", "false"]
        ) == 0
        peaks_on = (out_on / "peaks.csv").read_text()
        peaks_off = (out_off / "peaks.csv").read_text()
        assert peaks_on != peaks_off
        assert read_summary(out_off)["config"]["compensate_loss"] is False

    def test_preset_flag_without_config_file(self, tmp_path):
        out = tmp_path / "out"
        # full default grid; analyze mode skips the bulky profile table
        cfg = write_config(tmp_path, mode="analyze")
        assert main(
            ["run", "--config", str(cfg), "--preset", "paper-126um",
             "--out", str(out)]
        ) == 0
        summary = read_summary(out)
        assert summary["config"]["oracle"]["flat_width_um"] == 126.0
        assert not (out / "profiles.csv").exists()

    @pytest.mark.parametrize("phase", [-2.0, 0.0])
    def test_phase_outside_the_estimate_domain_writes_null(self, tmp_path, capsys, phase):
        # |phase| outside (0, pi/2] has no N/m estimate; the run still
        # completes, as it does when no first maximum is found.
        cfg = small_search_config(tmp_path, oracle={"phase_rad": phase})
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        summary = read_summary(out)
        assert summary["first_maximum"] is not None
        assert summary["estimate_nm"] is None
        assert summary["warnings"][-1].startswith("estimate_nm unavailable: phase_per_pass")
        assert "N/m estimate unavailable" in capsys.readouterr().out


@pytest.mark.parametrize("text, value", [
    ("true", True), ("1", True), ("yes", True), ("on", True),
    ("false", False), ("0", False), ("no", False), ("off", False),
])
def test_every_bool_spelling_parses(text, value):
    assert cli._parse_bool(f" {text.upper()} ") is value
    assert cli._parse_bool(text) is value


class TestErrorPaths:
    @pytest.mark.parametrize("content", [b'{"n_pulses": ', b"\xff", b"[" * 100000],
                             ids=["truncated", "not-utf8", "nested-too-deep"])
    def test_malformed_json_exits_2(self, tmp_path, capsys, content):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        out = tmp_path / "out"
        assert main(["run", "--config", str(bad), "--out", str(out)]) == 2
        assert str(bad) in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_field_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, wavelength_nm=-5.0)
        assert main(["run", "--config", str(cfg)]) == 2

    def test_unknown_preset_flag_exits_2(self, capsys):
        assert main(["run", "--preset", "paper-999um"]) == 2
        capsys.readouterr()  # swallow argparse usage text

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_invalid_workers_flag_exits_2_before_writing(
        self, tmp_path, capsys, workers
    ):
        out = tmp_path / "out"
        argv = ["run", "--preset", "paper-42um", "--workers", workers, "--out", str(out)]
        assert main(argv) == 2
        assert not out.exists()
        assert "workers" in capsys.readouterr().err

    def test_slit_off_the_grid_exits_2_before_writing(self, tmp_path, capsys):
        cfg = write_config(tmp_path, preset="paper-42um", slit_center_um=100000.0,
                           **SMALL_GRID)
        out = tmp_path / "out"
        assert main(["pulse-train", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
        assert "slit window" in capsys.readouterr().err

    @pytest.mark.parametrize("key, number", [
        ("n_pulses", 10**20),  # beyond the kernel's index type
        ("wavelength_nm", 10**399),  # beyond float64
    ])
    def test_number_out_of_machine_range_exits_2_before_writing(
        self, tmp_path, capsys, key, number
    ):
        cfg = write_config(tmp_path, preset="paper-42um", grid_samples=4096, **{key: number})
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
        assert f"config error: {key}: " in capsys.readouterr().err

    @pytest.mark.parametrize("entries", [
        # Pulse 12's loss compensation overflows, and the pulse underflows.
        {"preset": "paper-42um", "roundtrip_energy_factor": 1e-30, **SMALL_GRID},
        {"preset": "paper-42um", "roundtrip_energy_factor": 5e-324, **SMALL_GRID},
        # A finite compensation, but the last pulses underflow to 0.
        {"preset": "paper-42um", "roundtrip_energy_factor": 1e-25,
         "output_mirror_transmission": 1e-100, **SMALL_GRID},
        # N/m overflows, and with it the reference summary's formulas.
        {"mode": "reference", "reference": {"n_items": 1e300, "n_marked": 1e-10}},
        {"mode": "reference", "reference": {"n_items": 32.0, "n_marked": 1e-320}},
    ], ids=["loss-1e-30", "loss-5e-324", "loss-1e-25-transmission-1e-100",
            "n-items-1e300", "n-marked-1e-320"])
    def test_run_beyond_float64_range_exits_2_before_writing(self, tmp_path, capsys,
                                                             entries):
        cfg = write_config(tmp_path, **entries)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
        assert "float64" in capsys.readouterr().err

    def test_int_echoes_as_float_and_integral_float_as_int(self, tmp_path):
        cfg = write_config(tmp_path, preset="paper-42um", grid_samples=4096.0,
                           focal_length_2_mm=600)
        out = tmp_path / "out"
        assert main(["reference", "--config", str(cfg), "--out", str(out)]) == 0
        text = (out / "summary.json").read_text()
        assert '"grid_samples": 4096,' in text
        assert '"focal_length_2_mm": 600.0,' in text

    def test_missing_config_file_exits_4(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "absent.json")]) == 4

    def test_missing_subcommand_exits_2(self, capsys):
        assert main([]) == 2
        capsys.readouterr()


class TestPulseTrainCommand:
    def test_subcommand_forces_mode_and_writes_train(self, tmp_path):
        cfg = write_config(
            tmp_path,
            oracle={"flat_width_um": 42.0, "ramp_width_um": 4.0,
                    "center_um": 150.0, "phase_rad": 0.0},
            iaa={"flat_width_um": 136.0, "ramp_width_um": 8.0,
                 "phase_rad": 0.0},
            n_pulses=6,
            **SMALL_GRID,
        )
        out = tmp_path / "out"
        assert main(["pulse-train", "--config", str(cfg), "--out", str(out)]) == 0
        summary = read_summary(out)
        assert summary["mode"] == "pulse-train"
        # zero-depth plates leave a bare lossy cavity
        for ratio in summary["consecutive_energy_ratios"]:
            assert ratio == pytest.approx(0.75, rel=1e-6)
        lines = (out / "train.csv").read_text().splitlines()
        assert lines[0] == "iteration_count,slit_energy"
        assert len(lines) == 1 + 6

    def test_slit_width_reaches_the_pulse_train(self, tmp_path):
        energies = {}
        for width_um in (55.0, 20.0):
            raw = {"preset": "paper-42um", "n_pulses": 4, "slit_width_um": width_um,
                   **SMALL_GRID}
            out = tmp_path / f"out{width_um:g}"
            cfg = write_config(tmp_path, f"w{width_um:g}.json", **raw)
            assert main(["pulse-train", "--config", str(cfg), "--out", str(out)]) == 0
            rows = (out / "train.csv").read_text().splitlines()[1:]
            energies[width_um] = [float(row.split(",")[1]) for row in rows]
        cavity = build_config(raw).to_cavity_config()
        assert cavity.slit_window == pytest.approx((140e-6, 160e-6))
        assert energies[20.0] == [float(f"{e:.9g}") for _, e in pulse_train(cavity)]
        assert all(a < b for a, b in zip(energies[20.0], energies[55.0]))

    def test_ratio_after_a_zero_slit_energy_is_null(self, tmp_path, monkeypatch):
        def reject(token):
            raise ValueError(f"summary.json holds the non-JSON token {token}")

        trace = SimpleNamespace(iteration_counts=np.array([0.5, 1.5, 2.5]),
                                slit_energies=np.array([0.0, 2e-4, 1e-4]),
                                total_energies=np.array([1e-3, 1e-3, 1e-3]))
        monkeypatch.setattr(runner, "run_search", lambda cavity, on_pulse: trace)
        cfg = write_config(tmp_path, preset="paper-42um", **SMALL_GRID)
        out = tmp_path / "out"
        assert main(["pulse-train", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text(), parse_constant=reject)
        assert summary["consecutive_energy_ratios"] == [None, 0.5]

    def test_slit_off_the_beam_is_flagged(self, tmp_path):
        # At +3500 um the slit sees only light the plates' ramps scatter,
        # under 1e-4 of every pulse; at the default slit, over 9e-2.
        out = {}
        for name, slit in (("on", {}), ("off", {"slit_center_um": 3500.0})):
            cfg = write_config(tmp_path, f"{name}.json", preset="paper-42um",
                               **SMALL_GRID, **slit)
            out[name] = tmp_path / name
            assert main(["pulse-train", "--config", str(cfg), "--out", str(out[name])]) == 0
        assert "warnings" not in read_summary(out["on"])
        assert read_summary(out["off"])["warnings"] == [
            "slit collects under 1e-3 of the pulse energy for pulse rows "
            f"{list(range(12))}; it may be off the beam"
        ]


class TestReferenceCommand:
    def test_four_item_search_summary(self, tmp_path):
        cfg = write_config(
            tmp_path,
            reference={"n_items": 4, "n_marked": 1, "n_iterations": 3},
        )
        out = tmp_path / "out"
        assert main(["reference", "--config", str(cfg), "--out", str(out)]) == 0
        summary = read_summary(out)
        assert summary["mode"] == "reference"
        assert summary["max_success_probability"] == pytest.approx(1.0)
        assert summary["argmax_iteration"] == 1
        lines = (out / "reference.csv").read_text().splitlines()
        assert lines[0] == "iteration,success_probability,ideal_closed_form"
        assert len(lines) == 1 + 4

    def test_reference_phase_outside_the_optimum_domain_writes_null(self, tmp_path, capsys):
        cfg = write_config(tmp_path, reference={"oracle_phase_rad": 4.0})
        out = tmp_path / "out"
        assert main(["reference", "--config", str(cfg), "--out", str(out)]) == 0
        summary = read_summary(out)
        assert summary["optimal_iterations"] is None
        assert summary["warnings"][0].startswith("optimal_iterations unavailable:")
        assert "(optimum unavailable)" in capsys.readouterr().out

    def test_reference_optimum_beyond_float64_range_writes_null(self, tmp_path, capsys):
        # pi / (4 sin 5e-301) * sqrt(1e300) overflows; every other number
        # of the run is finite and still written.
        cfg = write_config(tmp_path, mode="reference",
                           reference={"n_items": 1e300, "oracle_phase_rad": 1e-300})
        out = tmp_path / "out"
        assert main(["reference", "--config", str(cfg), "--out", str(out)]) == 0
        summary = read_summary(out)
        assert summary["optimal_iterations"] is None
        assert len(summary["warnings"]) == 1
        assert summary["warnings"][0].startswith("optimal_iterations unavailable:")
        assert summary["oscillation_period"] == pytest.approx(np.pi / 2 * 1e150)
        assert capsys.readouterr().err == ""


def sweep_files(out_dir):
    """Every file under a sweep's output directory, by relative path: the
    bytes, except each point summary, parsed and without its config's
    ``workers`` echo."""
    files = {}
    for path in sorted(out_dir.rglob("*")):
        if path.is_dir():
            continue
        name = path.relative_to(out_dir).as_posix()
        if name.startswith("point_") and path.name == "summary.json":
            summary = json.loads(path.read_text())
            del summary["config"]["workers"]
            files[name] = summary
        else:
            files[name] = path.read_bytes()
    return files


class TestSweepCommand:
    def sweep_config(self, tmp_path, **extra):
        return write_config(
            tmp_path,
            preset="paper-42um",
            n_pulses=8,
            sweep=[{"parameter": "oracle.flat_width_um",
                    "values": [42.0, 84.0, 126.0]}],
            **SMALL_GRID,
            **extra,
        )

    def test_sweep_table_and_point_dirs(self, tmp_path):
        cfg = self.sweep_config(tmp_path)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == (
            "point,oracle.flat_width_um,first_maximum,estimate_nm,expected_nm"
        )
        assert len(lines) == 4
        middle = lines[2].split(",")
        assert middle[0] == "1"
        assert float(middle[1]) == 84.0
        assert float(middle[4]) == pytest.approx(1.33e-3 / 84e-6, rel=1e-6)
        for index in range(3):
            assert (out / f"point_{index:03d}" / "summary.json").exists()
        aggregate = json.loads((out / "sweep_summary.json").read_text())
        assert aggregate["n_points"] == 3

    def test_parallel_sweep_is_deterministic(self, tmp_path):
        cfg = self.sweep_config(tmp_path)
        serial, parallel = tmp_path / "serial", tmp_path / "parallel"
        assert main(["sweep", "--config", str(cfg), "--out", str(serial)]) == 0
        assert main(
            ["sweep", "--config", str(cfg), "--out", str(parallel),
             "--workers", "3"]
        ) == 0
        assert (serial / "sweep.csv").read_bytes() == (parallel / "sweep.csv").read_bytes()

    @pytest.mark.parametrize("mode", ["search", "analyze", "pulse-train"])
    @pytest.mark.parametrize(
        "second_axis",
        [
            # one group of six compatible points: at 8192 samples a
            # kernel batch holds four, so the chunks are uneven
            {"parameter": "oracle.center_um", "values": [-150.0, 150.0]},
            # n_pulses puts alternate points into two groups
            {"parameter": "n_pulses", "values": [6.0, 8.0]},
        ],
        ids=["one-group", "two-groups"],
    )
    def test_sweep_outputs_do_not_depend_on_workers(self, tmp_path, mode, second_axis):
        cfg = write_config(
            tmp_path,
            preset="paper-42um",
            mode=mode,
            n_pulses=8,
            grid_samples=8192,
            grid_pitch_um=2.0,
            sweep=[{"parameter": "oracle.flat_width_um", "values": [42.0, 84.0, 126.0]},
                   second_axis],
        )
        outputs = []
        for workers in (1, 2, 3):
            out = tmp_path / f"workers_{workers}"
            assert main(["sweep", "--config", str(cfg), "--out", str(out),
                         "--workers", str(workers)]) == 0
            outputs.append(sweep_files(out))
        table = "train.csv" if mode == "pulse-train" else "peaks.csv"
        assert sum(name.endswith("/" + table) for name in outputs[0]) == 6
        assert outputs[1] == outputs[0]
        assert outputs[2] == outputs[0]

    def test_point_without_an_estimate_completes_the_sweep(self, tmp_path):
        cfg = write_config(
            tmp_path,
            preset="paper-42um",
            mode="analyze",
            n_pulses=8,
            sweep=[{"parameter": "oracle.phase_rad", "values": [-1.1, -2.0]}],
            **SMALL_GRID,
        )
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        rows = [line.split(",") for line in (out / "sweep.csv").read_text().splitlines()]
        assert rows[0][3] == "estimate_nm"
        assert float(rows[1][3]) > 0
        assert rows[2][3] == "nan"
        assert read_summary(out / "point_001")["estimate_nm"] is None

    def test_unknown_sweep_parameter_exits_2(self, tmp_path):
        cfg = write_config(
            tmp_path,
            preset="paper-42um",
            sweep=[{"parameter": "oracle.width_um", "values": [1.0]}],
            **SMALL_GRID,
        )
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize(
        "parameter, values",
        [
            # the last plate center puts the oracle off the grid
            ("oracle.center_um", [150.0, 200.0, 1e6]),
            # schema violation on the second point
            ("wavelength_nm", [532.0, -5.0]),
            # the second slit misses the grid
            ("slit_center_um", [150.0, 100000.0]),
        ],
    )
    def test_invalid_point_exits_2_before_writing(
        self, tmp_path, capsys, parameter, values
    ):
        cfg = write_config(
            tmp_path,
            preset="paper-42um",
            n_pulses=8,
            sweep=[{"parameter": parameter, "values": values}],
            **SMALL_GRID,
        )
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
        assert f"sweep point {len(values) - 1}" in capsys.readouterr().err

    def test_sweep_of_numbers_over_a_bool_exits_2_before_writing(self, tmp_path, capsys):
        cfg = write_config(tmp_path, preset="paper-42um",
                           sweep=[{"parameter": "compensate_loss", "values": [0, 1]}])
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
        assert "sweep point 0: compensate_loss: must be true or false" in capsys.readouterr().err

    def test_sweep_without_axes_is_a_single_run(self, tmp_path):
        cfg = small_search_config(tmp_path)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "summary.json").exists()
        assert not (out / "sweep.csv").exists()

    @pytest.mark.parametrize("mode, parameter, values", [
        ("reference", "reference.n_items", [16.0, 32.0]),
        ("pulse-train", "slit_width_um", [55.0, 80.0]),
    ])
    def test_sweep_headline_counts_the_points(self, tmp_path, capsys, mode, parameter,
                                              values):
        # The aggregate summary carries the mode too; the headline is the
        # sweep's, not a single run's of that mode.
        cfg = write_config(tmp_path, preset="paper-42um", mode=mode, n_pulses=4,
                           sweep=[{"parameter": parameter, "values": values}],
                           **SMALL_GRID)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        assert "swept 2 points" in capsys.readouterr().out
        assert (out / "sweep.csv").stat().st_size > 0


def main_on_a_thread(argv, timeout=120):
    """``main(argv)`` on a thread of its own, joined with a timeout.

    Returns ``{"code": exit code}`` or ``{"error": what it raised}``,
    after checking that the call ended and left no thread running."""
    before = threading.active_count()
    result = {}

    def call():
        try:
            result["code"] = main(argv)
        except BaseException as err:  # handed to the test
            result["error"] = err

    thread = threading.Thread(target=call, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), "main did not return"
    assert threading.active_count() == before
    return result


def serial_profiles(config, path):
    """``profiles.csv`` of ``config``'s recorded profiles, handed to the
    writer after the pulse loop has ended."""
    cavity_config = config.to_cavity_config()
    _, (profiles,) = recorded([cavity_config])
    runner._while_writing_profiles(
        lambda on_pulse: [on_pulse(row, profile[None]) for row, profile in enumerate(profiles)],
        [cavity_config], [path])
    return path.read_bytes()


@pytest.fixture
def short_switch_interval():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


class TestProfileWriterThread:
    """Search mode writes profiles.csv on a writer thread while the pulse
    loop runs; neither side may hang the other or outlive the call."""

    def test_unwritable_profiles_exits_4_without_hanging(self, tmp_path, capsys):
        # With profiles.csv a directory, the writer writes the temporary
        # and the whole pulse loop runs; then os.replace cannot move the
        # temporary onto the directory, and the temporary is removed.
        out = tmp_path / "out"
        (out / "profiles.csv").mkdir(parents=True)
        cfg = write_config(tmp_path, preset="paper-42um", **SMALL_GRID)
        assert main_on_a_thread(["run", "--config", str(cfg), "--out", str(out)]) == {"code": 4}
        assert "profiles.csv" in capsys.readouterr().err
        assert not (out / "summary.json").exists()
        assert not (out / "profiles.csv.tmp").exists()

    def test_unwritable_temporary_exits_4_without_hanging(self, tmp_path, capsys):
        # profiles.csv is written under a temporary name first: the real
        # writer fails at once when that name cannot be opened.
        out = tmp_path / "out"
        (out / "profiles.csv.tmp").mkdir(parents=True)
        cfg = write_config(tmp_path, preset="paper-42um", **SMALL_GRID)
        assert main_on_a_thread(["run", "--config", str(cfg), "--out", str(out)]) == {"code": 4}
        assert "profiles.csv.tmp" in capsys.readouterr().err
        assert list(out.iterdir()) == [out / "profiles.csv.tmp"]

    def test_writer_error_wakes_a_waiting_loop(self, tmp_path, monkeypatch, capsys):
        # By the time this writer fails, the loop has handed over
        # _HANDOFF_ROWS pulses and waits on the oldest one's future.
        def fail_later(table, fh, columns):
            time.sleep(0.5)
            raise OSError("disk full")

        monkeypatch.setattr(runner._TableWriter, "write", fail_later)
        cfg = write_config(tmp_path, preset="paper-42um", **SMALL_GRID)
        out = tmp_path / "out"
        assert main_on_a_thread(["run", "--config", str(cfg), "--out", str(out)]) == {"code": 4}
        assert "disk full" in capsys.readouterr().err

    def test_writer_error_stops_the_loop_at_its_next_wait(self, tmp_path, monkeypatch,
                                                          capsys):
        # The writer fails on pulse 0; the loop runs on until it waits on
        # that pulse's future, with _HANDOFF_ROWS more pulses handed over.
        measured = []
        original = cavity._lobe_center

        def count(intensity, coords, idx):
            measured.append(idx)
            return original(intensity, coords, idx)

        def fail(table, fh, columns):
            raise OSError("disk full")

        monkeypatch.setattr(cavity, "_lobe_center", count)
        monkeypatch.setattr(runner._TableWriter, "write", fail)
        cfg = write_config(tmp_path, preset="paper-42um", n_pulses=12, **SMALL_GRID)
        out = tmp_path / "out"
        assert main_on_a_thread(["run", "--config", str(cfg), "--out", str(out)]) == {"code": 4}
        assert "disk full" in capsys.readouterr().err
        assert 1 <= len(measured) <= runner._HANDOFF_ROWS + 1
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_loop_error_stops_the_writer(self, tmp_path, monkeypatch, error):
        measured = []
        original = cavity._lobe_center

        def fail_on_pulse_5(intensity, coords, idx):
            measured.append(idx)
            if len(measured) == 5:
                raise error("measurement failed")
            return original(intensity, coords, idx)

        monkeypatch.setattr(cavity, "_lobe_center", fail_on_pulse_5)
        cfg = write_config(tmp_path, preset="paper-42um", **SMALL_GRID)
        out = tmp_path / "out"
        result = main_on_a_thread(["run", "--config", str(cfg), "--out", str(out)])
        assert type(result["error"]) is error
        # The writer has ended, and the pulses it wrote before the error
        # are gone: no profiles.csv, no temporary, no summary.
        assert list(out.iterdir()) == []

    def test_loop_error_cancels_the_pulses_not_yet_written(self, tmp_path, monkeypatch):
        # The loop fails on pulse 2 while the writer is inside pulse 0's
        # write and pulse 1's is queued behind it.  Pulse 0's write then
        # lingers, so the failing loop reaches the writer first: pulse 1
        # must not be written into a temporary that is removed anyway.
        began, failed = threading.Event(), threading.Event()
        writes, measured = [], []
        original = cavity._lobe_center

        def hold(table, fh, columns):
            writes.append(fh)
            began.set()
            failed.wait(60)
            time.sleep(0.2)

        def fail_on_pulse_3(intensity, coords, idx):
            measured.append(idx)
            if len(measured) == 3:
                began.wait(60)
                failed.set()
                raise RuntimeError("measurement failed")
            return original(intensity, coords, idx)

        monkeypatch.setattr(runner._TableWriter, "write", hold)
        monkeypatch.setattr(cavity, "_lobe_center", fail_on_pulse_3)
        cfg = write_config(tmp_path, preset="paper-42um", **SMALL_GRID)
        out = tmp_path / "out"
        result = main_on_a_thread(["run", "--config", str(cfg), "--out", str(out)])
        assert type(result["error"]) is RuntimeError
        assert len(writes) == 1
        assert list(out.iterdir()) == []

    def test_run_profiles_under_a_short_switch_interval(self, tmp_path, short_switch_interval):
        cfg = write_config(tmp_path, preset="paper-42um", **SMALL_GRID)
        out = tmp_path / "out"
        assert main_on_a_thread(["run", "--config", str(cfg), "--out", str(out)]) == {"code": 0}
        expected = serial_profiles(build_config(json.loads(cfg.read_text())),
                                   tmp_path / "expected.csv")
        assert (out / "profiles.csv").read_bytes() == expected

    def test_sweep_profiles_with_more_threads_than_cores(self, tmp_path, short_switch_interval):
        # Three pulse counts make three kernel chunks: three sweep threads,
        # each with its writer thread.
        raw = {"preset": "paper-42um", **SMALL_GRID}
        cfg = write_config(tmp_path, **raw, sweep=[{"parameter": "n_pulses",
                                                    "values": [6.0, 8.0, 10.0]}])
        out = tmp_path / "out"
        argv = ["sweep", "--config", str(cfg), "--out", str(out), "--workers", "3"]
        assert main_on_a_thread(argv) == {"code": 0}
        for point, n_pulses in enumerate((6, 8, 10)):
            expected = serial_profiles(build_config({**raw, "n_pulses": n_pulses}),
                                       tmp_path / f"expected{point}.csv")
            assert (out / f"point_{point:03d}" / "profiles.csv").read_bytes() == expected


def test_module_entry_point_smoke(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"preset": "paper-42um", "mode": "analyze"}))
    out = tmp_path / "out"
    result = subprocess.run(
        [sys.executable, "-m", "grover_optics", "run",
         "--config", str(cfg), "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0
    assert "first maximum" in result.stdout
    assert (out / "summary.json").exists()


def test_runs_without_pydantic(tmp_path):
    script = f"""
import sys
sys.modules["pydantic"] = None  # any import of pydantic now raises ImportError
from grover_optics.cli import build_config, main
build_config({{"preset": "paper-42um"}})
code = main(["reference", "--out", {str(tmp_path / "out")!r}])
print(sorted(name for name, module in sys.modules.items()
             if name.startswith("pydantic") and module is not None))
sys.exit(code)
"""
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "out" / "summary.json").exists()


def glibc_mallopt() -> bool:
    if platform.libc_ver()[0] != "glibc":
        return False
    return hasattr(ctypes.CDLL(None), "mallopt")


@pytest.mark.skipif(not glibc_mallopt(), reason="needs glibc's mallopt")
def test_fft_scratch_stays_mapped_after_main(tmp_path):
    # Without the allocator pin glibc maps and unmaps the FFT's 512 KiB
    # scratch on every call: about 11,000 minor faults for these 50.
    script = f"""
import resource
import numpy as np
from grover_optics.cli import main
assert main(["reference", "--out", {str(tmp_path / "out")!r}]) == 0
rows = np.ones((2, 16384), dtype=complex)
np.fft.fft(rows)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(50):
    np.fft.fft(rows)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            timeout=120)
    assert result.returncode == 0, result.stderr
    assert int(result.stdout.splitlines()[-1]) < 100


@pytest.mark.parametrize("missing", ["libc", "mallopt"])
def test_main_runs_without_mallopt(tmp_path, monkeypatch, missing):
    def load(name):
        if missing == "libc":
            raise OSError("no C library")
        return SimpleNamespace()  # a library without mallopt

    monkeypatch.setattr(cli.ctypes, "CDLL", load)
    cli._pin_allocator.cache_clear()
    try:
        assert main(["reference", "--out", str(tmp_path / "out")]) == 0
    finally:
        cli._pin_allocator.cache_clear()
    assert (tmp_path / "out" / "summary.json").exists()


@pytest.mark.skipif(not glibc_mallopt(), reason="needs glibc's mallopt")
def test_threads_share_one_malloc_arena_after_main(tmp_path):
    # glibc gives each thread that allocates an arena of its own (2 here)
    # unless the pin holds them to one; malloc_stats prints one
    # "Arena N:" block per arena.
    script = f"""
import ctypes, threading
import numpy as np
from grover_optics.cli import main
assert main(["reference", "--out", {str(tmp_path / "out")!r}]) == 0
thread = threading.Thread(target=lambda: [np.ones(1000) for _ in range(100)])
thread.start()
thread.join()
libc = ctypes.CDLL(None)
libc.malloc_stats.restype = None
libc.malloc_stats()
"""
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            timeout=120)
    assert result.returncode == 0, result.stderr
    assert [line for line in result.stderr.splitlines() if line.startswith("Arena ")] == [
        "Arena 0:"]
