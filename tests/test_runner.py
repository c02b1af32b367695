"""The table writer and its ``%.9g`` cell formatter against
``np.savetxt``, their byte-for-byte reference; what search and analyze
runs keep and write; how a sweep's points are cut into kernel batches."""

import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from grover_optics import runner
from grover_optics.cavity import run_search
from grover_optics.config import build_config
from grover_optics.fields import Grid1D
from grover_optics.runner import (
    _EXPONENTS,
    _POW10,
    _CellFormatter,
    _batch_chunks,
    _while_writing_profiles,
    _write_table,
)

from conftest import paper_cavity, recorded

EDGE_VALUES = [
    np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300,
    1e-300, -1e-300, 2.0**53, -(2.0**53), 2.0**53 + 2, 0.5, -1.5, 2.5,
    11.5, 1 / 3, 123456789.5, 1.2345678949999999,
    # Round up across a power of ten, at and away from the notation switch.
    9.9999999996e-05, -9.9999999996e-05, 999999999.6, -999999999.6,
    9.99999999949e-05, 99999999.995, 9.9999999996e99, 9.9999999996e-101,
    # Three-digit exponents, the fast path's range ends and subnormals.
    1e100, -1.5e-100, 1e-290, 1e290, 9.99999999e289, 2.2250738585072014e-308,
    1e-310, -4.9406564584124654e-324,
]
PROFILE_HEADER = "iteration_count,x_m,intensity,compensated_intensity"


def savetxt_bytes(path, header, table):
    np.savetxt(path, table, fmt="%.9g", delimiter=",", comments="", header=header)
    return path.read_bytes()


def writer_bytes(path, header, columns):
    _write_table(path, header, columns)
    return path.read_bytes()


def format_cells(values, chunk):
    """Each value's cell, as the table writer's formatter fills it."""
    cells = np.empty(values.shape + (16,), dtype=np.uint8)
    _CellFormatter(chunk)(values, cells)
    return cells


def edge_table(n_rows, n_cols, seed):
    """Random magnitudes, with the edge values at the top of every column."""
    rng = np.random.default_rng(seed)
    table = rng.standard_normal((n_rows, n_cols)) * 10.0 ** rng.integers(
        -20, 20, (n_rows, n_cols)
    )
    for col in range(n_cols):
        edges = np.roll(EDGE_VALUES, col)[:n_rows]
        table[: edges.size, col] = edges
    return table


@pytest.mark.parametrize("n_rows", [0, 1, 255, 256, 257, 513, 4095, 4096, 4097, 8193])
def test_column_table_matches_savetxt(tmp_path, n_rows):
    table = edge_table(n_rows, 3, seed=n_rows)
    header = "a,b,c"
    expected = savetxt_bytes(tmp_path / "expected.csv", header, table)
    got = writer_bytes(tmp_path / "got.csv", header, list(table.T))
    assert got == expected


def test_integer_and_missing_cells(tmp_path):
    path = tmp_path / "sweep.csv"
    _write_table(path, "point,v,s", [range(3), [42.0, 84.0, 1e6], [None, 1.5, 2.0**53]])
    assert path.read_text() == "point,v,s\n0,42,nan\n1,84,1.5\n2,1000000,9.00719925e+15\n"


def column_stacked_profiles(cavity, profiles):
    """The table ``profiles.csv`` holds, as ``np.savetxt`` would write it."""
    counts = np.arange(1, cavity.n_pulses + 1) - 0.5
    loss_factor = cavity.roundtrip_energy_factor
    n = cavity.grid.coordinates.size
    compensated = [
        profile * loss_factor ** (-count) for count, profile in zip(counts, profiles)
    ]
    return np.column_stack([
        np.repeat(counts, n),
        np.tile(cavity.grid.coordinates, counts.size),
        profiles.ravel(),
        np.concatenate(compensated),
    ])


def streamed_profiles_bytes(path, cavity, profiles):
    """``profiles.csv`` as the writer thread writes it, pulse by pulse."""
    _while_writing_profiles(
        lambda on_pulse: [on_pulse(row, profile[None]) for row, profile in enumerate(profiles)],
        [cavity], [path])
    return path.read_bytes()


BLOCK_EDGE_SAMPLES = [1, 255, 256, 257, 513, 4095, 4097]


@pytest.mark.parametrize("n_samples, loss_factor", [
    *(pytest.param(n, 0.75, id=str(n)) for n in BLOCK_EDGE_SAMPLES),
    *(pytest.param(n, 1.0, id=f"{n}-lossless") for n in BLOCK_EDGE_SAMPLES),
])
def test_profile_blocks_match_savetxt_across_block_edges(tmp_path, n_samples, loss_factor):
    # A lossless cavity's compensated column is formatted from the
    # intensity column itself.
    cavity = SimpleNamespace(
        n_pulses=3,
        roundtrip_energy_factor=loss_factor,
        grid=SimpleNamespace(coordinates=np.linspace(-1e-3, 1e-3, n_samples),
                             n_samples=n_samples),
    )
    profiles = edge_table(3, n_samples, seed=n_samples)
    expected = savetxt_bytes(tmp_path / "expected.csv", PROFILE_HEADER,
                             column_stacked_profiles(cavity, profiles))
    assert streamed_profiles_bytes(tmp_path / "got.csv", cavity, profiles) == expected


def test_preformatted_columns_match_savetxt_at_their_own_widths(tmp_path):
    # Pre-formatted columns of 1-byte and 16-byte texts, a broadcast one
    # among them, laid beside formatted ones across a block edge; the
    # array passed twice is formatted once.
    n_rows = 4097
    longest = np.resize([-1.23456789e-308, np.nan, -0.0, 1.5], n_rows)
    live = edge_table(n_rows, 1, seed=7)[:, 0]
    half = live * 0.5
    table = runner._TableWriter(n_rows, 2)
    zeros, wide = table.format(np.zeros(n_rows)), table.format(longest)
    one = np.broadcast_to(table.format([0.0]), (n_rows,))
    assert (zeros.dtype.itemsize, wide.dtype.itemsize, one.dtype.itemsize) == (1, 16, 1)
    with open(tmp_path / "got.csv", "wb") as fh:
        fh.write(b"a,b,c,d,e,f\n")
        table.write(fh, [zeros, live, wide, one, half, live])
    expected = savetxt_bytes(tmp_path / "expected.csv", "a,b,c,d,e,f", np.column_stack(
        [np.zeros(n_rows), live, longest, np.zeros(n_rows), half, live]))
    assert (tmp_path / "got.csv").read_bytes() == expected


def test_profile_blocks_match_savetxt_on_a_search_trace(tmp_path):
    config = paper_cavity(42.0, n_pulses=4, grid=Grid1D(4096, 2e-6))
    _, (profiles,) = recorded([config])
    expected = savetxt_bytes(tmp_path / "expected.csv", PROFILE_HEADER,
                             column_stacked_profiles(config, profiles))
    assert streamed_profiles_bytes(tmp_path / "got.csv", config, profiles) == expected


def test_powers_of_ten_are_correctly_rounded():
    # Python's int-to-float conversion and int true division both round
    # correctly, so these are the nearest doubles to 10**k.
    exact = [float(10**k) if k >= 0 else 1 / 10**-k for k in _EXPONENTS.tolist()]
    assert _POW10.tolist() == exact


def test_cells_are_the_percent_format(rng):
    values = rng.standard_normal((64, 3)) * 10.0 ** rng.integers(-320, 300, (64, 3))
    values.flat[:len(EDGE_VALUES)] = EDGE_VALUES
    # A full chunk, then a short last one.
    cells = format_cells(values, chunk=133)
    got = [bytes(cell).rstrip(b"\0").decode() for cell in cells.reshape(-1, 16)]
    assert got == ["%.9g" % value for value in values.ravel().tolist()]


@pytest.mark.parametrize("kept", range(1, 10))
def test_every_template_key_is_the_percent_format(kept):
    # Every exponent and sign at this count of kept digits, with the
    # templates' own sample digits and with others, zeros among them.
    significands = ["123456789"[:kept], "987654321"[:kept], "100000000"[:kept - 1] + "1"]
    values = np.array([float(f"{sign}{digits[0]}.{digits[1:]}e{exponent}")
                       for exponent in _EXPONENTS.tolist()
                       for digits in significands
                       for sign in ("", "-")])
    cells = format_cells(values, chunk=values.size)
    got = [bytes(cell).rstrip(b"\0").decode() for cell in cells]
    assert got == ["%.9g" % value for value in values.tolist()]


def test_writing_special_values_raises_no_warning(tmp_path):
    # The array steps must keep these values quiet.
    column = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -1e-310, 1.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _write_table(tmp_path / "special.csv", "v,w", [column, column[::-1]])
    assert (tmp_path / "special.csv").read_text().splitlines()[1:4] == [
        "nan,1", "inf,-1e-310", "-inf,4.94065646e-324"]


def small_run_config(mode):
    return build_config({"preset": "paper-42um", "mode": mode, "grid_samples": 4096})


def test_analyze_mode_writes_search_modes_peaks(tmp_path):
    for mode in ("search", "analyze"):
        runner.run(small_run_config(mode), tmp_path / mode)
    peaks = [(tmp_path / mode / "peaks.csv").read_bytes() for mode in ("search", "analyze")]
    assert peaks[0] == peaks[1]
    assert not (tmp_path / "analyze" / "profiles.csv").exists()


def test_no_run_mode_keeps_profiles(tmp_path, monkeypatch):
    # Search mode hands its pulses to the profile writer as the loop runs.
    calls = []

    def keep(config, **kwargs):
        calls.append((kwargs, run_search(config, **kwargs)))
        return calls[-1][1]

    monkeypatch.setattr(runner, "run_search", keep)
    runner.run(small_run_config("search"), tmp_path / "search")
    runner.run(small_run_config("analyze"), tmp_path / "analyze")
    (search, search_trace), (analyze, analyze_trace) = calls
    assert callable(search["on_pulse"]) and analyze["on_pulse"] is None
    assert len((tmp_path / "search" / "profiles.csv").read_bytes().splitlines()) == 1 + 12 * 4096


@pytest.mark.parametrize("preset, live", [("ideal", 1), ("paper-42um", 2)])
def test_lossless_search_formats_one_live_profile_column(tmp_path, monkeypatch, preset, live):
    # In a lossless cavity every compensation factor is 1.0, so the
    # compensated column is the intensity column, formatted once.
    formatted = []
    call = runner._CellFormatter.__call__

    def count(formatter, values, out):
        formatted.append(values.size)
        call(formatter, values, out)

    monkeypatch.setattr(runner._CellFormatter, "__call__", count)
    cfg = build_config({"preset": preset, "grid_samples": 4096})
    runner.run(cfg, tmp_path)
    pulses, n = cfg.n_pulses, 4096
    # The profiles' live columns, their counts and coordinates, then peaks.csv.
    assert sum(formatted) == live * pulses * n + pulses + n + 3 * pulses


# What the profiles.csv writer may add to the tracemalloc peak of a
# default-grid paper-42um run: the search run against the analyze run,
# which runs the same pulse loop and writes no profiles.  Its buffers
# for one 4096-row block, the pulses pending at the hand-off and the
# count and coordinate cells measure 1,972,501 to 2,104,197 bytes (numpy
# 2.4.6); a formatter that made a temporary per step, with an index as
# long as its chunk, took 3,514,262.
WRITER_BUDGET = 2.5 * 1024 * 1024


def test_profile_writer_memory_stays_within_its_budget(tmp_path):
    peaks = {}
    for mode in ("search", "analyze"):
        cfg = build_config({"preset": "paper-42um", "mode": mode})
        runner.run(cfg, tmp_path / f"{mode}-warm-up")  # fills numpy's FFT plan cache
        tracemalloc.start()
        try:
            runner.run(cfg, tmp_path / mode)
            peaks[mode] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks["search"] - peaks["analyze"] < WRITER_BUDGET


def test_search_memory_does_not_grow_with_the_pulse_count(tmp_path):
    # A (P, n) profile array would add 32 KiB a pulse at 4096 samples:
    # 1.5 MiB for the 48 more pulses.  An untraced first run fills
    # numpy's FFT plan cache.
    runner.run(small_run_config("search"), tmp_path / "warm-up")
    peaks = {}
    for n_pulses in (12, 60):
        cfg = build_config({"preset": "paper-42um", "grid_samples": 4096,
                            "n_pulses": n_pulses})
        tracemalloc.start()
        try:
            runner.run(cfg, tmp_path / str(n_pulses))
            peaks[n_pulses] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert abs(peaks[60] - peaks[12]) < 64 * 1024


def sweep_cavities(grid_samples, flat_widths, **overrides):
    return [
        build_config({"preset": "paper-42um", "grid_samples": grid_samples,
                      "oracle": {"flat_width_um": flat_um}, **overrides}).to_cavity_config()
        for flat_um in flat_widths
    ]


@pytest.mark.parametrize("grid_samples, rows", [(4096, 8), (16384, 2), (65536, 1)])
def test_batch_chunks_hold_half_a_mebibyte_of_rows(grid_samples, rows):
    cavities = sweep_cavities(grid_samples, [42.0, 84.0, 126.0] * 3)
    chunks = _batch_chunks(cavities)
    assert [len(chunk) for chunk in chunks[:-1]] == [rows] * (len(chunks) - 1)
    assert [i for chunk in chunks for i in chunk] == list(range(9))


def test_batch_chunks_split_incompatible_points():
    cavities = []
    for flat_um in (42.0, 84.0, 126.0):
        for n_pulses in (6, 8):
            cavities += sweep_cavities(4096, [flat_um], n_pulses=n_pulses)
    assert _batch_chunks(cavities) == [[0, 2, 4], [1, 3, 5]]


def test_batch_chunks_join_points_that_share_the_grid_and_pulse_count():
    cavities = sweep_cavities(4096, [42.0], roundtrip_energy_factor=1.0)
    for overrides in ({"iaa": {"phase_rad": -0.5}}, {"output_mirror_transmission": 0.5},
                      {"wavelength_nm": 633.0}, {"focal_length_1_mm": 300.0}):
        cavities += sweep_cavities(4096, [84.0], **overrides)
    assert _batch_chunks(cavities) == [[0, 1, 2, 3, 4]]


def test_pulse_train_sweep_averages_the_defined_ratios():
    assert runner._sweep_scalars(
        "pulse-train", {"consecutive_energy_ratios": [None, 0.5, 0.7]}
    ) == [pytest.approx(0.6)]
    nan, = runner._sweep_scalars("pulse-train", {"consecutive_energy_ratios": [None]})
    assert np.isnan(nan)


def test_summary_refuses_nan(tmp_path):
    with pytest.raises(ValueError):
        runner._write_summary(tmp_path / "summary.json", {"ratio": float("nan")})
