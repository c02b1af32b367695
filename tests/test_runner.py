"""The table writer and its ``%.9g`` cell formatter against
``np.savetxt``, their byte-for-byte reference; what search and analyze
runs keep and write; how a sweep's points are cut into kernel batches."""

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
    _FAST_MIN_CELLS,
    _POW10,
    _CellFormatter,
    _batch_chunks,
    _profile_columns,
    _write_table,
)

from conftest import paper_cavity

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


def column_stacked_profiles(trace, loss_factor):
    """The table ``profiles.csv`` held before it was written per pulse."""
    n = trace.grid.coordinates.size
    compensated = [
        profile * loss_factor ** (-count)
        for count, profile in zip(trace.iteration_counts, trace.profiles)
    ]
    return np.column_stack([
        np.repeat(trace.iteration_counts, n),
        np.tile(trace.grid.coordinates, trace.iteration_counts.size),
        trace.profiles.ravel(),
        np.concatenate(compensated),
    ])


@pytest.mark.parametrize("n_samples", [1, 255, 256, 257, 513, 4095, 4097])
def test_profile_blocks_match_savetxt_across_block_edges(tmp_path, n_samples):
    counts = np.arange(3) + 0.5
    trace = SimpleNamespace(
        grid=SimpleNamespace(coordinates=np.linspace(-1e-3, 1e-3, n_samples)),
        iteration_counts=counts,
        profiles=edge_table(counts.size, n_samples, seed=n_samples),
        compensation=np.array([0.75 ** (-count) for count in counts]),
    )
    expected = savetxt_bytes(tmp_path / "expected.csv", PROFILE_HEADER,
                             column_stacked_profiles(trace, 0.75))
    got = writer_bytes(tmp_path / "got.csv", PROFILE_HEADER, _profile_columns(trace))
    assert got == expected


def test_profile_blocks_match_savetxt_on_a_search_trace(tmp_path):
    config = paper_cavity(42.0, n_pulses=4, grid=Grid1D(4096, 2e-6))
    trace = run_search(config)
    loss_factor = config.loss.roundtrip_energy_factor
    expected = savetxt_bytes(tmp_path / "expected.csv", PROFILE_HEADER,
                             column_stacked_profiles(trace, loss_factor))
    got = writer_bytes(tmp_path / "got.csv", PROFILE_HEADER, _profile_columns(trace))
    assert got == expected


def test_powers_of_ten_are_correctly_rounded():
    # Python's int-to-float conversion and int true division both round
    # correctly, so these are the nearest doubles to 10**k.
    exact = [float(10**k) if k >= 0 else 1 / 10**-k for k in _EXPONENTS.tolist()]
    assert _POW10.tolist() == exact


def test_cells_are_the_percent_format(rng):
    values = rng.standard_normal((64, 3)) * 10.0 ** rng.integers(-320, 300, (64, 3))
    values.flat[:len(EDGE_VALUES)] = EDGE_VALUES
    # One chunk takes the fast path; the short last one is spelled by '%'.
    cells = format_cells(values, chunk=_FAST_MIN_CELLS + 5)
    got = [bytes(cell).rstrip(b"\0").decode() for cell in cells.reshape(-1, 16)]
    assert got == ["%.9g" % value for value in values.ravel().tolist()]


def test_writing_special_values_raises_no_warning(tmp_path):
    # Long enough for the fast path, which must keep these values quiet.
    column = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -1e-310, 1.0] * _FAST_MIN_CELLS
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


def test_only_search_mode_keeps_profiles(tmp_path, monkeypatch):
    traces = []

    def keep(config, **kwargs):
        traces.append(run_search(config, **kwargs))
        return traces[-1]

    monkeypatch.setattr(runner, "run_search", keep)
    runner.run(small_run_config("search"), tmp_path / "search")
    runner.run(small_run_config("analyze"), tmp_path / "analyze")
    assert traces[0].profiles.shape == (12, 4096)
    assert traces[1].profiles is None


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


def test_pulse_train_sweep_averages_the_defined_ratios():
    assert runner._sweep_scalars(
        "pulse-train", {"consecutive_energy_ratios": [None, 0.5, 0.7]}
    ) == [pytest.approx(0.6)]
    nan, = runner._sweep_scalars("pulse-train", {"consecutive_energy_ratios": [None]})
    assert np.isnan(nan)


def test_summary_refuses_nan(tmp_path):
    with pytest.raises(ValueError):
        runner._write_summary(tmp_path / "summary.json", {"ratio": float("nan")})
