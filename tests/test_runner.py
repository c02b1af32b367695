"""The block table writer against ``np.savetxt``, its byte-for-byte reference."""

from types import SimpleNamespace

import numpy as np
import pytest

from grover_optics.cavity import run_search
from grover_optics.fields import Grid1D
from grover_optics.runner import _column_blocks, _profile_blocks, _write_table

from conftest import paper_cavity

EDGE_VALUES = [
    np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300,
    1e-300, -1e-300, 2.0**53, -(2.0**53), 2.0**53 + 2, 0.5, -1.5, 2.5,
    11.5, 1 / 3, 123456789.5, 1.2345678949999999,
]
PROFILE_HEADER = "iteration_count,x_m,intensity,compensated_intensity"


def savetxt_bytes(path, header, table):
    np.savetxt(path, table, fmt="%.9g", delimiter=",", comments="", header=header)
    return path.read_bytes()


def writer_bytes(path, header, blocks):
    _write_table(path, header, blocks)
    return path.read_bytes()


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


@pytest.mark.parametrize("n_rows", [0, 1, 255, 256, 257, 513])
def test_column_table_matches_savetxt(tmp_path, n_rows):
    table = edge_table(n_rows, 3, seed=n_rows)
    header = "a,b,c"
    expected = savetxt_bytes(tmp_path / "expected.csv", header, table)
    got = writer_bytes(tmp_path / "got.csv", header, _column_blocks(*table.T))
    assert got == expected


def test_integer_and_missing_cells(tmp_path):
    path = tmp_path / "sweep.csv"
    _write_table(path, "point,v,s", _column_blocks(range(3), [42.0, 84.0, 1e6],
                                                   [None, 1.5, 2.0**53]))
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


@pytest.mark.parametrize("n_samples", [1, 255, 256, 257, 513])
def test_profile_blocks_match_savetxt_across_block_edges(tmp_path, n_samples):
    n_pulses = 3
    trace = SimpleNamespace(
        grid=SimpleNamespace(coordinates=np.linspace(-1e-3, 1e-3, n_samples)),
        iteration_counts=np.arange(n_pulses) + 0.5,
        profiles=edge_table(n_pulses, n_samples, seed=n_samples),
    )
    expected = savetxt_bytes(tmp_path / "expected.csv", PROFILE_HEADER,
                             column_stacked_profiles(trace, 0.75))
    got = writer_bytes(tmp_path / "got.csv", PROFILE_HEADER, _profile_blocks(trace, 0.75))
    assert got == expected


def test_profile_blocks_match_savetxt_on_a_search_trace(tmp_path):
    config = paper_cavity(42.0, n_pulses=4, grid=Grid1D(4096, 2e-6))
    trace = run_search(config)
    loss_factor = config.loss.roundtrip_energy_factor
    expected = savetxt_bytes(tmp_path / "expected.csv", PROFILE_HEADER,
                             column_stacked_profiles(trace, loss_factor))
    got = writer_bytes(tmp_path / "got.csv", PROFILE_HEADER,
                       _profile_blocks(trace, loss_factor))
    assert got == expected
