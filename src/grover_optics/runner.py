"""Run modes and deterministic file output.

Every mode writes a ``summary.json`` plus mode-specific CSV tables into
an output directory.  Numeric results are rendered with 9 significant
digits and rows in a fixed order, so identical configs produce
byte-identical files.  The config echo inside the summary is written
verbatim (not rounded) so it re-parses to an equivalent config.

All five tables (``profiles``, ``peaks``, ``train``, ``reference`` and
``sweep``) go through one writer, ``_TableWriter``.  Each cell is the
text of ``'%.9g' % value``, byte for byte what ``np.savetxt(fmt="%.9g")``
writes, but spelled by array operations (``_CellFormatter``): values are
scaled to a 9-digit integer with a table of correctly rounded powers of
ten, and the text is assembled from lookup tables.  Every value that
step cannot prove exact -- nan, +-inf, +-0, magnitudes beyond about
1e+-300, and values whose scaled digits lie within 1e-6 of a rounding
tie or round up to a tenth digit -- is formatted by ``'%.9g' % value``
itself.  The writer formats each distinct column once per block of rows
and lays every column at its own width: 16 bytes for a column it
formats, the longest text for one spelled ahead, such as a profile's
coordinates.

Search mode writes ``profiles.csv`` while the pulse loop runs: the loop
hands each pulse's intensities to one writer thread, which adds that
pulse's rows to the file, so no run keeps its ``(P, n)`` profiles.  The
file is written under a temporary name and moved into place once the
run has succeeded (see ``_while_writing_profiles``).
"""

import itertools
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack, suppress
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import analysis, reference
from ._version import __version__
from .cavity import _batch_key, _pulse_counts, _run_batch, run_search
from .cavity import pulse_train  # noqa: F401  (unused here; perfbench/spans.py patches it)
from .config import ExperimentConfig, build_config
from .errors import ConfigurationError, MeasurementError

__all__ = ["run", "sweep"]


def _round9(value: float) -> float:
    return float(f"{float(value):.9g}")


# Every CSV cell is the text ``'%.9g' % value``, the format
# ``np.savetxt(fmt="%.9g")`` writes.  ``_CellFormatter`` produces those
# bytes with array operations instead of one ``%`` per value:
#
# 1. Scale.  A normal |v| lies in [2**(k-1023), 2**(k-1022)) for the
#    biased exponent k in its bits, so its decimal exponent is
#    E = floor((k-1023) log10 2) or E + 1; ``_DECIMAL`` holds E, clipped
#    to [-300, 300], by the top 12 bits (sign and k).  Then
#    m = |v| * 10**(8 - e), with the power taken from ``_POW10``, a table
#    of correctly rounded powers of ten, and if m >= 1e9, e moves up by
#    one and m is recomputed.  k only ever proposes e, and the range
#    check on m in step 2 decides it.
# 2. Round.  m carries two roundings, each at most u = 2**-53 relative
#    (the table entry and the product), so |m - |v| * 10**(8 - e)| <=
#    (1e9 + 1) * (2u + u**2) < 2.3e-7.  Rounding to the nearest integer
#    is constant between consecutive half-integers, so whenever m lies
#    farther than that bound from every half-integer, rint(m) is the
#    correctly rounded 9-digit significand D that '%.9g' prints.  A cell
#    is decided here when 1e8 <= m < 999999999.5, so D has nine digits,
#    and m lies at least ``_TIE_MARGIN`` = 1e-6 (over 4x the bound) from
#    every half-integer.  Where the exact product lies just below 1e8
#    and m does not, both round to D = 1e8, so the exponent holds too.
# 3. Spell.  D's digits come from a table of 4-digit strings, its
#    trailing zeros from a table of their counts.  The exponent, the
#    number of digits kept and the sign select a template that places
#    the sign, a leading '0.' and zeros, the digits, the point and the
#    'e+XX' suffix left-aligned in a 16-byte cell padded with NULs.
#
# Cells step 2 cannot decide (nan, +-inf, +-0, |v| beyond about 1e+-300,
# near-ties and significands that round up to 1e9) are formatted by
# ``'%.9g' % v`` itself.  Every table lookup that a value step 2 will
# reject can reach is clipped into range, so no step raises.
_CELL_BYTES = 16  # longest '%.9g' text: '-1.23456789e-308'
_TIE_MARGIN = 1e-6
_EXP_MIN, _EXP_MAX = -308, 308  # range of the exponent-indexed tables
_EXPONENTS = np.arange(_EXP_MIN, _EXP_MAX + 1)

# 10**k for k in [-308, 308]; float() of decimal text rounds correctly
# (tests/test_runner.py checks every entry).  Exponent-indexed tables
# are read at i = e - _EXP_MIN; ``_SCALE[i]`` is 10**(8 - e), for the
# e in [-300, 301] that step 1 can reach.
_POW10 = np.array([float(f"1e{k}") for k in _EXPONENTS.tolist()])
_SCALE = _POW10[np.minimum(8 - _EXPONENTS - _EXP_MIN, _POW10.size - 1)]

# E - _EXP_MIN by the top 12 bits of a float64, the sign bit and the
# biased exponent k; zeros and subnormals (k = 0) take k = 1's entry.
_DECIMAL = np.tile([
    min(max(math.floor((max(k, 1) - 1023) * math.log10(2)), -300), 300) - _EXP_MIN
    for k in range(2048)
], 2)

# The digits of 0..9999 are the index tuples of a (10, 10, 10, 10) array.
_FOUR_DIGITS = np.indices((10, 10, 10, 10), dtype=np.uint8).reshape(4, -1).T
_DIGITS4 = np.ascontiguousarray(_FOUR_DIGITS + 48).view("<u4")[:, 0]
_TRAILING_ZEROS4 = np.logical_and.accumulate(_FOUR_DIGITS[:, ::-1] == 0, axis=1).sum(
    axis=1, dtype=np.intp)

# Per-cell source bytes, five uint32 words, that templates copy from:
#   0 NUL  1 '-'  2 '0'  3 '.' | 4 'e'  5 d1  6-7 NUL | 8 exponent sign,
#   9-11 exponent digits | 12-15 d2..d5 | 16-19 d6..d9
_SOURCE_WORDS = 5
_SOURCE_BYTES = "\0-0.e1\0\0+@@@23456789"  # those bytes for digits 123456789
_CONST_WORD = np.array(b"\0-0.", dtype="S4").view("<u4")
_FIRST_WORD = ord("e") | (48 + np.arange(10, dtype=np.uint32)) << 8
_EXPONENT_WORD = np.array([f"{k:+04d}" for k in _EXPONENTS.tolist()], "S4").view("<u4")

# Layouts: 0..12 fixed notation with exponent -4..8, 13 scientific
# with a 2-digit exponent, 14 with a 3-digit one.  A template key is
# (layout, digits kept 1..9, negative) -> layout * 18 + (kept - 1) * 2 + neg.
# With kept = 9 - (trailing zeros of D), the key is ``_KEY_BASE[i]``
# plus ``_KEY_ZEROS`` of each 4-digit group that holds them, plus neg.
_KEY_BASE = 16 + 18 * np.where(
    (_EXPONENTS >= -4) & (_EXPONENTS <= 8), _EXPONENTS + 4,
    np.where(np.abs(_EXPONENTS) < 100, 13, 14))
_KEY_ZEROS = -2 * _TRAILING_ZEROS4


def _templates() -> np.ndarray:
    """Source byte index for each (key, cell byte); 0 (NUL) pads the cell.

    A key's row is read off ``'%.9g'`` of a sample value of its layout
    (exponent -4..8, 10 or 100), sign and kept digits of 1.23456789."""
    templates = np.zeros((15 * 18, _CELL_BYTES), dtype=np.int32)
    keys = itertools.product([*range(-4, 9), 10, 100], range(1, 10), ("", "-"))
    for row, (exponent, kept, sign) in zip(templates, keys):
        text = "%.9g" % float(f"{sign}1.{'23456789'[:kept - 1]}e{exponent}")
        mantissa, _, power = text.partition("e")
        sources = [_SOURCE_BYTES.index(char) for char in mantissa]
        if power:  # 'e', the exponent's sign and its last len(power) - 1 digits
            sources += [4, 8, *range(13 - len(power), 12)]
        row[:len(sources)] = sources
    return templates


_TEMPLATES = _templates()


class _CellFormatter:
    """Writes ``'%.9g' % v`` of float64 values as NUL-padded uint8 cells.

    Values are formatted ``chunk`` at a time into buffers that every
    chunk reuses, so a call allocates nothing that grows with its
    values: one formatter serves every block of a table.  The source
    words are stored word by word, ``source[w, cell]``, so each
    table lookup writes its word in place; ``templates`` are
    ``_TEMPLATES`` moved to that layout.  Every index is an intp, which
    ``np.take`` reads without a converted copy.  The cells are gathered
    ``_SPAN`` at a time, through a byte index of that many cells.
    """

    def __init__(self, chunk: int) -> None:
        self.chunk = chunk
        self.source = np.empty((_SOURCE_WORDS, chunk), dtype=np.uint32)
        self.source[0] = _CONST_WORD
        self.source_bytes = self.source.reshape(-1).view(np.uint8)
        self.templates = (_TEMPLATES // 4 * (4 * chunk) + _TEMPLATES % 4).astype(np.intp)
        self.index = np.empty((min(chunk, _SPAN), _CELL_BYTES), dtype=np.intp)
        self.floats = np.empty((3, chunk))
        self.ints = np.empty((3, chunk), dtype=np.intp)
        self.flags = np.empty((2, chunk), dtype=bool)

    def __call__(self, values: np.ndarray, out: np.ndarray) -> None:
        """Fill ``out``, C-contiguous ``values.shape + (16,)``, with the
        text of each value, left-aligned."""
        flat, cells = values.reshape(-1), out.reshape(-1, _CELL_BYTES)
        for start in range(0, flat.size, self.chunk):
            stop = start + self.chunk
            self._format(flat[start:stop], cells[start:stop])

    def _format(self, v: np.ndarray, cells: np.ndarray) -> None:
        # Each step writes into a buffer of its own (out=), and no step
        # mixes dtypes, which would make numpy allocate a cast buffer.
        n = v.size
        a, m, d = self.floats[:, :n]
        i, key, look = self.ints[:, :n]
        # Each buffer below is free by the time it is first written: a, m
        # and d after the float steps, key and look after the digits.
        first, high, low = self.floats.view(np.intp)[:, :n]
        digits, rest = key, look
        exact, flag = self.flags[:, :n]
        # errstate keeps a table write silent on nan, inf and 0: it must
        # never print a numpy warning.
        with np.errstate(all="ignore"):
            np.right_shift(v.view(np.uint64), 52, out=look.view(np.uint64))
            np.take(_DECIMAL, look, out=i, mode="clip")
            np.abs(v, out=a)
            np.take(_SCALE, i, out=m, mode="clip")
            np.multiply(a, m, out=m)
            np.greater_equal(m, 1e9, out=flag)
            np.add(i, 1, out=i, where=flag)
            np.take(_SCALE, i, out=m, mode="clip")
            np.multiply(a, m, out=m)
            np.rint(m, out=d)
            np.subtract(m, d, out=a)
            np.abs(a, out=a)
            np.less_equal(a, 0.5 - _TIE_MARGIN, out=exact)
            np.greater_equal(m, 1e8, out=flag)
            np.logical_and(exact, flag, out=exact)
            np.less(m, 999_999_999.5, out=flag)
            np.logical_and(exact, flag, out=exact)
            # A decided cell's D lies in [1e8, 999999999].  A rejected
            # cell's cast is arbitrary, but its rest, high and low still
            # lie in range: the subtractions are exact mod 2**64.
            np.copyto(digits, d, casting="unsafe")
        np.floor_divide(digits, 100_000_000, out=first)
        np.multiply(first, 100_000_000, out=rest)
        np.subtract(digits, rest, out=rest)
        np.floor_divide(rest, 10000, out=high)
        np.multiply(high, 10000, out=low)
        np.subtract(rest, low, out=low)
        # key = _KEY_BASE[i] + _KEY_ZEROS[low] + (low == 0) * _KEY_ZEROS[high]
        #       + signbit(v)
        np.take(_KEY_BASE, i, out=key, mode="clip")
        np.take(_KEY_ZEROS, low, out=look, mode="clip")
        np.add(key, look, out=key)
        np.take(_KEY_ZEROS, high, out=look, mode="clip")
        np.equal(low, 0, out=flag)
        np.add(key, look, out=key, where=flag)
        np.signbit(v, out=flag)
        np.add(key, 1, out=key, where=flag)

        source = self.source
        np.take(_FIRST_WORD, first, out=source[1, :n], mode="clip")
        np.take(_EXPONENT_WORD, i, out=source[2, :n], mode="clip")
        np.take(_DIGITS4, high, out=source[3, :n], mode="clip")
        np.take(_DIGITS4, low, out=source[4, :n], mode="clip")
        # mode="clip" keeps the indices of cells step 2 rejects in range,
        # and lets take skip its check and write into ``out`` directly.
        # Cell c's source words lie 4 * c bytes into ``source_bytes``, so a
        # span of cells from ``start`` reads from 4 * start on.
        for start in range(0, n, len(self.index)):
            stop = min(start + len(self.index), n)
            index = self.index[:stop - start]
            np.take(self.templates, key[start:stop], axis=0, out=index, mode="clip")
            np.add(index, _OFFSETS[:stop - start], out=index)
            np.take(self.source_bytes[4 * start:], index, out=cells[start:stop], mode="clip")
        np.logical_not(exact, out=flag)
        fallback = np.flatnonzero(flag)
        if fallback.size:
            text = ["%.9g" % value for value in v[fallback].tolist()]
            cells[fallback] = np.array(text, "S16").view(np.uint8).reshape(-1, _CELL_BYTES)


# Rows per written block.  A profiles.csv block row is 49 bytes (two
# formatted 16-byte cells, the count and coordinate texts at their own
# widths, 4 separators): about 200 KB a block.
_BLOCK_ROWS = 4096

# Cells per gather through the formatter's byte index, which holds 128
# bytes a cell: a span bounds it at 256 KiB whatever the formatter's
# chunk.  The formatter's other buffers hold 70 bytes a value.
_SPAN = 2048

# Byte offsets of a span's cells in the source words, 4 bytes a cell,
# read-only and shared by every formatter.  Full size: a broadcast
# (span, 1) operand adds 3x slower.
_OFFSETS = np.repeat(4 * np.arange(_SPAN, dtype=np.intp), _CELL_BYTES).reshape(
    _SPAN, _CELL_BYTES)


def _rows(array: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Rows ``start:stop`` of a column part, or its one row, repeated."""
    return array[start:stop] if len(array) > 1 else array


class _TableWriter:
    """Writes CSV rows of float64 columns at 9 significant digits.

    Each cell is the text of ``'%.9g' % value``.  The writer writes a
    group of ``rows`` rows per ``write`` call, a block of rows at a time
    through one formatter call.  A column is a float64 array, formatted
    in that call, or cells that ``format`` spelled ahead for a column
    that every group repeats.  A block row lays each column's cell at
    that column's width, NUL-padded and followed by its separator, and
    is compacted with ``bytes.translate``: 16 bytes for a formatted
    column, the longest text for a spelled one.  Cells are copied as
    single ``V<width>`` items.  The buffers are reused by every block
    and every call.
    """

    def __init__(self, rows: int, live: int) -> None:
        """``rows`` per group, at most ``live`` distinct columns
        formatted on each call."""
        self.rows = rows
        self.block_rows = min(rows, _BLOCK_ROWS)
        self.values = np.empty(self.block_rows * live)
        self.cells = np.empty((self.block_rows * live, _CELL_BYTES), dtype=np.uint8)
        self.formatter = _CellFormatter(max(self.values.size, 1))
        self.widths = None

    def format(self, values) -> np.ndarray:
        """The cells of ``values``, for a column repeated across groups:
        one ``V<width>`` item per value, as wide as the longest text."""
        values = np.asarray(values, dtype=np.float64)
        cells = np.empty(values.shape + (_CELL_BYTES,), dtype=np.uint8)
        self.formatter(values, cells)
        width = int(np.count_nonzero(cells, axis=-1).max(initial=1))
        return np.ascontiguousarray(cells[..., :width]).view(f"V{width}")[..., 0]

    def _lay_out(self, widths: tuple) -> None:
        """Build the block for columns of ``widths`` bytes, and one
        ``V<width>`` view of each column's cells."""
        ends = np.cumsum(widths) + np.arange(1, len(widths) + 1)
        block = np.zeros((self.block_rows, int(ends[-1])), dtype=np.uint8)
        block[:, ends - 1] = ord(",")
        block[:, -1] = ord("\n")
        self.block, self.widths = block, widths
        self.slots = [block[:, end - 1 - width:end - 1].view(f"V{width}")[:, 0]
                      for end, width in zip(ends.tolist(), widths)]

    def write(self, fh, columns: list) -> None:
        """Write one group of rows to ``fh``.

        A column is either the cells of ``format`` or a float64 array,
        formatted a block at a time; an array passed as two columns is
        formatted once.  Each holds ``rows`` entries, or one that every
        row repeats.
        """
        distinct: dict[int, tuple] = {}  # id(array) -> (slot, array)
        slots = [distinct.setdefault(id(column), (len(distinct), column))[0]
                 if column.dtype == np.float64 else None for column in columns]
        widths = tuple(column.dtype.itemsize if slot is None else _CELL_BYTES
                       for column, slot in zip(columns, slots))
        if widths != self.widths:
            self._lay_out(widths)
        k = len(distinct)
        for start in range(0, self.rows, _BLOCK_ROWS):
            stop = min(start + _BLOCK_ROWS, self.rows)
            n = stop - start
            values, cells = self.values[:n * k].reshape(n, k), self.cells[:n * k]
            for slot, array in distinct.values():
                values[:, slot] = _rows(array, start, stop)
            self.formatter(values, cells)
            formatted = cells.view(f"V{_CELL_BYTES}").reshape(n, k)
            for out, column, slot in zip(self.slots, columns, slots):
                out[:n] = (_rows(column, start, stop) if slot is None
                           else formatted[:, slot])
            fh.write(self.block[:n].tobytes().translate(None, b"\0"))


def _write_table(path: Path, header: str, columns) -> None:
    """Write a CSV table of float columns at 9 significant digits.

    The bytes equal ``np.savetxt(path, table, fmt="%.9g", delimiter=",",
    comments="", header=header)`` of the same rows, including its
    ``nan``/``inf``/``-0`` spellings.  The columns are sequences of one
    length; ``None`` is nan.
    """
    columns = [np.asarray(column, dtype=np.float64) for column in columns]
    table = _TableWriter(len(columns[0]), len(columns))
    with open(path, "wb") as fh:
        fh.write(header.encode("utf-8") + b"\n")
        table.write(fh, columns)


_PROFILES_HEADER = b"iteration_count,x_m,intensity,compensated_intensity\n"


def _write_summary(path: Path, summary: dict) -> None:
    """Write ``summary`` as strict JSON: a nan or inf raises ValueError
    rather than becoming a bare ``NaN`` or ``Infinity`` token."""
    path.write_text(json.dumps(summary, indent=2, sort_keys=True, allow_nan=False)
                    + "\n", encoding="utf-8")


def _formula_or_null(name: str, warnings: list[str], formula, *args) -> float | None:
    """``formula(*args)`` at 9 digits, or None with an entry in
    ``warnings`` when the arguments lie outside the formula's domain."""
    try:
        return _round9(formula(*args))
    except ConfigurationError as err:
        warnings.append(f"{name} unavailable: {err}")
        return None


def _write_run_summary(cfg: ExperimentConfig, out_dir: Path, results: dict,
                       warnings: list[str]) -> dict:
    """Write a run's ``summary.json``, its ``results`` with the artifact
    version, the mode, the config echo and, if there are any, the
    ``warnings``; return the summary."""
    summary = {"artifact_version": __version__, "mode": cfg.mode, **results,
               "config": asdict(cfg)}
    if warnings:
        summary["warnings"] = warnings
    _write_summary(out_dir / "summary.json", summary)
    return summary


def _write_search_outputs(cfg: ExperimentConfig, trace, out_dir: Path) -> dict:
    """Write a search or analyze run's files for ``trace`` but
    ``profiles.csv`` (see ``_while_writing_profiles``); return its summary."""
    peaks = analysis.PeakTrace.from_search_trace(trace, compensated=cfg.compensate_loss)
    _write_table(
        out_dir / "peaks.csv",
        "iteration_count,peak_position_m,peak_value",
        [peaks.iteration_counts, peaks.peak_positions, peaks.peak_values],
    )
    warnings: list[str] = []
    flagged = np.flatnonzero(trace.peak_at_edge)
    if flagged.size:
        warnings.append(
            f"peak on grid edge for pulse rows {flagged.tolist()}; "
            "profile may be clipped"
        )
    try:
        k_star = analysis.first_maximum(peaks)
    except MeasurementError as err:
        k_star = None
        warnings.append(f"first_maximum unavailable: {err}")

    fwhm_m = cfg.input_fwhm_mm * 1e-3
    flat_m = cfg.oracle.flat_width_um * 1e-6
    resolution_m = analysis.rayleigh_resolution(
        cfg.wavelength_nm * 1e-9, cfg.numerical_aperture
    )
    return _write_run_summary(cfg, out_dir, {
        "first_maximum": None if k_star is None else _round9(k_star),
        "estimate_nm": (
            None
            if k_star is None
            else _formula_or_null("estimate_nm", warnings, analysis.estimate_nm,
                                  k_star, abs(cfg.oracle.phase_rad))
        ),
        "expected_nm": _round9(analysis.expected_nm(fwhm_m, flat_m)),
        "rayleigh_resolution_m": _round9(resolution_m),
        "max_database_size": _round9(
            analysis.max_database_size(fwhm_m, resolution_m, 1)
        ),
        "equivalent_qubits": _round9(
            analysis.equivalent_qubits(fwhm_m, resolution_m, 1)
        ),
    }, warnings)


def _write_train_outputs(cfg: ExperimentConfig, trace, out_dir: Path) -> dict:
    """Write a pulse-train run's files for ``trace``; return its summary."""
    energies = trace.slit_energies.tolist()
    _write_table(
        out_dir / "train.csv",
        "iteration_count,slit_energy",
        [trace.iteration_counts, trace.slit_energies],
    )
    # A ratio after a zero slit energy is undefined: null in the summary.
    ratios = [
        _round9(energies[i + 1] / energies[i]) if energies[i] > 0 else None
        for i in range(len(energies) - 1)
    ]
    # On the beam a slit collects about 1e-1 of a pulse; off it, light
    # scattered by the plates' ramps, 1e-4 and less.
    off_beam = np.flatnonzero(trace.slit_energies < 1e-3 * trace.total_energies)
    warnings = [
        "slit collects under 1e-3 of the pulse energy for pulse rows "
        f"{off_beam.tolist()}; it may be off the beam"
    ] if off_beam.size else []
    return _write_run_summary(cfg, out_dir, {
        "slit_energies": [_round9(e) for e in energies],
        "consecutive_energy_ratios": ratios,
    }, warnings)


def _run_reference_mode(cfg: ExperimentConfig, out_dir: Path) -> dict:
    ref = cfg.reference
    state = reference.GroverReducedState.uniform(ref.n_items, ref.n_marked)
    iterations = range(ref.n_iterations + 1)
    probabilities, ideal = [], []
    for k in iterations:
        probabilities.append(state.success_probability)
        ideal.append(reference.success_probability(k, ref.n_items, ref.n_marked))
        state = reference.reduced_iterate(
            state, ref.oracle_phase_rad, ref.diffusion_phase_rad
        )
    _write_table(
        out_dir / "reference.csv",
        "iteration,success_probability,ideal_closed_form",
        [iterations, probabilities, ideal],
    )
    best = int(np.argmax(probabilities))
    warnings: list[str] = []
    return _write_run_summary(cfg, out_dir, {
        "max_success_probability": _round9(probabilities[best]),
        "argmax_iteration": best,
        "optimal_iterations": _formula_or_null(
            "optimal_iterations", warnings, reference.optimal_iterations,
            ref.n_items, ref.n_marked, abs(ref.oracle_phase_rad) / 2.0,
        ),
        "oscillation_period": _round9(
            reference.oscillation_period(ref.n_items, ref.n_marked)
        ),
    }, warnings)


# Pulses the loop may run ahead of the profile writer.
_HANDOFF_ROWS = 2


def _while_writing_profiles(kernel, cavities: list, paths: list[Path]) -> list:
    """``kernel(on_pulse)``, the pulse loop over ``cavities``, on this
    thread, while one writer thread writes their ``profiles.csv`` files
    to ``paths``; returns the loop's traces.

    Each file holds, per pulse, one group of rows: the pulse's iteration
    count, the grid coordinates, the intensity, and the intensity times
    its cavity's compensation factor.  The writer's set-up is its first
    task, and each pulse is one more, which writes that pulse's rows to
    every file.  The loop copies each pulse's ``(B, n)`` intensities into
    one of ``_HANDOFF_ROWS`` buffers, and once that many pulses are
    pending it first waits for the oldest, whose buffer it refills.  A
    writer error is raised at the loop's next wait, so it stops the loop
    within ``_HANDOFF_ROWS`` pulses; a loop error, or an interrupt,
    cancels the pulses the writer has not begun.  Either way the
    writer thread has ended when this returns.  The files are written
    under temporary sibling names and moved onto ``paths`` only once the
    loop and the writer have both succeeded; on any error the
    temporaries are removed, so a failed run leaves no ``profiles.csv``.
    """
    temporaries = [path.with_name(path.name + ".tmp") for path in paths]
    buffers = [np.empty((len(cavities), cavities[0].grid.n_samples))
               for _ in range(_HANDOFF_ROWS)]
    pending = []  # the pulses' futures, oldest first

    def set_up(files: ExitStack) -> tuple:
        counts, _ = _pulse_counts(cavities[0])
        compensations = [_pulse_counts(cavity)[1] for cavity in cavities]
        coordinates = cavities[0].grid.coordinates
        table = _TableWriter(coordinates.size, 2)
        cells = table.format(counts[:, None]), table.format(coordinates)
        handles = [files.enter_context(open(path, "wb")) for path in temporaries]
        for fh in handles:
            fh.write(_PROFILES_HEADER)
        return table, cells, compensations, np.empty(coordinates.size), handles

    def write(row: int, intensities: np.ndarray) -> None:
        table, (count_cells, coordinate_cells), compensations, scaled, handles = setup.result()
        for fh, line, compensation in zip(handles, intensities, compensations):
            # A lossless pulse's compensated column is its intensity
            # (line * 1.0 is line, bit for bit): one column to format.
            compensated = (line if compensation[row] == 1.0
                           else np.multiply(line, compensation[row], out=scaled))
            table.write(fh, [count_cells[row], coordinate_cells, line, compensated])

    def hand_off(row: int, intensities: np.ndarray) -> None:
        if len(pending) == _HANDOFF_ROWS:
            pending.pop(0).result()
        buffer = buffers[row % _HANDOFF_ROWS]
        np.copyto(buffer, intensities)
        pending.append(writer.submit(write, row, buffer))

    try:
        with ExitStack() as files, ThreadPoolExecutor(1, "profiles-writer") as writer:
            setup = writer.submit(set_up, files)
            try:
                traces = kernel(hand_off)
            except BaseException:
                writer.shutdown(cancel_futures=True)  # the pulses not yet begun
                raise
            for future in pending:
                future.result()
        for temporary, path in zip(temporaries, paths):
            os.replace(temporary, path)
    except BaseException:
        for temporary in temporaries:
            with suppress(OSError):
                temporary.unlink()
        raise
    return traces


def _run_points(points: list[ExperimentConfig], cavities: list, out_dirs: list[Path],
                kernel) -> list[dict]:
    """Run cavity points through the pulse loop and write each one's files
    into its directory; return their summaries.

    ``kernel(on_pulse)`` runs ``cavities``, which share a ``_batch_key``,
    and returns their traces: ``run_search`` for a single run,
    ``_run_batch`` for a sweep chunk.  Search mode writes ``profiles.csv``
    while the loop runs, so no trace keeps its profiles.
    """
    if points[0].mode == "search":
        traces = _while_writing_profiles(kernel, cavities,
                                         [out_dir / "profiles.csv" for out_dir in out_dirs])
    else:
        traces = kernel(None)
    write = _write_train_outputs if points[0].mode == "pulse-train" else _write_search_outputs
    return [write(point, trace, out_dir)
            for point, trace, out_dir in zip(points, traces, out_dirs)]


def run(cfg: ExperimentConfig, out_dir: str | Path) -> dict:
    """Execute one configured run; returns the summary that was written.

    Search mode writes ``profiles.csv`` while the pulse loop runs (see
    ``_while_writing_profiles``); no mode keeps the pulse profiles.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if cfg.mode == "reference":
        return _run_reference_mode(cfg, out)
    cavity = cfg.to_cavity_config()
    summary, = _run_points(
        [cfg], [cavity], [out],
        lambda on_pulse: [run_search(cavity, on_pulse=on_pulse)],
    )
    return summary


# Bytes of complex128 field rows per batched kernel call (each row's IAA
# mask adds one row as large): 2 rows at 16384 samples, 8 at 4096, 1 at
# 65536.  Larger batches ran faster per row, but their buffers raised a
# sweep's peak RSS beyond its budget.
_BATCH_BYTES = 512 * 1024


def _batch_chunks(cavities: list) -> list[list[int]]:
    """Point indices in consecutive chunks that ``_run_batch`` can take.

    Points are grouped by ``_batch_key`` (first appearance first, point
    order within a group), and each group is cut into chunks of at most
    ``_BATCH_BYTES`` of complex128 rows, at least one row each.
    """
    groups: dict[tuple, list[int]] = {}
    for index, cavity in enumerate(cavities):
        groups.setdefault(_batch_key(cavity), []).append(index)
    chunks = []
    for members in groups.values():
        rows = max(1, _BATCH_BYTES // (16 * cavities[members[0]].grid.n_samples))
        chunks += [members[i:i + rows] for i in range(0, len(members), rows)]
    return chunks


def _set_by_path(raw: dict, dotted: str, value: float) -> None:
    parts = dotted.split(".")
    node = raw
    for part in parts[:-1]:
        if not isinstance(node, dict) or part not in node:
            raise ConfigurationError(f"unknown sweep parameter {dotted!r}")
        node = node[part]
    leaf = parts[-1]
    if not isinstance(node, dict) or leaf not in node:
        raise ConfigurationError(f"unknown sweep parameter {dotted!r}")
    node[leaf] = value


_SWEEP_COLUMNS = {
    "search": ("first_maximum", "estimate_nm", "expected_nm"),
    "analyze": ("first_maximum", "estimate_nm", "expected_nm"),
    "reference": ("max_success_probability", "optimal_iterations", "oscillation_period"),
    "pulse-train": ("mean_consecutive_ratio",),
}


def _sweep_scalars(cfg_mode: str, summary: dict) -> list:
    if cfg_mode == "pulse-train":
        ratios = summary["consecutive_energy_ratios"]
        valid = [r for r in ratios if r is not None]
        return [float(np.mean(valid)) if valid else float("nan")]
    return [summary.get(col) for col in _SWEEP_COLUMNS[cfg_mode]]


def sweep(cfg: ExperimentConfig, out_dir: str | Path) -> dict:
    """Cartesian-product sweep over the configured axes.

    Each grid point becomes a run in ``point_NNN/`` under the output
    directory; the aggregate table ``sweep.csv`` is keyed by the swept
    values in deterministic (row-major product) order.  Search, analyze
    and pulse-train points run in chunks of compatible cavities, one
    ``_run_batch`` call each (see ``_batch_chunks``); reference points
    run point by point.  Up to ``cfg.workers`` threads share the chunks, and
    no output depends on how many.  With no axes configured
    this degenerates to a single ordinary run.  Every point is built
    and validated before anything is written, so a sweep with one bad
    point raises ``ConfigurationError`` and leaves ``out_dir`` untouched.
    """
    if not cfg.sweep:
        return run(cfg, out_dir)

    axes = cfg.sweep
    base = asdict(cfg)
    base["sweep"] = []
    combos = list(itertools.product(*(axis.values for axis in axes)))

    point_configs: list[ExperimentConfig] = []
    for index, combo in enumerate(combos):
        raw = json.loads(json.dumps(base))  # deep copy
        for axis, value in zip(axes, combo):
            _set_by_path(raw, axis.parameter, value)
        try:
            point_configs.append(build_config(raw))
        except ConfigurationError as err:
            raise ConfigurationError(f"sweep point {index}: {err}") from err

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    batched = cfg.mode != "reference"
    if batched:
        cavities = [point.to_cavity_config() for point in point_configs]
        chunks = _batch_chunks(cavities)
    else:
        chunks = [[index] for index in range(len(point_configs))]

    def _execute(chunk: list[int]) -> list[dict]:
        if not batched:
            return [run(point_configs[i], out / f"point_{i:03d}") for i in chunk]
        batch = [cavities[i] for i in chunk]
        point_dirs = [out / f"point_{i:03d}" for i in chunk]
        for point_dir in point_dirs:
            point_dir.mkdir(exist_ok=True)
        return _run_points([point_configs[i] for i in chunk], batch, point_dirs,
                           lambda on_pulse: _run_batch(batch, on_pulse))

    if cfg.workers > 1:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            results = list(pool.map(_execute, chunks))
    else:
        results = [_execute(chunk) for chunk in chunks]
    by_index = dict(zip(itertools.chain(*chunks), itertools.chain(*results)))
    summaries = [by_index[index] for index in range(len(combos))]

    value_columns = _SWEEP_COLUMNS[cfg.mode]
    header = ",".join(
        ["point", *(axis.parameter for axis in axes), *value_columns]
    )
    rows = [
        (index, *combo, *_sweep_scalars(cfg.mode, summary))
        for index, (combo, summary) in enumerate(zip(combos, summaries))
    ]
    _write_table(out / "sweep.csv", header, [list(column) for column in zip(*rows)])

    aggregate = {
        "artifact_version": __version__,
        "mode": cfg.mode,
        "axes": [asdict(axis) for axis in axes],
        "n_points": len(combos),
        "points": [
            {
                "point": index,
                "values": list(combo),
                "summary_dir": f"point_{index:03d}",
            }
            for index, combo in enumerate(combos)
        ],
    }
    _write_summary(out / "sweep_summary.json", aggregate)
    return aggregate
