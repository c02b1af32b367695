"""Run modes and deterministic file output.

Every mode writes a ``summary.json`` plus mode-specific CSV tables into
an output directory.  Numeric results are rendered with 9 significant
digits and rows in a fixed order, so identical configs produce
byte-identical files.  The config echo inside the summary is written
verbatim (not rounded) so it re-parses to an equivalent config.

All five tables (``profiles``, ``peaks``, ``train``, ``reference`` and
``sweep``) go through one writer, ``_write_table``.  Each cell is the
text of ``'%.9g' % value``, byte for byte what ``np.savetxt(fmt="%.9g")``
writes, but spelled by array operations (``_CellFormatter``): values are
scaled to a 9-digit integer with a table of correctly rounded powers of
ten, and the text is assembled from lookup tables.  Every value that
step cannot prove exact -- nan, +-inf, +-0, magnitudes outside
[1e-290, 1e290), and values whose scaled digits lie within 1e-6 of a
rounding tie -- is formatted by ``'%.9g' % value`` itself, and so is
every value of a table too small for the array steps to pay off.
"""

import itertools
import json
from concurrent.futures import ThreadPoolExecutor
from functools import reduce
from pathlib import Path

import numpy as np

from . import analysis, reference
from ._version import __version__
from .cavity import _batch_key, _run_batch, pulse_train, run_search
from .config import ExperimentConfig, build_config
from .errors import ConfigurationError, MeasurementError

__all__ = ["run", "sweep"]


def _round9(value: float) -> float:
    return float(f"{float(value):.9g}")


# Every CSV cell is the text ``'%.9g' % value``, the format
# ``np.savetxt(fmt="%.9g")`` writes.  ``_CellFormatter`` produces those
# bytes with array operations instead of one ``%`` per value:
#
# 1. Scale.  For |v| in [1e-290, 1e290), estimate the decimal exponent
#    e = floor(log10|v|), then m = |v| * 10**(8 - e), with the power
#    taken from ``_POW10``, a table of correctly rounded powers of ten.
#    If m lands outside [1e8, 1e9), e moves by one and m is recomputed;
#    log10 only ever proposes e, and the range check on m decides it.
# 2. Round.  m carries two roundings, each at most u = 2**-53 relative
#    (the table entry and the product), so |m - |v| * 10**(8 - e)| <=
#    (1e9 + 1) * (2u + u**2) < 2.3e-7.  Rounding to the nearest integer
#    is constant between consecutive half-integers, so whenever m lies
#    farther than that bound from every half-integer, rint(m) is the
#    correctly rounded 9-digit significand D that '%.9g' prints.  Cells
#    closer than ``_TIE_MARGIN`` = 1e-6 (over 4x the bound) to a
#    half-integer are not decided here.  D = 1e9 carries to 1e8, e + 1.
#    Where the exact product lies just outside [1e8, 1e9) and m inside,
#    both round to the same power of ten, so the exponent holds too.
# 3. Spell.  D's digits come from a table of 4-digit strings, its
#    trailing zeros from a table of their counts.  The exponent, the
#    number of digits kept and the sign select a template that places
#    the sign, a leading '0.' and zeros, the digits, the point and the
#    'e+XX' suffix left-aligned in a 16-byte cell padded with NULs.
#
# Every cell step 2 cannot decide -- nan, +-inf, +-0, |v| outside the
# range, and near-ties -- is formatted by ``'%.9g' % v`` itself, as is
# every cell of a chunk shorter than ``_FAST_MIN_CELLS``.
_CELL_BYTES = 16  # longest '%.9g' text: '-1.23456789e-308'
_TIE_MARGIN = 1e-6
_LOW, _HIGH = 1e-290, 1e290
_EXP_MIN, _EXP_MAX = -308, 308  # range of the exponent-indexed tables
_EXPONENTS = np.arange(_EXP_MIN, _EXP_MAX + 1)

# 10**k for k in [-308, 308]; the string-to-float cast, like float(),
# rounds correctly (tests/test_runner.py checks every entry).
_POW10 = np.strings.add("1e", _EXPONENTS.astype(str)).astype(np.float64)


def _ascii_words(codes: np.ndarray) -> np.ndarray:
    """Rows of 4 character codes as little-endian uint32 words."""
    return np.ascontiguousarray(codes, dtype=np.uint8).view("<u4")[:, 0]


# The digits of 0..9999 are the index tuples of a (10, 10, 10, 10) array.
_FOUR_DIGITS = np.indices((10, 10, 10, 10), dtype=np.uint8).reshape(4, -1).T
_DIGITS4 = _ascii_words(_FOUR_DIGITS + 48)
_TRAILING_ZEROS4 = np.logical_and.accumulate(_FOUR_DIGITS[:, ::-1] == 0, axis=1).sum(
    axis=1, dtype=np.uint8)

# Per-cell source bytes, one uint32 word each, that templates copy from:
#   0 NUL  1 '-'  2 '0'  3 '.' | 4 'e'  5 d1  6-7 NUL | 8 exponent sign,
#   9-11 exponent digits | 12-15 d2..d5 | 16-19 d6..d9
_SOURCE_WORDS = 5
_CONST_WORD = _ascii_words(np.frombuffer(b"\0-0.", np.uint8)[None])[0]
_exp_abs = np.abs(_EXPONENTS)
_EXPONENT_WORD = _ascii_words(np.stack([
    np.where(_EXPONENTS < 0, 45, 43),  # '-' or '+'
    48 + _exp_abs // 100, 48 + _exp_abs // 10 % 10, 48 + _exp_abs % 10,
], axis=1))

# Layouts: 0..12 fixed notation with exponent -4..8, 13 scientific
# with a 2-digit exponent, 14 with a 3-digit one.  A template key is
# (layout, digits kept 1..9, negative) -> layout * 18 + (kept - 1) * 2 + neg.
_LAYOUT_KEY = 18 * np.where(
    (_EXPONENTS >= -4) & (_EXPONENTS <= 8), _EXPONENTS + 4,
    np.where(_exp_abs < 100, 13, 14))


def _templates() -> np.ndarray:
    """Source byte index for each (key, cell byte); 0 (NUL) pads the cell.

    A key's text is the sequence sign, '0', '.', three zeros, d1, '.',
    d2, '.', ..., d8, '.', d9, 'e', exponent sign, three exponent
    digits, less the entries its layout omits.
    """
    layout = np.arange(15)[:, None, None, None]
    kept = np.arange(1, 10)[None, :, None, None]
    neg = np.arange(2)[None, None, :, None]
    fixed, sci, exponent = layout <= 12, layout > 12, layout - 4
    point_after = np.where(fixed, exponent + 1, 1)  # digits before an inner point
    k = np.arange(1, 10)
    shape = (15, 9, 2)
    body = np.empty(shape + (17,), dtype=bool)
    body[..., 0::2] = (k <= kept) | (fixed & (k <= point_after))
    body[..., 1::2] = (k[:-1] == point_after) & (k[:-1] < kept)
    lead = fixed & (exponent < 0)  # '0.' and up to three zeros
    flags = [neg == 1, lead, lead, lead & (exponent <= -1 - np.arange(1, 4)), body,
             sci, sci, sci & (layout == 14), sci, sci]
    present = np.concatenate(
        [np.broadcast_to(flag, shape + flag.shape[-1:]) for flag in flags], axis=-1
    ).reshape(-1, 28)
    sources = np.array([1, 2, 3, 2, 2, 2, 5, 3, 12, 3, 13, 3, 14, 3, 15, 3, 16, 3,
                        17, 3, 18, 3, 19, 4, 8, 9, 10, 11])
    order = np.argsort(~present, axis=1, kind="stable")[:, :_CELL_BYTES]
    index = np.where(np.take_along_axis(present, order, axis=1), sources[order], 0)
    return index.astype(np.int32)


_TEMPLATES = _templates()

# The fast path costs about 80 us a chunk in numpy call overhead and
# '%' about 0.6 us a value, so chunks shorter than this (the few-row
# tables: peaks, train, reference and most sweeps) are spelled by '%'.
_FAST_MIN_CELLS = 128


class _CellFormatter:
    """Writes ``'%.9g' % v`` of float64 values as NUL-padded uint8 cells.

    Values are formatted ``chunk`` at a time into buffers that every
    chunk reuses, so repeated calls allocate no large temporaries: one
    formatter serves every block of a table.
    """

    def __init__(self, chunk: int) -> None:
        self.chunk = chunk
        self.source = np.empty((chunk, _SOURCE_WORDS), dtype=np.uint32)
        self.index = np.empty((chunk, _CELL_BYTES), dtype=np.int32)
        self.offsets = (4 * _SOURCE_WORDS * np.arange(chunk, dtype=np.int32))[:, None]

    def __call__(self, values: np.ndarray, out: np.ndarray) -> None:
        """Fill ``out``, C-contiguous ``values.shape + (16,)``, with the
        text of each value, left-aligned."""
        flat, cells = values.reshape(-1), out.reshape(-1, _CELL_BYTES)
        for start in range(0, flat.size, self.chunk):
            stop = min(start + self.chunk, flat.size)
            if stop - start < _FAST_MIN_CELLS:
                cells[start:stop] = _percent_cells(flat[start:stop])
            else:
                self._format(flat[start:stop], cells[start:stop])

    def _format(self, v: np.ndarray, cells: np.ndarray) -> None:
        n = v.size
        a = np.abs(v)
        exact = (a >= _LOW) & (a < _HIGH)
        # Cells outside the range scale a stand-in, so every step below
        # stays finite; the fallback redoes them.  errstate keeps a table
        # write silent even so: it must never print a numpy warning.
        a = np.where(exact, a, 1.0)
        with np.errstate(all="ignore"):
            e = np.floor(np.log10(a)).astype(np.intp)
            m = a * _POW10[8 - e - _EXP_MIN]
            e += m >= 1e9
            e -= m < 1e8
            m = a * _POW10[8 - e - _EXP_MIN]
        exact &= (m >= 1e8) & (m < 1e9) & (np.abs(m - np.floor(m) - 0.5) >= _TIE_MARGIN)
        d = np.rint(m).astype(np.intp)
        carry = d == 1_000_000_000
        d[carry] = 100_000_000
        e += carry
        first = d // 100_000_000
        rest = d - first * 100_000_000
        high = rest // 10000
        low = rest - high * 10000
        kept = 9 - _TRAILING_ZEROS4[low] - (low == 0) * _TRAILING_ZEROS4[high]
        key = _LAYOUT_KEY[e - _EXP_MIN] + 2 * (kept - 1) + np.signbit(v)

        source, index = self.source[:n], self.index[:n]
        source[:, 0] = _CONST_WORD
        source[:, 1] = ord("e") | (first + 48) << 8
        source[:, 2] = _EXPONENT_WORD[e - _EXP_MIN]
        source[:, 3] = _DIGITS4[high]
        source[:, 4] = _DIGITS4[low]
        # Every index is in range; mode="clip" lets take skip its check
        # and write into ``out`` without an intermediate copy.
        np.take(_TEMPLATES, key, axis=0, out=index, mode="clip")
        index += self.offsets[:n]
        np.take(source.reshape(-1).view(np.uint8), index, out=cells, mode="clip")
        fallback = np.flatnonzero(~exact)
        if fallback.size:
            cells[fallback] = _percent_cells(v[fallback])


def _percent_cells(values: np.ndarray) -> np.ndarray:
    """``'%.9g' % v`` of each value, spelled by Python, as 16-byte cells."""
    text = ["%.9g" % value for value in values.tolist()]
    return np.array(text, dtype="S16").view(np.uint8).reshape(-1, _CELL_BYTES)


# Rows per written block.  A block of profiles.csv holds 4 cells of 17
# bytes a row, and formats 2 of them, so it stays near 1 MB.
_BLOCK_ROWS = 4096


def _part(array: np.ndarray, group: int, start: int, stop: int) -> np.ndarray:
    """Rows ``start:stop`` of ``group`` in an array whose first two axes
    broadcast to the table's ``(groups, rows)``."""
    group = group if array.shape[0] > 1 else 0
    return array[group, start:stop] if array.shape[1] > 1 else array[group, :1]


def _write_table(path: Path, header: str, columns) -> None:
    """Write a CSV table of float columns at 9 significant digits.

    The bytes equal ``np.savetxt(path, table, fmt="%.9g", delimiter=",",
    comments="", header=header)`` of the same rows, including its
    ``nan``/``inf``/``-0`` spellings.  The columns are arrays (``None`` is
    nan) that broadcast against each other to the table's shape,
    ``(rows,)`` or ``(groups, rows)``, written in C order.  A column
    smaller than that shape is formatted once and repeated as bytes; a
    column given as a tuple of arrays is their elementwise product,
    computed a block at a time.  Each block of rows is formatted by one
    formatter call, laid out in fixed 17-byte cells (text, NUL padding,
    separator) and compacted with ``bytes.translate``.
    """
    columns = [[np.atleast_2d(np.asarray(f, dtype=np.float64))
                for f in (column if isinstance(column, tuple) else (column,))]
               for column in columns]
    groups, rows = np.broadcast_shapes(*(f.shape for parts in columns for f in parts))
    block_rows = min(rows, _BLOCK_ROWS)
    live = [j for j, parts in enumerate(columns)
            if len(parts) > 1 or parts[0].size == groups * rows]
    values = np.empty((block_rows, len(live)))
    cells = np.empty((block_rows, len(live), _CELL_BYTES), dtype=np.uint8)
    formatter = _CellFormatter(max(values.size, 1))
    repeated = {}
    for j, parts in enumerate(columns):
        if j not in live:
            repeated[j] = np.empty(parts[0].shape + (_CELL_BYTES,), dtype=np.uint8)
            formatter(parts[0], repeated[j])

    block = np.empty((block_rows, len(columns), _CELL_BYTES + 1), dtype=np.uint8)
    block[..., -1] = ord(",")
    block[:, -1, -1] = ord("\n")
    with open(path, "wb") as fh:
        fh.write(header.encode("utf-8") + b"\n")
        for group in range(groups):
            for start in range(0, rows, _BLOCK_ROWS):
                stop = min(start + _BLOCK_ROWS, rows)
                n = stop - start
                for i, j in enumerate(live):
                    values[:n, i] = reduce(np.multiply, [_part(f, group, start, stop)
                                                         for f in columns[j]])
                formatter(values[:n], cells[:n])
                block[:n, live, :_CELL_BYTES] = cells[:n]
                for j, formatted in repeated.items():
                    block[:n, j, :_CELL_BYTES] = _part(formatted, group, start, stop)
                fh.write(block[:n].tobytes().translate(None, b"\0"))


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


def _search_summary(cfg: ExperimentConfig, trace) -> dict:
    peaks = analysis.PeakTrace.from_search_trace(
        trace, compensated=cfg.compensate_loss
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
    summary = {
        "artifact_version": __version__,
        "mode": cfg.mode,
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
        "config": cfg.model_dump(mode="json"),
    }
    if warnings:
        summary["warnings"] = warnings
    return summary


def _profile_columns(trace) -> list:
    """``profiles.csv``'s columns over (pulse, sample), for ``_write_table``.

    The compensated row of each pulse is its profile times the trace's
    ``compensation`` factor; the writer multiplies it out a block at a
    time.
    """
    return [trace.iteration_counts[:, None], trace.grid.coordinates, trace.profiles,
            (trace.profiles, trace.compensation[:, None])]


def _write_search_outputs(cfg: ExperimentConfig, trace, out_dir: Path) -> dict:
    """Write a search or analyze run's files for ``trace``; return its summary."""
    if cfg.mode == "search":
        _write_table(
            out_dir / "profiles.csv",
            "iteration_count,x_m,intensity,compensated_intensity",
            _profile_columns(trace),
        )

    peak_values = (
        trace.compensated_peak_values if cfg.compensate_loss else trace.peak_values
    )
    _write_table(
        out_dir / "peaks.csv",
        "iteration_count,peak_position_m,peak_value",
        [trace.iteration_counts, trace.peak_positions, peak_values],
    )

    summary = _search_summary(cfg, trace)
    _write_summary(out_dir / "summary.json", summary)
    return summary


def _run_pulse_train_mode(cfg: ExperimentConfig, out_dir: Path) -> dict:
    train = pulse_train(cfg.to_cavity_config())
    counts = [count for count, _ in train]
    energies = [energy for _, energy in train]
    _write_table(
        out_dir / "train.csv",
        "iteration_count,slit_energy",
        [counts, energies],
    )
    # A ratio after a zero slit energy is undefined: null in the summary.
    ratios = [
        _round9(energies[i + 1] / energies[i]) if energies[i] > 0 else None
        for i in range(len(energies) - 1)
    ]
    summary = {
        "artifact_version": __version__,
        "mode": cfg.mode,
        "slit_energies": [_round9(e) for e in energies],
        "consecutive_energy_ratios": ratios,
        "config": cfg.model_dump(mode="json"),
    }
    _write_summary(out_dir / "summary.json", summary)
    return summary


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
    summary = {
        "artifact_version": __version__,
        "mode": cfg.mode,
        "max_success_probability": _round9(probabilities[best]),
        "argmax_iteration": best,
        "optimal_iterations": _formula_or_null(
            "optimal_iterations", warnings, reference.optimal_iterations,
            ref.n_items, ref.n_marked, abs(ref.oracle_phase_rad) / 2.0,
        ),
        "oscillation_period": _round9(
            reference.oscillation_period(ref.n_items, ref.n_marked)
        ),
        "config": cfg.model_dump(mode="json"),
    }
    if warnings:
        summary["warnings"] = warnings
    _write_summary(out_dir / "summary.json", summary)
    return summary


def run(cfg: ExperimentConfig, out_dir: str | Path) -> dict:
    """Execute one configured run; returns the summary that was written."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if cfg.mode == "reference":
        return _run_reference_mode(cfg, out)
    if cfg.mode == "pulse-train":
        return _run_pulse_train_mode(cfg, out)
    trace = run_search(cfg.to_cavity_config(), record_profiles=cfg.mode == "search")
    return _write_search_outputs(cfg, trace, out)


# Bytes of complex128 field rows per batched kernel call: 2 rows at
# 16384 samples, 8 at 4096, 1 at 65536.  Larger batches ran faster per
# row, but their buffers raised a sweep's peak RSS beyond its budget.
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
    values in deterministic (row-major product) order.  Search and
    analyze points run in chunks of compatible cavities, one
    ``_run_batch`` call each (see ``_batch_chunks``); other modes run
    point by point.  Up to ``cfg.workers`` threads share the chunks, and
    no output depends on how many.  With no axes configured
    this degenerates to a single ordinary run.  Every point is built
    and validated before anything is written, so a sweep with one bad
    point raises ``ConfigurationError`` and leaves ``out_dir`` untouched.
    """
    if not cfg.sweep:
        return run(cfg, out_dir)

    axes = cfg.sweep
    base = cfg.model_dump(mode="json")
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

    batched = cfg.mode in ("search", "analyze")
    if batched:
        cavities = [point.to_cavity_config() for point in point_configs]
        chunks = _batch_chunks(cavities)
    else:
        chunks = [[index] for index in range(len(point_configs))]

    def _execute(chunk: list[int]) -> list[dict]:
        if not batched:
            return [run(point_configs[i], out / f"point_{i:03d}") for i in chunk]
        traces = _run_batch([cavities[i] for i in chunk], cfg.mode == "search")
        summaries = []
        for i, trace in zip(chunk, traces):
            point_dir = out / f"point_{i:03d}"
            point_dir.mkdir(exist_ok=True)
            summaries.append(_write_search_outputs(point_configs[i], trace, point_dir))
        return summaries

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
        "axes": [axis.model_dump() for axis in axes],
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
