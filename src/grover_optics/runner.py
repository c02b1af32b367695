"""Run modes and deterministic file output.

Every mode writes a ``summary.json`` plus mode-specific CSV tables into
an output directory.  Numeric results are rendered with 9 significant
digits and rows in a fixed order, so identical configs produce
byte-identical files.  The config echo inside the summary is written
verbatim (not rounded) so it re-parses to an equivalent config.
"""

import itertools
import json
from concurrent.futures import ThreadPoolExecutor
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


# Rows per formatting call.  Cost per row is flat from 64 to 16384 rows
# per block, so blocks stay small: a 256-row block's format string and
# value list take tens of KB, however large the table.
_BLOCK_ROWS = 256


def _write_table(path: Path, header: str, blocks) -> None:
    """Write a CSV table from ``(fmt, values)`` blocks, one ``%`` call each.

    The bytes equal ``np.savetxt(path, table, fmt="%.9g", delimiter=",",
    comments="", header=header)`` of the same rows, including its
    ``nan``/``inf``/``-0`` spellings.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for fmt, values in blocks:
            fh.write(fmt % tuple(values))


def _column_blocks(*columns):
    """Blocks of a table given as equal-length 1-D columns; ``None`` is nan."""
    columns = [np.asarray(column, dtype=float) for column in columns]
    row_fmt = ",".join(["%.9g"] * len(columns)) + "\n"
    for start in range(0, len(columns[0]), _BLOCK_ROWS):
        block = np.column_stack([c[start:start + _BLOCK_ROWS] for c in columns])
        yield row_fmt * len(block), block.ravel().tolist()


def _profile_blocks(trace, loss_factor: float):
    """Blocks of ``profiles.csv``, pulse by pulse; each x cell formatted once.

    The compensated column is computed here, one pulse at a time, as
    ``profile * loss_factor ** (-count)`` with ``count`` the trace's own
    float64 iteration count.
    """
    x_rows = ["%.9g,%%.9g,%%.9g\n" % x for x in trace.grid.coordinates.tolist()]
    for count, profile in zip(trace.iteration_counts, trace.profiles):
        compensated = profile * loss_factor ** (-count)
        prefix = "%.9g," % count
        for start in range(0, len(x_rows), _BLOCK_ROWS):
            stop = start + _BLOCK_ROWS
            values = np.column_stack((profile[start:stop], compensated[start:stop]))
            yield prefix + prefix.join(x_rows[start:stop]), values.ravel().tolist()


def _write_summary(path: Path, summary: dict) -> None:
    path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


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
            else _round9(analysis.estimate_nm(k_star, abs(cfg.oracle.phase_rad)))
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


def _write_search_outputs(cfg: ExperimentConfig, trace, out_dir: Path) -> dict:
    """Write a search or analyze run's files for ``trace``; return its summary."""
    if cfg.mode == "search":
        _write_table(
            out_dir / "profiles.csv",
            "iteration_count,x_m,intensity,compensated_intensity",
            _profile_blocks(trace, cfg.roundtrip_energy_factor),
        )

    peak_values = (
        trace.compensated_peak_values if cfg.compensate_loss else trace.peak_values
    )
    _write_table(
        out_dir / "peaks.csv",
        "iteration_count,peak_position_m,peak_value",
        _column_blocks(trace.iteration_counts, trace.peak_positions, peak_values),
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
        _column_blocks(counts, energies),
    )
    ratios = [
        energies[i + 1] / energies[i] if energies[i] > 0 else float("nan")
        for i in range(len(energies) - 1)
    ]
    summary = {
        "artifact_version": __version__,
        "mode": cfg.mode,
        "slit_energies": [_round9(e) for e in energies],
        "consecutive_energy_ratios": [_round9(r) for r in ratios],
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
        _column_blocks(iterations, probabilities, ideal),
    )
    best = int(np.argmax(probabilities))
    summary = {
        "artifact_version": __version__,
        "mode": cfg.mode,
        "max_success_probability": _round9(probabilities[best]),
        "argmax_iteration": best,
        "optimal_iterations": _round9(
            reference.optimal_iterations(
                ref.n_items, ref.n_marked, abs(ref.oracle_phase_rad) / 2.0
            )
        ),
        "oscillation_period": _round9(
            reference.oscillation_period(ref.n_items, ref.n_marked)
        ),
        "config": cfg.model_dump(mode="json"),
    }
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
        valid = [r for r in ratios if not np.isnan(r)]
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
    _write_table(out / "sweep.csv", header, _column_blocks(*zip(*rows)))

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
