"""Per-layer tracing from outside the package.

Each traced public name is replaced, where its caller looks it up, by a
wrapper that records one span per call: name, start, end, parent span
and operation id.  Spans stay in memory until the run ends.  A span's
name is ``<layer>.<function>``, the layer being the package module that
defines the function.  Self time is a span's duration minus the part of
it that its child spans cover; children that ran concurrently on sweep
worker threads are merged first, so overlap is counted once.
"""

import inspect
import itertools
import math
import threading
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter

# Array traffic of the fields layer, counted as complex128 passes over
# the n-sample array (one read plus one write of 16 bytes each): a
# centered transform makes four (ifftshift, FFT, fftshift, copy into the
# result field), a parity flip two (gather, copy).  Computed from array
# sizes, not measured; cache misses and temporaries are ignored.
TRANSFORM_BYTES_PER_SAMPLE = 4 * 32
PARITY_BYTES_PER_SAMPLE = 2 * 32
TRANSFORMS = ("fields.dft_centered", "fields.idft_centered")


@dataclass(frozen=True)
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    op_id: int | None
    note: object = None  # grid size, pulse count or mask key, by name

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def _grid_samples(args) -> int:
    return args[0].grid.n_samples


def _mask_key(args) -> tuple:
    plate, grid = args[0], args[1]
    return (plate.center, plate.flat_width, plate.ramp_width, plate.phase_depth,
            grid.n_samples, grid.pitch)


def _pulse_count(args) -> int:
    return args[0].n_pulses


class Tracer:
    """Records spans from wrapped callables, across sweep worker threads.

    A call on a worker thread with no open span of its own is parented
    to the innermost span open on the main thread, which is the sweep
    that submitted it.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op_id: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, name: str, fn, note=None):
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            span_id = next(self._ids)
            stack.append(span_id)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self.spans.append(Span(span_id, name, start, end, parent, self.op_id,
                                       None if note is None else note(args)))

        return traced

    def install(self, points) -> None:
        """Wrap every ``(owner, attribute, span name, note)`` patch point."""
        for owner, attr, name, note in points:
            original = inspect.getattr_static(owner, attr)
            if isinstance(original, classmethod):
                replacement = classmethod(self.wrap(name, original.__func__, note))
            else:
                replacement = self.wrap(name, original, note)
            setattr(owner, attr, replacement)
            self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def patch_points(go) -> list[tuple]:
    """Where each layer's public names are looked up by their callers.

    ``go`` maps module names (``cli``, ``config``, ...) to the imported
    package modules.
    """
    cli, config, runner, cavity = go["cli"], go["config"], go["runner"], go["cavity"]
    elements, analysis, reference = go["elements"], go["analysis"], go["reference"]
    points = [
        (cli, "read_raw_config", "config.read_raw_config", None),
        (cli, "build_config", "config.build_config", None),
        (cli, "run", "runner.run", None),
        (cli, "sweep", "runner.sweep", None),
        (config.ExperimentConfig, "to_cavity_config", "config.to_cavity_config", None),
        (runner, "run", "runner.run", None),
        (runner, "run_search", "cavity.run_search", _pulse_count),
        (runner, "pulse_train", "cavity.pulse_train", None),
        (cavity, "run_search", "cavity.run_search", _pulse_count),
        (cavity, "dft_centered", "fields.dft_centered", _grid_samples),
        (cavity, "idft_centered", "fields.idft_centered", _grid_samples),
        (cavity, "parity_flip", "fields.parity_flip", _grid_samples),
        (cavity, "apply_plate", "elements.apply_plate", None),
        (cavity, "apply_roundtrip_loss", "elements.apply_roundtrip_loss", None),
        (elements, "phase_profile", "elements.phase_profile", _mask_key),
        (analysis.PeakTrace, "from_search_trace", "analysis.from_search_trace", None),
        (reference.GroverReducedState, "uniform", "reference.uniform", None),
    ]
    for name in ("first_maximum", "estimate_nm", "expected_nm", "rayleigh_resolution",
                 "max_database_size", "equivalent_qubits"):
        points.append((analysis, name, f"analysis.{name}", None))
    for name in ("reduced_iterate", "success_probability", "optimal_iterations",
                 "oscillation_period"):
        points.append((reference, name, f"reference.{name}", None))
    return points


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_hi is None or start > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = start, end
        else:
            cur_hi = max(cur_hi, end)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span.span_id: (span.end - span.start)
        - _covered(children.get(span.span_id, []), span.start, span.end)
        for span in spans
    }


def layer_metrics(spans: list[Span], n_rounds: int, files: int, nbytes: int,
                  workers: int) -> dict[str, float]:
    """Per-layer counts and self times, per round of the workload.

    ``files`` and ``nbytes`` are what the traced rounds wrote in total;
    ``workers`` is the sweep thread count (unused without a sweep).
    """
    own = self_times(spans)
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    count: dict[str, int] = defaultdict(int)
    for span in spans:
        self_s[span.layer] += own[span.span_id]
        calls[span.layer] += 1
        count[span.name] += 1

    by_id = {span.span_id: span for span in spans}
    transforms = [s for s in spans if s.name in TRANSFORMS]
    parities = [s for s in spans if s.name == "fields.parity_flip"]
    searches = [s for s in spans if s.name == "cavity.run_search"]
    masks = [s for s in spans if s.name == "elements.phase_profile"]
    sweeps = [s for s in spans if s.name == "runner.sweep"]
    points = [s for s in spans if s.name == "runner.run" and s.parent in by_id
              and by_id[s.parent].name == "runner.sweep"]

    pulses = sum(s.note for s in searches)
    distinct_masks: dict[int | None, set] = defaultdict(set)
    for span in masks:
        distinct_masks[span.op_id].add(span.note)
    sweep_wall = sum(s.end - s.start for s in sweeps)
    per = 1.0 / n_rounds
    return {
        "cli.self_s": self_s["cli"] * per,
        "config.calls": calls["config"] * per,
        "config.self_s": self_s["config"] * per,
        "runner.self_s": self_s["runner"] * per,
        "runner.bytes_written": nbytes * per,
        "runner.files_written": files * per,
        "runner.write_mb_per_s": nbytes / 1e6 / self_s["runner"] if self_s["runner"] else 0.0,
        "runner.sweep_parallel_eff": (
            sum(s.end - s.start for s in points) / (workers * sweep_wall)
            if sweep_wall else 0.0
        ),
        "cavity.pulses": pulses * per,
        "cavity.self_s": self_s["cavity"] * per,
        "cavity.s_per_pulse": (
            sum(s.end - s.start for s in searches) / pulses if pulses else 0.0
        ),
        "fields.self_s": self_s["fields"] * per,
        "fields.fft_calls": len(transforms) * per,
        "fields.fft_calls_per_pulse": len(transforms) / pulses if pulses else 0.0,
        "fields.fft_self_s": sum(own[s.span_id] for s in transforms) * per,
        "fields.parity_calls": len(parities) * per,
        "fields.fft_flops_computed": sum(5 * s.note * math.log2(s.note)
                                         for s in transforms) * per,
        "fields.bytes_moved_computed": (
            sum(TRANSFORM_BYTES_PER_SAMPLE * s.note for s in transforms)
            + sum(PARITY_BYTES_PER_SAMPLE * s.note for s in parities)
        ) * per,
        "elements.calls": calls["elements"] * per,
        "elements.self_s": self_s["elements"] * per,
        "elements.mask_builds": len(masks) * per,
        "elements.mask_reuse_ratio": (
            sum(len(keys) for keys in distinct_masks.values()) / len(masks)
            if masks else 0.0
        ),
        "analysis.calls": calls["analysis"] * per,
        "analysis.self_s": self_s["analysis"] * per,
        "reference.iterations": count["reference.reduced_iterate"] * per,
        "reference.self_s": self_s["reference"] * per,
    }
