"""Layered benchmark for grover-optics.

Runs one workload through the public CLI entry point
``grover_optics.cli.main(argv)`` in-process, as a closed loop of one
client with no think time, checks every file each operation writes
against stored sha256 hashes, and prints a JSON result as its last line
of standard output.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics.  Run from the repository root:

    python3 perfbench/run.py --workload search-profiles --seed 1 --seconds 30 --trace 0

See perfbench/README.md for the workloads and how to read the metrics.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
EXPECTED = HERE / "expected_sha256.json"
SETUP_REPEATS = 7
TAIL_BEYOND = 10

sys.path.insert(0, str(HERE))
from spans import Tracer, layer_metrics, patch_points  # noqa: E402
from workloads import SWEEP_WORKERS, WORKLOADS, rounds  # noqa: E402

# What every CLI call pays before its operation starts: a fresh
# interpreter, the package import and validating the first config.
SETUP_CHILD = """
import json, sys
import grover_optics
from grover_optics.config import build_config
build_config(json.loads(sys.argv[1]))
"""


def import_package() -> dict:
    """Import grover_optics from this checkout's ``src``, or exit 2."""
    if not (SRC / "grover_optics" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import grover_optics
    from grover_optics import (analysis, cavity, cli, config, elements, reference,
                               runner)

    if Path(grover_optics.__file__).resolve().parent != SRC / "grover_optics":
        print(f"perfbench: imported {grover_optics.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)
    return {"cli": cli, "config": config, "runner": runner, "cavity": cavity,
            "elements": elements, "analysis": analysis, "reference": reference}


def op_argvs(op, out: Path) -> list[list[str]]:
    """CLI argument lists of an operation's calls, writing their configs."""
    argvs = []
    for call in op.calls:
        argv = [call.command]
        if call.config is not None:
            path = WORK / "inputs" / f"{op.key.replace('/', '_')}-{call.name}.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(call.config, indent=2) + "\n", encoding="utf-8")
            argv += ["--config", str(path)]
        if call.preset is not None:
            argv += ["--preset", call.preset]
        if call.workers is not None:
            argv += ["--workers", str(call.workers)]
        argvs.append(argv + ["--out", str(out / call.name)])
    return argvs


def digest_tree(root: Path) -> tuple[dict[str, str], int]:
    """sha256 of every file under ``root`` by relative path, and total bytes."""
    digests, nbytes = {}, 0
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest = hashlib.sha256()
        with path.open("rb") as source:  # streamed, to keep out of peak RSS
            for chunk in iter(lambda: source.read(1 << 20), b""):
                digest.update(chunk)
        digests[path.relative_to(root).as_posix()] = digest.hexdigest()
        nbytes += path.stat().st_size
    return digests, nbytes


@dataclass
class Outcome:
    seconds: float
    exit_ok: bool
    digests: dict[str, str]
    nbytes: int

    def ok(self, expected: dict[str, str] | None) -> bool:
        return self.exit_ok and self.digests == expected


def execute(op, main) -> Outcome:
    """Run one operation into a fresh output directory; time only ``main``."""
    out = WORK / "out"
    shutil.rmtree(out, ignore_errors=True)
    seconds, exit_ok = 0.0, True
    for argv in op_argvs(op, out):
        with contextlib.redirect_stdout(io.StringIO()):
            start = perf_counter()
            try:
                code = main(argv)
            except Exception:  # a crash is a failed operation, not a failed run
                traceback.print_exc()
                code = None
            seconds += perf_counter() - start
        exit_ok = exit_ok and code == 0
    digests, nbytes = digest_tree(out)
    return Outcome(seconds, exit_ok, digests, nbytes)


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, sample count)``.  With ten samples or
    fewer no percentile qualifies and the maximum is returned as p100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    index = n - TAIL_BEYOND - 1
    return ordered[index], 100.0 * (index + 1) / n, n


class SetupProbe:
    """Times fresh interpreters paying the CLI's set-up, one at a time.

    The samples are spread evenly over the timed run, between rounds,
    so that one slow stretch of a shared machine does not set them all.
    """

    def __init__(self, raw: dict) -> None:
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), self.env.get("PYTHONPATH")) if p
        )
        self.command = [sys.executable, "-c", SETUP_CHILD, json.dumps(raw)]
        self.samples: list[float] = []
        self._child()  # warms the file cache; not a sample

    def _child(self) -> float:
        start = perf_counter()
        subprocess.run(self.command, cwd=ROOT, env=self.env, check=True,
                       stdout=subprocess.DEVNULL)
        return perf_counter() - start

    def due(self, fraction_done: float) -> bool:
        taken = len(self.samples)
        return taken < SETUP_REPEATS and fraction_done >= taken / SETUP_REPEATS

    def sample(self) -> None:
        self.samples.append(self._child())


@dataclass
class Loop:
    """What the timed rounds produced; traced rounds are kept apart."""

    times: dict[bool, list[float]] = field(default_factory=lambda: {False: [], True: []})
    rates: list[float] = field(default_factory=list)  # untraced pulses/s per op
    attempted: int = 0
    failed: int = 0
    rounds: dict[bool, int] = field(default_factory=lambda: {False: 0, True: 0})
    files: int = 0
    nbytes: int = 0


def run_loop(workload, seed: int, seconds: float, main, expected: dict,
             tracer: Tracer | None = None, points=(),
             setup: SetupProbe | None = None) -> Loop:
    """Whole rounds until ``seconds`` have passed, and at least one.

    With a tracer, rounds alternate untraced and traced, and at least
    one of each runs.  Set-up samples are taken between rounds and do
    not count toward ``seconds``.
    """
    loop = Loop()
    traced_main = tracer.wrap("cli.main", main) if tracer else None
    order_of = rounds(workload.ops, seed)
    min_rounds = 2 if tracer else 1
    start, paused = perf_counter(), 0.0
    while True:
        if setup is not None and setup.due((perf_counter() - start - paused) / seconds):
            begin = perf_counter()
            setup.sample()
            paused += perf_counter() - begin
            continue
        n_round = loop.rounds[False] + loop.rounds[True]
        if n_round >= min_rounds and perf_counter() - start - paused >= seconds:
            return loop
        traced = tracer is not None and n_round % 2 == 1
        if traced:
            tracer.install(points)
        try:
            for op in next(order_of):
                if traced:
                    tracer.op_id = loop.attempted
                outcome = execute(op, traced_main if traced else main)
                loop.attempted += 1
                loop.failed += not outcome.ok(expected.get(op.key))
                loop.times[traced].append(outcome.seconds)
                if traced:
                    loop.files += len(outcome.digests)
                    loop.nbytes += outcome.nbytes
                else:
                    loop.rates.append(op.pulses / outcome.seconds)
        finally:
            if traced:
                tracer.uninstall()
        loop.rounds[traced] += 1


def machine_facts() -> dict:
    import numpy
    import pydantic

    def getconf(name: str) -> int | None:
        try:
            done = subprocess.run(["getconf", name], capture_output=True, text=True,
                                  check=True)
            return int(done.stdout)
        except (OSError, subprocess.CalledProcessError, ValueError):
            return None

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pydantic": pydantic.VERSION,
        "nproc": len(os.sched_getaffinity(0)),
        "l2_bytes": getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": getconf("LEVEL3_CACHE_SIZE"),
    }


LAYERS = ("cli", "config", "runner", "cavity", "fields", "elements", "analysis",
          "reference")


def declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.seconds < 1:
        print("perfbench: --seconds must be at least 1", file=sys.stderr)
        return 2
    modules = import_package()
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    workload = WORKLOADS[args.workload]
    cli_main = modules["cli"].main

    setup = None if args.trace else SetupProbe(workload.ops[0].calls[0].raw_config())
    warm_ok = execute(workload.ops[0], cli_main).ok(expected.get(workload.ops[0].key))
    tracer = Tracer() if args.trace else None
    loop = run_loop(workload, args.seed, args.seconds, cli_main, expected, tracer,
                    patch_points(modules) if tracer else (), setup)
    shutil.rmtree(WORK / "out", ignore_errors=True)

    untraced = loop.times[False]
    details: dict = {}
    if args.trace:
        metrics = layer_metrics(tracer.spans, loop.rounds[True], loop.files,
                                loop.nbytes, SWEEP_WORKERS)
        metrics["trace.overhead_frac"] = (
            statistics.median(loop.times[True]) / statistics.median(untraced) - 1.0
        )
        busy = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
        details = {"layer_share_of_self_time": {
            layer: round(metrics[f"{layer}.self_s"] / busy, 4) for layer in LAYERS}}
        spans_path = WORK / "spans" / f"{workload.name}-seed{args.seed}.jsonl"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        with spans_path.open("w", encoding="utf-8") as sink:
            for span in tracer.spans:
                sink.write(json.dumps(span.__dict__) + "\n")
    else:
        tail_value, tail_pct, tail_n = tail(untraced)
        metrics = {
            "setup_s": statistics.median(setup.samples),
            "op_p50_s": statistics.median(untraced),
            "op_tail_s": tail_value,
            "pulses_per_s": statistics.median(loop.rates),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        }
        details = {"op_tail_percentile": tail_pct, "op_samples": tail_n,
                   "setup_samples_s": setup.samples}

    units = declared_units(args.trace)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} are not "
                           "declared in BENCHMARK.json, or not measured")
    failed_frac = loop.failed / loop.attempted
    facts = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
             "trace": args.trace, "grid_samples": workload.grid_samples,
             "rounds": loop.rounds[False] + loop.rounds[True],
             "attempted": loop.attempted, "failed": loop.failed,
             "failed_ops_frac": failed_frac, "warm_up_ok": warm_ok,
             "machine": machine_facts(), **details}
    results_path = WORK / "results" / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    results_path.parent.mkdir(parents=True, exist_ok=True)
    results_path.write_text(json.dumps(
        {**facts, "op_times_s": loop.times, "metrics": metrics}, indent=2) + "\n",
        encoding="utf-8")

    for key, value in facts.items():
        print(f"{key}: {value}")
    for name, value in metrics.items():
        print(f"{name:30s} {value:14.6g} {units[name]}")
    print(f"{'failed_ops_frac':30s} {failed_frac:14.6g} ratio")
    print(json.dumps({
        "correct": warm_ok and loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
