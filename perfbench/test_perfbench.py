"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import dataclasses
import itertools
import json
from pathlib import Path

import pytest

import run
from spans import Span, Tracer, layer_metrics, self_times
from workloads import WORKLOADS, rounds


def test_self_time_subtracts_union_of_children():
    spans = [
        Span(1, "runner.sweep", 0.0, 10.0, None, 0),
        Span(2, "runner.run", 1.0, 4.0, 1, 0),
        Span(3, "cavity.run_search", 2.0, 3.0, 2, 0),
        # Runs on another thread, overlapping span 2: overlap counts once.
        Span(4, "runner.run", 3.0, 6.0, 1, 0),
    ]
    assert self_times(spans) == pytest.approx({1: 5.0, 2: 2.0, 3: 1.0, 4: 3.0})


def test_layer_metrics_counts_per_round():
    key_a, key_b = (0.0, 1.0), (1.0, 1.0)
    spans = [
        Span(1, "cavity.run_search", 0.0, 4.0, None, 0, 2),
        Span(2, "fields.dft_centered", 0.0, 1.0, 1, 0, 16),
        Span(3, "fields.idft_centered", 1.0, 2.0, 1, 0, 16),
        Span(4, "elements.phase_profile", 2.0, 2.5, 1, 0, key_a),
        Span(5, "elements.phase_profile", 2.5, 3.0, 1, 0, key_a),
        Span(6, "elements.phase_profile", 3.0, 3.5, 1, 0, key_b),
        Span(7, "elements.phase_profile", 3.5, 4.0, 1, 1, key_a),
    ]
    metrics = layer_metrics(spans, n_rounds=2, files=4, nbytes=10, workers=2)
    assert metrics["fields.fft_calls"] == 1.0
    assert metrics["fields.fft_calls_per_pulse"] == 1.0
    assert metrics["fields.fft_flops_computed"] == 2 * 5 * 16 * 4 / 2
    assert metrics["elements.mask_builds"] == 2.0
    assert metrics["elements.mask_reuse_ratio"] == 3 / 4  # 2 + 1 distinct, 4 built
    assert metrics["cavity.self_s"] == 0.0
    assert metrics["fields.self_s"] == 1.0
    assert metrics["runner.files_written"] == 2.0
    assert metrics["runner.sweep_parallel_eff"] == 0.0


def test_tracer_parents_worker_thread_calls_to_main_thread_span():
    from concurrent.futures import ThreadPoolExecutor

    tracer = Tracer()
    leaf = tracer.wrap("runner.run", lambda: None)

    def fan_out():
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(lambda _: leaf(), range(4)))

    tracer.wrap("runner.sweep", fan_out)()
    sweep = next(s for s in tracer.spans if s.name == "runner.sweep")
    points = [s for s in tracer.spans if s.name == "runner.run"]
    assert len(points) == 4 and all(s.parent == sweep.span_id for s in points)


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    samples = [float(v) for v in range(30, 0, -1)]
    value, percentile, count = run.tail(samples)
    assert value == 20.0
    assert sum(s > value for s in samples) == 10
    assert percentile == pytest.approx(200 / 3)
    assert count == 30
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_permutes_order_not_operations(name):
    ops = WORKLOADS[name].ops
    first = list(itertools.islice(rounds(ops, 1), 8))
    second = list(itertools.islice(rounds(ops, 2), 8))
    keys = sorted(op.key for op in ops)
    for order in first + second:
        assert sorted(op.key for op in order) == keys
    assert first == list(itertools.islice(rounds(ops, 1), 8))
    if len(ops) > 1:
        assert first != second


@pytest.fixture
def one_op_workload(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    cli = run.import_package()["cli"]
    workload = WORKLOADS["fine-grid-train"]
    return dataclasses.replace(workload, ops=workload.ops[:1]), cli


def _loop(workload, main):
    expected = json.loads(run.EXPECTED.read_text(encoding="utf-8"))
    return run.run_loop(workload, seed=0, seconds=0, main=main, expected=expected)


def test_clean_outputs_match_stored_hashes(one_op_workload):
    workload, cli = one_op_workload
    loop = _loop(workload, cli.main)
    assert (loop.attempted, loop.failed) == (1, 0)


def test_corrupted_output_counts_as_failed_operation(one_op_workload):
    workload, cli = one_op_workload

    def corrupting_main(argv):
        code = cli.main(argv)
        out = Path(argv[argv.index("--out") + 1])
        if argv[0] == "reference":
            with (out / "reference.csv").open("ab") as sink:
                sink.write(b"\n")
        return code

    loop = _loop(workload, corrupting_main)
    assert (loop.attempted, loop.failed) == (1, 1)


def test_nonzero_exit_counts_as_failed_operation(one_op_workload):
    workload, cli = one_op_workload
    loop = _loop(workload, lambda argv: cli.main(argv) or 3)
    assert (loop.attempted, loop.failed) == (1, 1)
