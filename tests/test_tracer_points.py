"""Every name the benchmark's tracer patches still exists.

``perfbench/run.py --trace 1`` wraps the callables listed by
``perfbench/spans.py::patch_points``; a deleted or renamed one would
crash only that traced run.  This resolves each patch point the way
``Tracer.install`` does, without installing anything.
"""

import importlib.util
import inspect
from pathlib import Path

from grover_optics import analysis, cavity, cli, config, elements, reference, runner

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_patch_point_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    modules = {"cli": cli, "config": config, "runner": runner, "cavity": cavity,
               "elements": elements, "analysis": analysis, "reference": reference}
    points = spans.patch_points(modules)
    assert points
    for owner, attr, name, _ in points:
        inspect.getattr_static(owner, attr)  # AttributeError if gone
        assert callable(getattr(owner, attr)), name
