"""The benchmark's span tracer (perfbench/spans.py), loaded as it stands,
around the four variational measures.

The tracer recognizes a search by the name `maximize` and wraps the
objective only when it is passed as `batch_objective=`, so this checks that
every measure reaches the search that way and that tracing leaves the
numbers unchanged.
"""

import importlib.util
from pathlib import Path

import ci_toolkit
import ci_toolkit.cli  # noqa: F401  (the tracer patches every layer module)
import ci_toolkit.measures as measures
from ci_toolkit.optim import OptimizerConfig
from ci_toolkit.states import preset

QUICK = OptimizerConfig(restarts=2, max_iters=100, tol=1e-4, seed=3)


def _load_spans():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _values():
    # looked up on the module at call time, so the tracer's patches apply
    w = preset("w")
    return [
        measures.one_way_ci(w, "A", "B", "C", QUICK).value,
        measures.discord(w, ("A", "B"), "C", QUICK).value,
        measures.eoa(w, "A", QUICK).value,
        measures.eof(w, "A", QUICK).value,
    ]


def test_tracer_counts_one_search_per_measure_and_changes_no_value():
    untraced = _values()
    tracer = _load_spans().Tracer(ci_toolkit)
    tracer.install()
    try:
        traced = _values()
    finally:
        tracer.uninstall()
    snap = tracer.snapshot()
    assert snap["optim.searches"] == 4
    assert snap["optim.evals"] > 0
    assert snap["measures.objective_s"] > 0
    for name in ("one_way_ci", "discord", "eoa", "eof"):
        assert snap[f"measures.{name}.calls"] == 1
    assert traced == untraced
