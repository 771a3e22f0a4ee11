"""Guard for the program entry points the benchmark's traced run wraps.

``perfbench/spans.py`` attributes time to layers by wrapping program
functions and methods by name (``ClusterView.has_assignable``,
``StageScheduler.select_gen``, ``capture_trial_record``, ...). Renaming or
deleting one breaks the traced run; these tests catch that in the tier-1
suite, in about a second, instead of only in the benchmark's own
self-test.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    # The traced run imports the program before installing; the runner
    # pulls in every scheduler and workload module the tracer patches.
    import repro.experiments.runner  # noqa: F401

    yield spans
    # Keep the benchmark's top-level module name out of later imports.
    sys.modules.pop("spans", None)


def test_install_wires_every_layer_and_uninstall_restores(spans):
    import repro.campaign.executor as executor
    from repro.simulator.interfaces import StageScheduler
    from repro.simulator.state import ClusterView

    seams = [
        (ClusterView, "has_assignable"),
        (ClusterView, "ready_stages"),
        (ClusterView, "frontier_arrays"),
        (StageScheduler, "select_gen"),
        (executor, "capture_trial_record"),
    ]
    originals = {seam: vars(seam[0])[seam[1]] for seam in seams}
    tracer = spans.Tracer()
    tracer.install()
    try:
        wired = set(tracer.names)
        wrapped = {
            seam for seam in seams if vars(seam[0])[seam[1]] is not originals[seam]
        }
    finally:
        tracer.uninstall()
    # Every span name the layer table knows, except the benchmark's own
    # root spans, was attached to at least one program entry point.
    assert wired == set(spans.LAYER_OF) - {"setup", "unit"}
    assert wrapped == set(seams)
    for (target, attr), original in originals.items():
        assert vars(target)[attr] is original


def test_traced_cap_fifo_run_reports_the_frontier_layer(spans):
    from repro.experiments.runner import ExperimentConfig, run_experiment
    from repro.workloads.batch import WorkloadSpec

    config = ExperimentConfig(
        scheduler="cap-fifo",
        num_executors=4,
        workload=WorkloadSpec(family="tpch", num_jobs=3, tpch_scales=(2,)),
        trace_hours=48,
    )
    tracer = spans.Tracer()
    tracer.install()
    try:
        run_experiment(config)
    finally:
        tracer.uninstall()
    rows = tracer.summary()
    assert rows["state.frontier"]["calls"] > 0
    assert rows["schedulers.select"]["calls"] > 0
    assert rows["core.quota"]["calls"] > 0
