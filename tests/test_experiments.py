"""Tests for the experiment harness (runner, motivation, tables, figures).

These run real (small) simulations, so they double as integration tests of
the whole stack: workloads -> simulator -> schedulers -> metrics.
"""

import numpy as np
import pytest

from repro.carbon.grids import GRID_CODES
from repro.experiments.figures import (
    cap_b_sweep,
    fig5_series,
    fig6_executor_usage,
    fig13_frontier,
    fig15_fifo_vs_k8s,
    fig9_perjob_trials,
    grid_comparison,
    interarrival_sweep,
    jobcount_sweep,
    latency_profile,
    pcaps_gamma_sweep,
)
from repro.experiments.motivation import (
    fig1_comparison,
    motivating_dag,
    motivating_trace,
)
from repro.experiments.runner import (
    SCHEDULER_NAMES,
    ExperimentConfig,
    build_scheduler,
    carbon_trace_for,
    memoized_workload,
    run_experiment,
    run_matchup,
    workload_for,
)
from repro.experiments.tables import (
    format_metric_table,
    format_table1,
    table1_error_summary,
    table1_rows,
    table2_rows,
    table3_rows,
)
from repro.workloads.batch import WorkloadSpec


SMALL = WorkloadSpec(family="tpch", num_jobs=4, tpch_scales=(2,))


def small_config(**kwargs):
    defaults = dict(
        grid="DE", num_executors=6, workload=SMALL, trace_hours=600, seed=1
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


class TestRunner:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(scheduler="nope")
        with pytest.raises(ValueError):
            ExperimentConfig(mode="cloud")

    @pytest.mark.parametrize(
        "field, value",
        [("num_executors", 0), ("num_executors", -1), ("per_job_cap", 0)],
    )
    def test_config_rejects_nonpositive_cluster(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be >= 1"):
            ExperimentConfig(**{field: value})

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("gamma", 1.5, "gamma must be in"),
            ("gamma", -0.1, "gamma must be in"),
            ("gamma", float("nan"), "gamma must be in"),
            ("gh_theta", 2.0, "gh_theta must be in"),
            ("cap_min_quota", 0, "cap_min_quota must be in"),
            ("cap_min_quota", 51, "cap_min_quota must be in"),
        ],
    )
    def test_config_rejects_out_of_range_knobs(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(**{field: value})

    def test_config_accepts_knob_bounds(self):
        ExperimentConfig(gamma=0.0, gh_theta=1.0, cap_min_quota=1)
        ExperimentConfig(gamma=1.0, gh_theta=0.0, cap_min_quota=50)

    @pytest.mark.parametrize("name", SCHEDULER_NAMES)
    def test_every_scheduler_builds_and_runs(self, name):
        config = small_config(scheduler=name)
        result = run_experiment(config)
        assert result.num_jobs == 4
        assert result.ect > 0

    def test_build_scheduler_unknown_cap_target(self):
        config = small_config()
        trace = carbon_trace_for(config)
        with pytest.raises(ValueError):
            build_scheduler(
                ExperimentConfig(scheduler="cap-fifo", workload=SMALL).with_scheduler(
                    "cap-greenhadoop"
                ),
                trace,
            )

    def test_matchup_shares_workload(self):
        config = small_config()
        results = run_matchup(["fifo", "decima"], config)
        assert results["fifo"].arrivals == results["decima"].arrivals

    def test_run_experiment_deterministic(self):
        config = small_config(scheduler="pcaps")
        a = run_experiment(config)
        b = run_experiment(config)
        assert a.ect == pytest.approx(b.ect)
        assert a.carbon_footprint == pytest.approx(b.carbon_footprint)

    def test_kubernetes_mode_applies_cap(self):
        config = small_config(
            scheduler="k8s-default", mode="kubernetes", per_job_cap=2
        )
        result = run_experiment(config)
        # No job may ever hold more than 2 executors concurrently.
        events = []
        for t in result.trace.tasks:
            events.append((t.start, t.job_id, 1))
            events.append((t.end, t.job_id, -1))
        events.sort()
        concurrent: dict[int, int] = {}
        for _, job_id, delta in events:
            concurrent[job_id] = concurrent.get(job_id, 0) + delta
            assert concurrent[job_id] <= 2


class TestMotivation:
    def test_dag_shape(self):
        dag = motivating_dag()
        assert len(dag) == 7
        assert dag.roots() == (0,)
        assert dag.leaves() == (6,)

    def test_trace_has_high_then_low(self):
        trace = motivating_trace()
        values = trace.values
        assert values[:9].mean() > 3 * values[9:].mean()

    def test_fig1_shape(self):
        rows = fig1_comparison(gamma=0.5)
        by_name = {r.policy.split("(")[0]: r for r in rows}
        fifo, topt = by_name["FIFO"], by_name["T-OPT"]
        copt, pcaps = by_name["C-OPT"], by_name["PCAPS"]
        # The paper's qualitative Fig. 1 relationships:
        assert topt.completion_hours < fifo.completion_hours
        assert copt.carbon < fifo.carbon * 0.6  # large C-OPT saving
        assert copt.completion_hours > fifo.completion_hours  # deadline trade
        assert pcaps.carbon < fifo.carbon  # PCAPS saves carbon
        assert pcaps.carbon > copt.carbon  # but less than the offline optimum
        assert (
            pcaps.completion_hours < copt.completion_hours
        )  # and finishes earlier than C-OPT

    def test_fig1_relative_columns_consistent(self):
        rows = fig1_comparison()
        fifo = rows[0]
        assert fifo.carbon_vs_fifo_pct == pytest.approx(0.0)
        assert fifo.time_vs_fifo_pct == pytest.approx(0.0)


class TestTables:
    def test_table1_rows_cover_grids(self):
        rows = table1_rows(hours=2000)
        assert [r.grid for r in rows] == list(GRID_CODES)
        text = format_table1(rows)
        assert "CAISO" in text

    def test_table1_errors_small(self):
        errors = table1_error_summary(table1_rows(hours=8760))
        assert errors["mean_rel_err"] < 0.05
        assert errors["cov_rel_err"] < 0.30

    def test_table2_small(self):
        rows = table2_rows(
            num_executors=8, num_jobs=4, mean_interarrival=30.0,
            grids=("DE",),
        )
        assert set(rows) == {"k8s-default", "decima", "cap-k8s-default", "pcaps"}
        assert rows["k8s-default"].ect_ratio == 1.0
        text = format_metric_table(rows)
        assert "pcaps" in text

    def test_table3_small(self):
        rows = table3_rows(
            num_executors=8, num_jobs=4, mean_interarrival=30.0,
            grids=("DE",),
        )
        assert "greenhadoop" in rows and "cap-decima" in rows
        for m in rows.values():
            assert m.ect_ratio > 0 and m.jct_ratio > 0


class TestFigures:
    def test_fig5_series(self):
        series = fig5_series(hours=48)
        assert set(series) == set(GRID_CODES)
        assert all(len(v) == 48 for v in series.values())

    def test_fig6_timelines(self):
        data = fig6_executor_usage(num_executors=3, num_jobs=5, resolution=20.0)
        assert set(data.timelines) == {"decima", "pcaps", "cap-fifo"}
        for grid in data.timelines.values():
            assert grid.shape[0] == 3
            assert (grid >= -1).all()
        assert len(data.carbon) > 0

    def test_gamma_sweep_monotone_carbon(self):
        points = pcaps_gamma_sweep(
            gammas=(0.0, 0.9),
            baseline="decima",
            config=small_config(num_executors=4),
        )
        assert len(points) == 2
        assert points[0].carbon_reduction_pct <= points[1].carbon_reduction_pct + 5.0

    def test_cap_sweep_monotone_carbon(self):
        points = cap_b_sweep(
            quotas=(1, 4),
            underlying="fifo",
            config=small_config(num_executors=4),
        )
        # smaller B = more carbon-aware
        assert points[0].carbon_reduction_pct >= points[1].carbon_reduction_pct - 5.0

    def test_fig9_quadrants(self):
        points, quadrants = fig9_perjob_trials(
            num_trials=2,
            config=ExperimentConfig(
                mode="kubernetes", num_executors=6, per_job_cap=2,
                workload=SMALL, trace_hours=600,
            ),
        )
        assert len(points) == 4  # 2 schedulers x 2 trials
        for stats in quadrants.values():
            assert 0.0 <= stats["less_carbon"] <= 100.0

    def test_grid_comparison_rows(self):
        rows = grid_comparison(
            schedulers=("pcaps",), num_executors=6, num_jobs=3
        )
        assert len(rows) == len(GRID_CODES)
        assert all(r.scheduler == "pcaps" for r in rows)

    def test_fig13_frontier_families(self):
        frontier = fig13_frontier(
            gammas=(0.5,), quotas=(2,), config=small_config(num_executors=4)
        )
        assert set(frontier) == {"pcaps", "cap-decima"}

    def test_fig15_series(self):
        data = fig15_fifo_vs_k8s(num_executors=6, num_jobs=5)
        assert set(data.busy) == {"fifo-standalone", "k8s-default"}
        for name, series in data.busy.items():
            assert series.max() <= 6

    def test_jobcount_sweep(self):
        rows = jobcount_sweep(
            job_counts=(2, 4), schedulers=("pcaps",), num_executors=6
        )
        assert len(rows) == 2

    def test_interarrival_sweep(self):
        rows = interarrival_sweep(
            interarrivals=(15.0, 60.0), schedulers=("pcaps",),
            num_executors=6, num_jobs=3,
        )
        assert [r.parameter for r in rows] == [15.0, 60.0]

    def test_latency_profile(self):
        rows = latency_profile(
            queue_lengths=(1, 3), schedulers=("fifo", "pcaps"), num_executors=4
        )
        assert len(rows) == 4
        assert all(r.avg_latency_ms >= 0 for r in rows)
        assert all(r.invocations > 0 for r in rows)


class TestWorkloadMemoization:
    """The per-(spec, seed) synthesis LRU behind federation/campaign sweeps."""

    def test_matches_fresh_synthesis(self):
        from repro.workloads.batch import build_workload

        spec = WorkloadSpec(num_jobs=5, tpch_scales=(2,))
        cached = memoized_workload(spec, seed=11)
        fresh = build_workload(spec, seed=11)
        assert [s.job_id for s in cached] == [s.job_id for s in fresh]
        assert [s.arrival_time for s in cached] == [s.arrival_time for s in fresh]
        assert [s.dag.total_work for s in cached] == [
            s.dag.total_work for s in fresh
        ]

    def test_repeated_requests_share_submissions(self):
        spec = WorkloadSpec(num_jobs=4, tpch_scales=(2,))
        first = memoized_workload(spec, seed=12)
        second = memoized_workload(spec, seed=12)
        assert first is not second  # fresh list per caller
        assert all(a is b for a, b in zip(first, second))  # cached contents

    def test_distinct_seeds_do_not_collide(self):
        spec = WorkloadSpec(num_jobs=4, tpch_scales=(2,))
        a = memoized_workload(spec, seed=1)
        b = memoized_workload(spec, seed=2)
        assert [s.arrival_time for s in a] != [s.arrival_time for s in b]

    def test_workload_for_uses_config_fields(self):
        config = ExperimentConfig(
            workload=WorkloadSpec(num_jobs=3, tpch_scales=(2,)), seed=6
        )
        subs = workload_for(config)
        assert len(subs) == 3
        assert subs == memoized_workload(config.workload, 6)
