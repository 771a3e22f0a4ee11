"""Series producers for the paper's figures.

Each function regenerates the data behind one figure (we print/return series
rather than render images: the benchmark harness reports the same rows the
paper plots). Scales are reduced to laptop size; see DESIGN.md Section 4 for
the per-figure mapping.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.carbon.grids import GRID_CODES, synthesize_trace
from repro.experiments.runner import (
    ExperimentConfig,
    carbon_trace_for,
    run_experiment,
    run_matchup,
)
from repro.simulator.metrics import ExperimentResult, compare_to_baseline
from repro.simulator.trace import busy_executor_series, executor_timeline
from repro.workloads.batch import WorkloadSpec

# ----------------------------------------------------------------------
# Fig. 5 — carbon-intensity snapshots
# ----------------------------------------------------------------------
def fig5_series(
    hours: int = 48, start_step: int = 360, seed: int = 0
) -> dict[str, np.ndarray]:
    """48-hour carbon series for all six grids (Fig. 5)."""
    series = {}
    for offset, code in enumerate(GRID_CODES):
        trace = synthesize_trace(code, hours=start_step + hours, seed=seed + offset)
        series[code] = trace.values[start_step : start_step + hours].copy()
    return series


# ----------------------------------------------------------------------
# Fig. 6 — executor usage over time on a small cluster
# ----------------------------------------------------------------------
@dataclass
class Fig6Data:
    """Executor-occupancy grids for the three compared schedulers."""

    timelines: dict[str, np.ndarray]  # scheduler -> [executors x time buckets]
    carbon: np.ndarray  # per-bucket carbon intensity
    resolution: float
    results: dict[str, ExperimentResult]


def fig6_executor_usage(
    num_executors: int = 5,
    num_jobs: int = 20,
    grid: str = "DE",
    seed: int = 3,
    resolution: float = 10.0,
) -> Fig6Data:
    """Fig. 6: Decima vs PCAPS vs CAP-FIFO executor timelines (DE grid)."""
    config = ExperimentConfig(
        grid=grid,
        num_executors=num_executors,
        workload=WorkloadSpec(
            family="tpch", num_jobs=num_jobs, tpch_scales=(2, 10)
        ),
        seed=seed,
    )
    results = run_matchup(["decima", "pcaps", "cap-fifo"], config)
    horizon = max(r.ect for r in results.values())
    timelines = {
        name: executor_timeline(r.trace, resolution=resolution)
        for name, r in results.items()
    }
    trace = results["decima"].carbon_trace
    buckets = int(np.ceil(horizon / resolution)) + 1
    carbon = np.array(
        [trace.intensity_at(i * resolution) for i in range(buckets)]
    )
    return Fig6Data(
        timelines=timelines, carbon=carbon, resolution=resolution, results=results
    )


# ----------------------------------------------------------------------
# Figs. 7/8/11/12 — carbon-awareness sweeps
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepPoint:
    parameter: float
    carbon_reduction_pct: float
    ect_ratio: float
    jct_ratio: float


def _sweep_config() -> ExperimentConfig:
    return ExperimentConfig(
        grid="DE",
        num_executors=25,
        workload=WorkloadSpec(family="tpch", num_jobs=20),
        seed=5,
    )


def gamma_sweep_configs(
    gammas: tuple[float, ...], baseline: str, config: ExperimentConfig
) -> list[ExperimentConfig]:
    """The baseline's config, then PCAPS's at each γ (validated now)."""
    return [replace(config, scheduler=baseline)] + [
        replace(config, scheduler="pcaps", gamma=gamma) for gamma in gammas
    ]


def cap_b_sweep_configs(
    quotas: tuple[int, ...], underlying: str, config: ExperimentConfig
) -> list[ExperimentConfig]:
    """The underlying's config, then CAP's at each B (validated now)."""
    return [replace(config, scheduler=underlying)] + [
        replace(config, scheduler=f"cap-{underlying}", cap_min_quota=quota)
        for quota in quotas
    ]


def _run_sweep(parameters, configs: list[ExperimentConfig]) -> list[SweepPoint]:
    """Run the baseline (first config), then each point against it."""
    trace = carbon_trace_for(configs[0])
    base = run_experiment(configs[0], carbon_trace=trace)
    points = []
    for parameter, config in zip(parameters, configs[1:]):
        m = compare_to_baseline(run_experiment(config, carbon_trace=trace), base)
        points.append(
            SweepPoint(parameter, m.carbon_reduction_pct, m.ect_ratio, m.jct_ratio)
        )
    return points


def pcaps_gamma_sweep(
    gammas: tuple[float, ...] = (0.1, 0.25, 0.5, 0.75, 0.9),
    baseline: str = "fifo",
    config: ExperimentConfig | None = None,
) -> list[SweepPoint]:
    """Figs. 7/11: carbon vs ECT across PCAPS's γ (relative to a baseline)."""
    configs = gamma_sweep_configs(gammas, baseline, config or _sweep_config())
    return _run_sweep(gammas, configs)


def cap_b_sweep(
    quotas: tuple[int, ...] = (2, 5, 8, 12, 16, 20),
    underlying: str = "fifo",
    config: ExperimentConfig | None = None,
) -> list[SweepPoint]:
    """Figs. 8/12: carbon vs ECT across CAP's minimum quota B."""
    configs = cap_b_sweep_configs(quotas, underlying, config or _sweep_config())
    return _run_sweep([float(quota) for quota in quotas], configs)


# ----------------------------------------------------------------------
# Fig. 9 — per-job JCT vs per-job carbon quadrants
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PerJobPoint:
    scheduler: str
    trial: int
    jct_ratio: float
    carbon_ratio: float


def fig9_perjob_trials(
    num_trials: int = 8,
    config: ExperimentConfig | None = None,
) -> tuple[list[PerJobPoint], dict[str, dict[str, float]]]:
    """Fig. 9: per-trial average JCT and per-job carbon, both vs default.

    Returns the scatter points plus per-scheduler quadrant percentages
    (fraction of trials in each of the four quadrants around (1, 1)).
    """
    base_config = config or ExperimentConfig(
        mode="kubernetes",
        num_executors=24,
        per_job_cap=6,
        workload=WorkloadSpec(family="tpch", num_jobs=15),
    )
    points: list[PerJobPoint] = []
    for trial in range(num_trials):
        trial_config = replace(
            base_config,
            seed=trial,
            trace_start_step=trial * 977 % 20_000,
        )
        results = run_matchup(
            ["k8s-default", "pcaps", "cap-k8s-default"], trial_config
        )
        base = results["k8s-default"]
        base_carbon = np.mean(list(base.per_job_carbon().values()))
        for name in ("pcaps", "cap-k8s-default"):
            result = results[name]
            carbon = np.mean(list(result.per_job_carbon().values()))
            points.append(
                PerJobPoint(
                    scheduler=name,
                    trial=trial,
                    jct_ratio=result.avg_jct / base.avg_jct,
                    carbon_ratio=float(carbon / base_carbon),
                )
            )
    quadrants: dict[str, dict[str, float]] = {}
    for name in ("pcaps", "cap-k8s-default"):
        mine = [p for p in points if p.scheduler == name]
        n = max(len(mine), 1)
        quadrants[name] = {
            "less_carbon": 100.0 * sum(p.carbon_ratio < 1 for p in mine) / n,
            "less_carbon_and_faster": 100.0
            * sum(p.carbon_ratio < 1 and p.jct_ratio < 1 for p in mine)
            / n,
        }
    return points, quadrants


# ----------------------------------------------------------------------
# Figs. 10/14 — per-grid behaviour
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GridRow:
    grid: str
    coeff_var: float
    scheduler: str
    carbon_reduction_pct: float
    ect_ratio: float


def grid_comparison(
    mode: str = "standalone",
    schedulers: tuple[str, ...] = ("decima", "cap-fifo", "pcaps"),
    baseline: str = "fifo",
    num_executors: int = 25,
    num_jobs: int = 15,
    seed: int = 2,
) -> list[GridRow]:
    """Figs. 10/14: carbon reduction and ECT per grid region.

    The paper's observation: grids with higher coefficients of variation
    (more renewables) admit more carbon reduction.
    """
    rows = []
    for grid in GRID_CODES:
        config = ExperimentConfig(
            grid=grid,
            mode=mode,
            num_executors=num_executors,
            per_job_cap=max(2, num_executors // 4),
            workload=WorkloadSpec(family="tpch", num_jobs=num_jobs),
            seed=seed,
        )
        results = run_matchup(list(schedulers) + [baseline], config)
        base = results[baseline]
        cov = synthesize_trace(grid, hours=2000, seed=0).stats().coeff_var
        for name in schedulers:
            m = compare_to_baseline(results[name], base)
            rows.append(
                GridRow(
                    grid=grid,
                    coeff_var=cov,
                    scheduler=name,
                    carbon_reduction_pct=m.carbon_reduction_pct,
                    ect_ratio=m.ect_ratio,
                )
            )
    return rows


# ----------------------------------------------------------------------
# Fig. 13 — PCAPS vs CAP-Decima trade-off frontier
# ----------------------------------------------------------------------
def fig13_frontier(
    gammas: tuple[float, ...] = (0.2, 0.4, 0.5, 0.6, 0.8, 0.95),
    quotas: tuple[int, ...] = (2, 4, 6, 9, 13, 18),
    config: ExperimentConfig | None = None,
) -> dict[str, list[SweepPoint]]:
    """Fig. 13: carbon/ECT points for PCAPS (γ grid) vs CAP-Decima (B grid).

    Both families share the identical workload and the Decima baseline, so
    differences isolate the value of relative importance (Section 6.4).
    """
    config = config or ExperimentConfig(
        grid="DE",
        num_executors=25,
        workload=WorkloadSpec(family="tpch", num_jobs=20),
        seed=11,
    )
    trace = carbon_trace_for(config)
    base = run_experiment(replace(config, scheduler="decima"), carbon_trace=trace)
    pcaps_points = []
    for gamma in gammas:
        r = run_experiment(
            replace(config, scheduler="pcaps", gamma=gamma), carbon_trace=trace
        )
        m = compare_to_baseline(r, base)
        pcaps_points.append(
            SweepPoint(gamma, m.carbon_reduction_pct, m.ect_ratio, m.jct_ratio)
        )
    cap_points = []
    for quota in quotas:
        r = run_experiment(
            replace(config, scheduler="cap-decima", cap_min_quota=quota),
            carbon_trace=trace,
        )
        m = compare_to_baseline(r, base)
        cap_points.append(
            SweepPoint(float(quota), m.carbon_reduction_pct, m.ect_ratio, m.jct_ratio)
        )
    return {"pcaps": pcaps_points, "cap-decima": cap_points}


# ----------------------------------------------------------------------
# Fig. 15 — standalone FIFO vs Spark/Kubernetes default
# ----------------------------------------------------------------------
@dataclass
class Fig15Data:
    times: dict[str, np.ndarray]
    busy: dict[str, np.ndarray]
    jobs_in_system: dict[str, np.ndarray]
    results: dict[str, ExperimentResult]


def fig15_fifo_vs_k8s(
    num_executors: int = 25,
    num_jobs: int = 20,
    grid: str = "DE",
    seed: int = 4,
    resolution: float = 5.0,
) -> Fig15Data:
    """Fig. 15: identical batch under standalone FIFO vs the K8s default."""
    from repro.simulator.trace import jobs_in_system_series

    workload = WorkloadSpec(family="tpch", num_jobs=num_jobs)
    modes = {
        "fifo-standalone": ExperimentConfig(
            scheduler="fifo",
            grid=grid,
            mode="standalone",
            num_executors=num_executors,
            workload=workload,
            seed=seed,
        ),
        "k8s-default": ExperimentConfig(
            scheduler="k8s-default",
            grid=grid,
            mode="kubernetes",
            num_executors=num_executors,
            per_job_cap=max(2, num_executors // 4),
            workload=workload,
            seed=seed,
        ),
    }
    results = {name: run_experiment(cfg) for name, cfg in modes.items()}
    horizon = max(r.ect for r in results.values())
    times, busy, jobs_sys = {}, {}, {}
    for name, result in results.items():
        t, b = busy_executor_series(result.trace, t_end=horizon, resolution=resolution)
        times[name], busy[name] = t, b
        _, j = jobs_in_system_series(
            result.arrivals, result.finishes, t_end=horizon, resolution=resolution
        )
        jobs_sys[name] = j
    return Fig15Data(times=times, busy=busy, jobs_in_system=jobs_sys, results=results)


# ----------------------------------------------------------------------
# Figs. 16-19 — batch size and interarrival sweeps
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LoadSweepRow:
    parameter: float
    scheduler: str
    carbon_reduction_pct: float
    ect_ratio: float
    jct_ratio: float


def jobcount_sweep(
    job_counts: tuple[int, ...] = (6, 12, 25, 50),
    schedulers: tuple[str, ...] = ("decima", "cap-fifo", "pcaps"),
    baseline: str = "fifo",
    mode: str = "standalone",
    num_executors: int = 25,
    seed: int = 6,
) -> list[LoadSweepRow]:
    """Figs. 16/17: metrics vs total number of jobs (DE grid)."""
    rows = []
    for count in job_counts:
        config = ExperimentConfig(
            grid="DE",
            mode=mode,
            num_executors=num_executors,
            per_job_cap=max(2, num_executors // 4),
            workload=WorkloadSpec(family="tpch", num_jobs=count),
            seed=seed,
        )
        results = run_matchup(list(schedulers) + [baseline], config)
        base = results[baseline]
        for name in schedulers:
            m = compare_to_baseline(results[name], base)
            rows.append(
                LoadSweepRow(
                    parameter=float(count),
                    scheduler=name,
                    carbon_reduction_pct=m.carbon_reduction_pct,
                    ect_ratio=m.ect_ratio,
                    jct_ratio=m.jct_ratio,
                )
            )
    return rows


def interarrival_sweep(
    interarrivals: tuple[float, ...] = (10.0, 20.0, 30.0, 60.0),
    schedulers: tuple[str, ...] = ("decima", "cap-fifo", "pcaps"),
    baseline: str = "fifo",
    mode: str = "standalone",
    num_executors: int = 25,
    num_jobs: int = 20,
    seed: int = 6,
) -> list[LoadSweepRow]:
    """Figs. 18/19: metrics vs Poisson mean interarrival time (DE grid)."""
    rows = []
    for gap in interarrivals:
        config = ExperimentConfig(
            grid="DE",
            mode=mode,
            num_executors=num_executors,
            per_job_cap=max(2, num_executors // 4),
            workload=WorkloadSpec(
                family="tpch", num_jobs=num_jobs, mean_interarrival=gap
            ),
            seed=seed,
        )
        results = run_matchup(list(schedulers) + [baseline], config)
        base = results[baseline]
        for name in schedulers:
            m = compare_to_baseline(results[name], base)
            rows.append(
                LoadSweepRow(
                    parameter=gap,
                    scheduler=name,
                    carbon_reduction_pct=m.carbon_reduction_pct,
                    ect_ratio=m.ect_ratio,
                    jct_ratio=m.jct_ratio,
                )
            )
    return rows


# ----------------------------------------------------------------------
# Fig. 20 — scheduler invocation latency
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LatencyRow:
    scheduler: str
    queued_jobs: int
    avg_latency_ms: float
    invocations: int


def latency_profile(
    queue_lengths: tuple[int, ...] = (1, 5, 10, 25),
    schedulers: tuple[str, ...] = ("fifo", "cap-fifo", "decima", "pcaps"),
    num_executors: int = 25,
    grid: str = "DE",
) -> list[LatencyRow]:
    """Fig. 20: mean scheduler-invocation latency vs queue length.

    All jobs arrive at t=0 so the scheduler faces ``N`` queued jobs; latency
    is wall-clock time inside ``select`` per invocation.
    """
    rows = []
    for count in queue_lengths:
        for name in schedulers:
            config = ExperimentConfig(
                scheduler=name,
                grid=grid,
                num_executors=num_executors,
                workload=WorkloadSpec(
                    family="tpch",
                    num_jobs=count,
                    mean_interarrival=1e-6,  # effectively simultaneous
                    tpch_scales=(2,),
                ),
                seed=1,
                measure_latency=True,
            )
            result = run_experiment(config)
            rows.append(
                LatencyRow(
                    scheduler=name,
                    queued_jobs=count,
                    avg_latency_ms=result.avg_scheduler_latency_s * 1e3,
                    invocations=result.scheduler_invocations,
                )
            )
    return rows
