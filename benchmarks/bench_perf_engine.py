"""Engine throughput: the fast-path simulation engine regression gate.

Unlike the per-figure benches (which regenerate paper artifacts), this one
times the engine itself: complete trials across a scheduler × job-count
grid, reporting events/s, tasks/s, and Fig. 20-style select latency. The
measurements are written to ``BENCH_engine.json`` so successive PRs can
diff engine throughput, and compared against the recorded pre-refactor
wall times (commit 50c23a5) — the fast-path work (incremental frontier
tracking, cached scheduler state, O(1) executor-pool affinity, vectorized
ex-post carbon accounting, and the columnar ``FrontierArrays`` scheduler
path) must keep the 200-job Decima+PCAPS trial at least
``PCAPS_200_SPEEDUP_FLOOR`` times faster than that baseline.

Re-recording the gate after an intentional engine change: see
``docs/benchmarks.md`` ("Re-recording the perf gate").
"""

from repro.experiments.perf import (
    PRE_REFACTOR_BASELINE_S,
    PerfScenario,
    build_scenarios,
    format_report,
    run_scenario,
    run_suite,
    write_report,
)

from _report import emit, run_once

#: fifo-200 wall seconds on the post-refactor engine, measured on the same
#: container as PRE_REFACTOR_BASELINE_S — the machine-speed calibration
#: anchor for the speedup gate below.
POST_REFACTOR_FIFO_200_S = 0.114

#: The pcaps-200 speedup gate. With the per-pass scoring session serving
#: PCAPS's blocked retries, the gate measures 11.1-11.2× vs the
#: pre-refactor engine (best-of-3, three runs on a 2-CPU container; the
#: parent commit measured 7.99× there); the floor is set ~15% below that
#: so machine noise doesn't flake the gate while regressions to the
#: previous ~8-9.3× level still fail it.
PCAPS_200_SPEEDUP_FLOOR = 9.4

#: Noise control for the gate: wall times are best-of-N re-measurements of
#: the two scenarios entering the speedup ratio (the single-shot suite run
#: above is reported, but a one-shot ratio of two noisy timings flakes).
GATE_MEASUREMENT_ROUNDS = 3


def test_engine_throughput(benchmark):
    scenarios = build_scenarios(
        schedulers=("fifo", "decima", "pcaps"), job_counts=(50, 100, 200)
    )
    measurements = run_once(benchmark, run_suite, scenarios)
    emit("Engine throughput — BENCH_engine", format_report(measurements).splitlines())
    write_report(measurements, "BENCH_engine.json")

    benchmark.extra_info["events_per_s"] = {
        m.name: round(m.events_per_s) for m in measurements
    }
    benchmark.extra_info["speedup"] = {
        m.name: m.speedup_vs_pre_refactor
        for m in measurements
        if m.speedup_vs_pre_refactor is not None
    }

    # Every trial completes and produces work at a sane rate.
    for m in measurements:
        assert m.tasks > 0 and m.events > 0 and m.wall_s > 0
    # The headline acceptance gate: the 200-job Decima+PCAPS standalone
    # trial runs >= PCAPS_200_SPEEDUP_FLOOR times faster than the
    # pre-refactor engine. The recorded baseline is machine-specific, so
    # rescale it by this machine's speed first, using the fifo-200 trial
    # as the calibration probe (same engine, dominated by the same event
    # loop, barely touched by the PCAPS-specific costs): a machine that
    # runs fifo-200 2x slower than the recording machine is allowed 2x
    # the baseline wall time. Both timings entering the ratio are
    # best-of-N so one noisy sample can't flake the gate.
    fifo_wall = min(
        run_scenario(
            PerfScenario(name="fifo-200", scheduler="fifo", num_jobs=200)
        ).wall_s
        for _ in range(GATE_MEASUREMENT_ROUNDS)
    )
    pcaps_wall = min(
        run_scenario(
            PerfScenario(name="pcaps-200", scheduler="pcaps", num_jobs=200)
        ).wall_s
        for _ in range(GATE_MEASUREMENT_ROUNDS)
    )
    machine_scale = fifo_wall / POST_REFACTOR_FIFO_200_S
    scaled_baseline = PRE_REFACTOR_BASELINE_S["pcaps-200"] * machine_scale
    speedup = scaled_baseline / pcaps_wall
    benchmark.extra_info["gate"] = {
        "pcaps_200_speedup": round(speedup, 2),
        "floor": PCAPS_200_SPEEDUP_FLOOR,
    }
    assert speedup >= PCAPS_200_SPEEDUP_FLOOR
