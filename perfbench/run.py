#!/usr/bin/env python3
"""Host-time benchmark of the PCAPS/CAP reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload pcaps-batch --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --selftest

``--trace 0`` times units of the workload (trials, streams or campaign
passes) with observability off, checks every output, and reports the
end-to-end metrics. ``--trace 1`` wraps each layer's public entry points
from this directory (see ``spans.py``), runs one untraced and one traced
unit of the first input, and reports per-layer counts, total and self
times. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. Spans are written to
``.perfbench/`` at the repository root.
"""

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"

#: Fresh processes whose set-up time is measured per run; the median is
#: reported.
SETUP_PROBES = 5

#: Layers the per-layer table predicts to hold the largest self-time share
#: of a traced unit (``REASONING.md``).
PREDICTED_DOMINANT = {
    "pcaps-batch": ("schedulers",),
    "cap-fifo-backlog": ("state",),
    "stream-fifo": ("trace", "simulator"),
}


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path, or fail clearly."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources at {src}")
    sys.path.insert(0, str(src))


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _peak_rss_mb() -> float:
    """High-water RSS of this process and of every reaped child (pool
    workers, set-up probes), in MiB."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


def _reap_children() -> None:
    for child in multiprocessing.active_children():
        child.join(timeout=60)


def _highest_percentile(count: int) -> int | None:
    """Highest of p50/p90/p99 with at least ten samples beyond it."""
    for pct in (99, 90, 50):
        if count * (100 - pct) / 100 >= 10:
            return pct
    return None


def _setup_time(workload_name: str, seed: int, tiny: bool) -> float:
    """Set-up time of one fresh process (see ``_setup_probe``)."""
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--setup-probe",
        "--workload",
        workload_name,
        "--seed",
        str(seed),
    ] + (["--tiny"] if tiny else [])
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def _setup_probe(args) -> None:
    """Child mode: import, synthesize, start the pool; report the host
    seconds from interpreter start-up to the end of set-up."""
    import suite

    OUT_DIR.mkdir(exist_ok=True)
    workload = suite.build(args.workload, args.tiny, OUT_DIR / f"probe-{args.seed}")
    workload.out_dir.mkdir(exist_ok=True)
    workload.setup(workload.inputs(args.seed))
    elapsed = time.perf_counter() - _PROCESS_START
    workload.cleanup()
    workload.out_dir.rmdir()
    print(json.dumps({"setup_s": elapsed}))


# ----------------------------------------------------------------------
# Timed run
# ----------------------------------------------------------------------
def timed_run(workload, args) -> tuple[dict, int, int, list[str]]:
    """Round-robin over the run's inputs until ``--seconds`` have passed and
    every input ran ``workload.min_repeats`` times, then ``SETUP_PROBES``
    fresh-process set-up probes.

    Every unit and probe is timed between calibration kernel runs and
    rescaled to the reference host (``calibrate.py``); an input's time is
    the median of its rescaled repeats, and the time metrics combine the
    inputs' medians.
    """
    from calibrate import REFERENCE_S, Calibrated

    inputs = workload.setup(workload.inputs(args.seed))
    ref = workload.reference(inputs[0])
    expected = {0: ref.fingerprint}
    clock = Calibrated()
    units = []
    start = time.perf_counter()
    while True:
        index = len(units) % len(inputs)
        raw, measured, scale = clock.measure(workload.run, inputs[index])
        unit = workload.digest(index, inputs[index], raw, ref)
        del raw
        workload.cleanup()
        unit.wall_s = measured * scale
        unit.host_wall_s = measured
        if unit.fingerprint != expected.setdefault(index, unit.fingerprint):
            unit.problems.append("output differs from an earlier run of this input")
        units.append(unit)
        if (
            len(units) >= workload.min_repeats * len(inputs)
            and time.perf_counter() - start >= args.seconds
        ):
            break
    _reap_children()
    setup = []
    for _ in range(1 if args.tiny else SETUP_PROBES):
        probe, _, scale = clock.measure(_setup_time, workload.name, args.seed, args.tiny)
        setup.append(probe * scale)
    _reap_children()

    per_input = {}
    for unit in units:
        per_input.setdefault(unit.index, []).append(unit)
    median_wall = {i: statistics.median(u.wall_s for u in us) for i, us in per_input.items()}
    first = {i: us[0] for i, us in per_input.items()}
    busy = sum(median_wall.values())
    metrics = {
        "wall_s": _metric(busy / len(per_input), "s"),
        "events_per_s": _metric(sum(u.events for u in first.values()) / busy, "1/s"),
        "jobs_per_s": _metric(sum(u.jobs for u in first.values()) / busy, "1/s"),
        "trials_per_min": _metric(
            60.0 * sum(u.trials for u in first.values()) / busy, "1/min"
        ),
        "setup_s": _metric(statistics.median(setup), "s"),
        "peak_rss_mb": _metric(_peak_rss_mb(), "MB"),
    }
    # The paper metrics are printed, not gated. They repeat exactly for a
    # fixed seed (the fingerprint check), so their seed-to-seed spread is
    # input variety: a stream's mean JCT moves ~15% and a campaign pass's
    # mean footprint ~20% between seeds, wider than any allowed bound.
    simulated = {
        "carbon_footprint": statistics.fmean(u.carbon for u in first.values()),
        "avg_jct_s": statistics.fmean(u.jct for u in first.values()),
    }
    attempted = ref.trials + sum(u.trials for u in units)
    failed = (ref.trials if ref.problems else 0) + sum(
        u.trials for u in units if u.problems
    )
    problems = ref.problems + [p for u in units for p in u.problems]

    walls = [u.wall_s for u in units]
    pct = _highest_percentile(len(walls))
    tail = (
        f"p{pct} {statistics.quantiles(walls, n=100)[pct - 1]:.4f} s"
        if pct
        else f"max {max(walls):.4f} s, no percentile has 10 samples beyond it"
    )
    repeats = (
        f"medians of {len(units) // len(per_input)}+ repeats of each of "
        f"{len(per_input)} inputs"
    )
    notes = {
        "wall_s": f"mean over inputs of the {repeats}",
        "setup_s": f"median of n={len(setup)} fresh processes",
        "peak_rss_mb": "high-water mark of the run's processes",
    }
    print(
        f"perfbench {workload.name} seed={args.seed} seconds={args.seconds} "
        f"inputs={len(inputs)} units={len(units)}"
    )
    kernels = clock.kernels
    print(
        f"  host: calibration kernel median {statistics.median(kernels):.4f} s "
        f"(min {min(kernels):.4f}, max {max(kernels):.4f}, n={len(kernels)}); "
        f"reference {REFERENCE_S} s; times below are reference seconds"
    )
    print(
        f"  all units: median {statistics.median(walls):.4f} s ({tail}), n={len(walls)}"
    )
    print(
        "  input: host s -> reference s: "
        + " ".join(f"{u.index}:{u.host_wall_s:.3f}->{u.wall_s:.3f}" for u in units)
    )
    for name, metric in metrics.items():
        note = notes.get(name, f"over the {repeats}")
        print(f"  {name:<17} {metric['value']:>16.6g} {metric['unit']:<8} {note}")
    for name, value in simulated.items():
        unit = "g/kWh.s" if name == "carbon_footprint" else "s"
        print(
            f"  {name:<17} {value:>16.6g} {unit:<8} mean over "
            f"n={len(per_input)} inputs (simulated; not in the JSON)"
        )
    print(
        f"  {'failure_ratio':<17} {failed / attempted:>16.6g} {'-':<8} "
        f"{failed}/{attempted} trials failed a check (JSON: failed/attempted)"
    )
    return metrics, attempted, failed, problems


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------
def traced_run(workload, args) -> tuple[dict, int, int, list[str]]:
    from calibrate import Calibrated
    from spans import LAYER_OF, LAYERS, Tracer, quantile

    tracer = Tracer()
    descriptors = workload.inputs(args.seed)
    tracer.install()
    setup_first = len(tracer.spans)
    try:
        inputs = tracer.span("setup", workload.setup, descriptors)
    finally:
        tracer.uninstall()
    setup_rows = tracer.summary(setup_first)

    inp = inputs[0]
    ref = workload.reference(inp)
    clock = Calibrated()
    raw, plain_wall, plain_scale = clock.measure(workload.run, inp, inline=True)
    plain = workload.digest(0, inp, raw, ref)
    del raw
    workload.cleanup()

    tracer.deferred = tracer.useful = 0
    tracer.install()
    unit_first = len(tracer.spans)
    try:
        raw, traced_wall, traced_scale = clock.measure(
            tracer.span, "unit", workload.run, inp, True
        )
    finally:
        tracer.uninstall()
    traced = workload.digest(0, inp, raw, ref)
    del raw
    workload.cleanup()
    _reap_children()
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"{workload.name}-seed{args.seed}.spans.json")

    rows = tracer.summary(unit_first)

    def get(name: str, key: str) -> float:
        return rows.get(name, {}).get(key, 0)

    def both(name: str, key: str) -> float:
        return get(name, key) + setup_rows.get(name, {}).get(key, 0)

    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, row in rows.items():
        layer_self[LAYER_OF[name]] += row["self_s"]
    selects = int(get("schedulers.select", "calls"))
    select_us = [d * 1e6 for d in tracer.durations("schedulers.select", unit_first)]
    m = {
        "workloads.build_s": (
            both("workloads.build", "total_s") + both("workloads.take", "total_s"), "s"
        ),
        "workloads.jobs": (traced.jobs, "count"),
        "carbon.synth_s": (both("carbon.synth", "total_s"), "s"),
        "carbon.reading.calls": (int(get("carbon.reading", "calls")), "count"),
        "carbon.reading_s": (get("carbon.reading", "total_s"), "s"),
        "carbon.tally_s": (get("carbon.tally", "total_s"), "s"),
        "simulator.step.calls": (int(get("simulator.step", "calls")), "count"),
        "simulator.step_s": (get("simulator.step", "total_s"), "s"),
        "simulator.self_s": (get("simulator.step", "self_s"), "s"),
        "simulator.events": (traced.events, "count"),
        "simulator.retire_s": (get("simulator.retire", "total_s"), "s"),
        "state.frontier.calls": (int(get("state.frontier", "calls")), "count"),
        "state.frontier_s": (get("state.frontier", "total_s"), "s"),
        "schedulers.select.calls": (selects, "count"),
        "schedulers.select_s": (get("schedulers.select", "total_s"), "s"),
        "schedulers.score_s": (get("schedulers.select", "self_s"), "s"),
        "schedulers.select.p50_us": (quantile(select_us, 0.50), "us"),
        "schedulers.select.p99_us": (quantile(select_us, 0.99), "us"),
        "schedulers.select.blocked": (selects - tracer.deferred - tracer.useful, "count"),
        "schedulers.select.deferred": (tracer.deferred, "count"),
        "schedulers.select.useful_ratio": (
            tracer.useful / selects if selects else 0.0, "ratio"
        ),
        "core.quota.calls": (int(get("core.quota", "calls")), "count"),
        "core.quota_s": (get("core.quota", "total_s"), "s"),
        "trace.append.calls": (int(get("trace.append", "calls")), "count"),
        "trace.append_s": (get("trace.append", "total_s"), "s"),
        "stream.epoch.calls": (int(get("stream.epoch", "calls")), "count"),
        "stream.epoch_s": (get("stream.epoch", "total_s"), "s"),
        "campaign.trial_s": (plain.trial_s, "s"),
        "campaign.overhead_s": (plain_wall - plain.trial_s if plain.trial_s else 0.0, "s"),
        "campaign.store.append.calls": (int(get("campaign.store.append", "calls")), "count"),
        "campaign.store.append_s": (get("campaign.store.append", "total_s"), "s"),
        "geo.route.calls": (int(get("geo.route", "calls")), "count"),
        "geo.route_s": (get("geo.route", "total_s"), "s"),
        "geo.migrations": (ref.migrations, "count"),
        "disrupt.preempted_tasks": (ref.preempted_tasks, "count"),
    }
    for layer in LAYERS:
        m[f"self_share.{layer}"] = (layer_self[layer] / traced_wall, "ratio")
    self_sum = sum(row["self_s"] for row in rows.values())
    # Rescaled like the timed units: the two walls are seconds apart and the
    # host's speed can change in between.
    overhead = traced_wall * traced_scale - plain_wall * plain_scale
    m["tracing.overhead_s"] = (overhead, "s")
    m["tracing.self_sum_share"] = (self_sum / traced_wall, "ratio")
    m["tracing.spans"] = (len(tracer.spans) - unit_first, "count")
    metrics = {name: _metric(value, unit) for name, (value, unit) in m.items()}

    for unit in (plain, traced):
        if unit.fingerprint != ref.fingerprint:
            unit.problems.append("output differs from the reference run of this input")
    problems = ref.problems + plain.problems + traced.problems
    attempted = ref.trials + plain.trials + traced.trials
    failed = sum(u.trials for u in (ref, plain, traced) if u.problems)

    ranked = sorted(LAYERS, key=lambda layer: -layer_self[layer])
    print(
        f"perfbench {workload.name} seed={args.seed} traced unit: "
        f"{traced_wall:.4f} s traced, {plain_wall:.4f} s untraced, "
        f"{m['tracing.spans'][0]} spans"
    )
    print("  layer       self_s     share")
    for layer in ranked:
        print(f"  {layer:<10} {layer_self[layer]:>8.4f}  {layer_self[layer] / traced_wall:>7.1%}")
    print(
        f"  self times sum to {self_sum / traced_wall:.2%} of traced wall; "
        f"tracing overhead {overhead:+.4f} reference s"
    )
    predicted = PREDICTED_DOMINANT.get(workload.name)
    if predicted:
        top = tuple(ranked[: len(predicted)])
        verdict = "confirmed" if set(top) == set(predicted) else "NOT confirmed"
        print(f"  predicted largest self time: {'+'.join(predicted)}; measured: {'+'.join(top)} -> {verdict}")
    for name, metric in metrics.items():
        print(f"  {name:<32} {metric['value']:>14.6g} {metric['unit']}")
    return metrics, attempted, failed, problems


# ----------------------------------------------------------------------
# Self-test
# ----------------------------------------------------------------------
def selftest() -> int:
    """Every workload at tiny size, both modes: every metric named in
    ``BENCHMARK.json`` must appear with its unit, and outputs must check."""
    import suite

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    names = [w["name"] for w in spec["workloads"]]
    errors = []
    if sorted(names) != sorted(suite.WORKLOAD_NAMES):
        errors.append(f"BENCHMARK.json workloads {names} != {suite.WORKLOAD_NAMES}")
    for name in names:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=170,
            )
            where = f"{name} --trace {trace}"
            if proc.returncode != 0:
                errors.append(f"{where}: exit {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                errors.append(f"{where}: keys {sorted(result)}")
                continue
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                errors.append(f"{where}: outputs failed checks\n{proc.stdout}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != wanted[trace]:
                missing = sorted(set(wanted[trace].items()) - set(got.items()))
                extra = sorted(set(got.items()) - set(wanted[trace].items()))
                errors.append(f"{where}: missing {missing}, unexpected {extra}")
            print(f"selftest {where}: {len(got)} metrics", flush=True)
    for error in errors:
        print(f"selftest FAILED {error}", file=sys.stderr)
    print("selftest ok" if not errors else f"selftest: {len(errors)} failures")
    return 1 if errors else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-test sizes")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _import_program()
    if args.selftest:
        return selftest()
    import suite

    if args.workload not in suite.WORKLOAD_NAMES:
        parser.error(f"--workload must be one of {', '.join(suite.WORKLOAD_NAMES)}")
    if args.setup_probe:
        _setup_probe(args)
        return 0

    OUT_DIR.mkdir(exist_ok=True)
    workload = suite.build(args.workload, args.tiny, OUT_DIR)
    try:
        run = traced_run if args.trace else timed_run
        metrics, attempted, failed, problems = run(workload, args)
    finally:
        workload.cleanup()
        _reap_children()
    for problem in problems[:20]:
        print(f"  CHECK FAILED: {problem}")
    print(
        json.dumps(
            {
                "correct": failed == 0 and not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
