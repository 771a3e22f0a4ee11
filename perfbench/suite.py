"""The benchmark's workloads, driven only through the program's public API.

Each workload turns the benchmark seed into a fixed list of inputs, sets
them up (carbon traces, job batches, caches), runs one *unit* per call (a
trial, a stream, or a campaign pass) and checks what the unit produced.

Why these four (one line each is also in ``BENCHMARK.json``):

- ``pcaps-batch``: the paper's scheduler at the pcaps-200 shape, where
  scoring, frontier arrays and blocked retries dominate.
- ``cap-fifo-backlog``: CAP's quota binds and the FIFO backlog grows, so the
  tuple-view frontier walk dominates and scoring is absent; the bypass case
  for any scoring optimization.
- ``stream-fifo``: jobs fed in flight and retired, records folded online by
  the streaming aggregator; scoring stays small.
- ``campaign-sweep``: the only workload that reaches the campaign pool and
  store, geo routing and federation, and disruption handling.
"""

from __future__ import annotations

import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

import numpy as np

from audit import audit_federation, audit_result, audit_schedule

#: Campaign pool size. ``CampaignRunner`` runs trials inline for 0 or 1
#: workers, so 2 is the smallest pool it builds (one worker per core on a
#: 2-core host).
POOL_WORKERS = 2

#: Arrival slot of the batch workloads: one job per 30 s on average.
SLOT_S = 30.0


def sub_seeds(tag: str, seed: int, count: int) -> list[int]:
    """``count`` independent seeds derived from the benchmark seed."""
    sequence = np.random.SeedSequence([seed, zlib.crc32(tag.encode())])
    return [int(value) for value in sequence.generate_state(count)]


def stratified_tpch(num_jobs: int, scales: tuple[int, ...], seed: int) -> list:
    """TPC-H submissions whose cost barely depends on the seed.

    Job ``i`` runs query ``i mod 22`` at scale ``scales[i mod len(scales)]``
    (22 and 3 are coprime, so every query × scale pair recurs every 66
    jobs) and arrives uniformly at random inside the ``i``-th 30 s slot, so
    the mean rate is the paper's one job per 30 s. The seed draws those
    arrival offsets. Poisson arrivals and a random job mix
    (``build_workload``) move a trial's backlog, and with it its host
    time, by 15-20% from seed to seed, more than the differences between
    commits the benchmark must resolve.
    """
    from repro.workloads.arrivals import JobSubmission
    from repro.workloads.tpch import TPCH_QUERIES, tpch_job

    offsets = np.random.default_rng(seed).uniform(0.0, SLOT_S, size=num_jobs)
    return [
        JobSubmission(
            arrival_time=float(i * SLOT_S + offsets[i]),
            dag=tpch_job(TPCH_QUERIES[i % len(TPCH_QUERIES)], scales[i % len(scales)]),
            job_id=i,
        )
        for i in range(num_jobs)
    ]


@dataclass
class Unit:
    """What one timed unit produced."""

    index: int
    #: Wall time rescaled to the reference host (``calibrate.py``).
    wall_s: float = 0.0
    host_wall_s: float = 0.0
    events: int = 0
    jobs: int = 0
    trials: int = 1
    #: Mean ex-post carbon footprint per single-cluster trial.
    carbon: float = 0.0
    #: Mean job completion time over the unit's trials (simulated s).
    jct: float = 0.0
    #: Exact outputs a repeat of the same input must reproduce.
    fingerprint: Any = None
    #: Campaign passes: the trials' own durations as the store records them.
    trial_s: float = 0.0
    problems: list[str] = field(default_factory=list)


@dataclass
class Reference:
    """An untimed, fully audited run of one input (also the warm-up)."""

    fingerprint: Any
    problems: list[str]
    events: int = 0
    trials: int = 1
    migrations: int = 0
    preempted_tasks: int = 0


class Workload:
    name: str
    why: str
    #: Distinct inputs per run; timed units cycle over them.
    inputs_per_run: int = 1
    #: Timed repeats of every input per run, at least.
    min_repeats: int = 3

    def __init__(self, tiny: bool = False, out_dir: Path | None = None) -> None:
        self.tiny = tiny
        self.out_dir = out_dir

    def inputs(self, seed: int) -> list:
        """Descriptors of this run's inputs (cheap, no synthesis)."""
        raise NotImplementedError

    def setup(self, inputs: list) -> list:
        """Synthesize what the inputs need; returns the runnable inputs."""
        raise NotImplementedError

    def cleanup(self) -> None:
        """Remove files a unit left in the output directory."""

    def run(self, inp, inline: bool = False):
        """The timed call. ``inline`` only matters for the campaign."""
        raise NotImplementedError

    def digest(self, index: int, inp, raw, ref: Reference | None) -> Unit:
        raise NotImplementedError

    def reference(self, inp) -> Reference:
        raise NotImplementedError


# ----------------------------------------------------------------------
# Single-cluster batch trials
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BatchInput:
    config: Any
    submissions: list


class BatchWorkload(Workload):
    def __init__(
        self,
        name: str,
        why: str,
        scheduler: str,
        num_jobs: int,
        inputs_per_run: int,
        min_repeats: int,
        **kwargs,
    ) -> None:
        super().__init__(**kwargs)
        self.name = name
        self.why = why
        self.scheduler = scheduler
        self.num_jobs = 12 if self.tiny else num_jobs
        self.num_executors = 10 if self.tiny else 50
        self.inputs_per_run = 2 if self.tiny else inputs_per_run
        self.min_repeats = min_repeats

    def inputs(self, seed: int) -> list:
        from repro.experiments.runner import ExperimentConfig

        # The config's own workload field is unused: trials run the
        # submissions built in setup(). Its seed drives Decima's sampling.
        return [
            (
                ExperimentConfig(
                    scheduler=self.scheduler, num_executors=self.num_executors, seed=s
                ),
                s,
            )
            for s in sub_seeds(self.name, seed, self.inputs_per_run)
        ]

    def setup(self, inputs: list) -> list:
        from repro.experiments.runner import carbon_trace_for

        for config, _ in inputs:
            carbon_trace_for(config)
        return [
            BatchInput(config, stratified_tpch(self.num_jobs, (2, 10, 50), s))
            for config, s in inputs
        ]

    def run(self, inp: BatchInput, inline: bool = False):
        from repro.experiments.runner import simulation_for

        result = simulation_for(inp.config).run(inp.submissions)
        # The paper metrics are part of what a user waits for.
        result.carbon_footprint, result.avg_jct
        return result

    def digest(self, index, inp, result, ref) -> Unit:
        return Unit(
            index=index,
            events=result.events_processed,
            jobs=result.num_jobs,
            carbon=result.carbon_footprint,
            jct=result.avg_jct,
            fingerprint=(result.carbon_footprint, result.avg_jct),
            problems=audit_result(result, inp.submissions),
        )

    def reference(self, inp: BatchInput) -> Reference:
        result = self.run(inp)
        return Reference(
            fingerprint=(result.carbon_footprint, result.avg_jct),
            problems=audit_result(result, inp.submissions),
            events=result.events_processed,
        )


# ----------------------------------------------------------------------
# Streaming service
# ----------------------------------------------------------------------
class StreamWorkload(Workload):
    name = "stream-fifo"
    why = (
        "jobs fed in flight and retired, records folded online: exercises "
        "stream epochs, retire GC and streaming trace append, not scoring"
    )

    def inputs(self, seed: int) -> list:
        from repro.experiments.runner import ExperimentConfig
        from repro.stream.service import ServiceConfig
        from repro.workloads.stream import StreamSpec

        return [
            ServiceConfig(
                experiment=ExperimentConfig(
                    scheduler="fifo", num_executors=4 if self.tiny else 16, seed=s
                ),
                stream=StreamSpec(
                    tpch_scales=(2,),
                    mean_interarrival=30.0,
                    seed=s,
                    max_jobs=40 if self.tiny else 2000,
                ),
                window_s=3600.0,
            )
            for s in sub_seeds(self.name, seed, self.inputs_per_run)
        ]

    def setup(self, inputs: list) -> list:
        from repro.experiments.runner import carbon_trace_for

        for config in inputs:
            carbon_trace_for(config.experiment)
        return inputs

    def run(self, inp, inline: bool = False):
        from repro.stream.service import run_service

        return run_service(inp)

    def digest(self, index, inp, report, ref) -> Unit:
        expected = inp.stream.max_jobs
        problems = []
        if not report.drained or report.open_tasks:
            problems.append("stream did not drain")
        if report.jobs_arrived != expected or report.jobs_completed != expected:
            problems.append(
                f"stream completed {report.jobs_completed}/{report.jobs_arrived} "
                f"of {expected} jobs"
            )
        return Unit(
            index=index,
            events=report.events_processed,
            jobs=report.jobs_completed,
            carbon=report.summary["carbon_footprint"],
            jct=report.summary["avg_jct"],
            fingerprint=report.fingerprint,
            problems=problems,
        )

    def reference(self, inp) -> Reference:
        """Run the stream with every record the engine emits copied out,
        then audit that schedule like a batch one."""
        with _recording_stream() as seen:
            report = self.run(inp)
        unit = self.digest(0, inp, report, None)
        subs = seen["submissions"]
        problems = unit.problems + audit_schedule(
            list(seen["tasks"].values()),
            seen["quotas"],
            {sub.job_id: sub.dag for sub in subs},
            {sub.job_id: sub.arrival_time for sub in subs},
            seen["finishes"],
            inp.experiment.num_executors,
        )
        return Reference(
            fingerprint=report.fingerprint,
            problems=problems,
            events=report.events_processed,
        )


@contextmanager
def _recording_stream():
    """Copy the task, quota, arrival and completion records a streaming
    run emits (the aggregator folds and drops them)."""
    from repro.simulator.streaming import StreamingAggregator
    from repro.workloads.stream import ArrivalStream

    seen: dict[str, Any] = {
        "tasks": {},
        "quotas": [],
        "submissions": [],
        "finishes": {},
    }
    originals = {
        (StreamingAggregator, "add_task"): StreamingAggregator.add_task,
        (StreamingAggregator, "truncate_task"): StreamingAggregator.truncate_task,
        (StreamingAggregator, "add_quota"): StreamingAggregator.add_quota,
        (StreamingAggregator, "observe_finish"): StreamingAggregator.observe_finish,
        (ArrivalStream, "take"): ArrivalStream.take,
    }

    def add_task(self, record):
        handle = originals[(StreamingAggregator, "add_task")](self, record)
        seen["tasks"][handle] = record
        return handle

    def truncate_task(self, handle, end):
        record = originals[(StreamingAggregator, "truncate_task")](self, handle, end)
        seen["tasks"][handle] = record
        return record

    def add_quota(self, time, quota):
        seen["quotas"].append((time, quota))
        return originals[(StreamingAggregator, "add_quota")](self, time, quota)

    def observe_finish(self, job_id, arrival, finish, *args, **kwargs):
        seen["finishes"][job_id] = finish
        return originals[(StreamingAggregator, "observe_finish")](
            self, job_id, arrival, finish, *args, **kwargs
        )

    def take(self):
        sub = originals[(ArrivalStream, "take")](self)
        seen["submissions"].append(sub)
        return sub

    replacements = {
        "add_task": add_task,
        "truncate_task": truncate_task,
        "add_quota": add_quota,
        "observe_finish": observe_finish,
        "take": take,
    }
    try:
        for (cls, attr) in originals:
            setattr(cls, attr, replacements[attr])
        yield seen
    finally:
        for (cls, attr), original in originals.items():
            setattr(cls, attr, original)


# ----------------------------------------------------------------------
# Campaign stack: single-cluster sweep + disrupted geo sweep
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CampaignInput:
    demo: Any
    geo: Any


class CampaignWorkload(Workload):
    name = "campaign-sweep"
    why = (
        "cold store and process pool over a demo-shaped sweep and a disrupted "
        "3-region geo sweep: the only path through campaign, geo and disrupt"
    )

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self._passes = 0

    def inputs(self, seed: int) -> list:
        from repro.campaign.geo import geo_presets
        from repro.campaign.spec import campaign_presets
        from repro.disrupt import DisruptionSchedule

        # The seed draws the disruption schedule; the trials keep the
        # presets' own seed axes. Campaign trials build their job batches
        # inside the program from (spec, seed), and with 6-18 jobs per
        # trial a different seed set moves a pass's work by 15-20%.
        demo = campaign_presets()["demo"]
        if self.tiny:
            demo = demo.scaled(num_jobs=2, num_executors=4)
        demo = replace(demo, name="bench-demo")
        geo = geo_presets()["disrupt-sweep"]
        workload = geo.base.workload
        if self.tiny:
            workload = replace(workload, num_jobs=3)
        # The preset's event mix, but spread over the arrival window: its
        # own 900 s horizon lands most outages after the last job started,
        # so nothing migrates and almost nothing is preempted. Each pass
        # runs two schedules, which narrows the seed-to-seed swing in the
        # work that preemption and migration add.
        schedules = tuple(
            DisruptionSchedule.generate(
                seed=schedule_seed,
                regions=tuple(region.name for region in geo.base.regions),
                horizon_s=workload.num_jobs * workload.mean_interarrival,
                num_outages=2,
                mean_outage_s=600.0,
                num_curtailments=1,
                num_blackouts=1,
            )
            for schedule_seed in sub_seeds(self.name, seed, 2)
        )
        geo = replace(
            geo,
            name="bench-disrupt",
            base=replace(geo.base, workload=workload),
            axes=geo.axes + (("disruptions", schedules),),
        )
        return [CampaignInput(demo, geo)]

    def setup(self, inputs: list) -> list:
        """Carbon traces and job batches for every trial, then one cold
        pass of the program's 4-trial smoke campaign through a fresh pool
        (the pool start a campaign pays)."""
        from repro.campaign.executor import CampaignRunner
        from repro.campaign.spec import campaign_presets
        from repro.campaign.store import ResultStore
        from repro.experiments.runner import (
            carbon_trace_for,
            memoized_workload,
            workload_for,
        )
        from repro.geo.federation import Federation

        for inp in inputs:
            for config in inp.demo.trials():
                carbon_trace_for(config)
                workload_for(config)
            for fed in inp.geo.trials():
                Federation(fed)
                memoized_workload(fed.workload, fed.seed)
        CampaignRunner(ResultStore(self._store_path()), workers=POOL_WORKERS).run(
            campaign_presets()["smoke"]
        )
        self.cleanup()
        return inputs

    def _store_path(self) -> Path:
        self._passes += 1
        path = self.out_dir / f"campaign-store-{self._passes}.jsonl"
        path.unlink(missing_ok=True)
        return path

    def run(self, inp: CampaignInput, inline: bool = False):
        from repro.campaign.executor import CampaignRunner
        from repro.campaign.geo import GeoCampaignRunner
        from repro.campaign.store import ResultStore

        workers = 0 if inline else POOL_WORKERS
        store = ResultStore(self._store_path())
        demo = CampaignRunner(store, workers=workers).run(inp.demo)
        geo = GeoCampaignRunner(store, workers=workers).run(inp.geo)
        return demo.records, geo.records

    def digest(self, index, inp, raw, ref: Reference) -> Unit:
        demo, geo = raw
        records = demo + geo
        problems = [
            f"trial {r.key} status {r.status}: {r.error}" for r in records if not r.ok
        ]
        expected = len(inp.demo.trials()) + len(inp.geo.trials())
        if len(records) != expected:
            problems.append(f"{len(records)} records for {expected} trials")
        if problems:
            return Unit(index=index, trials=len(records), problems=problems)
        return Unit(
            index=index,
            events=ref.events,
            jobs=sum(int(r.metrics["num_jobs"]) for r in records),
            trials=len(records),
            carbon=float(np.mean([r.carbon_footprint for r in demo])),
            jct=float(np.mean([r.avg_jct for r in records])),
            fingerprint=tuple(
                sorted(
                    [(r.key, r.carbon_footprint, r.avg_jct) for r in demo]
                    + [(r.key, r.metrics["total_carbon_g"], r.avg_jct) for r in geo]
                )
            ),
            trial_s=sum(r.duration_s for r in records),
            problems=problems,
        )

    def cleanup(self) -> None:
        for path in self.out_dir.glob("campaign-store-*.jsonl"):
            path.unlink()

    def reference(self, inp: CampaignInput) -> Reference:
        """Every trial run directly (outside the campaign) and audited; the
        campaign's records must reproduce these metrics exactly."""
        from repro.campaign.executor import CampaignRunner
        from repro.campaign.geo import GeoCampaignRunner
        from repro.experiments.runner import (
            memoized_workload,
            run_experiment,
            workload_for,
        )
        from repro.geo.federation import run_federation

        rows, problems = [], []
        events = migrations = preempted = 0
        for key, config in CampaignRunner(None).keyed_trials(inp.demo):
            result = run_experiment(config)
            problems += audit_result(result, workload_for(config))
            rows.append((key, result.carbon_footprint, result.avg_jct))
            events += result.events_processed
        for key, config in GeoCampaignRunner(None).keyed_trials(inp.geo):
            result = run_federation(config)
            problems += audit_federation(
                result, memoized_workload(config.workload, config.seed)
            )
            rows.append((key, result.total_carbon_g, result.avg_jct))
            events += sum(r.result.events_processed for r in result.regions)
            migrations += result.migrated_jobs()
            preempted += sum(
                len(r.result.trace.preempted_tasks()) for r in result.regions
            )
        return Reference(
            fingerprint=tuple(sorted(rows)),
            problems=problems,
            events=events,
            trials=len(rows),
            migrations=migrations,
            preempted_tasks=preempted,
        )


def build(name: str, tiny: bool, out_dir: Path) -> Workload:
    """The workload called ``name``."""
    kwargs = {"tiny": tiny, "out_dir": out_dir}
    if name == "pcaps-batch":
        return BatchWorkload(
            name,
            "PCAPS over Decima on 200 TPC-H jobs: scoring, frontier arrays "
            "and blocked retries dominate, where select optimizations act",
            scheduler="pcaps",
            num_jobs=200,
            inputs_per_run=2,
            # A PCAPS trial's host time follows the host state more loosely
            # than the calibration kernel does; a fourth repeat keeps its
            # run-to-run spread near the others'.
            min_repeats=4,
            **kwargs,
        )
    if name == "cap-fifo-backlog":
        return BatchWorkload(
            name,
            "CAP quota binds and the FIFO backlog grows: the frontier walk "
            "dominates with no scoring, the bypass case for select work",
            scheduler="cap-fifo",
            num_jobs=200,
            inputs_per_run=3,
            min_repeats=3,
            **kwargs,
        )
    if name == "stream-fifo":
        return StreamWorkload(**kwargs)
    if name == "campaign-sweep":
        return CampaignWorkload(**kwargs)
    raise KeyError(name)


WORKLOAD_NAMES = ("pcaps-batch", "cap-fifo-backlog", "stream-fifo", "campaign-sweep")
