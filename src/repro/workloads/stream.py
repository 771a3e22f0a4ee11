"""Open-ended job arrival streams for service-mode simulation.

A batch workload (:func:`repro.workloads.batch.build_workload`) materializes
every job up front, which caps trial size at available memory long before
wall-clock does. :class:`ArrivalStream` instead synthesizes jobs one at a
time from the same seeded generators, so a service-mode run
(:mod:`repro.stream`) can push 10^5-10^6 jobs through the engine while only
the in-flight jobs exist at any moment.

Determinism contract (see ``docs/streaming.md``): an :class:`ArrivalStream`
built from a :class:`StreamSpec` reproduces the corresponding batch workload
*prefix bit-for-bit*. The seed is split exactly as ``build_workload`` splits
it (one child seed for DAG synthesis, one for the arrival process), DAG
draws happen in the same per-job order, and arrival times come from
:class:`~repro.workloads.arrivals.PoissonArrivalGenerator`, whose running
float64 sum matches ``np.cumsum`` element-wise. The streaming-equivalence
tests pin this by feeding both paths into the engine and comparing
fingerprints.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.workloads.alibaba import AlibabaWorkloadModel, alibaba_job
from repro.workloads.arrivals import (
    DEFAULT_MEAN_INTERARRIVAL_S,
    JobSubmission,
    PoissonArrivalGenerator,
)
from repro.workloads.batch import WorkloadSpec
from repro.workloads.tpch import TPCH_QUERIES, tpch_job

#: Valid garbage-collection policies for service-mode runs. ``"retire"``
#: pops finished jobs out of the engine each epoch (O(1) memory);
#: ``"keep"`` leaves them in place (useful for debugging small runs).
#: The policy must never change metrics — only memory — which the stream
#: tests assert.
GC_POLICIES = ("retire", "keep")


@dataclass(frozen=True)
class StreamSpec:
    """Declarative description of an open-ended arrival stream.

    The workload fields mirror :class:`~repro.workloads.batch.WorkloadSpec`
    minus ``num_jobs``; instead the stream ends at whichever of
    ``max_jobs`` / ``horizon_s`` is hit first (both ``None`` = unbounded,
    for always-on service runs that stop via the runner).

    Every field — including ``gc_policy`` — is serialized into the
    campaign trial key (:func:`repro.campaign.cache.trial_key`), so
    resume-from-store stays content-addressed for streaming campaigns.
    """

    family: str = "tpch"
    mean_interarrival: float = DEFAULT_MEAN_INTERARRIVAL_S
    tpch_scales: tuple[int, ...] = (2, 10, 50)
    alibaba_model: AlibabaWorkloadModel = field(
        default_factory=AlibabaWorkloadModel
    )
    seed: int = 0
    max_jobs: int | None = None
    horizon_s: float | None = None
    gc_policy: str = "retire"

    def __post_init__(self) -> None:
        if self.family not in ("tpch", "alibaba"):
            raise ValueError(f"unknown workload family {self.family!r}")
        if self.mean_interarrival <= 0:
            raise ValueError("mean_interarrival must be positive")
        if self.max_jobs is not None and self.max_jobs <= 0:
            raise ValueError("max_jobs must be positive when set")
        if self.horizon_s is not None and self.horizon_s <= 0:
            raise ValueError("horizon_s must be positive when set")
        if self.gc_policy not in GC_POLICIES:
            raise ValueError(
                f"gc_policy must be one of {GC_POLICIES}, "
                f"got {self.gc_policy!r}"
            )

    def batch_equivalent(self, num_jobs: int) -> WorkloadSpec:
        """The batch spec whose first ``num_jobs`` jobs this stream emits."""
        return WorkloadSpec(
            family=self.family,
            num_jobs=num_jobs,
            mean_interarrival=self.mean_interarrival,
            tpch_scales=self.tpch_scales,
            alibaba_model=self.alibaba_model,
        )


class ArrivalStream:
    """Seeded lazy generator of :class:`JobSubmission` objects.

    Jobs are synthesized on demand — :meth:`peek_time` looks at the next
    arrival's timestamp, :meth:`take` pops it — so memory holds at most one
    pending job regardless of how many the stream will ever emit.

    The instance is picklable (two numpy ``Generator`` states plus the
    running arrival sum), so service-mode checkpoints capture the stream
    mid-flight and :func:`pickle.loads` resumes it exactly.
    """

    def __init__(self, spec: StreamSpec) -> None:
        self.spec = spec
        # Identical seed split to build_workload(): one child seed for DAG
        # synthesis, one for the arrival process.
        rng = np.random.default_rng(spec.seed)
        dag_seed = int(rng.integers(2**31))
        arrival_seed = int(rng.integers(2**31))
        self._dag_rng = np.random.default_rng(dag_seed)
        self._arrivals = PoissonArrivalGenerator(
            mean_interarrival=spec.mean_interarrival, seed=arrival_seed
        )
        #: Jobs handed out so far (also the next job id).
        self.emitted = 0
        self._pending: JobSubmission | None = None
        self._done = False
        self._synthesize()

    # ------------------------------------------------------------------
    def _synthesize(self) -> None:
        """Draw the next submission, or mark the stream exhausted."""
        spec = self.spec
        if spec.max_jobs is not None and self.emitted >= spec.max_jobs:
            self._pending, self._done = None, True
            return
        time = self._arrivals.next_time()
        if spec.horizon_s is not None and time > spec.horizon_s:
            self._pending, self._done = None, True
            return
        if spec.family == "tpch":
            # Same per-job draw order as random_tpch_batch: query index,
            # then scale index, from one sequential rng.
            query = TPCH_QUERIES[
                int(self._dag_rng.integers(len(TPCH_QUERIES)))
            ]
            scale = int(
                spec.tpch_scales[
                    int(self._dag_rng.integers(len(spec.tpch_scales)))
                ]
            )
            dag = tpch_job(query, scale)
        else:
            dag = alibaba_job(
                rng=self._dag_rng,
                model=spec.alibaba_model,
                name=f"alibaba-{self.emitted}",
            )
        self._pending = JobSubmission(
            arrival_time=time, dag=dag, job_id=self.emitted
        )

    # ------------------------------------------------------------------
    @property
    def exhausted(self) -> bool:
        """True once the stream will emit no further jobs."""
        return self._pending is None

    def peek_time(self) -> float | None:
        """Arrival time of the next job, or ``None`` when exhausted."""
        return None if self._pending is None else self._pending.arrival_time

    def take(self) -> JobSubmission:
        """Pop the next submission and synthesize its successor."""
        if self._pending is None:
            raise StopIteration("arrival stream exhausted")
        sub = self._pending
        self.emitted += 1
        self._synthesize()
        return sub

    def feed(self, stepper) -> list[JobSubmission]:
        """Keep ``stepper``'s event heap primed with pending arrivals.

        Submits every stream job whose arrival time is at or before the
        stepper's next event (seeding an empty heap with one arrival), so
        events are always processed in global time order while only O(1)
        pending arrivals occupy the heap. Returns what was submitted so the
        caller can observe the arrivals.
        """
        fed: list[JobSubmission] = []
        while self._pending is not None:
            nxt = stepper.next_event_time()
            if nxt is not None and self._pending.arrival_time > nxt:
                break
            sub = self.take()
            stepper.submit(sub)
            fed.append(sub)
        return fed


__all__ = ["ArrivalStream", "GC_POLICIES", "StreamSpec"]
