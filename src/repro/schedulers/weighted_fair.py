"""Weighted Fair scheduling.

The paper's simulator baseline "assigns executors proportionally to each
job's workload, with tuned weights to improve performance on the simulated
workloads" (Section 6.1). We implement it as max-min entitlement tracking:
each active job's entitlement is proportional to its remaining work raised
to a tunable exponent, and the job furthest below its entitlement receives
the next executor.
"""

from __future__ import annotations

from repro.simulator.interfaces import StageChoice, StageScheduler
from repro.simulator.state import ClusterView


class WeightedFairScheduler(StageScheduler):
    """Executors proportional to (remaining work) ** ``weight_exponent``.

    ``weight_exponent`` below 1 (default 0.5) dampens the proportionality so
    small jobs still get a meaningful share — this is the "tuned weights"
    aspect of the paper's heuristic, which otherwise would starve short jobs
    behind large ones.
    """

    name = "weighted-fair"

    def __init__(self, weight_exponent: float = 0.5) -> None:
        if weight_exponent < 0:
            raise ValueError("weight_exponent must be >= 0")
        self.weight_exponent = weight_exponent

    def select(self, view: ClusterView) -> StageChoice | None:
        heads = view.job_heads()
        if not heads:
            return None
        jobs = {r.job_id for r in heads}
        weights = {
            job_id: max(view.job(job_id).remaining_work(), 1e-9)
            ** self.weight_exponent
            for job_id in jobs
        }
        total_weight = sum(weights.values())
        usable = max(view.quota, 1)

        def deficit(job_id: int) -> float:
            entitlement = usable * weights[job_id] / total_weight
            return view.job(job_id).executors_in_use - entitlement

        best_job = min(jobs, key=lambda j: (deficit(j), view.job(j).arrival_time))
        if deficit(best_job) >= 0:
            # Every job is at or above its fair share; round-robin overflow
            # keeps executors busy rather than idling them.
            best_job = min(jobs, key=lambda j: view.job(j).executors_in_use)
        entitlement = max(1, round(usable * weights[best_job] / total_weight))
        ready = next(r for r in heads if r.job_id == best_job)
        return StageChoice(
            job_id=best_job,
            stage_id=ready.stage_id,
            parallelism_limit=min(entitlement, ready.stage.num_tasks),
        )
