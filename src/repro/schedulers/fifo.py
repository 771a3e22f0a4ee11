"""FIFO baselines: Spark standalone and the Spark/Kubernetes default.

Appendix A.1.2 of the paper describes the behavioural difference we model:

- In **standalone** mode, "the default FIFO behavior assigns up to N
  executors to each stage of a job, where N is the number of tasks within
  said stage" — the oldest job greedily absorbs executors, blocking later
  arrivals (queue build-up, worse JCT and carbon).
- In the **Kubernetes prototype**, Spark still runs stages FIFO within a
  job, but the cluster scheduler mediates pods across jobs and each job is
  capped at 25 executors, so free executors spill over to newer jobs.
"""

from __future__ import annotations

from repro.simulator.interfaces import StageChoice, StageScheduler
from repro.simulator.state import ClusterView


class FIFOScheduler(StageScheduler):
    """Spark standalone FIFO: oldest job first, stages in DAG order.

    ``holds_executors`` reproduces standalone-mode hoarding: once granted,
    executors stay with the job until it finishes, blocking later arrivals.
    """

    name = "fifo"
    holds_executors = True

    def select(self, view: ClusterView) -> StageChoice | None:
        ready = view.first_assignable()  # arrival order, then topo order
        if ready is None:
            return None
        # Over-assignment: parallelism limit equals the task count.
        return StageChoice(
            job_id=ready.job_id,
            stage_id=ready.stage_id,
            parallelism_limit=ready.stage.num_tasks,
        )


class KubernetesDefaultScheduler(StageScheduler):
    """The prototype's default: FIFO within a job, pods spread across jobs.

    Among jobs with schedulable stages, pick the one currently holding the
    fewest executors (the Kubernetes scheduler's spreading behaviour), then
    take its first ready stage in DAG order. The per-job executor cap itself
    is a cluster property (``ClusterConfig.kubernetes``).
    """

    name = "k8s-default"

    def select(self, view: ClusterView) -> StageChoice | None:
        heads = view.job_heads()
        if not heads:
            return None
        # Fewest executors in use wins; arrival order breaks ties.
        best_job = min(
            {r.job_id for r in heads},
            key=lambda job_id: (
                view.job(job_id).executors_in_use,
                view.job(job_id).arrival_time,
            ),
        )
        ready = next(r for r in heads if r.job_id == best_job)
        return StageChoice(
            job_id=best_job,
            stage_id=ready.stage_id,
            parallelism_limit=ready.stage.num_tasks,
        )
