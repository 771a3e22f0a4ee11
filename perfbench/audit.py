"""Schedule legality checks, written against the program's outputs only.

Each check returns a list of human-readable problems; an empty list means
the schedule is legal. The benchmark counts a trial as failed when any
check reports a problem.
"""

from __future__ import annotations

import bisect
from collections import defaultdict
from typing import Iterable, Mapping

#: Slack for float comparisons between times the engine derived by
#: different additions (a stage's end vs. a child's start).
TIME_EPS = 1e-9

#: Problems reported per check before the rest are summarized.
MAX_REPORTED = 5


def _cap(problems: list[str]) -> list[str]:
    if len(problems) <= MAX_REPORTED:
        return problems
    return problems[:MAX_REPORTED] + [f"... {len(problems) - MAX_REPORTED} more"]


def audit_schedule(
    tasks: Iterable,
    quotas: Iterable,
    dags: Mapping[int, object],
    arrivals: Mapping[int, float],
    finishes: Mapping[int, float],
    total_executors: int,
) -> list[str]:
    """Check one cluster's schedule.

    ``tasks`` are ``TaskRecord``-like (``job_id``, ``stage_id``,
    ``task_index``, ``executor_id``, ``start``, ``end``, ``preempted``);
    ``quotas`` are ``(time, quota)`` change points; ``dags`` maps every job
    that ran here to its DAG; ``arrivals``/``finishes`` are the cluster's
    per-job times. Checks:

    - every job in ``dags`` finished; a record of any other job is a
      preempted attempt (the job then ran elsewhere);
    - every task of every stage completed exactly once (preempted records
      are wasted attempts and do not count);
    - no task starts before its job arrived or before every task of every
      parent stage ended;
    - no executor runs two tasks at once, and executor ids are in range;
    - at every launch instant, busy executors do not exceed the quota in
      force then.
    """
    tasks = list(tasks)
    problems: list[str] = []
    missing = sorted(set(dags) - set(finishes))
    if missing:
        problems.append(f"{len(missing)} jobs never finished (e.g. {missing[:3]})")
    by_stage: dict[tuple[int, int], list] = defaultdict(list)
    for task in tasks:
        if task.job_id in dags:
            by_stage[(task.job_id, task.stage_id)].append(task)
        elif not task.preempted:
            # Only wasted attempts may outlive a job's stay: a job whose
            # every task was preempted can migrate to another cluster.
            problems.append(f"completed task of job {task.job_id}, which never ran here")

    stage_end: dict[tuple[int, int], float] = {}
    for job_id, dag in dags.items():
        for stage_id in dag.stage_ids():
            done = [t for t in by_stage.get((job_id, stage_id), ()) if not t.preempted]
            indices = sorted(t.task_index for t in done)
            if indices != list(range(dag.stage(stage_id).num_tasks)):
                problems.append(
                    f"job {job_id} stage {stage_id}: completed task indices "
                    f"{indices[:6]}... != 0..{dag.stage(stage_id).num_tasks - 1}"
                )
            if done:
                stage_end[(job_id, stage_id)] = max(t.end for t in done)

    for (job_id, stage_id), stage_tasks in by_stage.items():
        dag = dags[job_id]
        earliest = min(t.start for t in stage_tasks)
        if earliest < arrivals[job_id] - TIME_EPS:
            problems.append(f"job {job_id} stage {stage_id} starts before arrival")
        for parent in dag.stage(stage_id).parents:
            end = stage_end.get((job_id, parent))
            if end is None or earliest < end - TIME_EPS:
                problems.append(
                    f"job {job_id} stage {stage_id} starts at {earliest:.6f} "
                    f"before parent stage {parent} ends"
                )

    by_executor: dict[int, list] = defaultdict(list)
    for task in tasks:
        by_executor[task.executor_id].append(task)
    for executor_id, runs in by_executor.items():
        if not 0 <= executor_id < total_executors:
            problems.append(f"executor id {executor_id} out of range")
        runs.sort(key=lambda t: (t.start, t.end))
        for earlier, later in zip(runs, runs[1:]):
            if later.start < earlier.end - TIME_EPS:
                problems.append(
                    f"executor {executor_id} overlaps: job {earlier.job_id} "
                    f"until {earlier.end:.6f}, job {later.job_id} from "
                    f"{later.start:.6f}"
                )

    problems.extend(_quota_violations(tasks, quotas))
    return _cap(problems)


def _quota_violations(tasks: list, quotas: Iterable) -> list[str]:
    """Busy count at each launch instant vs. the quota recorded for it.

    A task is busy over ``[start, end)``: completions at ``t`` are drained
    before the engine's assignment pass at ``t``, launches at ``t`` occupy
    their executor from ``t``.
    """
    points = sorted((float(time), int(quota)) for time, quota in quotas)
    if not points:
        return ["no quota recorded"] if tasks else []
    times = [time for time, _ in points]
    starts = sorted(t.start for t in tasks)
    ends = sorted(t.end for t in tasks)
    problems = []
    for launch in sorted(set(starts)):
        position = bisect.bisect_right(times, launch + TIME_EPS) - 1
        if position < 0:
            problems.append(f"launch at {launch:.6f} before any quota record")
            continue
        quota = points[position][1]
        busy = bisect.bisect_right(starts, launch) - bisect.bisect_right(ends, launch)
        if busy > quota:
            problems.append(f"{busy} busy executors > quota {quota} at {launch:.6f}")
    return problems


def audit_result(result, submissions) -> list[str]:
    """Audit a materialized single-cluster ``ExperimentResult``."""
    trace = result.trace
    return audit_schedule(
        trace.tasks,
        [(q.time, q.quota) for q in trace.quotas],
        {sub.job_id: sub.dag for sub in submissions},
        result.arrivals,
        result.finishes,
        trace.total_executors,
    )


def audit_federation(result, submissions) -> list[str]:
    """Audit every region of a ``FederationResult``, plus conservation:
    each submitted job finished in exactly one region."""
    dags = {sub.job_id: sub.dag for sub in submissions}
    problems: list[str] = []
    finished_in: dict[int, list[str]] = defaultdict(list)
    for region in result.regions:
        regional = region.result
        for job_id in regional.finishes:
            finished_in[job_id].append(region.name)
        problems += [
            f"region {region.name}: {p}"
            for p in audit_schedule(
                regional.trace.tasks,
                [(q.time, q.quota) for q in regional.trace.quotas],
                {job_id: dags[job_id] for job_id in regional.arrivals},
                regional.arrivals,
                regional.finishes,
                regional.trace.total_executors,
            )
        ]
    for job_id in dags:
        regions = finished_in.get(job_id, [])
        if len(regions) != 1:
            problems.append(f"job {job_id} finished in regions {regions}")
    return _cap(problems)
