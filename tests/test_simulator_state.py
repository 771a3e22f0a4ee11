"""Unit tests for runtime state (StageRuntime / JobRuntime / ClusterView)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.carbon.api import CarbonReading
from repro.dag.graph import JobDAG, Stage, diamond_dag
from repro.dag.metrics import bottleneck_scores
from repro.simulator.state import ClusterView, JobRuntime, StageRuntime

from conftest import assert_first_assignable_matches


def reading(intensity=100.0, low=50.0, high=200.0, time=0.0):
    return CarbonReading(
        time=time, intensity=intensity, lower_bound=low, upper_bound=high
    )


def make_view(jobs, busy=0, total=4, quota=None, per_job_cap=None, **kwargs):
    return ClusterView(
        time=0.0,
        total_executors=total,
        busy_executors=busy,
        quota=quota if quota is not None else total,
        jobs={j.job_id: j for j in jobs},
        carbon=reading(),
        per_job_cap=per_job_cap,
        **kwargs,
    )


class TestStageRuntime:
    def test_launch_and_finish(self):
        runtime = StageRuntime(Stage(0, 3, 1.0))
        runtime.launch(2)
        assert runtime.running == 2
        assert runtime.unlaunched == 1
        runtime.finish_one()
        assert runtime.finished == 1
        assert not runtime.complete

    def test_complete(self):
        runtime = StageRuntime(Stage(0, 1, 1.0))
        runtime.launch(1)
        runtime.finish_one()
        assert runtime.complete

    def test_overlaunch_rejected(self):
        runtime = StageRuntime(Stage(0, 2, 1.0))
        with pytest.raises(ValueError):
            runtime.launch(3)

    def test_finish_without_running_rejected(self):
        runtime = StageRuntime(Stage(0, 1, 1.0))
        with pytest.raises(RuntimeError):
            runtime.finish_one()


class TestJobRuntime:
    def test_initial_frontier_is_roots(self):
        job = JobRuntime(0, diamond_dag(), arrival_time=0.0)
        assert job.ready_stage_ids() == (0,)

    def test_saturated_stage_leaves_assignable_frontier(self):
        job = JobRuntime(0, diamond_dag(), arrival_time=0.0)
        job.stages[0].launch(1)  # diamond stages have 1 task
        assert job.ready_stage_ids() == ()
        assert job.ready_stage_ids(include_running=True) == (0,)

    def test_completion_flows_through_dag(self):
        job = JobRuntime(0, diamond_dag(), arrival_time=0.0)
        job.stages[0].launch(1)
        assert not job.record_task_finish(0, now=1.0)
        assert set(job.ready_stage_ids()) == {1, 2}
        for sid in (1, 2):
            job.stages[sid].launch(1)
            job.record_task_finish(sid, now=2.0)
        job.stages[3].launch(1)
        assert job.record_task_finish(3, now=3.0)
        assert job.done
        assert job.finish_time == 3.0

    def test_remaining_work_counts_unfinished(self):
        dag = JobDAG([Stage(0, 2, 5.0)])
        job = JobRuntime(0, dag, arrival_time=0.0)
        assert job.remaining_work() == 10.0
        job.stages[0].launch(2)
        assert job.remaining_work() == 10.0  # in flight still counts
        job.record_task_finish(0, now=5.0)
        assert job.remaining_work() == 5.0

    def test_executors_in_use(self):
        dag = JobDAG([Stage(0, 3, 1.0)])
        job = JobRuntime(0, dag, arrival_time=0.0)
        job.stages[0].launch(2)
        assert job.executors_in_use == 2


class TestClusterView:
    def test_ready_stages_slots_bounded_by_free(self):
        job = JobRuntime(0, JobDAG([Stage(0, 10, 1.0)]), arrival_time=0.0)
        view = make_view([job], busy=1, total=4)
        (entry,) = view.ready_stages()
        assert entry.slots == 3

    def test_quota_restricts_slots(self):
        job = JobRuntime(0, JobDAG([Stage(0, 10, 1.0)]), arrival_time=0.0)
        view = make_view([job], busy=1, total=4, quota=2)
        (entry,) = view.ready_stages()
        assert entry.slots == 1

    def test_per_job_cap_restricts_slots(self):
        dag = JobDAG([Stage(0, 10, 1.0)])
        job = JobRuntime(0, dag, arrival_time=0.0)
        job.stages[0].launch(2)
        view = make_view([job], busy=2, total=10, per_job_cap=3)
        (entry,) = view.ready_stages()
        assert entry.slots == 1

    def test_blocked_stages_hidden(self):
        job = JobRuntime(0, JobDAG([Stage(0, 5, 1.0)]), arrival_time=0.0)
        view = make_view([job], blocked=frozenset({(0, 0)}))
        assert view.ready_stages() == []

    def test_finished_jobs_excluded(self):
        job = JobRuntime(0, JobDAG([Stage(0, 1, 1.0)]), arrival_time=0.0)
        job.stages[0].launch(1)
        job.record_task_finish(0, now=1.0)
        view = make_view([job])
        assert view.ready_stages() == []
        assert view.queued_job_count() == 0

    def test_active_jobs_in_arrival_order(self):
        j1 = JobRuntime(1, diamond_dag(), arrival_time=5.0)
        j2 = JobRuntime(2, diamond_dag(), arrival_time=1.0)
        view = make_view([j1, j2])
        assert [j.job_id for j in view.active_jobs()] == [2, 1]

    def test_include_saturated_adds_zero_slot_entries(self):
        dag = JobDAG([Stage(0, 1, 1.0)])
        job = JobRuntime(0, dag, arrival_time=0.0)
        job.stages[0].launch(1)
        view = make_view([job], busy=1)
        assert view.ready_stages() == []
        full = view.ready_stages(include_saturated=True)
        assert len(full) == 1 and full[0].slots == 0

    def test_reserved_free_extends_budget_for_owner_only(self):
        dag_a = JobDAG([Stage(0, 10, 1.0)])
        dag_b = JobDAG([Stage(0, 10, 1.0)])
        job_a = JobRuntime(0, dag_a, arrival_time=0.0)
        job_b = JobRuntime(1, dag_b, arrival_time=1.0)
        view = make_view(
            [job_a, job_b],
            busy=0,
            total=6,
            general_free=2,
            reserved_free={0: 4},
        )
        entries = {e.job_id: e for e in view.ready_stages()}
        assert entries[0].slots == 6  # 2 general + 4 reserved
        assert entries[1].slots == 2  # general only

    def test_assignable_executors(self):
        job = JobRuntime(0, diamond_dag(), arrival_time=0.0)
        view = make_view([job], busy=3, total=4, quota=3)
        assert view.assignable_executors == 0

    def test_first_assignable_matches_ready_stages(self):
        job = JobRuntime(0, diamond_dag(num_tasks=2), arrival_time=0.0)
        view = make_view([job], busy=0, total=4)
        first = view.first_assignable()
        assert first == view.ready_stages()[0]
        assert (first.job_id, first.stage_id, first.slots) == (0, 0, 2)
        assert view.has_assignable()
        job2 = JobRuntime(0, diamond_dag(num_tasks=2), arrival_time=0.0)
        job2.stages[0].launch(2)  # root saturated: nothing assignable
        view = make_view([job2], busy=2, total=4)
        assert view.first_assignable() is None
        assert not view.has_assignable()
        assert not any(r.slots > 0 for r in view.ready_stages())

    def test_first_assignable_respects_blocked_and_quota(self):
        job = JobRuntime(0, JobDAG([Stage(0, 5, 1.0)]), arrival_time=0.0)
        view = make_view([job], blocked=frozenset({(0, 0)}))
        assert view.first_assignable() is None
        assert not view.has_assignable()
        view = make_view([job], busy=4, total=4)
        assert view.first_assignable() is None
        view = make_view([job], busy=1, total=4, quota=3)
        assert view.first_assignable().slots == 2

    def test_first_assignable_memo_resets_on_block(self):
        # Root done: stages 1 and 2 are both assignable.
        job = JobRuntime(0, diamond_dag(num_tasks=2), arrival_time=0.0)
        job.stages[0].launch(2)
        job.record_task_finish(0, now=1.0)
        job.record_task_finish(0, now=1.0)
        view = make_view([job], busy=0, total=4)
        first = view.first_assignable()
        assert view.first_assignable() is first  # memoized
        view.block(first.job_id, first.stage_id)
        second = view.first_assignable()
        assert second is not None and second.stage_id != first.stage_id
        assert second == next(r for r in view.ready_stages() if r.slots > 0)

    def test_job_heads_keep_each_open_jobs_first_entry(self):
        # Job 1: root done, stages 1 and 2 open. Job 2: fresh, root open.
        # Job 3: at its per-job cap.
        j1 = JobRuntime(1, diamond_dag(num_tasks=2), arrival_time=0.0)
        j1.stages[0].launch(2)
        j1.record_task_finish(0, now=1.0)
        j1.record_task_finish(0, now=1.0)
        j2 = JobRuntime(2, diamond_dag(num_tasks=2), arrival_time=1.0)
        j3 = JobRuntime(3, diamond_dag(num_tasks=4), arrival_time=2.0)
        j3.stages[0].launch(2)
        view = make_view([j1, j2, j3], busy=2, total=8, per_job_cap=2)
        heads = view.job_heads()
        assert [(r.job_id, r.stage_id, r.slots) for r in heads] == [
            (1, 1, 2), (2, 0, 2),
        ]
        assert view.job_heads() is heads  # memoized
        assert view.first_assignable() is heads[0]
        view.block(1, 1)
        assert [(r.job_id, r.stage_id) for r in view.job_heads()] == [
            (1, 2), (2, 0),
        ]

    def test_engine_active_mapping_drives_iteration_order(self):
        j1 = JobRuntime(1, diamond_dag(), arrival_time=5.0)
        j2 = JobRuntime(2, diamond_dag(), arrival_time=1.0)
        view = make_view([j1, j2], active={2: j2, 1: j1})
        assert [j.job_id for j in view.active_jobs()] == [2, 1]
        assert view.queued_job_count() == 2


# ----------------------------------------------------------------------
# Property: the incrementally-maintained frontier and memoized aggregates
# must equal a from-scratch recomputation at every step of any run.
# ----------------------------------------------------------------------
@st.composite
def small_dag(draw, max_stages=7):
    """A random valid DAG: each stage depends on a subset of earlier ones."""
    n = draw(st.integers(min_value=1, max_value=max_stages))
    stages = []
    for sid in range(n):
        parents = ()
        if sid > 0:
            mask = draw(st.lists(st.booleans(), min_size=sid, max_size=sid))
            parents = tuple(i for i, used in enumerate(mask) if used)
        stages.append(
            Stage(
                stage_id=sid,
                num_tasks=draw(st.integers(min_value=1, max_value=3)),
                task_duration=draw(st.floats(min_value=0.5, max_value=20.0)),
                parents=parents,
            )
        )
    return JobDAG(stages)


def reference_ready_stage_ids(job, include_running):
    """The pre-refactor frontier derivation: re-walk the topological order."""
    done = job.completed_stages
    out = []
    for sid in job.dag.topological_order():
        if sid in done:
            continue
        if not all(p in done for p in job.dag.stage(sid).parents):
            continue
        if job.stages[sid].unlaunched > 0 or include_running:
            out.append(sid)
    return tuple(out)


def reference_remaining_work(job):
    return sum(
        (sr.stage.num_tasks - sr.finished) * sr.stage.task_duration
        for sr in job.stages.values()
    )


class TestIncrementalFrontierProperty:
    @given(small_dag(), st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_matches_from_scratch_recomputation(self, dag, rng):
        job = JobRuntime(0, dag, arrival_time=0.0)
        now = 0.0

        def check():
            assert job.ready_stage_ids() == reference_ready_stage_ids(
                job, include_running=False
            )
            assert job.ready_stage_ids(
                include_running=True
            ) == reference_ready_stage_ids(job, include_running=True)
            assert job.executors_in_use == sum(
                sr.running for sr in job.stages.values()
            )
            assert job.remaining_work() == reference_remaining_work(job)
            assert job.bottleneck_scores() == bottleneck_scores(
                dag, job.completed_stages
            )
            # The short-circuit and per-job-head walks agree with the tuple
            # walk under quota, per-job cap, reserved-pool and blocked limits.
            frontier = job.ready_stage_ids(include_running=True)
            for _ in range(3):
                total = rng.randint(1, 6)
                busy = rng.randint(0, total)
                assert_first_assignable_matches(
                    make_view(
                        [job],
                        busy=busy,
                        total=total,
                        quota=rng.randint(0, total),
                        per_job_cap=rng.choice([None, 1, 2, 3]),
                        blocked=frozenset(
                            (0, sid) for sid in frontier if rng.random() < 0.25
                        ),
                        general_free=rng.randint(0, total - busy),
                        reserved_free={rng.randint(0, 1): rng.randint(0, 2)},
                    )
                )

        check()
        while not job.done:
            now += 1.0
            launchable = [
                sid
                for sid in job.ready_stage_ids()
                if job.stages[sid].unlaunched > 0
            ]
            running = [
                sid for sid, sr in job.stages.items() if sr.running > 0
            ]
            # Randomly interleave launches and finishes; always legal.
            if launchable and (not running or rng.random() < 0.6):
                sid = rng.choice(launchable)
                job.stages[sid].launch(
                    rng.randint(1, job.stages[sid].unlaunched)
                )
            elif running:
                job.record_task_finish(rng.choice(running), now=now)
            check()
        assert job.ready_stage_ids(include_running=True) == ()
        assert job.remaining_work() == 0.0


class TestBlockKeepsHeadMemo:
    """``block()`` keeps the ``first_assignable`` memo unless it blocks the
    memoized head; the walks must still answer as a fresh view would."""

    def test_non_head_block_keeps_the_memoized_head(self):
        job = JobRuntime(0, diamond_dag(num_tasks=2), arrival_time=0.0)
        job.stages[0].launch(2)
        job.record_task_finish(0, now=1.0)
        job.record_task_finish(0, now=1.0)
        view = make_view([job], busy=0, total=4)
        first = view.first_assignable()
        other = next(
            r for r in view.ready_stages() if r.stage_id != first.stage_id
        )
        view.block(other.job_id, other.stage_id)
        assert view.first_assignable() is first

    @given(
        st.lists(small_dag(max_stages=5), min_size=1, max_size=4),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=120, deadline=None)
    def test_memos_match_a_fresh_view_after_random_blocks(self, dags, rng):
        jobs = [
            JobRuntime(i, dag, arrival_time=float(i))
            for i, dag in enumerate(dags)
        ]
        for job in jobs:  # some partial progress, so some rows saturate
            for sid in job.ready_stage_ids():
                if rng.random() < 0.4:
                    job.stages[sid].launch(
                        rng.randint(1, job.stages[sid].unlaunched)
                    )
        total = rng.randint(1, 8)
        busy = rng.randint(0, total)
        kwargs = dict(
            busy=busy,
            total=total,
            quota=rng.randint(0, total),
            per_job_cap=rng.choice([None, 1, 2, 3]),
            general_free=rng.randint(0, total - busy),
            reserved_free={rng.randrange(len(jobs)): rng.randint(0, 2)},
        )
        view = make_view(jobs, **kwargs)
        blocked: set[tuple[int, int]] = set()
        pool = [
            (job.job_id, sid)
            for job in jobs
            for sid in job.ready_stage_ids(include_running=True)
        ]

        def check(queries):
            fresh = make_view(jobs, blocked=frozenset(blocked), **kwargs)
            for query in queries:
                assert getattr(view, query)() == getattr(fresh, query)()

        queries = ["first_assignable", "has_assignable", "job_heads"]
        while True:
            # Leave the memos empty, first-head-only or all-heads before
            # the next block, asking in a random order.
            rng.shuffle(queries)
            check(queries[: rng.randint(0, 3)])
            open_pairs = [p for p in pool if p not in blocked]
            if not open_pairs:
                break
            head = make_view(
                jobs, blocked=frozenset(blocked), **kwargs
            ).first_assignable()
            if head is not None and rng.random() < 0.3:
                pair = (head.job_id, head.stage_id)
            else:
                pair = rng.choice(open_pairs)
            view.block(*pair)
            blocked.add(pair)
        check(queries)
