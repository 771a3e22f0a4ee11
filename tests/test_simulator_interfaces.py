"""Unit tests for scheduler/provisioner interfaces."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.carbon.api import CarbonReading
from repro.dag.graph import JobDAG, Stage
from repro.obs.metrics import MetricsRegistry
from repro.obs.observer import FrontierCacheStats
from repro.schedulers.decima import DecimaScheduler
from repro.simulator.interfaces import (
    ProbabilisticPolicy,
    StageChoice,
    StaticProvisioner,
)
from repro.simulator.state import ClusterView, JobRuntime, ReadyStage

from test_frontier_arrays import (
    RandomFrontier,
    build_view,
    fan_dag,
    op_sequences,
)


class UniformPolicy(ProbabilisticPolicy):
    """Equal scores for every ready stage — the simplest Def. 4.1 policy."""

    name = "uniform"

    def scores(self, view, ready):
        return np.zeros(len(ready))


class SkewedPolicy(ProbabilisticPolicy):
    """Mass concentrated on the highest stage id."""

    name = "skewed"

    def scores(self, view, ready):
        return np.array([float(r.stage_id) for r in ready])


def view_with(stages, busy=0, total=4, launched=None):
    dag = JobDAG(stages)
    job = JobRuntime(0, dag, arrival_time=0.0)
    for sid, count in (launched or {}).items():
        job.stages[sid].launch(count)
    return ClusterView(
        time=0.0,
        total_executors=total,
        busy_executors=busy,
        quota=total,
        jobs={0: job},
        carbon=CarbonReading(0.0, 100.0, 50.0, 200.0),
    )


class TestDistribution:
    def test_uniform_distribution(self):
        view = view_with([Stage(0, 1, 1.0), Stage(1, 1, 1.0)])
        policy = UniformPolicy(seed=0)
        ready = view.ready_stages()
        probs = policy.distribution(view, ready)
        assert np.allclose(probs, [0.5, 0.5])

    def test_empty_frontier_empty_distribution(self):
        view = view_with([Stage(0, 1, 1.0)], launched={0: 1})
        policy = UniformPolicy(seed=0)
        assert policy.distribution(view, []).size == 0

    def test_temperature_sharpens(self):
        view = view_with([Stage(0, 1, 1.0), Stage(1, 1, 1.0)])
        ready = view.ready_stages()
        soft = SkewedPolicy(seed=0, temperature=10.0).distribution(view, ready)
        sharp = SkewedPolicy(seed=0, temperature=0.1).distribution(view, ready)
        assert sharp.max() > soft.max()

    def test_wrong_score_shape_rejected(self):
        class Broken(ProbabilisticPolicy):
            def scores(self, view, ready):
                return np.zeros(len(ready) + 1)

        view = view_with([Stage(0, 1, 1.0)])
        with pytest.raises(ValueError):
            Broken(seed=0).distribution(view, view.ready_stages())


class TestSampling:
    def test_select_returns_valid_choice(self):
        view = view_with([Stage(0, 2, 1.0), Stage(1, 2, 1.0)])
        choice = UniformPolicy(seed=0).select(view)
        assert isinstance(choice, StageChoice)
        assert choice.stage_id in (0, 1)

    def test_select_none_when_nothing_assignable(self):
        view = view_with([Stage(0, 1, 1.0)], launched={0: 1}, busy=1)
        assert UniformPolicy(seed=0).select(view) is None

    def test_sample_with_importance_normalizes_over_full_frontier(self):
        # Stage 1 (saturated) carries most mass; assignable stage 0 must get
        # importance < 1 relative to it.
        view = view_with(
            [Stage(0, 1, 1.0), Stage(1, 1, 1.0)], launched={1: 1}, busy=1
        )
        policy = SkewedPolicy(seed=0, temperature=0.2)
        chosen, importance = policy.sample_with_importance(view)
        assert chosen.stage_id == 0
        assert importance < 1.0

    def test_sample_with_importance_singleton_is_one(self):
        view = view_with([Stage(0, 1, 1.0)])
        policy = UniformPolicy(seed=0)
        chosen, importance = policy.sample_with_importance(view)
        assert chosen.stage_id == 0
        assert importance == pytest.approx(1.0)

    def test_sample_with_importance_none_when_all_saturated(self):
        view = view_with([Stage(0, 1, 1.0)], launched={0: 1}, busy=1)
        assert UniformPolicy(seed=0).sample_with_importance(view) is None

    def test_reset_restores_sampling_sequence(self):
        view = view_with([Stage(i, 1, 1.0) for i in range(4)])
        policy = UniformPolicy(seed=5)
        first = [policy.select(view).stage_id for _ in range(5)]
        policy.reset()
        second = [policy.select(view).stage_id for _ in range(5)]
        assert first == second


class TestStaticProvisioner:
    def test_quota_fixed(self):
        view = view_with([Stage(0, 1, 1.0)])
        provisioner = StaticProvisioner(3)
        assert provisioner.quota(view) == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            StaticProvisioner(0)

    def test_default_parallelism_scaling_is_identity(self):
        view = view_with([Stage(0, 1, 1.0)])
        assert StaticProvisioner(3).scale_parallelism(7, view) == 7


# -- the per-pass scoring session ------------------------------------------


class ArrayUniformPolicy(ProbabilisticPolicy):
    """A vectorized policy without a ``_coupled_rows`` hook."""

    name = "array-uniform"
    vectorized = True

    def scores(self, view, ready):
        return np.zeros(len(ready))

    def scores_from_arrays(self, view, frontier):
        return np.zeros(len(frontier))


def drive_blocked_retries(make_policy, jobs, active, **kwargs):
    """Sample, block the pick, sample again, all on one view, until nothing
    is assignable. A twin policy with the same RNG state samples a fresh
    view with the same blocked set at every step, so it never opens a
    session: each of its retries rescores the filtered frontier. Returns
    the session counters and the sampled pairs."""
    stats = FrontierCacheStats(MetricsRegistry())
    policy, twin = make_policy(), make_policy()
    view = build_view(jobs, active, cache_stats=stats, **kwargs)
    kwargs.pop("column_cache", None)
    kwargs.pop("frontier_epoch", None)
    blocked: list[tuple[int, int]] = []
    while True:
        got = policy.sample_with_importance(view)
        want = twin.sample_with_importance(
            build_view(jobs, active, blocked=blocked, **kwargs)
        )
        if want is None:
            assert got is None
        else:
            assert got is not None
            assert got[0] == want[0]
            assert got[1].hex() == want[1].hex()
        assert (
            policy._rng.bit_generator.state == twin._rng.bit_generator.state
        )
        if got is None:
            return stats, blocked
        pair = (got[0].job_id, got[0].stage_id)
        view.block(*pair)
        blocked.append(pair)


def counts(stats):
    return stats.session_reuses.value, stats.session_fallbacks.value


def saturated_job(job_id, num_tasks, duration):
    """A one-stage job with every task in flight: a ``slots == 0`` row."""
    job = JobRuntime(
        job_id, JobDAG([Stage(0, num_tasks, duration)]),
        arrival_time=float(job_id),
    )
    job.stages[0].launch(num_tasks)
    return job


def fanned_job(job_id):
    """``fan_dag`` with its root finished: three assignable rows."""
    job = JobRuntime(job_id, fan_dag(), arrival_time=float(job_id))
    job.stages[0].launch(1)
    job.record_task_finish(0, now=0.5)
    return job


def score_roles(view):
    """(job of the top-scoring row, job holding the SRPT denominator)."""
    frontier = view.frontier_arrays(include_saturated=True)
    scores = DecimaScheduler().scores_from_arrays(view, frontier)
    top = int(frontier.job_ids[int(np.argmax(scores))])
    heaviest = int(frontier.job_ids[int(np.argmax(frontier.remaining_work))])
    return top, heaviest


class TestScoringSession:
    @given(
        op_sequences(),
        st.integers(min_value=0, max_value=2**31),
        st.sampled_from([0.05, 0.25, 1.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_blocked_retries_match_a_fresh_rescore(self, ops, seed, temp):
        state = RandomFrontier()
        for op_seed in ops:
            state.mutate(op_seed)
        rng = np.random.default_rng(seed)
        busy = int(rng.integers(0, 7))
        drive_blocked_retries(
            lambda: DecimaScheduler(seed=seed, temperature=temp),
            state.jobs,
            state.active,
            busy=busy,
            general_free=int(rng.integers(0, 7)),
            per_job_cap=[None, 2][int(rng.integers(2))],
            column_cache=state.cache,
            frontier_epoch=state.epoch,
        )

    def test_all_blocked_ends_in_none_through_the_session(self):
        # The saturated rows hold the scaled max (job 0) and the SRPT
        # denominator (job 1), so every block of job 2's rows reuses.
        jobs = {0: saturated_job(0, 1, 1.0), 1: saturated_job(1, 2, 100.0),
                2: fanned_job(2)}
        assert score_roles(build_view(jobs, jobs, busy=3)) == (0, 1)
        stats, blocked = drive_blocked_retries(
            lambda: DecimaScheduler(seed=3), jobs, jobs, busy=3
        )
        assert sorted(blocked) == [(2, 1), (2, 2), (2, 3)]
        assert counts(stats) == (3, 0)

    def test_blocking_the_scaled_max_rescores(self):
        # Near-greedy sampling picks the top row, which holds the scaled
        # max but not the denominator (job 1 does).
        jobs = {0: fanned_job(0), 1: saturated_job(1, 2, 100.0)}
        assert score_roles(build_view(jobs, jobs, busy=2)) == (0, 1)
        stats, blocked = drive_blocked_retries(
            lambda: DecimaScheduler(seed=0, temperature=0.01),
            jobs, jobs, busy=2,
        )
        assert len(blocked) == 3
        assert counts(stats) == (0, 3)

    def test_blocking_the_srpt_denominator_rescores(self):
        # Job 1 holds the denominator and all the assignable rows; job 0's
        # saturated row holds the scaled max.
        big = JobRuntime(
            1, JobDAG([Stage(0, 3, 50.0), Stage(1, 3, 40.0)]),
            arrival_time=1.0,
        )
        jobs = {0: saturated_job(0, 1, 1.0), 1: big}
        assert score_roles(build_view(jobs, jobs, busy=1)) == (0, 1)
        stats, blocked = drive_blocked_retries(
            lambda: DecimaScheduler(seed=1), jobs, jobs, busy=1
        )
        assert sorted(blocked) == [(1, 0), (1, 1)]
        assert counts(stats) == (0, 2)

    @pytest.mark.parametrize("with_pick", [False, True])
    def test_blocks_other_than_the_last_pick_rescore(self, with_pick):
        jobs = {0: saturated_job(0, 1, 1.0), 1: saturated_job(1, 2, 100.0),
                2: fanned_job(2)}
        stats = FrontierCacheStats(MetricsRegistry())
        policy, twin = DecimaScheduler(seed=3), DecimaScheduler(seed=3)
        view = build_view(jobs, jobs, busy=3, cache_stats=stats)
        pick, _ = policy.sample_with_importance(view)
        twin.sample_with_importance(build_view(jobs, jobs, busy=3))
        picked = (pick.job_id, pick.stage_id)
        other = next(p for p in [(2, 1), (2, 2), (2, 3)] if p != picked)
        blocked = [picked, other] if with_pick else [other]
        for pair in blocked:
            view.block(*pair)
        got = policy.sample_with_importance(view)
        want = twin.sample_with_importance(
            build_view(jobs, jobs, blocked=blocked, busy=3)
        )
        assert got[0] == want[0]
        assert got[1].hex() == want[1].hex()
        assert counts(stats) == (0, 0)

    def test_policy_without_the_hook_always_rescores(self):
        jobs = {0: fanned_job(0)}
        stats, blocked = drive_blocked_retries(
            lambda: ArrayUniformPolicy(seed=2), jobs, jobs
        )
        assert len(blocked) == 3
        assert counts(stats) == (0, 3)

    def test_unblocked_passes_never_open_a_session(self):
        jobs = {0: fanned_job(0), 1: saturated_job(1, 2, 100.0)}
        policy = DecimaScheduler(seed=4)
        view = build_view(jobs, jobs, busy=2)
        for _ in range(3):
            assert policy.sample_with_importance(view) is not None
        assert policy._session is None

    def test_reset_clears_the_session(self):
        jobs = {0: saturated_job(0, 1, 1.0), 1: saturated_job(1, 2, 100.0),
                2: fanned_job(2)}
        policy = DecimaScheduler(seed=3)
        view = build_view(jobs, jobs, busy=3)
        pick, _ = policy.sample_with_importance(view)
        view.block(pick.job_id, pick.stage_id)
        policy.sample_with_importance(view)
        assert policy._session is not None
        policy.reset()
        assert policy._last is None and policy._session is None
