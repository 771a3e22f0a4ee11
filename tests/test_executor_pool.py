"""Unit + property tests for the engine's executor pool.

The pool's affinity and reservation semantics decide executor-movement
delays and hoarding behaviour, so they are pinned here: take prefers the
job's reserved executors, then the longest-waiting general executor last
bound to the job, then the most recently released general executor. The
O(1) linked-list implementation must be observationally identical to the
straightforward list-scan it replaced; the property test checks exactly
that against a reference implementation over randomized traffic.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.simulator.engine import _ExecutorPool


class _ReferencePool:
    """The pre-refactor list-scan pool: the behavioural specification."""

    def __init__(self, count):
        self.general = list(range(count))
        self.reserved = {}
        self.last_job = [None] * count

    def take(self, job_id):
        held = self.reserved.get(job_id)
        if held:
            return held.pop(), False
        for pos, executor_id in enumerate(self.general):
            if self.last_job[executor_id] == job_id:
                self.general.pop(pos)
                return executor_id, False
        return self.general.pop(), True

    def release(self, executor_id, job_id, hold):
        self.last_job[executor_id] = job_id
        if hold:
            self.reserved.setdefault(job_id, []).append(executor_id)
        else:
            self.general.append(executor_id)

    def unreserve(self, job_id):
        held = self.reserved.pop(job_id, [])
        self.general.extend(held)
        return held

    def free_for(self, job_id):
        return len(self.general) + len(self.reserved.get(job_id, ()))

    @property
    def free_count(self):
        return len(self.general) + sum(len(v) for v in self.reserved.values())


class TestTakePreferences:
    def test_fresh_pool_pops_newest_with_move(self):
        pool = _ExecutorPool(3)
        assert pool.take(0) == (2, True)
        assert pool.take(0) == (1, True)

    def test_take_prefers_held_executor(self):
        pool = _ExecutorPool(3)
        eid, _ = pool.take(7)
        pool.release(eid, 7, hold=True)
        assert pool.take(7) == (eid, False)

    def test_take_prefers_last_job_over_newest(self):
        pool = _ExecutorPool(3)
        eid, _ = pool.take(7)  # 2
        pool.release(eid, 7, hold=False)
        # Executor 2 was last bound to job 7; job 7 gets it back move-free
        # even though it is also the most recently released.
        assert pool.take(7) == (eid, False)

    def test_take_prefers_longest_waiting_affinity_match(self):
        pool = _ExecutorPool(4)
        first, _ = pool.take(7)
        second, _ = pool.take(7)
        pool.release(second, 7, hold=False)
        pool.release(first, 7, hold=False)
        # Both match job 7; the one released earlier (waiting longest) wins.
        assert pool.take(7) == (second, False)

    def test_other_jobs_pay_the_move(self):
        pool = _ExecutorPool(2)
        eid, _ = pool.take(7)
        pool.release(eid, 7, hold=False)
        taken, needs_move = pool.take(8)
        assert needs_move

    def test_held_executor_unavailable_to_other_jobs(self):
        pool = _ExecutorPool(1)
        eid, _ = pool.take(7)
        pool.release(eid, 7, hold=True)
        assert pool.free_for(8) == 0
        assert pool.free_for(7) == 1
        with pytest.raises(IndexError):
            pool.take(8)

    def test_unreserve_returns_roster_to_general(self):
        pool = _ExecutorPool(2)
        a, _ = pool.take(7)
        b, _ = pool.take(7)
        pool.release(a, 7, hold=True)
        pool.release(b, 7, hold=True)
        assert pool.general_free == 0
        assert sorted(pool.unreserve(7)) == sorted([a, b])
        assert pool.general_free == 2
        assert pool.reserved_counts() == {}

    def test_stale_affinity_entry_skipped(self):
        pool = _ExecutorPool(2)
        a, _ = pool.take(7)
        pool.release(a, 7, hold=False)  # a has affinity for 7
        taken, _ = pool.take(8)  # generic take steals a (newest)
        assert taken == a
        pool.release(a, 8, hold=False)  # a now belongs to 8
        taken, needs_move = pool.take(7)
        assert needs_move  # the old affinity entry for 7 must not resolve

    def test_counts(self):
        pool = _ExecutorPool(3)
        assert pool.free_count == 3
        eid, _ = pool.take(1)
        assert pool.free_count == 2
        pool.release(eid, 1, hold=True)
        assert pool.free_count == 3
        assert pool.general_free == 2
        assert pool.reserved_counts() == {1: 1}


@st.composite
def pool_traffic(draw):
    """A randomized, always-legal sequence of pool operations."""
    count = draw(st.integers(min_value=1, max_value=6))
    num_ops = draw(st.integers(min_value=1, max_value=60))
    return count, num_ops


class TestMatchesReferenceImplementation:
    @given(pool_traffic(), st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_randomized_equivalence(self, traffic, rng):
        count, num_ops = traffic
        fast, ref = _ExecutorPool(count), _ReferencePool(count)
        out = []  # executors we hold, with the job that took them
        jobs = list(range(3))
        for _ in range(num_ops):
            op = rng.random()
            if op < 0.5 and ref.free_count > 0:
                job = rng.choice(jobs)
                if ref.free_for(job) == 0:
                    continue
                got_fast = fast.take(job)
                got_ref = ref.take(job)
                assert got_fast == got_ref
                out.append((got_fast[0], job))
            elif op < 0.9 and out:
                eid, job = out.pop(rng.randrange(len(out)))
                hold = rng.random() < 0.4
                fast.release(eid, job, hold=hold)
                ref.release(eid, job, hold=hold)
            else:
                job = rng.choice(jobs)
                got_fast = sorted(fast.unreserve(job))
                got_ref = sorted(ref.unreserve(job))
                assert got_fast == got_ref
            assert fast.free_count == ref.free_count
            assert fast.general_free == len(ref.general)
            for job in jobs:
                assert fast.free_for(job) == ref.free_for(job)
        # Drain both pools completely; order must still agree.
        while ref.free_count > 0:
            job = rng.choice(jobs)
            if ref.free_for(job) == 0:
                job = next(j for j in jobs if ref.free_for(j) > 0)
            assert fast.take(job) == ref.take(job)


def _recount(pool):
    return sum(len(held) for held in pool.reserved.values())


class TestReservedCount:
    """``free_count`` reads a running reserved total; it must always equal
    a recount of the reserved lists, through every verb that moves an
    executor, the capacity hooks ``set_capacity`` uses included."""

    @given(pool_traffic(), st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_running_total_matches_recount(self, traffic, rng):
        count, num_ops = traffic
        pool = _ExecutorPool(count)
        out = []  # (executor, job) pairs running a task
        offline = []
        jobs = list(range(3))
        for _ in range(num_ops):
            op = rng.random()
            job = rng.choice(jobs)
            if op < 0.35 and pool.free_for(job) > 0:
                out.append((pool.take(job)[0], job))
            elif op < 0.65 and out:
                eid, owner = out.pop(rng.randrange(len(out)))
                pool.release(eid, owner, hold=rng.random() < 0.5)
            elif op < 0.75:
                pool.unreserve(job)
            elif op < 0.85:  # shrink: general first, then reserved
                if pool.general_free > 0:
                    offline.append(pool.pop_newest_general())
                else:
                    popped = pool.pop_reserved()
                    if popped is not None:
                        offline.append(popped[1])
            elif offline:  # grow
                pool.add_back(offline.pop())
            assert pool._reserved_total == _recount(pool)
            assert pool.free_count == pool.general_free + _recount(pool)
            assert pool.free_count + len(out) + len(offline) == count

    def test_checkpoint_without_the_count_recomputes_it(self):
        import pickle

        pool = _ExecutorPool(4)
        a, _ = pool.take(7)
        b, _ = pool.take(7)
        c, _ = pool.take(8)
        pool.release(a, 7, hold=True)
        pool.release(b, 7, hold=True)
        pool.release(c, 8, hold=True)
        state = dict(vars(pool))
        del state["_reserved_total"]  # the layout before the running total
        old = _ExecutorPool.__new__(_ExecutorPool)
        old.__dict__.update(state)
        restored = pickle.loads(pickle.dumps(old))
        assert restored._reserved_total == 3
        assert restored.free_count == 4
        assert restored.take(7) == (b, False)
        assert restored.free_count == 3
