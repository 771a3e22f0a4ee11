"""The streaming aggregator's batched carbon fold and exact compaction.

:class:`~repro.simulator.streaming.StreamingAggregator` buffers final
records and integrates their carbon one batch at a time, and
:class:`~repro.simulator.streaming.ExactSum` compacts its addend list by
peeling ``math.fsum`` residuals. Neither schedule may change a result:
pinned here by property tests of the compaction, by replaying the seven
pinned scenarios under extreme flush and compaction thresholds, and by
checkpoints taken with and without buffered records (including blobs in
the layout written before records were buffered).
"""

import copy
import math
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.runner import run_experiment
from repro.simulator import streaming
from repro.simulator.streaming import (
    COMPACT_AT,
    ExactSum,
    StreamingAggregator,
    replay_result,
)
from repro.simulator.trace import HoldRecord, TaskRecord

from conftest import make_trace
from fingerprint_scenarios import PINNED_SCENARIOS, SCENARIO_IDS

#: Finite floats across the exponent range, subnormals and signed zeros
#: included. The magnitude cap keeps any sum of a few thousand of them
#: finite, so ``math.fsum`` never overflows.
wide_floats = st.one_of(
    st.floats(
        min_value=-1e300, max_value=1e300, allow_nan=False,
        allow_infinity=False,
    ),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300, 2.0**53, 1e300]),
)


class TestExactSumCompaction:
    @given(
        st.lists(wide_floats, min_size=1, max_size=40),
        st.integers(min_value=COMPACT_AT + 1, max_value=3 * COMPACT_AT),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_compacted_sum_equals_fsum_of_every_addend(
        self, pool, length, rnd
    ):
        # Each value also appears negated, so long runs cancel exactly.
        pool = pool + [-x for x in pool]
        values = [rnd.choice(pool) for _ in range(length)]
        one_by_one = ExactSum()
        for value in values:
            one_by_one.add(value)
        chunked = ExactSum()
        start = 0
        while start < length:
            stop = start + rnd.randint(1, 2 * COMPACT_AT)
            chunked.extend(values[start:stop])
            start = stop
        expected = repr(math.fsum(values))
        assert repr(one_by_one.value) == expected
        assert repr(chunked.value) == expected
        assert repr(ExactSum(values).value) == expected
        assert len(one_by_one._partials) < COMPACT_AT

    def test_signed_zeros_past_the_threshold(self):
        zeros = [-0.0] * (COMPACT_AT + 3)
        assert repr(ExactSum(zeros).value) == repr(math.fsum(zeros))
        mixed = zeros + [0.0]
        assert repr(ExactSum(mixed).value) == repr(math.fsum(mixed))

    def test_compaction_keeps_the_exact_remainder(self):
        # 1e16 + 1.0 is not representable: only a kept residual carries
        # the 1.0 until the 1e16 cancels.
        acc = ExactSum([1e16, 1.0] + [0.0] * COMPACT_AT)
        acc.add(-1e16)
        assert acc.value == 1.0


def _results(aggregator: StreamingAggregator):
    # Each read must flush by itself, so each reads its own copy.
    windows = copy.deepcopy(aggregator).recent_windows()
    return repr(windows), repr(copy.deepcopy(aggregator).summary_metrics())


def _replay_summary(result, monkeypatch, flush_at, compact_at):
    monkeypatch.setattr(streaming, "FLUSH_AT", flush_at)
    monkeypatch.setattr(streaming, "COMPACT_AT", compact_at)
    aggregator = replay_result(result, window_s=100.0)
    return _results(aggregator)


class TestFlushScheduleNeutrality:
    @pytest.mark.parametrize("config", PINNED_SCENARIOS, ids=SCENARIO_IDS)
    def test_flush_threshold_never_changes_results(self, config, monkeypatch):
        result = run_experiment(config)
        eager = _replay_summary(result, monkeypatch, 1, 2)
        lazy = _replay_summary(result, monkeypatch, 10**9, 10**9)
        assert eager == lazy


def _task(i: int, start: float, duration: float) -> TaskRecord:
    return TaskRecord(
        job_id=i, stage_id=0, task_index=0, executor_id=i % 4,
        start=start, work_start=start, end=start + duration,
    )


def _feed(aggregator: StreamingAggregator, lo: int, hi: int) -> None:
    """Fold tasks, holds and jobs ``lo..hi`` (a deterministic stream)."""
    for i in range(lo, hi):
        start = 37.0 * i + (i % 7) * 0.3
        duration = 5.0 + (i % 11) * 13.7
        aggregator.observe_arrival(i, start)
        aggregator.task_done(aggregator.add_task(_task(i, start, duration)))
        aggregator.add_hold(HoldRecord(
            job_id=i, executor_id=i % 4, start=start,
            end=start + duration + 2.5,
        ))
        aggregator.observe_finish(i, start, start + duration)


def _fresh() -> StreamingAggregator:
    return StreamingAggregator(
        total_executors=4,
        carbon=make_trace([100.0, 250.0, 50.0, 400.0] * 40),
        window_s=900.0,
    )


class TestCheckpointLayouts:
    """Restoring mid-stream continues bit-identically, buffered or not."""

    def _uninterrupted(self):
        aggregator = _fresh()
        _feed(aggregator, 0, 600)
        return _results(aggregator)

    def test_blob_with_buffered_records(self, monkeypatch):
        monkeypatch.setattr(streaming, "FLUSH_AT", 10**9)
        expected = self._uninterrupted()
        aggregator = _fresh()
        _feed(aggregator, 0, 300)
        assert aggregator._pending_tasks and aggregator._pending_holds
        restored = pickle.loads(pickle.dumps(aggregator))
        _feed(restored, 300, 600)
        assert _results(restored) == expected

    def test_blob_in_the_pre_buffer_layout(self, monkeypatch):
        expected = self._uninterrupted()
        aggregator = _fresh()
        _feed(aggregator, 0, 300)
        aggregator._flush()
        # The layout written before records were buffered: no buffer
        # fields at all, every record's carbon already integrated.
        monkeypatch.setattr(
            StreamingAggregator,
            "__getstate__",
            lambda self: {
                k: v for k, v in vars(self).items()
                if k not in ("_pending_tasks", "_pending_holds")
            },
            raising=False,
        )
        blob = pickle.dumps(aggregator)
        monkeypatch.undo()
        restored = pickle.loads(blob)
        assert restored._pending_tasks == [] == restored._pending_holds
        _feed(restored, 300, 600)
        assert _results(restored) == expected
