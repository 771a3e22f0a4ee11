"""Unit tests for repro.carbon.trace."""

import numpy as np
import pytest

from repro.carbon.trace import CarbonTrace, concatenate

from conftest import make_trace


class TestConstruction:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            CarbonTrace([])

    def test_rejects_negative_values(self):
        with pytest.raises(ValueError):
            CarbonTrace([10.0, -1.0])

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            CarbonTrace([10.0, float("nan")])

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError):
            CarbonTrace([1.0], step_seconds=0.0)

    def test_rejects_2d_input(self):
        with pytest.raises(ValueError):
            CarbonTrace(np.ones((2, 2)))

    def test_values_view_is_readonly(self):
        trace = make_trace([1.0, 2.0])
        with pytest.raises(ValueError):
            trace.values[0] = 5.0

    def test_len_and_duration(self):
        trace = make_trace([1.0, 2.0, 3.0], step_seconds=60.0)
        assert len(trace) == 3
        assert trace.duration_seconds == 180.0


class TestLookup:
    def test_intensity_within_first_step(self):
        trace = make_trace([100.0, 200.0], step_seconds=60.0)
        assert trace.intensity_at(0.0) == 100.0
        assert trace.intensity_at(59.999) == 100.0

    def test_intensity_at_boundary_moves_to_next_step(self):
        trace = make_trace([100.0, 200.0], step_seconds=60.0)
        assert trace.intensity_at(60.0) == 200.0

    def test_wraps_past_end_by_default(self):
        trace = make_trace([100.0, 200.0], step_seconds=60.0)
        assert trace.intensity_at(120.0) == 100.0
        assert trace.intensity_at(180.0) == 200.0

    def test_holds_last_value_when_wrap_disabled(self):
        trace = CarbonTrace([100.0, 200.0], step_seconds=60.0, wrap=False)
        assert trace.intensity_at(1e6) == 200.0

    def test_negative_time_rejected(self):
        trace = make_trace([1.0])
        with pytest.raises(ValueError):
            trace.intensity_at(-1.0)

    def test_next_change_after(self):
        trace = make_trace([1.0, 2.0], step_seconds=60.0)
        assert trace.next_change_after(0.0) == 60.0
        assert trace.next_change_after(59.0) == 60.0
        assert trace.next_change_after(60.0) == 120.0


class TestDerivedTraces:
    def test_slice_basic(self):
        trace = make_trace([1.0, 2.0, 3.0, 4.0])
        sliced = trace.slice(1, 2)
        assert list(sliced.values) == [2.0, 3.0]

    def test_slice_wraps(self):
        trace = make_trace([1.0, 2.0, 3.0])
        sliced = trace.slice(2, 3)
        assert list(sliced.values) == [3.0, 1.0, 2.0]

    def test_slice_rejects_nonpositive_length(self):
        trace = make_trace([1.0])
        with pytest.raises(ValueError):
            trace.slice(0, 0)

    def test_rescaled_changes_time_axis_only(self):
        trace = make_trace([1.0, 2.0], step_seconds=60.0)
        fast = trace.rescaled(1.0)
        assert list(fast.values) == [1.0, 2.0]
        assert fast.intensity_at(1.5) == 2.0

    def test_concatenate(self):
        a = make_trace([1.0, 2.0])
        b = make_trace([3.0])
        joined = concatenate([a, b])
        assert list(joined.values) == [1.0, 2.0, 3.0]

    def test_concatenate_rejects_mixed_steps(self):
        a = make_trace([1.0], step_seconds=60.0)
        b = make_trace([1.0], step_seconds=30.0)
        with pytest.raises(ValueError):
            concatenate([a, b])

    def test_concatenate_rejects_empty(self):
        with pytest.raises(ValueError):
            concatenate([])


class TestStats:
    def test_stats_values(self):
        trace = make_trace([100.0, 200.0, 300.0])
        stats = trace.stats()
        assert stats.minimum == 100.0
        assert stats.maximum == 300.0
        assert stats.mean == 200.0
        assert stats.coeff_var == pytest.approx(np.std([100, 200, 300]) / 200.0)

    def test_stats_as_row(self):
        stats = make_trace([5.0]).stats()
        assert stats.as_row() == (5.0, 5.0, 5.0, 0.0)

    def test_bounds_over_window(self):
        trace = make_trace([100.0, 50.0, 300.0, 200.0], step_seconds=60.0)
        low, high = trace.bounds_over(0.0, 120.0)
        assert (low, high) == (50.0, 100.0)
        low, high = trace.bounds_over(60.0, 240.0)
        assert (low, high) == (50.0, 300.0)

    def test_bounds_rejects_empty_window(self):
        trace = make_trace([1.0])
        with pytest.raises(ValueError):
            trace.bounds_over(10.0, 10.0)


class TestIntegration:
    def test_integral_within_one_step(self):
        trace = make_trace([100.0, 200.0], step_seconds=60.0)
        assert trace.integrate(0.0, 30.0) == pytest.approx(3000.0)

    def test_integral_across_steps(self):
        trace = make_trace([100.0, 200.0], step_seconds=60.0)
        assert trace.integrate(30.0, 90.0) == pytest.approx(
            30 * 100.0 + 30 * 200.0
        )

    def test_integral_zero_length(self):
        trace = make_trace([100.0])
        assert trace.integrate(5.0, 5.0) == 0.0

    def test_integral_rejects_reversed_interval(self):
        trace = make_trace([100.0])
        with pytest.raises(ValueError):
            trace.integrate(10.0, 5.0)

    def test_integral_wraps(self):
        trace = make_trace([100.0, 200.0], step_seconds=60.0)
        # 120..180 wraps to the first step again.
        assert trace.integrate(120.0, 180.0) == pytest.approx(6000.0)

    def test_integral_additivity(self):
        trace = make_trace([10.0, 70.0, 30.0], step_seconds=60.0)
        whole = trace.integrate(12.0, 170.0)
        split = trace.integrate(12.0, 75.0) + trace.integrate(75.0, 170.0)
        assert whole == pytest.approx(split)


def segment_walk_integral(trace, t_start, t_end):
    """Reference: the pre-refactor per-segment integration loop."""
    total = 0.0
    t = t_start
    while t < t_end:
        boundary = trace.next_change_after(t)
        seg_end = min(boundary, t_end)
        total += trace.intensity_at(t) * (seg_end - t)
        t = seg_end
    return total


class TestCumulativeIntegration:
    """The two-lookup integrate() must agree with the segment walk."""

    def test_matches_segment_walk_wrapping(self):
        trace = make_trace([30.0, 120.0, 45.0, 200.0], step_seconds=60.0)
        rng = np.random.default_rng(0)
        for _ in range(200):
            a, b = np.sort(rng.uniform(0.0, 3 * 240.0, size=2))
            assert trace.integrate(a, b) == pytest.approx(
                segment_walk_integral(trace, a, b)
            )

    def test_matches_segment_walk_no_wrap(self):
        trace = CarbonTrace(
            [30.0, 120.0, 45.0], step_seconds=60.0, wrap=False
        )
        rng = np.random.default_rng(1)
        for _ in range(200):
            a, b = np.sort(rng.uniform(0.0, 500.0, size=2))
            assert trace.integrate(a, b) == pytest.approx(
                segment_walk_integral(trace, a, b)
            )

    def test_cumulative_at_zero(self):
        trace = make_trace([100.0, 200.0])
        assert trace.cumulative_at(0.0) == 0.0
        with pytest.raises(ValueError):
            trace.cumulative_at(-1.0)

    def test_integrate_many_matches_scalar(self):
        # Bit equality, not approx: the streaming aggregator integrates in
        # batches and must tally exactly what per-record integration would.
        rng = np.random.default_rng(2)
        for wrap in (True, False):
            trace = CarbonTrace(
                [30.0, 120.0, 45.0, 200.0, 17.5], step_seconds=60.0, wrap=wrap
            )
            horizon = 4 * trace.duration_seconds  # well past the end
            starts = rng.uniform(0.0, horizon, size=2000)
            ends = starts + rng.exponential(200.0, size=2000)
            # Zero-length intervals, step and trace boundaries, exact ends.
            edges = np.array([0.0, 60.0, 299.999, 300.0, 300.0, 901.25, 1500.0])
            starts = np.concatenate([starts, edges, [0.0, 60.0, 290.0]])
            ends = np.concatenate([ends, edges, [300.0, 600.0, 3000.0]])
            batch = trace.integrate_many(starts, ends)
            assert batch.shape == starts.shape
            for a, b, value in zip(
                starts.tolist(), ends.tolist(), batch.tolist()
            ):
                assert value == trace.integrate(a, b), (wrap, a, b)
            assert batch[-10:-3].tolist() == [0.0] * len(edges)

    def test_integrate_many_no_wrap(self):
        trace = CarbonTrace([50.0, 150.0], step_seconds=60.0, wrap=False)
        batch = trace.integrate_many([0.0, 100.0, 200.0], [60.0, 130.0, 260.0])
        for (a, b), value in zip(
            [(0.0, 60.0), (100.0, 130.0), (200.0, 260.0)], batch
        ):
            assert value == pytest.approx(trace.integrate(a, b))

    def test_integrate_many_empty(self):
        trace = make_trace([100.0])
        assert trace.integrate_many([], []).size == 0

    def test_integrate_many_validation(self):
        trace = make_trace([100.0])
        with pytest.raises(ValueError):
            trace.integrate_many([0.0, 5.0], [1.0])
        with pytest.raises(ValueError):
            trace.integrate_many([5.0], [1.0])
        with pytest.raises(ValueError):
            trace.integrate_many([-1.0], [1.0])
