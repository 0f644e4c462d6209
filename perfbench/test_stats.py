"""Tests for the benchmark's own helpers: ``python -m pytest perfbench``."""

from __future__ import annotations

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import serving  # noqa: E402
import stats  # noqa: E402


class TestTailPercentile:
    def test_picks_highest_grid_percentile_with_ten_beyond(self):
        assert stats.tail_percentile(1000) == 99.0
        assert stats.tail_percentile(10000) == 99.5  # 99.9 rounds down to the grid
        assert stats.tail_percentile(288) == 96.5  # 96.53 rounds down; 10.1 beyond
        assert stats.tail_percentile(174) == 94.0
        assert stats.tail_percentile(100) == 90.0

    def test_beyond_count_never_falls_under_ten(self):
        for n in range(40, 3000):
            assert n * (100.0 - stats.tail_percentile(n)) / 100.0 >= 10.0 - 1e-9

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            stats.tail_percentile(39)

    def test_percentile_interpolates(self):
        assert stats.percentile([0, 10], 50) == 5
        assert stats.percentile([3, 1, 2], 100) == 3
        assert stats.median([4, 1, 3, 2]) == 2.5


class TestSummarize:
    def test_small_samples_are_one_window(self):
        values = list(range(100))
        out = stats.summarize(values)
        assert out["n"] == [100]
        assert out["tail_q"] == 90.0
        assert out["p50"] == pytest.approx(49.5)
        assert out["tail"] == pytest.approx(stats.percentile(values, 90.0))

    def test_large_samples_average_their_two_halves(self):
        values = [1.0] * 100 + [3.0] * 100  # second half ran slower
        out = stats.summarize(values)
        assert out["n"] == [100, 100]
        assert out["tail_q"] == 90.0  # ten beyond in each half of 100
        assert out["p50"] == pytest.approx(2.0)
        assert out["tail"] == pytest.approx(2.0)


class TestDueTime:
    def test_latency_counts_the_wait_before_sending(self):
        # Due at 1.0 s, sent late at 1.5 s, answered at 1.6 s.
        assert stats.due_latency_ms(1.0, 1.6) == pytest.approx(600.0)

    def test_boundary_distance(self):
        assert stats.boundary_distance(90.0, 0.10) == pytest.approx(0.0)
        assert stats.boundary_distance(97.0, 0.10) == pytest.approx(7.0)
        assert stats.boundary_distance(50.0, 0.48) == pytest.approx(2.0)


def span(name, start, end, thread=1, rid=None, **extra):
    return {"name": name, "start": start, "end": end, "thread": thread, "rid": rid, **extra}


class TestTransport:
    def test_round_trip_minus_handle_matched_by_request_id(self):
        spans = [span("http.handle", 10.000, 10.004, rid=1),
                 span("http.handle", 20.000, 20.010, rid=2),
                 span("fleet", 20.001, 20.009, rid=2)]
        out = stats.transport_ms({1: 44.0, 2: 12.0, 3: 5.0}, spans)
        assert out == {1: pytest.approx(40.0), 2: pytest.approx(2.0)}

    def test_spans_without_request_id_are_ignored(self):
        assert stats.transport_ms({1: 5.0}, [span("http.handle", 0.0, 0.001)]) == {}


class TestSelfTimes:
    def test_nested_children_are_subtracted(self):
        spans = [span("outer", 0.0, 10.0), span("a", 1.0, 3.0), span("b", 4.0, 8.0),
                 span("inner", 5.0, 6.0)]
        got = {s["name"]: t for s, t in stats.self_times(spans)}
        assert got == {"outer": pytest.approx(4.0), "a": pytest.approx(2.0),
                       "b": pytest.approx(3.0), "inner": pytest.approx(1.0)}

    def test_other_threads_do_not_nest(self):
        spans = [span("outer", 0.0, 10.0, thread=1), span("other", 1.0, 2.0, thread=2)]
        got = {s["name"]: t for s, t in stats.self_times(spans)}
        assert got == {"outer": pytest.approx(10.0), "other": pytest.approx(1.0)}

    def test_dispatcher_work_is_charged_to_the_requests_it_served(self):
        spans = [
            span("engine.forecast", 0.0, 10.0, thread=1, rid=7),
            span("state.window", 0.5, 1.0, thread=1, rid=7),
            span("engine.forecast", 0.2, 10.0, thread=3, rid=8),
            span("engine.forecast", 0.0, 1.0, thread=4, rid=9),  # not in the batch
            span("engine.batch", 4.0, 9.0, thread=2, serves=[7, 8], cross=True,
                 cross_parent="engine.forecast"),
            span("plan.replay", 5.0, 8.0, thread=2),
        ]
        got = [t for _, t in stats.self_times(spans)]
        assert got[0] == pytest.approx(10.0 - 0.5 - 5.0)  # queue wait of request 7
        assert got[2] == pytest.approx(9.8 - 5.0)
        assert got[3] == pytest.approx(1.0)
        assert got[4] == pytest.approx(2.0)  # batch self time: 5 s minus the replay

    def test_overlapping_children_are_not_double_counted(self):
        spans = [span("engine.forecast", 0.0, 10.0, thread=1, rid=1),
                 span("engine.batch", 2.0, 6.0, thread=2, serves=[1], cross=True,
                      cross_parent="engine.forecast"),
                 span("engine.batch", 5.0, 7.0, thread=3, serves=[1], cross=True,
                      cross_parent="engine.forecast")]
        assert stats.self_times(spans)[0][1] == pytest.approx(5.0)


class TestRequestLayers:
    def test_dispatcher_spans_follow_their_batch(self):
        spans = [
            span("engine.forecast", 0.0, 0.010, thread=1, rid=1),
            span("engine.batch", 0.002, 0.008, thread=2, serves=[1], cross=True,
                 cross_parent="engine.forecast"),
            span("plan.replay", 0.003, 0.007, thread=2),
        ]
        layers = serving.request_layers(spans)[1]
        assert layers["engine.queue"] == pytest.approx(4.0)
        assert layers["engine.dispatch"] == pytest.approx(2.0)
        assert layers["plan.replay"] == pytest.approx(4.0)
