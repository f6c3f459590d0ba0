"""Unit tests for the benchmark's own measurement rules.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import itertools

import pytest

from perfbench.measure import (
    MIN_BEYOND,
    PROBE_WINDOW_S,
    SpanRecord,
    lateness,
    open_loop_schedule,
    percentile,
    self_times,
    stretch_speed,
    supported_quantile,
    tail_percentile,
)
from perfbench.tracing import Recorder, layer_report, layer_self_times


class TestPercentileRule:
    def test_p99_needs_a_thousand_samples(self):
        assert percentile(list(range(1000)), 0.99) == 989
        with pytest.raises(ValueError, match="beyond"):
            percentile(list(range(999)), 0.99)

    def test_median_needs_ten_beyond(self):
        assert percentile(list(range(20)), 0.5) == 9
        with pytest.raises(ValueError):
            percentile(list(range(19)), 0.5)

    def test_nearest_rank_ignores_input_order(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0] * 5
        assert percentile(values, 0.5) == 3.0

    def test_exactly_min_beyond_samples_past_the_rank(self):
        for n in (25, 100, 999):  # each too small for a p99
            samples = list(range(n))
            value = percentile(samples, supported_quantile(n, 0.99))
            assert sum(1 for s in samples if s > value) == MIN_BEYOND

    def test_tail_falls_back_to_the_highest_supported_quantile(self):
        value, used = tail_percentile(list(range(400)), 0.99)
        assert used == pytest.approx(0.975)
        assert value == 389
        value, used = tail_percentile(list(range(2000)), 0.99)
        assert (value, used) == (1979, 0.99)

    def test_too_few_samples_support_nothing(self):
        with pytest.raises(ValueError):
            tail_percentile(list(range(MIN_BEYOND)), 0.99)

    def test_quantile_must_be_open_interval(self):
        with pytest.raises(ValueError):
            percentile(list(range(100)), 1.0)


class TestOpenLoopSchedule:
    def test_fixed_spacing_and_alternating_kinds(self):
        arrivals = open_loop_schedule(10.0, 2.0, 7, {"segment": 3, "query": 2})
        assert len(arrivals) == 20
        assert [a.due for a in arrivals] == pytest.approx([i / 10 for i in range(20)])
        assert [a.kind for a in arrivals[:4]] == ["segment", "query"] * 2

    def test_same_seed_same_schedule(self):
        make = lambda seed: open_loop_schedule(25.0, 3.0, seed, {"a": 7, "b": 4})  # noqa: E731
        assert make(3) == make(3)
        assert make(3) != make(4)

    def test_each_kind_walks_every_input_before_repeating(self):
        arrivals = open_loop_schedule(10.0, 4.0, 1, {"segment": 5, "query": 4})
        segments = [a.index for a in arrivals if a.kind == "segment"]
        assert sorted(segments[:5]) == list(range(5))
        assert sorted(segments[5:10]) == list(range(5))
        queries = [a.index for a in arrivals if a.kind == "query"]
        assert sorted(queries[:4]) == list(range(4))

    def test_rejects_non_positive_rate(self):
        with pytest.raises(ValueError):
            open_loop_schedule(0.0, 1.0, 1, {"segment": 1})

    def test_lateness_is_clamped_at_zero(self):
        dues = [0.0, 0.1, 0.2]
        sent = [0.001, 0.05, 0.25]
        assert lateness(dues, sent) == pytest.approx([0.001, 0.0, 0.05])


class TestSelfTimes:
    def test_children_are_subtracted_from_their_parent_only(self):
        spans = [
            SpanRecord("path", 0.0, 10.0, None),
            SpanRecord("runner.run", 1.0, 8.0, 0),
            SpanRecord("core.segment_site", 2.0, 7.0, 1),
            SpanRecord("csp.segment", 3.0, 5.0, 2),
            SpanRecord("store.ingest", 8.0, 9.5, 0),
        ]
        assert self_times(spans) == pytest.approx([1.5, 2.0, 3.0, 2.0, 1.5])

    def test_recorder_self_times_add_up_to_the_root(self):
        ticks = itertools.count()
        recorder = Recorder(clock=lambda: float(next(ticks)))
        with recorder.span("path"):
            with recorder.span("core.segment_site"):
                with recorder.span("template.find"):
                    with recorder.span("webdoc.tokenize"):
                        pass
                with recorder.span("csp.segment"):
                    pass
            with recorder.span("store.ingest"):
                pass
        with recorder.span("store.query"):  # after the root: not on the path
            pass
        report = layer_report(recorder)
        assert report["trace.wall_s"] == 11.0
        assert report["core.segment_site_s"] == 7.0
        assert report["core.self_s"] == 3.0  # 7 minus find (3) and csp (1)
        assert report["template.find_s"] == 3.0
        assert report["store.query_s"] == 1.0
        assert report["trace.unaccounted_s"] == 3.0
        assert report["trace.layers_s"] + report["trace.unaccounted_s"] == 11.0
        layers = layer_self_times(recorder)
        assert sum(layers.values()) == 11.0
        assert "store" in layers and layers["store"] == 1.0

    def test_open_spans_are_refused(self):
        recorder = Recorder()
        with pytest.raises(RuntimeError):
            with recorder.span("path"):
                recorder.spans()


class TestStretchSpeed:
    SAMPLES = [(t / 10, 1.0 if t < 50 else 0.5) for t in range(100)]

    def test_median_of_the_samples_inside_the_stretch(self):
        assert stretch_speed(self.SAMPLES, 1.0, 4.0) == 1.0
        assert stretch_speed(self.SAMPLES, 6.0, 9.0) == 0.5
        assert stretch_speed(self.SAMPLES, 3.0, 8.0) == 0.5  # 31 of 51 are slow

    def test_short_stretch_widens_around_its_middle(self):
        # A 0.01 s stretch holds no sample; the window around it does.
        assert stretch_speed(self.SAMPLES, 2.0, 2.01) == 1.0
        wide = stretch_speed(self.SAMPLES, 5.0 - PROBE_WINDOW_S / 4, 5.0)
        assert wide in (0.5, 0.75, 1.0)

    def test_no_samples_means_unscaled(self):
        assert stretch_speed([], 0.0, 1.0) == 1.0
        assert stretch_speed(self.SAMPLES, 50.0, 60.0) == 1.0
