"""Tests for the benchmark's own helpers.

    python3 -m pytest perfbench/test_helpers.py
"""

from __future__ import annotations

import statistics
import sys
import threading
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import launcher  # noqa: E402
from layers import layer_metrics, serve_figures  # noqa: E402
from stats import (  # noqa: E402
    Ops,
    TooFewSamples,
    median,
    percentile,
    quartiles,
    self_times,
    spread,
)


class TestPercentile:
    def test_nearest_rank_is_an_observation(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0]
        assert percentile(values, 50).value == 3.0
        assert percentile(values, 20).value == 1.0
        assert percentile(values, 21).value == 2.0

    def test_reports_sample_count_and_samples_beyond(self):
        p = percentile(range(1, 1001), 99)
        assert (p.value, p.samples, p.beyond) == (990, 1000, 10)

    def test_refuses_tail_with_fewer_than_ten_beyond(self):
        with pytest.raises(TooFewSamples):
            percentile(range(999), 99)  # rank 990 leaves 9 beyond
        assert percentile(range(200), 95).beyond == 10

    def test_median_is_not_a_tail(self):
        assert median([7.0]) == 7.0
        assert median([1.0, 2.0]) == 1.0  # the lower middle sample

    def test_rejects_bad_input(self):
        with pytest.raises(TooFewSamples):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 0)

    def test_quartiles_match_the_statistics_module(self):
        values = [3.1, 1.2, 9.9, 4.4, 5.0, 2.2, 8.1, 7.3, 6.6, 0.5]
        assert quartiles(values) == tuple(statistics.quantiles(values, n=4))
        q1, mid, q3 = quartiles(values)
        assert spread(values) == pytest.approx((q3 - q1) / mid)


def span(id_, parent, start, end, name="x", **attrs):
    return {"id": id_, "parent": parent, "start": start, "end": end,
            "name": name, **attrs}


class TestSelfTimes:
    def test_nested_calls_subtract_once(self):
        spans = [
            span("a", None, 0.0, 10.0),
            span("b", "a", 1.0, 7.0),
            span("c", "b", 2.0, 5.0),
            span("d", "a", 8.0, 9.0),
        ]
        own = self_times(spans)
        assert own == pytest.approx({"a": 3.0, "b": 3.0, "c": 3.0, "d": 1.0})
        assert sum(own.values()) == pytest.approx(10.0)

    def test_child_whose_parent_was_not_recorded_keeps_its_time(self):
        assert self_times([span("b", "gone", 1.0, 2.5)]) == {"b": 1.5}

    def test_layer_metrics_charges_generation_to_synthgen_not_corpus(self):
        spans = [
            span("e", None, 0.0, 10.0, "experiment.E1"),
            span("l", "e", 1.0, 8.0, "corpus.load"),
            span("g", "l", 1.5, 7.5, "synthgen.generate", papers=600),
            span("p", "l", 7.5, 7.9, "artifacts.put", bytes=2_000_000),
        ]
        layers = layer_metrics(spans)
        assert layers["synthgen.generate_s"] == pytest.approx(6.0)
        assert layers["synthgen.papers_per_s"] == pytest.approx(100.0)
        assert layers["corpus.load_s"] == pytest.approx(0.6)
        assert layers["experiment.E1.run_s"] == pytest.approx(3.0)
        assert layers["artifacts.write_mb"] == pytest.approx(2.0)
        assert layers["serve.hits"] == 0.0

    def test_layer_metrics_are_per_round(self):
        spans = [span(str(i), None, 0.0, 2.0, "netsim.bgp.study") for i in range(4)]
        assert layer_metrics(spans, rounds=2)["netsim.bgp.study_s"] == pytest.approx(4.0)

    def test_serve_figures_split_by_phase(self):
        spans = [
            span("1", None, 1.0, 1.002, "serve.respond", path="/hot"),
            span("2", None, 5.0, 5.030, "serve.respond", path="/hot"),
            span("3", None, 5.0, 5.5, "serve.respond", path="/cold"),
            span("4", "3", 5.01, 5.01, "serve.submit", key="k"),
            span("5", None, 5.02, 5.22, "serve.compute", key="k"),
        ]
        figures = serve_figures(spans, {"hot": [(0, 2)], "mixed": [(3, 3.5), (4, 6)]},
                                {"/hot"})
        assert figures["serve.hot.server_p50_ms"] == pytest.approx(2.0)
        assert figures["serve.mixed.server_p50_ms"] == pytest.approx(30.0)
        assert figures["serve.compute_p50_ms"] == pytest.approx(200.0)
        assert figures["serve.queue_wait_p50_ms"] == pytest.approx(10.0)


class TestLauncherSpans:
    def test_wrapped_calls_nest_and_keep_results(self, tmp_path):
        recorder = launcher.Recorder(str(tmp_path))

        def inner(x):
            time.sleep(0.01)
            return x * 2

        wrapped_inner = launcher.wrap(recorder, inner, "inner")
        outer = launcher.wrap(recorder, lambda x: wrapped_inner(x) + 1, "outer")
        assert outer(5) == 11
        by_name = {s["name"]: s for s in recorder.spans}
        assert by_name["inner"]["parent"] == by_name["outer"]["id"]
        assert by_name["outer"]["parent"] is None
        own = self_times(recorder.spans)
        assert own[by_name["inner"]["id"]] >= 0.01
        assert own[by_name["outer"]["id"]] < 0.01

    def test_threads_do_not_nest_into_each_other(self, tmp_path):
        recorder = launcher.Recorder(str(tmp_path))
        work = launcher.wrap(recorder, lambda: time.sleep(0.01), "work")
        threads = [threading.Thread(target=work) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads)
        assert [s["parent"] for s in recorder.spans] == [None, None]

    def test_a_failing_call_is_recorded_and_reraised(self, tmp_path):
        recorder = launcher.Recorder(str(tmp_path))

        def boom():
            raise KeyError("x")

        with pytest.raises(KeyError):
            launcher.wrap(recorder, boom, "boom")()
        assert recorder.spans[0]["error"] is True


class TestOps:
    def test_counts_attempted_and_failed(self):
        ops = Ops()
        assert ops.record(True)
        assert not ops.record(False, "bad status")
        assert ops.check([])
        assert not ops.check(["a", "b"])
        assert (ops.attempted, ops.failed) == (4, 2)
        assert ops.reasons == ["bad status", "a; b"]

    def test_counts_survive_concurrent_clients(self):
        ops = Ops()
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def client():
                for i in range(2000):
                    ops.record(i % 4 != 0)

            threads = [threading.Thread(target=client) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert (ops.attempted, ops.failed) == (8000, 2000)
