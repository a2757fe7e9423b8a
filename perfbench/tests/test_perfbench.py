"""Unit tests for the benchmark's own helpers."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from perfbench import metrics
from perfbench.queries import SLOTS, QuerySpec, dotted, query_mix, windows
from perfbench import calibrate
from perfbench.summary import (
    percentile,
    samples_beyond,
    tail_percentile,
    trimmed_mean,
)
from perfbench.tracing import Span, Tracer, covered, layer_totals, self_times
from perfbench.workloads import WORKLOADS, cut_flows

BENCHMARK = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class TestTrimmedMean:
    def test_keeps_the_faster_half(self):
        assert trimmed_mean([10.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 100.0, 50.0]) == 3.0
        assert trimmed_mean([3.0, 1.0, 2.0, 4.0]) == 1.5
        assert trimmed_mean([3.0, 1.0, 2.0]) == 1.0
        assert trimmed_mean([9.0]) == 9.0
        with pytest.raises(ValueError):
            trimmed_mean([])

    def test_slowdown_is_relative_to_the_quiet_host(self):
        quiet = [calibrate.REFERENCE_S] * 7 + [1.0] * 3
        assert calibrate.slowdown(quiet) == pytest.approx(1.0)
        assert calibrate.slowdown([2 * s for s in quiet]) == pytest.approx(2.0)
        assert calibrate.probe() > 0


class TestPercentiles:
    def test_nearest_rank_returns_a_sample(self):
        values = [float(v) for v in range(1, 101)]
        assert percentile(values, 50) == 50.0
        assert percentile(values, 90) == 90.0
        assert percentile(values, 100) == 100.0
        assert percentile(list(reversed(values)), 90) == 90.0

    def test_small_sets_round_the_rank_up(self):
        assert percentile([3.0, 1.0, 2.0], 50) == 2.0
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.0
        assert percentile([7.0], 1) == 7.0

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 0)
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    def test_tail_needs_ten_samples_beyond(self):
        assert samples_beyond(100, 90) == 10
        assert tail_percentile([float(v) for v in range(100)], 90) == 89.0
        assert samples_beyond(99, 90) == 9
        with pytest.raises(ValueError, match="beyond"):
            tail_percentile([float(v) for v in range(99)], 90)


def span(name, start, end, parent=None, trace=1):
    return Span(name, start, end, parent, trace)


class TestSelfTime:
    def test_union_of_intervals(self):
        assert covered([]) == 0.0
        assert covered([(0, 1), (2, 3)]) == 2.0
        assert covered([(0, 2), (1, 3)]) == 3.0
        assert covered([(0, 4), (1, 2)]) == 4.0

    def test_nested_children_subtract_once(self):
        spans = [
            span("root", 0.0, 10.0),
            span("a", 1.0, 4.0, parent=0),
            span("a.inner", 2.0, 3.0, parent=1),
            span("b", 5.0, 6.0, parent=0),
        ]
        assert self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])

    def test_overlapping_children_count_their_union(self):
        spans = [
            span("root", 0.0, 10.0),
            span("a", 1.0, 5.0, parent=0),
            span("b", 3.0, 7.0, parent=0),
        ]
        assert self_times(spans)[0] == pytest.approx(4.0)

    def test_children_are_clipped_to_the_parent(self):
        spans = [span("root", 0.0, 4.0), span("late", 3.0, 9.0, parent=0)]
        assert self_times(spans)[0] == pytest.approx(3.0)

    def test_layer_totals_group_by_trace_and_root(self):
        spans = [
            span("compress", 0.0, 10.0, trace=1),
            span("trace.read", 0.0, 2.0, parent=0, trace=1),
            span("trace.read", 2.0, 3.0, parent=0, trace=1),
            span("export", 10.0, 12.0, trace=1),
            span("trace.read", 10.0, 11.0, parent=3, trace=1),
        ]
        totals = layer_totals(spans)
        assert totals[(1, "compress", "trace.read")] == pytest.approx(3.0)
        assert totals[(1, "compress", "compress")] == pytest.approx(7.0)
        assert totals[(1, "export", "trace.read")] == pytest.approx(1.0)

    def test_reconcile_pairs_each_pass_with_its_own_trace(self):
        spans = [
            span("compress", 0.0, 1.0, trace=1),
            span("core.cluster", 0.0, 0.8, parent=0, trace=1),
            span("compress", 5.0, 7.0, trace=2),
            span("core.cluster", 5.0, 6.0, parent=2, trace=2),
        ]
        iterations = [
            {"times": {"compress": [1.0]}},
            {"times": {"compress": [4.0, 3.0]}},
        ]
        pairs = metrics.paired(spans, iterations)
        assert pairs["compress"] == [
            pytest.approx((0.8, 1.0, 1.0)),
            pytest.approx((1.0, 2.0, 3.0)),
        ]

    def test_path_means_and_query_latencies(self):
        iterations = [
            {
                "times": {"export": [3.0, 2.5, 1.5]},
                "query_latencies": [(0, 0.4, 0.1), (1, 0.9, 0.1), (0, 0.6, 0.2)],
                "probes": {"export": [0.1, 0.3]},
            },
            {
                "times": {"export": [2.0]},
                "query_latencies": [(1, 0.7, 0.2), (0, 0.5, 0.2)],
                "probes": {"export": [0.2]},
            },
        ]
        assert metrics.path_means(iterations) == {"export": pytest.approx(1.75)}
        assert metrics.path_medians(iterations) == {"export": 2.25}
        assert sorted(metrics.query_latencies(iterations, scaled=False)) == (
            pytest.approx([0.5, 0.8])
        )
        # Each run divided by its probe's slowdown, probe / REFERENCE_S:
        # query 0 ran 4, 3 and 2.5 probe-lengths, query 1 ran 9 and 3.5.
        scaled = [
            seconds / calibrate.REFERENCE_S
            for seconds in sorted(metrics.query_latencies(iterations, scaled=True))
        ]
        assert scaled == pytest.approx([3.0, 6.25])
        assert sorted(metrics.probe_samples(iterations)) == [0.1, 0.2, 0.3]

    def test_tracer_records_parents_and_traces(self, tmp_path):
        tracer = Tracer()
        tracer.new_trace()
        with tracer.span("root"):
            with tracer.span("child"):
                pass
        tracer.new_trace()
        with tracer.span("other"):
            pass
        names = [(s.name, s.parent, s.trace) for s in tracer.spans]
        assert names == [("root", None, 1), ("child", 0, 1), ("other", None, 2)]
        assert all(s.end >= s.start for s in tracer.spans)
        written = json.loads(tracer.write(tmp_path / "spans.json", {"k": 1}).read_text())
        assert written["meta"] == {"k": 1}
        assert [s["name"] for s in written["spans"]] == ["root", "child", "other"]


DESTINATIONS = (0x0A000001, 0x0A000105, 0xC0A80101, 0xC0A8FF02)


def flow_rows(count: int = 120):
    from repro.core.datasets import DatasetId
    from repro.query.engine import FlowSummary

    return [
        FlowSummary(
            segment=0,
            timestamp=t / 4,
            kind=DatasetId.SHORT if t % 3 else DatasetId.LONG,
            template_index=0,
            packet_count=1 + t % 40,
            destination=DESTINATIONS[t % 4],
            rtt=0.01,
        )
        for t in range(count)
    ]


# Twelve segments of 2.5 s over the 30 s of flow_rows().
MIDPOINTS = [2.5 * segment + 1.25 for segment in range(12)]
WINDOWS = windows(MIDPOINTS)


class TestQueryMix:
    def test_same_seed_same_mix(self):
        rows = flow_rows()
        first = query_mix(7, 100, WINDOWS, rows)
        assert first == query_mix(7, 100, WINDOWS, list(reversed(rows)))
        assert len(first) == 100
        assert query_mix(8, 100, WINDOWS, rows) != first

    def test_windows_run_between_segment_middles(self):
        assert len(WINDOWS) == len(SLOTS) == 10
        for (first, covered), (start, end) in zip(SLOTS, WINDOWS):
            assert start == MIDPOINTS[first]
            assert end - start == pytest.approx(2.5 * (covered - 1))
        assert sorted(covered for _first, covered in SLOTS) == [2] * 7 + [3] * 3

    def test_every_query_matches_its_anchor_inside_the_capture(self):
        rows = flow_rows()
        for index, query in enumerate(query_mix(3, 200, WINDOWS, rows)):
            assert (query.start, query.end) == WINDOWS[index // 5 % 10]
            assert any(query.matches(row) for row in rows), query
            if query.network is not None:
                assert query.prefix_len in (16, 24)
                assert dotted(query.network).count(".") == 3

    def test_patterns_combine_all_four_conditions(self):
        mix = query_mix(5, 50, WINDOWS, flow_rows())
        assert mix[1].network is not None and mix[1].kind is None
        assert mix[2].min_packets is not None and mix[2].network is None
        assert all(
            value is not None
            for value in (mix[4].network, mix[4].kind, mix[4].min_packets)
        )
        # Every pattern meets every time slot once in 50 queries.
        pairs = {
            (index % 5, round(query.start, 6)) for index, query in enumerate(mix)
        }
        assert len(pairs) == 50

    def test_brute_force_agrees_with_the_program_predicate(self):
        rows = flow_rows()
        for query in query_mix(11, 60, WINDOWS, rows) + [QuerySpec(kind="long")]:
            predicate = query.predicate()
            assert [query.matches(r) for r in rows] == [
                predicate.match_flow(r) for r in rows
            ], query


class TestCutFlows:
    def test_keeps_each_flows_first_packets_in_both_directions(self):
        from repro.net.packet import PacketRecord

        def packet(t, src, dst, sport, dport):
            return PacketRecord(
                timestamp=t, src_ip=src, dst_ip=dst, src_port=sport,
                dst_port=dport, protocol=6, flags=0, payload_len=0,
            )

        a = [packet(t, 1, 2, 1000, 80) for t in (0, 2, 4)]
        b = [packet(t, 2, 1, 80, 1000) for t in (1, 3)]
        c = [packet(5, 3, 2, 1001, 80)]
        trace = sorted(a + b + c, key=lambda p: p.timestamp)
        assert cut_flows(trace, 3) == [a[0], b[0], a[1], c[0]]
        assert cut_flows(trace, 10) == trace


class TestSchema:
    def test_benchmark_json_keys_and_limits(self):
        assert set(BENCHMARK) == {
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer",
        }
        assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]
        assert BENCHMARK["paths"] == ["perfbench"]
        assert 1 <= BENCHMARK["run_seconds"] <= 60
        names = [
            entry["name"]
            for key in ("workloads", "end_to_end", "per_layer")
            for entry in BENCHMARK[key]
        ]
        assert len(names) == len(set(names))
        assert all(NAME.match(name) for name in names)
        for entry in BENCHMARK["workloads"]:
            assert set(entry) == {"name", "why"}
            assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
        for entry in BENCHMARK["end_to_end"]:
            assert set(entry) == {"name", "unit", "better", "bound"}
            assert 0 < entry["bound"] <= 0.25
        for entry in BENCHMARK["per_layer"]:
            assert set(entry) == {"name", "unit", "better"}
        for entry in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
            assert UNIT.match(entry["unit"])
            assert entry["better"] in ("higher", "lower")

    def test_setup_has_the_largest_bound(self):
        bounds = {e["name"]: e["bound"] for e in BENCHMARK["end_to_end"]}
        assert bounds["setup_s"] == max(bounds.values())

    def test_code_and_benchmark_json_agree(self):
        assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
        assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == {
            name: workload.why for name, workload in WORKLOADS.items()
        }
        assert {
            e["name"]: (e["unit"], e["better"], e["bound"])
            for e in BENCHMARK["end_to_end"]
        } == metrics.END_TO_END
        assert {
            e["name"]: (e["unit"], e["better"]) for e in BENCHMARK["per_layer"]
        } == metrics.PER_LAYER

    def test_result_document_schema(self):
        values = {name: 1.5 for name in metrics.END_TO_END}
        document = metrics.result_document(
            attempted=12, failed=0, metrics=values, specs=metrics.END_TO_END
        )
        assert set(document) == {"correct", "attempted", "failed", "metrics"}
        assert document["correct"] is True
        assert set(document["metrics"]) == set(metrics.END_TO_END)
        for name, entry in document["metrics"].items():
            assert entry == {"value": 1.5, "unit": metrics.END_TO_END[name][0]}
        line = json.dumps(document)
        assert json.loads(line) == document
        failing = metrics.result_document(
            attempted=12, failed=1, metrics=values, specs=metrics.END_TO_END
        )
        assert failing["correct"] is False

    def test_end_to_end_metrics_from_samples(self):
        # Each pass repeats a path; query q (of 100) runs in every pass,
        # slower in the later passes.
        iterations = [
            {
                "times": {
                    path: [2.0 * (i + 1), 1.0 * (i + 1)]
                    for path in (
                        "compress",
                        "archive_build",
                        "export",
                        "replay",
                        "stats",
                        "ingest",
                    )
                },
                "query_latencies": [
                    (q, 0.001 * (q + 1) * (i + 1), calibrate.REFERENCE_S)
                    for q in range(100)
                ],
            }
            for i in range(3)
        ]
        values = metrics.end_to_end(
            packets=1000,
            input_bytes=44_000,
            archive_bytes=2_200,
            iterations=iterations,
            setup_s=2.0,
            peak_rss_mib=80.0,
            attempted=200,
            failed=2,
            slowdown=1.0,
        )
        assert set(values) == set(metrics.END_TO_END)
        # Calls 1, 2, 2, 3, 4, 6 s: the faster half averages 5/3 s.
        assert values["compress_pps"] == pytest.approx(600.0)
        assert values["bytes_per_input_byte"] == pytest.approx(0.05)
        # Query q ran in (q + 1) x 1, 2, 3 ms on a quiet host.
        assert values["query_ms_p50"] == pytest.approx(100.0)
        assert values["query_ms_p90"] == pytest.approx(180.0)
        assert values["success_ratio"] == pytest.approx(0.99)
        slower = metrics.end_to_end(
            packets=1000,
            input_bytes=44_000,
            archive_bytes=2_200,
            iterations=iterations,
            setup_s=2.0,
            peak_rss_mib=80.0,
            attempted=200,
            failed=2,
            slowdown=2.0,
        )
        assert slower["compress_pps"] == pytest.approx(1200.0)
        assert slower["query_ms_p90"] == values["query_ms_p90"]
        assert slower["setup_s"] == values["setup_s"]
        assert slower["peak_rss_mib"] == values["peak_rss_mib"]
        assert slower["bytes_per_input_byte"] == values["bytes_per_input_byte"]
