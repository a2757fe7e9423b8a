"""The traffic-matrix analytics subsystem: matrices, statistics, reports."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import repro
from repro.analysis.matrices import (
    AddressAnonymizer,
    MatrixReport,
    StreamingWindowAggregator,
    TrafficMatrix,
    WindowStats,
    matrix_report_for_archive,
    matrix_report_for_compressed,
    publish_window_gauges,
    window_stats_for_compressed,
)
from repro.archive.reader import ArchiveReader
from repro.core.compressor import compress_trace
from repro.core.flowmeta import FlowRecord, flow_records
from repro.obs import MetricsRegistry, render_prometheus
from repro.query.engine import QueryStats
from repro.synth import generate_web_trace
from repro.synth.scenarios import get_scenario

# WindowStats.to_dict() documents recorded when a scipy CSR engine still
# ran beside the dict walk and both agreed on every case; keyed
# "<case> <top_k>,<scan_fanout>".
GOLDEN = json.loads(
    (
        Path(__file__).resolve().parent.parent
        / "fixtures"
        / "window_stats_golden.json"
    ).read_text()
)


@pytest.fixture(scope="module")
def compressed():
    return compress_trace(generate_web_trace(duration=8.0, flow_rate=25.0, seed=5))


@pytest.fixture(scope="module")
def archive_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("matrices") / "trace.fctca"
    trace = generate_web_trace(duration=12.0, flow_rate=30.0, seed=3)
    repro.api.create_archive(
        path, iter(trace.packets), options=repro.api.Options.make(segment_span=3.0)
    )
    return path


def _record(start, src, dst, fwd=2, rev=1, bytes_fwd=300, bytes_rev=1460):
    return FlowRecord(
        segment=0,
        start=start,
        end=start + 0.1,
        src=src,
        dst=dst,
        is_long=False,
        packets=fwd + rev,
        bytes=bytes_fwd + bytes_rev,
        packets_fwd=fwd,
        packets_rev=rev,
        bytes_fwd=bytes_fwd,
        bytes_rev=bytes_rev,
        rtt=0.05,
    )


class TestTrafficMatrix:
    def test_add_flow_folds_both_directions(self):
        matrix = TrafficMatrix(0, 0.0, 60.0)
        matrix.add_flow(_record(1.0, src=10, dst=20))
        assert matrix.flows == 1
        assert matrix.packets == 3
        cells = {(s, d): (p, b) for s, d, p, b in matrix.iter_cells()}
        assert cells[(10, 20)] == (2, 300)
        assert cells[(20, 10)] == (1, 1460)

    def test_one_sided_flow_adds_one_cell(self):
        matrix = TrafficMatrix(0, 0.0, 60.0)
        matrix.add_flow(_record(1.0, src=10, dst=20, rev=0, bytes_rev=0))
        assert matrix.links == 1

    def test_cells_accumulate(self):
        matrix = TrafficMatrix(0, 0.0, 60.0)
        matrix.add_flow(_record(1.0, src=10, dst=20))
        matrix.add_flow(_record(2.0, src=10, dst=20))
        cells = {(s, d): (p, b) for s, d, p, b in matrix.iter_cells()}
        assert cells[(10, 20)] == (4, 600)

    def test_anonymizer_applies_before_the_matrix(self):
        anonymizer = AddressAnonymizer("key")
        matrix = TrafficMatrix(0, 0.0, 60.0)
        matrix.add_flow(_record(1.0, src=10, dst=20), anonymizer)
        sources = {src for src, _, _, _ in matrix.iter_cells()}
        assert 10 not in sources and 20 not in sources


def _whole_trace_matrix(compressed) -> TrafficMatrix:
    matrix = TrafficMatrix(0, 0.0, 100.0)
    for record in flow_records(compressed):
        matrix.add_flow(record)
    return matrix


def _assert_golden(matrix, case, top_k, scan):
    stats = matrix.stats(top_k=top_k, scan_fanout=scan)
    assert stats.to_dict() == GOLDEN[f"{case} {top_k},{scan}"]


class TestStatsEngines:
    """The statistics, pinned to golden values and hand-derived rules."""

    def _dense_matrix(self):
        matrix = TrafficMatrix(2, 10.0, 20.0)
        # A scanner (fan-out 20), a heavy hitter, and tied cells.
        for dst in range(100, 120):
            matrix.add_flow(_record(11.0, src=1, dst=dst, rev=0, bytes_rev=0))
        for _ in range(5):
            matrix.add_flow(_record(12.0, src=2, dst=3))
        matrix.add_flow(_record(13.0, src=4, dst=5))
        matrix.add_flow(_record(13.0, src=5, dst=4))
        return matrix

    def test_handmade_matrix_matches_golden(self):
        _assert_golden(self._dense_matrix(), "handmade", 10, 16)

    def test_real_traffic_matches_golden(self, compressed):
        matrix = _whole_trace_matrix(compressed)
        for top_k, scan in ((10, 16), (3, 4), (100, 1)):
            _assert_golden(matrix, "web", top_k, scan)

    def test_dense_window_matches_golden(self):
        # Wide enough (>= 2,048 links) that the removed CSR engine, not
        # the dict walk, used to serve it.
        trace = get_scenario("mixed-protocol").build(10.0, 200.0, 7)
        matrix = _whole_trace_matrix(compress_trace(trace))
        assert matrix.links >= 2048
        for top_k, scan in ((10, 16), (25, 2)):
            _assert_golden(matrix, "dense", top_k, scan)

    def test_scan_candidates_cross_threshold_only(self):
        stats = self._dense_matrix().stats(top_k=10, scan_fanout=16)
        assert [c.src for c in stats.scan_candidates] == [1]
        assert stats.scan_candidates[0].fanout == 20
        assert stats.max_fanout == 20

    def test_top_links_rank_then_tie_break_on_addresses(self):
        matrix = TrafficMatrix(0, 0.0, 1.0)
        matrix.add(9, 1, 5, 50)
        matrix.add(3, 7, 5, 50)
        matrix.add(3, 2, 5, 50)
        matrix.add(1, 1, 9, 10)
        stats = matrix.stats(top_k=10, scan_fanout=100)
        ranked = [(link.src, link.dst) for link in stats.top_links_packets]
        assert ranked == [(1, 1), (3, 2), (3, 7), (9, 1)]


class TestAddressAnonymizer:
    def test_deterministic_per_key(self):
        first, second = AddressAnonymizer("k1"), AddressAnonymizer("k1")
        assert first(0x0A000001) == second(0x0A000001)

    def test_different_keys_differ(self):
        assert AddressAnonymizer("k1")(1) != AddressAnonymizer("k2")(1)

    def test_empty_key_rejected(self):
        with pytest.raises(ValueError):
            AddressAnonymizer("")

    def test_anonymization_preserves_structure(self, compressed):
        plain = matrix_report_for_compressed(compressed, window=2.0)
        masked = matrix_report_for_compressed(
            compressed, window=2.0, anonymize_key="secret"
        )
        assert masked.anonymized and not plain.anonymized
        assert masked.flows == plain.flows
        for a, b in zip(plain.windows, masked.windows):
            assert (a.sources, a.destinations, a.links) == (
                b.sources,
                b.destinations,
                b.links,
            )
            assert a.fanout_hist == b.fanout_hist
        assert (
            masked.windows[0].top_links_packets
            != plain.windows[0].top_links_packets
        )


class TestStreamingWindowAggregator:
    def test_windows_split_on_span(self):
        aggregator = StreamingWindowAggregator(10.0)
        out = list(aggregator.feed(_record(1.0, 1, 2)))
        out += list(aggregator.feed(_record(9.0, 1, 2)))
        out += list(aggregator.feed(_record(11.0, 1, 2)))
        out += list(aggregator.finish())
        assert [m.index for m in out] == [0, 1]
        assert [m.flows for m in out] == [2, 1]
        assert out[0].start == 0.0 and out[0].end == 10.0

    def test_empty_windows_are_skipped(self):
        aggregator = StreamingWindowAggregator(1.0)
        out = list(aggregator.feed(_record(0.5, 1, 2)))
        out += list(aggregator.feed(_record(7.5, 1, 2)))
        out += list(aggregator.finish())
        assert [m.index for m in out] == [0, 7]

    def test_regressing_start_raises(self):
        aggregator = StreamingWindowAggregator(10.0)
        list(aggregator.feed(_record(5.0, 1, 2)))
        with pytest.raises(ValueError, match="nondecreasing"):
            list(aggregator.feed(_record(4.0, 1, 2)))

    def test_span_none_is_one_unbounded_window(self):
        aggregator = StreamingWindowAggregator(None)
        assert not list(aggregator.feed(_record(1.0, 1, 2)))
        assert not list(aggregator.feed(_record(9999.0, 1, 2)))
        (matrix,) = aggregator.finish()
        assert matrix.flows == 2 and matrix.end == float("inf")

    def test_nonpositive_span_rejected(self):
        with pytest.raises(ValueError):
            StreamingWindowAggregator(0.0)

    def test_holds_at_most_one_window(self):
        aggregator = StreamingWindowAggregator(1.0)
        for second in range(50):
            for matrix in aggregator.feed(_record(float(second), 1, 2)):
                del matrix
            assert aggregator.windows_built >= second - 1
            # The only retained state is the current window's matrix.
            assert aggregator._current is None or (
                aggregator._current.index == second
            )


class TestMatrixReport:
    def test_json_roundtrip(self, archive_path):
        with ArchiveReader(archive_path) as reader:
            report = matrix_report_for_archive(reader, window=3.0)
        document = json.loads(report.to_json())
        assert document["schema"] == "repro.analysis/matrix-report/v1"
        assert MatrixReport.from_dict(document) == report

    def test_engine_key_stays_parseable(self, archive_path):
        with ArchiveReader(archive_path) as reader:
            report = matrix_report_for_archive(reader, window=3.0)
        assert report.engine == "python"
        # Reports written while a scipy engine existed still load.
        document = dict(report.to_dict(), engine="scipy")
        assert MatrixReport.from_dict(document).windows == report.windows

    def test_from_dict_rejects_wrong_schema(self):
        with pytest.raises(ValueError, match="schema"):
            MatrixReport.from_dict({"schema": "bogus/v9"})

    def test_write_and_reload(self, archive_path, tmp_path):
        with ArchiveReader(archive_path) as reader:
            report = matrix_report_for_archive(reader, window=3.0)
        out = report.write(tmp_path / "report.json")
        reloaded = MatrixReport.from_dict(json.loads(out.read_text()))
        assert reloaded.windows == report.windows

    def test_summary_lines_cover_every_window(self, archive_path):
        with ArchiveReader(archive_path) as reader:
            report = matrix_report_for_archive(reader, window=3.0)
        text = "\n".join(report.summary_lines())
        assert f"across {len(report.windows)} window(s)" in text
        assert "segments decoded" in text


class TestDifferentialIndexVsDecode:
    """The acceptance criterion: identical statistics, less work."""

    def test_index_and_decode_reports_identical(self, archive_path):
        with ArchiveReader(archive_path) as reader:
            by_index = matrix_report_for_archive(reader, window=3.0)
        with ArchiveReader(archive_path) as reader:
            by_decode = matrix_report_for_archive(
                reader, window=3.0, method="decode"
            )
        assert by_index.windows == by_decode.windows
        assert by_index.flows == by_decode.flows

    def test_bounded_range_decodes_strictly_fewer_segments(self, archive_path):
        registry = MetricsRegistry()
        from repro.obs import scoped

        with scoped(registry):
            index_stats = QueryStats()
            with ArchiveReader(archive_path) as reader:
                by_index = matrix_report_for_archive(
                    reader, window=3.0, since=3.0, until=6.0, stats=index_stats
                )
            pinned = registry.counter(
                "analysis.matrices.segments_decoded", ""
            ).value
            decode_stats = QueryStats()
            with ArchiveReader(archive_path) as reader:
                by_decode = matrix_report_for_archive(
                    reader,
                    window=3.0,
                    since=3.0,
                    until=6.0,
                    method="decode",
                    stats=decode_stats,
                )
        assert by_index.windows == by_decode.windows
        assert index_stats.segments_decoded < decode_stats.segments_decoded
        assert by_index.segments_pruned > 0
        # The obs counter pins the same accounting the report carries.
        assert pinned == by_index.segments_decoded

    def test_invalid_method_rejected(self, archive_path):
        with ArchiveReader(archive_path) as reader:
            with pytest.raises(ValueError, match="method"):
                matrix_report_for_archive(reader, method="turbo")


class TestServeSnapshot:
    def test_window_stats_for_compressed(self, compressed):
        stats = window_stats_for_compressed(compressed)
        assert isinstance(stats, WindowStats)
        assert stats.flows == len(compressed.time_seq)

    def test_gauges_render_to_prometheus(self, compressed):
        registry = MetricsRegistry()
        stats = window_stats_for_compressed(compressed)
        publish_window_gauges(stats, registry)
        text = render_prometheus(registry)
        assert f"repro_analysis_matrices_window_flows {stats.flows}" in text
        assert "repro_analysis_matrices_windows_total 1" in text
