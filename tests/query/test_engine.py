"""Integration: the query engine against real multi-segment archives.

Includes the PR's acceptance check: a time-range + destination query
over a ≥8-segment archive returns exactly what brute-force full
decompression yields, while decoding only the segments whose index
entries match.
"""

import pytest

import repro
from repro.archive import ArchiveReader, ArchiveWriter
from repro.core.datasets import DatasetId
from repro.query import (
    DestinationAddress,
    FlowKind,
    MatchAll,
    PacketCountRange,
    QueryEngine,
    TimeRange,
    flow_summaries,
)
from tests.conftest import make_timed_flows

DESTINATIONS = (0xC0A80001, 0xC0A80002, 0xC0A80003, 0xC0A80004)


@pytest.fixture(scope="module")
def archive_path(tmp_path_factory):
    """Ten segments: 30 flows spaced 10 s, rotated every 30 s."""
    path = tmp_path_factory.mktemp("query") / "trace.fctca"
    packets = make_timed_flows(30, spacing=10.0, destinations=DESTINATIONS)
    with ArchiveWriter.create(
        path, segment_span=30.0, segment_packets=10**9
    ) as writer:
        writer.feed(packets)
        entries = writer.close()
    assert len(entries) == 10
    return path


def brute_force(path, predicate):
    """What full-archive decompression would yield for the predicate."""
    with ArchiveReader(path) as reader:
        return [
            flow
            for index, segment in reader.iter_segments()
            for flow in flow_summaries(index, segment)
            if predicate.match_flow(flow)
        ]


class TestAcceptance:
    def test_time_and_destination_query_is_exact_and_partial(self, archive_path):
        predicate = TimeRange(100.0, 200.0) & DestinationAddress(0xC0A80002)
        expected = brute_force(archive_path, predicate)
        assert expected  # the scenario must actually select something

        with ArchiveReader(archive_path) as reader:
            engine = QueryEngine(reader)
            result = engine.run(predicate)
            matching_entries = [
                entry for entry in reader.entries
                if predicate.match_segment(entry)
            ]
            # Exactly the brute-force flows...
            assert result.flows == expected
            # ...decoding only the segments the index could not rule out...
            assert reader.segments_decoded == len(matching_entries)
            assert result.stats.segments_decoded == len(matching_entries)
            # ...which is a strict subset of the archive.
            assert 0 < result.stats.segments_decoded < reader.segment_count
            assert result.stats.bytes_decoded < result.stats.bytes_total

    def test_every_predicate_matches_brute_force(self, archive_path):
        predicates = [
            MatchAll(),
            TimeRange(0.0, 95.0),
            TimeRange(250.0, 1000.0),
            DestinationAddress(0xC0A80001),
            FlowKind("short"),
            PacketCountRange(2, 8),
            TimeRange(50.0, 150.0) | DestinationAddress(0xC0A80004),
            ~DestinationAddress(0xC0A80001),
        ]
        for predicate in predicates:
            with repro.open(archive_path) as store:
                result = store.query(predicate)
            assert result.flows == brute_force(archive_path, predicate), predicate


class TestEngine:
    def test_time_pruning_skips_segments(self, archive_path):
        with repro.open(archive_path) as store:
            result = store.query(TimeRange(0.0, 25.0))
        assert result.stats.segments_decoded == 1
        assert result.stats.segments_total == 10
        assert len(result.flows) == 3

    def test_impossible_query_decodes_nothing(self, archive_path):
        with repro.open(archive_path) as store:
            result = store.query(DestinationAddress("10.9.9.9"))
        assert result.flows == []
        assert result.stats.segments_decoded == 0
        assert result.stats.bytes_decoded == 0

    def test_limit_stops_early(self, archive_path):
        with repro.open(archive_path) as store:
            result = store.query(MatchAll(), limit=4)
        assert len(result.flows) == 4
        assert result.stats.segments_decoded <= 2

    def test_stats_lines_render(self, archive_path):
        with repro.open(archive_path) as store:
            result = store.query(MatchAll())
        text = "\n".join(result.stats.summary_lines())
        assert "segments decoded" in text and "flows matched" in text

    def test_summary_fields_resolve_datasets(self, archive_path):
        with repro.open(archive_path) as store:
            result = store.query(MatchAll())
        assert result.stats.flows_matched == 30
        for flow in result.flows:
            assert flow.kind in (DatasetId.SHORT, DatasetId.LONG)
            assert flow.packet_count >= 2
            assert flow.destination in DESTINATIONS


class TestFilterArchive:
    def test_filtered_subarchive_contains_exactly_the_matches(
        self, archive_path, tmp_path
    ):
        predicate = TimeRange(60.0, 240.0) & DestinationAddress(0xC0A80003)
        expected = brute_force(archive_path, predicate)
        out = tmp_path / "filtered.fctca"
        with repro.open(archive_path) as store:
            written, stats = store.filter(out, predicate)
        assert stats.flows_matched == len(expected)
        assert written > 0

        with repro.open(out) as store:
            refiltered = store.query(MatchAll())
        assert [
            (f.timestamp, f.kind, f.packet_count, f.destination, f.rtt)
            for f in refiltered.flows
        ] == [
            (f.timestamp, f.kind, f.packet_count, f.destination, f.rtt)
            for f in expected
        ]

    def test_filtered_archive_preserves_epoch(self, archive_path, tmp_path):
        out = tmp_path / "filtered.fctca"
        with repro.open(archive_path) as store:
            store.filter(out, TimeRange(100.0, 150.0))
        with ArchiveReader(archive_path) as source, ArchiveReader(out) as sub:
            assert sub.epoch == source.epoch

    def test_filter_respects_limit(self, archive_path, tmp_path):
        out = tmp_path / "limited.fctca"
        with repro.open(archive_path) as store:
            written, stats = store.filter(out, MatchAll(), limit=4)
        assert stats.flows_matched == 4
        with repro.open(out) as store:
            result = store.query(MatchAll())
        assert len(result.flows) == 4

    def test_filter_with_no_matches_writes_empty_archive(
        self, archive_path, tmp_path
    ):
        out = tmp_path / "empty.fctca"
        with repro.open(archive_path) as store:
            written, stats = store.filter(out, DestinationAddress("10.9.9.9"))
        assert written == 0 and stats.flows_matched == 0
        with ArchiveReader(out) as reader:
            assert reader.segment_count == 0


class TestStreamPackets:
    """Packet-level streaming: replay only the flows a predicate keeps."""

    def test_match_all_equals_full_replay(self, archive_path):
        from repro.trace.tsh import write_tsh_bytes

        with ArchiveReader(archive_path) as reader:
            full = write_tsh_bytes(reader.iter_packets())
        with ArchiveReader(archive_path) as reader:
            streamed = write_tsh_bytes(
                QueryEngine(reader).stream_packets(MatchAll())
            )
        assert streamed == full

    def test_filtered_stream_is_subsequence_of_full_replay(self, archive_path):
        predicate = TimeRange(60.0, 170.0) & DestinationAddress(0xC0A80002)
        with ArchiveReader(archive_path) as reader:
            full = list(reader.iter_packets())
        with ArchiveReader(archive_path) as reader:
            streamed = list(QueryEngine(reader).stream_packets(predicate))
        assert streamed  # the scenario must select something

        # Filtering skips flows without perturbing survivors: every
        # streamed packet appears in the full replay, in the same order.
        def key(p):
            return (p.timestamp, p.src_ip, p.src_port, p.dst_ip, p.seq, p.ip_id)

        positions = {key(p): i for i, p in enumerate(full)}
        indices = [positions[key(p)] for p in streamed]
        assert indices == sorted(indices)

    def test_packet_count_matches_flow_summaries(self, archive_path):
        predicate = DestinationAddress(0xC0A80003)
        expected_flows = brute_force(archive_path, predicate)
        with ArchiveReader(archive_path) as reader:
            from repro.query import QueryStats

            stats = QueryStats()
            packets = list(
                QueryEngine(reader).stream_packets(predicate, stats=stats)
            )
        assert stats.flows_matched == len(expected_flows)
        assert len(packets) == sum(f.packet_count for f in expected_flows)
        # Only destination-0xC0A80003 flows were synthesized.
        servers = {p.dst_ip for p in packets if p.dst_port == 80}
        assert servers == {0xC0A80003}

    def test_index_prunes_segments(self, archive_path):
        from repro.query import QueryStats

        predicate = TimeRange(100.0, 130.0)
        with ArchiveReader(archive_path) as reader:
            stats = QueryStats()
            packets = list(
                QueryEngine(reader).stream_packets(predicate, stats=stats)
            )
        assert packets
        assert 0 < stats.segments_decoded < stats.segments_total
        assert reader.segments_decoded == stats.segments_decoded

    def test_limit_caps_flows_not_packets(self, archive_path):
        from repro.query import QueryStats

        stats = QueryStats()
        with ArchiveReader(archive_path) as reader:
            packets = list(
                QueryEngine(reader).stream_packets(
                    MatchAll(), limit=3, stats=stats
                )
            )
        assert stats.flows_matched == 3
        # All three flows' packets stream out in full (8 per web flow).
        assert len(packets) == 24

    def test_limit_stops_decoding_further_segments(self, archive_path):
        from repro.query import QueryStats

        stats = QueryStats()
        with ArchiveReader(archive_path) as reader:
            list(
                QueryEngine(reader).stream_packets(
                    MatchAll(), limit=2, stats=stats
                )
            )
            assert reader.segments_decoded < reader.segment_count
