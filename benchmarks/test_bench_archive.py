"""Benchmarks: indexed archive queries vs. full-archive decompression.

The archive's reason to exist is that a selective query should not pay
for the whole file.  Two claims are checked:

* **Fewer bytes** — a time-range + destination query decodes only the
  segments whose index entries can match; the bytes decoded must be a
  small fraction of the archive's segment bytes.
* **Faster** — the same query must beat decoding every segment and
  filtering after the fact, by enough margin that timer noise cannot
  flip the result.
"""

from __future__ import annotations

import time

import pytest

from repro.archive import ArchiveReader, ArchiveWriter
from repro.query import (
    DestinationPrefix,
    MatchAll,
    QueryEngine,
    TimeRange,
    flow_summaries,
)
from repro.synth import generate_web_trace

BENCH_DURATION = 64.0
BENCH_RATE = 40.0
BENCH_SEED = 1
SEGMENT_SPAN = 4.0  # -> ~16 segments over the 64 s trace


@pytest.fixture(scope="module")
def archive_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("bench-archive") / "bench.fctca"
    trace = generate_web_trace(
        duration=BENCH_DURATION, flow_rate=BENCH_RATE, seed=BENCH_SEED
    )
    with ArchiveWriter.create(
        path, segment_span=SEGMENT_SPAN, segment_packets=10**9
    ) as writer:
        writer.feed(trace.packets)
        entries = writer.close()
    assert len(entries) >= 8, "benchmark needs a multi-segment archive"
    return path


def _predicate():
    # A two-segment time window, narrowed further by destination prefix.
    return TimeRange(20.0, 27.0) & DestinationPrefix("128.0.0.0/2")


def _indexed_query(path):
    with ArchiveReader(path) as reader:
        result = QueryEngine(reader).run(_predicate())
    return result


def _full_decode_query(path):
    """The archive-oblivious baseline: decode everything, filter after."""
    predicate = _predicate()
    with ArchiveReader(path) as reader:
        flows = [
            flow
            for index, segment in reader.iter_segments()
            for flow in flow_summaries(index, segment)
            if predicate.match_flow(flow)
        ]
        return flows, reader.bytes_decoded


class TestIndexedQuerySavesWork:
    def test_decodes_fewer_bytes_than_full_decompression(self, archive_path):
        result = _indexed_query(archive_path)
        full_flows, full_bytes = _full_decode_query(archive_path)
        assert result.flows == full_flows  # same answer...
        assert result.stats.flows_matched > 0
        # ...for a fraction of the decode work.
        assert result.stats.segments_decoded < result.stats.segments_total / 2
        assert result.stats.bytes_decoded < full_bytes / 2
        print(
            f"\nindexed: {result.stats.bytes_decoded}/{full_bytes} B decoded "
            f"({result.stats.segments_decoded}/{result.stats.segments_total} "
            f"segments)"
        )

    def test_indexed_query_is_faster(self, archive_path):
        def best_of(worker, rounds: int = 5) -> float:
            samples = []
            for _ in range(rounds):
                start = time.perf_counter()
                worker(archive_path)
                samples.append(time.perf_counter() - start)
            return min(samples)

        indexed = best_of(_indexed_query)
        full = best_of(_full_decode_query)
        print(f"\nindexed {indexed * 1e3:.2f} ms vs full {full * 1e3:.2f} ms")
        # Decoding ~2/16 segments should win by far more than 1.5x; the
        # loose bound keeps noisy CI machines green.
        assert indexed < full / 1.5


@pytest.mark.benchmark(group="archive")
class TestArchiveThroughput:
    def test_indexed_query(self, benchmark, archive_path):
        result = benchmark(_indexed_query, archive_path)
        assert result.stats.flows_matched > 0

    def test_full_scan(self, benchmark, archive_path):
        def full_scan():
            with ArchiveReader(archive_path) as reader:
                return QueryEngine(reader).run(MatchAll())

        result = benchmark(full_scan)
        assert result.stats.segments_decoded == result.stats.segments_total
