"""Predicate evaluation over an archive: plan on the index, decode late.

The engine walks the archive footer first, skips every segment whose
index entry cannot match the predicate, and decodes the survivors one at
a time.  Matching is evaluated directly against ``time-seq`` records and
the template/address datasets — no packet is ever synthesized — and
results stream out as :class:`FlowSummary` rows.  :class:`QueryStats`
records how much work the index saved (segments and bytes decoded vs.
total), which the benchmarks and the acceptance tests assert on.

:meth:`QueryEngine.filter_to` reuses the same plan to materialize a filtered
sub-archive: each matching segment's selected records are re-packed
(templates and addresses re-indexed) and written through the ordinary
:class:`~repro.archive.writer.ArchiveWriter` machinery, preserving the
source epoch and segment boundaries.

:meth:`QueryEngine.stream_packets` goes one level deeper than
:class:`FlowSummary` rows: it *replays* the matching flows, streaming
their synthetic packets in global time order through the same
bounded-memory merge the archive replay uses — segments the index rules
out are never decoded, and non-matching flows inside a decoded segment
are skipped without synthesizing a packet.  Because occurrence ordinals
are counted over the full record walk (see
:func:`~repro.core.decompressor.flow_specs`), a filtered stream emits
exactly the packets the full replay would for those flows.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from repro.archive.format import SegmentIndexEntry
from repro.archive.reader import ArchiveReader, ArchiveSpecFeed, segment_runs
from repro.archive.writer import ArchiveWriter
from repro.core.backends import backend_for_tag
from repro.core.codec import SECTION_NAMES, validate_backend_request
from repro.core.datasets import CompressedTrace, DatasetId, TimeSeqRecord
from repro.core.decompressor import DecompressorConfig, FlowSpec, flow_specs
from repro.core.flowmeta import (
    FlowRecord,
    flow_records,
    flow_records_by_decode,
)
from repro.core.replay import merge_packet_stream
from repro.net.packet import PacketRecord
from repro.obs import current as obs_current
from repro.query.predicates import MatchAll, Predicate, TimeRange

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class FlowSummary:
    """One matching flow, resolved from its time-seq record.

    ``timestamp`` and ``rtt`` are seconds (timestamp relative to the
    archive epoch); ``packet_count`` is the flow's template length;
    ``destination`` is the 32-bit destination address.
    """

    segment: int
    timestamp: float
    kind: DatasetId
    template_index: int
    packet_count: int
    destination: int
    rtt: float


@dataclass
class QueryStats:
    """How much of the archive a query actually touched."""

    segments_total: int = 0
    segments_matched: int = 0  # index entries the predicate could not rule out
    segments_decoded: int = 0
    bytes_total: int = 0
    bytes_decoded: int = 0
    flows_scanned: int = 0
    flows_matched: int = 0

    def summary_lines(self) -> list[str]:
        return [
            f"segments decoded : {self.segments_decoded}/{self.segments_total}"
            f" (index matched {self.segments_matched})",
            f"bytes decoded    : {self.bytes_decoded}/{self.bytes_total}",
            f"flows matched    : {self.flows_matched}/{self.flows_scanned} scanned",
        ]

    def publish(self) -> None:
        """Fold this query's work accounting into the active obs registry."""
        registry = obs_current()
        registry.counter("query.runs", "queries evaluated").inc()
        registry.counter(
            "query.segments_pruned", "segments the index ruled out undecoded"
        ).inc(self.segments_total - self.segments_matched)
        registry.counter(
            "query.segments_decoded", "segments decoded to answer queries"
        ).inc(self.segments_decoded)
        registry.counter(
            "query.bytes_decoded", "segment bytes decoded to answer queries"
        ).inc(self.bytes_decoded)
        registry.counter("query.flows_scanned", "flow records evaluated").inc(
            self.flows_scanned
        )
        registry.counter("query.flows_matched", "flow records matched").inc(
            self.flows_matched
        )


@dataclass(frozen=True)
class WindowProbe:
    """One time window's cost estimate, from the footer index alone.

    ``segments_overlapping`` index entries could hold flows starting in
    ``[start, end]`` — a real windowed scan would decode at most those;
    ``bytes_to_decode`` is their serialized total and
    ``flows_upper_bound`` the sum of their flow counts (an upper bound:
    a segment usually straddles more than one window).
    """

    index: int
    start: float
    end: float
    segments_overlapping: int
    bytes_to_decode: int
    flows_upper_bound: int


@dataclass
class QueryResult:
    """Materialized query output: the rows plus the work accounting."""

    flows: list[FlowSummary] = field(default_factory=list)
    stats: QueryStats = field(default_factory=QueryStats)


def flow_summaries(
    segment: int, compressed: CompressedTrace
) -> Iterator[FlowSummary]:
    """Resolve every time-seq record of one decoded segment."""
    for record in compressed.time_seq:
        yield summarize_record(segment, compressed, record)


def summarize_record(
    segment: int, compressed: CompressedTrace, record: TimeSeqRecord
) -> FlowSummary:
    """Resolve one ``time-seq`` record into its :class:`FlowSummary` row."""
    return FlowSummary(
        segment=segment,
        timestamp=record.timestamp,
        kind=record.dataset,
        template_index=record.template_index,
        packet_count=compressed.packets_for(record),
        destination=compressed.addresses.lookup(record.address_index),
        rtt=record.rtt,
    )


def _entry_backend_spec(entry: SegmentIndexEntry) -> dict[str, str]:
    """Per-section backend names a source segment's index entry recorded.

    Feeding this to :meth:`~repro.archive.writer.ArchiveWriter.write_segment`
    re-packs a filtered segment with the same codecs its source used.
    """
    return {
        section: backend_for_tag(tag).name
        for section, tag in zip(SECTION_NAMES, entry.section_backends)
    }


class QueryEngine:
    """Run predicates against one open :class:`ArchiveReader`."""

    def __init__(self, reader: ArchiveReader) -> None:
        self.reader = reader

    def run(
        self, predicate: Predicate | None = None, *, limit: int | None = None
    ) -> QueryResult:
        """Evaluate ``predicate``; returns matching flows plus statistics.

        ``limit`` stops the scan once that many flows matched (segments
        after the stop are neither decoded nor counted as scanned).
        """
        predicate = predicate or MatchAll()
        stats = QueryStats(
            segments_total=self.reader.segment_count,
            bytes_total=sum(entry.length for entry in self.reader.entries),
        )
        result = QueryResult(stats=stats)
        try:
            for index, entry in enumerate(self.reader.entries):
                if not predicate.match_segment(entry):
                    _log.debug("query: index pruned segment %d", index)
                    continue
                stats.segments_matched += 1
                compressed = self.reader.load_segment(index)
                stats.segments_decoded += 1
                stats.bytes_decoded += entry.length
                for flow in flow_summaries(index, compressed):
                    stats.flows_scanned += 1
                    if predicate.match_flow(flow):
                        stats.flows_matched += 1
                        result.flows.append(flow)
                        if limit is not None and stats.flows_matched >= limit:
                            return result
            return result
        finally:
            stats.publish()

    def index_probe(self, predicate: Predicate | None = None) -> QueryStats:
        """Dry-run ``predicate`` against the footer index alone.

        Evaluates only the segment-level test — no segment is decoded,
        no flow scanned, and (being a probe, not a query) nothing is
        published to the metrics registry.  ``segments_matched`` is what
        a real run would have to decode; ``bytes_decoded`` carries the
        matched segments' byte total so callers can report how much I/O
        the index saves.  This backs ``repro-trace archive info``'s
        prune statistics.
        """
        predicate = predicate or MatchAll()
        stats = QueryStats(
            segments_total=self.reader.segment_count,
            bytes_total=sum(entry.length for entry in self.reader.entries),
        )
        for entry in self.reader.entries:
            if predicate.match_segment(entry):
                stats.segments_matched += 1
                stats.bytes_decoded += entry.length
        return stats

    def window_probe(
        self,
        windows: int,
        *,
        since: float | None = None,
        until: float | None = None,
    ) -> list[WindowProbe]:
        """Cost-estimate a windowed scan: per-window segment overlap.

        Splits ``[since, until]`` (default: the archive's index time
        bounds) into ``windows`` equal windows and dry-runs a
        :class:`~repro.query.predicates.TimeRange` for each against the
        footer index alone — the per-window extension of
        :meth:`index_probe`.  Nothing is decoded and nothing is
        published; this is what lets an operator see whether a window
        span prunes before paying for the scan.
        """
        if windows < 1:
            raise ValueError(f"windows must be >= 1: {windows}")
        bounds = self.reader.time_bounds()
        if bounds is None:
            return []
        low = since if since is not None else bounds[0]
        high = until if until is not None else bounds[1]
        if high < low:
            raise ValueError(f"empty probe range: [{low}, {high}]")
        span = (high - low) / windows
        probes = []
        for index in range(windows):
            start = low + index * span
            end = high if index == windows - 1 else low + (index + 1) * span
            window = TimeRange(start, end)
            overlapping = bytes_to_decode = flows = 0
            for entry in self.reader.entries:
                if window.match_segment(entry):
                    overlapping += 1
                    bytes_to_decode += entry.length
                    flows += entry.flow_count
            probes.append(
                WindowProbe(
                    index=index,
                    start=start,
                    end=end,
                    segments_overlapping=overlapping,
                    bytes_to_decode=bytes_to_decode,
                    flows_upper_bound=flows,
                )
            )
        return probes

    def iter_flow_records(
        self,
        predicate: Predicate | None = None,
        *,
        config: DecompressorConfig | None = None,
        stats: QueryStats | None = None,
        method: str = "index",
    ) -> Iterator[FlowRecord]:
        """Stream matching flows' metadata — the analytics fast path.

        ``method="index"`` prunes segments on the footer index and
        derives each surviving flow's record without synthesizing a
        packet (:func:`~repro.core.flowmeta.flow_records`);
        ``method="decode"`` synthesizes every segment's packets and
        folds them back down (:func:`flow_records_by_decode`) — the
        differential baseline, which by construction cannot prune.
        Both orders are globally nondecreasing by start and the records
        are bit-identical; ``stats`` fills in as the stream drains and
        publishes when it ends.
        """
        if method not in ("index", "decode"):
            raise ValueError(f"method must be 'index' or 'decode': {method!r}")
        predicate = predicate or MatchAll()
        config = config or DecompressorConfig()
        if stats is None:
            stats = QueryStats()
        stats.segments_total = self.reader.segment_count
        stats.bytes_total = sum(entry.length for entry in self.reader.entries)
        if method == "index":
            indices = [
                index
                for index, entry in enumerate(self.reader.entries)
                if predicate.match_segment(entry)
            ]
        else:
            indices = list(range(self.reader.segment_count))
        stats.segments_matched = len(indices)
        records = flow_records if method == "index" else flow_records_by_decode

        match_all = type(predicate) is MatchAll

        def source(segment: int, compressed: CompressedTrace):
            stats.segments_decoded += 1
            stats.bytes_decoded += self.reader.entries[segment].length

            def keep(record: TimeSeqRecord) -> bool:
                stats.flows_scanned += 1
                # MatchAll accepts every flow by definition — skip
                # building a FlowSummary per record just to learn that.
                if match_all or predicate.match_flow(
                    summarize_record(segment, compressed, record)
                ):
                    stats.flows_matched += 1
                    return True
                return False

            return records(
                compressed, config, segment=segment, record_filter=keep
            )

        def stream() -> Iterator[FlowRecord]:
            try:
                yield from self.reader.iter_flow_records(
                    config, indices=indices, source=source
                )
            finally:
                stats.publish()

        return stream()

    def stream_packets(
        self,
        predicate: Predicate | None = None,
        *,
        limit: int | None = None,
        config: DecompressorConfig | None = None,
        stats: QueryStats | None = None,
        options=None,
    ) -> Iterator[PacketRecord]:
        """Replay the flows matching ``predicate`` as a packet stream.

        Packets arrive in the decompressor's global time order and are
        byte-identical to the corresponding packets of a full archive
        replay (:meth:`~repro.archive.reader.ArchiveReader.iter_packets`)
        — filtering skips flows, it does not perturb the survivors.
        Memory stays bounded by the concurrent matching flows; segments
        the index rules out are never decoded.  ``limit`` caps the
        *flows* replayed (their packets all stream out); pass a
        :class:`QueryStats` to receive the work accounting, which fills
        in as the stream is consumed.
        """
        predicate = predicate or MatchAll()
        if config is None:
            # The façade's layered Options threads through here; an
            # explicit config still wins (duck-typed — no api import).
            config = options.decompressor if options is not None else None
        config = config or DecompressorConfig()
        if stats is None:
            stats = QueryStats()
        stats.segments_total = self.reader.segment_count
        stats.bytes_total = sum(entry.length for entry in self.reader.entries)
        indices = [
            index
            for index, entry in enumerate(self.reader.entries)
            if predicate.match_segment(entry)
        ]
        stats.segments_matched = len(indices)

        def spec_source(
            segment: int, compressed: CompressedTrace
        ) -> Iterator[FlowSpec]:
            stats.segments_decoded += 1
            stats.bytes_decoded += self.reader.entries[segment].length

            def keep(record: TimeSeqRecord) -> bool:
                stats.flows_scanned += 1
                if limit is not None and stats.flows_matched >= limit:
                    return False
                if predicate.match_flow(summarize_record(segment, compressed, record)):
                    stats.flows_matched += 1
                    return True
                return False

            return flow_specs(
                compressed, config, order_prefix=(segment,), record_filter=keep
            )

        halt = None
        if limit is not None:
            halt = lambda: stats.flows_matched >= limit  # noqa: E731
        feed = ArchiveSpecFeed(
            self.reader,
            segment_runs(self.reader.entries, indices),
            spec_source,
            halt=halt,
        )

        def stream() -> Iterator[PacketRecord]:
            # The stats fill in lazily as the stream is consumed, so they
            # are published when the stream ends (or is closed early) —
            # the one point where the accounting is final.
            try:
                yield from merge_packet_stream(feed, config)
            finally:
                stats.publish()

        return stream()

    def filter_to(
        self,
        out_path: str | Path,
        predicate: Predicate | None = None,
        *,
        limit: int | None = None,
        name: str | None = None,
        backend: str | None = None,
        level: int | None = None,
        options=None,
    ) -> tuple[int, QueryStats]:
        """Write the flows matching ``predicate`` as a new sub-archive.

        Segment boundaries and the epoch are preserved; segments with no
        matching flow are dropped entirely.  ``limit`` caps the flows
        written, mirroring :meth:`run` — the scan stops once reached.
        ``backend``/``level`` re-encode the surviving segments through a
        chosen codec; when ``backend`` is ``None`` each re-packed
        segment keeps the per-section backends its source segment's
        index entry recorded (v1 sources re-pack as raw).  Returns
        (segments written, query statistics).
        """
        if options is not None:
            # Options threads the façade's codec layer through; explicit
            # keywords win, exactly as on ArchiveWriter.create.
            name = name if name is not None else options.name
            backend = backend if backend is not None else options.codec.backend
            level = level if level is not None else options.codec.level
        # Fail fast on a bad backend/level request: the writer only sees
        # the backend per segment (each write_segment call carries its
        # own spec), so validate before out_path is truncated and before
        # any segment is scanned.
        validate_backend_request(backend, level)
        predicate = predicate or MatchAll()
        stats = QueryStats(
            segments_total=self.reader.segment_count,
            bytes_total=sum(entry.length for entry in self.reader.entries),
        )
        with ArchiveWriter.create(
            out_path, epoch=self.reader.epoch, name=name, level=level
        ) as writer:
            for index, entry in enumerate(self.reader.entries):
                if not predicate.match_segment(entry):
                    _log.debug("filter: index pruned segment %d", index)
                    continue
                stats.segments_matched += 1
                compressed = self.reader.load_segment(index)
                stats.segments_decoded += 1
                stats.bytes_decoded += entry.length
                matched: list[TimeSeqRecord] = []
                for record in compressed.time_seq:
                    stats.flows_scanned += 1
                    if predicate.match_flow(summarize_record(index, compressed, record)):
                        matched.append(record)
                        if limit is not None and stats.flows_matched + len(matched) >= limit:
                            break
                stats.flows_matched += len(matched)
                if matched:
                    writer.write_segment(
                        compressed.select(matched, name=compressed.name),
                        backend=backend
                        if backend is not None
                        else _entry_backend_spec(entry),
                    )
                if limit is not None and stats.flows_matched >= limit:
                    break
            written = writer.segment_count
            writer.close()
        stats.publish()
        return written, stats

