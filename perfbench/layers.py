"""The traced run: each end-to-end path re-composed from its layers.

Every path of :class:`~perfbench.paths.Bench` is rebuilt here from the
public functions of the layers it passes through, each call wrapped in
a span named after the layer (``trace.read``, ``core.cluster``, …)
under a root span named after the path.  The re-composed outputs are
checked byte for byte against the untraced paths' outputs, so the
spans time the same work the end-to-end numbers do.

Two layers are isolated by construction rather than by a span inside
the program: the heap merge runs over flows already synthesized (the
merge's per-flow synthesis call is served from memory while it runs),
and the serve daemon's own cost is what remains of the untraced ingest
time after frame decode, feeder and seal.
"""

from __future__ import annotations

import gc
import heapq
from contextlib import contextmanager
from typing import Callable

from perfbench.paths import ARCHIVE_STEM, Bench, clear_profile_cache
from perfbench.tracing import Tracer

SOCKET_READ_BYTES = 1 << 16
"""Bytes per socket read the serve daemon decodes at a time."""
BACKENDS = ("raw", "zlib", "lzma", "auto")
TWINS = {"compress": ("compress", "backends")}
"""Traced roots run after each untraced path (default: the path alone).
``backends`` serializes the compress path's output once per backend,
for the per-backend layer metrics; it is not an end-to-end path."""


@contextmanager
def presynthesized(table: dict[int, list]):
    """Serve ``merge_packet_stream``'s per-flow synthesis from ``table``
    (keyed by ``id(spec)``), so a merge span times the merge alone."""
    from repro.core import replay

    original = replay.synthesize_flow
    replay.synthesize_flow = lambda spec, config: iter(table[id(spec)])
    try:
        yield
    finally:
        replay.synthesize_flow = original


class TracedPaths:
    """Run the layer-by-layer twin of every path under one tracer."""

    def __init__(self, bench: Bench, tracer: Tracer) -> None:
        self.bench = bench
        self.tracer = tracer
        self.dir = bench.workdir / "traced"
        self.dir.mkdir(exist_ok=True)
        self.config = bench.options.decompressor
        self.compressed = None
        self._checks: list[tuple[str, Callable[[], bool]]] = []
        self._counts: list[Callable[[], dict]] = []

    def _check(self, what: str, predicate: Callable[[], bool]) -> None:
        """Check ``predicate`` once the path's root span has closed."""
        self._checks.append((what, predicate))

    def _count(self, counts: Callable[[], dict]) -> None:
        """Collect ``counts()`` once the path's root span has closed."""
        self._counts.append(counts)

    def iteration(self) -> tuple[dict, dict]:
        """One untraced pass with each path's traced twin right after it,
        so both sides of a pair see the same machine.

        Returns the untraced record and the counts the per-layer metrics
        need.  Checks and counting run after each root span closes, so a
        root's self time holds only the path's own glue.
        """
        self.tracer.new_trace()
        counts: dict = {}

        def after(path: str) -> None:
            for root in TWINS.get(path, (path,)):
                counts.update(self._traced(root))

        return self.bench.iteration(after), counts

    def _traced(self, root: str) -> dict:
        tally = self.bench.tally
        self._checks, self._counts = [], []
        gc.collect()
        with self.tracer.span(root):
            ok, _ = tally.call(f"traced {root}", getattr(self, f"_{root}"))
        counts: dict = {}
        if ok:
            for what, predicate in self._checks:
                tally.check(predicate(), what)
            for collect in self._counts:
                counts.update(collect())
        return counts

    # -- write paths ------------------------------------------------------

    def _read_columns(self) -> list:
        from repro.trace.reader import read_columns

        with self.tracer.span("trace.read"):
            return list(
                read_columns(
                    self.bench.capture.path,
                    self.bench.options.streaming.chunk_packets,
                )
            )

    def _compress(self) -> None:
        from repro.core.codec import serialize_compressed
        from repro.core.streaming import StreamingCompressor
        from repro.obs import record_run

        bench, span = self.bench, self.tracer.span
        options = bench.options
        chunks = self._read_columns()
        with record_run("perfbench.cluster") as run:
            with span("core.cluster"):
                compressor = StreamingCompressor(
                    options.compressor,
                    name=bench.capture.path.stem,
                    engine=options.streaming.engine,
                )
                for chunk in chunks:
                    compressor.feed_columns(chunk)
                compressed = compressor.finish()
        with span("core.serialize"):
            data = serialize_compressed(
                compressed, backend=options.codec.backend, level=options.codec.level
            )
        path = self.dir / "capture.fctc"
        with span("io.write"):
            path.write_bytes(data)
        self.compressed = compressed
        self._check(
            "traced compress equals store.compress",
            lambda: path.read_bytes() == bench.container.read_bytes(),
        )
        self._count(
            lambda: {
                "template_hits": run.report.counters.get("compress.template.hits", 0),
                "template_misses": run.report.counters.get(
                    "compress.template.misses", 0
                ),
            }
        )

    def _backends(self) -> None:
        from repro.core.codec import serialize_compressed

        sizes = {}
        for backend in BACKENDS:
            with self.tracer.span(f"core.serialize.{backend}"):
                sizes[backend] = len(
                    serialize_compressed(self.compressed, backend=backend)
                )
        self._count(lambda: {"stored_bytes": sizes})

    def _archive_build(self) -> None:
        from repro.archive.writer import ArchiveWriter

        bench, span = self.bench, self.tracer.span
        path = self.dir / f"{ARCHIVE_STEM}.fctca"
        chunks = self._read_columns()
        writer = ArchiveWriter.create(path, options=bench.options, name=path.stem)
        with span("archive.feed"):
            for chunk in chunks:
                writer.feed_columns(chunk)
        with span("archive.seal"):
            entries = writer.close()
        self._check(
            "traced archive build equals create_archive",
            lambda: path.read_bytes() == bench.archive.read_bytes(),
        )
        self._count(lambda: {"segments": len(entries)})

    def _ingest(self) -> None:
        from repro.archive.writer import ArchiveWriter, SegmentFeeder
        from repro.trace.framing import LengthFramer, stream_decoder

        bench, span = self.bench, self.tracer.span
        options = bench.options
        framed = bench.framed
        with span("trace.frame_decode"):
            framer = LengthFramer(options.serve.max_frame_bytes)
            decoder = stream_decoder("tsh")
            chunks = []
            for offset in range(0, len(framed), SOCKET_READ_BYTES):
                packets = []
                for payload in framer.feed(framed[offset : offset + SOCKET_READ_BYTES]):
                    packets.extend(decoder.feed(payload))
                if packets:
                    chunks.append(packets)
            framer.finish()
            decoder.finish()
        path = self.dir / "live.fctca"
        writer = ArchiveWriter.create(path, options=options)
        feeder = SegmentFeeder(
            writer.write_segment,
            epoch=writer.epoch_ref,
            segment_packets=options.archive.segment_packets,
            segment_span=options.archive.segment_span,
            config=options.compressor,
            name=ARCHIVE_STEM,
            engine=options.streaming.engine,
        )
        with span("serve.feeder"):
            for chunk in chunks:
                feeder.feed(chunk)
            feeder.close()
        with span("archive.seal"):
            writer.close()
        self._check(
            "traced ingest equals the serve archive",
            lambda: path.read_bytes() == bench.live.read_bytes(),
        )

    # -- read paths -------------------------------------------------------

    def _merge(self, specs: list, label: str) -> list:
        from repro.core.decompressor import synthesize_flow
        from repro.core.replay import IteratorSpecFeed, merge_packet_stream

        span, config = self.tracer.span, self.config
        with span("core.synth"):
            table = {id(spec): list(synthesize_flow(spec, config)) for spec in specs}
        with span("core.merge"), presynthesized(table):
            packets = list(merge_packet_stream(IteratorSpecFeed(iter(specs)), config))
        self._check(
            f"traced {label} packet count",
            lambda: len(packets) == self.bench.capture.packets,
        )
        return packets

    def _export(self) -> None:
        from repro.core.codec import container_info, deserialize_compressed
        from repro.core.decompressor import flow_specs
        from repro.trace.export import export_packet_stream

        bench, span = self.bench, self.tracer.span
        with span("io.read"):
            data = bench.container.read_bytes()
        with span("core.deserialize"):
            compressed = deserialize_compressed(data)
            container_info(data)
            compressed.validate()
        with span("core.spec_decode"):
            specs = list(flow_specs(compressed, self.config))
        packets = self._merge(specs, "export")
        path = self.dir / "export.tsh"
        with span("trace.encode"):
            export_packet_stream(packets, path)
        self._check(
            "traced export equals store.export",
            lambda: path.read_bytes() == bench.exported.read_bytes(),
        )
        self._count(lambda: {"flows": len(specs)})

    def _open_archive(self):
        from repro.archive.reader import ArchiveReader

        with self.tracer.span("archive.index_open"):
            return ArchiveReader(self.bench.archive)

    def _segment_streams(self, reader, stream_of, key) -> list:
        """Decode segments run by run, as the archive reader does, and
        concatenate each run's ``stream_of(segment, compressed)`` lists
        merged on ``key``."""
        from repro.archive.reader import segment_runs

        out = []
        for run in segment_runs(reader.entries, list(range(reader.segment_count))):
            streams = []
            for segment in run:
                with self.tracer.span("core.deserialize"):
                    compressed = reader.load_segment(segment)
                streams.append(stream_of(segment, compressed))
            out.extend(
                streams[0] if len(streams) == 1 else heapq.merge(*streams, key=key)
            )
        return out

    def _replay(self) -> None:
        from repro.core.decompressor import flow_specs

        span, config = self.tracer.span, self.config

        def specs_of(segment, compressed):
            with span("core.spec_decode"):
                return list(flow_specs(compressed, config, order_prefix=(segment,)))

        with self._open_archive() as reader:
            specs = self._segment_streams(
                reader, specs_of, key=lambda spec: (spec.start, *spec.order)
            )
        self._merge(specs, "replay")

    def _query(self) -> None:
        from repro.obs import record_run
        from repro.query.engine import QueryEngine

        bench, span = self.bench, self.tracer.span
        reader = self._open_archive()
        load_segment = reader.load_segment

        def traced_load(index):
            with span("query.decode"):
                return load_segment(index)

        reader.load_segment = traced_load
        found = []
        with reader, record_run("perfbench.query") as run:
            engine = QueryEngine(reader)
            for query, _expected in bench.batch:
                with span("query.run"):
                    found.append(len(engine.run(query.predicate()).flows))
            segments = reader.segment_count
        expected = [count for _query, count in bench.batch]
        self._check("traced query flow counts", lambda: found == expected)

        def counts() -> dict:
            counters = run.report.counters
            runs = counters.get("query.runs", 0)
            return {
                "query_runs": runs,
                "query_segments": segments * runs,
                "query_pruned": counters.get("query.segments_pruned", 0),
                "query_scanned": counters.get("query.flows_scanned", 0),
                "query_matched": counters.get("query.flows_matched", 0),
            }

        self._count(counts)

    def _stats(self) -> None:
        from repro.analysis.matrices import (
            DEFAULT_SCAN_FANOUT,
            DEFAULT_TOP_K,
            StreamingWindowAggregator,
        )
        from repro.core.flowmeta import flow_records

        bench, span, config = self.bench, self.tracer.span, self.config
        clear_profile_cache()
        segments = []

        def records_of(segment, compressed):
            segments.append(compressed)
            with span("core.flowmeta"):
                return list(flow_records(compressed, config, segment=segment))

        with self._open_archive() as reader:
            records = self._segment_streams(
                reader, records_of, key=lambda record: record.start
            )
        with span("analysis.matrix"):
            aggregator = StreamingWindowAggregator(bench.window, origin=0.0)
            matrices = [
                matrix for record in records for matrix in aggregator.feed(record)
            ]
            matrices.extend(aggregator.finish())
            windows = tuple(
                matrix.stats(top_k=DEFAULT_TOP_K, scan_fanout=DEFAULT_SCAN_FANOUT)
                for matrix in matrices
            )
        self._check(
            "traced stats windows equal store.stats",
            lambda: windows == bench.stats_windows,
        )
        self._count(
            lambda: {
                "flow_records": len(records),
                "profiles": sum(
                    len(
                        {(record.dataset, record.template_index) for record in seg.time_seq}
                    )
                    for seg in segments
                ),
                "links": sum(matrix.links for matrix in matrices),
            }
        )
