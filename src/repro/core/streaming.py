"""Streaming and parallel front-ends for the flow-clustering compressor.

The paper's algorithm is online — packets stream in, flows close on
FIN/RST or idle timeout, templates grow incrementally — but the original
entry point (:func:`~repro.core.compressor.compress_trace`) materializes
the whole trace first.  This module keeps the algorithm and removes the
materialization:

:class:`StreamingCompressor`
    Accepts packets incrementally (single packets, chunks, or any
    iterable) and never holds more state than the active-flow list plus
    the compressed datasets.  Byte-for-byte identical output to the
    batch path: both run the same :class:`FlowClusterCompressor`.

:func:`compress_tsh_file`
    Chunked-read a ``.tsh`` file through the streaming compressor —
    peak memory is bounded by the active-flow population and the
    compressed output (a few percent of the trace), not the trace.

:func:`compress_tsh_file_parallel`
    Shard a trace by flow hash across ``multiprocessing`` workers, each
    compressing its shard with a common time base, then merge the
    per-shard datasets with the same equation-4 similarity search the
    compressor uses — so cross-shard duplicate templates still collapse.
    Flows are never split (a flow's packets all hash to one shard), so
    the merged output is a valid compression of the full trace; template
    *numbering* differs from the batch path, which is why only
    ``--stream`` promises byte-identical files.
"""

from __future__ import annotations

import logging
import multiprocessing
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Iterable
from zlib import crc32

from repro.core.columnar import (
    ENGINE_COLUMNAR,
    ENGINE_SCALAR,
    ColumnarFlowCompressor,
    resolve_engine,
)
from repro.core.compressor import (
    CompressorConfig,
    CompressorStats,
    FlowClusterCompressor,
    TemplateMatcher,
)
from repro.core.datasets import CompressedTrace, DatasetId, TimeSeqRecord
from repro.net.columns import PacketColumns, columns_from_records
from repro.net.flowkey import flow_shard_columns
from repro.net.packet import PacketRecord
from repro.obs import (
    MetricsRegistry,
    MetricsSnapshot,
    current as obs_current,
    scoped as obs_scoped,
)
from repro.trace.reader import (
    DEFAULT_CHUNK_PACKETS,
    first_tsh_timestamp,
    iter_tsh_chunks,
    iter_tsh_records,
    read_columns,
)
from repro.trace.tsh import decode_record

_log = logging.getLogger(__name__)


def _publish_compressor_stats(registry: MetricsRegistry, stats: CompressorStats) -> None:
    """Fold a finished engine's per-packet counters into the registry.

    The engines bump plain ints on the hot path (see
    :class:`~repro.core.compressor.CompressorStats`); this one-shot fold
    at finish time is what makes them visible to reports and exporters.
    Zero increments still register the counters, so a run's metric set
    is stable regardless of the trace content.
    """
    stats.publish(registry)


@dataclass
class StreamingStats:
    """Feed-side counters; compression counters live in ``stats``."""

    packets_fed: int = 0
    chunks_fed: int = 0
    peak_active_flows: int = 0


class StreamingCompressor:
    """Incremental compression facade over :class:`FlowClusterCompressor`.

    Feed packets with :meth:`add_packet` or whole iterables with
    :meth:`feed`, then call :meth:`finish`.  Output is byte-identical to
    :func:`~repro.core.compressor.compress_trace` on the same packet
    sequence regardless of how the feed is chunked.
    """

    def __init__(
        self,
        config: CompressorConfig | None = None,
        name: str = "compressed",
        base_time: float | None = None,
        engine: str | None = None,
    ) -> None:
        # ``None`` keeps the legacy scalar engine; "auto" resolves to
        # columnar when numpy is importable.  Both engines produce
        # byte-identical output (the differential harness pins this), so
        # the choice is purely a throughput knob.
        self.engine = ENGINE_SCALAR if engine is None else resolve_engine(engine)
        self._engine_cls = (
            ColumnarFlowCompressor
            if self.engine == ENGINE_COLUMNAR
            else FlowClusterCompressor
        )
        self._name = name
        self._engine = self._engine_cls(config, name=name, base_time=base_time)
        self.streaming_stats = StreamingStats()
        self._published = False
        self._segments_flushed = 0
        obs_current().counter(
            f"stream.engine.{self.engine}",
            "streaming compressors built on this engine",
        ).inc()

    @property
    def config(self) -> CompressorConfig:
        return self._engine.config

    @property
    def stats(self) -> CompressorStats:
        return self._engine.stats

    @property
    def output(self) -> CompressedTrace:
        """The datasets built so far (complete only after :meth:`finish`)."""
        return self._engine.output

    @property
    def active_flows(self) -> int:
        """Flows currently open — the streaming working-set size."""
        return self._engine.active_flows

    @property
    def base_time(self) -> float | None:
        """The engine's time anchor (resolved from the first packet when
        not given explicitly); ``None`` until a packet has been fed."""
        return self._engine._base_time

    @property
    def segments_flushed(self) -> int:
        """How many sealed segments :meth:`flush_segment` has emitted."""
        return self._segments_flushed

    def add_packet(self, packet: PacketRecord) -> None:
        """Process one packet (timestamp order across all feeds)."""
        self._engine.add_packet(packet)
        stats = self.streaming_stats
        stats.packets_fed += 1
        if self._engine.active_flows > stats.peak_active_flows:
            stats.peak_active_flows = self._engine.active_flows

    def feed(self, packets: Iterable[PacketRecord] | PacketColumns) -> int:
        """Process one chunk of packets; returns how many were fed.

        Accepts a :class:`~repro.net.columns.PacketColumns` chunk as
        well as any record iterable — columnar chunks route through
        :meth:`feed_columns`.
        """
        if isinstance(packets, PacketColumns):
            return self.feed_columns(packets)
        before = self.streaming_stats.packets_fed
        for packet in packets:
            self.add_packet(packet)
        self.streaming_stats.chunks_fed += 1
        return self.streaming_stats.packets_fed - before

    def feed_columns(self, columns: PacketColumns) -> int:
        """Process one columnar chunk; returns how many rows were fed.

        On the columnar engine the chunk is processed vectorized; on the
        scalar engine it is materialized into records first, so either
        engine accepts either input shape.
        """
        stats = self.streaming_stats
        if self.engine != ENGINE_COLUMNAR:
            return self.feed(columns.to_records())
        count = self._engine.feed_columns(columns)
        stats.packets_fed += count
        stats.chunks_fed += 1
        if self._engine.peak_active_flows > stats.peak_active_flows:
            stats.peak_active_flows = self._engine.peak_active_flows
        return count

    def finish(self) -> CompressedTrace:
        """Flush open flows and return the completed datasets.

        The first call also publishes the run's counters to the active
        :mod:`repro.obs` registry (idempotent — ``finish`` may be called
        again, e.g. via :meth:`to_bytes`).
        """
        output = self._engine.finish()
        if not self._published:
            self._published = True
            registry = obs_current()
            _publish_compressor_stats(registry, self._engine.stats)
            feed = self.streaming_stats
            registry.counter("stream.chunks", "chunks fed to the compressor").inc(
                feed.chunks_fed
            )
            registry.gauge(
                "stream.active_flows.peak",
                "high-water mark of concurrently open flows",
            ).set_max(feed.peak_active_flows)
        return output

    def flush_segment(self, name: str | None = None) -> CompressedTrace | None:
        """Seal everything fed since the last flush; keep accepting feeds.

        The live-capture primitive: closes every open flow, returns the
        finished :class:`~repro.core.datasets.CompressedTrace` (``None``
        when nothing was fed since the last flush), and swaps in a fresh
        engine anchored to the *same* time base — so a long-running
        feed can rotate sealed segments into an archive without ever
        calling :meth:`finish`.  Output is identical to compressing each
        inter-flush packet run with its own compressor on a shared
        ``base_time``, which is exactly how the archive writer has
        always built segments.  ``name`` labels the sealed segment
        (default: the compressor's name plus a running ordinal).
        """
        outgoing = self._engine
        output = outgoing.finish()
        sealed = bool(output.time_seq)
        if sealed:
            if name is not None:
                output.name = name
            self._segments_flushed += 1
            _publish_compressor_stats(obs_current(), outgoing.stats)
        # A fresh engine rather than an in-place reset — even for an
        # empty flush, because ``finish`` is terminal on an engine.
        # Segment equality with the batch path depends on starting from
        # pristine matcher/dataset state, and the constructor is the one
        # place that state is defined.  The carried base_time keeps the
        # segment clocks comparable — the property the archive time
        # index relies on.
        self._engine = self._engine_cls(
            outgoing.config,
            name=f"{self._name}+{self._segments_flushed}",
            base_time=outgoing._base_time,
        )
        return output if sealed else None

    def to_bytes(
        self, *, backend: str | None = None, level: int | None = None
    ) -> bytes:
        """Finish (idempotently) and serialize through ``backend``.

        The streaming shortcut for "compress this feed into a file":
        equivalent to ``serialize_compressed(self.finish(), ...)`` —
        backend selection happens at serialization time, so one finished
        compressor can be written with several backends.
        """
        from repro.core.codec import serialize_compressed

        return serialize_compressed(self.finish(), backend=backend, level=level)


def compress_stream(
    packets: Iterable[PacketRecord],
    config: CompressorConfig | None = None,
    name: str = "compressed",
    engine: str | None = None,
) -> CompressedTrace:
    """Compress any packet iterable without materializing it.

    With the columnar engine the iterable is transposed into
    :class:`~repro.net.columns.PacketColumns` chunks on the fly — memory
    stays bounded by one chunk, and output bytes stay identical.
    """
    compressor = StreamingCompressor(config, name=name, engine=engine)
    if compressor.engine == ENGINE_COLUMNAR:
        iterator = iter(packets)
        while True:
            chunk = list(islice(iterator, DEFAULT_CHUNK_PACKETS))
            if not chunk:
                break
            compressor.feed_columns(columns_from_records(chunk))
    else:
        compressor.feed(packets)
    return compressor.finish()


def compress_tsh_file(
    path: str | Path,
    config: CompressorConfig | None = None,
    *,
    chunk_size: int = DEFAULT_CHUNK_PACKETS,
    name: str | None = None,
    engine: str | None = None,
) -> StreamingCompressor:
    """Stream-compress a ``.tsh`` file in bounded memory.

    Returns the finished :class:`StreamingCompressor` so callers can read
    ``output`` alongside ``stats`` / ``streaming_stats``.  The columnar
    engine reads the file through the vectorized block decoder
    (:func:`~repro.trace.reader.read_columns`) — same chunk boundaries,
    same bytes out, several times the throughput with numpy.
    """
    compressor = StreamingCompressor(
        config, name=name or Path(path).stem, engine=engine
    )
    registry = obs_current()
    # Decode happens lazily inside the chunk generator, so timing the
    # ``next`` call captures read+decode and the feed call captures
    # clustering — two timer observations per chunk, nothing per packet.
    decode_timer = registry.timer(
        "stage.decode", "wall time reading and decoding TSH chunks"
    )
    cluster_timer = registry.timer(
        "stage.cluster", "wall time clustering decoded chunks"
    )
    columnar = compressor.engine == ENGINE_COLUMNAR
    chunks = (
        read_columns(path, chunk_size)
        if columnar
        else iter_tsh_chunks(path, chunk_size)
    )
    while True:
        with decode_timer.time():
            chunk = next(chunks, None)
        if chunk is None:
            break
        with cluster_timer.time():
            if columnar:
                compressor.feed_columns(chunk)
            else:
                compressor.feed(chunk)
    compressor.finish()
    return compressor


# -- parallel sharding ----------------------------------------------------


@dataclass(frozen=True)
class _ShardTask:
    """One worker's slice of the input: path + hash residue class."""

    path: str
    shard: int
    workers: int
    config: CompressorConfig | None
    base_time: float | None
    chunk_size: int = DEFAULT_CHUNK_PACKETS
    engine: str = ENGINE_SCALAR


def record_shard(record: bytes, workers: int) -> int:
    """Shard index of a raw 44-byte TSH record, without decoding it.

    Reads the 5-tuple straight out of the record (protocol at byte 17,
    addresses at 20, ports at 28), orders the two (ip, port) endpoints —
    the big-endian byte comparison matches
    :meth:`~repro.net.flowkey.FiveTuple.canonical`'s numeric one — and
    CRC-hashes at C speed, so both directions of a conversation land in
    the same shard and the filter stays far cheaper than a decode.
    Sharding only needs this internal consistency; the value is not
    meant to match :func:`~repro.net.flowkey.flow_hash`.
    """
    forward = record[20:24] + record[28:30]  # src ip + src port
    backward = record[24:28] + record[30:32]  # dst ip + dst port
    if forward <= backward:
        key = forward + backward
    else:
        key = backward + forward
    return crc32(key + record[17:18]) % workers


def _compress_shard(task: _ShardTask) -> tuple[CompressedTrace, MetricsSnapshot]:
    """Worker body: compress the packets whose flow hashes to ``shard``.

    Each worker reads the file itself (no packet pickling between
    processes), shard-tests the raw record bytes, and decodes only its
    own residue class — decode cost stays ~1/workers per process.
    ``base_time`` anchors every shard to the trace start — shard-local
    first packets would otherwise skew the time-seq clocks.

    Metrics are recorded into a *fresh* scoped registry, never the
    process default: a forked worker inherits the parent's default
    registry state, and snapshotting that would ship the parent's
    pre-fork counts back ``workers`` times over.  The shard's own
    snapshot rides back with the output for the parent to merge.
    """
    workers = task.workers
    shard = task.shard
    registry = MetricsRegistry()
    with obs_scoped(registry):
        if task.engine == ENGINE_COLUMNAR:
            engine = ColumnarFlowCompressor(
                task.config, name=f"shard-{task.shard}", base_time=task.base_time
            )
            for columns in read_columns(task.path, task.chunk_size):
                # flow_shard_columns matches record_shard row for row, so a
                # columnar worker selects exactly the records a
                # record-filtering worker would decode.
                shards = flow_shard_columns(columns, workers)
                mine = [row for row, value in enumerate(shards) if value == shard]
                if mine:
                    engine.feed_columns(columns.select(mine))
            output = engine.finish()
        else:
            engine = FlowClusterCompressor(
                task.config, name=f"shard-{task.shard}", base_time=task.base_time
            )
            for record in iter_tsh_records(task.path, task.chunk_size):
                if record_shard(record, workers) == shard:
                    engine.add_packet(decode_record(record))
            output = engine.finish()
        _publish_compressor_stats(registry, engine.stats)
    return output, registry.snapshot()


def merge_compressed(
    shards: Iterable[CompressedTrace],
    name: str = "merged",
    config: CompressorConfig | None = None,
) -> CompressedTrace:
    """Merge per-shard datasets into one compressed trace.

    Short templates are re-clustered across shards with the same
    equation-4 search the compressor uses, so templates that would have
    merged in a single-process run still merge here.  Long templates and
    addresses are re-indexed; time-seq records are remapped and sorted by
    timestamp (the dataset's documented order).

    Fidelity caveat: the merge clusters shard-template *centers*, not
    the original flow vectors, so a flow can end up to 2x the eq-4
    threshold from its final template (its shard-local distance plus the
    center-to-center distance).  Single-process compression keeps every
    flow within 1x.
    """
    merged = CompressedTrace(name=name)
    matcher = TemplateMatcher(merged.short_templates, config or CompressorConfig())
    for shard in shards:
        short_map: list[int] = []
        for template in shard.short_templates:
            index = matcher.find(template.values)
            if index is None:
                index = matcher.add(template.values)
            short_map.append(index)
        long_base = len(merged.long_templates)
        merged.long_templates.extend(shard.long_templates)
        address_map = [merged.addresses.intern(a) for a in shard.addresses]
        for record in shard.time_seq:
            if record.dataset is DatasetId.SHORT:
                template_index = short_map[record.template_index]
            else:
                template_index = long_base + record.template_index
            merged.time_seq.append(
                TimeSeqRecord(
                    timestamp=record.timestamp,
                    dataset=record.dataset,
                    template_index=template_index,
                    address_index=address_map[record.address_index],
                    rtt=record.rtt,
                )
            )
        merged.original_packet_count += shard.original_packet_count
    merged.time_seq.sort(key=lambda record: record.timestamp)
    return merged


def compress_tsh_file_parallel(
    path: str | Path,
    workers: int,
    config: CompressorConfig | None = None,
    *,
    name: str | None = None,
    chunk_size: int = DEFAULT_CHUNK_PACKETS,
    engine: str | None = None,
) -> CompressedTrace:
    """Compress a ``.tsh`` file across ``workers`` processes.

    Shards by flow hash so each conversation lands wholly in one worker;
    merges shard outputs with :func:`merge_compressed`.  ``workers == 1``
    degenerates to the streaming path (no process pool).
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1: {workers}")
    trace_name = name or Path(path).stem
    if workers == 1:
        compressor = compress_tsh_file(
            path, config, chunk_size=chunk_size, name=trace_name, engine=engine
        )
        return compressor.output
    resolved = ENGINE_SCALAR if engine is None else resolve_engine(engine)
    base_time = first_tsh_timestamp(path)
    tasks = [
        _ShardTask(
            str(path), shard, workers, config, base_time, chunk_size, resolved
        )
        for shard in range(workers)
    ]
    with multiprocessing.Pool(workers) as pool:
        results = pool.map(_compress_shard, tasks)
    registry = obs_current()
    for _, snapshot in results:
        registry.merge(snapshot)
    return merge_compressed(
        (shard for shard, _ in results), name=trace_name, config=config
    )
