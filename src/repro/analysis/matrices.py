"""Hypersparse per-window traffic matrices over archives — no decompression.

The GraphBLAS hypersparse-flow line of work (arXiv:2209.05725) reduces
network-wide situational awareness to one object: an anonymized src×dst
traffic matrix per time window, from which heavy hitters, per-source
fan-out / per-destination fan-in distributions, unique endpoint/link
counts and max-fan-out scan candidates all fall out.  This module builds
those matrices straight off the archive's flow-metadata fast path
(:func:`~repro.core.flowmeta.flow_records`): cost scales with *flows*,
not packets, and the footer index prunes segments that cannot start a
flow inside the requested range.

Three layers:

* :class:`TrafficMatrix` — one window's matrix, accumulated as a
  dict-of-dicts (the hypersparse representation: storage is O(links)).
  Every statistic is an integer aggregate over those cells, derived by
  one walk of the dict.
* :class:`StreamingWindowAggregator` — assigns records (which arrive
  with nondecreasing start times, the archive merge's invariant) to
  fixed windows and holds exactly one window's matrix at a time.
* :class:`MatrixReport` — the schema'd JSON document
  (``repro.analysis/matrix-report/v1``) with per-window
  :class:`WindowStats`, plus the work accounting (segments pruned vs
  decoded) that the differential acceptance test pins.

Addresses can be anonymized with :class:`AddressAnonymizer` — a keyed
blake2b map, stable across windows and runs for the same key — before
they ever enter a matrix.

Work accounting publishes to :mod:`repro.obs` under
``analysis.matrices.*``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from repro.core.codec import quantize_timestamp
from repro.core.decompressor import DecompressorConfig
from repro.core.flowmeta import FlowRecord, flow_records, flow_records_by_decode
from repro.net.ip import format_ipv4
from repro.obs import current as obs_current

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.archive.reader import ArchiveReader
    from repro.core.datasets import CompressedTrace
    from repro.obs import MetricsRegistry
    from repro.query.engine import QueryStats

SCHEMA = "repro.analysis/matrix-report/v1"

DEFAULT_WINDOW = 60.0
DEFAULT_TOP_K = 10
DEFAULT_SCAN_FANOUT = 16
"""Sources contacting at least this many distinct destinations inside
one window are reported as scan candidates."""

METHODS = ("index", "decode")

__all__ = [
    "SCHEMA",
    "DEFAULT_SCAN_FANOUT",
    "DEFAULT_TOP_K",
    "DEFAULT_WINDOW",
    "AddressAnonymizer",
    "LinkStat",
    "MatrixReport",
    "ScanCandidate",
    "StreamingWindowAggregator",
    "TrafficMatrix",
    "WindowStats",
    "matrix_report_for_archive",
    "matrix_report_for_compressed",
    "publish_window_gauges",
    "window_stats_for_compressed",
]


class AddressAnonymizer:
    """Keyed-hash address anonymization: ``address -> blake2b_key(address)``.

    The map is deterministic per key — the same host keeps the same
    32-bit pseudonym across windows, runs and machines, so fan-out and
    heavy-hitter structure survive anonymization — but without the key
    the original addresses are not recoverable.  Distinct addresses can
    collide in 32 bits (birthday bound ~2^16 hosts); the statistics
    degrade gracefully, they do not crash.
    """

    def __init__(self, key: str | bytes) -> None:
        key_bytes = key.encode("utf-8") if isinstance(key, str) else bytes(key)
        if not key_bytes:
            raise ValueError("anonymization key must be non-empty")
        self._key = key_bytes[:64]  # blake2b's key length cap
        self._cache: dict[int, int] = {}

    def __call__(self, address: int) -> int:
        mapped = self._cache.get(address)
        if mapped is None:
            digest = hashlib.blake2b(
                address.to_bytes(4, "big"), key=self._key, digest_size=4
            ).digest()
            mapped = self._cache[address] = int.from_bytes(digest, "big")
        return mapped


@dataclass(frozen=True)
class LinkStat:
    """One (src, dst) cell of a window's matrix."""

    src: int
    dst: int
    packets: int
    bytes: int

    def to_dict(self) -> dict:
        return {
            "src": format_ipv4(self.src),
            "dst": format_ipv4(self.dst),
            "packets": self.packets,
            "bytes": self.bytes,
        }


@dataclass(frozen=True)
class ScanCandidate:
    """A source whose in-window fan-out crossed the scan threshold."""

    src: int
    fanout: int
    packets: int

    def to_dict(self) -> dict:
        return {
            "src": format_ipv4(self.src),
            "fanout": self.fanout,
            "packets": self.packets,
        }


class TrafficMatrix:
    """One window's hypersparse src×dst matrix.

    Cells accumulate (packets, bytes); a flow contributes its forward
    direction to ``(src, dst)`` and — when the server answered — its
    reverse direction to ``(dst, src)``, so row sums are true per-source
    transmit totals.  Storage is a dict of dicts: O(links), independent
    of the 2^32 × 2^32 address space — the hypersparse regime where a
    dense (or even per-row-array) representation is impossible.
    """

    __slots__ = ("index", "start", "end", "flows", "packets", "bytes", "_rows")

    def __init__(self, index: int, start: float, end: float) -> None:
        self.index = index
        self.start = start
        self.end = end
        self.flows = 0
        self.packets = 0
        self.bytes = 0
        self._rows: dict[int, dict[int, list[int]]] = {}

    def add(self, src: int, dst: int, packets: int, byte_count: int) -> None:
        """Accumulate one directed cell."""
        row = self._rows.setdefault(src, {})
        cell = row.get(dst)
        if cell is None:
            row[dst] = [packets, byte_count]
        else:
            cell[0] += packets
            cell[1] += byte_count

    def add_flow(
        self,
        record: FlowRecord,
        anonymizer: Callable[[int], int] | None = None,
    ) -> None:
        """Fold one flow record into the matrix (both directions)."""
        src, dst = record.src, record.dst
        if anonymizer is not None:
            src, dst = anonymizer(src), anonymizer(dst)
        self.flows += 1
        self.packets += record.packets
        self.bytes += record.bytes
        if record.packets_fwd > 0:
            self.add(src, dst, record.packets_fwd, record.bytes_fwd)
        if record.packets_rev > 0:
            self.add(dst, src, record.packets_rev, record.bytes_rev)

    @property
    def links(self) -> int:
        """Non-zero cells (distinct directed src→dst pairs)."""
        return sum(len(row) for row in self._rows.values())

    @property
    def sources(self) -> int:
        """Distinct source addresses (non-empty rows)."""
        return len(self._rows)

    def iter_cells(self) -> Iterator[tuple[int, int, int, int]]:
        """Every (src, dst, packets, bytes) cell, unordered."""
        for src, row in self._rows.items():
            for dst, (packets, byte_count) in row.items():
                yield src, dst, packets, byte_count

    def stats(
        self,
        *,
        top_k: int = DEFAULT_TOP_K,
        scan_fanout: int = DEFAULT_SCAN_FANOUT,
    ) -> "WindowStats":
        """Derive this window's :class:`WindowStats` in one walk of the cells.

        Ties in every top-k list break on (src, dst) addresses, so the
        result is fully deterministic.
        """
        fanout_hist: dict[int, int] = {}
        fanin_degree: dict[int, int] = {}
        scan_pool: list[tuple[int, int, int]] = []
        max_fanout = 0
        for src, row in self._rows.items():
            fanout = len(row)
            fanout_hist[fanout] = fanout_hist.get(fanout, 0) + 1
            if fanout > max_fanout:
                max_fanout = fanout
            for dst in row:
                fanin_degree[dst] = fanin_degree.get(dst, 0) + 1
            if fanout >= scan_fanout:
                scan_pool.append(
                    (src, fanout, sum(cell[0] for cell in row.values()))
                )
        fanin_hist: dict[int, int] = {}
        max_fanin = 0
        for degree in fanin_degree.values():
            fanin_hist[degree] = fanin_hist.get(degree, 0) + 1
            if degree > max_fanin:
                max_fanin = degree
        cells = list(self.iter_cells())
        scan_pool.sort(key=lambda entry: (-entry[1], entry[0]))
        return WindowStats(
            index=self.index,
            start=self.start,
            end=self.end,
            flows=self.flows,
            packets=self.packets,
            bytes=self.bytes,
            sources=self.sources,
            destinations=len(fanin_degree),
            links=len(cells),
            max_fanout=max_fanout,
            max_fanin=max_fanin,
            fanout_hist=fanout_hist,
            fanin_hist=fanin_hist,
            top_links_packets=_top_links(cells, False, top_k),
            top_links_bytes=_top_links(cells, True, top_k),
            scan_candidates=tuple(
                ScanCandidate(src=src, fanout=fanout, packets=packets)
                for src, fanout, packets in scan_pool[:top_k]
            ),
        )


@dataclass(frozen=True)
class WindowStats:
    """The GraphBLAS statistic set for one window.

    ``fanout_hist`` maps fan-out degree (distinct destinations a source
    contacted) to the number of such sources; ``fanin_hist`` is the
    destination-side mirror.  Top links rank by packets (resp. bytes),
    ties broken by (src, dst) address.
    """

    index: int
    start: float
    end: float
    flows: int
    packets: int
    bytes: int
    sources: int
    destinations: int
    links: int
    max_fanout: int
    max_fanin: int
    fanout_hist: dict[int, int]
    fanin_hist: dict[int, int]
    top_links_packets: tuple[LinkStat, ...]
    top_links_bytes: tuple[LinkStat, ...]
    scan_candidates: tuple[ScanCandidate, ...]

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "start": self.start,
            "end": self.end,
            "flows": self.flows,
            "packets": self.packets,
            "bytes": self.bytes,
            "sources": self.sources,
            "destinations": self.destinations,
            "links": self.links,
            "max_fanout": self.max_fanout,
            "max_fanin": self.max_fanin,
            "fanout_hist": {
                str(degree): count
                for degree, count in sorted(self.fanout_hist.items())
            },
            "fanin_hist": {
                str(degree): count
                for degree, count in sorted(self.fanin_hist.items())
            },
            "top_links_packets": [
                link.to_dict() for link in self.top_links_packets
            ],
            "top_links_bytes": [link.to_dict() for link in self.top_links_bytes],
            "scan_candidates": [
                candidate.to_dict() for candidate in self.scan_candidates
            ],
        }

    @classmethod
    def from_dict(cls, document: dict) -> "WindowStats":
        from repro.net.ip import parse_ipv4

        def link(entry: dict) -> LinkStat:
            return LinkStat(
                src=parse_ipv4(entry["src"]),
                dst=parse_ipv4(entry["dst"]),
                packets=entry["packets"],
                bytes=entry["bytes"],
            )

        return cls(
            index=document["index"],
            start=document["start"],
            end=document["end"],
            flows=document["flows"],
            packets=document["packets"],
            bytes=document["bytes"],
            sources=document["sources"],
            destinations=document["destinations"],
            links=document["links"],
            max_fanout=document["max_fanout"],
            max_fanin=document["max_fanin"],
            fanout_hist={
                int(degree): count
                for degree, count in document["fanout_hist"].items()
            },
            fanin_hist={
                int(degree): count
                for degree, count in document["fanin_hist"].items()
            },
            top_links_packets=tuple(
                link(entry) for entry in document["top_links_packets"]
            ),
            top_links_bytes=tuple(
                link(entry) for entry in document["top_links_bytes"]
            ),
            scan_candidates=tuple(
                ScanCandidate(
                    src=parse_ipv4(entry["src"]),
                    fanout=entry["fanout"],
                    packets=entry["packets"],
                )
                for entry in document["scan_candidates"]
            ),
        )


def _top_links(
    cells: Iterable[tuple[int, int, int, int]], by_bytes: bool, top_k: int
) -> tuple[LinkStat, ...]:
    """Deterministic top-k: rank value descending, then (src, dst)."""
    value = 3 if by_bytes else 2
    ranked = sorted(cells, key=lambda cell: (-cell[value], cell[0], cell[1]))
    return tuple(
        LinkStat(src=src, dst=dst, packets=packets, bytes=byte_count)
        for src, dst, packets, byte_count in ranked[:top_k]
    )


class StreamingWindowAggregator:
    """Assign flow records to fixed time windows, one matrix in memory.

    ``span`` seconds per window, aligned to ``origin`` (the archive
    epoch's zero by default); ``span=None`` collapses everything into a
    single unbounded window.  Records must arrive with nondecreasing
    start timestamps — exactly what
    :meth:`~repro.archive.reader.ArchiveReader.iter_flow_records`
    guarantees — so a window is provably complete (and can be yielded
    and dropped) the moment a record starts at or past its end.  Peak
    memory is one window's links, regardless of how many windows the
    archive spans.
    """

    def __init__(
        self,
        span: float | None,
        *,
        origin: float = 0.0,
        anonymizer: Callable[[int], int] | None = None,
    ) -> None:
        if span is not None and span <= 0:
            raise ValueError(f"window span must be positive: {span}")
        self.span = span
        self.origin = origin
        self.anonymizer = anonymizer
        self.windows_built = 0
        self._current: TrafficMatrix | None = None
        self._last_start: float | None = None

    def _window_of(self, start: float) -> int:
        if self.span is None:
            return 0
        return int((start - self.origin) // self.span)

    def _bounds(self, index: int) -> tuple[float, float]:
        if self.span is None:
            return (self.origin, float("inf"))
        return (
            self.origin + index * self.span,
            self.origin + (index + 1) * self.span,
        )

    def feed(self, record: FlowRecord) -> Iterator[TrafficMatrix]:
        """Add one record; yields every window it proves complete."""
        if self._last_start is not None and record.start < self._last_start:
            raise ValueError(
                "flow records must arrive in nondecreasing start order "
                f"({record.start} after {self._last_start})"
            )
        self._last_start = record.start
        window = self._window_of(record.start)
        current = self._current
        if current is not None and window != current.index:
            self._current = None
            self.windows_built += 1
            yield current
        if self._current is None:
            start, end = self._bounds(window)
            self._current = TrafficMatrix(window, start, end)
        self._current.add_flow(record, self.anonymizer)

    def finish(self) -> Iterator[TrafficMatrix]:
        """Flush the trailing window after the record stream ends."""
        if self._current is not None:
            current, self._current = self._current, None
            self.windows_built += 1
            yield current


@dataclass(frozen=True)
class MatrixReport:
    """One windowed matrix-statistics run, ready to serialize.

    ``method`` records how the records were derived (``index`` fast path
    vs ``decode`` full synthesis); it does not change the numbers — the
    differential tests pin that — so comparing two reports means
    comparing their ``windows``.  ``engine`` is always ``"python"``;
    the key stays so every ``matrix-report/v1`` document keeps one
    shape, and older documents naming another engine still parse.
    """

    source: str
    method: str
    engine: str
    window: float | None
    origin: float
    since: float | None
    until: float | None
    top_k: int
    scan_fanout: int
    anonymized: bool
    flows: int
    packets: int
    bytes: int
    segments_total: int
    segments_decoded: int
    segments_pruned: int
    windows: tuple[WindowStats, ...]

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "source": self.source,
            "method": self.method,
            "engine": self.engine,
            "window": self.window,
            "origin": self.origin,
            "since": self.since,
            "until": self.until,
            "top_k": self.top_k,
            "scan_fanout": self.scan_fanout,
            "anonymized": self.anonymized,
            "flows": self.flows,
            "packets": self.packets,
            "bytes": self.bytes,
            "segments_total": self.segments_total,
            "segments_decoded": self.segments_decoded,
            "segments_pruned": self.segments_pruned,
            "windows": [window.to_dict() for window in self.windows],
        }

    def to_json(self, *, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def write(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(self.to_json() + "\n", encoding="utf-8")
        return path

    @classmethod
    def from_dict(cls, document: dict) -> "MatrixReport":
        if document.get("schema") != SCHEMA:
            raise ValueError(
                f"not a matrix report (schema={document.get('schema')!r}, "
                f"expected {SCHEMA!r})"
            )
        return cls(
            source=document["source"],
            method=document["method"],
            engine=document["engine"],
            window=document["window"],
            origin=document["origin"],
            since=document["since"],
            until=document["until"],
            top_k=document["top_k"],
            scan_fanout=document["scan_fanout"],
            anonymized=document["anonymized"],
            flows=document["flows"],
            packets=document["packets"],
            bytes=document["bytes"],
            segments_total=document["segments_total"],
            segments_decoded=document["segments_decoded"],
            segments_pruned=document["segments_pruned"],
            windows=tuple(
                WindowStats.from_dict(entry)
                for entry in document.get("windows", [])
            ),
        )

    def summary_lines(self) -> list[str]:
        """The stdout table behind ``repro stats``."""
        span = "whole trace" if self.window is None else f"{self.window:g} s"
        lines = [
            f"matrix stats ({self.method} path, window {span})",
            f"flows {self.flows} / packets {self.packets} / bytes {self.bytes}"
            f" across {len(self.windows)} window(s)",
            f"segments decoded : {self.segments_decoded}/{self.segments_total}"
            f" ({self.segments_pruned} pruned by the index)",
        ]
        header = (
            f"{'window':>7s} {'start':>10s} {'flows':>7s} {'packets':>8s} "
            f"{'bytes':>10s} {'src':>6s} {'dst':>6s} {'links':>6s} "
            f"{'maxFO':>5s} {'scan':>4s}"
        )
        lines.append(header)
        lines.append("-" * len(header))
        for window in self.windows:
            lines.append(
                f"{window.index:>7d} {window.start:>10.3f} {window.flows:>7d} "
                f"{window.packets:>8d} {window.bytes:>10d} "
                f"{window.sources:>6d} {window.destinations:>6d} "
                f"{window.links:>6d} {window.max_fanout:>5d} "
                f"{len(window.scan_candidates):>4d}"
            )
        for window in self.windows:
            if window.top_links_packets:
                top = window.top_links_packets[0]
                lines.append(
                    f"window {window.index}: top link "
                    f"{format_ipv4(top.src)} -> {format_ipv4(top.dst)} "
                    f"({top.packets} packets, {top.bytes} B)"
                )
        return lines


# -- report drivers ----------------------------------------------------------


def _time_filter(
    since: float | None, until: float | None
) -> Callable[[FlowRecord], bool] | None:
    """Flow-level window filter on the *quantized* start grid.

    Both report methods apply the same filter, and it quantizes exactly
    like the index's segment bounds — so index pruning is conservative
    with respect to it and the two methods keep identical flow sets.
    """
    if since is None and until is None:
        return None
    low = quantize_timestamp(since) if since is not None else None
    high = quantize_timestamp(until) if until is not None else None

    def keep(record: FlowRecord) -> bool:
        units = quantize_timestamp(record.start)
        if low is not None and units < low:
            return False
        return high is None or units <= high

    return keep


def _assemble(
    records: Iterator[FlowRecord],
    *,
    source: str,
    method: str,
    window: float | None,
    origin: float,
    since: float | None,
    until: float | None,
    top_k: int,
    scan_fanout: int,
    anonymize_key: str | bytes | None,
    segments_total: int,
    decoded: Callable[[], int],
) -> MatrixReport:
    """Drive records through the aggregator and assemble the report."""
    anonymizer = (
        AddressAnonymizer(anonymize_key) if anonymize_key is not None else None
    )
    aggregator = StreamingWindowAggregator(
        window, origin=origin, anonymizer=anonymizer
    )
    keep = _time_filter(since, until)
    flows = 0
    windows: list[WindowStats] = []

    def drain(matrices: Iterator[TrafficMatrix]) -> None:
        for matrix in matrices:
            windows.append(matrix.stats(top_k=top_k, scan_fanout=scan_fanout))

    for record in records:
        if keep is not None and not keep(record):
            continue
        flows += 1
        drain(aggregator.feed(record))
    drain(aggregator.finish())

    segments_decoded = decoded()
    registry = obs_current()
    registry.counter(
        "analysis.matrices.windows", "traffic-matrix windows built"
    ).inc(len(windows))
    registry.counter(
        "analysis.matrices.flows", "flow records aggregated into matrices"
    ).inc(flows)
    registry.counter(
        "analysis.matrices.segments_decoded",
        "segments decoded to build traffic matrices",
    ).inc(segments_decoded)
    registry.counter(
        "analysis.matrices.segments_pruned",
        "segments the index pruned from matrix builds",
    ).inc(segments_total - segments_decoded)
    return MatrixReport(
        source=source,
        method=method,
        engine="python",
        window=window,
        origin=origin,
        since=since,
        until=until,
        top_k=top_k,
        scan_fanout=scan_fanout,
        anonymized=anonymizer is not None,
        flows=flows,
        packets=sum(window.packets for window in windows),
        bytes=sum(window.bytes for window in windows),
        segments_total=segments_total,
        segments_decoded=segments_decoded,
        segments_pruned=segments_total - segments_decoded,
        windows=tuple(windows),
    )


def matrix_report_for_archive(
    reader: "ArchiveReader",
    *,
    window: float | None = DEFAULT_WINDOW,
    origin: float = 0.0,
    since: float | None = None,
    until: float | None = None,
    top_k: int = DEFAULT_TOP_K,
    scan_fanout: int = DEFAULT_SCAN_FANOUT,
    anonymize_key: str | bytes | None = None,
    method: str = "index",
    config: DecompressorConfig | None = None,
    stats: "QueryStats | None" = None,
) -> MatrixReport:
    """Windowed matrix statistics over one open archive.

    ``method="index"`` rides the flow-metadata fast path and lets the
    footer index prune segments that cannot start a flow inside
    ``[since, until]``; ``method="decode"`` synthesizes every packet of
    every segment first — the full-decompression baseline.  Both
    produce identical ``windows``; the report's ``segments_decoded`` /
    ``segments_pruned`` (also published as
    ``analysis.matrices.segments_decoded`` / ``.segments_pruned``)
    expose the work difference.
    """
    from repro.query.engine import QueryEngine, QueryStats
    from repro.query.predicates import MatchAll, TimeRange

    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}: {method!r}")
    predicate = (
        TimeRange(
            since if since is not None else 0.0,
            until if until is not None else float("inf"),
        )
        if since is not None or until is not None
        else MatchAll()
    )
    if stats is None:
        stats = QueryStats()
    records = QueryEngine(reader).iter_flow_records(
        predicate, config=config, stats=stats, method=method
    )
    return _assemble(
        records,
        source=str(reader.path),
        method=method,
        window=window,
        origin=origin,
        since=since,
        until=until,
        top_k=top_k,
        scan_fanout=scan_fanout,
        anonymize_key=anonymize_key,
        segments_total=reader.segment_count,
        decoded=lambda: stats.segments_decoded,
    )


def matrix_report_for_compressed(
    compressed: "CompressedTrace",
    *,
    source: str = "",
    window: float | None = DEFAULT_WINDOW,
    origin: float = 0.0,
    since: float | None = None,
    until: float | None = None,
    top_k: int = DEFAULT_TOP_K,
    scan_fanout: int = DEFAULT_SCAN_FANOUT,
    anonymize_key: str | bytes | None = None,
    method: str = "index",
    config: DecompressorConfig | None = None,
) -> MatrixReport:
    """Windowed matrix statistics over one in-memory compressed trace.

    The single-segment form of :func:`matrix_report_for_archive` — what
    container stores and raw traces (compressed in memory first) use.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}: {method!r}")
    derive = flow_records if method == "index" else flow_records_by_decode
    return _assemble(
        derive(compressed, config),
        source=source or compressed.name,
        method=method,
        window=window,
        origin=origin,
        since=since,
        until=until,
        top_k=top_k,
        scan_fanout=scan_fanout,
        anonymize_key=anonymize_key,
        segments_total=1,
        decoded=lambda: 1,
    )


def window_stats_for_compressed(
    compressed: "CompressedTrace",
    *,
    top_k: int = DEFAULT_TOP_K,
    scan_fanout: int = DEFAULT_SCAN_FANOUT,
    config: DecompressorConfig | None = None,
) -> WindowStats | None:
    """One segment's flows folded into a single window's statistics.

    The serve daemon calls this on every sealed segment to keep the
    live ``/metrics`` window gauges current; ``None`` for an empty
    segment.  Cost is one fast-path walk of the segment's ``time-seq``.
    """
    if not compressed.time_seq:
        return None
    matrix: TrafficMatrix | None = None
    for record in flow_records(compressed, config):
        if matrix is None:
            matrix = TrafficMatrix(0, record.start, record.start)
        matrix.add_flow(record)
    assert matrix is not None
    return matrix.stats(top_k=top_k, scan_fanout=scan_fanout)


def publish_window_gauges(
    stats: WindowStats, registry: "MetricsRegistry | None" = None
) -> None:
    """Mirror one window's statistics into ``analysis.matrices.*`` gauges.

    Gauges, not counters: each sealed window *replaces* the snapshot, so
    a Prometheus scrape of the serve daemon always shows the most
    recently completed window.
    """
    registry = registry if registry is not None else obs_current()
    values = (
        ("window_flows", "flows in the last sealed window", stats.flows),
        ("window_packets", "packets in the last sealed window", stats.packets),
        ("window_bytes", "bytes in the last sealed window", stats.bytes),
        ("window_sources", "unique sources in the last window", stats.sources),
        (
            "window_destinations",
            "unique destinations in the last window",
            stats.destinations,
        ),
        ("window_links", "unique links in the last window", stats.links),
        (
            "window_max_fanout",
            "maximum per-source fan-out in the last window",
            stats.max_fanout,
        ),
    )
    for name, help_text, value in values:
        registry.gauge(f"analysis.matrices.{name}", help_text).set(value)
    registry.counter(
        "analysis.matrices.windows", "traffic-matrix windows built"
    ).inc()
