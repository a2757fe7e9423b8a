"""The benchmark workloads and the captures they generate from a seed.

Each workload is one registered traffic scenario cut to a fixed packet
count, so every seed feeds the same amount of work: the scenario is
built from the seed (its duration doubled until it holds enough
packets), and the first ``packets`` records in time order become the
capture.  Rates are input packets per second at that size.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

SEGMENTS = 12
"""Archive segments per capture: segments rotate by packet count, so a
capture of any span has as many, and narrow time queries can prune."""
WINDOWS = 12
"""Statistics windows per capture (window = capture span / 12)."""


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str
    packets: int
    duration: float
    flow_rate: float
    why: str
    tcp_only: bool = False
    """Keep only the scenario's TCP packets (before the cut)."""
    max_flow_packets: int | None = None
    """Keep only each flow's first this many packets (before the cut)."""

    @property
    def segment_packets(self) -> int:
        return -(-self.packets // SEGMENTS)


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="web",
            scenario="web",
            packets=36_000,
            duration=75.0,
            flow_rate=40.0,
            why=(
                "The paper's traffic: short web flows of about 13 packets. "
                "Per-packet read, clustering and heap merge carry the work; "
                "time-local flows let query pruning work."
            ),
        ),
        Workload(
            name="bulk",
            scenario="p2p",
            packets=40_000,
            duration=60.0,
            flow_rate=20.0,
            why=(
                "Long symmetric p2p transfers, cut to 200 packets a flow. "
                "Synthesis, TSH encode and long-template profiling dominate "
                "the read paths; clustering per packet is light."
            ),
            max_flow_packets=200,
        ),
        Workload(
            name="flood",
            scenario="flood",
            packets=7_500,
            duration=25.0,
            flow_rate=50.0,
            why=(
                "The flood scenario's SYN bursts: spoofed one-packet flows, "
                "the codec's worst case. Per-flow cost (address table, "
                "template misses, spec decode, matrix links) dominates."
            ),
            tcp_only=True,
        ),
    )
}


@dataclass
class Capture:
    """One generated input: the TSH file plus what the checks need."""

    workload: Workload
    seed: int
    path: Path
    packets: int
    size_bytes: int
    span: float
    """Seconds from the first to the last packet."""
    midpoints: tuple[float, ...]
    """Timestamp of the middle packet of each of the :data:`SEGMENTS`
    archive segments, from the first packet (as archive rows give it)."""
    generate_s: float
    """Wall time building the scenario in memory (before the cut)."""


def cut_flows(packets: list, limit: int) -> list:
    """Drop every packet after the first ``limit`` of its flow (the
    protocol plus the unordered pair of endpoints)."""
    seen: dict[tuple, int] = {}
    kept = []
    for packet in packets:
        one = (packet.src_ip, packet.src_port)
        other = (packet.dst_ip, packet.dst_port)
        key = (packet.protocol, min(one, other), max(one, other))
        count = seen.get(key, 0)
        if count < limit:
            seen[key] = count + 1
            kept.append(packet)
    return kept


def make_capture(workload: Workload, seed: int, path: Path) -> Capture:
    """Build ``workload`` from ``seed`` and write its TSH capture to ``path``."""
    from repro.api import get_scenario
    from repro.net.packet import PROTO_TCP
    from repro.trace.export import export_packet_stream

    scenario = get_scenario(workload.scenario)

    def build(duration: float) -> list:
        trace = scenario.build(
            duration=duration, flow_rate=workload.flow_rate, seed=seed
        )
        packets = trace.packets
        if workload.tcp_only:
            packets = [packet for packet in packets if packet.protocol == PROTO_TCP]
        if workload.max_flow_packets is not None:
            packets = cut_flows(packets, workload.max_flow_packets)
        return packets

    duration = workload.duration
    start = time.perf_counter()
    packets = build(duration)
    while len(packets) < workload.packets:
        duration *= 2
        packets = build(duration)
    generate_s = time.perf_counter() - start
    packets = packets[: workload.packets]
    size = workload.segment_packets
    midpoints = tuple(
        packets[min(first + size // 2, len(packets) - 1)].timestamp
        - packets[0].timestamp
        for first in range(0, len(packets), size)
    )
    result = export_packet_stream(iter(packets), path)
    return Capture(
        workload=workload,
        seed=seed,
        path=path,
        packets=result.packets,
        size_bytes=result.size_bytes,
        span=packets[-1].timestamp - packets[0].timestamp,
        midpoints=midpoints,
        generate_s=generate_s,
    )
