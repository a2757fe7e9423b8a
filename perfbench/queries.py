"""The seeded archive query mix, and its brute-force oracle.

Each :class:`QuerySpec` is plain data.  :meth:`QuerySpec.predicate`
builds the ``repro.api`` predicate the archive answers with index
pruning; :meth:`QuerySpec.matches` re-evaluates the same condition on
one ``FlowSummary`` row without any of the program's predicate code, so
a query's flow count can be checked against a filter over ``flows()``.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Sequence

def dotted(address: int) -> str:
    return ".".join(str((address >> shift) & 0xFF) for shift in (24, 16, 8, 0))


@dataclass(frozen=True)
class QuerySpec:
    """A conjunction of optional conditions on a flow summary row."""

    start: float | None = None
    end: float | None = None
    network: int | None = None
    prefix_len: int = 32
    kind: str | None = None
    min_packets: int | None = None
    max_packets: int | None = None

    def predicate(self):
        from repro import api

        parts = []
        if self.start is not None:
            parts.append(api.TimeRange(self.start, self.end))
        if self.network is not None:
            parts.append(
                api.DestinationPrefix(f"{dotted(self.network)}/{self.prefix_len}")
            )
        if self.kind is not None:
            parts.append(api.FlowKind(self.kind))
        if self.min_packets is not None:
            parts.append(api.PacketCountRange(self.min_packets, self.max_packets))
        if not parts:
            return api.MatchAll()
        combined = parts[0]
        for part in parts[1:]:
            combined = api.And(combined, part)
        return combined

    def matches(self, row) -> bool:
        if self.start is not None and not (
            self.start <= row.timestamp <= self.end
        ):
            return False
        if self.network is not None:
            shift = 32 - self.prefix_len
            if row.destination >> shift != self.network >> shift:
                return False
        if self.kind is not None and row.kind.name.lower() != self.kind:
            return False
        if self.min_packets is not None:
            if row.packet_count < self.min_packets:
                return False
            if self.max_packets is not None and row.packet_count > self.max_packets:
                return False
        return True


PATTERNS = (
    ("time", "kind"),
    ("time", "prefix"),
    ("time", "count"),
    ("time", "kind", "count"),
    ("time", "prefix", "kind", "count"),
)
"""Which conditions query ``i`` combines: ``PATTERNS[i % 5]``.  A fixed
shape keeps the cost mix alike from seed to seed; the seed picks the
values.  A prefix lets the index skip segments, so prefix queries run
faster; they are two patterns in five, which keeps the median latency
inside the slower group instead of on the edge between the two."""
SLOTS = ((0, 2), (1, 3), (3, 2), (4, 2), (5, 3), (6, 2), (7, 2), (8, 3), (9, 2), (10, 2))
"""The query time windows, as ``(first segment, segments covered)`` over
the capture's 12 packet-count segments.  A window runs from the middle
packet of its first segment to the middle packet of its last, so it
overlaps exactly the segments it names, whatever the seed; a query's
cost follows the segments it decodes.  Seven windows cover two
segments and three cover three, so the slowest tenth of the mix is
always three-segment queries and the median always a two-segment one
(the prefix patterns, at most two in five, may prune below that).
Query ``i`` takes slot ``i // 5 % 10``: every pattern meets every
window once in 50 queries."""


def windows(midpoints: Sequence[float]) -> list[tuple[float, float]]:
    """The ``(start, end)`` of each :data:`SLOTS` window, given the
    timestamp of the middle packet of each segment, in order."""
    return [(midpoints[first], midpoints[first + covered - 1]) for first, covered in SLOTS]


def query_mix(
    seed: int, count: int, slots: Sequence[tuple[float, float]], flows: Sequence
) -> list[QuerySpec]:
    """``count`` queries drawn from ``seed`` over the time windows
    ``slots`` of a capture whose flow summary rows are ``flows``.

    Query ``i`` takes window ``i // 5 % len(slots)`` and an anchor flow
    drawn from the flows starting inside it; its other conditions are
    built around the anchor (the prefix around its destination, its
    kind, a packet-count range holding its count), so a query whose
    window holds a flow matches at least one.  Windows are narrow, so
    the footer index prunes most segments.  The result depends only on
    the arguments (``flows`` in any order).
    """
    rng = random.Random(seed * 1_000_003 + count)
    ordered = sorted(
        flows,
        key=lambda flow: (
            flow.timestamp,
            flow.destination,
            flow.packet_count,
            flow.kind.name,
        ),
    )
    starts = [flow.timestamp for flow in ordered]
    mix = []
    for index in range(count):
        low, high = slots[index // len(PATTERNS) % len(slots)]
        inside = ordered[bisect_left(starts, low) : bisect_right(starts, high)]
        anchor = rng.choice(inside or ordered)
        fields: dict = {}
        for condition in PATTERNS[index % len(PATTERNS)]:
            if condition == "time":
                fields["start"], fields["end"] = low, high
            elif condition == "prefix":
                length = rng.choice((16, 24))
                mask = (0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF
                fields["network"] = anchor.destination & mask
                fields["prefix_len"] = length
            elif condition == "kind":
                fields["kind"] = anchor.kind.name.lower()
            elif condition == "count":
                packets = anchor.packet_count
                fields["min_packets"] = max(1, packets // rng.choice((1, 2, 4)))
                fields["max_packets"] = rng.choice((None, packets, packets * 4))
        mix.append(QuerySpec(**fields))
    return mix
