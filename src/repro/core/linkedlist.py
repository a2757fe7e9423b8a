"""The compressor's active-flow linked list (section 3).

"When a packet carrying a new flow is found, a new node is inserted at the
end of a linked list ...  Each node stores the following fields: a key (a
hashing of source and destination IP addresses, source and destination
port numbers, and protocol number), time-stamp, V_f value and two
pointers.  Each node has associated another linked list, where are
inserted the packets from the same flow."

The structure here is a doubly linked list of :class:`FlowNode` with an
auxiliary hash index for O(1) key lookup (the paper's hash key serves the
same purpose).  Each node accumulates its packet sub-list and the running
``V_f`` values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from repro.flows.model import Direction
from repro.net.flowkey import FiveTuple, flow_hash


@dataclass
class PacketEntry:
    """One packet in a node's sub-list: what compression needs to keep."""

    timestamp: float
    value: int  # f(p_i)
    direction: Direction


class FlowNode:
    """A linked-list node for one active flow."""

    __slots__ = (
        "key",
        "key_hash",
        "first_timestamp",
        "values",
        "entries",
        "client_tuple",
        "dst_ip",
        "prev",
        "next",
    )

    def __init__(self, client_tuple: FiveTuple, first_timestamp: float) -> None:
        self.client_tuple = client_tuple
        self.key = client_tuple.canonical()
        self.key_hash = flow_hash(self.key)
        self.first_timestamp = first_timestamp
        self.values: list[int] = []
        self.entries: list[PacketEntry] = []
        self.dst_ip = client_tuple.dst_ip
        self.prev: Optional["FlowNode"] = None
        self.next: Optional["FlowNode"] = None

    @property
    def packet_count(self) -> int:
        """Packets accumulated so far (the paper's 'inserted nodes')."""
        return len(self.entries)

    def append_packet(
        self, timestamp: float, value: int, direction: Direction
    ) -> None:
        """Insert a packet into the node's packet sub-list."""
        self.values.append(value)
        self.entries.append(PacketEntry(timestamp, value, direction))

    def vector(self) -> tuple[int, ...]:
        """The flow's V_f vector accumulated so far."""
        return tuple(self.values)

    def inter_packet_gaps(self) -> list[float]:
        """Gaps between consecutive packets, with a trailing 0 (n entries).

        A packet that arrives older than its predecessor (interleaved
        live sources) gets a zero gap, as the time-seq timestamp and RTT
        clamp at zero; a long-flow template never holds a negative gap.
        """
        times = [entry.timestamp for entry in self.entries]
        gaps = [
            later - earlier if later > earlier else 0.0
            for earlier, later in zip(times, times[1:])
        ]
        gaps.append(0.0)
        return gaps

    def estimate_rtt(self) -> float:
        """Gap to the first direction turnaround (section 2's RTT notion)."""
        if not self.entries:
            return 0.0
        first = self.entries[0]
        for entry in self.entries[1:]:
            if entry.direction is not first.direction:
                return entry.timestamp - first.timestamp
        return 0.0


class ActiveFlowList:
    """Doubly linked list of active flows with hash-keyed lookup."""

    def __init__(self) -> None:
        self._head: Optional[FlowNode] = None
        self._tail: Optional[FlowNode] = None
        self._by_key: dict[FiveTuple, FlowNode] = {}
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[FlowNode]:
        node = self._head
        while node is not None:
            yield node
            node = node.next

    def find(self, key: FiveTuple) -> Optional[FlowNode]:
        """The node for a canonical 5-tuple, or None."""
        return self._by_key.get(key)

    def insert(self, client_tuple: FiveTuple, timestamp: float) -> FlowNode:
        """Append a new flow node at the tail (paper: 'at the end')."""
        node = FlowNode(client_tuple, timestamp)
        if node.key in self._by_key:
            raise ValueError(f"flow already active: {node.key.describe()}")
        if self._tail is None:
            self._head = self._tail = node
        else:
            node.prev = self._tail
            self._tail.next = node
            self._tail = node
        self._by_key[node.key] = node
        self._size += 1
        return node

    def remove(self, node: FlowNode) -> None:
        """Unlink a node ("remove all nodes of this flow from the list")."""
        if self._by_key.get(node.key) is not node:
            raise ValueError(f"node not in list: {node.key.describe()}")
        if node.prev is not None:
            node.prev.next = node.next
        else:
            self._head = node.next
        if node.next is not None:
            node.next.prev = node.prev
        else:
            self._tail = node.prev
        node.prev = node.next = None
        del self._by_key[node.key]
        self._size -= 1

    def pop_all(self) -> list[FlowNode]:
        """Remove and return every node, in list order (end-of-trace flush)."""
        nodes = list(self)
        for node in nodes:
            self.remove(node)
        return nodes
