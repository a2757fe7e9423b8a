"""How fast the host runs at the moment, from a fixed reference loop.

The benchmark shares its host with other tenants, who can slow every
instruction for minutes at a time (the same vCPU time buys less work,
with no steal time reported), and no call of the program escapes that.
:func:`probe` times a fixed piece of pure-Python work, of the kinds the
program spends its time on (dict lookups keyed by tuples, integer
arithmetic, small objects, list building, sorting, byte packing).  It
runs before every timed path call, so the probes sample the host at the
same moments as the calls do.  :func:`slowdown` divides their trimmed
mean by the same statistic on a quiet host, and the end-to-end timings
are divided by that factor.  The program never runs this code, so a
change to the program moves the timings and leaves the factor alone.
"""

from __future__ import annotations

import struct
import time

from perfbench.summary import trimmed_mean

ROUNDS = 5_000
"""Iterations of the reference loop: about 5 ms on a quiet host."""
REFERENCE_S = 0.0052
"""The trimmed mean of a run's probes on a quiet host: the quietest of
ten runs on a 2-vCPU Xeon VM with Python 3.11."""
RECORD = struct.Struct("<IIHHB")


class _Flow:
    __slots__ = ("key", "packets", "last")

    def __init__(self, key: tuple, stamp: int) -> None:
        self.key = key
        self.packets = 1
        self.last = stamp


def _work() -> int:
    flows: dict[tuple, _Flow] = {}
    encoded = []
    for index in range(ROUNDS):
        key = (index % 97, (index * 7) % 89, index % 5)
        flow = flows.get(key)
        if flow is None:
            flows[key] = _Flow(key, index)
        else:
            flow.packets += 1
            flow.last = index
        encoded.append(RECORD.pack(index, key[0] << 8 | key[1], key[2], index & 0xFFFF, 6))
    ordered = sorted(flows.values(), key=lambda flow: (flow.packets, flow.last))
    total = 0
    for record in encoded:
        stamp, pair, _kind, _port, _proto = RECORD.unpack(record)
        total += (stamp ^ pair) & 0xFF
    return total + len(ordered)


def probe() -> float:
    """Seconds one run of the reference loop takes now."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start


def slowdown(probes: list[float]) -> float:
    """How much slower than the quiet host the run's probes ran."""
    return trimmed_mean(probes) / REFERENCE_S
