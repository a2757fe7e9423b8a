"""The end-to-end paths, driven through ``repro.api``, with output checks.

One :meth:`Bench.iteration` runs every path over the capture — the
write paths (compress, archive build, serve ingest) and the read paths
(export, replay, queries, stats) — timing each call with tracing off
and checking what it produced.  A path is called once, or repeated
until it has run for a time budget, so that short paths give as many
samples as long ones.  Every path call and every check counts
as one attempted operation in the :class:`Tally`; an exception or a
wrong output counts as one failed.
"""

from __future__ import annotations

import gc
import os
import signal
import socket
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from perfbench.calibrate import probe
from perfbench.queries import QuerySpec, query_mix, windows
from perfbench.workloads import WINDOWS, Capture

QUERY_MIX = 100
"""Distinct queries drawn per run; each call of the query path runs the
next :data:`QUERIES_PER_BATCH` of them, round robin."""
QUERIES_PER_BATCH = 50
SEND_RECORDS = 1024
"""TSH records per frame the ingest client sends."""
INGEST_WATCHDOG_S = 60.0
"""A serve run still going after this long is stopped with SIGTERM."""
PATHS = ("compress", "archive_build", "export", "replay", "query", "stats", "ingest")
"""The end-to-end paths, in run order."""
ARCHIVE_STEM = "unix0"
"""The serve daemon names a unix source's segments ``unix0/...``; the
offline archive takes its name from the file stem, so both sides of the
live-equals-offline check write the same segment names."""


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)
        return ok

    def call(self, what: str, function, *args, **kwargs):
        """Run one operation; returns ``(ok, result)``."""
        self.attempted += 1
        try:
            return True, function(*args, **kwargs)
        except Exception:  # noqa: BLE001 — a failed operation is a data point
            self.failed += 1
            print(f"operation failed: {what}", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            return False, None


def options_for(capture: Capture, **serve):
    """The one ``Options`` value every path of a workload uses."""
    from repro.api import ArchiveOptions, Options, ServeOptions

    return Options(
        archive=ArchiveOptions(
            segment_packets=capture.workload.segment_packets, segment_span=None
        ),
        serve=ServeOptions(**serve),
    )


def frame_capture(data: bytes) -> bytes:
    """The byte stream the ingest client sends: framed TSH, then EOS."""
    from repro.trace.framing import END_OF_STREAM, frame

    step = SEND_RECORDS * 44
    return b"".join(
        frame(data[offset : offset + step]) for offset in range(0, len(data), step)
    ) + END_OF_STREAM


class Bench:
    """The capture, its scratch directory, and the untraced paths."""

    def __init__(self, capture: Capture, workdir: Path, tally: Tally) -> None:
        self.capture = capture
        self.tally = tally
        self.workdir = workdir
        self.options = options_for(capture)
        self.container = workdir / "capture.fctc"
        self.archive = workdir / f"{ARCHIVE_STEM}.fctca"
        self.exported = workdir / "export.tsh"
        self.live = workdir / "live.fctca"
        self.socket = workdir / "ingest.sock"
        self.framed = frame_capture(capture.path.read_bytes())
        self.window = capture.span / WINDOWS
        self.mix: list[tuple[QuerySpec, int]] = []
        """The run's queries, each with its brute-force flow count."""
        self.batch: list[tuple[QuerySpec, int]] = []
        """The part of :attr:`mix` the last query batch ran."""
        self._cursor = 0
        self.flows = 0
        self.stats_windows: tuple = ()

    # -- once per run -----------------------------------------------------

    def prepare_checks(self, seed: int) -> None:
        """Draw the query mix and its brute-force answers; check that the
        index-path stats equal the decode path on one window.

        Builds the archive it reads, outside any timed path.
        """
        from repro import api

        api.create_archive(self.archive, [self.capture.path], options=self.options)
        with api.open(self.archive, options=self.options) as store:
            rows = list(store.flows())
            self.flows = len(rows)
            self.mix = [
                (query, sum(1 for row in rows if query.matches(row)))
                for query in query_mix(
                    seed, QUERY_MIX, windows(self.capture.midpoints), rows
                )
            ]
            # The window holding the median flow start is never empty.
            middle = sorted(row.timestamp for row in rows)[len(rows) // 2]
            since = self.window * (middle // self.window)
            until = since + self.window
            reports = [
                self.tally.call(
                    f"stats method={method}",
                    store.stats,
                    window=self.window,
                    since=since,
                    until=until,
                    method=method,
                )
                for method in ("index", "decode")
            ]
        (index_ok, index), (decode_ok, decode) = reports
        self.tally.check(
            index_ok
            and decode_ok
            and index.flows > 0
            and index.windows == decode.windows,
            "index-path stats equal decode-path stats on one window",
        )

    def adopt_checks(self, other: "Bench") -> None:
        """Reuse the answers another bench drew for the same capture."""
        self.mix, self.flows = other.mix, other.flows

    def next_batch(self) -> list[tuple[int, QuerySpec, int]]:
        """The next queries of the mix, each with its index in the mix."""
        start = self._cursor
        self._cursor = (start + QUERIES_PER_BATCH) % len(self.mix)
        indices = [(start + k) % len(self.mix) for k in range(QUERIES_PER_BATCH)]
        self.batch = [self.mix[index] for index in indices]
        return [(index, *self.mix[index]) for index in indices]

    # -- the paths --------------------------------------------------------

    def iteration(
        self,
        after: Callable[[str], None] | None = None,
        budget: float = 0.0,
        calibrate: bool = False,
    ) -> dict:
        """Run every path in :data:`PATHS` order, calling ``after(path)``
        after each.  A path is called once, then again until ``budget``
        seconds have passed since its first call in this pass.  With
        ``calibrate``, a :func:`~perfbench.calibrate.probe` runs before
        each call.

        Returns the seconds of each call per path, the query latencies
        as ``(index in the mix, seconds, probe seconds before the
        batch)``, and the seconds of the probes per path.
        """
        record = {
            "times": {path: [] for path in PATHS},
            "query_latencies": [],
            "probes": {path: [] for path in PATHS},
        }
        for path in PATHS:
            run = getattr(self, f"_run_{path}")
            start = time.perf_counter()
            while True:
                if calibrate:
                    record["probes"][path].append(probe())
                run(record)
                if time.perf_counter() - start >= budget:
                    break
            if after is not None:
                after(path)
        return record

    def _timed(self, record: dict, path: str, function, *args, **kwargs):
        # Collect first: a collection the previous path left pending
        # would otherwise land in this one, at an offset that differs
        # from run to run.
        gc.collect()
        start = time.perf_counter()
        ok, result = self.tally.call(path, function, *args, **kwargs)
        record["times"][path].append(time.perf_counter() - start)
        return ok, result

    def _run_compress(self, record: dict) -> None:
        self._timed(record, "compress", self._compress)

    def _run_archive_build(self, record: dict) -> None:
        from repro import api

        self._timed(
            record,
            "archive_build",
            api.create_archive,
            self.archive,
            [self.capture.path],
            options=self.options,
        )

    def _run_export(self, record: dict) -> None:
        ok, exported = self._timed(record, "export", self._export)
        self.tally.check(
            ok and exported.packets == self.capture.packets, "export packet count"
        )

    def _run_replay(self, record: dict) -> None:
        ok, replayed = self._timed(record, "replay", self._replay)
        self.tally.check(
            ok and replayed == self.capture.packets, "replay packet count"
        )

    def _run_query(self, record: dict) -> None:
        latencies = self._queries()
        # The calibration probe that ran just before this batch.
        probes = record["probes"]["query"]
        before = probes[-1] if probes else None
        record["query_latencies"].extend(
            (index, seconds, before) for index, seconds in latencies
        )
        record["times"]["query"].append(sum(seconds for _index, seconds in latencies))

    def _run_stats(self, record: dict) -> None:
        ok, report = self._timed(record, "stats", self._stats)
        self.tally.check(ok and report.flows == self.flows, "stats flow count")
        if ok:
            self.stats_windows = report.windows

    def _run_ingest(self, record: dict) -> None:
        ok, served = self._timed(record, "ingest", self._ingest)
        self.tally.check(
            ok and served.packets == self.capture.packets, "ingest packet count"
        )
        self.tally.check(
            ok and self.live.read_bytes() == self.archive.read_bytes(),
            "serve archive byte-identical to the offline build",
        )

    def _compress(self):
        from repro import api

        with api.open(self.capture.path, options=self.options) as store:
            return store.compress(self.container)

    def _export(self):
        from repro import api

        with api.open(self.container, options=self.options) as store:
            return store.export(self.exported)

    def _replay(self) -> int:
        from repro import api

        with api.open(self.archive, options=self.options) as store:
            return sum(1 for _ in store.packets(workers=1))

    def _queries(self) -> list[tuple[int, float]]:
        from repro import api

        latencies = []
        ok, store = self.tally.call(
            "open archive", api.open, self.archive, options=self.options
        )
        if not ok:
            return latencies
        gc.collect()
        with store:
            for index, query, expected in self.next_batch():
                predicate = query.predicate()
                start = time.perf_counter()
                ok, result = self.tally.call("query", store.query, predicate)
                latencies.append((index, time.perf_counter() - start))
                self.tally.check(
                    ok and len(result.flows) == expected,
                    f"query flow count equals brute force: {query}",
                )
        return latencies

    def _stats(self):
        from repro import api

        clear_profile_cache()
        with api.open(self.archive, options=self.options) as store:
            return store.stats(window=self.window)

    def _ingest(self):
        from repro import api

        sock = os.path.relpath(self.socket)
        sender = threading.Thread(
            target=send_stream, args=(sock, self.framed), daemon=True
        )
        # A stuck daemon must not hang the benchmark: SIGTERM takes the
        # daemon's own drain-and-seal path.
        watchdog = threading.Timer(
            INGEST_WATCHDOG_S, os.kill, (os.getpid(), signal.SIGTERM)
        )
        watchdog.start()
        sender.start()
        try:
            return api.serve(
                str(self.live),
                options_for(
                    self.capture,
                    sources=(f"unix:{sock}",),
                    stop_after_packets=self.capture.packets,
                ),
            )
        finally:
            watchdog.cancel()
            sender.join(timeout=INGEST_WATCHDOG_S)
            watchdog.join()
            self.tally.check(not sender.is_alive(), "ingest client finished")


def send_stream(path: str, data: bytes) -> None:
    """The closed-loop client: ``sendall`` blocks under backpressure."""
    deadline = time.monotonic() + INGEST_WATCHDOG_S
    while not os.path.exists(path):
        if time.monotonic() > deadline:
            raise TimeoutError(f"no ingest socket at {path}")
        time.sleep(0.0005)
    client = socket.socket(socket.AF_UNIX)
    try:
        while True:
            try:
                client.connect(path)
                break
            except ConnectionRefusedError:  # bound, not yet listening
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.0005)
        client.sendall(data)
    finally:
        client.close()


def clear_profile_cache() -> None:
    """Drop the process-wide template-profile cache before a timed stats
    call, so each call pays what a fresh ``repro stats`` process pays."""
    from repro.core import flowmeta

    clear = getattr(flowmeta.profile_template, "cache_clear", None)
    if clear is not None:
        clear()
