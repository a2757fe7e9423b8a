"""The acceptance scenario: a real daemon process, three concurrent
sources, SIGTERM mid-stream, and a sealed archive whose per-source
segments are byte-identical to offline compression of the same bytes.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.api.options import ArchiveOptions, Options
from repro.archive.reader import ArchiveReader
from repro.archive.writer import ArchiveWriter
from repro.synth import generate_web_trace
from repro.trace.framing import END_OF_STREAM, frame
from repro.trace.tsh import read_tsh_bytes

from tests.serve.conftest import connect_unix

SEGMENT_SPAN = 5.0
REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")


def _workloads():
    """Three distinct traces, one per source."""
    out = {}
    for label, seed in (("unix0", 31), ("unix1", 32), ("tail2", 33)):
        trace = generate_web_trace(duration=10.0, flow_rate=25.0, seed=seed)
        out[label] = trace.to_tsh_bytes()
    return out


def _send(sock_path: str, data: bytes) -> None:
    client = connect_unix(sock_path, timeout=10.0)
    try:
        for start in range(0, len(data), 9973):
            client.sendall(frame(data[start : start + 9973]))
        client.sendall(END_OF_STREAM)
    finally:
        client.close()


def _offline(path, data: bytes, *, label: str, epoch: float) -> list[bytes]:
    """Per-source reference: the segments offline compression seals."""
    options = Options(
        name=label,
        archive=ArchiveOptions(segment_span=SEGMENT_SPAN, epoch=epoch),
    )
    with ArchiveWriter.create(path, options=options) as writer:
        writer.feed(read_tsh_bytes(data))
    with ArchiveReader(str(path)) as reader:
        return [
            reader.read_segment_bytes(i) for i in range(reader.segment_count)
        ]


def test_three_sources_sigterm_drain_byte_identical(tmp_path):
    workloads = _workloads()
    sock_a = str(tmp_path / "a.sock")
    sock_b = str(tmp_path / "b.sock")
    grow = tmp_path / "grow.tsh"
    grow.write_bytes(b"")
    live = tmp_path / "live.fctca"

    # Every feeder anchors to one pinned epoch, so the offline rebuild
    # is deterministic no matter which source's packet lands first.
    epoch = min(
        read_tsh_bytes(data)[0].timestamp for data in workloads.values()
    )

    daemon = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            str(live),
            "--source",
            f"unix:{sock_a}",
            "--source",
            f"unix:{sock_b}",
            "--source",
            f"tail:{grow}",
            "--segment-span",
            str(SEGMENT_SPAN),
            "--epoch",
            str(epoch),
            "--drain-timeout",
            "30",
            "--tail-poll",
            "0.05",
            "-v",
            "--metrics",
        ],
        env={**os.environ, "PYTHONPATH": REPO_SRC},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        _send(sock_a, workloads["unix0"])
        _send(sock_b, workloads["unix1"])
        # The tail file grows in bursts; the final burst lands just
        # before the signal — the drain's last catch-up must read it.
        data = workloads["tail2"]
        third = (len(data) // (3 * 44)) * 44
        with open(grow, "ab") as stream:
            stream.write(data[:third])
        time.sleep(0.3)
        with open(grow, "ab") as stream:
            stream.write(data[third:])

        daemon.send_signal(signal.SIGTERM)
        stdout, stderr = daemon.communicate(timeout=60)
    except Exception:
        daemon.kill()
        daemon.communicate()
        raise

    assert daemon.returncode == 0, stderr
    assert "stop: SIGTERM" in stdout
    assert "drain: clean" in stdout
    for label in ("unix0", "unix1", "tail2"):
        assert label in stdout
    # --metrics routes the run report to stderr with serve.* counters.
    assert "serve.source.unix0.packets" in stderr
    assert "serve.source.tail2.packets" in stderr

    # Group the live archive's segments by their source prefix; each
    # source's sequence must be byte-identical to compressing its own
    # capture offline with the same epoch and bounds.
    by_source: dict[str, list[bytes]] = {}
    total_packets = 0
    with ArchiveReader(str(live)) as reader:
        total_packets = reader.packet_count()
        for index in range(reader.segment_count):
            name = reader.load_segment(index).name
            by_source.setdefault(name.partition("/")[0], []).append(
                reader.read_segment_bytes(index)
            )

    expected_total = sum(len(d) // 44 for d in workloads.values())
    assert total_packets == expected_total
    assert sorted(by_source) == ["tail2", "unix0", "unix1"]
    for label, data in workloads.items():
        offline_segments = _offline(
            tmp_path / f"offline-{label}.fctca", data, label=label, epoch=epoch
        )
        assert by_source[label] == offline_segments, label
