"""In-process daemon tests: api.serve blocks in this thread's event
loop while client threads talk to it over real sockets and files."""

from __future__ import annotations

import asyncio
import io
import socket
import time
from dataclasses import replace

import pytest

import repro.api as api
from repro.api.errors import OptionsError
from repro.api.options import ArchiveOptions, Options, ServeOptions
from repro.archive.reader import ArchiveReader
from repro.archive.writer import ArchiveWriter
from repro.obs import MetricsRegistry, metric_name, scoped
from repro.serve.daemon import _Daemon, _Source
from repro.serve.sources import parse_source
from repro.trace.pcaplite import write_pcap
from repro.trace.tsh import read_tsh_bytes

from tests.serve.conftest import connect_unix, in_thread, send_framed

SEGMENT_SPAN = 5.0


def _base_options(**serve_kwargs) -> Options:
    return Options(
        archive=ArchiveOptions(segment_span=SEGMENT_SPAN),
        serve=ServeOptions(**serve_kwargs),
    )


def _offline_archive(path, packets, *, label: str, epoch: float) -> bytes:
    """The batch-path archive the live one must match byte for byte."""
    options = replace(
        _base_options(),
        name=label,
        archive=ArchiveOptions(segment_span=SEGMENT_SPAN, epoch=epoch),
    )
    writer = ArchiveWriter.create(path, options=options)
    writer.feed(packets)
    writer.close()
    return path.read_bytes()


def _replayed(path) -> list:
    with api.open(path) as store:
        return list(store.packets())


class TestUnixSource:
    def test_byte_identical_to_offline_build(self, tmp_path, workload):
        trace, data = workload
        packets = read_tsh_bytes(data)
        sock = str(tmp_path / "ingest.sock")
        live = tmp_path / "live.fctca"

        with scoped(MetricsRegistry()) as registry:
            client = in_thread(send_framed, sock, data)
            report = api.serve(
                str(live),
                _base_options(
                    sources=(f"unix:{sock}",),
                    stop_after_packets=len(packets),
                ),
            )
            client.join(timeout=5)

        assert report.packets == len(packets)
        assert report.clean
        assert "packet budget" in report.stop_reason
        assert report.dropped_chunks == 0
        assert [s.label for s in report.sources] == ["unix0"]
        assert report.sources[0].packets == len(packets)
        assert report.sources[0].decode_errors == 0
        assert report.segments > 1  # the span policy actually rotated

        offline_path = tmp_path / "offline.fctca"
        offline = _offline_archive(
            offline_path,
            packets,
            label="unix0",
            epoch=packets[0].timestamp,
        )
        assert live.read_bytes() == offline
        replayed = _replayed(live)
        assert replayed == _replayed(offline_path)
        assert len(replayed) == len(packets)

        # The per-source metric catalog saw the same totals.
        counters = registry.snapshot().counters()
        assert counters["serve.source.unix0.packets"] == len(packets)
        assert counters["serve.packets"] == len(packets)
        assert counters["serve.segments"] == report.segments
        assert counters["serve.source.unix0.connections"] == 1
        assert counters["archive.segments_rotated"] == report.segments

    def test_two_connections_interleave(self, tmp_path, workload):
        _, data = workload
        packets = read_tsh_bytes(data)
        half = (len(packets) // 2) * 44
        sock = str(tmp_path / "pair.sock")
        live = tmp_path / "pair.fctca"

        first = in_thread(send_framed, sock, data[:half])
        second = in_thread(send_framed, sock, data[half:])
        report = api.serve(
            str(live),
            _base_options(
                sources=(f"unix:{sock}",), stop_after_packets=len(packets)
            ),
        )
        first.join(timeout=5)
        second.join(timeout=5)
        assert report.packets == len(packets)
        assert report.sources[0].decode_errors == 0
        # Interleaving reorders chunks across connections, so the bytes
        # differ from a single-stream build — but no packet is lost.
        with ArchiveReader(str(live)) as reader:
            assert reader.packet_count() == len(packets)


class TestTailSource:
    def test_follows_growth_and_reads_preexisting_bytes(self, tmp_path, workload):
        _, data = workload
        packets = read_tsh_bytes(data)
        capture = tmp_path / "capture.tsh"
        half = (len(packets) // 2) * 44
        capture.write_bytes(data[:half])  # pre-existing content counts
        live = tmp_path / "tail.fctca"

        def grow():
            time.sleep(0.2)
            with open(capture, "ab") as stream:
                stream.write(data[half:])

        grower = in_thread(grow)
        report = api.serve(
            str(live),
            _base_options(
                sources=(f"tail:{capture}",),
                stop_after_packets=len(packets),
                tail_poll_seconds=0.05,
            ),
        )
        grower.join(timeout=5)

        assert report.packets == len(packets)
        assert report.sources[0].label == "tail0"
        offline = _offline_archive(
            tmp_path / "offline.fctca",
            packets,
            label="tail0",
            epoch=packets[0].timestamp,
        )
        assert live.read_bytes() == offline


class TestPcapSource:
    def test_pcap_framing_suffix(self, tmp_path, workload):
        trace, data = workload
        packets = read_tsh_bytes(data)
        buffer = io.BytesIO()
        write_pcap(packets, buffer)
        sock = str(tmp_path / "pcap.sock")
        live = tmp_path / "pcap.fctca"

        client = in_thread(send_framed, sock, buffer.getvalue())
        report = api.serve(
            str(live),
            _base_options(
                sources=(f"unix:{sock}+pcap",),
                stop_after_packets=len(packets),
            ),
        )
        client.join(timeout=5)
        assert report.packets == len(packets)
        assert report.sources[0].decode_errors == 0
        assert len(_replayed(live)) == len(packets)


class TestBackpressure:
    def test_full_queue_counts_wait_then_delivers(self):
        async def scenario():
            source = _Source(
                parse_source("tail:/nowhere"), "tail0", None, queue_chunks=1
            )
            daemon = object.__new__(_Daemon)  # _enqueue touches no state
            await daemon._enqueue(source, ["chunk-1"])

            async def pop_one():
                await asyncio.sleep(0.05)
                return source.queue.get_nowait()

            popper = asyncio.create_task(pop_one())
            await daemon._enqueue(source, ["chunk-2"])  # blocks until pop
            assert await popper == ["chunk-1"]
            assert source.queue.get_nowait() == ["chunk-2"]
            return source

        with scoped(MetricsRegistry()):
            source = asyncio.run(scenario())
        assert source.report.backpressure_waits == 1
        assert source.report.chunks == 2
        assert source.backpressure_counter.value == 1


class TestPrometheusEndpoint:
    def test_metrics_served_mid_run(self, tmp_path, workload):
        _, data = workload
        packets = read_tsh_bytes(data)
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        sock = str(tmp_path / "prom.sock")
        live = tmp_path / "prom.fctca"
        pages: list[bytes] = []

        def fetch_then_send():
            deadline = time.monotonic() + 5
            while True:
                try:
                    with socket.create_connection(
                        ("127.0.0.1", port), timeout=1
                    ) as client:
                        client.sendall(b"GET /metrics HTTP/1.0\r\n\r\n")
                        chunks = []
                        while chunk := client.recv(4096):
                            chunks.append(chunk)
                    pages.append(b"".join(chunks))
                    break
                except OSError:
                    if time.monotonic() > deadline:
                        raise
                    time.sleep(0.05)
            send_framed(sock, data)

        client = in_thread(fetch_then_send)
        report = api.serve(
            str(live),
            _base_options(
                sources=(f"unix:{sock}",),
                stop_after_packets=len(packets),
                prometheus_port=port,
            ),
        )
        client.join(timeout=10)

        assert report.prometheus_port == port
        assert pages, "metrics endpoint never answered"
        page = pages[0].decode()
        assert "200 OK" in page
        assert "text/plain; version=0.0.4" in page
        assert metric_name("serve.source.unix0.packets") in page


class TestGuards:
    def test_serve_without_sources_raises(self, tmp_path):
        with pytest.raises(OptionsError, match="at least one source"):
            api.serve(str(tmp_path / "x.fctca"), Options())

    def test_decode_error_counted_not_fatal(self, tmp_path, workload):
        _, data = workload
        sock = str(tmp_path / "torn.sock")
        live = tmp_path / "torn.fctca"

        def send_torn():
            client = connect_unix(sock)
            try:
                from repro.trace.framing import frame

                # 100 whole records, then a torn half-record, no EOS.
                client.sendall(frame(data[: 44 * 100] + data[:22]))
            finally:
                client.close()

        client = in_thread(send_torn)
        report = api.serve(
            str(live),
            _base_options(
                sources=(f"unix:{sock}",),
                stop_after_packets=100,
                drain_timeout=5.0,
            ),
        )
        client.join(timeout=5)
        assert report.packets == 100
        assert report.sources[0].decode_errors == 1
        with ArchiveReader(str(live)) as reader:
            assert reader.packet_count() == 100
