"""Shared fixtures for the ingest-daemon tests.

The daemon runs in-process (``api.serve`` blocks in the test thread's
event loop) while clients run in plain background threads talking real
sockets — the same shape as production, minus the subprocess.  The
SIGTERM path, which needs a real process to signal, lives in
``tests/integration/test_serve_sigterm.py``.
"""

from __future__ import annotations

import os
import socket
import threading
import time

import pytest

from repro.synth import generate_web_trace
from repro.trace.framing import END_OF_STREAM, frame

CONNECT_TIMEOUT = 5.0


@pytest.fixture(scope="module")
def workload():
    """A deterministic ~5k-packet trace and its raw TSH bytes."""
    trace = generate_web_trace(duration=12.0, flow_rate=30.0, seed=21)
    return trace, trace.to_tsh_bytes()


def wait_for_path(path: str, timeout: float = CONNECT_TIMEOUT) -> None:
    deadline = time.monotonic() + timeout
    while not os.path.exists(path):
        if time.monotonic() > deadline:
            raise TimeoutError(f"{path} never appeared")
        time.sleep(0.01)


def connect_unix(path: str, timeout: float = CONNECT_TIMEOUT) -> socket.socket:
    """Connect to a daemon's unix socket once it is listening.

    The socket file appears at ``bind``, a moment before ``listen``; a
    connect in that gap is refused, so refusals are retried until
    ``timeout``.
    """
    deadline = time.monotonic() + timeout
    wait_for_path(path, timeout)
    while True:
        client = socket.socket(socket.AF_UNIX)
        try:
            client.connect(path)
            return client
        except ConnectionRefusedError:
            client.close()
            if time.monotonic() > deadline:
                raise
            time.sleep(0.01)


def send_framed(
    sock_path: str,
    data: bytes,
    *,
    frame_bytes: int = 9973,
    end_of_stream: bool = True,
) -> None:
    """Connect to a daemon unix socket and stream ``data`` in odd frames."""
    client = connect_unix(sock_path)
    try:
        for start in range(0, len(data), frame_bytes):
            client.sendall(frame(data[start : start + frame_bytes]))
        if end_of_stream:
            client.sendall(END_OF_STREAM)
    finally:
        client.close()


def in_thread(target, *args, **kwargs) -> threading.Thread:
    thread = threading.Thread(target=target, args=args, kwargs=kwargs, daemon=True)
    thread.start()
    return thread
