"""Property: streaming and batch decompression are byte-identical.

The streaming decompressor promises the exact packet sequence of
:func:`decompress_trace` for any compressed input — Web and P2P
traffic, serialized round-trips, arbitrary decompressor configs — while
holding only the concurrent-flow working set.  The archive replay makes
the same promise against the per-segment batch reference.
"""

from hypothesis import given, settings, strategies as st

from repro.api import Options, create_archive
from repro.archive import ArchiveReader
from repro.core.codec import deserialize_compressed, serialize_compressed
from repro.core.compressor import compress_trace
from repro.core.decompressor import (
    DecompressorConfig,
    decompress_trace,
    merge_sort_key,
)
from repro.core.replay import StreamingDecompressor, iter_decompressed
from repro.synth import generate_p2p_trace, generate_web_trace
from repro.trace.tsh import write_tsh_bytes


def _assert_stream_equals_batch(compressed, config=None):
    batch = decompress_trace(compressed, config)
    engine = StreamingDecompressor(compressed, config)
    streamed = list(engine.packets())
    assert write_tsh_bytes(streamed) == write_tsh_bytes(batch.packets)
    assert engine.stats.packets_emitted == len(batch)
    return engine


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_web_trace_replay_equivalence(seed):
    trace = generate_web_trace(duration=1.5, flow_rate=25.0, seed=seed)
    _assert_stream_equals_batch(compress_trace(trace))


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_p2p_trace_replay_equivalence(seed):
    trace = generate_p2p_trace(duration=1.5, session_rate=6.0, seed=seed)
    _assert_stream_equals_batch(compress_trace(trace))


@settings(max_examples=6, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    decomp_seed=st.integers(min_value=0, max_value=2**32),
    default_rtt=st.floats(min_value=0.001, max_value=0.5, allow_nan=False),
)
def test_replay_equivalence_under_configs(seed, decomp_seed, default_rtt):
    trace = generate_web_trace(duration=1.0, flow_rate=25.0, seed=seed)
    config = DecompressorConfig(seed=decomp_seed, default_rtt=default_rtt)
    _assert_stream_equals_batch(compress_trace(trace), config)


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_serialized_roundtrip_replays_identically(seed):
    """In-memory container and its codec round-trip stream the same."""
    trace = generate_web_trace(duration=1.5, flow_rate=25.0, seed=seed)
    compressed = compress_trace(trace)
    roundtripped = deserialize_compressed(serialize_compressed(compressed))
    direct = write_tsh_bytes(iter_decompressed(compressed))
    assert write_tsh_bytes(iter_decompressed(roundtripped)) == direct


@settings(max_examples=4, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    segment_span=st.floats(min_value=0.5, max_value=3.0, allow_nan=False),
)
def test_archive_replay_matches_per_segment_batch(tmp_path_factory, seed, segment_span):
    trace = generate_web_trace(duration=4.0, flow_rate=20.0, seed=seed)
    path = (
        tmp_path_factory.mktemp("prop-replay")
        / f"t-{seed}-{segment_span:.2f}.fctca"
    )
    create_archive(
        path,
        iter(trace.packets),
        options=Options.make(segment_span=segment_span, segment_packets=10_000),
    )
    reference = []
    with ArchiveReader(path) as reader:
        for index in range(reader.segment_count):
            reference.extend(decompress_trace(reader.load_segment(index)).packets)
    reference.sort(key=merge_sort_key)
    with ArchiveReader(path) as reader:
        streamed = write_tsh_bytes(reader.iter_packets())
    assert streamed == write_tsh_bytes(reference)
