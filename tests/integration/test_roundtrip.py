"""Integration: the full compress/decompress pipeline on generated traffic.

These are the library-level versions of the paper's claims: the ratio
lands near 3%, the semantic properties survive, and the whole thing
composes through the on-disk formats.
"""

import pytest

from repro.api import roundtrip
from repro.core import compress_trace, decompress_trace
from repro.core.codec import deserialize_compressed, serialize_compressed
from repro.flows.assembler import assemble_flows
from repro.flows.characterize import characterize_flow
from repro.flows.distance import similarity_threshold, vector_distance
from repro.trace.stats import compute_statistics
from repro.trace.trace import Trace


class TestEndToEnd:
    def test_packet_count_preserved(self, small_web_trace):
        decompressed, report = roundtrip(small_web_trace)
        assert len(decompressed) == len(small_web_trace)

    def test_ratio_in_paper_band(self, small_web_trace):
        _, report = roundtrip(small_web_trace)
        assert 0.02 < report.ratio < 0.06

    def test_flow_count_preserved(self, small_web_trace):
        decompressed, _ = roundtrip(small_web_trace)
        original = compute_statistics(small_web_trace)
        restored = compute_statistics(decompressed)
        assert restored.flow_count == original.flow_count

    def test_flow_length_distribution_close(self, small_web_trace):
        decompressed, _ = roundtrip(small_web_trace)
        original = compute_statistics(small_web_trace).length_distribution
        restored = compute_statistics(decompressed).length_distribution
        # Clustering may merge similar-but-not-identical flows, shifting a
        # few flows between adjacent lengths; the aggregate shape holds.
        assert restored.total_packets() == original.total_packets()
        assert restored.mean_length() == pytest.approx(
            original.mean_length(), rel=0.02
        )

    def test_duration_roughly_preserved(self, small_web_trace):
        decompressed, _ = roundtrip(small_web_trace)
        # Flow start times are exact (time-seq); within-flow timing is
        # modelled, so total duration may stretch, bounded by the RTT
        # model (factor ~3 tolerance).
        assert decompressed.duration() < 3 * small_web_trace.duration() + 1.0

    def test_every_short_flow_within_dmax_of_template(self, small_web_trace):
        """The paper's clustering bound: every short flow's vector is
        within d_max of the template that represents it — by construction,
        but this verifies the pipeline end to end."""
        compressed = compress_trace(small_web_trace)
        decompressed = decompress_trace(compressed)
        original_vectors = {}
        for flow in assemble_flows(small_web_trace.packets):
            vector = characterize_flow(flow)
            original_vectors.setdefault(len(vector), []).append(vector)
        for flow in assemble_flows(decompressed.packets):
            if len(flow) > 50:
                continue
            vector = characterize_flow(flow)
            candidates = original_vectors.get(len(vector), [])
            threshold = similarity_threshold(len(vector))
            assert any(
                vector_distance(vector, candidate) < max(threshold, 1)
                for candidate in candidates
            ), f"decompressed vector {vector} has no nearby original"

    def test_serialized_roundtrip_identical_datasets(self, small_web_trace):
        compressed = compress_trace(small_web_trace)
        restored = deserialize_compressed(serialize_compressed(compressed))
        decompressed_a = decompress_trace(compressed)
        decompressed_b = decompress_trace(restored)
        assert len(decompressed_a) == len(decompressed_b)
        assert [p.dst_ip for p in decompressed_a] == [
            p.dst_ip for p in decompressed_b
        ]


class TestDoubleCompression:
    def test_recompressing_decompressed_is_stable(self, small_web_trace):
        """Compressing the decompressed trace should find (at least as
        much) structure: template counts shrink or hold, never explode."""
        first = compress_trace(small_web_trace)
        decompressed = decompress_trace(first)
        second = compress_trace(decompressed)
        assert second.flow_count() == first.flow_count()
        assert (
            len(second.short_templates) <= len(first.short_templates) + 2
        )

    def test_second_roundtrip_ratio_not_worse(self, small_web_trace):
        decompressed, first_report = roundtrip(small_web_trace)
        _, second_report = roundtrip(decompressed)
        assert second_report.ratio <= first_report.ratio * 1.2
