"""Tests for the trace comparator."""

import pytest

from repro.analysis.summary import compare_traces
from repro.api import roundtrip
from repro.synth import randomize_destinations
from repro.trace.trace import Trace


class TestCompareTraces:
    def test_self_comparison_similar(self, small_web_trace):
        comparison = compare_traces(small_web_trace, small_web_trace)
        assert comparison.statistically_similar()
        assert comparison.flag_similarity == pytest.approx(1.0)
        assert comparison.locality_gap == 0.0

    def test_decompressed_is_statistical_twin(self, small_web_trace):
        decompressed, _ = roundtrip(small_web_trace)
        comparison = compare_traces(small_web_trace, decompressed)
        assert comparison.statistically_similar()

    def test_randomized_fails_structure(self, small_web_trace):
        randomized = randomize_destinations(small_web_trace)
        comparison = compare_traces(small_web_trace, randomized)
        # Flags survive randomization but address structure must not.
        assert comparison.flag_similarity == pytest.approx(1.0)
        assert comparison.structure_gap > 0.5

    def test_render_contains_metrics(self, small_web_trace):
        comparison = compare_traces(small_web_trace, small_web_trace)
        text = comparison.render()
        assert "mean flow length" in text
        assert "flag trigram similarity" in text

    def test_empty_rejected(self, small_web_trace):
        with pytest.raises(ValueError):
            compare_traces(small_web_trace, Trace())
