"""Tests for the two-field classifier app."""

import pytest

from repro.memsim.cache import CacheConfig
from repro.routing.classifier import ClassifierApp, ClassifierConfig
from repro.routing.route import RouteApp


class TestClassifier:
    def test_every_packet_classified(self, multi_flow_trace):
        app = ClassifierApp()
        result = app.run(multi_flow_trace)
        assert result.packets_processed == len(multi_flow_trace)
        assert app.matched + app.default_action == len(multi_flow_trace)

    def test_heavier_than_route(self, multi_flow_trace):
        # Two trie walks must cost more than one.
        classify = ClassifierApp().run(multi_flow_trace)
        route = RouteApp().run(multi_flow_trace)
        assert sum(classify.accesses_per_packet()) > sum(
            route.accesses_per_packet()
        )

    def test_profile_works(self, multi_flow_trace):
        result = ClassifierApp().run(multi_flow_trace)
        profile = result.profile(CacheConfig())
        assert len(profile) == len(multi_flow_trace)
        assert 0.0 <= profile.overall_miss_rate() <= 1.0

    def test_wildcard_rule_terminates(self, multi_flow_trace):
        # The per-rule wildcard source guarantees every dst-matched
        # packet resolves; with full dst coverage nothing should be
        # unmatched at the dst level.
        app = ClassifierApp()
        app.run(multi_flow_trace)
        assert app.matched + app.default_action == len(multi_flow_trace)

    def test_deterministic(self, multi_flow_trace):
        a = ClassifierApp().run(multi_flow_trace).accesses_per_packet()
        b = ClassifierApp().run(multi_flow_trace).accesses_per_packet()
        assert a == b

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            ClassifierConfig(sources_per_rule=0)
        with pytest.raises(ValueError):
            ClassifierConfig(source_prefix_length=0)

    def test_original_vs_decompressed_similarity(self, small_web_trace):
        from repro.analysis.compare import kolmogorov_smirnov
        from repro.api import roundtrip

        decompressed, _ = roundtrip(small_web_trace)
        original_accs = ClassifierApp().run(small_web_trace).accesses_per_packet()
        decomp_accs = ClassifierApp().run(decompressed).accesses_per_packet()
        # The section 6 claim extends to the fourth app.
        assert kolmogorov_smirnov(original_accs, decomp_accs) < 0.2
