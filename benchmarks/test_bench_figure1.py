"""E1 / Figure 1 — file-size comparison across the five storage methods.

``pytest benchmarks/test_bench_figure1.py --benchmark-only -s`` times each
compressor on the same trace and regenerates the Figure 1 table rows.
"""

import pytest

from repro.baselines import GzipCodec, PeuhkuriCodec, VanJacobsonCodec
from repro.core.codec import serialize_compressed
from repro.core.compressor import compress_trace
from repro.experiments import figure1


@pytest.mark.benchmark(group="figure1-compressors")
class TestCompressorThroughput:
    def test_gzip(self, benchmark, bench_trace):
        codec = GzipCodec()
        size = benchmark(lambda: len(codec.compress(bench_trace)))
        assert 0.30 < size / bench_trace.stored_size_bytes() < 0.65

    def test_van_jacobson(self, benchmark, bench_trace):
        codec = VanJacobsonCodec()
        size = benchmark.pedantic(
            lambda: len(codec.compress(bench_trace)), rounds=3, iterations=1
        )
        assert 0.20 < size / bench_trace.stored_size_bytes() < 0.50

    def test_peuhkuri(self, benchmark, bench_trace):
        codec = PeuhkuriCodec()
        size = benchmark.pedantic(
            lambda: len(codec.compress(bench_trace)), rounds=3, iterations=1
        )
        assert 0.10 < size / bench_trace.stored_size_bytes() < 0.22

    def test_proposed(self, benchmark, bench_trace):
        size = benchmark.pedantic(
            lambda: len(serialize_compressed(compress_trace(bench_trace))),
            rounds=3,
            iterations=1,
        )
        assert size / bench_trace.stored_size_bytes() < 0.06


@pytest.mark.benchmark(group="figure1-table")
def test_regenerate_figure1(benchmark, bench_config, capsys):
    """Regenerate the full Figure 1 series (the paper's plot data)."""
    result = benchmark.pedantic(
        lambda: figure1.run(bench_config, sample_count=5),
        rounds=1,
        iterations=1,
    )
    with capsys.disabled():
        print()
        print(result.text)
    assert result.passed
