"""Benchmarks: traffic-matrix statistics vs. full decompression.

The analytics subsystem's reason to exist is that ``repro stats``
should not pay for packet synthesis.  Three claims are pinned against
``BENCH_matrices.json``:

* **Faster** — the index fast path (flow metadata, one RNG draw per
  flow) must beat the decode baseline (synthesize every packet, fold
  back down) by at least ``min_speedup`` on **identical** window
  tables, so fast-but-wrong fails the same test that times it.
* **Less work on a bounded range** — a ``[since, until]`` request must
  let the footer index prune segments the decode baseline still pays
  for, again with identical windows.
* **Flat memory** — the streaming aggregator holds one window at a
  time, so shrinking the window (more windows over the same archive)
  must not grow the tracemalloc peak beyond ``max_peak_ratio``.
"""

from __future__ import annotations

import dataclasses
import json
import time
import tracemalloc
from pathlib import Path

import pytest

from repro.analysis.matrices import matrix_report_for_archive
from repro.api import ArchiveOptions, Options, create_archive
from repro.archive import ArchiveReader
from repro.synth.scenarios import get_scenario

BASELINE = json.loads(
    (Path(__file__).resolve().parent / "BENCH_matrices.json").read_text()
)
WORKLOAD = BASELINE["workload"]


@pytest.fixture(scope="module")
def archive_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("bench-matrices") / "bench.fctca"
    trace = get_scenario(WORKLOAD["scenario"]).build(
        duration=WORKLOAD["duration"],
        flow_rate=WORKLOAD["flow_rate"],
        seed=WORKLOAD["seed"],
    )
    options = dataclasses.replace(
        Options(), archive=ArchiveOptions(segment_span=WORKLOAD["segment_span"])
    )
    report = create_archive(path, trace.packets, options=options)
    assert report.segments_total >= 8, "benchmark needs a multi-segment archive"
    return path


def _report(path, method, **bounds):
    with ArchiveReader(path) as reader:
        return matrix_report_for_archive(
            reader, window=WORKLOAD["window"], method=method, **bounds
        )


def _best_of(worker, rounds: int = 3) -> float:
    samples = []
    for _ in range(rounds):
        start = time.perf_counter()
        worker()
        samples.append(time.perf_counter() - start)
    return min(samples)


class TestIndexPathSavesWork:
    def test_identical_windows_for_a_fraction_of_the_time(self, archive_path):
        by_index = _report(archive_path, "index")
        by_decode = _report(archive_path, "decode")
        # Identity first: the speedup only counts if the answer matches.
        assert by_index.windows == by_decode.windows
        assert by_index.flows == by_decode.flows > 0

        index = _best_of(lambda: _report(archive_path, "index"))
        decode = _best_of(lambda: _report(archive_path, "decode"))
        speedup = decode / index
        print(
            f"\nindex {index * 1e3:.1f} ms vs decode {decode * 1e3:.1f} ms "
            f"({speedup:.1f}x, floor {BASELINE['min_speedup']}x)"
        )
        assert speedup >= BASELINE["min_speedup"]

    def test_bounded_range_prunes_segments(self, archive_path):
        bounds = dict(since=8.0, until=16.0)
        by_index = _report(archive_path, "index", **bounds)
        by_decode = _report(archive_path, "decode", **bounds)
        assert by_index.windows == by_decode.windows
        assert by_index.flows > 0
        # The index pruned; the baseline paid for every segment.
        assert by_index.segments_pruned > 0
        assert by_index.segments_decoded < by_decode.segments_decoded
        assert by_decode.segments_decoded == by_decode.segments_total


class TestStreamingMemory:
    def test_peak_is_flat_across_window_counts(self, archive_path):
        def peak_for(window: float) -> tuple[int, int]:
            def run():
                with ArchiveReader(archive_path) as reader:
                    return matrix_report_for_archive(
                        reader, window=window, method="index"
                    )

            run()  # warm caches so neither measurement pays first-run costs
            tracemalloc.start()
            report = run()
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            return peak, len(report.windows)

        peak_few, count_few = peak_for(WORKLOAD["duration"] / 3)
        peak_many, count_many = peak_for(WORKLOAD["segment_span"] / 8)
        print(
            f"\npeak {peak_few / 1024:.0f} KiB @ {count_few} windows vs "
            f"{peak_many / 1024:.0f} KiB @ {count_many} windows"
        )
        assert count_many > count_few * 8
        assert peak_many <= peak_few * BASELINE["max_peak_ratio"]
