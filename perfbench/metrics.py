"""Metric definitions and how each is computed from one run's samples.

``END_TO_END`` and ``PER_LAYER`` are the names, units and directions
``BENCHMARK.json`` declares (a unit test keeps the two in step).
End-to-end metrics come from untraced iterations, per-layer metrics
from traced ones.  An end-to-end path time is the trimmed mean of its
calls in the run, divided by how much slower than a quiet host the
run's calibration probes ran (:mod:`perfbench.calibrate`).  A query's
latency is the median over its runs of each run's latency divided by
the slowdown the probe just before its batch showed.  Per-layer timings
are medians over the traced passes, as measured.
"""

from __future__ import annotations

from collections import defaultdict

from perfbench.calibrate import REFERENCE_S
from perfbench.layers import BACKENDS
from perfbench.paths import PATHS
from perfbench.summary import median, percentile, tail_percentile, trimmed_mean
from perfbench.tracing import Span, layer_totals

END_TO_END = {
    # name: (unit, better, bound)
    "setup_s": ("s", "lower", 0.25),
    "compress_pps": ("pkt/s", "higher", 0.25),
    "archive_build_pps": ("pkt/s", "higher", 0.25),
    "bytes_per_input_byte": ("B/B", "lower", 0.15),
    "export_pps": ("pkt/s", "higher", 0.25),
    "replay_pps": ("pkt/s", "higher", 0.25),
    "query_ms_p50": ("ms", "lower", 0.25),
    "query_ms_p90": ("ms", "lower", 0.25),
    "stats_pps": ("pkt/s", "higher", 0.25),
    "ingest_pps": ("pkt/s", "higher", 0.25),
    "peak_rss_mib": ("MiB", "lower", 0.15),
    "success_ratio": ("ratio", "higher", 0.001),
}

PER_LAYER = {
    "trace.read_pps": ("pkt/s", "higher"),
    "trace.encode_pps": ("pkt/s", "higher"),
    "trace.frame_decode_pps": ("pkt/s", "higher"),
    "core.cluster_pps": ("pkt/s", "higher"),
    "core.template_hit_ratio": ("ratio", "higher"),
    **{f"core.serialize_s.{backend}": ("s", "lower") for backend in BACKENDS},
    **{f"core.stored_ratio.{backend}": ("B/B", "lower") for backend in BACKENDS},
    "core.deserialize_s": ("s", "lower"),
    "core.spec_decode_fps": ("flow/s", "higher"),
    "core.synth_pps": ("pkt/s", "higher"),
    "core.merge_pps": ("pkt/s", "higher"),
    "core.flowmeta_fps": ("flow/s", "higher"),
    "core.flowmeta_profiles": ("count", "lower"),
    "analysis.matrix_s": ("s", "lower"),
    "analysis.links": ("count", "lower"),
    "archive.seal_s": ("s", "lower"),
    "archive.segments": ("count", "lower"),
    "archive.index_open_ms": ("ms", "lower"),
    "query.segments_pruned_ratio": ("ratio", "higher"),
    "query.flows_matched_ratio": ("ratio", "higher"),
    "query.decode_ms": ("ms", "lower"),
    "serve.feeder_pps": ("pkt/s", "higher"),
    "serve.daemon_overhead_s": ("s", "lower"),
    "synth.generate_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.reconcile_ratio": ("ratio", "higher"),
}

RECONCILED = ("compress", "archive_build", "export", "replay", "query", "stats")
"""Paths whose layer spans must account for their untraced wall time.

Ingest is left out: what its layers do not cover is the daemon's own
cost, reported as ``serve.daemon_overhead_s``."""
RECONCILE_BOUND = 0.35
"""A reconciled path's summed layer self time may differ from its
untraced wall time by at most this share.  The rebuilt paths hand
lists from layer to layer where the streaming paths hand generators,
which makes the streaming export up to about a quarter slower than its
layers on long flows; the bound leaves room for that and still fails a
path whose spans miss a layer."""


def path_samples(iterations: list[dict]) -> dict[str, list[float]]:
    """Seconds of every untraced call per path, over all iterations."""
    samples = defaultdict(list)
    for iteration in iterations:
        for path, seconds in iteration["times"].items():
            samples[path].extend(seconds)
    return samples


def path_medians(iterations: list[dict]) -> dict[str, float]:
    """Median seconds per path over untraced calls."""
    return {path: median(values) for path, values in path_samples(iterations).items()}


def path_means(iterations: list[dict]) -> dict[str, float]:
    """Trimmed mean seconds per path over untraced calls."""
    return {
        path: trimmed_mean(values) for path, values in path_samples(iterations).items()
    }


def query_latencies(iterations: list[dict], scaled: bool) -> list[float]:
    """Per distinct query of the mix, the median of its runs; with
    ``scaled``, each run is first divided by the slowdown of the probe
    that ran just before its batch, which saw the host as the batch
    did."""
    samples = defaultdict(list)
    for iteration in iterations:
        for index, seconds, probe in iteration["query_latencies"]:
            samples[index].append(seconds * REFERENCE_S / probe if scaled else seconds)
    return [median(values) for values in samples.values()]


def probe_samples(iterations: list[dict]) -> list[float]:
    """Every calibration probe of the untraced calls."""
    return [
        seconds
        for iteration in iterations
        for probes in iteration["probes"].values()
        for seconds in probes
    ]


def end_to_end(
    *,
    packets: int,
    input_bytes: int,
    archive_bytes: int,
    iterations: list[dict],
    setup_s: float,
    peak_rss_mib: float,
    attempted: int,
    failed: int,
    slowdown: float | None,
) -> dict[str, float]:
    """The end-to-end metrics.  With ``slowdown`` (see
    :mod:`perfbench.calibrate`), path times are divided by it and query
    latencies scaled by their probes; ``setup_s`` comes already scaled
    by the set-up's own slowdown.  ``slowdown=None`` leaves every time
    as measured."""
    factor = slowdown or 1.0
    times = {path: seconds / factor for path, seconds in path_means(iterations).items()}
    latencies = query_latencies(iterations, scaled=slowdown is not None)
    return {
        "setup_s": setup_s,
        "compress_pps": packets / times["compress"],
        "archive_build_pps": packets / times["archive_build"],
        "bytes_per_input_byte": archive_bytes / input_bytes,
        "export_pps": packets / times["export"],
        "replay_pps": packets / times["replay"],
        "query_ms_p50": percentile(latencies, 50) * 1000,
        "query_ms_p90": tail_percentile(latencies, 90) * 1000,
        "stats_pps": packets / times["stats"],
        "ingest_pps": packets / times["ingest"],
        "peak_rss_mib": peak_rss_mib,
        "success_ratio": 1 - failed / attempted,
    }


def layer_medians(spans: list[Span]) -> dict[tuple[str, str], float]:
    """Median over traced passes of each (root, layer) self-time total."""
    samples = defaultdict(list)
    for (_trace, root, layer), seconds in layer_totals(spans).items():
        samples[(root, layer)].append(seconds)
    return {key: median(values) for key, values in samples.items()}


def paired(spans: list[Span], iterations: list[dict]) -> dict[str, list[tuple]]:
    """Per path, one ``(layer self time, traced wall, untraced wall)`` per
    pass; pass ``i`` of ``iterations`` pairs with trace ``i + 1``, and
    the untraced wall is the pass's fastest call of the path."""
    covered = defaultdict(float)
    for (trace, root, layer), seconds in layer_totals(spans).items():
        if layer != root:
            covered[(trace, root)] += seconds
    walls = {(span.trace, span.name): span.duration for span in spans if span.parent is None}
    pairs = defaultdict(list)
    for trace, record in enumerate(iterations, start=1):
        for path, untraced in record["times"].items():
            if (trace, path) in walls:
                pairs[path].append(
                    (covered[(trace, path)], walls[(trace, path)], min(untraced))
                )
    return pairs


def reconcile(spans: list[Span], iterations: list[dict]) -> dict[str, float]:
    """Per reconciled path: the median over passes of layer self time
    over the untraced wall time of the same pass."""
    pairs = paired(spans, iterations)
    return {
        path: median([layers / untraced for layers, _wall, untraced in pairs[path]])
        for path in RECONCILED
    }


def per_layer(
    *,
    packets: int,
    input_bytes: int,
    spans: list[Span],
    counts: dict,
    iterations: list[dict],
    generate_s: list[float],
) -> dict[str, float]:
    layers = layer_medians(spans)
    untraced = path_medians(iterations)
    pairs = paired(spans, iterations)

    def seconds(root: str, layer: str) -> float:
        return layers[(root, layer)]

    hits, misses = counts["template_hits"], counts["template_misses"]
    opens = [span.duration for span in spans if span.name == "archive.index_open"]
    reconciled = [
        sum(pairs[path][index][0] for path in RECONCILED)
        / sum(pairs[path][index][2] for path in RECONCILED)
        for index in range(len(iterations))
    ]
    metrics = {
        "trace.read_pps": packets / seconds("compress", "trace.read"),
        "trace.encode_pps": packets / seconds("export", "trace.encode"),
        "trace.frame_decode_pps": packets / seconds("ingest", "trace.frame_decode"),
        "core.cluster_pps": packets / seconds("compress", "core.cluster"),
        "core.template_hit_ratio": hits / (hits + misses),
        "core.deserialize_s": seconds("export", "core.deserialize"),
        "core.spec_decode_fps": counts["flows"] / seconds("export", "core.spec_decode"),
        "core.synth_pps": packets / seconds("export", "core.synth"),
        "core.merge_pps": packets / seconds("replay", "core.merge"),
        "core.flowmeta_fps": counts["flow_records"] / seconds("stats", "core.flowmeta"),
        "core.flowmeta_profiles": counts["profiles"],
        "analysis.matrix_s": seconds("stats", "analysis.matrix"),
        "analysis.links": counts["links"],
        "archive.seal_s": seconds("archive_build", "archive.seal"),
        "archive.segments": counts["segments"],
        "archive.index_open_ms": median(opens) * 1000,
        "query.segments_pruned_ratio": counts["query_pruned"] / counts["query_segments"],
        "query.flows_matched_ratio": counts["query_matched"] / counts["query_scanned"],
        # A query the index prunes entirely decodes nothing.
        "query.decode_ms": layers.get(("query", "query.decode"), 0.0)
        / counts["query_runs"]
        * 1000,
        "serve.feeder_pps": packets / seconds("ingest", "serve.feeder"),
        "serve.daemon_overhead_s": untraced["ingest"]
        - seconds("ingest", "trace.frame_decode")
        - seconds("ingest", "serve.feeder")
        - seconds("ingest", "archive.seal"),
        "synth.generate_s": median(generate_s),
        "trace.overhead_s": sum(
            median([wall - plain for _layers, wall, plain in pairs[path]])
            for path in PATHS
        ),
        "trace.reconcile_ratio": median(reconciled),
    }
    for backend in BACKENDS:
        metrics[f"core.serialize_s.{backend}"] = seconds(
            "backends", f"core.serialize.{backend}"
        )
        metrics[f"core.stored_ratio.{backend}"] = (
            counts["stored_bytes"][backend] / input_bytes
        )
    return metrics


def result_document(
    *, attempted: int, failed: int, metrics: dict[str, float], specs: dict
) -> dict:
    """The benchmark's last output line, in the contract's schema."""
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": specs[name][0]} for name in specs
        },
    }
