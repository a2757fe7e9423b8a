"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload web --seed 1 --seconds 30 --trace 0

``--trace 0`` times every end-to-end path through ``repro.api`` with
tracing off, repeating each path for :data:`PASS_BUDGET_S` per pass,
and prints the end-to-end metrics; ``--trace 1`` alternates
untraced passes with traced, layer-by-layer passes and prints the
per-layer metrics, writing the spans to ``.perfbench_out/``.  Scratch
files live in ``.perfbench_tmp/`` under the working directory and are
removed at exit.  The last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
PINNED_ENV = ("REPRO_NO_NUMPY", "REPRO_NO_SCIPY", "REPRO_NO_METRICS", "REPRO_DEBUG")
"""Switches that change which engine runs; the benchmark refuses them."""
SETUP_REPEATS = 3
MIN_ITERATIONS = 5
PASS_BUDGET_S = 0.15
"""In an untraced pass, each path is repeated for this long, so a short
path gives many samples over the run."""
MIN_QUERY_RUNS = 3
"""An untraced run goes on until every query of the mix ran this often."""
TMP_DIR = Path(".perfbench_tmp")
OUT_DIR = Path(".perfbench_out")


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


def reset_peak_rss() -> bool:
    """Restart the kernel's resident-set high-water mark (Linux only)."""
    try:
        with open("/proc/self/clear_refs", "w") as stream:
            stream.write("5")
        return True
    except OSError:
        return False


def peak_rss_mib(reset: bool) -> float:
    """Peak resident set since :func:`reset_peak_rss` (or process start)."""
    if reset:
        with open("/proc/self/status") as stream:
            for line in stream:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def import_engine() -> float:
    """Import every engine module the paths use; returns the wall time."""
    start = time.perf_counter()
    import repro.analysis.matrices  # noqa: F401
    import repro.api as api
    import repro.query.engine  # noqa: F401
    import repro.serve.daemon  # noqa: F401

    for name in ("open", "create_archive", "serve", "get_scenario", "Options"):
        getattr(api, name)
    return time.perf_counter() - start


def setup(workload, seed: int, workdir: Path, tally):
    """Generate the capture and warm up, :data:`SETUP_REPEATS` times.

    Returns the last bench, the per-repeat set-up seconds (generation
    plus one warm-up pass over every path), the generation seconds and
    the calibration probes the warm-up passes ran.  The query answers
    and the index-versus-decode stats check are prepared once, outside
    the timed part.
    """
    from perfbench import metrics
    from perfbench.paths import Bench
    from perfbench.workloads import make_capture

    bench = None
    setups, generations, probes = [], [], []
    for repeat in range(SETUP_REPEATS):
        directory = workdir / f"setup-{repeat}"
        directory.mkdir()
        start = time.perf_counter()
        capture = make_capture(workload, seed, directory / "capture.tsh")
        generated = time.perf_counter() - start
        fresh = Bench(capture, directory, tally)
        if bench is None:
            fresh.prepare_checks(seed)
        else:
            fresh.adopt_checks(bench)
            shutil.rmtree(bench.workdir)
        warmup = fresh.iteration(calibrate=True)
        setups.append(
            generated + sum(sum(seconds) for seconds in warmup["times"].values())
        )
        probes.extend(metrics.probe_samples([warmup]))
        generations.append(capture.generate_s)
        bench = fresh
    return bench, setups, generations, probes


def measure(bench, seconds: float, traced) -> tuple[list, list]:
    """Iterate until ``seconds`` pass (and the minimum samples exist).

    With ``traced`` set, each untraced path runs once and is followed by
    its traced twin.  Returns the untraced iteration records and the
    traced counts.
    """
    untraced, counts = [], []
    runs = Counter()
    start = time.perf_counter()
    while (
        time.perf_counter() - start < seconds
        or len(untraced) < MIN_ITERATIONS
        or (
            traced is None
            and (len(runs) < len(bench.mix) or min(runs.values()) < MIN_QUERY_RUNS)
        )
    ):
        if traced is None:
            record = bench.iteration(budget=PASS_BUDGET_S, calibrate=True)
        else:
            record, traced_counts = traced.iteration()
            counts.append(traced_counts)
        untraced.append(record)
        runs.update(index for index, _seconds, _probe in record["query_latencies"])
    return untraced, counts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pinned = [name for name in PINNED_ENV if name in os.environ]
    if pinned:
        return fail(f"refusing to run with {', '.join(pinned)} set")
    if not (SOURCE / "repro" / "__init__.py").is_file():
        return fail(f"no program source at {SOURCE}")
    # Import the benchmark as the ``perfbench`` package, never its
    # modules by bare name from the script's own directory.
    sys.path[:] = [
        entry for entry in sys.path if Path(entry or ".").resolve() != ROOT / "perfbench"
    ]
    sys.path[:0] = [str(SOURCE), str(ROOT)]
    import_s = import_engine()
    import repro

    if Path(repro.__file__).resolve().parent != SOURCE / "repro":
        return fail(f"imported repro from {repro.__file__}, not {SOURCE}")

    from perfbench import metrics
    from perfbench.calibrate import slowdown
    from perfbench.layers import TracedPaths
    from perfbench.paths import Tally
    from perfbench.tracing import Tracer
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    env = environment()
    print(f"env: {json.dumps(env, sort_keys=True)}")

    workdir = TMP_DIR / f"{workload.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    tally = Tally()
    try:
        bench, setups, generations, setup_probes = setup(
            workload, args.seed, workdir, tally
        )
        capture = bench.capture
        print(
            f"workload: {workload.name} ({workload.scenario}), seed {args.seed}, "
            f"{capture.packets} packets, {capture.size_bytes} TSH bytes, "
            f"{capture.span:.2f} s span, {bench.flows} flows"
        )
        # Capture generation peaks above the paths; measure the paths.
        gc.collect()
        peak_reset = reset_peak_rss()
        tracer = Tracer() if args.trace else None
        traced = TracedPaths(bench, tracer) if args.trace else None
        iterations, counts = measure(bench, args.seconds, traced)
        untraced = metrics.path_medians(iterations)
        calls = {
            path: len(samples)
            for path, samples in metrics.path_samples(iterations).items()
        }
        queries = sum(len(i["query_latencies"]) for i in iterations)
        print(
            f"samples: {len(iterations)} passes, calls {json.dumps(calls)}, "
            f"{queries} runs of {len(bench.mix)} distinct queries"
        )
        print("untraced median s: " + json.dumps(untraced, sort_keys=True))
        print(
            "untraced trimmed mean s: "
            + json.dumps(metrics.path_means(iterations), sort_keys=True)
        )
        if args.trace:
            shares = metrics.reconcile(tracer.spans, iterations)
            for path, share in shares.items():
                tally.check(
                    abs(share - 1) <= metrics.RECONCILE_BOUND,
                    f"{path}: layer spans cover {share:.3f} of the untraced "
                    f"wall time (bound {metrics.RECONCILE_BOUND})",
                )
            print("layer share of untraced wall: " + json.dumps(shares, sort_keys=True))
            values = metrics.per_layer(
                packets=capture.packets,
                input_bytes=capture.size_bytes,
                spans=tracer.spans,
                counts=counts[-1],
                iterations=iterations,
                generate_s=generations,
            )
            specs = metrics.PER_LAYER
            OUT_DIR.mkdir(exist_ok=True)
            spans_path = tracer.write(
                OUT_DIR / f"spans-{workload.name}-seed{args.seed}.json",
                {
                    "workload": workload.name,
                    "seed": args.seed,
                    "env": env,
                    "untraced_median_s": untraced,
                    "metrics": values,
                },
            )
            print(f"spans: {len(tracer.spans)} written to {spans_path}")
        else:
            measured = dict(
                packets=capture.packets,
                input_bytes=capture.size_bytes,
                archive_bytes=bench.archive.stat().st_size,
                iterations=iterations,
                setup_s=import_s + metrics.median(setups),
                peak_rss_mib=peak_rss_mib(peak_reset),
                attempted=tally.attempted,
                failed=tally.failed,
            )
            factor = slowdown(metrics.probe_samples(iterations))
            setup_factor = slowdown(setup_probes)
            print(f"host slowdown: {factor:.4f} (set-up {setup_factor:.4f})")
            print(
                "unscaled: "
                + json.dumps(metrics.end_to_end(**measured, slowdown=None))
            )
            measured["setup_s"] /= setup_factor
            values = metrics.end_to_end(**measured, slowdown=factor)
            specs = metrics.END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            TMP_DIR.rmdir()
        except OSError:
            pass  # another run's scratch is still there
    result = metrics.result_document(
        attempted=tally.attempted, failed=tally.failed, metrics=values, specs=specs
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
