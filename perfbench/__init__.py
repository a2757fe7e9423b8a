"""The repository benchmark: workloads, end-to-end paths, traced layers.

Run it as ``python3 perfbench/run.py --workload web --seed 1 --seconds 30
--trace 0`` from the repository root; ``BENCHMARK.json`` names the
workloads and metrics, ``perfbench/METRICS.md`` explains them.
"""
