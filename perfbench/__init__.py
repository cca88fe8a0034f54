"""perfbench: the seeded, per-layer-traced benchmark of the SAQL pipeline.

See ``perfbench/README.md`` for the workloads, the metrics and how they
interact; ``BENCHMARK.json`` at the repository root is the same catalogue
in the driver's format.
"""
