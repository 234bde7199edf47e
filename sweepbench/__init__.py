"""End-to-end sweep benchmark: whole ``run_sweep`` passes, timed per layer.

``python3 sweepbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload; ``README.md`` in this directory describes the
workloads, the metrics and the observed noise.
"""
