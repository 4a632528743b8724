"""The repository benchmark: end-to-end workloads, output checks and a
traced per-layer breakdown.  Entry point: ``python3 perfbench/run.py``."""
