"""Benchmark for siegeltheta; run it with ``python3 perfbench/run.py``."""
