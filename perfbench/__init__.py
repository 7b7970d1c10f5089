"""Benchmark for the repro fleet simulator; run it with ``run.py``."""
