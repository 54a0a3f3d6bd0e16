"""End-to-end and per-layer benchmark of padicgl; run it with ``python3 perfbench/run.py``."""
