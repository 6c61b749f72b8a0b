"""Benchmark for the tensorcert command line tool; run it with ``python3 perfbench/run.py``."""
