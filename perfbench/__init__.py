"""Benchmark for the poselang CLI: three workloads, output checks, and a
traced run with per-module timings.  Entry point: ``perfbench/run.py``."""
