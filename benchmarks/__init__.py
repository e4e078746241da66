"""Benchmark for planhunt: seeded workloads, output checks and a tracer.

Entry point: ``python3 benchmarks/run.py --help``.
"""
