"""Benchmark of the saddlescape CLI: workloads, correctness gate and span tracer."""
