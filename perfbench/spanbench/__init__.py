"""Benchmark of the spanattn package: workloads, float64 references, checks and tracing."""
