"""Benchmark for the soundscan pipeline; see perfbench/README.md."""
