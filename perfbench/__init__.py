"""Benchmark of the kolmonet command line: see README.md."""
