"""Benchmark harness for feedback_centrality; see README.md."""
