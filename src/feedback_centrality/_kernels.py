"""Kept only for ``NUMBA_ENABLED``, which the benchmark's environment stamp
(``perfbench/environment.py``) reads.  The package does not use numba."""

NUMBA_ENABLED = False
