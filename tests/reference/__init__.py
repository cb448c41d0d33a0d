"""Scalar reference implementations kept as test oracles.

Each module holds the per-item loop that a vectorized production path in
``src/repro`` replaced, verbatim apart from taking the production object
as an argument, so tests and benchmarks can check the batch path
against it.
"""
