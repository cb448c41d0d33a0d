"""Shared utilities: deterministic RNG handling, run records and table rendering."""

from repro.utils.rng import make_rng, spawn_rngs
from repro.utils.records import RunLog
from repro.utils.stats import trailing_nanmean
from repro.utils.tables import format_table

__all__ = [
    "make_rng",
    "spawn_rngs",
    "RunLog",
    "trailing_nanmean",
    "format_table",
]
