"""Trace-driven last-level cache simulation laboratory.

Provides a set-associative cache engine with pluggable replacement
policies (recency, re-reference interval, dead-block predicting, and
software-hinted families), an optimal replacement oracle, graph
reordering transforms, and trace/graph binary formats, all wired to a
command line front end.
"""

from .engine import CacheGeometry, SimReport, simulate
from .trace import MemoryAccess, PatternSpec, ReuseHint, Trace

__all__ = [
    "CacheGeometry",
    "MemoryAccess",
    "PatternSpec",
    "ReuseHint",
    "SimReport",
    "Trace",
    "simulate",
]
