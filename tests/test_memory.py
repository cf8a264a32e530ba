"""Memory gate: a run holds typed per-access columns, not Python ints.

The tracemalloc peak of a call, per access of a fixed 65,536-access
trace, stays under a bound.  Each bound sits between the peak of the
typed-buffer engine, with room to spare, and the peak of the earlier
engine that turned every column into a list of Python ints (measured on
this trace: lru 42.0, leeway-lru 142.2, opt 81.2, one-set drrip3 66.9
B/access), so going back to per-access lists fails here.  The one-set
drrip3 run covers the shadow duel, whose two shadow runs each keep a
hit byte per access.  The peak also counts the cache's own state (one
dict and two lists per set, Leeway's predictor tables), which a trace
this short spreads over few accesses.
"""

import tracemalloc

import numpy as np
import pytest

from cachelab.engine import CacheGeometry, simulate
from cachelab.opt import opt_oracle
from cachelab.policies import make_policy
from cachelab.trace import RECORD_DTYPE, Trace

ACCESSES = 1 << 16


def gate_trace():
    """Zipf-distributed blocks past 2**40 and PCs past 256 (so no tag or
    PC is a cached small int), one PC per hot block: on 256x16 a mix of
    hits, misses, bypasses and predicted-dead evictions."""
    rng = np.random.default_rng(5)
    blocks = rng.zipf(1.1, ACCESSES) % 100_000
    records = np.zeros(ACCESSES, dtype=RECORD_DTYPE)
    records["address"] = (blocks * 64 + (1 << 40)).astype(np.uint64)
    records["pc"] = 1000 + np.minimum(blocks, 63)
    return Trace(records)


CALLS = {
    "drrip3-1set": lambda t, g: simulate(t, CacheGeometry(1, 16, 64), make_policy("drrip3")),
    "lru": lambda t, g: simulate(t, g, make_policy("lru")),
    "leeway-lru": lambda t, g: simulate(t, g, make_policy("leeway-lru")),
    "opt": lambda t, g: opt_oracle(t, g),
}


# measured on numpy 2.4 / CPython 3.11: 20.9, 49.3 and 28.7 B/access,
# and 12.9 for drrip3-1set
BOUNDS = {"lru": 32, "leeway-lru": 70, "opt": 45, "drrip3-1set": 20}


@pytest.mark.parametrize("name", sorted(CALLS))
def test_peak_bytes_per_access(name):
    trace, geometry = gate_trace(), CacheGeometry(256, 16, 64)
    trace.digest(), trace.total_instructions()  # computed once per trace, not per run
    tracemalloc.start()
    try:
        report = CALLS[name](trace, geometry)
        peak = tracemalloc.get_traced_memory()[1] / ACCESSES
    finally:
        tracemalloc.stop()
    if name == "leeway-lru":
        assert report.dead_predicted_evictions > 0  # the dead-scoring pass ran
    assert peak <= BOUNDS[name], "%s peaks at %.1f B/access, over %d" % (name, peak, BOUNDS[name])
