"""Reuse-distance analysis and cross-policy comparison tables.

Reuse distance here is the per-set stack distance (Mattson et al., IBM
Sys. J. 1970): the number of distinct cache blocks touched in a block's
set since its previous access, counting the block itself (a back-to-back
re-reference has distance 1).  A first touch has infinite distance.
Under true LRU an access hits exactly when its distance is at most the
associativity.  Every distance comes from one array pass, a level-by-level
tree walk in the spirit of Bennett & Kruskal (IBM J. R&D 1975) over run
heads only (engine._set_runs): a re-reference to the block its set touched
last has distance 1 and adds to no other access's count of distinct blocks.
"""

import math

import numpy as np

from . import engine


def _stack_distances(trace, geometry):
    """The run heads' trace positions and stack distances as int arrays,
    -1 for a first touch, in the set-grouped order of engine._set_runs.

    Over the heads, node m of tree level k covers [m << k, (m + 1) << k).
    Query q with p = prev(q) >= 0 covers [l, r) = [p + 1, q + 1) at level
    0, and at level k the bounds l_k = ceil(l / 2**k) = -(-l >> k) and
    r_k = r >> k, derived from p + 1 and q rather than stored.  It takes
    node l_k when l_k is odd and node r_k - 1 when r_k is odd, until
    l_k >= r_k, so the one loop runs about log2(largest reuse gap) times.
    A node counts its prev(j) <= p with one searchsorted into the level's
    sorted keys (j >> k) * (n + 1) + prev(j) + 1, less its start m << k.

    Only the heads, the distances, the keys, the live queries' q and
    their p + 1 are as long as the heads: keys are relevelled in place
    and queries are walked engine.SLICE at a time, each slice's live
    queries moving to the front for the next level.
    """
    heads, blocks = engine._set_runs(geometry, trace.addresses)[:2]
    n, size = len(blocks), engine.SLICE
    index = heads.dtype.type  # positions and bounds: int32 while they fit
    dist = engine._block_links(blocks, -1, index, back=True)  # prev(j) until the walk starts
    del blocks
    live = np.flatnonzero(dist >= 0).astype(index)  # each query's q
    below = dist[live] + 1  # each query's p + 1: l, and what a node counts keys up to
    width = n + 1
    keys = np.arange(1, n * width + 1, width, dtype=np.int64)
    keys += dist  # level 0, sorted
    np.minimum(dist, 0, out=dist)
    k, m = 0, len(live)
    while m:
        if k:  # level k - 1 keys to level k: two sorted runs per node merge
            for s in range(0, n, size):
                part = keys[s:s + size]
                part -= ((part // width + 1) >> 1) * width
            keys.sort(kind="stable")
        kept = 0
        for s in range(0, m, size):
            q, p1 = live[s:min(s + size, m)], below[s:min(s + size, m)]
            lo, hi = -(-p1 >> k), (q + 1) >> k
            for bound, right in ((lo, 0), (hi, 1)):
                odd = (bound & 1).astype(bool)
                node = bound[odd] - right
                needle = np.multiply(node, width, dtype=np.int64) + p1[odd]
                dist[q[odd]] += np.searchsorted(keys, needle, side="right") - (node << k)
            going = (lo + 1) >> 1 < hi >> 1  # an odd l steps past its node first
            step = np.count_nonzero(going)
            live[kept:kept + step], below[kept:kept + step] = q[going], p1[going]
            kept += step
        m = kept
        k += 1
    return heads, dist


def reuse_distances(trace, geometry):
    """Per-access stack distances (math.inf for first touches).

    With accesses grouped set by set and prev(j) the position of the
    previous access to j's block (-1 for none), access q with p = prev(q)
    has distance #{j in (p, q] : prev(j) <= p}: q plus the first touch
    since p of each other block."""
    heads, dist = _stack_distances(trace, geometry)
    out = np.ones(len(trace), dtype=dist.dtype)  # a run's repeats
    out[heads] = dist
    shared = {-1: math.inf}  # a first touch, then one int object per distinct distance
    return [shared.setdefault(d, d) for d in memoryview(out)]


def reuse_distance_distribution(trace, geometry):
    """Histogram {distance: count}; key math.inf buckets first touches."""
    dist = _stack_distances(trace, geometry)[1]
    values, counts = np.unique(dist, return_counts=True)
    hist = {(math.inf if v < 0 else v): c for v, c in zip(values.tolist(), counts.tolist())}
    if len(trace) > len(dist):  # a run's repeats
        hist[1] = hist.get(1, 0) + len(trace) - len(dist)
    return hist


def histogram_rows(hist, cumulative=False):
    """(distance, value) rows, finite ascending then inf.

    cumulative=True yields the running fraction of all accesses with
    distance <= d (first touches never count as covered)."""
    total = sum(hist.values())
    rows = []
    running = 0
    for k in sorted(hist):  # math.inf sorts last
        running += hist[k]
        rows.append((k, running / total if cumulative else hist[k]))
    return rows


class ReportMismatchError(ValueError):
    pass


def compare_reports(reports, baseline="lru"):
    """Miss-elimination table against a named baseline report.

    All reports must come from the same trace and geometry.  Returns a
    list of dicts with policy, misses, eliminated_pct, coverage,
    accuracy, ordered as given.
    """
    if not reports:
        raise ReportMismatchError("no reports to compare")
    ident = lambda r: (r.trace_fingerprint, r.num_sets, r.ways, r.block_bytes)
    for r in reports:
        if ident(r) != ident(reports[0]):
            raise ReportMismatchError("report %s is from a different trace or geometry"
                                      % r.policy)
    base = next((r for r in reports if r.policy == baseline), None)
    if base is None:
        raise ReportMismatchError("baseline %r not among reports" % baseline)
    return [
        {
            "policy": r.policy,
            "misses": r.misses,
            "eliminated_pct": (100.0 * (base.misses - r.misses) / base.misses
                               if base.misses else 0.0),
            "coverage": r.coverage,
            "accuracy": r.accuracy,
        }
        for r in reports
    ]

