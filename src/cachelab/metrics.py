"""Reuse-distance analysis and cross-policy comparison tables.

Reuse distance here is the per-set stack distance: the number of
distinct cache blocks touched in a block's set since its previous
access, counting the block itself (a back-to-back re-reference has
distance 1).  A first touch has infinite distance.  Under true LRU an
access hits exactly when its distance is at most the associativity.
"""

import math

import numpy as np


def reuse_distances(trace, geometry):
    """Per-access stack distances (math.inf for first touches).

    With p the previous access to the block in its set's stream and q
    this one, the distance is q - p less the accesses j in (p, q) whose
    own previous access lies after p (each repeats a block already
    counted).  Those are the j < q with prev(j) > p, counted per set
    with a Fenwick tree over prev positions.
    """
    num_sets = geometry.num_sets
    blocks = geometry.blocks(trace.addresses)
    sets = blocks & (num_sets - 1)
    order = np.argsort(sets, kind="stable")  # set by set, trace order within each
    counts = np.bincount(sets, minlength=num_sets)
    ends = np.cumsum(counts)
    local = np.arange(len(order)) - np.repeat(ends - counts, counts)
    grouped = blocks[order]
    by_block = np.argsort(grouped, kind="stable")
    same = grouped[by_block[1:]] == grouped[by_block[:-1]]
    prev = np.full(len(order), -1, dtype=np.int64)
    prev[by_block[1:][same]] = local[by_block[:-1][same]]

    dist = np.empty(len(order), dtype=np.int64)  # -1 for a first touch
    for start, c in zip((ends - counts).tolist(), counts.tolist()):
        tree = [0] * (c + 1)  # Fenwick tree over prev positions 0..c-1
        inserted = 0
        out = [-1] * c
        for pos, p in enumerate(prev[start : start + c].tolist()):
            if p >= 0:
                i = p + 1
                at_most_p = 0
                while i:
                    at_most_p += tree[i]
                    i &= i - 1
                out[pos] = pos - p - (inserted - at_most_p)
                i = p + 1
                while i <= c:
                    tree[i] += 1
                    i += i & -i
                inserted += 1
        dist[order[start : start + c]] = out
    result = dist.tolist()
    for i in np.flatnonzero(dist < 0).tolist():
        result[i] = math.inf
    return result


def reuse_distance_distribution(trace, geometry):
    """Histogram {distance: count}; key math.inf buckets first touches."""
    hist = {}
    for d in reuse_distances(trace, geometry):
        hist[d] = hist.get(d, 0) + 1
    return hist


def histogram_rows(hist, cumulative=False):
    """(distance, value) rows, finite ascending then inf.

    cumulative=True yields the running fraction of all accesses with
    distance <= d (first touches never count as covered)."""
    total = sum(hist.values())
    keys = sorted(k for k in hist if k != math.inf)
    rows = []
    running = 0
    for k in keys:
        running += hist[k]
        rows.append((k, running / total if cumulative else hist[k]))
    if math.inf in hist:
        value = 1.0 if cumulative else hist[math.inf]
        rows.append((math.inf, value))
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
    ident = (reports[0].trace_fingerprint, reports[0].num_sets, reports[0].ways,
             reports[0].block_bytes)
    for r in reports:
        if (r.trace_fingerprint, r.num_sets, r.ways, r.block_bytes) != ident:
            raise ReportMismatchError(
                "report %s is from a different trace or geometry" % r.policy
            )
    base = next((r for r in reports if r.policy == baseline), None)
    if base is None:
        raise ReportMismatchError("baseline %r not among reports" % baseline)
    rows = []
    for r in reports:
        if base.misses:
            eliminated = 100.0 * (base.misses - r.misses) / base.misses
        else:
            eliminated = 0.0
        rows.append(
            {
                "policy": r.policy,
                "misses": r.misses,
                "eliminated_pct": eliminated,
                "coverage": r.coverage,
                "accuracy": r.accuracy,
            }
        )
    return rows


COMPARE_HEADER = "policy,misses,eliminated_pct,coverage,accuracy"


def compare_csv_rows(rows):
    return [
        "%s,%d,%.4f,%.6f,%.6f"
        % (r["policy"], r["misses"], r["eliminated_pct"], r["coverage"], r["accuracy"])
        for r in rows
    ]
