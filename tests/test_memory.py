"""Memory gate: a run holds typed per-access columns, not Python ints,
relabelling a graph holds one key per edge, and building, reading and
grouping a trace holds no column it no longer needs.

The tracemalloc peak of a call, per access of a fixed 65,536-access
trace, stays under a bound.  Each bound sits between the peak of the
typed-buffer engine, with room to spare, and the peak of the earlier
engine that turned every column into a list of Python ints (measured on
this trace: lru 42.0, leeway-lru 142.2, opt 81.2, one-set drrip3 66.9
B/access), so going back to per-access lists fails here.  The one-set
drrip3 run covers the shadow duel, whose two shadow runs each keep a
hit byte per access.  The peak also counts the cache's own state (one
SetView per touched set, Leeway's predictor tables, the generators'
draw blocks), which a trace this short spreads over few accesses.
"""

import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from cachelab import engine, metrics
from cachelab.engine import CacheGeometry, SplitMix64, _set_runs, filter_trace, simulate
from cachelab.graphs import (apply_remap, dbg_reorder, gen_graph_trace, read_csr, synth_powerlaw,
                             synth_uniform, write_csr)
from cachelab.opt import opt_oracle
from cachelab.policies import make_policy
from cachelab.trace import RECORD_DTYPE, PatternSpec, Trace, generate_pattern

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
    "reuse_distances": lambda t, g: metrics.reuse_distances(t, g),
    "ship-mem": lambda t, g: simulate(t, g, make_policy("ship-mem")),
}


# measured on numpy 2.4 / CPython 3.11: 18.4, 26.2 and 20.0 B/access
# (opt held int64 columns and a full-length block column at 29.2;
# leeway-lru's dead-eviction scoring held an intp set order and an int64
# gathered tag column at 33.0), 12.8 for drrip3-1set, 21.5 for
# reuse_distances, set by its stack walk over 44,531 heads (22.8 with the
# walk's bounds stored and its temporaries as long as the queries, 29.2
# with int64 heads), and 23.5 for ship-mem, which reads each fill's region
# from the address column (31.4 with an int64 region column)
BOUNDS = {"lru": 32, "leeway-lru": 70, "opt": 26, "drrip3-1set": 20, "reuse_distances": 30,
          "ship-mem": 27}


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


@pytest.mark.parametrize("name", ["lru", "dip", "drrip3", "ship-mem", "pin25", "grasp",
                                  "leeway-lru", "leeway-nru1", "opt"])
def test_a_run_holds_state_for_the_sets_it_touches_not_for_every_set(name):
    """At 2**16 sets x 16 ways an 8-access loop over 4 blocks touches 4
    sets, and a run holds a SetView for those alone: measured 0.005 MB
    for lru and 0.5 MB for leeway-lru, whose first run imports its module
    (numpy 2.4 / CPython 3.11), where a SetView and a dict built for
    every set, a Leeway list and a pin count per set took 19.5 to 32.1 MB.
    opt_oracle holds 0.007 MB, where its set grouping's per-set arrays
    took 2.2 MB."""
    trace, geometry = generate_pattern(PatternSpec("thrash", 4, 2)), CacheGeometry(1 << 16, 16)
    trace.digest(), trace.total_instructions()  # computed once per trace, not per run
    if name == "opt":
        peak = traced_peak(lambda: opt_oracle(trace, geometry))
    else:
        peak = traced_peak(lambda: simulate(trace, geometry, make_policy(name)))
    assert peak < 4e6, "%s peaks at %.1f MB at 2**16 sets, over 4" % (name, peak / 1e6)


def test_post_passes_and_the_front_filter_hold_nothing_per_untouched_set():
    """At 2**20 sets an 8-access loop over 4 blocks touches 4 sets, and
    OPT, the stack walk and dead-eviction scoring group the set column
    with no array as long as the set count, and a front filter of 2**16
    sets builds an LRU for the 4 sets it touches: each measured 0.006 to
    0.007 MB (numpy 2.4 / CPython 3.11), where a counting sort's per-set
    arrays took 37.8 MB and an OrderedDict per front set 9.0 MB."""
    trace, geometry = generate_pattern(PatternSpec("thrash", 4, 2)), CacheGeometry(1 << 20, 16)
    trace.digest(), trace.total_instructions()  # computed once per trace, not per run
    blocks = geometry.blocks(trace.addresses)
    sets, tags = (blocks & (geometry.num_sets - 1)).astype(np.uint32), blocks >> geometry.set_bits
    calls = {"opt_oracle": lambda: opt_oracle(trace, geometry),
             "reuse_distance_distribution":
                 lambda: metrics.reuse_distance_distribution(trace, geometry),
             "_score_dead": lambda: engine._score_dead([(0, 0, 0), (4, 0, 0)], sets, tags, 16),
             "filter_trace": lambda: filter_trace(trace, 1 << 16, 8)}
    for name, call in calls.items():
        peak = traced_peak(call)
        assert peak < 1e6, "%s peaks at %.1f MB, over 1" % (name, peak / 1e6)


def traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_apply_remap_peak_bytes_per_edge():
    """apply_remap holds one int64 sort key per edge and one gathered
    neighbor column while it builds the key: measured 16.5 B/edge on
    this power-law graph (numpy 2.4 / CPython 3.11), where the lexsort
    over edge-length old-row, new-row and neighbor arrays peaked at 41.6.  One more edge-length
    int64 array (8 B/edge) goes over the bound."""
    graph = synth_powerlaw(10_000, 16, seed=3)
    remap = dbg_reorder(graph)
    peak = traced_peak(lambda: apply_remap(graph, remap)) / graph.edge_count
    assert peak <= 22, "apply_remap peaks at %.1f B/edge, over 22" % peak


def test_set_runs_peak_bytes_per_access():
    """_set_runs holds the int32 set order, a byte per access of set index
    and one of run edges, then the heads, and otherwise slices of
    engine.SLICE entries: measured 12.9 B/access on the gate trace, where
    a slice is a quarter of the trace (13.0 with a whole-column argsort
    beside its int32 copy and a gathered block column, 29.3 holding the
    unsorted and sorted block columns and an int64 order).  One more
    int64 column goes over 18."""
    trace = gate_trace()
    peak = traced_peak(lambda: _set_runs(CacheGeometry(256, 16, 64), trace.addresses))
    assert peak / ACCESSES <= 18, "_set_runs peaks at %.1f B/access, over 18" % (peak / ACCESSES)


def test_set_grouping_of_a_graph_trace_peak_bytes_per_access():
    """On a hinted uniform graph trace, a fifth of whose 260,000 accesses
    head a run, grouping by set and OPT with bypass over the heads hold no
    column as long as the trace but the int32 order and a byte per access
    of set index and of run edges: measured 6.4 B/access for each, where
    a whole-column argsort beside its int32 copy and a gathered block
    column took 13.0.  Either of those goes over 10."""
    trace = gen_graph_trace(synth_uniform(40_000, 4, seed=3), bake_hints=True,
                            llc_capacity=1 << 16)[0]
    trace.digest(), trace.total_instructions()  # computed once per trace, not per run
    geometry = CacheGeometry(256, 16, 64)
    for name, call in (("_set_runs", lambda: _set_runs(geometry, trace.addresses)),
                       ("opt_oracle", lambda: opt_oracle(trace, geometry, allow_bypass=True))):
        peak = traced_peak(call) / len(trace)
        assert peak <= 10, "%s peaks at %.1f B/access, over 10" % (name, peak)


def test_stack_walk_peak_bytes_per_head():
    """The stack walk holds only the heads, the distances, the int64 keys,
    the live queries and their p + 1 as long as the heads; every other
    array is a slice of engine.SLICE entries.  On a one-set 32-block loop
    of 65,536 accesses at 1x16 (thrash-1set's shape: every access a head,
    every reuse 32 back) it measured 32.6 B/head, where stored lo/hi
    bounds and full-length bound temporaries took 55.1.  One more int64
    array as long as the heads goes over 40."""
    records = np.zeros(ACCESSES, dtype=RECORD_DTYPE)
    records["address"] = np.arange(ACCESSES, dtype=np.uint64) % 32 * 64
    trace = Trace(records)
    peak = traced_peak(lambda: metrics._stack_distances(trace, CacheGeometry(1, 16, 64)))
    assert peak / ACCESSES <= 40, "the walk peaks at %.1f B/head, over 40" % (peak / ACCESSES)


def test_gen_graph_trace_with_baked_hints_peak_bytes_per_record():
    """gen_graph_trace scatters addresses and PCs straight into the
    records, whose flags then take the store and hint bits in place:
    measured 23.4 B/record on this graph, with hints spanning all three
    classes, where address and pc columns built beside the records took
    26.0 (and the per-vertex arrays, the gather column and a flag column
    beside them 46.7).  Such a column beside the records goes over 25."""
    graph = synth_uniform(20_000, 4, seed=3)
    result = []
    peak = traced_peak(lambda: result.append(
        gen_graph_trace(graph, bake_hints=True, llc_capacity=1 << 16)[0]))
    per_record = peak / len(result[0])
    assert len(set(result[0].hints.tolist())) == 3
    assert per_record <= 25, "gen_graph_trace peaks at %.1f B/record, over 25" % per_record


def test_read_csr_peak_bytes_per_edge(tmp_path):
    """read_csr reads the body straight into the graph's two columns: the
    graph itself is 10 B/edge at degree 4 and the read peaks at 12.3, where
    a bytes copy of the file and astype copies took 22.3.  One more copy of
    the edges goes over 16."""
    graph, path = synth_uniform(20_000, 4, seed=3), tmp_path / "g.csr"
    write_csr(graph, path)
    peak = traced_peak(lambda: read_csr(path)) / graph.edge_count
    assert peak <= 16, "read_csr peaks at %.1f B/edge, over 16" % peak


def test_reuse_distance_list_shares_one_object_per_distance(monkeypatch):
    """reuse_distances turns the stack pass's int32 distances into a list
    of one object per distinct distance: on a 4,096-block loop in one set
    every reuse distance is 4,096 (no cached small int), and with the
    distances precomputed the list's own peak is its pointers (measured
    12.8 B/access) where an object array and its list took 52."""
    records = np.zeros(ACCESSES, dtype=RECORD_DTYPE)
    records["address"] = np.arange(ACCESSES, dtype=np.uint64) % 4096 * 64
    trace, geometry = Trace(records), CacheGeometry(1, 16, 64)
    distances = metrics._stack_distances(trace, geometry)
    monkeypatch.setattr(metrics, "_stack_distances", lambda t, g: distances)
    result = []
    peak = traced_peak(lambda: result.append(metrics.reuse_distances(trace, geometry))) / ACCESSES
    assert result[0] == [math.inf] * 4096 + [4096] * (ACCESSES - 4096)
    assert peak <= 20, "the distance list peaks at %.1f B/access, over 20" % peak


def test_generator_holds_one_bounded_block_of_draws():
    """SplitMix64 keeps one block of at most 1,024 draws, so 10**5 mixed
    draws peak where 10**4 do (measured 43 kB; blocks of 4,096 take
    167 kB, and a list of 1,024 Python floats with the block took 83)."""

    def draws(count):
        g = SplitMix64(7)
        for i in range(count):
            g.random() if i % 3 else g.next_u64()

    traced_peak(lambda: draws(10**4))  # keep one-time allocations out
    small, large = traced_peak(lambda: draws(10**4)), traced_peak(lambda: draws(10**5))
    assert large <= small + 1024, "%d draws peak at %d B, %d draws at %d B" % (
        10**5, large, 10**4, small)
    assert small <= 96 * 1024


@pytest.mark.parametrize("name", ["dip", "drrip3", "grasp", "pin25"])
def test_a_one_set_duel_is_freed_without_the_cycle_collector(name):
    """Nothing a one-set duel keeps after a run refers back to it, so the
    policy, the duel a pin policy wraps, and their per-access vote
    vectors go with their last reference, not at the next cyclic
    collection."""
    records = np.zeros(4096, dtype=RECORD_DTYPE)
    records["address"] = np.arange(4096, dtype=np.uint64) % 40 * 64
    policy = make_policy(name)
    gc.disable()
    try:
        simulate(Trace(records), CacheGeometry(1, 16, 64), policy, seed=1)
        refs = [weakref.ref(p) for p in (policy, getattr(policy, "base", policy))]
        del policy
        alive = [ref() is not None for ref in refs]
    finally:
        gc.enable()
    assert alive == [False, False]
