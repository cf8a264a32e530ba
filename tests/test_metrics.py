"""Stack-distance accounting and cross-policy comparison tables."""

import math
import random
import time
from collections import Counter

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from cachelab import engine
from cachelab.engine import CacheGeometry, simulate
from cachelab.metrics import (
    ReportMismatchError,
    _stack_distances,
    compare_reports,
    histogram_rows,
    reuse_distance_distribution,
    reuse_distances,
)
from cachelab.opt import opt_oracle
from cachelab.policies import make_policy
from cachelab.trace import MemoryAccess, PatternSpec, Trace, generate_pattern
from test_acceptance import _reference_stack_distances


def block_trace(ids, block=64):
    return Trace([MemoryAccess(b * block) for b in ids])


def reference_distances(trace, geometry):
    """Plain list-walking stack simulator, one stack per set."""
    stacks = [[] for _ in range(geometry.num_sets)]
    out = []
    for r in trace:
        blk = r.address // geometry.block_bytes
        st = stacks[blk % geometry.num_sets]
        if blk in st:
            i = st.index(blk)
            out.append(i + 1)
            st.pop(i)
        else:
            out.append(math.inf)
        st.insert(0, blk)
    return out


def test_immediate_rereference_has_distance_one():
    g = CacheGeometry(1, 4, 64)
    assert reuse_distances(block_trace([0, 0]), g) == [math.inf, 1]


def test_distance_counts_the_distinct_blocks_inclusive_of_the_reuse():
    g = CacheGeometry(1, 4, 64)
    # one distinct block in between, plus the re-referenced block itself
    assert reuse_distances(block_trace([0, 1, 0]), g) == [math.inf, math.inf, 2]


def test_cyclic_pattern_distance_equals_the_working_set_size():
    g = CacheGeometry(1, 4, 64)
    t = generate_pattern(PatternSpec("thrash", k=5, n=3))
    d = reuse_distances(t, g)
    assert d[:5] == [math.inf] * 5
    assert d[5:] == [5] * 10
    # a distance one past the associativity is exactly what defeats LRU
    assert all(x > g.ways for x in d[5:])
    assert simulate(t, g, make_policy("lru")).hits == 0


def test_distance_at_or_below_ways_means_an_lru_hit():
    g = CacheGeometry(1, 4, 64)
    t = generate_pattern(PatternSpec("thrash", k=4, n=3))
    d = reuse_distances(t, g)
    assert d[4:] == [4] * 8
    assert simulate(t, g, make_policy("lru")).hits == 8


def test_repeated_touches_do_not_inflate_the_distance():
    g = CacheGeometry(1, 8, 64)
    # block 1 is touched twice in between, but counts once
    assert reuse_distances(block_trace([0, 1, 1, 0]), g) == [math.inf, math.inf, 1, 2]


def test_distances_match_the_list_stack_reference():
    for sets in (1, 4):
        g = CacheGeometry(sets, 4, 64)
        for seed in range(20):
            rng = random.Random(seed)
            t = block_trace([rng.randrange(30) for _ in range(400)])
            assert reuse_distances(t, g) == reference_distances(t, g)


@st.composite
def block_traces(draw):
    """A random block trace on 1, 2, 4 or 16 sets.  In half of them a
    random share of the accesses goes back to the block its set touched
    last, often with other sets' accesses between.  About one in three
    holds a block that comes back after more than 2**10 accesses to other
    blocks of its set, so the tree walk climbs past level 10."""
    num_sets = draw(st.sampled_from([1, 2, 4, 16]))
    rnd = random.Random(draw(st.integers(0, 2**32)))  # fast draws for long traces
    span, again = rnd.randint(1, 200), rnd.choice([0, rnd.random()])
    last, blocks = {}, []
    for _ in range(rnd.randint(0, 300)):
        b = rnd.randrange(span)
        if rnd.random() < again:
            b = last.get(b % num_sets, b)
        last[b % num_sets] = b
        blocks.append(b)
    if rnd.random() < 1 / 3:
        home, others = rnd.randrange(span), rnd.randint(1, 1200)
        gap = [home + num_sets * rnd.randint(1, others) for _ in range(rnd.randint(1025, 2600))]
        at = rnd.randint(0, len(blocks))
        blocks[at:at] = [home] + gap + [home]
    return blocks, num_sets


@seed(20261018)
@settings(max_examples=120, deadline=None, database=None)
@example(([], 1))
@example(([3], 4))
@given(block_traces())
def _check_against_the_list_stack(case):
    blocks, num_sets = case
    g = CacheGeometry(num_sets, 4, 64)
    t = block_trace(blocks)
    distances = reuse_distances(t, g)
    assert distances == reference_distances(t, g)
    assert reuse_distance_distribution(t, g) == Counter(distances)


def test_distances_match_the_list_stack_on_random_traces():
    t0 = time.perf_counter()
    _check_against_the_list_stack()
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, "exceeded 5s budget (%.1fs)" % elapsed


@st.composite
def short_block_traces(draw):
    """Up to 120 accesses over at most 41 blocks on 1, 2 or 4 sets, and a
    slice of 2 to 5 entries, so that the walk's queries, keys and sorted
    links at every level span many slices."""
    num_sets = draw(st.sampled_from([1, 2, 4]))
    span = draw(st.integers(0, 40))
    return draw(st.lists(st.integers(0, span), max_size=120)), num_sets, draw(st.integers(2, 5))


@seed(20261020)
@settings(max_examples=150, deadline=None, database=None)
@example(([], 1, 2))
@example(([0, 1, 2, 3, 4, 5, 6, 0, 0, 6, 1], 1, 2))
@given(short_block_traces())
def _check_across_slice_boundaries(case):
    blocks, num_sets, size = case
    g, t = CacheGeometry(num_sets, 4, 64), block_trace(blocks)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "SLICE", size)
        heads, dist = _stack_distances(t, g)
    distances = [1] * len(t)  # a run's repeats
    for head, d in zip(heads.tolist(), dist.tolist()):
        distances[head] = d
    assert distances == [d or -1 for d in _reference_stack_distances(t, g)]


def test_stack_walk_across_slice_boundaries():
    """The walk taken 2 to 5 entries at a time matches the independent
    stack simulator on every access."""
    t0 = time.perf_counter()
    _check_across_slice_boundaries()
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, "exceeded 10s budget (%.1fs)" % elapsed


def test_distances_are_computed_per_set():
    g = CacheGeometry(2, 4, 64)
    # blocks 0 and 2 land in set 0, block 1 in set 1: the set-1 access
    # does not separate the two set-0 touches of block 0
    assert reuse_distances(block_trace([0, 1, 0]), g) == [math.inf, math.inf, 1]


def test_distribution_buckets_sum_to_the_trace_length():
    g = CacheGeometry(2, 4, 64)
    rng = random.Random(5)
    t = block_trace([rng.randrange(20) for _ in range(300)])
    hist = reuse_distance_distribution(t, g)
    assert sum(hist.values()) == 300
    assert hist[math.inf] == 20  # one first touch per distinct block


def test_histogram_rows_order_and_cumulative_fractions():
    hist = {2: 10, 1: 30, math.inf: 10, 5: 50}
    rows = histogram_rows(hist)
    assert rows == [(1, 30), (2, 10), (5, 50), (math.inf, 10)]
    cum = histogram_rows(hist, cumulative=True)
    assert [k for k, _ in cum] == [1, 2, 5, math.inf]
    assert cum[0][1] == pytest.approx(0.3)
    assert cum[1][1] == pytest.approx(0.4)
    assert cum[2][1] == pytest.approx(0.9)  # first touches never covered
    assert cum[3][1] == 1.0


def test_cumulative_fraction_is_the_lru_hit_ratio_at_every_way_count():
    rng = random.Random(9)
    t = block_trace([rng.randrange(40) for _ in range(600)])
    hist = reuse_distance_distribution(t, CacheGeometry(4, 1, 64))  # ways do not matter
    rows = histogram_rows(hist, cumulative=True)
    for ways in range(1, 13):
        hits = simulate(t, CacheGeometry(4, ways, 64), make_policy("lru")).hits
        covered = max((f for d, f in rows if d <= ways), default=0.0)
        assert covered == pytest.approx(hits / len(t)), ways


def test_compare_reports_elimination_percentages():
    g = CacheGeometry(2, 4, 64)
    rng = random.Random(1)
    t = block_trace([rng.randrange(24) for _ in range(500)])
    lru = simulate(t, g, make_policy("lru"))
    opt = opt_oracle(t, g)
    rows = compare_reports([lru, opt], baseline="lru")
    assert rows[0]["policy"] == "lru"
    assert rows[0]["eliminated_pct"] == 0.0
    expected = 100.0 * (lru.misses - opt.misses) / lru.misses
    assert rows[1]["eliminated_pct"] == pytest.approx(expected)
    assert rows[1]["misses"] == opt.misses


def test_compare_reports_requires_the_baseline_and_matching_runs():
    g = CacheGeometry(2, 4, 64)
    t1 = block_trace(list(range(20)))
    t2 = block_trace(list(range(21)))
    r1 = simulate(t1, g, make_policy("lru"))
    r2 = simulate(t2, g, make_policy("lip"))
    with pytest.raises(ReportMismatchError):
        compare_reports([r1], baseline="opt")
    with pytest.raises(ReportMismatchError):
        compare_reports([r1, r2], baseline="lru")
    r3 = simulate(t1, CacheGeometry(4, 2, 64), make_policy("lip"))
    with pytest.raises(ReportMismatchError):
        compare_reports([r1, r3], baseline="lru")
    with pytest.raises(ReportMismatchError):
        compare_reports([], baseline="lru")


def test_compare_reports_tells_apart_traces_with_equal_ends():
    # same length, first and last address: only the records between differ
    g = CacheGeometry(1, 2, 64)
    a = simulate(block_trace([0, 1, 2, 0]), g, make_policy("lru"))
    b = simulate(block_trace([0, 64, 128, 0]), g, make_policy("lru"))
    assert (a.accesses, a.misses) == (b.accesses, b.misses)
    with pytest.raises(ReportMismatchError):
        compare_reports([a, b], baseline="lru")

