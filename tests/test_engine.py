"""Cache geometry, the seeded generator, the simulation loop, and reports."""

import json
import os
import random
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from cachelab import engine
from cachelab.engine import (
    CacheGeometry,
    Policy,
    SimReport,
    SplitMix64,
    filter_trace,
    lru_would_miss,
    simulate,
)
from cachelab.metrics import reuse_distances
from cachelab.policies import make_policy
from cachelab.trace import MemoryAccess, PatternSpec, ReuseHint, Trace, generate_pattern


def random_trace(seed, n=500, blocks=40, pcs=8, block_bytes=64):
    rng = random.Random(seed)
    return Trace(
        [
            MemoryAccess(block_bytes * rng.randrange(blocks), pc_signature=rng.randrange(pcs))
            for _ in range(n)
        ]
    )


def test_splitmix64_known_first_outputs():
    # reference sequence for seed 0 of the standard splitmix64 stream
    g = SplitMix64(0)
    assert g.next_u64() == 0xE220A8397B1DCDAF
    assert g.next_u64() == 0x6E789E6AA1B965F4
    assert g.next_u64() == 0x06C45D188009454F


def test_splitmix64_is_deterministic_per_seed():
    a = SplitMix64(42)
    b = SplitMix64(42)
    assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]
    c = SplitMix64(43)
    assert SplitMix64(42).next_u64() != c.next_u64()


def test_splitmix64_helpers_stay_in_range():
    g = SplitMix64(7)
    for _ in range(1000):
        assert 0.0 <= g.random() < 1.0
    for _ in range(1000):
        assert 0 <= g.randrange(13) < 13
    seq = ["a", "b", "c"]
    assert all(g.choice(seq) in seq for _ in range(50))


def test_splitmix64_random_is_the_top_53_bits_of_next_u64():
    """random() writes the splitmix step out; it must draw exactly what
    (next_u64() >> 11) * 2**-53 draws from a twin generator."""
    for seed in (0, 7):
        g, twin = SplitMix64(seed), SplitMix64(seed)
        got = [g.random() for _ in range(16)]
        assert got == [(twin.next_u64() >> 11) * 2.0**-53 for _ in range(16)]
        assert g.next_u64() == twin.next_u64()  # and leaves the same state


class ScalarSplitMix64:
    """splitmix64 one draw at a time in Python ints, the twin the
    batched generator must match."""

    def __init__(self, seed):
        self.state = seed % 2**64

    def next_u64(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) % 2**64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
        return z ^ (z >> 31)

    def random(self):
        return (self.next_u64() >> 11) * 2.0**-53

    def randrange(self, n):
        return self.next_u64() % n

    def choice(self, seq):
        return seq[self.next_u64() % len(seq)]


DRAWS = (
    lambda g: g.next_u64(),
    lambda g: g.random(),
    lambda g: g.randrange(13),
    lambda g: g.choice("abcdefg"),
)


@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
def test_splitmix64_blocks_match_the_scalar_stream_across_every_boundary(seed):
    """Blocks of 16, 32, ..., 1,024, 1,024, ... end after draw 16, 48,
    ..., 1,008, 2,032, 3,056 and 4,080: 4,500 draws of one kind cross
    each of them with that kind, and a mixed sequence crosses them with
    every kind; a generator forked as DuelPolicy forks its shadow
    generator then draws alongside its parent."""
    calls = [[kind] * 4500 for kind in DRAWS]
    mix = random.Random(seed % 1000)
    calls.append([mix.choice(DRAWS) for _ in range(4500)])
    for sequence in calls:
        g, twin = SplitMix64(seed), ScalarSplitMix64(seed)
        assert [draw(g) for draw in sequence] == [draw(twin) for draw in sequence]
    g, twin = SplitMix64(seed), ScalarSplitMix64(seed)
    assert [g.random() for _ in range(20)] == [twin.random() for _ in range(20)]
    fork = SplitMix64(g.next_u64() ^ 0x9E3779B97F4A7C15)
    fork_twin = ScalarSplitMix64(twin.next_u64() ^ 0x9E3779B97F4A7C15)
    for i in range(2100):
        draw = DRAWS[i % len(DRAWS)]
        assert (draw(fork), draw(g)) == (draw(fork_twin), draw(twin))


ENGINE_CHECKS = """
import numpy as np
from cachelab.engine import CacheGeometry, Policy, SplitMix64, run_policy
from cachelab.trace import MemoryAccess, Trace

class DropsFill(Policy):
    def on_insert(self, view, way):  # takes back the block the engine filled
        view.tags.pop()
        view.state.pop()

class FlipsTag(Policy):
    def on_insert(self, view, way):
        view.tags[way] = ~view.tags[way]

def run(case):
    blocks = [0, 1, 0, 2]
    sets = bytes(len(blocks) - (case == "short"))
    policy = {"short": Policy(), "drop": DropsFill(), "flip": FlipsTag()}[case]
    try:
        run_policy(policy, CacheGeometry(1, 4, 64), SplitMix64(0),
                   Trace([MemoryAccess(64 * b) for b in blocks]), sets,
                   memoryview(np.array(blocks, dtype=np.int64)))
    except RuntimeError as error:
        return str(error)
    return "no check fired"
"""

CHECK_MESSAGES = {
    "short": "3 fills of a free way != 2 resident blocks",
    "drop": "3 fills of a free way != 0 resident blocks",
    "flip": "a set's tag map disagrees with its resident tags",
}


def test_end_of_run_checks_fire_with_and_without_python_O():
    """Each end-of-run check of run_policy catches its fault: a set
    column shorter than the tags, whose unreached access reads as a fill,
    and a policy that takes back a fill (both: fills of a free way against
    resident blocks), one that rewrites a resident tag (view.where against
    view.tags); also under python -O."""
    space = {}
    exec(ENGINE_CHECKS, space)
    assert {case: space["run"](case) for case in CHECK_MESSAGES} == CHECK_MESSAGES
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    script = ENGINE_CHECKS + (
        "import json, sys\n"
        "assert False  # stripped by -O\n"
        "print(json.dumps([sys.flags.optimize, {c: run(c) for c in %r}]))\n"
        % sorted(CHECK_MESSAGES)
    )
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert json.loads(out) == [1, CHECK_MESSAGES]


class BypassesAccess3(Policy):
    """Bypasses the access at position 3 and evicts way 0 from a full set."""

    def decide_insert(self, view):
        return view.access_index != 3

    def choose_victim(self, view):
        return 0


def test_run_policy_returns_one_outcome_byte_per_access():
    """On one 2-way set, blocks 0 0 1 2 3 give a fill of a free way, a
    hit, a second free fill, a bypass and an evicting fill; the report's
    counters are those bytes counted."""
    blocks = [0, 0, 1, 2, 3]
    trace, g = Trace([MemoryAccess(64 * b) for b in blocks]), CacheGeometry(1, 2, 64)
    outcome = engine.run_policy(BypassesAccess3(), g, SplitMix64(0), trace, bytes(len(blocks)),
                                memoryview(np.array(blocks, dtype=np.int64)))
    assert (engine.HIT, engine.BYPASS, engine.EVICT) == (1, 2, 3)
    assert outcome == bytearray([0, engine.HIT, 0, engine.BYPASS, engine.EVICT])
    r = simulate(trace, g, BypassesAccess3())
    assert (r.accesses, r.hits, r.misses, r.bypasses, r.evictions) == (5, 1, 4, 1, 1)


def test_opt_counts_its_set_local_repeats_as_hits():
    """OPT simulates one head per run of repeats; every access its outcome
    column leaves out is a hit: blocks 0 0 1 1 1 2 0 0 on one 2-way set
    have heads 0 1 2 0, of which only the last hits (2 evicts 1)."""
    from cachelab.opt import OptPolicy, opt_oracle

    trace = Trace([MemoryAccess(64 * b) for b in [0, 0, 1, 1, 1, 2, 0, 0]])
    g = CacheGeometry(1, 2, 64)
    assert len(OptPolicy(trace, g).tags) == 4
    for allow_bypass in (False, True):
        r = opt_oracle(trace, g, allow_bypass)
        assert r.hits == r.accesses - r.misses
        assert (r.accesses, r.hits, r.misses, r.bypasses, r.evictions) == (8, 5, 3, 0, 1)


def test_geometry_validation():
    with pytest.raises(ValueError):
        CacheGeometry(3, 4, 64)
    with pytest.raises(ValueError):
        CacheGeometry(4, 0, 64)
    with pytest.raises(ValueError):
        CacheGeometry(4, 4, 48)
    with pytest.raises(ValueError):
        CacheGeometry(4, 4, 4)  # block smaller than one 8-byte element


def test_geometry_takes_only_ints():
    """A float or bool size would run: ways=4.5 once filled 5 ways."""
    for bad in ((1, 4.5, 64), (4.0, 4, 64), (1, 4, 64.0), (True, 4, 64), (1, True, 64)):
        with pytest.raises(ValueError, match="must be ints"):
            CacheGeometry(*bad)


def set_and_tag(g, *addresses):
    """Each address's (set index, tag) under g, split off its block number."""
    blocks = g.blocks(np.array(addresses, dtype=np.uint64))
    return list(zip((blocks & (g.num_sets - 1)).tolist(), (blocks >> g.set_bits).tolist()))


def test_geometry_address_mapping():
    g = CacheGeometry(64, 16, 64)
    assert g.capacity_bytes == 64 * 16 * 64
    a = 0x12345
    assert g.blocks(np.array([a], dtype=np.uint64)).tolist() == [a // 64]
    assert set_and_tag(g, a) == [((a // 64) % 64, (a // 64) // 64)]
    # same block, same mapping for every byte in it
    first, last = set_and_tag(g, 0x12340, 0x1237F)
    assert first == last
    # addresses one block apart land in adjacent sets
    (s0, _), (s1, _) = set_and_tag(g, 0, 64)
    assert s1 == (s0 + 1) % 64


def test_geometry_block_column_is_signed_and_matches_the_scalar_mapping():
    g = CacheGeometry(64, 16, 64)
    addresses = [0, 0x12345, 1 << 63, (1 << 64) - 1]
    blocks = g.blocks(np.array(addresses, dtype=np.uint64))
    assert blocks.dtype == np.int64
    assert blocks.tolist() == [a // 64 for a in addresses]
    assert (blocks & 63).tolist() == [(a // 64) % 64 for a in addresses]
    assert (blocks >> g.set_bits).tolist() == [(a // 64) // 64 for a in addresses]


def test_runs_where_bincount_refuses_unsigned_64_bit_input(monkeypatch):
    """numpy before 2.3 cannot bincount a uint64 array; dead-eviction
    scoring and the reuse pass group by set without bincount, and any
    bincount they take up again must get a column that casts to intp."""
    bincount = np.bincount

    def strict_bincount(x, *args, **kwargs):
        if not np.can_cast(np.asarray(x).dtype, np.intp, "safe"):
            raise TypeError("cannot cast %s to intp under the safe rule" % np.asarray(x).dtype)
        return bincount(x, *args, **kwargs)

    monkeypatch.setattr(np, "bincount", strict_bincount)
    t, g = random_trace(3, n=2000), CacheGeometry(4, 4)
    r = simulate(t, g, make_policy("leeway-lru"))
    assert r.dead_predictions_correct > 0
    assert len(reuse_distances(t, g)) == len(t)


def test_two_addresses_same_set_different_tag_conflict():
    g = CacheGeometry(4, 1, 64)
    a, b = 0, 4 * 64  # both set 0
    (set_a, tag_a), (set_b, tag_b) = set_and_tag(g, a, b)
    assert set_a == set_b and tag_a != tag_b
    t = Trace([MemoryAccess(a), MemoryAccess(b), MemoryAccess(a)])
    r = simulate(t, g, make_policy("lru"))
    assert r.misses == 3 and r.hits == 0


def test_simulate_counter_conservation():
    g = CacheGeometry(8, 4, 64)
    for seed in range(5):
        t = random_trace(seed)
        for name in ("lru", "nru1", "drrip2", "leeway-lru", "pin50"):
            r = simulate(t, g, make_policy(name), seed=seed)
            assert r.hits + r.misses == r.accesses == len(t)
            assert r.bypasses <= r.misses
            assert r.evictions <= r.misses - r.bypasses
            assert r.dead_predictions_correct <= r.dead_predicted_evictions <= r.evictions


def test_simulate_same_seed_reproduces_everything():
    g = CacheGeometry(8, 4, 64)
    t = random_trace(3)
    for name in ("random", "bip", "nru1", "brrip3", "leeway-lru"):
        r1 = simulate(t, g, make_policy(name), seed=9)
        r2 = simulate(t, g, make_policy(name), seed=9)
        assert r1 == r2


def test_simulate_cold_fill_uses_empty_ways_without_eviction():
    g = CacheGeometry(1, 4, 64)
    t = Trace([MemoryAccess(64 * i) for i in range(4)])
    r = simulate(t, g, make_policy("lru"))
    assert r.misses == 4 and r.evictions == 0


@pytest.mark.parametrize("victim", [-1, 4])
def test_simulate_rejects_a_victim_outside_the_set(victim):
    """A way outside 0..ways-1 is an error, not a silent index into the
    flat state lists (which would wrap -1 to the last way)."""

    class Stub(Policy):
        def choose_victim(self, view):
            return victim

    t = Trace([MemoryAccess(64 * 4 * i) for i in range(5)])  # one set, five tags
    with pytest.raises(RuntimeError, match="victim way %d outside 0..3" % victim):
        simulate(t, CacheGeometry(4, 4, 64), Stub())


@pytest.mark.parametrize("base, stride", [(1 << 40, 1), (0, 1 << 30)])
def test_reset_tags_share_one_object_per_dense_value(base, stride):
    """reset receives the engine's int64 tag buffer (8 B per access, no
    Python int object per access at all), equal to the block tags, dense
    or sparse; so dense tags cost the same memory at any address: a run
    at tag base 2**40 peaks within 10% of one at base 0."""
    seen = {}

    class Spy(Policy):
        def reset(self, geometry, rng, trace, tags):
            seen["itemsize"] = memoryview(tags).itemsize
            seen["tags"] = list(tags)

        def choose_victim(self, view):
            return 0

    def peak(trace):
        tracemalloc.start()
        try:
            simulate(trace, CacheGeometry(1, 4, 64), make_policy("lru"))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    rng = random.Random(3)
    offsets = [rng.randrange(32) for _ in range(20000)]
    for b0 in sorted({0, base}) if stride == 1 else [base]:
        blocks = [b0 + stride * o for o in offsets[:400]]
        simulate(Trace([MemoryAccess(64 * b) for b in blocks]), CacheGeometry(1, 4, 64), Spy())
        assert seen["tags"] == blocks
        assert seen["itemsize"] == 8
    if stride == 1:
        small, large = (Trace([MemoryAccess(64 * (b0 + o)) for o in offsets]) for b0 in (0, base))
        peak(small), peak(large)  # keep the first runs' one-time allocations out
        assert peak(large) <= 1.1 * peak(small)


def test_classify_accounting_totals_match(tmp_path):
    g = CacheGeometry(8, 2, 64)
    t = random_trace(5)
    cls = lambda addresses: np.where(addresses // 64 % 2 == 0, ReuseHint.HIGH, ReuseHint.LOW)
    r = simulate(t, g, make_policy("lru"), classify=cls)
    assert sum(r.hint_class_accesses.values()) == r.accesses
    assert sum(r.hint_class_hits.values()) == r.hits
    d = r.to_dict()
    assert set(d["hint_class_accesses"]) == {"high", "low"}


def test_classify_runs_once_per_run():
    calls = []

    def cls(addresses):
        calls.append(addresses.tolist())
        return np.where(addresses % 128 == 0, ReuseHint.HIGH, ReuseHint.MODERATE)

    # 1x2 LRU: 0 miss, 64 miss, 0 hit, 128 miss, 64 miss, 0 miss
    t = Trace([MemoryAccess(a) for a in (0, 64, 0, 128, 64, 0)])
    r = simulate(t, CacheGeometry(1, 2, 64), make_policy("lru"), classify=cls)
    assert calls == [[0, 64, 0, 128, 64, 0]]
    assert r.hint_class_accesses == {ReuseHint.HIGH: 4, ReuseHint.MODERATE: 2}
    assert r.hint_class_hits == {ReuseHint.HIGH: 1}  # no MODERATE key: it has no hit
    assert r.to_dict()["hint_class_hits"] == {"high": 1}


def test_report_properties_and_to_dict():
    r = SimReport(policy="lru", num_sets=4, ways=2, block_bytes=64, seed=0)
    r.accesses, r.hits, r.misses = 100, 60, 40
    r.evictions = 20
    r.dead_predicted_evictions = 10
    r.dead_predictions_correct = 8
    r.total_instructions = 400
    assert r.coverage == 0.5
    assert r.accuracy == 0.8
    assert r.miss_per_kilo_access == 400.0
    assert r.mpki == 100.0
    d = r.to_dict()
    assert d["misses"] == 40 and d["coverage"] == 0.5
    assert (d["miss_per_kilo_access"], d["mpki"]) == (400.0, 100.0)


def test_report_ratios_degrade_to_zero():
    r = SimReport(policy="x", num_sets=1, ways=1, block_bytes=64, seed=0)
    assert r.coverage == 0.0
    assert r.accuracy == 0.0
    assert r.miss_per_kilo_access == 0.0
    assert r.mpki == 0.0


def test_lru_would_miss_rule():
    stream = list("ABCDA")
    # eviction of A at position 1: B C D are three distinct others before
    # A returns, so a 3-way cache would miss anyway -> dead is correct
    assert lru_would_miss(stream, 1, "A", 3)
    # with 4 ways A would have survived
    assert not lru_would_miss(stream, 1, "A", 4)
    # never referenced again counts as dead at any associativity
    assert lru_would_miss(stream, 2, "Z", 1)


@st.composite
def set_columns(draw):
    """Up to 80 set indices on 1, 2, 256, 2**16, 2**32 or 2**40 sets, in
    the narrow column a trace's set bits take (uint8, uint16 at 2**16
    sets, uint32 at 2**32, uint64 at 2**40), drawn from a few sets so that
    runs and repeats span slices, and a slice of 2 to 5 entries."""
    num_sets = draw(st.sampled_from([1, 2, 256, 1 << 16, 1 << 32, 1 << 40]))
    pool = draw(st.lists(st.integers(0, num_sets - 1), min_size=1, max_size=5))
    sets = draw(st.lists(st.sampled_from(pool + [0, num_sets - 1]), max_size=80))
    return np.array(sets, dtype=np.min_scalar_type(num_sets - 1)), draw(st.integers(2, 5))


@seed(20261021)
@settings(max_examples=200, deadline=None, database=None)
@example((np.zeros(0, dtype=np.uint8), 2))
@example((np.zeros(0, dtype=np.uint16), 3))
@example((np.array([2**40 - 1, 0, 2**40 - 1], dtype=np.uint64), 2))
@given(set_columns())
def _check_set_order(case):
    sets, size = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "SLICE", size)
        order, ids, ends = engine._set_order(sets)
    held, counts = np.unique(sets, return_counts=True)
    assert order.dtype == np.int32 and ids.dtype == sets.dtype
    assert order.tolist() == np.argsort(sets, kind="stable").tolist()
    assert ids.tolist() == held.tolist()
    assert ends.tolist() == np.cumsum(counts).tolist()


def test_set_order_is_a_stable_argsort_across_slice_boundaries():
    """The counting sort taken 2 to 5 entries at a time gives numpy's
    stable argsort, the sets the column holds and each one's end, on
    empty columns, one set, and uint8 to uint64 columns up to 2**40
    sets."""
    t0 = time.perf_counter()
    _check_set_order()
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, "exceeded 10s budget (%.1fs)" % elapsed


@seed(20261022)
@settings(max_examples=100, deadline=None, database=None)
@given(st.sampled_from([1, 2, 4, 1 << 40]), st.integers(1, 4), st.integers(2, 5),
       st.integers(0, 2**32))
def _check_dead_scoring(num_sets, ways, size, draws):
    rnd = random.Random(draws)
    n = rnd.randint(1, 120)
    pool = [rnd.randrange(num_sets) for _ in range(4)]  # at most four sets, anywhere
    sets = np.array([rnd.choice(pool) for _ in range(n)], dtype=np.min_scalar_type(num_sets - 1))
    tags = np.array([rnd.randrange(6) for _ in range(n)], dtype=np.int64)
    dead_log = sorted((i, int(sets[i]), rnd.randrange(7)) for i in rnd.sample(range(n), min(n, 8)))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "SLICE", size)
        correct = engine._score_dead(dead_log, sets, tags, ways)
    streams = {si: [(i, t) for i, (s, t) in enumerate(zip(sets.tolist(), tags.tolist())) if s == si]
               for si in pool}
    assert correct == sum(lru_would_miss([t for i, t in streams[si] if i >= index], 0, vtag, ways)
                          for index, si, vtag in dead_log)


def test_dead_scoring_scans_each_set_from_the_eviction():
    """Dead-eviction scoring, which reads tags through the set order,
    counts what lru_would_miss gives on each set's own tag list from the
    evicting access on, with the order built 2 to 5 entries at a time, on
    up to four sets of 1 to 2**40."""
    t0 = time.perf_counter()
    _check_dead_scoring()
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, "exceeded 10s budget (%.1fs)" % elapsed


def test_filter_trace_drops_front_cache_hits():
    t = generate_pattern(PatternSpec("recency", k=2, n=3))
    kept = filter_trace(t, num_sets=1, ways=4)
    # everything after the two cold misses hits a 4-way front cache
    assert [r.address for r in kept] == [0, 64]
    thrash = generate_pattern(PatternSpec("thrash", k=8, n=2))
    assert len(filter_trace(thrash, num_sets=1, ways=4)) == len(thrash)


@seed(20261019)
@settings(max_examples=300, deadline=None, database=None)
@given(st.sampled_from([1, 2, 4, 8, 16]), st.integers(1, 16), st.integers(0, 2**32))
def _check_filter_keeps_stack_misses(num_sets, ways, draws):
    rnd = random.Random(draws)  # fast draws for two per access
    span, again = rnd.randint(ways, 3 * num_sets * ways), rnd.random()
    blocks = []
    for _ in range(rnd.randint(1, 300)):  # a share of back-to-back repeats
        blocks.append(blocks[-1] if blocks and rnd.random() < again else rnd.randrange(span))
    trace = Trace([MemoryAccess(64 * b) for b in blocks])  # one instruction each
    kept = filter_trace(trace, num_sets, ways)
    positions = np.cumsum(kept.records["inst_delta"]) - 1  # folding gives each one's position
    distances = reuse_distances(trace, CacheGeometry(num_sets, ways))
    assert positions.tolist() == [i for i, d in enumerate(distances) if d > ways]


def test_filter_trace_keeps_exactly_the_accesses_past_the_lru_stack():
    """filter_trace keeps its own LRU front cache, an OrderedDict per set:
    it must keep exactly the accesses whose stack distance on the front
    geometry is above its ways, or infinite (Mattson et al.'s stack
    property), on 1-16 sets of 1-16 ways."""
    t0 = time.perf_counter()
    _check_filter_keeps_stack_misses()
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, "exceeded 5s budget (%.1fs)" % elapsed


def test_filter_trace_folds_inst_deltas():
    records = [MemoryAccess(0, inst_delta=5), MemoryAccess(0, inst_delta=7), MemoryAccess(64, inst_delta=2)]
    kept = filter_trace(Trace(records), num_sets=1, ways=2)
    assert [r.address for r in kept] == [0, 64]
    assert [r.inst_delta for r in kept] == [5, 9]
