"""Clairvoyant replacement: next-use indexing, optimality, bypass rule."""

import random
import time

from cachelab import engine
from cachelab.engine import CacheGeometry, simulate
from cachelab.opt import NEVER, OptPolicy, next_use_index, opt_oracle
from cachelab.policies import POLICY_NAMES, make_policy
from cachelab.trace import MemoryAccess, Trace


def block_trace(ids, block=64):
    return Trace([MemoryAccess(b * block) for b in ids])


def random_trace(seed, n=400, blocks=24):
    rng = random.Random(seed)
    return block_trace([rng.randrange(blocks) for _ in range(n)])


def test_next_use_index_exact():
    t = block_trace([0, 1, 0, 2, 1, 0])
    g = CacheGeometry(1, 2, 64)
    assert list(next_use_index(t, g)) == [2, 4, 5, NEVER, NEVER, NEVER]


def test_next_use_index_works_on_block_granularity():
    # two addresses inside one block are the same stream element
    t = Trace([MemoryAccess(0), MemoryAccess(32), MemoryAccess(64)])
    g = CacheGeometry(1, 2, 64)
    assert list(next_use_index(t, g)) == [1, NEVER, NEVER]


def test_next_use_index_matches_a_backward_scan(monkeypatch):
    g = CacheGeometry(4, 2, 64)
    for seed in range(5):
        rng = random.Random(seed)
        t = Trace([MemoryAccess(rng.randrange(40 * 64)) for _ in range(300)])
        expected = [NEVER] * len(t)
        last = {}
        for i in range(len(t) - 1, -1, -1):
            block = t[i].address // 64
            expected[i] = last.get(block, NEVER)
            last[block] = i
        assert list(next_use_index(t, g)) == expected
        # three sorted entries at a time: every slice boundary is crossed
        monkeypatch.setattr(engine, "SLICE", 3)
        assert list(next_use_index(t, g)) == expected
        monkeypatch.undo()


def test_opt_on_cyclic_three_block_two_way_trace():
    t = block_trace([0, 1, 2, 0, 1, 2])
    r = opt_oracle(t, CacheGeometry(1, 2, 64))
    # keep one of the two resident blocks across each conflict: 3 cold
    # misses plus exactly one more
    assert r.misses == 4
    assert r.hits == 2


def test_opt_never_worse_than_lru():
    g = CacheGeometry(2, 4, 64)
    for seed in range(50):
        t = random_trace(seed)
        assert opt_oracle(t, g).misses <= simulate(t, g, make_policy("lru")).misses


def test_opt_bypass_never_worse_than_opt():
    g = CacheGeometry(2, 4, 64)
    for seed in range(50):
        t = random_trace(seed)
        plain = opt_oracle(t, g).misses
        with_bypass = opt_oracle(t, g, allow_bypass=True)
        assert with_bypass.misses <= plain


def test_opt_never_worse_than_any_policy_capability_matched():
    g = CacheGeometry(2, 4, 64)
    for seed in range(8):
        t = random_trace(seed, n=300)
        plain = opt_oracle(t, g).misses
        byp = opt_oracle(t, g, allow_bypass=True).misses
        for name in POLICY_NAMES:
            if name == "opt":
                continue
            r = simulate(t, g, make_policy(name), seed=seed)
            bound = byp if r.bypasses > 0 else plain
            assert r.misses >= bound, name


def test_opt_bypass_declines_only_strictly_farther_blocks():
    # set is full of blocks whose next uses are nearer than the
    # incoming block's: the incoming distinct-use block is bypassed
    t = block_trace([0, 1, 2, 0, 1, 2, 0, 1])
    g = CacheGeometry(1, 2, 64)
    r = opt_oracle(t, g, allow_bypass=True)
    assert r.bypasses > 0
    assert r.misses == 4  # same misses as the non-bypass oracle here


def test_opt_bypass_inserts_when_nothing_is_farther():
    # after the cold fill nothing is ever reused, so every resident's
    # next use is NEVER and newcomers tie: ties are inserted, not bypassed
    t = block_trace([0, 1, 2, 3, 4, 5])
    g = CacheGeometry(1, 2, 64)
    r = opt_oracle(t, g, allow_bypass=True)
    assert r.bypasses == 0
    assert r.misses == 6


def test_opt_policy_exposes_distinct_names():
    g = CacheGeometry(1, 2, 64)
    t = block_trace([0, 1])
    assert OptPolicy(t, g).name == "opt"
    assert OptPolicy(t, g, allow_bypass=True).name == "opt-bypass"
    assert opt_oracle(t, g).policy == "opt"


def _dp_step(cur, c, num_sets, ways, decline):
    """One access to block c of a brute-force cache: cur maps each
    reachable content (a bitmask of blocks) to the fewest misses that
    reach it.  A miss fills, evicting any resident of c's set when the
    set is full, or with decline=True may also leave c out."""
    b = 1 << c
    same_set = sum(1 << x for x in range(c % num_sets, 32, num_sets))
    new = {}
    for mask, m in cur.items():
        if mask & b:
            nexts = [mask]
        else:
            m += 1
            resident = mask & same_set
            nexts = [mask] if decline else []
            if bin(resident).count("1") < ways:
                nexts.append(mask | b)
            else:
                while resident:  # evict each resident in turn
                    low = resident & -resident
                    nexts.append(mask ^ low | b)
                    resident ^= low
        for nm in nexts:
            if new.get(nm, m + 1) > m:
                new[nm] = m
    return new


def test_opt_bypass_equals_the_exhaustive_minimum_with_a_decline_move():
    """opt-bypass misses equal a brute-force minimum whose misses may also
    decline to fill, on every trace of up to 8 accesses over 4 blocks on
    one 2-way set and of up to 7 over 2 blocks per set on two 1-way sets,
    up to relabelling.  Back-to-back repeats are included, in a set and
    across sets, so the oracle's run collapse is exercised."""
    t0 = time.perf_counter()
    blocks = [MemoryAccess(64 * b) for b in range(4)]
    mismatches, checked = [], 0
    for num_sets, ways, longest in ((1, 2, 8), (2, 1, 7)):
        geom = CacheGeometry(num_sets, ways, 64)
        prefix = []

        def walk(seen, cur):
            nonlocal checked
            if prefix:
                got = opt_oracle(Trace([blocks[c] for c in prefix]), geom, allow_bypass=True)
                checked += 1
                if got.misses != min(cur.values()):
                    mismatches.append((num_sets, tuple(prefix), got.misses, min(cur.values())))
            if len(prefix) == longest:
                return
            for c in range(4):
                # sets open in order, and each set's blocks come in label order
                below = c - 1 if c < num_sets else c - num_sets
                if c == 0 or seen >> below & 1:
                    prefix.append(c)
                    walk(seen | 1 << c, _dp_step(cur, c, num_sets, ways, decline=True))
                    prefix.pop()

        walk(0, {0: 0})
    elapsed = time.perf_counter() - t0
    assert not mismatches, "opt-bypass != exhaustive minimum: %r" % (mismatches[:3],)
    assert checked == 3771 + 2794, "enumeration size drifted: %d" % checked
    assert elapsed < 10.0, "exceeded 10s budget (%.1fs)" % elapsed
