"""Independent reference models against the engine.

Each model below is one flat loop written from its paper's description
and imports nothing from cachelab: a list-based LRU stack (Mattson et
al., IBM Sys. J. 1970) and SRRIP with m-bit RRPVs (Jaleel et al., ISCA
2010).  hypothesis draws short block traces over small geometries, and
every access must agree with `simulate`: the same hit or miss and, on an
eviction, the same victim block.
"""

import time

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from cachelab.engine import CacheGeometry, simulate
from cachelab.policies import make_policy
from cachelab.trace import MemoryAccess, Trace

BUDGET_S = 15.0  # both tests together
EXAMPLES = 300


def lru_stack_model(blocks, num_sets, ways):
    """Per access: (hit, evicted block or None).  Each set is a list of
    blocks, most recently used first."""
    stacks = [[] for _ in range(num_sets)]
    out = []
    for b in blocks:
        stack = stacks[b % num_sets]
        if b in stack:
            stack.remove(b)
            stack.insert(0, b)
            out.append((True, None))
            continue
        victim = stack.pop() if len(stack) == ways else None
        stack.insert(0, b)
        out.append((False, victim))
    return out


def srrip_model(blocks, num_sets, ways, m):
    """Per access: (hit, evicted block or None).  A hit sets the RRPV to
    0; a miss fills the lowest empty way, else evicts the lowest way at
    2^m - 1, first aging every way by one until some way gets there; a
    fill starts at 2^m - 2."""
    top = (1 << m) - 1
    sets = [([None] * ways, [0] * ways) for _ in range(num_sets)]
    out = []
    for b in blocks:
        resident, rrpv = sets[b % num_sets]
        if b in resident:
            rrpv[resident.index(b)] = 0
            out.append((True, None))
            continue
        victim = None
        if None in resident:
            way = resident.index(None)
        else:
            while top not in rrpv:
                for w in range(ways):
                    rrpv[w] += 1
            way = rrpv.index(top)
            victim = resident[way]
        resident[way] = b
        rrpv[way] = top - 1
        out.append((False, victim))
    return out


def engine_log(name, blocks, num_sets, ways):
    """The same log, recorded from simulate through the policy's hooks."""
    policy = make_policy(name)
    on_hit, choose_victim, on_insert = policy.on_hit, policy.choose_victim, policy.on_insert
    log, evicted = [], []

    def hit(view, way):
        log.append((True, None))
        on_hit(view, way)

    def victim(view):
        way = choose_victim(view)
        evicted.append(view.tags[way] * num_sets + view.set_index)
        return way

    def insert(view, way):
        log.append((False, evicted.pop() if evicted else None))
        on_insert(view, way)

    policy.on_hit, policy.choose_victim, policy.on_insert = hit, victim, insert
    trace = Trace([MemoryAccess(64 * b) for b in blocks])
    simulate(trace, CacheGeometry(num_sets, ways, 64), policy)
    return log


@st.composite
def cases(draw):
    """A random block trace of 1-300 accesses on 1-16 sets of 1-16 ways,
    over few enough blocks that sets both hit and evict."""
    num_sets = draw(st.sampled_from([1, 2, 4, 8, 16]))
    ways = draw(st.integers(1, 16))
    rnd = draw(st.randoms(use_true_random=False))
    span = rnd.randint(ways, 3 * num_sets * ways)
    return [rnd.randrange(span) for _ in range(rnd.randint(1, 300))], num_sets, ways


@seed(20261018)
@settings(max_examples=EXAMPLES, deadline=None, database=None)
@given(cases())
def _check_lru(case):
    blocks, num_sets, ways = case
    assert engine_log("lru", blocks, num_sets, ways) == lru_stack_model(blocks, num_sets, ways)


@seed(20261018)
@settings(max_examples=EXAMPLES, deadline=None, database=None)
@given(cases(), st.sampled_from([2, 3]))
def _check_srrip(case, m):
    blocks, num_sets, ways = case
    got = engine_log("srrip%d" % m, blocks, num_sets, ways)
    assert got == srrip_model(blocks, num_sets, ways, m)


def test_lru_matches_the_stack_model_access_for_access():
    t0 = time.perf_counter()
    _check_lru()
    elapsed = time.perf_counter() - t0
    assert elapsed < BUDGET_S / 2, "exceeded %.1fs budget (%.1fs)" % (BUDGET_S / 2, elapsed)


def test_srrip_matches_the_rrpv_model_access_for_access():
    t0 = time.perf_counter()
    _check_srrip()
    elapsed = time.perf_counter() - t0
    assert elapsed < BUDGET_S / 2, "exceeded %.1fs budget (%.1fs)" % (BUDGET_S / 2, elapsed)
