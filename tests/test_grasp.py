"""Software-hinted graph replacement: region classification and the
specialized insertion/promotion rules over the dynamic RRIP base."""

import numpy as np
import pytest

from cachelab.engine import CacheGeometry, SetView, SplitMix64, simulate
from cachelab.grasp import GraspConfigError, GraspPolicy, RegionMap
from cachelab.policies import DrripPolicy, make_policy
from cachelab.trace import MemoryAccess, ReuseHint, Trace


CAP = 64 * 16 * 64  # 64 sets x 16 ways x 64B = 65536 bytes


def geom():
    return CacheGeometry(64, 16, 64)


def make_view(states, set_index=0):
    view = SetView(set_index, len(states))
    view.tags[:] = range(len(states))
    view.state[:] = states
    return view


def grasp(variant="full", abrs=((0, 1 << 40),)):
    pol = GraspPolicy(abrs=abrs, variant=variant)
    pol.reset(geom(), SplitMix64(0), Trace([]), [])
    return pol


def hinted(address, hint):
    return MemoryAccess(address, reuse_hint=hint, hint_valid=hint != ReuseHint.DEFAULT)


def reset_on_hints(pol, *hints):
    """Reset pol on a trace of records at address 0 carrying these hints;
    hook calls then read hint i at view.access_index i."""
    pol.reset(geom(), SplitMix64(0), Trace([hinted(0, hint) for hint in hints]), [0] * len(hints))


def at(view, index):
    view.access_index = index
    return view


# -- region classification ----------------------------------------------------

H, M, L = ReuseHint.HIGH, ReuseHint.MODERATE, ReuseHint.LOW


def flat_class(abrs, capacity, address):
    """Reference model: the GRASP class of one address, read straight off
    the declared bounds.  The first capacity // len(abrs) bytes of a
    region are High-Reuse and the next as many Moderate (both cut off at
    the region's end); the rest of it and every other address are
    Low-Reuse, and with no region at all every address is Default."""
    if not abrs:
        return ReuseHint.DEFAULT
    chunk = capacity // len(abrs)
    for start, end in abrs:
        if start <= address < end:
            offset = address - start
            return H if offset < chunk else M if offset < 2 * chunk else L
    return L


def classes(rm, *addresses):
    return [ReuseHint(c) for c in rm.classify(addresses).tolist()]


def test_classify_splits_a_region_into_chunks_of_cache_capacity():
    rm = RegionMap([(0, 10 * CAP)], CAP)
    assert classes(rm, 0, CAP - 1, CAP, 2 * CAP - 1, 2 * CAP, 10 * CAP - 1) == [H, H, M, M, L, L]


def test_classify_outside_every_region_is_low_reuse():
    rm = RegionMap([(1000, 2000)], CAP)
    assert classes(rm, 999, 2000, 1 << 50) == [L, L, L]


def test_classify_with_no_regions_is_default_everywhere():
    rm = RegionMap([], CAP)
    assert classes(rm, 0, 1 << 50) == [ReuseHint.DEFAULT] * 2


def test_classify_chunk_budget_is_split_across_regions():
    r1 = (0, 10 * CAP)
    r2 = (20 * CAP, 30 * CAP)
    rm = RegionMap([r1, r2], CAP)
    half = CAP // 2
    for base in (0, 20 * CAP):
        assert classes(rm, base, base + half - 1, base + half, base + 2 * half) == [H, H, M, L]


def test_classify_chunks_clip_to_small_regions():
    rm = RegionMap([(0, CAP // 2)], CAP)  # region smaller than one chunk
    assert classes(rm, 0, CAP // 2 - 1) == [H, H]
    assert classes(rm, CAP // 2) == [L]  # past the region


@pytest.mark.parametrize("abrs, capacity", [
    ([(0, 10 * CAP)], CAP),  # High, Moderate and Low chunks
    ([(4096, 4096 + CAP // 2)], CAP),  # the chunks clip to a small region
    ([(0, 3 * CAP), (3 * CAP, 4 * CAP), (9 * CAP, 9 * CAP + 100)], CAP),  # regions back to back
    ([(1000, 2000), (5000, 7000)], 1),  # empty High and Moderate chunks
    ([((1 << 64) - 3 * CAP, (1 << 64) - 1)], CAP),  # the top of the address space
    ([], CAP),
])
def test_classify_equals_the_flat_model_at_every_boundary(abrs, capacity):
    """Every region and chunk bound, one byte either side, in a plain
    array and in a record array's strided address column."""
    rm = RegionMap(abrs, capacity)
    chunk = capacity // max(len(abrs), 1)
    bounds = {b for start, end in abrs for b in (start, start + chunk, start + 2 * chunk, end)}
    bounds |= {0, (1 << 64) - 1}
    addresses = sorted({b + d for b in bounds for d in (-1, 0, 1) if 0 <= b + d < 1 << 64})
    want = [flat_class(abrs, capacity, a) for a in addresses]
    records = np.zeros(len(addresses), dtype=[("address", "<u8"), ("pc", "<u2")])
    records["address"] = addresses
    for column in (np.array(addresses, dtype=np.uint64), records["address"]):
        got = rm.classify(column)
        assert got.dtype == np.uint8 and got.tolist() == want


def test_region_map_rejects_bad_and_overlapping_bounds():
    with pytest.raises(GraspConfigError):
        RegionMap([(10, 10)], CAP)
    with pytest.raises(GraspConfigError):
        RegionMap([(-5, 10)], CAP)
    with pytest.raises(GraspConfigError):
        RegionMap([(0, 1000), (500, 2000)], CAP)


# -- insertion ----------------------------------------------------------------


def test_full_variant_insertion_by_class():
    pol = grasp("full", abrs=())  # no regions: hints flow straight from the trace
    for hint, expected in (
        (ReuseHint.HIGH, 0),
        (ReuseHint.MODERATE, 6),
        (ReuseHint.LOW, 7),
    ):
        reset_on_hints(pol, hint)
        view = make_view([0] * 4)
        pol.on_insert(view, 0)
        assert view.state[0] == expected, hint


def test_hints_variant_keeps_high_blocks_just_short_of_eviction():
    pol = grasp("hints", abrs=())
    reset_on_hints(pol, ReuseHint.HIGH, ReuseHint.MODERATE, ReuseHint.LOW)
    view = make_view([0] * 4)
    pol.on_insert(at(view, 0), 0)
    assert view.state[0] == 6
    pol.on_insert(at(view, 1), 1)
    assert view.state[1] == 7
    pol.on_insert(at(view, 2), 2)
    assert view.state[2] == 7


def test_default_class_inserts_like_the_base_policy():
    pol = grasp("full", abrs=())
    a_set = next(s for s, k in pol.duel.kind.items() if k == 0)
    pol.reset(geom(), SplitMix64(0), Trace([MemoryAccess(0)]), [0])
    view = make_view([0] * 4, set_index=a_set)
    pol.on_insert(view, 0)
    assert view.state[0] == 6  # the base's static insertion depth


# -- promotion ----------------------------------------------------------------


def test_full_variant_promotes_moderate_and_low_by_one_step():
    pol = grasp("full", abrs=())
    reset_on_hints(pol, ReuseHint.LOW, ReuseHint.MODERATE, ReuseHint.LOW, ReuseHint.HIGH)
    view = make_view([7, 3, 0, 5])
    pol.on_hit(at(view, 0), 0)
    assert view.state[0] == 6
    pol.on_hit(at(view, 1), 1)
    assert view.state[1] == 2
    pol.on_hit(at(view, 2), 2)
    assert view.state[2] == 0  # already at the top, never below zero
    pol.on_hit(at(view, 3), 3)
    assert view.state[3] == 0  # high reuse goes straight to the top


def test_moderate_block_needs_repeated_hits_to_reach_the_top():
    pol = grasp("full", abrs=())
    reset_on_hints(pol, ReuseHint.MODERATE)
    view = make_view([0] * 4)
    pol.on_insert(view, 0)
    assert view.state[0] == 6
    for expected in (5, 4, 3):
        pol.on_hit(view, 0)
        assert view.state[0] == expected


def test_insert_only_variant_promotes_like_the_base():
    pol = grasp("insert-only", abrs=())
    reset_on_hints(pol, ReuseHint.LOW)
    view = make_view([7])
    pol.on_hit(view, 0)
    assert view.state[0] == 0


# -- end-to-end ----------------------------------------------------------------


def block_trace(ids, block=64):
    return Trace([MemoryAccess(b * block) for b in ids])


def test_without_regions_grasp_is_decision_for_decision_the_base():
    import random

    rng = random.Random(33)
    t = block_trace([rng.randrange(4096) for _ in range(20000)])
    g = geom()
    base = simulate(t, g, DrripPolicy(m=3), seed=7)
    mirrored = simulate(t, g, GraspPolicy(abrs=(), variant="full"), seed=7)
    assert (base.hits, base.misses, base.evictions) == (
        mirrored.hits, mirrored.misses, mirrored.evictions
    )


def test_high_reuse_blocks_are_never_immortal():
    # a set flooded with high-reuse insertions must still evict
    abrs = [(0, 1 << 40)]
    ids = list(range(4096)) * 2
    rm_classify = RegionMap(abrs, CAP).classify
    r = simulate(block_trace(ids), g := geom(), make_policy("grasp", abrs=abrs), classify=rm_classify)
    assert r.evictions > 0
    assert r.misses > g.num_sets * g.ways


def test_baked_hints_must_agree_with_the_region_map():
    pol = grasp("full", abrs=((0, 1 << 30),))
    # address 0 is high-reuse by region, but the record claims low
    with pytest.raises(GraspConfigError):
        reset_on_hints(pol, ReuseHint.LOW)
    # simulate names the first disagreeing address; 0x40 is high-reuse too
    t = Trace([hinted(0, ReuseHint.HIGH), hinted(0x40, ReuseHint.MODERATE),
               hinted(0x80, ReuseHint.LOW)])
    with pytest.raises(GraspConfigError, match="MODERATE disagrees .* HIGH at 0x40$"):
        simulate(t, geom(), make_policy("grasp", abrs=[(0, 1 << 30)]))


def test_variant_names_and_validation():
    assert GraspPolicy(variant="full").name == "grasp"
    assert GraspPolicy(variant="hints").name == "grasp-hints"
    assert GraspPolicy(variant="insert-only").name == "grasp-insert"
    with pytest.raises(GraspConfigError):
        GraspPolicy(variant="both")
