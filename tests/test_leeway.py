"""Live-distance dead-block prediction: predictor table transitions,
dead-first victim selection, sampler/follower split, and dueling."""

import pytest

from cachelab.engine import CacheGeometry, SetView, SplitMix64, simulate
from cachelab.graphs import apply_remap, dbg_reorder, gen_graph_trace, synth_powerlaw
from cachelab.leeway import BOP, ROP, LeewayLruPolicy, LeewayNruPolicy, LeewayPolicy
from cachelab.policies import POLICY_NAMES, RandomPolicy, make_policy
from cachelab.trace import MemoryAccess, PatternSpec, Trace, generate_pattern


def leeway(mode="static-bop", base=LeewayLruPolicy, sets=1, ways=4, trace=Trace([]), **kw):
    """A policy reset on trace; hooks called by hand read its PCs."""
    pol = base(mode=mode, **kw)
    pol.reset(CacheGeometry(sets, ways, 64), SplitMix64(0), trace, [0] * len(trace))
    return pol


def make_view(pol, blocks, set_index=0):
    """A full LRU-based set; blocks holds (stack position, predicted
    distance, pc) per way, position 0 being the most recently used."""
    view = SetView(set_index, len(blocks))
    for way, (pos, pld, pc) in enumerate(blocks):
        view.tags.append(way)
        view.meta.append([pld, 0, pc])
    # the recency stack: ways most recently used first, ties by way
    view.state[:] = sorted(range(len(blocks)), key=lambda way: blocks[way][0])
    return view


def block_trace(ids, pc=0):
    return Trace([MemoryAccess(64 * b, pc_signature=pc) for b in ids])


PC7 = Trace([MemoryAccess(0, pc_signature=7)])  # one access, from PC 7


# -- predictor table ----------------------------------------------------------


def test_bypass_oriented_raise_needs_seven_confirmations():
    pol = leeway("static-bop")
    pol.stable[0][9] = 0
    for _ in range(6):
        pol._ldpt_update(0, 9, 3)
        assert pol.stable_distance(9, 0) == 0
    pol._ldpt_update(0, 9, 3)
    assert pol.stable_distance(9, 0) == 3


def test_bypass_oriented_lowers_on_a_single_observation():
    pol = leeway("static-bop")
    pol.stable[0][9] = 3
    pol._ldpt_update(0, 9, 0)
    assert pol.stable_distance(9, 0) == 0


def test_reuse_oriented_raises_on_a_single_observation():
    pol = leeway("static-rop")
    pol.stable[0][9] = 0
    pol._ldpt_update(0, 9, 2)
    assert pol.stable_distance(9, 0) == 2


def test_reuse_oriented_lower_needs_seven_confirmations():
    pol = leeway("static-rop")
    pol.stable[0][9] = 3
    for _ in range(6):
        pol._ldpt_update(0, 9, 1)
        assert pol.stable_distance(9, 0) == 3
    pol._ldpt_update(0, 9, 1)
    assert pol.stable_distance(9, 0) == 1


def test_matching_observation_resets_the_streak():
    pol = leeway("static-bop")
    pol.stable[0][9] = 0
    for _ in range(6):
        pol._ldpt_update(0, 9, 3)
    pol._ldpt_update(0, 9, 0)  # agrees with stable, streak restarts
    for _ in range(6):
        pol._ldpt_update(0, 9, 3)
        assert pol.stable_distance(9, 0) == 0
    pol._ldpt_update(0, 9, 3)
    assert pol.stable_distance(9, 0) == 3


def test_direction_change_restarts_the_streak():
    pol = leeway("static-vtt7", ways=8)
    pol.stable[0][9] = 4
    for _ in range(6):
        pol._ldpt_update(0, 9, 6)
    pol._ldpt_update(0, 9, 2)  # opposite direction
    for _ in range(6):
        pol._ldpt_update(0, 9, 6)
        assert pol.stable_distance(9, 0) == 4
    pol._ldpt_update(0, 9, 6)
    assert pol.stable_distance(9, 0) == 6


def test_stable_distance_starts_at_the_ceiling():
    assert leeway("dynamic", ways=16).stable_distance(123, BOP) == 16
    pol = leeway("dynamic", base=LeewayNruPolicy)
    assert pol.stable_distance(123, BOP) == 2
    assert leeway("static-bop", ways=8).stable_distance(0, 0) == 8


# -- victim selection ---------------------------------------------------------


def test_dead_block_wins_over_the_base_victim():
    pol = leeway("static-bop", ways=4)
    view = make_view(pol, [
        (3, 0, 99), (2, 3, 99), (1, 3, 99), (0, 3, 99),
    ])
    assert pol.choose_victim(view) == 0
    assert pol.dead_log == [(0, 0, 0)]  # logged dead: access 0, set 0, way 0's tag


def test_dead_tie_breaks_on_lowest_predicted_then_deepest():
    pol = leeway("static-bop", ways=4)
    # way 0 depth 4 > pld 1, way 1 depth 3 > pld 1: same predicted
    # distance, the deeper block goes first
    view = make_view(pol, [
        (3, 1, 99), (2, 1, 99), (1, 3, 99), (0, 3, 99),
    ])
    assert pol.choose_victim(view) == 0
    # a strictly smaller predicted distance wins even when shallower
    view = make_view(pol, [
        (3, 2, 99), (2, 0, 99), (1, 3, 99), (0, 3, 99),
    ])
    assert pol.choose_victim(view) == 1


def test_no_dead_block_falls_back_to_base_lru_depth():
    pol = leeway("static-bop", ways=4)
    view = make_view(pol, [
        (1, 9, 99), (3, 9, 99), (0, 9, 99), (2, 9, 99),
    ])
    assert pol.choose_victim(view) == 1  # deepest position
    assert pol.dead_log == []


def test_victim_feedback_trains_the_predictor():
    pol = leeway("static-bop", ways=4)
    view = make_view(pol, [
        (3, 9, 11), (2, 9, 99), (1, 9, 99), (0, 9, 99),
    ])
    view.meta[0][1] = 2  # observed live distance of way 0
    pol.choose_victim(view)
    # observed live distance 2 under a fresh ceiling of 4: one
    # observation is enough in the lowering direction
    assert pol.stable_distance(11, 0) == 2


# -- hit bookkeeping ----------------------------------------------------------


def test_hit_depth_is_counted_from_one():
    class DepthProbe(LeewayLruPolicy):
        def __init__(self, **kw):
            super().__init__(**kw)
            self.depths = []

        def on_hit(self, view, way):
            self.depths.append(self.depth(view, way))
            super().on_hit(view, way)

    pol = DepthProbe(mode="static-bop")
    # each hit promotes, so block 0 is re-found at positions 1, 2, 3
    simulate(block_trace([0, 0, 1, 0, 2, 3, 0]), CacheGeometry(1, 8, 64), pol)
    assert pol.depths == [1, 2, 3]


def test_hit_updates_observed_distance_in_sampler_sets_only():
    pol = leeway("dynamic", sets=4, ways=4, sampler_sets=1)
    assert pol.sampler_bank == {0: BOP, 2: ROP}
    for set_index, expect_ld in ((0, 3), (1, 0)):
        view = make_view(
            pol,
            [(2, 1, 5), (0, 9, 99), (1, 9, 99), (3, 9, 99)],
            set_index=set_index,
        )
        pol.on_hit(view, 0)
        pld, ld, _ = view.meta[0]
        assert ld == expect_ld  # live distance trains on samplers only
        assert pld == 3  # per-block predicted distance grows everywhere
        assert pol.depth(view, 0) == 1  # promoted to the top of the stack


# -- insertion and bypass ------------------------------------------------------


def test_insert_places_the_block_on_top_and_renumbers():
    pol = leeway("static-bop", ways=4, trace=PC7)
    view = make_view(pol, [(0, 9, 1), (1, 9, 2), (2, 9, 3), (0, 9, 4)])
    pol._pending_pld = 2
    pol.on_insert(view, 3)
    pld, _, pc = view.meta[3]
    assert (pol.depth(view, 3), pld, pc) == (1, 2, 7)
    assert sorted(pol.depths(view)) == [1, 2, 3, 4]


def test_follower_bypasses_zero_distance_pcs_and_samplers_retrain():
    pol = leeway("dynamic", sets=4, ways=4, sampler_sets=1, trace=PC7)
    pol.stable[BOP][7] = 0
    pol.duel.psel = pol.duel.mid - 1  # PSEL below its midpoint: BOP governs followers
    follower = make_view(pol, [(0, 9, 9)] * 4, set_index=1)
    assert not pol.decide_insert(follower)
    # a sampler set sometimes lets one through to keep learning
    pol.retrain[BOP] = 1.0
    sampler = make_view(pol, [(0, 9, 9)] * 4, set_index=0)
    assert pol.decide_insert(sampler)
    assert pol._pending_pld == 0  # retraining fill arrives marked dead-on-arrival


def test_positive_stable_distance_inserts_with_that_prediction():
    pol = leeway("dynamic", sets=4, ways=4, sampler_sets=1, trace=PC7)
    pol.stable[BOP][7] = 3
    pol.duel.psel = pol.duel.mid - 1  # PSEL below its midpoint: BOP governs followers
    view = make_view(pol, [(0, 9, 9)] * 4, set_index=1)
    assert pol.decide_insert(view)
    assert pol._pending_pld == 3


def test_bypasses_show_up_in_the_report():
    t = block_trace(list(range(20)), pc=5)
    r = simulate(t, CacheGeometry(1, 2, 64), LeewayLruPolicy(mode="static-bop"))
    # the first eviction of a never-reused block drops the stable
    # distance for this stream's only signature to zero; nearly every
    # later fill is then declined
    assert r.bypasses >= 10
    assert r.hits == 0
    assert r.misses == 20


# -- dead log ------------------------------------------------------------------


def test_dead_log_names_each_evicted_victim_and_only_leeway_keeps_one():
    """On a small pull trace (a DBG-ordered power-law graph's gathers),
    each leeway-lru dead_log entry (i, s, tag) names a tag resident in
    set s before access i and gone after it, the log is as long as the
    report's dead_predicted_evictions, and every name outside Leeway
    ends its run with the empty dead_log."""
    g = synth_powerlaw(300, 6, seed=3)
    trace, abrs = gen_graph_trace(apply_remap(g, dbg_reorder(g)))
    geom = CacheGeometry(4, 4, 64)
    pol = LeewayLruPolicy()
    before, after = {}, {}
    decide_insert, on_insert = pol.decide_insert, pol.on_insert

    def logged_decide(view):  # a victim is taken only on a miss that inserts
        before[view.access_index] = (view.set_index, list(view.tags))
        return decide_insert(view)

    def logged_insert(view, way):  # the engine has put the incoming tag in
        after[view.access_index] = list(view.tags)
        on_insert(view, way)

    pol.decide_insert, pol.on_insert = logged_decide, logged_insert
    report = simulate(trace, geom, pol, seed=1)
    assert len(pol.dead_log) == report.dead_predicted_evictions > 0
    for i, s, tag in pol.dead_log:
        assert before[i][0] == s and tag in before[i][1] and tag not in after[i], (i, s, tag)
    for name in POLICY_NAMES:
        if name != "opt" and not name.startswith("leeway"):
            other = make_policy(name, abrs=abrs)
            assert simulate(trace, geom, other, seed=1).dead_predicted_evictions == 0, name
            assert other.dead_log == (), name


# -- dueling -------------------------------------------------------------------


def test_sampler_misses_vote_on_psel_and_followers_read_the_winner():
    pol = leeway("dynamic", sets=4, ways=4, sampler_sets=1, trace=PC7)
    bop_sampler, rop_sampler, follower = (
        make_view(pol, [(0, 9, 9)] * 4, set_index=s) for s in (0, 2, 1))
    mid = pol.duel.mid
    assert pol.duel.psel == mid - 1 and pol.duel.winner() == BOP  # BOP governs first
    pol.decide_insert(bop_sampler)  # a BOP miss moves PSEL toward ROP
    assert pol.duel.psel == mid and pol.duel.winner() == ROP
    pol.stable[ROP][7], pol.stable[BOP][7] = 0, 3
    assert not pol.decide_insert(follower)  # the follower predicts with ROP's table
    assert pol.duel.psel == mid  # and casts no vote
    pol.decide_insert(rop_sampler)  # a ROP miss moves it back
    assert pol.duel.psel == mid - 1 and pol.duel.winner() == BOP
    assert pol.decide_insert(follower) and pol._pending_pld == 3


def test_single_set_cache_disables_the_duel():
    pol = leeway("dynamic", sets=1, ways=4)
    assert pol.duel.shadow
    assert pol.sampler_bank == {0: BOP}


def test_static_mode_samples_every_set_up_to_the_budget():
    pol = leeway("static-bop", sets=4, ways=4)
    assert pol.sampler_bank == {0: 0, 1: 0, 2: 0, 3: 0}
    pol = LeewayLruPolicy(mode="static-bop", sampler_sets=2)
    pol.reset(CacheGeometry(8, 4, 64), SplitMix64(0), Trace([]), [])
    assert pol.sampler_bank == {0: 0, 4: 0}


# -- configuration -------------------------------------------------------------


def test_constructor_rejects_bad_base_and_mode():
    class LeewayRandomPolicy(LeewayPolicy, RandomPolicy):
        """A base with no depths to count live distances in."""

    with pytest.raises(AttributeError):
        leeway(base=LeewayRandomPolicy)
    with pytest.raises(ValueError):
        LeewayLruPolicy(mode="adaptive")


@pytest.mark.parametrize("mode", ["dynamic", "static-bop"])
def test_constructor_rejects_fewer_than_one_sampler_set(mode):
    for count in (0, -1):
        with pytest.raises(ValueError):
            LeewayLruPolicy(mode=mode, sampler_sets=count)
    assert leeway(mode, sets=8, sampler_sets=1).sampler_bank == (
        {0: BOP, 4: ROP} if mode == "dynamic" else {0: BOP})


def test_names_follow_base_and_mode():
    assert LeewayLruPolicy(mode="dynamic").name == "leeway-lru"
    assert LeewayNruPolicy(mode="dynamic").name == "leeway-nru1"
    assert LeewayLruPolicy(mode="static-rop").name == "leeway-static-rop"
    assert LeewayNruPolicy(mode="static-rop").name == "leeway-nru1-static-rop"


def test_untrained_predictor_never_hurts_a_cache_friendly_run():
    t = generate_pattern(PatternSpec("recency", k=4, n=50))
    r = simulate(t, CacheGeometry(1, 8, 64), LeewayLruPolicy(mode="dynamic"))
    assert r.misses == 4
    assert r.bypasses == 0


def test_leeway_over_nru_misses_less_than_nru_on_a_dbg_graph_trace():
    # a hit must count as a depth of at least 1: were it 0, the value
    # reserved for a block never re-referenced, every NRU hit at class 0
    # would train its PC toward bypassing, and Leeway would miss more
    g = synth_powerlaw(4000, 8, seed=42)
    trace, _ = gen_graph_trace(apply_remap(g, dbg_reorder(g)))
    geom = CacheGeometry(16, 16, 64)
    nru, leeway_nru = (simulate(trace, geom, make_policy(name), seed=1)
                       for name in ("nru1", "leeway-nru1"))
    assert leeway_nru.misses < nru.misses, (leeway_nru.misses, nru.misses)
