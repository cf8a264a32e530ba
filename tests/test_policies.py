"""Baseline replacement policies: exact single-step behavior and
small end-to-end runs."""

import importlib.util
import os
import random
import sys

import pytest

import cachelab
from cachelab import engine, policies
from cachelab.engine import BYPASS, EVICT, HIT, CacheGeometry, SetView, SplitMix64, simulate
from cachelab.grasp import GraspConfigError
from cachelab.leeway import LeewayLruPolicy
from cachelab.opt import opt_oracle
from cachelab.policies import (
    PINNED,
    POLICY_NAMES,
    BipPolicy,
    BrripPolicy,
    DrripPolicy,
    LruPolicy,
    NruPolicy,
    PinPolicy,
    SetDuel,
    ShipMemPolicy,
    SrripPolicy,
    UnknownPolicyError,
    make_policy,
)
from cachelab.trace import MemoryAccess, PatternSpec, ReuseHint, Trace, generate_pattern


def make_view(states, set_index=0):
    view = SetView(set_index, len(states))
    view.tags[:] = range(len(states))
    view.state[:] = states
    return view


def one_set(ways):
    return CacheGeometry(1, ways, 64)


EMPTY = Trace([])  # a policy reset on no accesses, for hooks called by hand


def block_trace(ids, block=64, hints=None, pcs=None):
    records = []
    for i, b in enumerate(ids):
        hint = hints[i] if hints else ReuseHint.DEFAULT
        records.append(
            MemoryAccess(
                b * block,
                pc_signature=pcs[i] if pcs else 0,
                reuse_hint=hint,
                hint_valid=hint != ReuseHint.DEFAULT,
            )
        )
    return Trace(records)


# -- recency family ---------------------------------------------------------


def test_lru_gets_zero_hits_on_thrash_wider_than_ways():
    t = generate_pattern(PatternSpec("thrash", k=5, n=50))
    r = simulate(t, one_set(4), make_policy("lru"))
    assert r.hits == 0
    assert r.misses == 250


def test_lru_gets_full_hits_on_recency_pattern_within_ways():
    t = generate_pattern(PatternSpec("recency", k=4, n=25))
    r = simulate(t, one_set(4), make_policy("lru"))
    assert r.misses == 4  # cold fills only
    assert r.hits == len(t) - 4


def test_recency_states_stay_a_permutation():
    """view.state is a permutation of the filled ways, so their stack
    depths are a permutation of 1..n, and depths() agrees with depth()
    on a full set; on two leader sets and on one shadow-duelling set."""
    stack = LeewayLruPolicy()  # whose depths are stack positions
    rng = random.Random(17)
    t = Trace([MemoryAccess(64 * rng.randrange(9)) for _ in range(800)])
    for name in ("lru", "lip", "bip", "dip"):
        failures = []

        class Checked(type(make_policy(name))):
            def _check(self, view):
                filled = list(range(len(view.tags)))
                depths = [stack.depth(view, w) for w in filled]
                full = len(filled) == view.ways
                if (sorted(view.state) != filled or sorted(depths) != [w + 1 for w in filled]
                        or full and stack.depths(view) != depths):
                    failures.append(list(view.state))

            def on_insert(self, view, way):
                super().on_insert(view, way)
                self._check(view)

            def on_hit(self, view, way):
                super().on_hit(view, way)
                self._check(view)

        for sets in (2, 1):
            simulate(t, CacheGeometry(sets, 4, 64), Checked(), seed=1)
        assert failures == [], name


class FixedDraws:
    """A stand-in generator whose random() always returns x."""

    def __init__(self, x):
        self.x = x

    def random(self):
        return self.x


def test_recency_fills_and_top_hits_keep_the_stack_order():
    """A fill pops the bottom way only when the way is there: a Leeway
    dead victim taken from mid-stack is refilled to the top with the
    other ways in order; a hit on the top way moves nothing; a BIP MRU
    fill, of a fresh way or of the LRU victim, lands at the top."""
    pol = LeewayLruPolicy(mode="static-bop")
    pol.reset(one_set(4), SplitMix64(0), Trace([MemoryAccess(0)]), [0])
    view = make_view([2, 0, 3, 1])  # way 2 most recently used, way 1 least
    view.meta[:] = [[4, 0, 0], [4, 0, 0], [4, 0, 0], [1, 0, 0]]  # way 3, at depth 3, is dead
    assert pol.choose_victim(view) == 3 and pol.dead_log == [(0, 0, 3)]
    pol._pending_pld = 4
    pol.on_insert(view, 3)
    assert view.state == [3, 2, 0, 1]
    pol.on_hit(view, 3)
    assert view.state == [3, 2, 0, 1]

    lru = LruPolicy()
    lru.on_hit(view, 3)
    assert view.state == [3, 2, 0, 1]
    lru.on_hit(view, 0)
    assert view.state == [0, 3, 2, 1]

    bip = BipPolicy()
    bip.rng = FixedDraws(0.5)  # at or above BIP_EPSILON: an LRU-end fill
    bip.on_insert(view, 1)
    assert view.state == [0, 3, 2, 1]
    bip.rng = FixedDraws(0.0)  # below it: an MRU fill
    bip.on_insert(view, 1)
    assert view.state == [1, 0, 3, 2]
    view = make_view([0, 1, 2])
    view.state.append(3)  # the engine appends a fresh way last
    bip.on_insert(view, 3)
    assert view.state == [3, 0, 1, 2]


def test_a_second_copy_of_the_package_builds_its_own_policies():
    """Every import inside cachelab is relative, so the package loaded
    under another name builds every class of a policy, Leeway's and
    GRASP's included, from its own modules, and runs as the original."""
    root = os.path.dirname(cachelab.__file__)
    spec = importlib.util.spec_from_file_location(
        "cachelab_copy", os.path.join(root, "__init__.py"), submodule_search_locations=[root])
    sys.modules["cachelab_copy"] = clone = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(clone)
        policies = importlib.import_module("cachelab_copy.policies")
        built = {name: policies.make_policy(name) for name in ("leeway-lru", "grasp")}
        for pol in built.values():
            assert all(c.__module__.startswith("cachelab_copy.") for c in type(pol).__mro__[:-1])
        t = generate_pattern(PatternSpec("thrash", k=8, n=40))
        clone_t = clone.trace.generate_pattern(clone.PatternSpec("thrash", k=8, n=40))
        for name, pol in built.items():
            ran = clone.simulate(clone_t, clone.CacheGeometry(2, 4, 64), pol, seed=1)
            assert ran.misses == simulate(t, CacheGeometry(2, 4, 64), make_policy(name), seed=1).misses
    finally:
        for key in [k for k in sys.modules if k.split(".")[0] == "cachelab_copy"]:
            del sys.modules[key]


def test_lip_keeps_early_blocks_and_evicts_the_newcomer_slot():
    # streaming through a full set, LIP inserts at the bottom of the
    # stack, so the next victim is always the block just inserted
    ids = list(range(10)) + [0, 1, 2, 9, 5]
    r = simulate(block_trace(ids), one_set(4), make_policy("lip"))
    # residents after the stream: 0,1,2 (cold fill) and 9 (last insert)
    assert r.hits == 4
    assert r.misses == 11


def test_bip_survives_thrash_where_lru_cannot():
    t = generate_pattern(PatternSpec("thrash", k=5, n=200))
    lru = simulate(t, one_set(4), make_policy("lru"), seed=3)
    bip = simulate(t, one_set(4), make_policy("bip"), seed=3)
    assert lru.hits == 0
    assert bip.hits > 0


def test_dip_single_set_duels_with_shadow_directories():
    t = generate_pattern(PatternSpec("thrash", k=5, n=400))
    dip = simulate(t, one_set(4), make_policy("dip"), seed=3)
    assert dip.hits > 0  # converged to the bimodal side


def test_a_shadow_duel_keeps_its_static_side_run_as_that_side_reports_it():
    """A one-set duel keeps side a's shadow column: the report _report
    builds from it is the one a run of a policy of a's class and name
    gives, at any seed.  A duel on leader sets runs no shadow and keeps
    nothing."""
    t = generate_pattern(PatternSpec("thrash", k=24, n=50))
    for name, side in (("dip", LruPolicy), ("drrip2", SrripPolicy), ("drrip3", SrripPolicy),
                       ("pin25", SrripPolicy), ("grasp", SrripPolicy)):
        duel = make_policy(name)
        simulate(t, one_set(16), duel, seed=4)
        static = make_policy(duel.a.name)
        assert type(duel.a) is type(static) is side
        assert engine._report(static, one_set(16), 9, t, duel.kept) == simulate(
            t, one_set(16), make_policy(duel.a.name), seed=9)
        simulate(t, CacheGeometry(2, 16, 64), duel, seed=4)
        assert duel.kept is None


def test_a_reused_policy_reports_as_a_fresh_one():
    """A dueling policy reused across a shadow-set cache and a leader-set
    cache reports what new ones do."""
    rng = random.Random(5)
    t = Trace([MemoryAccess(64 * rng.randrange(1200)) for _ in range(6000)])
    geometries = [one_set(4), CacheGeometry(128, 4, 64), one_set(4)]  # 128 sets have followers
    for name in ("dip", "drrip2", "grasp", "pin50", "leeway-lru"):
        reused = make_policy(name)
        for geom in geometries:
            assert simulate(t, geom, reused, seed=2) == simulate(t, geom, make_policy(name), seed=2)


# -- set dueling ------------------------------------------------------------


def leaders(duel):
    """The first leader set of each side."""
    return [next(s for s, k in duel.kind.items() if k == side) for side in (0, 1)]


def test_set_duel_selector_starts_one_below_mid_and_favors_a():
    duel = SetDuel(128)
    a_set, b_set = leaders(duel)
    assert duel.mid == 512
    assert duel.psel == 511
    assert duel.winner() == 0
    duel.miss(a_set)
    assert duel.psel == 512
    assert duel.winner() == 1
    duel.miss(b_set)
    duel.miss(b_set)
    assert duel.psel == 510
    assert duel.winner() == 0


def test_set_duel_selector_saturates():
    duel = SetDuel(128)
    a_set, b_set = leaders(duel)
    for _ in range(3000):
        duel.miss(a_set)
    assert duel.psel == duel.psel_max == 1023
    for _ in range(3000):
        duel.miss(b_set)
    assert duel.psel == 0


@pytest.mark.parametrize("seed", [3, 10])
def test_set_duel_replay_matches_the_per_access_votes(seed):
    """replay walks PSEL on locals; it must give the winner after every
    access and the final psel that leader misses give one access at a
    time.  Each run starts PSEL next to one end of its 0..1023 range,
    in turn, so the vectors' runs hit both ends.  The vectors are outcome
    columns: a miss is any code but HIT (a free fill, a bypass or an
    evicting fill), so a vote that read the bytes as bools would differ."""
    rng, seen = random.Random(seed), set()
    for run in range(40):
        n = rng.randrange(1, 600)
        a_miss, b_miss = rng.random(), rng.random()
        a_out, b_out = (bytes(rng.choice((0, BYPASS, EVICT)) if rng.random() < miss else HIT
                              for _ in range(n)) for miss in (a_miss, b_miss))
        start = 1 if run % 2 else SetDuel.psel_max - 1
        votes = SetDuel(2)  # set 0 leads for a, set 1 for b
        votes.psel = start
        expected = bytearray()
        for a, b in zip(a_out, b_out):
            if a != HIT:
                votes.miss(0)
            if b != HIT:
                votes.miss(1)
            expected.append(votes.winner() == 1)
            seen.add(votes.psel)
        duel = SetDuel(1)
        duel.psel = start
        assert duel.replay(a_out, b_out) == expected
        assert duel.psel == votes.psel
    assert {0, SetDuel.psel_max} <= seen


def test_set_duel_leaders_are_disjoint_and_balanced():
    duel = SetDuel(128)
    a = [s for s, k in duel.kind.items() if k == 0]
    b = [s for s, k in duel.kind.items() if k == 1]
    assert len(a) == len(b) == 32
    assert not set(a) & set(b)
    assert all(0 <= s < 128 for s in a + b)
    assert duel.kind.get(a[0]) == 0
    follower = next(s for s in range(128) if s not in duel.kind)
    assert duel.kind.get(follower) is None
    assert duel.miss(follower) == duel.winner()


def test_set_duel_single_set_falls_back_to_shadow_mode():
    duel = SetDuel(1)
    assert duel.shadow
    assert duel.kind == {}
    assert not SetDuel(128).shadow


def test_set_duel_leader_miss_votes_against_its_own_side():
    duel = SetDuel(128)
    a_set, b_set = leaders(duel)
    before = duel.psel
    assert duel.miss(a_set) == 0
    assert duel.psel == before + 1
    assert duel.miss(b_set) == 1
    assert duel.psel == before


# -- NRU --------------------------------------------------------------------


def test_nru_inserts_and_promotes_to_class_zero():
    pol = NruPolicy()
    pol.reset(one_set(4), SplitMix64(0), EMPTY, [])
    view = make_view([1, 1, 1, 1])
    pol.on_insert(view, 2)
    assert view.state[2] == 0
    view.state[1] = 1
    pol.on_hit(view, 1)
    assert view.state[1] == 0


def test_nru_evicts_only_from_the_maximum_class():
    pol = NruPolicy()
    pol.reset(one_set(4), SplitMix64(5), EMPTY, [])
    for _ in range(100):
        view = make_view([1, 0, 1, 0])
        assert pol.choose_victim(view) in (0, 2)
    view = make_view([0, 0, 1, 0])
    assert pol.choose_victim(view) == 2


def test_nru_ages_everyone_when_no_block_is_at_the_maximum():
    pol = NruPolicy()
    pol.reset(one_set(3), SplitMix64(9), EMPTY, [])
    victims = set()
    for _ in range(30):
        view = make_view([0, 0, 0])
        victims.add(pol.choose_victim(view))
        assert view.state == [1, 1, 1]  # aged by one: every way reaches class 1
    assert victims == {0, 1, 2}  # the victim is drawn among them


def test_nru_tie_break_is_reproducible_per_seed():
    def picks(seed):
        pol = NruPolicy()
        pol.reset(one_set(4), SplitMix64(seed), EMPTY, [])
        return [pol.choose_victim(make_view([1, 1, 1, 1])) for _ in range(20)]

    assert picks(4) == picks(4)
    assert len(set(picks(4))) > 1  # actually randomizes across ties


# -- RRIP family ------------------------------------------------------------


def test_srrip3_inserts_at_long_interval_and_promotes_to_zero():
    pol = SrripPolicy(m=3)
    assert pol.rrpv_max == 7
    view = make_view([0, 0, 0, 0])
    pol.on_insert(view, 1)
    assert view.state[1] == 6
    pol.on_hit(view, 1)
    assert view.state[1] == 0


def test_rrip_victim_takes_lowest_way_at_max():
    view = make_view([7, 3, 7, 0])
    assert SrripPolicy(m=3).choose_victim(view) == 0


def test_rrip_victim_ages_until_a_block_reaches_max():
    view = make_view([5, 3, 6, 0])
    assert SrripPolicy(m=3).choose_victim(view) == 2
    assert view.state == [6, 4, 7, 1]


def test_brrip_inserts_mostly_at_max():
    pol = BrripPolicy(m=3)
    pol.reset(one_set(4), SplitMix64(2), EMPTY, [])
    states = []
    view = make_view([0, 0, 0, 0])
    for _ in range(3200):
        pol.on_insert(view, 0)
        states.append(view.state[0])
    assert set(states) == {6, 7}
    near = states.count(6)
    assert 40 <= near <= 200  # epsilon is 1/32


def test_drrip_leaders_insert_their_own_constituency():
    geom = CacheGeometry(128, 4, 64)
    pol = DrripPolicy(m=3)
    pol.reset(geom, SplitMix64(0), EMPTY, [])
    a_set, b_set = leaders(pol.duel)
    follower = next(s for s in range(128) if s not in pol.duel.kind)

    view = make_view([0, 0, 0, 0], set_index=a_set)
    pol.on_insert(view, 0)
    assert view.state[0] == 6  # static long-interval insertion

    states = set()
    for _ in range(200):
        view = make_view([0, 0, 0, 0], set_index=b_set)
        pol.on_insert(view, 0)
        states.add(view.state[0])
    assert states == {6, 7}  # bimodal insertion

    pol.duel.psel = 0  # force winner a
    view = make_view([0, 0, 0, 0], set_index=follower)
    pol.on_insert(view, 0)
    assert view.state[0] == 6
    pol.duel.psel = pol.duel.psel_max  # force winner b
    mostly_max = 0
    for _ in range(200):
        view = make_view([0, 0, 0, 0], set_index=follower)
        pol.on_insert(view, 0)
        mostly_max += view.state[0] == 7
    assert mostly_max > 150


def test_drrip_leader_miss_votes_against_its_side():
    geom = CacheGeometry(128, 4, 64)
    pol = DrripPolicy(m=3)
    pol.reset(geom, SplitMix64(0), EMPTY, [])
    a_set, _ = leaders(pol.duel)
    before = pol.duel.psel
    view = make_view([0, 0, 0, 0], set_index=a_set)
    pol.on_insert(view, 0)  # the leader's fill casts its vote
    assert pol.duel.psel == before + 1


def test_pin100_bypassed_leader_miss_still_votes():
    """Four HIGH fills pin every way of a pin100 leader set; the fifth
    miss is bypassed and still votes against the set's side."""
    geom = CacheGeometry(128, 4, 64)
    a_set, _ = leaders(SetDuel(128))
    ids = [b * 128 + a_set for b in range(5)]
    pol = PinPolicy(100)
    psel = []
    pol.decide_insert = lambda view: psel.append(pol.duel.psel) or PinPolicy.decide_insert(
        pol, view)
    r = simulate(block_trace(ids, hints=[ReuseHint.HIGH] * 5), geom, pol)
    assert (r.misses, r.bypasses) == (5, 1)
    assert psel == [511, 512, 513, 514, 515]  # four fills voted before the fifth miss
    assert pol.duel.psel == 516  # and the bypassed fifth miss voted too


# -- SHiP over memory regions ------------------------------------------------


class RecordingShip(ShipMemPolicy):
    def __init__(self):
        super().__init__()
        self.inserted = []

    def on_insert(self, view, way):
        super().on_insert(view, way)
        self.inserted.append(view.state[way])


def test_ship_inserts_at_max_once_a_region_decays_and_backs_off_after_reuse():
    pol = RecordingShip()
    ids = [0, 1, 2] + [2] * 7 + [3]
    simulate(block_trace(ids), one_set(2), pol)
    # blocks 0 and 1 insert one step short of max (fresh counter), the
    # eviction of never-reused 0 decays the region so 2 inserts at max,
    # then seven hits on 2 saturate the counter and 3 inserts short again
    assert pol.inserted == [6, 6, 7, 6]


def test_ship_counters_are_per_region():
    pol = RecordingShip()
    # exhaust region 0's counter, then insert from untouched region 1
    ids = [0, 1, 2, 3, 16384 // 64]
    simulate(block_trace(ids), one_set(2), pol)
    assert pol.inserted[-2] == 7  # region 0 decayed to zero
    assert pol.inserted[-1] == 6  # region 1 still fresh


def test_ship_oscillates_with_reuse():
    pol = RecordingShip()
    # dead evictions pull the counter to zero, hits push it back up
    ids = [0, 1, 2, 2, 3, 3, 4, 4, 5]
    simulate(block_trace(ids), one_set(2), pol)
    assert 7 in pol.inserted and 6 in pol.inserted


# -- pinning ----------------------------------------------------------------


def test_pin_reserves_the_stated_share_of_ways():
    """ways x percent / 100 ways, a half rounded up: pin25 reserves one
    of two ways and pin50 the one way of a 1-way cache."""
    pol = PinPolicy(50)
    pol.reset(CacheGeometry(4, 16, 64), SplitMix64(0), EMPTY, [])
    assert pol.reserved == 8
    for percent, ways, expected in (
            (25, 16, 4), (75, 16, 12), (100, 16, 16), (25, 2, 1), (25, 6, 2), (25, 10, 3),
            (25, 14, 4), (25, 3, 1), (25, 5, 1), (50, 1, 1), (50, 3, 2), (50, 5, 3),
            (50, 13, 7), (75, 2, 2), (75, 6, 5), (75, 14, 11), (100, 1, 1)):
        p = PinPolicy(percent)
        p.reset(CacheGeometry(4, ways, 64), SplitMix64(0), EMPTY, [])
        assert p.reserved == expected, (percent, ways)


def test_pinned_blocks_survive_a_long_unhinted_stream():
    high = [ReuseHint.HIGH, ReuseHint.HIGH]
    ids = [100, 101] + list(range(50)) + [100, 101]
    hints = high + [ReuseHint.DEFAULT] * 50 + [ReuseHint.DEFAULT] * 2
    r = simulate(block_trace(ids, hints=hints), one_set(4), make_policy("pin50"))
    assert r.hits == 2  # both pinned blocks still resident at the end
    assert r.bypasses == 0


def test_pin100_bypasses_everything_once_the_set_is_fully_pinned():
    high = [ReuseHint.HIGH] * 4
    ids = [0, 1, 2, 3, 50, 51, 52, 0]
    hints = high + [ReuseHint.DEFAULT, ReuseHint.LOW, ReuseHint.HIGH, ReuseHint.DEFAULT]
    r = simulate(block_trace(ids, hints=hints), one_set(4), make_policy("pin100"))
    assert r.bypasses == 3  # default, low, and even further high traffic
    assert r.hits == 1  # pinned block 0 is still there
    assert r.evictions == 0


def test_pin_beyond_reservation_inserts_unpinned():
    high = [ReuseHint.HIGH] * 3
    ids = [0, 1, 2] + list(range(10, 60)) + [2]
    hints = high + [ReuseHint.DEFAULT] * 51
    r = simulate(block_trace(ids, hints=hints), one_set(4), make_policy("pin25"))
    # reservation is 1 way, so only block 0 was pinned; block 2 competed
    # with the stream on the unpinned ways and is long gone
    assert r.hits == 0


def pin_way_zero(states):
    """A pin25 policy on one set with these RRPVs, after a High-Reuse
    fill of way 0 has pinned it."""
    pol = PinPolicy(25)
    pol.reset(one_set(len(states)), SplitMix64(0), block_trace([0], hints=[ReuseHint.HIGH]), [0])
    view = make_view(states)
    assert pol.decide_insert(view)
    pol.on_insert(view, 0)
    assert view.state.count(PINNED) == 1
    return pol, view


def test_pinned_way_is_neither_the_victim_nor_aged_to_the_max():
    pol, view = pin_way_zero([7, 5, 6, 0])
    # way 0 is never a candidate, so aging proceeds until way 2 reaches the max
    assert pol.choose_victim(view) == 2
    assert view.state[1:] == [6, 7, 1]
    assert view.state[0] < 0


def test_a_hit_on_a_pinned_way_leaves_it_pinned():
    pol, view = pin_way_zero([7, 5, 6, 0])
    pinned = view.state[0]
    pol.on_hit(view, 0)
    assert view.state[0] == pinned
    view.state[1:] = [0, 0, 0]
    assert pol.choose_victim(view) == 1
    pol.on_hit(view, 1)
    assert view.state[:2] == [pinned, 0]


def test_pin_zero_reserves_nothing():
    pol = PinPolicy(0)
    pol.reset(one_set(4), SplitMix64(0), EMPTY, [])
    assert pol.reserved == 0
    with pytest.raises(ValueError):
        PinPolicy(101)


# -- registry ----------------------------------------------------------------


def test_make_policy_rejects_unknown_and_unsupported_names():
    for bad in ("clock", "nru0", "nru5", "srrip1", "srrip4", "brrip9",
                "drrip4", "pin10", "pin0", "leeway-nru5", "leeway-static-xyz",
                "nru2", "nru4", "leeway-nru2"):
        with pytest.raises(UnknownPolicyError):
            make_policy(bad)


def test_every_registry_name_builds_and_reports_its_own_name():
    for name in POLICY_NAMES:
        if name == "opt":
            continue
        pol = make_policy(name)
        assert pol.name == name


def test_registry_has_no_duplicates():
    assert len(POLICY_NAMES) == len(set(POLICY_NAMES))
    assert "opt" in POLICY_NAMES


def test_every_policy_runs_on_an_empty_and_a_one_access_trace():
    """The one reset call copes with no access and with one, on a single
    one-way set and on 256 sets of 16 ways: every registry name, the
    offline oracle included, misses once per access and evicts nothing."""
    for trace in (Trace([]), Trace([MemoryAccess(0x1240, pc_signature=3)])):
        for geom in (CacheGeometry(1, 1, 64), CacheGeometry(256, 16, 64)):
            for name in POLICY_NAMES:
                r = (opt_oracle(trace, geom) if name == "opt"
                     else simulate(trace, geom, make_policy(name), seed=1))
                assert (r.accesses, r.hits, r.misses, r.bypasses, r.evictions) == (
                    len(trace), 0, len(trace), 0, 0), (name, len(trace), geom)


def test_grasp_rejects_a_disagreeing_hint_before_any_shadow_run(monkeypatch):
    """On one set the duel's sides run as shadows inside reset; GRASP
    checks the trace's baked hints against its regions first, so a
    rejected trace starts no shadow run, while an agreeing one does."""
    def no_shadow_run(*args):
        raise AssertionError("a shadow run_policy call")

    monkeypatch.setattr(policies, "run_policy", no_shadow_run)
    abrs = [(0, 1 << 20)]  # address 0 leads the region: High-Reuse
    with pytest.raises(GraspConfigError, match="LOW disagrees"):
        simulate(block_trace([0], hints=[ReuseHint.LOW]), one_set(4), make_policy("grasp", abrs))
    with pytest.raises(AssertionError, match="shadow run_policy"):
        simulate(block_trace([0], hints=[ReuseHint.HIGH]), one_set(4), make_policy("grasp", abrs))
