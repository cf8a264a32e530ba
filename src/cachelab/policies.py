"""Baseline replacement policies and the policy name registry.

Families:
  recency   LRU, LIP, BIP over the set's recency stack, its ways most
            recently used first; they differ only in where a fill enters
  rrip      SRRIP, BRRIP over m-bit re-reference prediction values, and
            k-bit Not-Recently-Used as k-bit RRIP that fills at 0
  duel      DIP (LRU against BIP) and DRRIP (SRRIP against BRRIP), one
            set-dueling wrapper over two base policies
  ship-mem  RRIP with memory-region reuse counters trained on sampler sets
  pin       reserves ways for high-reuse-hinted blocks over a base policy
  random    uniform random victim

NRU is RRIP's aging with a random tie (Jaleel et al., ISCA 2010): it
draws among the ways at the top class from the run's seeded generator,
where SRRIP and BRRIP take the lowest.  BIP's 1/32 throttle and the
10-bit PSEL are those of Qureshi et al. (ISCA 2007).

SRRIP resists scans but not thrashing: like LRU, on a cyclic loop larger
than a set it evicts every block before its reuse and scores zero hits.
BIP/DIP and BRRIP/DRRIP exist for such loops; their rare long-lived
insertions keep a hittable subset.  AC-5 checks both sides of this on a
32-block loop in one 16-way set.
"""

from copy import copy
from functools import partial

from cachelab.engine import Policy, SplitMix64, run_policy
from cachelab.trace import ReuseHint

BIP_EPSILON = 1.0 / 32.0
LEADER_SETS = 32
PSEL_BITS = 10
SHIP_REGION_BYTES = 16384
SHIP_COUNTER_MAX = 7  # 3-bit region counters
SHIP_COUNTER_INIT = 1
SHIP_SAMPLER_SETS = 64


def sampler_layout(num_sets, count):
    """Indexes of min(count, num_sets) sampler sets, evenly strided."""
    n = min(count, num_sets)
    stride = max(1, num_sets // n)
    return [i * stride for i in range(n)]


class SetDuel:
    """Two-constituency set dueling with a saturating selector.

    Leader sets are sampler_layout's strided sets, alternately a's and
    b's, and always run their own constituency's policy; a miss in a
    leader set votes against that constituency.  Followers run the
    current winner.  A single-set cache (or no leader asked for) has no
    room for disjoint leaders, so `shadow` is set and the owning policy
    duels on shadow sets instead.
    """

    psel_max = (1 << PSEL_BITS) - 1
    mid = 1 << (PSEL_BITS - 1)

    def __init__(self, num_sets, leaders=LEADER_SETS):
        self.psel = self.mid - 1
        n = min(leaders, num_sets // 2)
        self.shadow = n < 1
        self.kind = {} if self.shadow else dict(zip(sampler_layout(num_sets, 2 * n), "ab" * n))

    def vote_against_a(self):
        if self.psel < self.psel_max:
            self.psel += 1

    def vote_against_b(self):
        if self.psel > 0:
            self.psel -= 1

    def replay(self, a_hits, b_hits):
        """Vote each miss of two shadow runs, a's then b's per access, and
        return per access whether b governs after its votes; on locals."""
        psel, top, mid, b_won = self.psel, self.psel_max, self.mid, bytearray()
        for a_hit, b_hit in zip(a_hits, b_hits):
            if not a_hit and psel < top:
                psel += 1
            if not b_hit and psel:
                psel -= 1
            b_won.append(psel >= mid)
        self.psel = psel
        return b_won

    def record_leader_miss(self, set_index):
        k = self.kind.get(set_index)
        if k == "a":
            self.vote_against_a()
        elif k == "b":
            self.vote_against_b()

    def winner(self):
        return "b" if self.psel >= self.mid else "a"

    def governing(self, set_index):
        return self.kind.get(set_index) or self.winner()


class LruPolicy(Policy):
    """True LRU, and the base of the stack family.

    view.state is the set's recency stack (Mattson et al., IBM Sys. J.
    1970): its filled ways, most recently used first.  The engine appends
    a fresh way at the LRU end; a hit or an MRU fill moves the way to the
    front, and the victim is the way at the end.
    """

    name = "lru"

    def on_hit(self, view, way):
        stack = view.state
        stack.remove(way)
        stack.insert(0, way)

    on_insert = on_hit  # an MRU fill

    def choose_victim(self, view):
        return view.state[-1]

    def depth(self, view, way):
        """Stack depth of a filled way, 1 for the most recently used."""
        return view.state.index(way) + 1

    def depths(self, view):
        """depth() of every way of a full set."""
        depths = [0] * len(view.state)
        for d, way in enumerate(view.state, 1):
            depths[way] = d
        return depths


class LipPolicy(LruPolicy):
    """LRU Insertion Policy: a fill stays at the bottom of the stack."""

    name = "lip"

    def on_insert(self, view, way):
        pass


class BipPolicy(LruPolicy):
    """Bimodal insertion: MRU with probability BIP_EPSILON, else bottom."""

    name = "bip"

    def on_insert(self, view, way):
        if self.rng.random() < BIP_EPSILON:
            LruPolicy.on_hit(self, view, way)


class DuelPolicy(Policy):
    """Set dueling between policies a and b that differ in insertion.

    Hits promote and victims are chosen as a does; each fill goes to
    `fill`, which inserts as the side governing its set.  A cache too
    small for leader sets duels on shadow sets: bind runs a copy of each
    side through the engine's own loop (`run_policy`) on a generator
    forked off the run's at reset, `SetDuel.replay` votes their misses,
    and on_insert is routed to the side that governs each access.
    """

    def __init__(self, a, b):
        self.a, self.b = a, b

    def reset(self, geometry, rng):
        super().reset(geometry, rng)
        self.a.reset(geometry, rng)
        self.b.reset(geometry, rng)
        self.duel = SetDuel(geometry.num_sets)
        a, b, duel = self.a, self.b, self.duel  # no reference back to self, so no cycle
        self.fill = lambda view, way: (
            b if duel.governing(view.set_index) == "b" else a).on_insert(view, way)
        if duel.shadow:  # one set: the only set index is 0
            self.shadow_rng = SplitMix64(rng.next_u64() ^ 0x9E3779B97F4A7C15)

    def bind(self, trace, tags):
        self.a.bind(trace, tags)
        self.b.bind(trace, tags)
        no_vote = None
        if self.duel.shadow:  # no leader sets to vote for
            a_hits, b_hits = (run_policy(copy(p), self.geometry, self.shadow_rng, trace,
                                         bytes(len(tags)), tags)[0] for p in (self.a, self.b))
            sides, b_won = (self.a.on_insert, self.b.on_insert), self.duel.replay(a_hits, b_hits)
            self.fill = lambda view, way: sides[b_won[view.access_index]](view, way)
            no_vote = self.a.decide_insert  # inserts as a does; bound to a, so no cycle
        self.route(DuelPolicy, on_hit=self.a.on_hit, choose_victim=self.a.choose_victim,
                   decide_insert=no_vote, on_insert=self.fill)

    def decide_insert(self, view):
        self.duel.record_leader_miss(view.set_index)
        return True

    def on_hit(self, view, way):
        self.a.on_hit(view, way)

    def choose_victim(self, view):
        return self.a.choose_victim(view)

    def on_insert(self, view, way):
        self.fill(view, way)


class DipPolicy(DuelPolicy):
    """Dynamic Insertion Policy: set-duels LRU (a) against BIP (b)."""

    name = "dip"

    def __init__(self):
        super().__init__(LruPolicy(), BipPolicy())


class RandomPolicy(Policy):
    name = "random"

    def choose_victim(self, view):
        return self.rng.randrange(view.ways)


def rrip_victim(state, rrpv_max, ways):
    """SrripPolicy.choose_victim's scan over `ways`, an ascending list;
    the other ways (pinned blocks) are neither candidates nor aged."""
    for w in ways:
        if state[w] == rrpv_max:
            return w
    values = [state[w] for w in ways]
    top = max(values)
    for w in ways:
        state[w] += rrpv_max - top
    return ways[values.index(top)]


class SrripPolicy(Policy):
    """Static RRIP: insert at long re-reference interval, promote to 0.

    This resists scans but not thrashing.  On a cyclic loop larger than
    the set, uniform aging brings every resident to rrpv_max together and
    each new fill lands below it, so the set is flushed in FIFO order
    before any block is reused: zero hits.  BRRIP and DRRIP exist for such
    loops.
    """

    def __init__(self, m=2):
        if m < 1:
            raise ValueError("rrip needs at least 1 bit")
        self.m = m
        self.rrpv_max = (1 << m) - 1
        self.name = "srrip%d" % m

    def on_insert(self, view, way):
        view.state[way] = self.rrpv_max - 1

    def on_hit(self, view, way):
        view.state[way] = 0

    def choose_victim(self, view):
        """The lowest way at rrpv_max, after aging every way in one step
        to where aging one step at a time would stop, if none is there."""
        state, top = view.state, self.rrpv_max
        if top not in state:
            gap = top - max(state)
            state[:] = [s + gap for s in state]
        return state.index(top)


class NruPolicy(SrripPolicy):
    """k-bit NRU as k-bit RRIP (Jaleel et al., ISCA 2010): fill and
    promote to class 0, and evict at the top class after RRIP's aging,
    a uniform draw from the run's generator when several ways are there."""

    def __init__(self, bits=1):
        if bits < 1:
            raise ValueError("nru needs at least 1 bit")
        super().__init__(bits)
        self.name = "nru%d" % bits

    def on_insert(self, view, way):
        view.state[way] = 0

    def choose_victim(self, view):
        way, state, top = super().choose_victim(view), view.state, self.rrpv_max
        if state.count(top) == 1:
            return way
        return self.rng.choice([w for w, s in enumerate(state) if s == top])

    def depth(self, view, way):
        """A way's class value, the depth Leeway counts live distances in."""
        return view.state[way]

    def depths(self, view):
        return list(view.state)


class BrripPolicy(SrripPolicy):
    """Bimodal RRIP: insert at rrpv_max except with probability BIP_EPSILON."""

    def __init__(self, m=2):
        super().__init__(m)
        self.name = "brrip%d" % m

    def on_insert(self, view, way):
        near = self.rng.random() < BIP_EPSILON
        view.state[way] = self.rrpv_max - 1 if near else self.rrpv_max


class DrripPolicy(DuelPolicy):
    """Dynamic RRIP: set-duels SRRIP insertion (a) against BRRIP (b)."""

    def __init__(self, m=2):
        super().__init__(SrripPolicy(m), BrripPolicy(m))
        self.name = "drrip%d" % m


class ShipMemPolicy(SrripPolicy):
    """3-bit RRIP steered by per-memory-region reuse counters (SHiP-MEM).

    Addresses map to 16 KiB regions; each region has a 3-bit saturating
    counter, starting at 1, trained by 64 sampler sets: a sampler hit
    sets the block's outcome bit and increments the region counter,
    evicting a sampler block that was never re-referenced decrements it.
    Blocks from regions whose counter has decayed to zero are inserted at
    the distant re-reference point, everything else one step closer.
    """

    def __init__(self):
        super().__init__(3)
        self.name = "ship-mem"

    def reset(self, geometry, rng):
        super().reset(geometry, rng)
        self.sampler = set(sampler_layout(geometry.num_sets, SHIP_SAMPLER_SETS))
        self.table = {}
        self.meta = {}  # (set, way) -> [outcome, region], sampler blocks only

    def bind(self, trace, tags):
        self.regions = memoryview(trace.addresses // SHIP_REGION_BYTES)

    def on_insert(self, view, way):
        region = self.regions[view.access_index]
        counter = self.table.get(region, SHIP_COUNTER_INIT)
        view.state[way] = self.rrpv_max if counter == 0 else self.rrpv_max - 1
        if view.set_index in self.sampler:
            self.meta[(view.set_index, way)] = [0, region]

    def on_hit(self, view, way):
        view.state[way] = 0
        if view.set_index in self.sampler:
            entry = self.meta.get((view.set_index, way))
            if entry is not None:
                entry[0] = 1
            region = self.regions[view.access_index]
            counter = self.table.get(region, SHIP_COUNTER_INIT)
            if counter < SHIP_COUNTER_MAX:
                self.table[region] = counter + 1

    def choose_victim(self, view):
        way = super().choose_victim(view)
        if view.set_index in self.sampler:
            entry = self.meta.pop((view.set_index, way), None)
            if entry is not None and entry[0] == 0:
                counter = self.table.get(entry[1], SHIP_COUNTER_INIT)
                if counter > 0:
                    self.table[entry[1]] = counter - 1
        return way


class PinPolicy(Policy):
    """Reserve a share of each set's ways for High-Reuse-hinted blocks.

    Pinned blocks are never victim candidates, so a way stays pinned for
    the rest of the run.  When every way of a set is pinned, further
    insertions are bypassed.  Unhinted traffic is managed by DRRIP-3 on
    the unpinned ways.
    """

    def __init__(self, percent):
        if not 0 <= percent <= 100:
            raise ValueError("pin percentage must be 0..100")
        self.percent = percent
        self.base = DrripPolicy(m=3)
        self.name = "pin%d" % percent
        self._pin_next = False

    def reset(self, geometry, rng):
        super().reset(geometry, rng)
        self.base.reset(geometry, rng)
        self.reserved = round(geometry.ways * self.percent / 100.0)
        self.unpinned = [list(range(geometry.ways)) for _ in range(geometry.num_sets)]

    def bind(self, trace, tags):
        self.base.bind(trace, tags)
        self.hints = memoryview(trace.hints)
        self.route(PinPolicy, on_hit=self.base.on_hit)

    def decide_insert(self, view):
        self._pin_next = False
        self.base.decide_insert(view)  # keep base dueling trained
        hint = self.hints[view.access_index]
        pinned = view.ways - len(self.unpinned[view.set_index])
        if hint == ReuseHint.HIGH and pinned < self.reserved:
            self._pin_next = True
            return True
        return pinned < view.ways

    def choose_victim(self, view):
        return rrip_victim(view.state, self.base.a.rrpv_max, self.unpinned[view.set_index])

    def on_insert(self, view, way):
        self.base.on_insert(view, way)
        if self._pin_next:
            self.unpinned[view.set_index].remove(way)

    def on_hit(self, view, way):
        self.base.on_hit(view, way)


class UnknownPolicyError(ValueError):
    pass


def _leeway(**kw):
    from cachelab.leeway import LeewayPolicy  # leeway.py and grasp.py import this module

    return LeewayPolicy(**kw)


def _grasp(variant, abrs):
    from cachelab.grasp import GraspPolicy

    return GraspPolicy(abrs=abrs, variant=variant)


_CONSTRUCTORS = {  # command-line name -> constructor, in the order --help lists them
    "lru": LruPolicy, "lip": LipPolicy, "bip": BipPolicy, "dip": DipPolicy,
    "random": RandomPolicy, "ship-mem": ShipMemPolicy,
    **{"nru%d" % b: partial(NruPolicy, b) for b in (1, 2, 3, 4)},
    **{kind + str(m): partial(cls, m)
       for kind, cls in (("srrip", SrripPolicy), ("brrip", BrripPolicy), ("drrip", DrripPolicy))
       for m in (2, 3)},
    **{"pin%d" % p: partial(PinPolicy, p) for p in (25, 50, 75, 100)},
    "leeway-lru": partial(_leeway, base="lru"),
    **{"leeway-nru%d" % b: partial(_leeway, base="nru", nru_bits=b) for b in (1, 2, 3, 4)},
    **{"leeway-" + mode: partial(_leeway, mode=mode)
       for mode in ("static-bop", "static-rop", "static-vtt7")},
    "grasp": partial(_grasp, "full"), "grasp-hints": partial(_grasp, "hints"),
    "grasp-insert": partial(_grasp, "insert-only"),
}
POLICY_NAMES = list(_CONSTRUCTORS) + ["opt"]


def make_policy(name, abrs=()):
    """Build a policy from its command-line name, any case; abrs are the
    address bounds of GRASP's regions.  The optimal oracle ("opt") needs
    the whole trace and is built by the caller instead."""
    key = name.lower()
    if key not in _CONSTRUCTORS:
        raise UnknownPolicyError("unknown policy name: %r" % name)
    return _CONSTRUCTORS[key](abrs) if key.startswith("grasp") else _CONSTRUCTORS[key]()
