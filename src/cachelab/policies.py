"""Baseline replacement policies and the policy name registry.

Families:
  recency   LRU, LIP, BIP over the set's recency stack, its ways most
            recently used first; they differ only in where a fill enters
  rrip      SRRIP, BRRIP over m-bit re-reference prediction values, and
            NRU as 1-bit RRIP that fills at 0 and draws among tied victims
  duel      DIP (LRU against BIP) and DRRIP (SRRIP against BRRIP): one
            set-dueling mixin ahead of the base class, whose hits and
            victims both sides share; the sides differ in insertion only
  ship-mem  RRIP with memory-region reuse counters trained on sampler sets
  pin       DRRIP-3 that reserves ways for high-reuse-hinted blocks, a
            pinned way held below every RRPV the victim scan can take
  random    uniform random victim

BIP's 1/32 throttle and the 10-bit PSEL are those of Qureshi et al.
(ISCA 2007).

SRRIP resists scans but not thrashing: like LRU, on a cyclic loop larger
than a set it evicts every block before its reuse and scores zero hits.
BIP/DIP and BRRIP/DRRIP exist for such loops; their rare long-lived
insertions keep a hittable subset.  AC-5 checks both sides of this on a
32-block loop in one 16-way set.
"""

from functools import partial

from .engine import HIT, Policy, SplitMix64, run_policy
from .trace import ReuseHint

BIP_EPSILON = 1.0 / 32.0
LEADER_SETS = 32
PSEL_BITS = 10
SHIP_REGION_BYTES = 16384
SHIP_COUNTER_MAX = 7  # 3-bit region counters
SHIP_COUNTER_INIT = 1
SHIP_SAMPLER_SETS = 64
PINNED = float("-inf")  # a pinned way's RRPV: aging leaves it below every other
HIGH = ReuseHint.HIGH  # read once: each read off the Enum class costs about 0.1 us


def sampler_layout(num_sets, count):
    """Indexes of min(count, num_sets) sampler sets, evenly strided."""
    n = min(count, num_sets)
    stride = max(1, num_sets // n)
    return [i * stride for i in range(n)]


class SetDuel:
    """Two-constituency set dueling with a saturating selector.

    Leader sets are sampler_layout's strided sets, alternately side 0's
    and side 1's (`kind` maps each to its side), and always run their
    own side's policy; a miss in a leader set votes against that side.
    Followers run the current winner.  A single-set cache (or no leader
    asked for) has no room for disjoint leaders, so `shadow` is set and
    the owning policy duels on shadow sets instead.
    """

    psel_max = (1 << PSEL_BITS) - 1
    mid = 1 << (PSEL_BITS - 1)

    def __init__(self, num_sets, leaders=LEADER_SETS):
        self.psel = self.mid - 1
        n = min(leaders, num_sets // 2)
        self.shadow = n < 1
        self.kind = {} if self.shadow else dict(zip(sampler_layout(num_sets, 2 * n), (0, 1) * n))

    def replay(self, a_outcome, b_outcome):
        """Vote each miss (a code but HIT) of two shadow runs' outcome
        columns, a's then b's per access, and return per access whether b
        governs after its votes; on locals."""
        psel, top, mid, hit, b_won = self.psel, self.psel_max, self.mid, HIT, bytearray()
        for a, b in zip(a_outcome, b_outcome):
            if a != hit and psel < top:
                psel += 1
            if b != hit and psel:
                psel -= 1
            b_won.append(psel >= mid)
        self.psel = psel
        return b_won

    def miss(self, set_index):
        """Cast a leader set's vote against its own side, and return the
        side governing a miss in set_index: its own, or the winner's.  A
        shadow duel has no leaders, so there a miss only names the winner."""
        side = self.kind.get(set_index)
        if side is None:
            return 1 if self.psel >= self.mid else 0
        if side:
            if self.psel > 0:
                self.psel -= 1
        elif self.psel < self.psel_max:
            self.psel += 1
        return side

    def winner(self):
        return 1 if self.psel >= self.mid else 0


class LruPolicy(Policy):
    """True LRU, and the base of the stack family.

    view.state is the set's recency stack (Mattson et al., IBM Sys. J.
    1970): its filled ways, most recently used first.  A hit or an MRU
    fill moves the way to the front; the victim is the way at the end,
    where the engine appends a fresh way and refills a victim's in place.
    """

    name = "lru"

    def on_hit(self, view, way):
        stack = view.state
        if stack[0] != way:
            stack.remove(way)
            stack.insert(0, way)

    def on_insert(self, view, way):  # an MRU fill
        stack = view.state
        if stack[-1] == way:  # a fresh way, or the LRU victim's
            stack.insert(0, stack.pop())
        else:  # a victim from mid-stack, as Leeway's dead ones
            stack.remove(way)
            stack.insert(0, way)

    def choose_victim(self, view):
        return view.state[-1]


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
            LruPolicy.on_insert(self, view, way)


class DuelPolicy:
    """Set dueling between insertion policies a and b, placed ahead of the
    base class whose hits and victims both share: `DipPolicy(DuelPolicy,
    LruPolicy)`.  A subclass sets the sides, a and b, in __init__.

    Each fill inserts as the side that SetDuel.miss names, a vote cast
    when a leader set fills.  A cache too small for leader sets duels on
    shadow sets: reset runs each side through the engine's own loop
    (`run_policy`) on a generator forked off the run's, `SetDuel.replay`
    votes their misses, each fill inserts as the side that governs its
    access, and both sides are then reset onto the run's generator.
    When side a, run first on the fresh fork, draws nothing from it and
    logs no dead eviction (LRU and SRRIP never do), `kept` is its outcome
    column, which a run of a policy of a's class and name would return
    byte for byte; else None.
    """

    def reset(self, geometry, rng, trace, tags):
        super().reset(geometry, rng, trace, tags)
        self.duel = SetDuel(geometry.num_sets)
        self.sides = (self.a.on_insert, self.b.on_insert)
        self.b_won = self.kept = None  # b_won: per access of a shadow duel, whether b governs it
        if self.duel.shadow:  # one set, the only set index 0, and no leader sets to vote for
            shadow_rng = SplitMix64(rng.next_u64() ^ 0x9E3779B97F4A7C15)
            a_outcome = run_policy(self.a, geometry, shadow_rng, trace, bytes(len(tags)), tags)
            if not (shadow_rng.drawn or self.a.dead_log):  # a run of a's own decides the same
                self.kept = a_outcome
            self.b_won = self.duel.replay(
                a_outcome, run_policy(self.b, geometry, shadow_rng, trace, bytes(len(tags)), tags))
        self.a.reset(geometry, rng, trace, tags)
        self.b.reset(geometry, rng, trace, tags)

    def on_insert(self, view, way):
        b_won = self.b_won
        side = self.duel.miss(view.set_index) if b_won is None else b_won[view.access_index]
        self.sides[side](view, way)


class DipPolicy(DuelPolicy, LruPolicy):
    """Dynamic Insertion Policy: set-duels LRU (a) against BIP (b)."""

    name = "dip"

    def __init__(self):
        self.a, self.b = LruPolicy(), BipPolicy()


class RandomPolicy(Policy):
    name = "random"

    def choose_victim(self, view):
        return self.rng.randrange(view.ways)


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
    """Not-Recently-Used as 1-bit RRIP (Jaleel et al., ISCA 2010): fill
    and promote to class 0, and evict at class 1 after RRIP's aging, a
    uniform draw from the run's generator when several ways are there."""

    def __init__(self):
        super().__init__(1)  # so SRRIP's fill at rrpv_max - 1 is at class 0
        self.name = "nru1"

    def choose_victim(self, view):
        way, state = super().choose_victim(view), view.state  # aged: a way is at class 1
        if state.count(1) == 1:
            return way
        return self.rng.choice([w for w, s in enumerate(state) if s])


class BrripPolicy(SrripPolicy):
    """Bimodal RRIP: insert at rrpv_max except with probability BIP_EPSILON."""

    def __init__(self, m=2):
        super().__init__(m)
        self.name = "brrip%d" % m

    def on_insert(self, view, way):
        near = self.rng.random() < BIP_EPSILON
        view.state[way] = self.rrpv_max - 1 if near else self.rrpv_max


class DrripPolicy(DuelPolicy, SrripPolicy):
    """Dynamic RRIP: set-duels SRRIP insertion (a) against BRRIP (b)."""

    def __init__(self, m=2):
        super().__init__(m)
        self.a, self.b = SrripPolicy(m), BrripPolicy(m)
        self.name = "drrip%d" % m


class ShipMemPolicy(SrripPolicy):
    """3-bit RRIP steered by per-memory-region reuse counters (SHiP-MEM).

    Addresses map to 16 KiB regions, each with a 3-bit saturating counter
    starting at 1.  64 sampler sets train them, keeping [outcome, region]
    in view.meta[way]: a hit sets the outcome bit and increments the
    region's counter, evicting a block never re-referenced decrements it.
    Blocks from regions whose counter has decayed to zero are inserted at
    the distant re-reference point, everything else one step closer.
    """

    def __init__(self):
        super().__init__(3)
        self.name = "ship-mem"

    def reset(self, geometry, rng, trace, tags):
        super().reset(geometry, rng, trace, tags)
        self.sampler = set(sampler_layout(geometry.num_sets, SHIP_SAMPLER_SETS))
        self.table = {}
        self.addresses = memoryview(trace.addresses)  # a region per fill, not a column of them

    def on_insert(self, view, way):
        region = self.addresses[view.access_index] // SHIP_REGION_BYTES
        counter = self.table.get(region, SHIP_COUNTER_INIT)
        view.state[way] = self.rrpv_max if counter == 0 else self.rrpv_max - 1
        if view.set_index in self.sampler:
            view.meta[way] = [0, region]

    def on_hit(self, view, way):
        view.state[way] = 0
        if view.set_index in self.sampler:
            view.meta[way][0] = 1
            region = self.addresses[view.access_index] // SHIP_REGION_BYTES
            counter = self.table.get(region, SHIP_COUNTER_INIT)
            if counter < SHIP_COUNTER_MAX:
                self.table[region] = counter + 1

    def choose_victim(self, view):
        way = super().choose_victim(view)
        if view.set_index in self.sampler:
            outcome, region = view.meta[way]  # on_insert overwrites it next
            if outcome == 0:
                counter = self.table.get(region, SHIP_COUNTER_INIT)
                if counter > 0:
                    self.table[region] = counter - 1
        return way


class PinPolicy(DrripPolicy):
    """Reserve a share of each set's ways for High-Reuse-hinted blocks,
    over DRRIP-3: ways x percent / 100 of them, a half rounded up, so
    pin25 reserves 1 of 2 ways and 2 of 6.

    A pinned way holds the RRPV PINNED, below every other, so SRRIP's
    victim scan never takes it and its aging never lifts it to rrpv_max,
    and a hit leaves it there: a set's pins are its PINNED ways for the
    rest of the run.  When every way of a set is pinned, further
    insertions are bypassed; a bypassed miss in a leader set still votes.
    """

    def __init__(self, percent):
        if not 0 <= percent <= 100:
            raise ValueError("pin percentage must be 0..100")
        super().__init__(m=3)
        self.percent = percent
        self.name = "pin%d" % percent

    def reset(self, geometry, rng, trace, tags):
        super().reset(geometry, rng, trace, tags)
        self.reserved = (geometry.ways * self.percent + 50) // 100
        self.hints = memoryview(trace.hints)

    def decide_insert(self, view):
        # only a reservation of every way can pin them all
        if self.reserved < view.ways or view.state.count(PINNED) < view.ways:
            return True
        self.duel.miss(view.set_index)  # a bypassed leader miss votes too
        return False

    def on_insert(self, view, way):
        super().on_insert(view, way)
        state = view.state
        if self.hints[view.access_index] == HIGH and state.count(PINNED) < self.reserved:
            state[way] = PINNED

    def on_hit(self, view, way):
        if view.state[way] > 0:  # a pinned way keeps PINNED
            view.state[way] = 0


class UnknownPolicyError(ValueError):
    pass


def _leeway(nru=False, **kw):
    from . import leeway  # leeway.py and grasp.py import this module

    return (leeway.LeewayNruPolicy if nru else leeway.LeewayLruPolicy)(**kw)


def _grasp(variant, abrs):
    from .grasp import GraspPolicy

    return GraspPolicy(abrs=abrs, variant=variant)


_CONSTRUCTORS = {  # command-line name -> constructor, in the order --help lists them
    "lru": LruPolicy, "lip": LipPolicy, "bip": BipPolicy, "dip": DipPolicy,
    "random": RandomPolicy, "ship-mem": ShipMemPolicy, "nru1": NruPolicy,
    **{kind + str(m): partial(cls, m)
       for kind, cls in (("srrip", SrripPolicy), ("brrip", BrripPolicy), ("drrip", DrripPolicy))
       for m in (2, 3)},
    **{"pin%d" % p: partial(PinPolicy, p) for p in (25, 50, 75, 100)},
    "leeway-lru": _leeway, "leeway-nru1": partial(_leeway, nru=True),
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
