"""Independent reference models against the engine.

Each model below is one flat loop written from its paper's description
and imports nothing from cachelab: a list-based LRU stack (Mattson et
al., IBM Sys. J. 1970) that fills at the MRU end (LRU), the LRU end
(LIP) or bimodally (BIP), single-set DIP, whose set dueling (Qureshi et
al., ISCA 2007) runs on shadow LRU and BIP stacks, SRRIP with m-bit
RRPVs (Jaleel et al., ISCA 2010), and single-set DRRIP-m, dueling on
shadow SRRIP and BRRIP sets.  hypothesis draws short block traces over
small geometries, and every access must agree with `simulate`: the
same hit or miss and, on an eviction, the same victim block.  DIP,
DRRIP-m and pinning over DRRIP-3 are also checked on 128-512 sets,
where leader sets vote and follower sets insert as the winner.  Dynamic
Leeway's duel of its two predictor banks on a PSEL (Faldu & Grot, PACT
2017) is checked by the bank that each miss predicts with, on caches
with follower sets, and all of Leeway, over LRU and NRU, static and
dynamic, by a flat model of its per-PC live-distance table, whose
eviction log also marks each victim predicted dead.  Belady's MIN,
with and without bypass (Belady, IBM Sys. J. 1966), is checked by its
four counters against `opt_oracle` on traces dense in back-to-back
re-references within a set.
"""

import random
import time

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from cachelab.engine import CacheGeometry, simulate
from cachelab.leeway import LeewayLruPolicy, LeewayNruPolicy
from cachelab.opt import opt_oracle
from cachelab.policies import make_policy
from cachelab.trace import MemoryAccess, ReuseHint, Trace

BUDGET_S = 15.0  # the three tests together
SHARE = {"lru": 0.3, "srrip": 0.3, "drrip": 0.4}  # of BUDGET_S; they take about 2 : 2 : 3
EXAMPLES = 300
INSERTION_BUDGET_S = 6.0  # the LIP/BIP test and the DIP test each, as long as the DRRIP one
BELADY_EXAMPLES, BELADY_BUDGET_S = 200, 6.0
LEEWAY_PSEL_EXAMPLES, LEEWAY_PSEL_BUDGET_S = 200, 6.0
FOLLOWER_EXAMPLES, FOLLOWER_BUDGET_S = 300, 6.0
LEEWAY_EXAMPLES, LEEWAY_BUDGET_S = 300, 6.0
BYPASSED = "bypassed"  # a log entry's victim slot for a miss left out of the cache
DEAD = "dead"  # (DEAD, block) in a victim slot: an eviction the policy predicted dead
BASES = {"lru": LeewayLruPolicy, "nru": LeewayNruPolicy}  # Leeway over each base it names

_U64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


class SplitMix64:
    """A copy of the engine's generator (splitmix64), so that the models
    draw the same bimodal insertions."""

    def __init__(self, seed):
        self.state = seed & _U64

    def next_u64(self):
        self.state = (self.state + _GOLDEN) & _U64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _U64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _U64
        return z ^ (z >> 31)

    def random(self):
        return (self.next_u64() >> 11) * 2.0**-53


def lru_stack_model(blocks, num_sets, ways, insert="mru", seed=0):
    """Per access: (hit, evicted block or None).  Each set is a list of
    blocks, most recently used first.  A hit moves its block to the
    front; a miss into a full set evicts the last block, and the new
    block enters at the front ("mru", LRU), at the back ("lru", LIP), or
    at the front with probability 1/32 of a draw from the run's
    generator per fill, else at the back ("bimodal", BIP)."""
    rng = SplitMix64(seed)
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
        if insert == "mru" or insert == "bimodal" and rng.random() < 1 / 32:
            stack.insert(0, b)
        else:
            stack.append(b)
        out.append((False, victim))
    return out


def dip_model(blocks, ways, seed):
    """Single-set DIP per access: (hit, evicted block or None).

    One set has no room for leader sets, so a shadow LRU stack and a
    shadow BIP stack see every access beside the real set.  A shadow LRU
    miss moves the 10-bit PSEL (starting at 511) up, a shadow BIP miss
    moves it down, and a real fill enters as BIP does when, after those
    votes, PSEL >= 512, else as LRU does.  Every set is a stack, most
    recently used first: a hit moves its block to the front, a miss into
    a full set evicts the last block.  LRU fills at the front; BIP fills
    there with probability 1/32, else at the back.  The real set draws
    from the run's generator, the shadow BIP stack from one forked off
    it before the run as next_u64() ^ 0x9E3779B97F4A7C15."""
    rng = SplitMix64(seed)
    shadow_rng = SplitMix64(rng.next_u64() ^ _GOLDEN)
    psel, mid, psel_max = 511, 512, 1023
    stacks = [[], [], []]  # LRU, BIP, real
    out = []
    for b in blocks:
        for k, stack in enumerate(stacks):
            hit, victim = b in stack, None
            if hit:
                stack.remove(b)
                stack.insert(0, b)
                continue
            if k == 0:
                psel = min(psel + 1, psel_max)
            elif k == 1:
                psel = max(psel - 1, 0)
            if len(stack) == ways:
                victim = stack.pop()
            bimodal = k == 1 or (k == 2 and psel >= mid)
            if not bimodal or (shadow_rng if k == 1 else rng).random() < 1 / 32:
                stack.insert(0, b)
            else:
                stack.append(b)
        out.append((hit, victim))  # the real set's outcome
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


def drrip_model(blocks, ways, m, seed):
    """Single-set DRRIP-m per access: (hit, evicted block or None).

    One set has no room for leader sets, so a shadow SRRIP set and a
    shadow BRRIP set see every access beside the real set.  A shadow
    SRRIP miss moves the 10-bit PSEL (starting at 511) up, a shadow BRRIP
    miss moves it down, and a real fill is inserted as BRRIP does when,
    after those votes, PSEL >= 512, else as SRRIP does.  Every set hits
    and evicts as SRRIP: a hit sets the RRPV to 0, a miss fills the
    lowest empty way, else evicts the lowest way at 2^m - 1 after aging
    every way until one gets there.  SRRIP fills at 2^m - 2; BRRIP fills
    there with probability 1/32, else at 2^m - 1.  The real set draws
    from the run's generator, the shadow BRRIP set from one forked off
    it before the run as next_u64() ^ 0x9E3779B97F4A7C15."""
    top = (1 << m) - 1
    rng = SplitMix64(seed)
    shadow_rng = SplitMix64(rng.next_u64() ^ _GOLDEN)
    psel, mid, psel_max = 511, 512, 1023
    sets = [([None] * ways, [0] * ways) for _ in range(3)]  # SRRIP, BRRIP, real
    out = []
    for b in blocks:
        for k, (resident, rrpv) in enumerate(sets):
            hit, victim = b in resident, None
            if hit:
                rrpv[resident.index(b)] = 0
                continue
            if k == 0:
                psel = min(psel + 1, psel_max)
            elif k == 1:
                psel = max(psel - 1, 0)
            if None in resident:
                way = resident.index(None)
            else:
                while top not in rrpv:
                    for w in range(ways):
                        rrpv[w] += 1
                way = rrpv.index(top)
                victim = resident[way]
            resident[way] = b
            bimodal = k == 1 or (k == 2 and psel >= mid)
            near = not bimodal or (shadow_rng if k == 1 else rng).random() < 1 / 32
            rrpv[way] = top - 1 if near else top
        out.append((hit, victim))  # the real set's outcome
    return out


def set_dueling_model(accesses, num_sets, ways, name, seed):
    """DIP, DRRIP-m or pinP over DRRIP-3 on a cache with leader sets, per
    access: (hit, evicted block or None), or (False, BYPASSED).

    accesses are (block, high) pairs, high marking a High-Reuse hint.
    min(32, num_sets // 2) pairs of leader sets lie num_sets / (2 *
    pairs) sets apart from set 0, alternately side a's and side b's.  A
    miss in a leader set, bypassed or not, moves the 10-bit PSEL
    (starting at 511, saturating at 0 and 1023) up for a and down for b,
    and the set fills as its own side; a follower set fills as b while
    PSEL >= 512, else as a.  Every bimodal draw comes from the run's one
    generator, one per b fill.

    dip: each set is a stack, most recently used first; a hit moves its
    block to the front, a miss into a full set evicts the last block.  a
    (LRU) fills at the front; b (BIP) there with probability 1/32, else
    at the back.  drripM and pinP (M = 3): a hit sets the RRPV to 0, a
    miss fills the lowest empty way, else evicts the lowest way at
    2^M - 1 after aging every candidate way by one until one gets there;
    a fills at 2^M - 2, b there with probability 1/32, else at 2^M - 1.
    pinP reserves ways * P / 100 ways of each set, a half rounded up: a
    High-Reuse miss with a reserved way left fills and pins its way,
    which is then never a candidate and keeps its block for the run (it
    still takes its side's draw); any other miss fills while a way is
    unpinned and is bypassed once every way is pinned."""
    rng = SplitMix64(seed)
    pairs = min(32, num_sets // 2)
    stride = num_sets // (2 * pairs)
    leader_side = {i * stride: i % 2 for i in range(2 * pairs)}
    psel = 511
    stack = name == "dip"
    top = (1 << (2 if name == "drrip2" else 3)) - 1
    reserved = (ways * int(name[3:]) + 50) // 100 if name.startswith("pin") else 0
    sets = [([] if stack else [None] * ways, [0] * ways, [False] * ways) for _ in range(num_sets)]
    out = []
    for b, high in accesses:
        resident, rrpv, pinned = sets[b % num_sets]
        if b in resident:
            way = resident.index(b)
            if stack:
                resident.insert(0, resident.pop(way))
            elif not pinned[way]:
                rrpv[way] = 0
            out.append((True, None))
            continue
        side = leader_side.get(b % num_sets)
        if side == 0:
            psel = min(psel + 1, 1023)
        elif side == 1:
            psel = max(psel - 1, 0)
        else:
            side = int(psel >= 512)
        near = side == 0  # the side's insertion, drawn only for a fill
        if stack:
            victim = resident.pop() if len(resident) == ways else None
            if near or rng.random() < 1 / 32:
                resident.insert(0, b)
            else:
                resident.append(b)
            out.append((False, victim))
            continue
        pin = high and sum(pinned) < reserved
        if not pin and all(pinned):
            out.append((False, BYPASSED))
            continue
        victim = None
        if None in resident:
            way = resident.index(None)
        else:
            free = [w for w in range(ways) if not pinned[w]]
            while all(rrpv[w] != top for w in free):
                for w in free:
                    rrpv[w] += 1
            way = next(w for w in free if rrpv[w] == top)
            victim = resident[way]
        resident[way], pinned[way] = b, pin
        rrpv[way] = top - 1 if near or rng.random() < 1 / 32 else top
        out.append((False, victim))
    return out


def belady_model(blocks, num_sets, ways, bypass):
    """Hits, misses, bypasses and evictions of Belady's MIN.  Each set
    maps its blocks to their next use, found by scanning ahead (len(blocks)
    for none).  A miss into a full set evicts a block used farthest
    ahead; with bypass, a block whose own next use is strictly farther
    than every resident's is left out instead."""
    sets = [{} for _ in range(num_sets)]
    hits = bypasses = evictions = 0
    for i, b in enumerate(blocks):
        cache = sets[b % num_sets]
        next_use = next((j for j in range(i + 1, len(blocks)) if blocks[j] == b), len(blocks))
        if b in cache:
            hits += 1
        elif len(cache) == ways:
            farthest = max(cache, key=cache.get)
            if bypass and next_use > cache[farthest]:
                bypasses += 1
                continue
            del cache[farthest]
            evictions += 1
        cache[b] = next_use
    return dict(hits=hits, misses=len(blocks) - hits, bypasses=bypasses, evictions=evictions)


def leeway_psel_model(miss_sets, num_sets, sampler_sets):
    """Dynamic Leeway's bank duel: for the set index of each miss, in
    order, (set, bank governing that miss), 0 for the bypass-oriented
    bank and 1 for the reuse-oriented one.

    min(sampler_sets, num_sets // 2) pairs of sampler sets lie num_sets /
    (2 * pairs) sets apart from set 0, alternately bypass- and reuse-
    oriented, and each runs its own bank.  A miss in a bypass-oriented
    sampler moves the 10-bit PSEL (starting at 511, saturating at 0 and
    1023) up, one in a reuse-oriented sampler moves it down, and a
    follower miss runs the reuse-oriented bank while PSEL >= 512."""
    pairs = min(sampler_sets, num_sets // 2)
    stride = num_sets // (2 * pairs)
    bank = {i * stride: i % 2 for i in range(2 * pairs)}
    psel, out = 511, []
    for s in miss_sets:
        out.append((s, bank.get(s, int(psel >= 512))))
        if s in bank:
            psel = min(psel + 1, 1023) if bank[s] == 0 else max(psel - 1, 0)
    return out


def leeway_model(accesses, num_sets, ways, base, mode, sampler_sets, seed):
    """Leeway (Faldu & Grot, PACT 2017) per access: (hit, victim), the
    victim None, a block, (DEAD, block) or BYPASSED.

    accesses are (block, pc) pairs.  The base ("lru" or "nru") sets a
    way's depth: its 1-based position in the set's recency stack, or its
    1-bit NRU class plus one, so that a re-referenced block always has a
    depth of at least 1.  top is the deepest depth: ways, or 2.

    Each bank of the predictor keeps, per PC, a stable live distance
    (top until trained), a variance count and a direction.  Training a
    bank with an observed distance: equal to the stable one, the count
    goes to 0; otherwise, in the direction of the last update with a
    non-zero count the count goes up by 1, in the other it restarts at 1
    and the direction flips; at the bank's threshold for that direction
    (up, down) the stable distance becomes the observed one and the count
    goes to 0.  Banks: bop (7, 1) with retrain probability 0.01, rop
    (1, 7) with 0.03, vtt7 (7, 7) with 0.01.  "dynamic" runs bop as bank
    0 and rop as bank 1; "static-X" runs X alone as bank 0.

    Dynamic mode: min(sampler_sets, num_sets // 2) pairs of sampler sets
    lie num_sets / (2 * pairs) sets apart from set 0, alternately bank 0's
    and 1's; a sampler miss moves the 10-bit PSEL (starting at 511,
    saturating at 0 and 1023) up for bank 0 and down for bank 1 and runs
    its own bank, a follower miss runs bank 1 while PSEL >= 512, else
    bank 0.  With no pair (one set) and in static mode, PSEL never moves,
    and min(sampler_sets, num_sets) sampler sets lie num_sets // that
    apart from set 0, all training bank 0.

    A miss looks up its PC's stable distance in the bank it runs: at 0
    it is bypassed, except in a sampler set, where a draw below the
    bank's retrain probability fills it with predicted distance 0;
    otherwise it fills with the stable distance as its prediction.  A
    fill into a full set first picks its victim: the ways whose depth
    exceeds their block's prediction are dead, and the dead way of the
    smallest prediction, then the deepest, then the lowest goes;
    with none dead, the base picks (LRU: the stack's last way; NRU: if
    no way is at class 1, every way goes to class 1; then the one way at
    class 1, or a draw among them when several are there).  In a sampler
    set the victim's block trains the set's bank with its observed
    distance.  A
    fill goes to the stack's front or to class 0, with observed distance
    0.  A hit raises its block's prediction, and in a sampler set its
    observed distance, to the way's depth before the hit moves it to the
    front or to class 0.  Retrain draws and NRU ties share the run's one
    generator, in the order the access makes them."""
    rng = SplitMix64(seed)
    lru = base == "lru"
    top = ways if lru else 2
    rules = {"bop": ((7, 1), 0.01), "rop": ((1, 7), 0.03), "vtt7": ((7, 7), 0.01)}
    banks = [rules["bop"], rules["rop"]] if mode == "dynamic" else [rules[mode[len("static-"):]]]
    pairs = min(sampler_sets, num_sets // 2) if mode == "dynamic" else 0
    if pairs:
        sampler = {i * (num_sets // (2 * pairs)): i % 2 for i in range(2 * pairs)}
    else:
        n = min(sampler_sets, num_sets)
        sampler = {i * (num_sets // n): 0 for i in range(n)}
    leaders = sampler if pairs else {}
    psel = 511
    stable, count, up = [{} for _ in banks], [{} for _ in banks], [{} for _ in banks]

    def train(bank, pc, observed):
        s = stable[bank].get(pc, top)
        if observed == s:
            count[bank][pc] = 0
            return
        rising = observed > s
        if count[bank].get(pc, 0) and up[bank][pc] == rising:
            count[bank][pc] += 1
        else:
            count[bank][pc], up[bank][pc] = 1, rising
        if count[bank][pc] >= banks[bank][0][0 if rising else 1]:
            stable[bank][pc], count[bank][pc] = observed, 0

    # per set: resident block per way, the ways MRU first (LRU) or each
    # way's class (NRU), and per way [prediction, observed, fill pc]
    sets = [([], [], []) for _ in range(num_sets)]
    out = []
    for b, pc in accesses:
        s = b % num_sets
        resident, order, meta = sets[s]
        if b in resident:
            way = resident.index(b)
            depth = order.index(way) + 1 if lru else order[way] + 1
            meta[way][0] = max(meta[way][0], depth)
            if s in sampler:
                meta[way][1] = max(meta[way][1], depth)
            if lru:
                order.insert(0, order.pop(order.index(way)))
            else:
                order[way] = 0
            out.append((True, None))
            continue
        bank = leaders.get(s, int(psel >= 512))
        if s in leaders:
            psel = min(psel + 1, 1023) if bank == 0 else max(psel - 1, 0)
        predicted = stable[bank].get(pc, top)
        if predicted == 0 and not (s in sampler and rng.random() < banks[bank][1]):
            out.append((False, BYPASSED))
            continue
        victim = None
        if len(resident) < ways:
            way = len(resident)
            resident.append(b)
            order.append(way if lru else 0)
            meta.append(None)
        else:
            depths = [order.index(w) + 1 if lru else order[w] + 1 for w in range(ways)]
            dead = [w for w in range(ways) if depths[w] > meta[w][0]]
            if dead:
                way = min(dead, key=lambda w: (meta[w][0], -depths[w], w))
            elif lru:
                way = order[-1]
            else:
                if 1 not in order:
                    order[:] = [1] * ways
                at_top = [w for w in range(ways) if order[w] == 1]
                way = at_top[rng.next_u64() % len(at_top)] if len(at_top) > 1 else at_top[0]
            victim = (DEAD, resident[way]) if dead else resident[way]
            if s in sampler:
                train(sampler[s], meta[way][2], meta[way][1])
            resident[way] = b
        if lru:
            order.insert(0, order.pop(order.index(way)))
        else:
            order[way] = 0
        meta[way] = [predicted, 0, pc]
        out.append((False, victim))
    return out


def engine_log(name, blocks, num_sets, ways, seed=0, high=None, pcs=None, policy=None):
    """The same log, recorded from simulate through the policy's hooks;
    high marks the accesses that carry a High-Reuse hint, pcs gives each
    access's program counter, and policy, if given, runs instead of the
    named one."""
    policy = make_policy(name) if policy is None else policy
    on_hit, choose_victim, on_insert = policy.on_hit, policy.choose_victim, policy.on_insert
    decide_insert = policy.decide_insert
    log, evicted = [], []

    def hit(view, way):
        log.append((True, None))
        on_hit(view, way)

    def decide(view):
        insert = decide_insert(view)
        if not insert:
            log.append((False, BYPASSED))
        return insert

    def victim(view):
        logged = len(policy.dead_log)
        way = choose_victim(view)
        block = view.tags[way] * num_sets + view.set_index
        evicted.append((DEAD, block) if len(policy.dead_log) > logged else block)
        return way

    def insert(view, way):
        log.append((False, evicted.pop() if evicted else None))
        on_insert(view, way)

    policy.on_hit, policy.choose_victim, policy.on_insert = hit, victim, insert
    policy.decide_insert = decide
    trace = Trace([MemoryAccess(64 * b, pc_signature=pc, hint_valid=h,
                                reuse_hint=ReuseHint.HIGH if h else ReuseHint.DEFAULT)
                   for b, h, pc in zip(blocks, high or [False] * len(blocks),
                                       pcs or [0] * len(blocks))])
    simulate(trace, CacheGeometry(num_sets, ways, 64), policy, seed=seed)
    return log


@st.composite
def cases(draw, set_counts=(1, 2, 4, 8, 16)):
    """A random block trace of 1-300 accesses on 1-16 sets of 1-16 ways,
    over few enough blocks that sets both hit and evict."""
    num_sets = draw(st.sampled_from(set_counts))
    ways = draw(st.integers(1, 16))
    rnd = draw(st.randoms(use_true_random=False))
    span = rnd.randint(ways, 3 * num_sets * ways)
    return [rnd.randrange(span) for _ in range(rnd.randint(1, 300))], num_sets, ways


@st.composite
def repeat_cases(draw):
    """Like cases, but a random share of the accesses goes back to the
    block its set touched last, often with other sets' accesses between."""
    num_sets = draw(st.sampled_from([1, 2, 4, 8, 16]))
    ways = draw(st.integers(1, 16))
    rnd = random.Random(draw(st.integers(0, 2**32)))  # fast draws for three per access
    span, again = rnd.randint(ways, 3 * num_sets * ways), rnd.random()
    last, blocks = {}, []
    for _ in range(rnd.randint(1, 300)):
        b = rnd.randrange(span)
        if rnd.random() < again:
            b = last.get(b % num_sets, b)
        last[b % num_sets] = b
        blocks.append(b)
    return blocks, num_sets, ways


@st.composite
def leeway_psel_cases(draw):
    """A block trace of 1-3000 accesses on 256 or 512 sets of 1-4 ways
    with the default 64 sampler pairs, or on 4-16 sets with 1-4 pairs.
    Each set gets its own share of the accesses and its own footprint of
    1 to 3 x ways blocks, so some sets thrash while others fit, and each
    access carries one of 4 program counters."""
    ways = draw(st.integers(1, 4))
    if draw(st.booleans()):
        num_sets, sampler_sets = draw(st.sampled_from([256, 512])), 64
    else:
        num_sets, sampler_sets = draw(st.sampled_from([4, 8, 16])), draw(st.integers(1, 4))
    rnd = random.Random(draw(st.integers(0, 2**32)))
    weights = [rnd.random() ** 3 for _ in range(num_sets)]
    footprint = [rnd.randint(1, 3 * ways) for _ in range(num_sets)]
    accesses = []
    for s in rnd.choices(range(num_sets), weights, k=rnd.randint(1, 3000)):
        accesses.append((rnd.randrange(footprint[s]) * num_sets + s, rnd.randrange(4)))
    return accesses, num_sets, ways, sampler_sets


@st.composite
def leeway_cases(draw):
    """A block trace of 1-1500 accesses on 256 or 512 sets of 1-4 ways
    with the default 64 sampler pairs, or on 1-16 sets of 1-8 ways with
    1-4 sampler sets (pairs, if dynamic), and a Leeway base and mode.
    Each set gets its own share of the accesses.  Program counters 0
    and 1 read fresh blocks, a share of them touched once more after a
    gap of other accesses to the set, short or long in turn every
    `period` of them, so their live distances drift up and down; 2 and
    3 draw from 1 to 3 x ways blocks of their own.  Each trace weights
    the four, and gives a share of its accesses a random one."""
    ways = draw(st.integers(1, 4))
    if draw(st.booleans()):
        num_sets, sampler_sets = draw(st.sampled_from([256, 512])), 64
    else:
        num_sets, sampler_sets = draw(st.sampled_from([1, 2, 4, 8, 16])), draw(st.integers(1, 4))
        ways = draw(st.integers(1, 8))
    base = draw(st.sampled_from(["lru", "nru"]))
    mode = draw(st.sampled_from(["dynamic", "static-bop", "static-rop", "static-vtt7"]))
    rnd = random.Random(draw(st.integers(0, 2**32)))
    weights = [rnd.random() ** 6 for _ in range(num_sets)]
    pc_weights = [rnd.random() for _ in range(4)]
    span = [rnd.randint(1, 3 * ways) for _ in range(num_sets)]
    period, noise = rnd.randint(5, 100), rnd.random() ** 3
    fresh, clock, due, accesses = [0] * num_sets, [0] * num_sets, [{} for _ in range(num_sets)], []
    for s in rnd.choices(range(num_sets), weights, k=rnd.randint(1, 1500)):
        clock[s] = t = clock[s] + 1
        b = due[s].pop(t, None)
        if b is None:
            pc = rnd.choices(range(4), pc_weights)[0]
            if pc < 2:
                fresh[s] += 1
                b = (4 * fresh[s] + pc) * num_sets + s
                short = (t // period + pc) % 2
                gap = rnd.randint(0, ways // 2) if short else rnd.randint(ways // 2, ways)
                due[s].setdefault(t + 1 + gap, b)
            else:
                b = (4 * rnd.randrange(span[s]) + pc) * num_sets + s
        accesses.append((b, rnd.randrange(4) if rnd.random() < noise else b // num_sets % 4))
    return accesses, num_sets, ways, sampler_sets, base, mode


@st.composite
def follower_cases(draw):
    """A block trace of 1-2000 accesses on 128, 256 or 512 sets of 1-4
    ways, each set with its own share of the accesses and its own
    footprint of 1 to 3 x ways blocks, and each access High-Reuse-hinted
    with one probability per trace."""
    ways = draw(st.integers(1, 4))
    num_sets = draw(st.sampled_from([128, 256, 512]))
    rnd = random.Random(draw(st.integers(0, 2**32)))
    weights = [rnd.random() ** 3 for _ in range(num_sets)]
    footprint = [rnd.randint(1, 3 * ways) for _ in range(num_sets)]
    high = rnd.random() ** 2
    accesses = [(rnd.randrange(footprint[s]) * num_sets + s, rnd.random() < high)
                for s in rnd.choices(range(num_sets), weights, k=rnd.randint(1, 2000))]
    return accesses, num_sets, ways


@seed(20261020)
@settings(max_examples=FOLLOWER_EXAMPLES, deadline=None, database=None)
@given(follower_cases(), st.sampled_from(["dip", "drrip2", "drrip3", "pin25", "pin50", "pin75",
                                          "pin100"]), st.integers(0, _U64))
def _check_set_dueling(case, name, run_seed):
    accesses, num_sets, ways = case
    blocks, high = zip(*accesses)
    got = engine_log(name, blocks, num_sets, ways, seed=run_seed, high=high)
    assert got == set_dueling_model(accesses, num_sets, ways, name, run_seed)


@seed(20261021)
@settings(max_examples=LEEWAY_EXAMPLES, deadline=None, database=None)
@given(leeway_cases(), st.integers(0, _U64))
def _check_leeway(case, run_seed):
    accesses, num_sets, ways, sampler_sets, base, mode = case
    blocks, pcs = zip(*accesses)
    policy = BASES[base](mode=mode, sampler_sets=sampler_sets)
    got = engine_log(None, blocks, num_sets, ways, seed=run_seed, pcs=pcs, policy=policy)
    assert got == leeway_model(accesses, num_sets, ways, base, mode, sampler_sets, run_seed)


@seed(20261019)
@settings(max_examples=LEEWAY_PSEL_EXAMPLES, deadline=None, database=None)
@given(leeway_psel_cases(), st.sampled_from(["lru", "nru"]), st.integers(0, _U64))
def _check_leeway_psel(case, base, run_seed):
    accesses, num_sets, ways, sampler_sets = case
    log = []

    class LastBank(list):
        """The predictor table's banks, noting the bank last looked up."""

        def __getitem__(self, bank):
            self.last = bank
            return super().__getitem__(bank)

    class Logged(BASES[base]):
        def reset(self, geometry, rng, trace, tags):
            super().reset(geometry, rng, trace, tags)
            self.stable = LastBank(self.stable)

        def decide_insert(self, view):
            insert = super().decide_insert(view)
            log.append((view.set_index, self.stable.last))  # the bank this miss predicted with
            return insert

    trace = Trace([MemoryAccess(64 * b, pc_signature=pc) for b, pc in accesses])
    policy = Logged(sampler_sets=sampler_sets)
    simulate(trace, CacheGeometry(num_sets, ways, 64), policy, seed=run_seed)
    assert log == leeway_psel_model([s for s, _ in log], num_sets, sampler_sets)


@seed(20261018)
@settings(max_examples=BELADY_EXAMPLES, deadline=None, database=None)
@given(repeat_cases())
def _check_belady(case):
    blocks, num_sets, ways = case
    trace = Trace([MemoryAccess(64 * b) for b in blocks])
    for bypass in (False, True):
        r = opt_oracle(trace, CacheGeometry(num_sets, ways, 64), allow_bypass=bypass)
        got = dict(hits=r.hits, misses=r.misses, bypasses=r.bypasses, evictions=r.evictions)
        assert got == belady_model(blocks, num_sets, ways, bypass), bypass


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


@seed(20261018)
@settings(max_examples=EXAMPLES, deadline=None, database=None)
@given(cases(set_counts=(1,)), st.sampled_from([2, 3]), st.integers(0, _U64))
def _check_drrip(case, m, run_seed):
    blocks, _, ways = case
    got = engine_log("drrip%d" % m, blocks, 1, ways, seed=run_seed)
    assert got == drrip_model(blocks, ways, m, run_seed)


@seed(20261018)
@settings(max_examples=EXAMPLES, deadline=None, database=None)
@given(cases(), st.sampled_from(["lip", "bip"]), st.integers(0, _U64))
def _check_lip_bip(case, name, run_seed):
    blocks, num_sets, ways = case
    got = engine_log(name, blocks, num_sets, ways, seed=run_seed)
    insert = "lru" if name == "lip" else "bimodal"
    assert got == lru_stack_model(blocks, num_sets, ways, insert, run_seed)


@seed(20261018)
@settings(max_examples=EXAMPLES, deadline=None, database=None)
@given(cases(set_counts=(1,)), st.integers(0, _U64))
def _check_dip(case, run_seed):
    blocks, _, ways = case
    assert engine_log("dip", blocks, 1, ways, seed=run_seed) == dip_model(blocks, ways, run_seed)


def within_budget(check, budget):
    t0 = time.perf_counter()
    check()
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, "exceeded %.1fs budget (%.1fs)" % (budget, elapsed)


def test_lru_matches_the_stack_model_access_for_access():
    within_budget(_check_lru, BUDGET_S * SHARE["lru"])


def test_lip_and_bip_match_the_stack_model_access_for_access():
    within_budget(_check_lip_bip, INSERTION_BUDGET_S)


def test_single_set_dip_matches_the_shadow_duel_model_access_for_access():
    within_budget(_check_dip, INSERTION_BUDGET_S)


def test_srrip_matches_the_rrpv_model_access_for_access():
    within_budget(_check_srrip, BUDGET_S * SHARE["srrip"])


def test_single_set_drrip_matches_the_shadow_duel_model_access_for_access():
    within_budget(_check_drrip, BUDGET_S * SHARE["drrip"])


def test_opt_counters_match_the_belady_model_on_set_local_repeats():
    within_budget(_check_belady, BELADY_BUDGET_S)


def test_dueling_followers_insert_as_the_winner_and_pinned_ways_stay():
    within_budget(_check_set_dueling, FOLLOWER_BUDGET_S)


def test_leeway_followers_run_the_bank_psel_favours():
    within_budget(_check_leeway_psel, LEEWAY_PSEL_BUDGET_S)


def test_leeway_matches_the_live_distance_model_access_for_access():
    within_budget(_check_leeway, LEEWAY_BUDGET_S)
