"""Set-associative cache engine: geometry, simulation loop, run reports.

The engine owns set/way state and one outcome byte per access; replacement
behavior is delegated to a Policy object through four hooks (insertion
decision, victim choice, fill, hit).  Every source of randomness in a
run comes from one seeded splitmix64 generator, so identical
(trace, geometry, policy, seed) inputs reproduce identical reports.
"""

from bisect import bisect_left
from collections import OrderedDict
from dataclasses import dataclass, field
from itertools import count, islice, pairwise

import numpy as np

from .trace import ReuseHint, Trace

_U64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1, _MIX2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)


class SplitMix64:
    """Named 64-bit PRNG (splitmix64); tiny, portable, deterministic.

    Draw k of seed s is mix(s + k * gamma mod 2**64) (Steele, Lea & Flood,
    OOPSLA 2014), so draws are computed ahead in numpy blocks, 16 at first
    and doubling up to 1,024, and read through memoryviews.  Every method
    takes the next draw of the one stream, so the sequence is the scalar
    generator's, bit for bit."""

    def __init__(self, seed):
        self._state = seed & _U64  # s + k * gamma of the last computed draw
        self._size, self._pos, self._floats = 8, 0, b""  # the block's draws as random() floats

    def next_u64(self):
        self.random()  # steps past the next draw, computing a block if needed
        return self._block[self._pos - 1]

    def random(self):
        """Uniform float in [0, 1) with 53 random bits: the top bits of
        next_u64()."""
        pos = self._pos
        try:
            x = self._floats[pos]
        except IndexError:  # the block is used up: compute the next one
            self._size = size = min(2 * self._size, 1024)
            z = np.arange(1, size + 1, dtype=np.uint64) * np.uint64(_GAMMA)
            z += np.uint64(self._state)  # wraps mod 2**64, as the state does
            self._state = (self._state + size * _GAMMA) & _U64
            z = (z ^ (z >> np.uint64(30))) * _MIX1
            z = (z ^ (z >> np.uint64(27))) * _MIX2
            z ^= z >> np.uint64(31)
            self._block = memoryview(z)
            self._floats = memoryview((z >> np.uint64(11)).astype(np.float64) * 2.0**-53)
            pos, x = 0, self._floats[0]
        self._pos = pos + 1
        return x

    @property
    def drawn(self):  # whether any draw has been taken yet
        return self._pos > 0

    def randrange(self, n):
        """Uniform integer in [0, n)."""
        return self.next_u64() % n

    def choice(self, seq):
        return seq[self.next_u64() % len(seq)]


def _is_pow2(x):
    return x >= 1 and (x & (x - 1)) == 0


@dataclass(frozen=True)
class CacheGeometry:
    """Three ints: num_sets and block_bytes powers of two, ways >= 1."""

    num_sets: int
    ways: int
    block_bytes: int = 64

    def __post_init__(self):
        if any(type(v) is not int for v in (self.num_sets, self.ways, self.block_bytes)):
            raise ValueError("num_sets, ways and block_bytes must be ints")
        if not _is_pow2(self.num_sets):
            raise ValueError("num_sets must be a power of two")
        if self.ways < 1:
            raise ValueError("ways must be >= 1")
        if not _is_pow2(self.block_bytes) or self.block_bytes < 8:
            raise ValueError("block_bytes must be a power of two >= 8")

    @property
    def capacity_bytes(self):
        return self.num_sets * self.ways * self.block_bytes

    def blocks(self, addresses, out=None):
        """Block number of each address in a uint64 array, as int64 (a
        block number has at most 61 bits), into `out` when given (it may
        be `addresses`); set index and tag are its low and high parts,
        `blocks & (num_sets - 1)` and `blocks >> set_bits`."""
        return np.right_shift(addresses, self.block_bytes.bit_length() - 1, out=out).view(np.int64)

    @property
    def set_bits(self):
        return self.num_sets.bit_length() - 1


HIT, BYPASS, EVICT = 1, 2, 3  # run_policy's outcome codes; 0 is a fill of a free way
SLICE = 1 << 14  # entries per step of a post-pass loop, so its temporaries stay this long


def _set_order(sets):
    """Positions of a set index column grouped set by set, stably, as int32
    (int64 past 2**31), the sets it holds in ascending order, and each one's
    end.  One stable sort of a copy of the column (a radix pass for uint8 or
    uint16) gives the sets and where each begins; then, SLICE entries at a
    time, a slice's positions go to their set's running start plus their
    rank in the slice's stable argsort.  Beside the order, no array as long
    as the column is wider than it, and none is as long as the set count."""
    n, ranked = len(sets), np.sort(sets, kind="stable")
    new = np.empty(n, dtype=bool)  # new[k]: ranked[k] is its set's first
    new[:1] = True
    np.not_equal(ranked[1:], ranked[:-1], out=new[1:])
    ids, starts = ranked[new], new.nonzero()[0]  # each set's start: the entries of lower sets
    del ranked, new  # freed before the order is made, so the peak is the order's
    order = np.empty(n, dtype=np.int32 if n < 2**31 - 1 else np.int64)
    ramp = np.arange(min(SLICE, n), dtype=order.dtype)
    for s in range(0, n, SLICE):
        part = sets[s:s + SLICE]
        rank = part.argsort(kind="stable")
        part = part[rank]
        first = np.searchsorted(part, ids)  # each set's first in the slice
        count = np.searchsorted(part, ids, side="right") - first
        rank = np.add(rank, s, dtype=order.dtype)  # an intp value column scatters at half speed
        dest = np.repeat(starts - first, count)
        dest += ramp[:len(rank)]
        order[dest] = rank
        starts += count
        del rank, dest  # no slice temporary outlives its step
    return order, ids, starts  # each start has moved to its set's end


def _set_runs(geometry, addresses):
    """Each set's runs of back-to-back accesses to one block, in _set_order:
    per run, the trace position of its first access, its head (int32 while
    it fits), the head's block, and whether the run has more than one
    access.  Set bits, run edges and head blocks are taken SLICE entries at
    a time: only the order, set indices and run edges span the trace."""
    n, mask = len(addresses), geometry.num_sets - 1
    sets = np.empty(n, dtype=np.min_scalar_type(mask))
    for s in range(0, n, SLICE):
        sets[s:s + SLICE] = geometry.blocks(addresses[s:s + SLICE]) & mask
    order = _set_order(sets)[0]
    del sets
    edge = np.empty(n + 1, dtype=bool)  # edge[k]: a run ends at k - 1, one starts at k
    edge[0] = edge[-1] = True
    for s in range(0, n - 1, SLICE):
        run = addresses[order[s:s + SLICE + 1].astype(np.intp)]  # an intp index gathers faster
        run = geometry.blocks(run, out=run)
        np.not_equal(run[1:], run[:-1], out=edge[s + 1:s + len(run)])
        del run
    heads, repeats = order[edge[:-1]], ~edge[1:][edge[:-1]]
    del order, edge
    blocks = np.empty(len(heads), dtype=np.uint64)
    for s in range(0, len(heads), SLICE):
        blocks[s:s + SLICE] = addresses[heads[s:s + SLICE].astype(np.intp)]
    return heads, geometry.blocks(blocks, out=blocks), repeats


def _block_links(blocks, none, dtype, back=False):
    """links[i] = the position of the next entry equal to blocks[i] (the
    previous one when back), else none, as dtype.  One stable sort by
    block puts each block's entries in order: every entry links to its
    neighbour in the sort, then the links that cross from one block to
    the next are undone, SLICE sorted entries at a time, so only the
    order and the links are as long as blocks."""
    order = blocks.argsort(kind="stable")
    links = np.full(len(order), none, dtype=dtype)
    earlier, later = order[:-1], order[1:]
    if back:
        earlier, later = later, earlier
    links[earlier] = later
    for s in range(0, len(order) - 1, SLICE):
        run = blocks[order[s:s + SLICE + 1]]
        links[earlier[s:s + SLICE][run[1:] != run[:-1]]] = none
    return links


class SetView:
    """The one record of a set the trace touches: its resident tags, the
    policy's state and the policy's own record of each block (`meta`,
    None until it writes one), one entry per filled way; its tag -> way
    map `where`; and the access being handled."""

    __slots__ = ("tags", "state", "where", "meta", "set_index", "ways", "access_index")

    def __init__(self, set_index, ways):
        self.tags, self.state, self.where, self.meta = [], [], {}, []
        self.set_index, self.ways, self.access_index = set_index, ways, 0


class Policy:
    """Replacement policy contract: one setup call and four hooks.

    Each run calls reset once, with the geometry, the run's generator,
    the trace and the engine's per-access tag buffer, then exactly one
    of on_hit / decide_insert per access, in trace order; run_policy
    records each access's outcome in one byte.  Hooks get the
    set's view, whose access_index is the access's position in the
    trace; a policy that reads a per-access field takes it in reset as a
    typed buffer (a memoryview over the numpy column, at most 8 bytes
    per access, never a list) and indexes it by view.access_index.

    view.state is the policy's list, a value per way or an order of the
    filled ways, and view.meta[way] its own record of the way's block, if
    it keeps one.  The engine fills ways in order, appending the tag to
    view.tags, the way number to view.state and None to view.meta, so a
    way is filled exactly when way < len(view.state) and a fresh way is
    last in an order; a victim's way is refilled in place, view.state as
    choose_victim left it.  A per-way policy's on_insert overwrites
    state[way] and meta[way] (a refilled way holds the evicted block's);
    an order-keeping one moves the way where the fill belongs.
    choose_victim is called only when an insertion meets a full set and
    returns a way in 0..ways-1 (a dead-block predictor's also logs a
    victim predicted dead in dead_log, as (access index, set, tag)).
    The engine looks the hooks up once, after reset, as loop locals.
    """

    name = "policy"
    dead_log = ()  # a policy that predicts no dead blocks logs none

    def reset(self, geometry, rng, trace, tags):
        self.geometry = geometry
        self.rng = rng

    def decide_insert(self, view):
        return True

    def choose_victim(self, view):
        raise NotImplementedError

    def on_insert(self, view, way):
        pass

    def on_hit(self, view, way):
        pass


@dataclass
class SimReport:
    """Counter snapshot for one (trace, geometry, policy, seed) run."""

    policy: str
    num_sets: int
    ways: int
    block_bytes: int
    seed: int
    accesses: int = 0
    hits: int = 0
    misses: int = 0
    bypasses: int = 0
    evictions: int = 0
    dead_predicted_evictions: int = 0
    dead_predictions_correct: int = 0
    total_instructions: int = 0
    trace_fingerprint: str = ""
    hint_class_accesses: dict = field(default_factory=dict)
    hint_class_hits: dict = field(default_factory=dict)

    @property
    def coverage(self):
        """Fraction of evictions that were predicted dead."""
        if self.evictions == 0:
            return 0.0
        return self.dead_predicted_evictions / self.evictions

    @property
    def accuracy(self):
        """Fraction of predicted-dead evictions whose block truly stayed dead."""
        if self.dead_predicted_evictions == 0:
            return 0.0
        return self.dead_predictions_correct / self.dead_predicted_evictions

    @property
    def miss_per_kilo_access(self):
        if self.accesses == 0:
            return 0.0
        return 1000.0 * self.misses / self.accesses

    @property
    def mpki(self):
        if self.total_instructions == 0:
            return 0.0
        return 1000.0 * self.misses / self.total_instructions

    def to_dict(self):
        d = {
            "policy": self.policy,
            "num_sets": self.num_sets,
            "ways": self.ways,
            "block_bytes": self.block_bytes,
            "seed": self.seed,
            "accesses": self.accesses,
            "hits": self.hits,
            "misses": self.misses,
            "bypasses": self.bypasses,
            "evictions": self.evictions,
            "coverage": self.coverage,
            "accuracy": self.accuracy,
            "miss_per_kilo_access": self.miss_per_kilo_access,
            "mpki": self.mpki,
        }
        if self.hint_class_accesses:
            for key in ("hint_class_accesses", "hint_class_hits"):
                d[key] = {k.name.lower(): v for k, v in getattr(self, key).items()}
        return d


def lru_would_miss(stream, start, tag, ways):
    """True if tag's next reference in stream[start:] comes at or
    after `ways` distinct other blocks, or never comes.

    This is the dead-eviction correctness rule: an eviction at stream
    position `start` (the position of the access that triggered it) is
    correct when even a cache that kept the block most-recently-used
    would have missed its next reference.  The stream may be any
    iterable of tags.
    """
    seen = set()
    for t in islice(stream, start, None):
        if t == tag:
            return False
        seen.add(t)
        if len(seen) >= ways:
            return True
    return True


def _score_dead(dead_log, set_col, tag_col, ways):
    """Count the correct entries of dead_log, (access index, set, victim
    tag) per predicted-dead eviction, against each set's tag stream: the
    set's positions in _set_order from the eviction on, read as tags."""
    order, ids, ends = _set_order(set_col)
    position, tags, ends = memoryview(order), memoryview(tag_col), ends.tolist()
    span = dict(zip(ids.tolist(), zip([0] + ends, ends)))  # each set's start and end
    rows = [bisect_left(position, index, *span[si]) for index, si, _ in dead_log]
    return sum(lru_would_miss(map(tags.__getitem__, position[row:span[si][1]]), 0, vtag, ways)
               for row, (_, si, vtag) in zip(rows, dead_log))


def run_policy(policy, geometry, rng, trace, sets, tags):
    """The cache loop: reset policy, then run it over one set index and
    one tag per access of trace.

    Returns the outcome column, one byte per access: 0 for a fill of a
    free way, HIT, BYPASS, or EVICT for a fill that evicted.  The loop
    keeps no counter (_report counts the column) and checks the end state.
    """
    ways = geometry.ways
    views = {}  # set index -> SetView, built on the set's first access

    policy.reset(geometry, rng, trace, tags)
    on_hit, decide_insert = policy.on_hit, policy.decide_insert
    choose_victim, on_insert = policy.choose_victim, policy.on_insert
    if getattr(decide_insert, "__func__", None) is Policy.decide_insert:
        decide_insert = None  # inserts on every miss, no call needed

    outcome = bytearray(len(tags))
    hit, bypass, evict = HIT, BYPASS, EVICT  # a module-global read per access is slower

    for index, si, tag in zip(count(), sets, tags):
        try:
            view = views[si]
        except KeyError:  # a plain dict: a subclass's __missing__ slows every lookup
            view = views[si] = SetView(si, ways)
        view.access_index = index
        where = view.where
        way = where.get(tag)
        if way is not None:
            outcome[index] = hit
            on_hit(view, way)
            continue
        if decide_insert is not None and not decide_insert(view):
            outcome[index] = bypass
            continue
        resident = view.tags
        way = len(resident)
        if way < ways:
            resident.append(tag)
            view.state.append(way)
            view.meta.append(None)
        else:
            way = choose_victim(view)
            if not 0 <= way < ways:
                raise RuntimeError("victim way %r outside 0..%d" % (way, ways - 1))
            outcome[index] = evict
            del where[resident[way]]
            resident[way] = tag
        where[tag] = way
        on_insert(view, way)

    fills, resident = outcome.count(0), sum(len(view.tags) for view in views.values())
    if fills != resident:  # also an access the loop never reached: its byte reads as a fill
        raise RuntimeError("%d fills of a free way != %d resident blocks" % (fills, resident))
    if any(view.where != {tag: way for way, tag in enumerate(view.tags)}
           for view in views.values()):
        raise RuntimeError("a set's tag map disagrees with its resident tags")
    return outcome


def _report(policy, geometry, seed, trace, outcome):
    """The SimReport of a run_policy outcome column over trace; an access
    the column leaves out (one of OPT's set-local repeats) is a hit."""
    misses = len(outcome) - outcome.count(HIT)
    return SimReport(policy.name, geometry.num_sets, geometry.ways, geometry.block_bytes, seed,
                     accesses=len(trace), hits=len(trace) - misses, misses=misses,
                     bypasses=outcome.count(BYPASS), evictions=outcome.count(EVICT),
                     dead_predicted_evictions=len(policy.dead_log),
                     total_instructions=trace.total_instructions(),
                     trace_fingerprint=trace.digest())


def simulate(trace, geometry, policy, seed=0, classify=None):
    """Run a policy over a trace and return its SimReport.

    classify: optional labeller, called once with the address column and
    returning a ReuseHint code per access (`RegionMap.classify` is one),
    used purely for per-class access and hit counts, which are keyed by
    ReuseHint and leave out classes with none; the policy never sees it.
    """
    num_sets, ways = geometry.num_sets, geometry.ways
    tag_col = geometry.blocks(trace.addresses)
    set_col = tag_col.astype(np.min_scalar_type(num_sets - 1))
    set_col &= num_sets - 1  # a narrowing cast keeps the low bits
    tag_col >>= geometry.set_bits  # block numbers become tags in place

    outcome = run_policy(policy, geometry, SplitMix64(seed), trace,
                         memoryview(set_col), memoryview(tag_col))
    report = _report(policy, geometry, seed, trace, outcome)
    if policy.dead_log:
        report.dead_predictions_correct = _score_dead(policy.dead_log, set_col, tag_col, ways)
    if classify is not None:
        codes = classify(trace.addresses)
        accesses, hits = ([int(np.count_nonzero(c == hint)) for hint in ReuseHint]  # no intp copy
                          for c in (codes, codes[np.frombuffer(outcome, dtype=np.uint8) == HIT]))
        report.hint_class_accesses = {ReuseHint(c): n for c, n in enumerate(accesses) if n}
        report.hint_class_hits = {ReuseHint(c): n for c, n in enumerate(hits) if n}
    return report


def filter_trace(trace, num_sets, ways, block_bytes=64):
    """Drop accesses that hit in a small LRU front cache.

    Models the private-cache levels in front of the LLC: only front
    misses reach the simulated cache, each carrying the instruction
    counts of the hits dropped since the previous kept record.  Sets
    never interact, so each touched set's accesses are walked in
    _set_order through its own OrderedDict LRU.  Returns a new Trace.
    """
    blocks = CacheGeometry(num_sets, ways, block_bytes).blocks(trace.addresses)
    order, _, ends = _set_order((blocks & (num_sets - 1)).astype(np.min_scalar_type(num_sets - 1)))
    position, grouped, miss = memoryview(order), memoryview(blocks[order]), bytearray(len(trace))
    for start, end in pairwise([0] + ends.tolist()):
        tags = OrderedDict()
        for index, blk in zip(position[start:end], grouped[start:end]):
            if blk in tags:
                tags.move_to_end(blk)
                continue
            tags[blk] = True
            if len(tags) > ways:
                tags.popitem(last=False)
            miss[index] = 1
    kept = np.flatnonzero(miss)
    records = trace.records[kept]
    ran = np.cumsum(trace.records["inst_delta"], dtype=np.uint64)[kept]
    folded = np.diff(ran, prepend=np.uint64(0))
    if len(folded) and folded.max() > 0xFFFFFFFF:
        raise ValueError("folded inst_delta overflows u32")
    records["inst_delta"] = folded
    return Trace(records, name=trace.name + "|filtered" if trace.name else "filtered")
