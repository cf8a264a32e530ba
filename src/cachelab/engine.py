"""Set-associative cache engine: geometry, simulation loop, run reports.

The engine owns set/way state and miss/eviction accounting; replacement
behavior is delegated to a Policy object through four hooks (insertion
decision, victim choice, fill, hit).  Every source of randomness in a
run comes from one seeded splitmix64 generator, so identical
(trace, geometry, policy, seed) inputs reproduce identical reports.
"""

from collections import OrderedDict
from dataclasses import dataclass, field, replace

from cachelab.trace import Trace

_U64 = (1 << 64) - 1


class SplitMix64:
    """Named 64-bit PRNG (splitmix64); tiny, portable, deterministic."""

    def __init__(self, seed):
        self._state = seed & _U64

    def next_u64(self):
        self._state = (self._state + 0x9E3779B97F4A7C15) & _U64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _U64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _U64
        return z ^ (z >> 31)

    def random(self):
        """Uniform float in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * (2.0**-53)

    def randrange(self, n):
        """Uniform integer in [0, n)."""
        return self.next_u64() % n

    def choice(self, seq):
        return seq[self.next_u64() % len(seq)]


def _is_pow2(x):
    return x >= 1 and (x & (x - 1)) == 0


@dataclass(frozen=True)
class CacheGeometry:
    """num_sets and block_bytes must be powers of two; ways >= 1."""

    num_sets: int
    ways: int
    block_bytes: int = 64

    def __post_init__(self):
        if not _is_pow2(self.num_sets):
            raise ValueError("num_sets must be a power of two")
        if self.ways < 1:
            raise ValueError("ways must be >= 1")
        if not _is_pow2(self.block_bytes) or self.block_bytes < 8:
            raise ValueError("block_bytes must be a power of two >= 8")

    @property
    def capacity_bytes(self):
        return self.num_sets * self.ways * self.block_bytes

    def block_index(self, address):
        return address // self.block_bytes

    def set_index(self, address):
        return (address // self.block_bytes) % self.num_sets

    def tag(self, address):
        return (address // self.block_bytes) // self.num_sets


class BlockSlot:
    """One way of one set.  `state` is owned by the active policy."""

    __slots__ = ("valid", "tag", "state")

    def __init__(self):
        self.valid = False
        self.tag = 0
        self.state = None


class SetView:
    """What a policy sees when handling one access to one set."""

    __slots__ = ("slots", "set_index", "ways", "access_index")

    def __init__(self, slots, set_index, ways):
        self.slots = slots
        self.set_index = set_index
        self.ways = ways
        self.access_index = 0


class Policy:
    """Replacement policy contract.

    The engine calls exactly one of on_hit / decide_insert per access,
    in trace order.  choose_victim is called only when an insertion
    needs a full set; the policy may read the victim slot's state there
    (the engine clears it afterwards) and sets `predicted_dead` to True
    when the victim was taken from a predicted-dead set.  on_interval
    observes the run's counters and must not change any later decision.
    """

    name = "policy"
    flags_dead = False
    predicted_dead = False

    def reset(self, geometry, rng):
        self.geometry = geometry
        self.rng = rng

    def decide_insert(self, view, access):
        return True

    def choose_victim(self, view, access):
        raise NotImplementedError

    def on_insert(self, view, way, access):
        pass

    def on_hit(self, view, way, access):
        pass

    def on_interval(self, counters):
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
    trace_fingerprint: tuple = (0, 0, 0)
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

    CSV_HEADER = (
        "policy,accesses,hits,misses,bypasses,evictions,"
        "coverage,accuracy,miss_per_kilo_access,mpki"
    )

    def csv_row(self):
        return "%s,%d,%d,%d,%d,%d,%.6f,%.6f,%.6f,%.6f" % (
            self.policy,
            self.accesses,
            self.hits,
            self.misses,
            self.bypasses,
            self.evictions,
            self.coverage,
            self.accuracy,
            self.miss_per_kilo_access,
            self.mpki,
        )

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
            label = lambda k: getattr(k, "name", str(k)).lower()
            d["hint_class_accesses"] = {label(k): v for k, v in self.hint_class_accesses.items()}
            d["hint_class_hits"] = {label(k): v for k, v in self.hint_class_hits.items()}
        return d


def lru_would_miss(stream, start, tag, ways):
    """True if tag's next reference in stream[start:] comes at or after
    `ways` distinct other blocks, or never comes.

    This is the dead-eviction correctness rule: an eviction at stream
    position `start` (the position of the access that triggered it) is
    correct when even a cache that kept the block most-recently-used
    would have missed its next reference.
    """
    seen = set()
    for t in stream[start:]:
        if t == tag:
            return False
        seen.add(t)
        if len(seen) >= ways:
            return True
    return True


def simulate(trace, geometry, policy, seed=0, classify=None, interval=None):
    """Run a policy over a trace and return its SimReport.

    classify: optional address -> int used purely for per-class
    hit-rate accounting (the policy never sees it).
    interval: optional access count between policy.on_interval calls,
    which observe the counters without changing any decision.
    """
    num_sets = geometry.num_sets
    ways = geometry.ways
    block_shift = geometry.block_bytes.bit_length() - 1
    set_mask = num_sets - 1
    set_shift = num_sets.bit_length() - 1

    sets = [[BlockSlot() for _ in range(ways)] for _ in range(num_sets)]
    views = [SetView(sets[i], i, ways) for i in range(num_sets)]
    lookup = [dict() for _ in range(num_sets)]
    fill = [0] * num_sets

    rng = SplitMix64(seed)
    policy.reset(geometry, rng)

    track_dead = policy.flags_dead
    streams = [[] for _ in range(num_sets)] if track_dead else None
    dead_log = []

    report = SimReport(
        policy=policy.name,
        num_sets=num_sets,
        ways=ways,
        block_bytes=geometry.block_bytes,
        seed=seed,
    )
    hits = misses = bypasses = evictions = dead_predicted = 0
    insertions = 0
    total_inst = 0
    cls_acc = report.hint_class_accesses
    cls_hit = report.hint_class_hits

    for index, access in enumerate(trace):
        blk = access.address >> block_shift
        si = blk & set_mask
        tag = blk >> set_shift
        slots = sets[si]
        view = views[si]
        view.access_index = index
        total_inst += access.inst_delta

        if classify is not None:
            cls = classify(access.address)
            cls_acc[cls] = cls_acc.get(cls, 0) + 1

        way = lookup[si].get(tag)
        if way is not None:
            hits += 1
            if classify is not None:
                cls_hit[cls] = cls_hit.get(cls, 0) + 1
            policy.on_hit(view, way, access)
        else:
            misses += 1
            if policy.decide_insert(view, access):
                if fill[si] < ways:
                    way = fill[si]
                    fill[si] += 1
                else:
                    policy.predicted_dead = False
                    way = policy.choose_victim(view, access)
                    vslot = slots[way]
                    if not vslot.valid:
                        raise RuntimeError("policy chose an invalid victim way")
                    evictions += 1
                    if policy.predicted_dead:
                        dead_predicted += 1
                        dead_log.append((si, len(streams[si]), vslot.tag))
                    del lookup[si][vslot.tag]
                    vslot.valid = False
                    vslot.state = None
                slot = slots[way]
                slot.valid = True
                slot.tag = tag
                lookup[si][tag] = way
                insertions += 1
                policy.on_insert(view, way, access)
            else:
                bypasses += 1

        if track_dead:
            streams[si].append(tag)

        if interval and (index + 1) % interval == 0:
            policy.on_interval(
                {"accesses": index + 1, "hits": hits, "misses": misses}
            )

    correct = 0
    for si, pos, vtag in dead_log:
        if lru_would_miss(streams[si], pos, vtag, ways):
            correct += 1

    assert hits + misses == len(trace)
    assert insertions == misses - bypasses
    assert evictions <= insertions

    report.accesses = len(trace)
    report.hits = hits
    report.misses = misses
    report.bypasses = bypasses
    report.evictions = evictions
    report.dead_predicted_evictions = dead_predicted
    report.dead_predictions_correct = correct
    report.total_instructions = total_inst
    n = len(trace)
    report.trace_fingerprint = (
        n,
        trace[0].address if n else 0,
        trace[n - 1].address if n else 0,
    )
    return report


def filter_trace(trace, num_sets, ways, block_bytes=64):
    """Drop accesses that hit in a small LRU front cache.

    Models the private-cache levels in front of the LLC: only front
    misses reach the simulated cache.  Returns a new Trace.
    """
    front_geom = CacheGeometry(num_sets, ways, block_bytes)
    front = [OrderedDict() for _ in range(num_sets)]
    block = front_geom.block_bytes
    kept = []
    pending_inst = 0
    for access in trace:
        blk = access.address // block
        si = blk % num_sets
        tags = front[si]
        pending_inst += access.inst_delta
        if blk in tags:
            tags.move_to_end(blk)
            continue
        tags[blk] = True
        if len(tags) > ways:
            tags.popitem(last=False)
        if pending_inst != access.inst_delta:
            # fold instruction counts of the dropped hits into this record
            access = replace(access, inst_delta=pending_inst)
        kept.append(access)
        pending_inst = 0
    return Trace(kept, name=trace.name + "|filtered" if trace.name else "filtered")
