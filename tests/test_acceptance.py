"""Acceptance gate: one test per shipped criterion, AC-1 through AC-11.

Each test prints a single "AC-n: PASS" or "AC-n: FAIL (reason)" line and
carries its own wall-clock budget.  Run with

    pytest tests/test_acceptance.py -v -s

to see the lines for passing criteria as well (pytest only echoes captured
stdout for failures by default).
"""

import struct
import time

import numpy as np
import pytest

from cachelab import graphs as G
from cachelab.engine import CacheGeometry, SplitMix64, simulate
from cachelab.grasp import GraspPolicy, RegionMap
from cachelab.leeway import LeewayLruPolicy
from cachelab.opt import opt_oracle
from cachelab.policies import POLICY_NAMES, DrripPolicy, LruPolicy, make_policy
from cachelab.trace import (
    BadMagicError,
    BadVersionError,
    MemoryAccess,
    PatternSpec,
    ReuseHint,
    Trace,
    TruncatedTraceError,
    generate_pattern,
    read_trace,
    write_trace,
)
from test_graphs import flat_group
from test_grasp import flat_class


class acceptance:
    """Context manager that prints the per-criterion verdict line."""

    def __init__(self, tag, budget_s):
        self.tag = tag
        self.budget_s = budget_s

    def __enter__(self):
        self.t0 = time.time()
        return self

    def check_budget(self):
        elapsed = time.time() - self.t0
        assert elapsed < self.budget_s, (
            "exceeded %.0fs budget (%.1fs)" % (self.budget_s, elapsed)
        )

    def __exit__(self, etype, exc, tb):
        if etype is None:
            self.check_budget()
            print("%s: PASS (%.1fs)" % (self.tag, time.time() - self.t0))
        else:
            reason = str(exc).splitlines()[0] if str(exc) else etype.__name__
            print("%s: FAIL (%s)" % (self.tag, reason))
        return False


# ---------------------------------------------------------------- AC-1


def test_ac01_live_distance_replay():
    """Hand-worked 25-access example on one 8-way LRU set.

    Block X must hit four times at stack depths 2,3,3,2, miss on its final
    access, and leave one eviction whose recorded live distance is 3; the
    learned stable distances are 3 for X's signature and 0 for F's.
    """
    with acceptance("AC-1", budget_s=1.0):
        letters = "X A X A B X A A A B B B A X F X A B C P Q R S T X".split()
        addr = {c: i * 64 for i, c in enumerate(sorted(set(letters)))}
        pc = {c: (ord(c) * 7) % 16384 for c in sorted(set(letters))}
        trace = Trace([MemoryAccess(addr[c], pc_signature=pc[c]) for c in letters])
        geom = CacheGeometry(1, 8, 64)

        class Recorder(LeewayLruPolicy):
            def __init__(self, **kw):
                super().__init__(**kw)
                self.hit_depths = []
                self.evictions = []
                self.outcomes = []

            def on_hit(self, view, way):
                depth = self.depth(view, way)
                self.hit_depths.append((view.tags[way], depth))
                self.outcomes.append(True)
                super().on_hit(view, way)

            def decide_insert(self, view):
                self.outcomes.append(False)
                return super().decide_insert(view)

            def choose_victim(self, view):
                way = super().choose_victim(view)
                _, observed, _ = view.meta[way]
                self.evictions.append((view.tags[way], observed))
                return way

        pol = Recorder(mode="static-bop")
        rep = simulate(trace, geom, pol, seed=0)

        x_tag = addr["X"] // 64  # one set: the tag is the block number
        x_depths = [d for t, d in pol.hit_depths if t == x_tag]
        assert x_depths == [2, 3, 3, 2], "X hit depths %r" % (x_depths,)
        x_lds = [ld for t, ld in pol.evictions if t == x_tag]
        assert x_lds == [3], "X live distance at eviction %r" % (x_lds,)
        assert pol.outcomes[-1] is False, "final X access must miss"
        assert pol.stable_distance(pc["X"], bank=0) == 3
        assert pol.stable_distance(pc["F"], bank=0) == 0
        assert (rep.hits, rep.misses, rep.bypasses) == (14, 11, 0)

        # the measurement rig must not have perturbed plain LRU behaviour
        plain = simulate(trace, geom, make_policy("lru"), seed=0)
        assert (plain.hits, plain.misses) == (14, 11)


# ---------------------------------------------------------- AC-2 / AC-3


def _build_suite(count=200, seed=2024):
    """Seeded random traces over assorted geometries; ~30% carry hints."""
    rng = SplitMix64(seed)
    suite = []
    for i in range(count):
        sets = 1 << rng.randrange(5)
        ways = 1 << rng.randrange(5)
        universe = max(2, int((sets * ways) * (0.5 + rng.randrange(8))))
        n = 300 + rng.randrange(601)
        geom = CacheGeometry(sets, ways, 64)
        abrs = [(0, universe * 64)] if i % 10 >= 7 else []
        records = []
        for _ in range(n):
            address = rng.randrange(universe) * 64
            if abrs:
                records.append(
                    MemoryAccess(
                        address,
                        pc_signature=rng.randrange(16384),
                        reuse_hint=flat_class(abrs, geom.capacity_bytes, address),
                        hint_valid=True,
                    )
                )
            else:
                records.append(
                    MemoryAccess(address, pc_signature=rng.randrange(16384))
                )
        suite.append((Trace(records, name="rand%03d" % i), geom, abrs))
    return suite


_SUITE_CACHE = []


def _suite():
    if not _SUITE_CACHE:
        _SUITE_CACHE.append(_build_suite())
    return _SUITE_CACHE[0]


def _reference_stack_distances(trace, geom):
    """Independent per-set stack simulator: most recent block first."""
    stacks = {}
    out = []
    for a in trace:
        blk = a.address // geom.block_bytes
        st = stacks.setdefault(blk % geom.num_sets, [])
        if blk in st:
            d = st.index(blk) + 1
            st.remove(blk)
        else:
            d = None
        st.insert(0, blk)
        out.append(d)
    return out


def test_ac02_lru_hits_iff_stack_distance_fits():
    """An LRU access hits exactly when its stack distance is <= ways."""
    with acceptance("AC-2", budget_s=30.0):
        class RecLru(LruPolicy):
            def __init__(self):
                super().__init__()
                self.outcomes = []

            def on_hit(self, view, way):
                self.outcomes.append(True)
                super().on_hit(view, way)

            def decide_insert(self, view):
                self.outcomes.append(False)
                return super().decide_insert(view)

        mismatches = 0
        for trace, geom, _ in _suite():
            pol = RecLru()
            simulate(trace, geom, pol, seed=1)
            dists = _reference_stack_distances(trace, geom)
            assert len(pol.outcomes) == len(dists)
            for outcome, d in zip(pol.outcomes, dists):
                if outcome != (d is not None and d <= geom.ways):
                    mismatches += 1
        assert mismatches == 0, "%d hit/stack-distance mismatches" % mismatches


def test_ac03_opt_dominates_every_policy():
    """The offline oracle never misses more than any online policy.

    Policies that bypassed during their run are compared against the
    bypass-capable oracle; everyone else against the mandatory-insert one.
    """
    with acceptance("AC-3", budget_s=120.0):
        names = [n for n in POLICY_NAMES if n != "opt"]
        violations = []
        for trace, geom, abrs in _suite():
            plain = opt_oracle(trace, geom, seed=11).misses
            with_bypass = opt_oracle(trace, geom, allow_bypass=True, seed=11).misses
            assert with_bypass <= plain
            for name in names:
                rep = simulate(trace, geom, make_policy(name, abrs=abrs), seed=11)
                bound = with_bypass if rep.bypasses > 0 else plain
                if rep.misses < bound:
                    violations.append((trace.name, name, rep.misses, bound))
        assert not violations, "dominance violations: %r" % (violations[:5],)


# ---------------------------------------------------------------- AC-4


def test_ac04_opt_equals_exhaustive_minimum():
    """Oracle miss counts equal a brute-force minimum over all evictions.

    Covers every trace of length <= 12 over <= 5 blocks on a 2-way single
    set.  The full space is walked through two miss-count-preserving
    reductions (canonical relabeling by first appearance, dropping
    immediate repeats), and both reductions are themselves validated
    against the oracle on random traces.
    """
    with acceptance("AC-4", budget_s=60.0) as ac:
        geom = CacheGeometry(1, 2, 64)
        blocks = [MemoryAccess(i * 64) for i in range(5)]
        inf = 1 << 30

        def dp_step(cur, c):
            # cur maps frozenset-of-cached-blocks (as bitmask) to the
            # fewest misses reaching it; one access to block c, no bypass
            b = 1 << c
            new = {}
            for mask, m in cur.items():
                if mask & b:
                    if new.get(mask, inf) > m:
                        new[mask] = m
                elif bin(mask).count("1") < 2:
                    nm = mask | b
                    if new.get(nm, inf) > m + 1:
                        new[nm] = m + 1
                else:
                    mm = mask
                    while mm:
                        low = mm & -mm
                        nm = (mask ^ low) | b
                        if new.get(nm, inf) > m + 1:
                            new[nm] = m + 1
                        mm ^= low
            return new

        checked = 0
        mismatches = []
        prefix = []

        def rec(used, last, cur):
            nonlocal checked
            if prefix:
                best = min(cur.values())
                got = opt_oracle(Trace([blocks[c] for c in prefix]), geom).misses
                checked += 1
                if got != best:
                    mismatches.append((tuple(prefix), got, best))
            if len(prefix) == 12:
                return
            for c in range(min(used + 1, 5)):
                if c == last:
                    continue
                prefix.append(c)
                rec(max(used, c + 1), c, dp_step(cur, c))
                prefix.pop()

        rec(0, -1, {0: 0})
        assert not mismatches, "oracle != exhaustive minimum: %r" % (mismatches[:3],)
        assert checked == 234045, "canonical enumeration size drifted: %d" % checked

        # the reductions must preserve oracle miss counts on raw traces
        rng = SplitMix64(99)
        for _ in range(300):
            n = 1 + rng.randrange(12)
            raw = [rng.randrange(5) for _ in range(n)]
            seen = {}
            canon = [seen.setdefault(x, len(seen)) for x in raw]
            dedup = [raw[0]] + [x for j, x in enumerate(raw[1:], 1) if x != raw[j - 1]]
            m_raw = opt_oracle(Trace([blocks[c] for c in raw]), geom).misses
            assert m_raw == opt_oracle(Trace([blocks[c] for c in canon]), geom).misses
            assert m_raw == opt_oracle(Trace([blocks[c] for c in dedup]), geom).misses
        ac.check_budget()


# ---------------------------------------------------------------- AC-5


def test_ac05_thrash_adaptivity():
    """Cyclic loop of twice the associativity on a single 16-way set.

    LRU must score exactly zero hits, and so must static RRIP at both
    widths: inserting every fill at rrpv max-1 with uniform aging is FIFO
    on a cyclic loop of 2x associativity.  The first victim search on a
    full set ages all 16 residents to rrpv max together; the next 16
    misses evict them in way order, and each new fill lands below rrpv max
    so it cannot be chosen while an old resident remains.  Every
    generation is flushed before its re-reference 31 distinct blocks
    later, under any tie-break and any rrpv width.  Static RRIP resists
    scans, not thrashing (Jaleel et al., ISCA 2010).

    Only bimodal insertion retains a hittable subset: DIP, BRRIP and DRRIP
    must each hit on at least a quarter of the accesses (the steady state
    is about (ways-1)/k = 15/32).
    """
    with acceptance("AC-5", budget_s=5.0):
        geom = CacheGeometry(1, 16, 64)
        trace = generate_pattern(PatternSpec(kind="thrash", k=32, n=64))
        static = ("srrip2", "srrip3")
        bimodal = ("dip", "brrip2", "brrip3", "drrip2", "drrip3")
        rate = {}
        for name in ("lru",) + static + bimodal:
            rep = simulate(trace, geom, make_policy(name), seed=7)
            rate[name] = rep.hits / len(trace)
        assert rate["lru"] == 0.0, "LRU must thrash to exactly 0 hits"
        for name in static:
            assert rate[name] == 0.0, (
                "%s hit rate %.3f, expected exactly 0: insertion at rrpv max-1 "
                "plus uniform aging is FIFO on a cyclic loop of 2x associativity, "
                "so no block survives to its re-reference" % (name, rate[name])
            )
        for name in bimodal:
            assert rate[name] >= 0.25, (
                "%s hit rate %.3f below 0.25: bimodal insertion must keep a "
                "hittable subset of a loop that static insertion flushes "
                "FIFO-fashion" % (name, rate[name])
            )


# ---------------------------------------------------------------- AC-6


def test_ac06_live_distance_training_convergence():
    """Two-signature workload: one re-referenced at depth 3, one streaming.

    After warm-up the depth-3 signature's table entry must settle at 3 and
    the streaming signature's at 0; follower sets must then bypass the
    streaming signature more than 95% of the time, and flagged-dead
    evictions must be right more than 90% of the time.
    """
    with acceptance("AC-6", budget_s=10.0):
        PC_A, PC_B = 0x00A, 0x00B
        SETS, WAYS = 64, 8
        GENS, ROTS, BURST = 40, 3, 5

        records = []
        bnext = 1  # odd block ids so streaming blocks never repeat
        for gen in range(GENS):
            for _rot in range(ROTS):
                for s in range(SETS):
                    for i in range(3):
                        blk = ((gen * 3 + i) * 2) * SETS + s
                        records.append(MemoryAccess(blk * 64, pc_signature=PC_A))
            for _j in range(BURST):
                for s in range(SETS):
                    blk = bnext * SETS + s
                    records.append(MemoryAccess(blk * 64, pc_signature=PC_B))
                    bnext += 2

        trace = Trace(records)
        geom = CacheGeometry(SETS, WAYS, 64)

        class Recorder(LeewayLruPolicy):
            def __init__(self, **kw):
                super().__init__(**kw)
                self.b_follower_misses = 0
                self.b_follower_bypasses = 0

            def decide_insert(self, view):
                ok = super().decide_insert(view)
                if (
                    self.pcs[view.access_index] == PC_B
                    and view.set_index not in self.sampler_bank
                ):
                    self.b_follower_misses += 1
                    if not ok:
                        self.b_follower_bypasses += 1
                return ok

        pol = Recorder(mode="static-bop", sampler_sets=8)
        rep = simulate(trace, geom, pol, seed=1)

        assert pol.stable_distance(PC_A, bank=0) == 3
        assert pol.stable_distance(PC_B, bank=0) == 0
        assert pol.b_follower_misses > 0
        bypass_rate = pol.b_follower_bypasses / pol.b_follower_misses
        assert bypass_rate > 0.95, "streaming bypass rate %.4f" % bypass_rate
        assert rep.dead_predicted_evictions > 0
        assert rep.accuracy > 0.90, "dead-prediction accuracy %.4f" % rep.accuracy


# ---------------------------------------------------------- AC-7 / AC-8


def test_ac07_region_hints_cut_misses_on_skewed_graph():
    """Power-law graph, degree-ordered, pull-direction traversal trace.

    With the property array's bounds classified into reuse regions, the
    hinted policy must eliminate at least 2% of the unhinted baseline's
    misses on a 256 KiB 16-way cache, and the high-reuse region's hit rate
    must be strictly higher under the hinted policy.
    """
    with acceptance("AC-7", budget_s=120.0):
        g = G.synth_powerlaw(100000, 16, skew_alpha=2.1, seed=42)
        g2 = G.apply_remap(g, G.dbg_reorder(g))
        trace, abrs = G.gen_graph_trace(g2)
        geom = CacheGeometry(256, 16, 64)
        rm = RegionMap(abrs, geom.capacity_bytes)

        reps = {}
        high_rate = {}
        for name in ("drrip3", "grasp"):
            rep = simulate(
                trace, geom, make_policy(name, abrs=abrs), seed=5, classify=rm.classify
            )
            reps[name] = rep
            acc = rep.hint_class_accesses.get(ReuseHint.HIGH, 0)
            hit = rep.hint_class_hits.get(ReuseHint.HIGH, 0)
            assert acc > 0
            high_rate[name] = hit / acc

        base, hinted = reps["drrip3"].misses, reps["grasp"].misses
        # measured on this corpus: base 549027, hinted 494232, 9.98% cut
        assert hinted <= base, "hinted policy missed more (%d > %d)" % (hinted, base)
        eliminated = 100.0 * (base - hinted) / base
        assert eliminated >= 2.0, "eliminated only %.3f%% of misses" % eliminated
        assert high_rate["grasp"] > high_rate["drrip3"], (
            "high-reuse hit rate not improved: %.4f vs %.4f"
            % (high_rate["grasp"], high_rate["drrip3"])
        )


def test_ac08_hints_do_not_hurt_without_skew_but_pinning_does():
    """Uniform-degree graph: hints must be neutral, hard pinning must not be.

    On a no-skew trace the hinted policy is allowed at most a 0.5% miss
    overhead over its unhinted base, while reserving every way for the
    property region (pin100) must cost at least as many misses as the
    hinted policy.
    """
    with acceptance("AC-8", budget_s=120.0):
        geom = CacheGeometry(256, 16, 64)
        u = G.synth_uniform(200000, 4, seed=9)
        trace, abrs = G.gen_graph_trace(
            u, bake_hints=True, llc_capacity=geom.capacity_bytes
        )
        miss = {}
        for name in ("drrip3", "grasp", "pin100"):
            miss[name] = simulate(
                trace, geom, make_policy(name, abrs=abrs), seed=3
            ).misses
        # measured on this corpus: drrip3 250005, grasp 250224, pin100 872118
        assert miss["grasp"] <= miss["drrip3"] * 1.005, (
            "hinted policy overhead beyond 0.5%%: %d vs %d"
            % (miss["grasp"], miss["drrip3"])
        )
        assert miss["pin100"] >= miss["grasp"], (
            "full pinning unexpectedly beat the hinted policy: %d < %d"
            % (miss["pin100"], miss["grasp"])
        )


# ---------------------------------------------------------------- AC-9


def test_ac09_degree_grouping_invariants():
    """Degree-based grouping on 100 random graphs.

    The reorder must equal a reference stable bucket sort exactly (which
    carries partition exactness and within-group stability), the grouping
    ranges must tile [0, inf) with no gaps or overlaps, and whenever cold
    vertices exist the reorder must not dilute hot vertices per block.
    """
    with acceptance("AC-9", budget_s=30.0):
        rng = SplitMix64(77)
        skew_cases = 0
        for k in range(100):
            if k % 10 < 7:
                v = 200 + rng.randrange(1801)
                avg = 2 + rng.randrange(19)
                alpha = 1.6 + 0.2 * rng.randrange(8)
                g = G.synth_powerlaw(v, avg, skew_alpha=alpha, seed=k)
            else:
                v = 100 + rng.randrange(901)
                g = G.synth_uniform(v, 1 + rng.randrange(8), seed=k)

            degrees = np.asarray(g.reuse_degrees())
            avg_deg = degrees.mean() if len(degrees) else 0.0
            spec = G.default_grouping(avg_deg)

            # ranges tile [0, inf): descending, contiguous, closed ends
            assert spec.ranges[0][1] == np.inf
            assert spec.ranges[-1][0] == 0
            for (lo1, _hi1), (_lo2, hi2) in zip(spec.ranges, spec.ranges[1:]):
                assert lo1 == hi2, "gap or overlap between degree ranges"

            remap = G.dbg_reorder(g, spec=spec)
            gi = spec.group_array(degrees)

            # reference: stable bucket sort by group, original order within
            order_ref = sorted(range(g.vertex_count), key=lambda i: gi[i])
            ref = np.empty(g.vertex_count, dtype=np.int64)
            ref[order_ref] = np.arange(g.vertex_count)
            assert np.array_equal(remap, ref), "reorder != stable bucket sort"

            # partition exactness: group index is monotone in the new order
            inv = np.empty(g.vertex_count, dtype=np.int64)
            inv[remap] = np.arange(g.vertex_count)
            seq = gi[inv]
            assert (np.diff(seq) >= 0).all()

            # single-range spot check of a flat range lookup against the array route
            probe = int(degrees[rng.randrange(len(degrees))]) if len(degrees) else 0
            assert flat_group(spec.ranges, probe) == int(
                spec.group_array(np.array([probe]))[0]
            )

            before = G.skew_metrics(g, degrees=degrees)
            if before["hot_fraction"] < 1.0:
                skew_cases += 1
                after = G.skew_metrics(G.apply_remap(g, remap))
                assert (
                    after["avg_hot_per_block"] >= before["avg_hot_per_block"] - 1e-12
                ), (
                    "grouping diluted hot vertices per block: %.4f -> %.4f"
                    % (before["avg_hot_per_block"], after["avg_hot_per_block"])
                )
        assert skew_cases >= 60, "too few skewed graphs exercised the hot clause"


# --------------------------------------------------------------- AC-10


def test_ac10_binary_formats_round_trip_and_reject_garbage(tmp_path):
    """Byte-identical rewrite of traces, CSR graphs, and remap files, and
    distinct error types for the malformed-header cases."""
    with acceptance("AC-10", budget_s=5.0):
        rng = SplitMix64(5)
        hints = list(ReuseHint)
        records = []
        for i in range(200):
            hint_valid = bool(rng.randrange(2))
            hint = hints[rng.randrange(len(hints))] if hint_valid else ReuseHint.DEFAULT
            records.append(
                MemoryAccess(
                    address=rng.randrange(1 << 48),
                    pc_signature=rng.randrange(16384),
                    is_write=bool(rng.randrange(2)),
                    reuse_hint=hint,
                    hint_valid=hint_valid,
                    inst_delta=rng.randrange(1000),
                )
            )
        records.append(MemoryAccess(0))
        t = Trace(records)

        p1 = tmp_path / "a.ctr"
        p2 = tmp_path / "b.ctr"
        write_trace(t, p1)
        write_trace(read_trace(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

        g = G.synth_powerlaw(500, 8, seed=3)
        c1 = tmp_path / "a.csr"
        c2 = tmp_path / "b.csr"
        G.write_csr(g, c1)
        G.write_csr(G.read_csr(c1), c2)
        assert c1.read_bytes() == c2.read_bytes()

        remap = G.dbg_reorder(g)
        r1 = tmp_path / "a.map"
        r2 = tmp_path / "b.map"
        G.write_remap(remap, r1)
        G.write_remap(G.read_remap(r1), r2)
        assert r1.read_bytes() == r2.read_bytes()

        # malformed headers: each failure mode gets its own error type
        raw = p1.read_bytes()
        bad_magic = tmp_path / "m.ctr"
        bad_magic.write_bytes(b"XXXX" + raw[4:])
        with pytest.raises(BadMagicError):
            read_trace(bad_magic)
        bad_version = tmp_path / "v.ctr"
        bad_version.write_bytes(raw[:4] + b"\x63" + raw[5:])
        with pytest.raises(BadVersionError):
            read_trace(bad_version)
        short = tmp_path / "s.ctr"
        short.write_bytes(raw[:10])
        with pytest.raises(TruncatedTraceError):
            read_trace(short)

        craw = c1.read_bytes()
        cbad = tmp_path / "m.csr"
        cbad.write_bytes(b"YYYY" + craw[4:])
        with pytest.raises(G.CsrMagicError):
            G.read_csr(cbad)
        cshort = tmp_path / "s.csr"
        cshort.write_bytes(craw[: len(craw) - 7])
        with pytest.raises(G.CsrTruncatedError):
            G.read_csr(cshort)

        kinds = {
            BadMagicError,
            BadVersionError,
            TruncatedTraceError,
            G.CsrMagicError,
            G.CsrTruncatedError,
        }
        assert len(kinds) == 5


# --------------------------------------------------------------- AC-11


def test_ac11_region_policy_without_regions_mirrors_base():
    """With zero address regions the hinted policy must replay its base
    policy decision for decision: same victims, same inserted rrpv values,
    same hit promotions, at equal seed."""
    with acceptance("AC-11", budget_s=30.0):
        def recording(cls):
            class Rec(cls):
                def __init__(self, **kw):
                    super().__init__(**kw)
                    self.log = []

                def decide_insert(self, view):
                    ok = super().decide_insert(view)
                    self.log.append(("insert?", view.set_index, ok))
                    return ok

                def choose_victim(self, view):
                    way = super().choose_victim(view)
                    self.log.append(("victim", view.set_index, way))
                    return way

                def on_insert(self, view, way):
                    super().on_insert(view, way)
                    self.log.append(
                        ("rrpv", view.set_index, way, view.state[way])
                    )

                def on_hit(self, view, way):
                    super().on_hit(view, way)
                    self.log.append(
                        ("hit", view.set_index, way, view.state[way])
                    )

            return Rec

        RecDrrip = recording(DrripPolicy)
        RecGrasp = recording(GraspPolicy)

        geom = CacheGeometry(8, 4, 64)
        for t in range(50):
            rng = SplitMix64(4000 + t)
            trace = Trace(
                [
                    MemoryAccess(
                        rng.randrange(256) * 64, pc_signature=rng.randrange(64)
                    )
                    for _ in range(2000)
                ]
            )
            base = RecDrrip(m=3)
            mirrored = RecGrasp(abrs=(), variant="full")
            rb = simulate(trace, geom, base, seed=t)
            rg = simulate(trace, geom, mirrored, seed=t)
            assert (rb.hits, rb.misses, rb.evictions) == (
                rg.hits,
                rg.misses,
                rg.evictions,
            )
            assert base.log == mirrored.log, "decision logs diverged on trace %d" % t
