"""Graph-specialized reuse hints over a dynamic RRIP base.

Software declares the address bounds of highly-reused property arrays;
the first cache-sized chunk of each bounded region (where a
degree-ordered layout concentrates its hottest elements) classifies as
High-Reuse, the next chunk as Moderate-Reuse, the rest of the region
and every other address as Low-Reuse.  With no regions declared at all
every access is Default and managed purely by the base policy, so the
policy is then decision-for-decision the base DRRIP.  Hints only nudge
insertion and hit promotion; victim selection is the base's unmodified
RRPV scan, so no block is ever immortal.
"""

import numpy as np

from .policies import DrripPolicy
from .trace import ReuseHint

VARIANTS = {"full": "grasp", "insert-only": "grasp-insert", "hints": "grasp-hints"}  # -> name
_ONE_STEP = (ReuseHint.MODERATE, ReuseHint.LOW)  # hit promotion of the full variant


class GraspConfigError(ValueError):
    pass


class RegionMap:
    """Address classifier for a set of bounded regions.

    Each region [start, end) is split into a High-Reuse leading chunk
    and a Moderate-Reuse second chunk, both of size
    llc_capacity_bytes // region_count, clipped to the region; the rest
    of it and every other address are Low-Reuse, and with no region
    declared every address is Default.
    """

    def __init__(self, abrs, llc_capacity_bytes):
        regions = []
        for start, end in abrs:
            if not 0 <= start < end:
                raise GraspConfigError("region bounds must satisfy 0 <= start < end")
            regions.append((start, end))
        regions.sort()
        for (s1, e1), (s2, _) in zip(regions, regions[1:]):
            if s2 < e1:
                raise GraspConfigError("regions overlap: [%d,%d) and [%d,...)" % (s1, e1, s2))
        chunk = llc_capacity_bytes // len(regions) if regions else 0
        self.regions = [
            (start, min(start + chunk, end), min(start + 2 * chunk, end), end)
            for start, end in regions
        ]

    def classify(self, addresses):
        """The class of each address of an array, as uint8 ReuseHint codes;
        this is a labeller for simulate(classify=)."""
        addresses = np.asarray(addresses, dtype=np.uint64)
        if not self.regions:
            return np.full(addresses.shape, ReuseHint.DEFAULT, dtype=np.uint8)
        out = np.full(addresses.shape, ReuseHint.LOW, dtype=np.uint8)
        inside, below = np.empty(addresses.shape, bool), np.empty(addresses.shape, bool)
        for start, high_end, mod_end, end in self.regions:
            np.greater_equal(addresses, start, out=inside)
            inside &= np.less(addresses, end, out=below)
            for bound in (mod_end, high_end):  # each bound above an inside address: LOW -> MODERATE -> HIGH
                out -= np.logical_and(np.less(addresses, bound, out=below), inside, out=below)
        return out


class GraspPolicy(DrripPolicy):
    """DRRIP-3 with insertion/promotion specialized by reuse class."""

    # the base's hooks, fetched once per class rather than by super() per access
    base_hit, base_insert = DrripPolicy.on_hit, DrripPolicy.on_insert

    def __init__(self, abrs=(), variant="full"):
        super().__init__(m=3)
        if variant not in VARIANTS:
            raise GraspConfigError("variant must be one of %s" % (tuple(VARIANTS),))
        self.abrs = tuple(abrs)
        self.variant = variant
        self.name = VARIANTS[variant]
        # insertion RRPV per hinted class, a DEFAULT fill going to the base;
        # "hints" puts high reuse near the eviction point, other hints at it
        top, hints = self.rrpv_max, variant == "hints"
        self.insert_rrpv = {ReuseHint.HIGH: top - 1 if hints else 0, ReuseHint.LOW: top,
                            ReuseHint.MODERATE: top if hints else top - 1}

    def reset(self, geometry, rng, trace, tags):
        """Take each access's reuse class: the region classification when
        regions are declared, which a trace's own valid hints must match,
        else the trace's hints.  The check comes before the base's reset,
        so a rejected trace costs no shadow duel."""
        hints = trace.hints
        if self.abrs:
            by_region = RegionMap(self.abrs, geometry.capacity_bytes).classify(trace.addresses)
            bad = trace.hint_valid & (hints != by_region)
            if bad.any():
                i = int(np.argmax(bad))
                raise GraspConfigError(
                    "trace hint %s disagrees with region classification %s at 0x%x"
                    % (ReuseHint(int(hints[i])).name, ReuseHint(int(by_region[i])).name,
                       int(trace.addresses[i]))
                )
            hints = by_region
        self.hints = memoryview(hints)
        super().reset(geometry, rng, trace, tags)

    def on_insert(self, view, way):
        rrpv = self.insert_rrpv.get(self.hints[view.access_index])
        if rrpv is None:
            self.base_insert(view, way)
        else:
            self.duel.miss(view.set_index)  # a leader set still votes
            view.state[way] = rrpv

    def on_hit(self, view, way):
        if self.variant == "full" and self.hints[view.access_index] in _ONE_STEP:
            # one step toward the top instead of the base's jump to 0
            view.state[way] = max(view.state[way] - 1, 0)
        else:
            self.base_hit(view, way)
