"""Clairvoyant optimal replacement (Belady's MIN).

Two passes: a stable sort by cache block indexes each access with the
position of the next access to the same block, then a forward simulation
evicts the resident block whose next use lies farthest in the future.
With bypass allowed, an incoming block whose next use is farther than
every resident's is not cached at all.
"""

import numpy as np

from cachelab.engine import Policy, simulate

NEVER = 1 << 62  # farther than any trace position


def next_use_index(trace, geometry):
    """next_use[i] = index of the next access to the same block, else NEVER."""
    blocks = geometry.blocks(trace.addresses)
    order = np.argsort(blocks, kind="stable")  # each block's accesses in trace order
    nxt = np.full(len(blocks), NEVER, dtype=np.int64)
    same = blocks[order[1:]] == blocks[order[:-1]]
    nxt[order[:-1][same]] = order[1:][same]
    return nxt.tolist()


class OptPolicy(Policy):
    """Farthest-next-use replacement; slot.state = next use index."""

    def __init__(self, trace, geometry, allow_bypass=False):
        self.next_use = next_use_index(trace, geometry)
        self.allow_bypass = allow_bypass
        self.name = "opt-bypass" if allow_bypass else "opt"

    def decide_insert(self, view):
        if not self.allow_bypass:
            return True
        slots = view.slots
        mine = self.next_use[view.access_index]
        farthest = -1
        for s in slots:
            if not s.valid:
                return True  # free way, caching costs nothing
            if s.state > farthest:
                farthest = s.state
        # decline only when the incoming block's next use is strictly
        # farther away than every resident's
        return mine <= farthest

    def choose_victim(self, view):
        slots = view.slots
        best = 0
        best_next = -1
        for w in range(view.ways):
            if slots[w].state > best_next:
                best_next = slots[w].state
                best = w
        return best

    def on_insert(self, view, way):
        view.slots[way].state = self.next_use[view.access_index]

    def on_hit(self, view, way):
        view.slots[way].state = self.next_use[view.access_index]


def opt_oracle(trace, geometry, allow_bypass=False, seed=0):
    """Simulate the optimal policy and return its SimReport."""
    return simulate(trace, geometry, OptPolicy(trace, geometry, allow_bypass), seed=seed)
