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
    """next_use[i] = index of the next access to the same block, else
    NEVER, as an int64 buffer."""
    blocks = geometry.blocks(trace.addresses)
    order = np.argsort(blocks, kind="stable")  # each block's accesses in trace order
    blocks = blocks[order]
    same = blocks[1:] == blocks[:-1]
    del blocks
    nxt = np.full(len(order), NEVER, dtype=np.int64)
    nxt[order[:-1]] = np.where(same, order[1:], NEVER)
    return memoryview(nxt)


class OptPolicy(Policy):
    """Farthest-next-use replacement; a way's state is its next use index."""

    def __init__(self, trace, geometry, allow_bypass=False):
        self.next_use = next_use_index(trace, geometry)
        self.allow_bypass = allow_bypass
        self.name = "opt-bypass" if allow_bypass else "opt"

    def decide_insert(self, view):
        # a free way costs nothing; otherwise decline only when the
        # incoming block's next use is strictly farther away than every
        # resident's
        return (
            not self.allow_bypass
            or len(view.state) < view.ways
            or self.next_use[view.access_index] <= max(view.state)
        )

    def choose_victim(self, view):
        state = view.state
        return state.index(max(state))

    def on_insert(self, view, way):
        view.state[way] = self.next_use[view.access_index]

    def on_hit(self, view, way):
        view.state[way] = self.next_use[view.access_index]


def opt_oracle(trace, geometry, allow_bypass=False, seed=0):
    """Simulate the optimal policy and return its SimReport."""
    return simulate(trace, geometry, OptPolicy(trace, geometry, allow_bypass), seed=seed)
