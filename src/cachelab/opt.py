"""Clairvoyant optimal replacement (Belady's MIN).

Of each run of back-to-back accesses to one block within a set, only the
first, its head, is simulated (engine._set_runs).  A stable sort by block
gives each head the position of the next head of its block; a forward
pass, set after set, evicts the resident block whose next use is
farthest, and with bypass allowed leaves out a block whose next use is
farther than every resident's.  This is exact.  Sets never interact, and
a run's repeats all hit: a head that misses has its run's second access
as next use, nearer than any resident's, so it is filled even with
bypass, and its way then holds the next use after the run.  Counted in
heads, next uses keep their order within a set, so every victim, tie and
bypass is the same.
"""

import numpy as np

from .engine import Policy, SplitMix64, _block_links, _report, _set_runs, run_policy

NEVER = 1 << 62  # farther than any trace position


def next_use_index(trace, geometry):
    """next_use[i] = index of the next access to the same block, else
    NEVER, as an int64 buffer."""
    return memoryview(_block_links(geometry.blocks(trace.addresses), NEVER, np.int64))


class OptPolicy(Policy):
    """Farthest-next-use replacement over a trace's run heads, held as
    narrow set, tag and next-use columns for opt_oracle to run; a way's
    state is its block's next use."""

    def __init__(self, trace, geometry, allow_bypass=False):
        blocks, repeats = _set_runs(geometry, trace.addresses)[1:]
        index = np.int32 if len(blocks) < 2**31 - 1 else np.int64
        next_use = _block_links(blocks, np.iinfo(index).max, index)  # above every position
        self.next_use = memoryview(next_use)
        # a head with repeats is nearer than any resident: its own next
        # use is its run's second access
        self.decline = memoryview(np.where(repeats, -1, next_use)) if allow_bypass else None
        mask = geometry.num_sets - 1  # the narrowing cast keeps the set bits
        self.sets = memoryview(blocks.astype(np.min_scalar_type(mask)) & mask)
        blocks >>= geometry.set_bits
        self.tags = memoryview(blocks)
        self.name = "opt-bypass" if allow_bypass else "opt"

    def decide_insert(self, view):
        # a free way costs nothing; otherwise decline only when the
        # incoming block's next use is strictly farther away than every
        # resident's
        return (
            self.decline is None
            or len(view.state) < view.ways
            or self.decline[view.access_index] <= max(view.state)
        )

    def choose_victim(self, view):
        state = view.state
        return state.index(max(state))

    def on_insert(self, view, way):
        view.state[way] = self.next_use[view.access_index]

    on_hit = on_insert


def opt_oracle(trace, geometry, allow_bypass=False, seed=0):
    """Simulate the optimal policy and return its SimReport."""
    policy = OptPolicy(trace, geometry, allow_bypass)
    outcome = run_policy(policy, geometry, SplitMix64(seed), trace, policy.sets, policy.tags)
    return _report(policy, geometry, seed, trace, outcome)  # the runs' repeats count as hits
