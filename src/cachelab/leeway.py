"""Live-distance based dead block prediction layered on LRU or NRU.

Each block's live distance is the deepest stack position (LRU base) or
NRU class plus one (NRU base) it reaches between fill and last hit; a
block found past its PC's predicted live distance is considered dead.
The predictor table keeps, per PC signature seen, a stable distance
and a signed streak of observations above (+) or below (-) it; a match
resets the streak, and at its direction's variance-tolerance threshold
the stable distance moves to the observation.  Bypass-oriented
thresholds (slow up, fast down) shed dead-on-arrival blocks
aggressively; reuse-oriented thresholds do the reverse.
In dynamic mode both variants train side by side on disjoint sampler
sets, the leader sets of one SetDuel whose sides 0 and 1 are the
bypass- and reuse-oriented banks: a sampler-set miss votes against its
bank on the 10-bit PSEL, and follower sets run the reuse-oriented bank
while PSEL is at or above its midpoint, else the bypass-oriented one,
which governs first.  On 128 sets or fewer the 64 sampler pairs cover
every set, so no follower reads PSEL.

Stack positions are counted the way reuse tables usually print them:
a re-reference to the most recently used block has distance 1, so a
stored distance of 0 is reserved for blocks never re-referenced.
"""

from .policies import LruPolicy, NruPolicy, SetDuel, sampler_layout

BOP = 0  # the bypass-oriented bank of the dynamic mode
ROP = 1  # the reuse-oriented bank

# each mode's banks, one rule per bank: ((increase, decrease) variance
# thresholds, retrain probability of a sampler fill from a dead PC)
_BOP_RULE = ((7, 1), 0.01)  # raising the distance needs 7 confirmations
_ROP_RULE = ((1, 7), 0.03)  # lowering the distance needs 7 confirmations
_MODES = {
    "dynamic": (_BOP_RULE, _ROP_RULE),
    "static-bop": (_BOP_RULE,),
    "static-rop": (_ROP_RULE,),
    "static-vtt7": (((7, 7), 0.01),),  # conservative in both directions
}

SAMPLER_SETS = 64


class LeewayPolicy:
    """Dead-block predicting replacement with per-PC live distances, a
    mixin ahead of the base class that owns view.state, promotion and
    the fallback victim: `LeewayLruPolicy(LeewayPolicy, LruPolicy)`,
    which, like LeewayNruPolicy, counts each way's depth and max_depth.
    reset, the one setup call, makes `dead_log`, and choose_victim logs
    each victim it takes as dead there.  Leeway's own record per way,
    view.meta[way], is the entry [predicted, observed, pc]: the block's
    predicted live distance, its deepest depth seen at a sampler hit, and
    its fill signature.  The mode's rules fix its banks, two for
    "dynamic", else one, each a `stable` and a `streak` dict keyed by PC.
    `sampler_bank` maps each sampler set to the bank it trains.  Dynamic
    samplers are `duel`'s leader sets, up to sampler_sets (>= 1) pairs
    of them, and `duel.miss` gives each miss its bank, voting against a
    sampler's own; followers run the winner.  A one-set cache and the
    static modes have no leaders: their samplers, up to sampler_sets of
    them, train bank 0, which every miss runs.
    """

    def __init__(self, mode="dynamic", sampler_sets=SAMPLER_SETS):
        if mode not in _MODES:
            raise ValueError("mode must be one of %s" % (tuple(_MODES),))
        if sampler_sets < 1:
            raise ValueError("sampler_sets must be at least 1")
        super().__init__()  # the base's, which names it
        self.sampler_cfg = sampler_sets
        self.dynamic = mode == "dynamic"
        self.vtt, self.retrain = map(list, zip(*_MODES[mode]))
        if not self.dynamic:  # a static mode over LRU goes by the mode alone
            self.name = mode if self.name == "lru" else self.name + "-" + mode
        self.name = "leeway-" + self.name

    def __init_subclass__(cls):
        # the base's hooks, fetched once per class rather than by super() per access
        base = super(LeewayPolicy, cls)
        cls.base_hit, cls.base_insert = base.on_hit, base.on_insert
        cls.base_victim = base.choose_victim

    def reset(self, geometry, rng, trace, tags):
        super().reset(geometry, rng, trace, tags)
        self.maxpos = self.max_depth
        # predictor table: a PC's stable distance starts at the ceiling, so
        # an untrained PC is never bypassed and never flags blocks dead
        self.stable, self.streak = [{} for _ in self.vtt], [{} for _ in self.vtt]
        num_sets, n = geometry.num_sets, self.sampler_cfg
        self.duel = SetDuel(num_sets, n if self.dynamic else 0)  # side 0 BOP, side 1 ROP
        self.sampler_bank = dict(self.duel.kind) or dict.fromkeys(sampler_layout(num_sets, n), BOP)
        self.pcs = memoryview(trace.pcs)
        self.dead_log = []

    # -- predictor table ------------------------------------------------

    def stable_distance(self, pc, bank):
        return self.stable[bank].get(pc, self.maxpos)

    def _ldpt_update(self, bank, pc, observed):
        s = self.stable[bank].get(pc, self.maxpos)
        streak = self.streak[bank].get(pc, 0)
        if observed == s:
            streak = 0
        elif observed > s:
            streak = max(streak, 0) + 1  # a change of direction restarts at +-1
        else:
            streak = min(streak, 0) - 1
        inc, dec = self.vtt[bank]
        if streak >= inc or -streak >= dec:
            self.stable[bank][pc] = observed
            streak = 0
        self.streak[bank][pc] = streak

    # -- policy hooks ------------------------------------------------------

    def decide_insert(self, view):
        governing = self.duel.miss(view.set_index)
        stable = self.stable[governing].get(self.pcs[view.access_index], self.maxpos)
        if stable == 0 and not (view.set_index in self.sampler_bank
                                and self.rng.random() < self.retrain[governing]):
            return False
        self._pending_pld = stable  # 0 for a retraining fill
        return True

    def on_insert(self, view, way):
        view.meta[way] = [self._pending_pld, 0, self.pcs[view.access_index]]
        self.base_insert(view, way)

    def on_hit(self, view, way):
        sampler = view.set_index in self.sampler_bank
        entry = view.meta[way]
        # observed never exceeds predicted and no depth exceeds maxpos, so
        # an entry already at maxpos has nothing left to raise
        if (entry[1] if sampler else entry[0]) < self.maxpos:
            depth = self.depth(view, way)
            if sampler and depth > entry[1]:
                entry[1] = depth
            if depth > entry[0]:
                entry[0] = depth
        self.base_hit(view, way)

    def choose_victim(self, view):
        meta = view.meta
        # min predicted distance first, then deepest, then lowest way
        dead = [(meta[w][0], -depth, w) for w, depth in enumerate(self.depths(view))
                if depth > meta[w][0]]
        if dead:
            way = min(dead)[2]
            self.dead_log.append((view.access_index, view.set_index, view.tags[way]))
        else:
            way = self.base_victim(view)
        bank_here = self.sampler_bank.get(view.set_index)
        if bank_here is not None:
            _, observed, pc = meta[way]
            self._ldpt_update(bank_here, pc, observed)
        return way


class LeewayLruPolicy(LeewayPolicy, LruPolicy):
    """Leeway over LRU: depths are recency stack positions."""

    max_depth = property(lambda self: self.geometry.ways)  # the deepest depth()

    def depth(self, view, way):
        """Stack depth of a filled way, 1 for the most recently used."""
        return view.state.index(way) + 1

    def depths(self, view):
        """depth() of every way of a full set."""
        depths = [0] * len(view.state)
        for d, way in enumerate(view.state, 1):
            depths[way] = d
        return depths


class LeewayNruPolicy(LeewayPolicy, NruPolicy):
    """Leeway over NRU: depths are NRU classes plus one."""

    max_depth = 2  # the depth of a way at class 1

    def depth(self, view, way):
        return view.state[way] + 1

    def depths(self, view):
        return [s + 1 for s in view.state]
