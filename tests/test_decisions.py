"""Decision-log gate: every online policy makes the same decisions as the
committed golden run.

For each policy name except the offline oracle, every access of the AC-3
random suite (seed 11) is logged as the hit way, or the insert/bypass
choice plus the victim way and dead flag of an eviction.  The logs are
hashed with blake2b per policy and compared with
tests/data/decision_digests.json.  A refactor of the policy layer must
keep every digest; a change that moves decisions on purpose names the
policies it moves and why before the golden file is rewritten with

    PYTHONPATH=src python tests/test_decisions.py > tests/data/decision_digests.json
"""

import hashlib
import json
import os
import time

from cachelab.engine import simulate
from cachelab.policies import POLICY_NAMES, make_policy
from test_acceptance import _suite

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "decision_digests.json")
SEED = 11
BUDGET_S = 30.0


def _record(pol, log):
    """Route the engine's calls on pol through loggers; decisions unchanged."""
    on_hit, decide_insert, choose_victim = pol.on_hit, pol.decide_insert, pol.choose_victim

    def logged_hit(view, way):
        log.append("h%d" % way)
        on_hit(view, way)

    def logged_decide(view):
        insert = decide_insert(view)
        log.append("i" if insert else "b")
        return insert

    def logged_victim(view):
        logged = len(pol.dead_log)
        way = choose_victim(view)
        log.append("v%d%s" % (way, "d" if len(pol.dead_log) > logged else ""))
        return way

    pol.on_hit, pol.decide_insert, pol.choose_victim = logged_hit, logged_decide, logged_victim


def decision_digests(suite):
    digests = {}
    for name in POLICY_NAMES:
        if name == "opt":
            continue
        h = hashlib.blake2b(digest_size=16)
        for trace, geom, abrs in suite:
            pol = make_policy(name, abrs=abrs)
            log = []
            _record(pol, log)
            simulate(trace, geom, pol, seed=SEED)
            h.update((trace.name + ":" + " ".join(log) + "\n").encode())
        digests[name] = h.hexdigest()
    return digests


def test_every_policy_matches_its_golden_decision_log():
    t0 = time.time()
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    got = decision_digests(_suite())
    assert sorted(got) == sorted(golden), "policy list differs from the golden file"
    diverged = [name for name in got if got[name] != golden[name]]
    assert not diverged, "decision logs diverged for: %s" % ", ".join(diverged)
    elapsed = time.time() - t0
    assert elapsed < BUDGET_S, "exceeded %.0fs budget (%.1fs)" % (BUDGET_S, elapsed)


if __name__ == "__main__":
    print(json.dumps(decision_digests(_suite()), indent=1, sort_keys=True))
