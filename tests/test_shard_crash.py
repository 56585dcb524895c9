"""Multi-process crash plans: one seeded kill per 2PC state.

A thin slice of the full sweep (``repro-sweep shard``, run in CI with
100 plans): seven plans — one per (target, site) pair — each spawning a
real cluster, arming the kill, driving transactions until it fires, and
holding the recovered cluster to the committed-prefix oracle from
:mod:`repro.shard.crashsim`.
"""

from __future__ import annotations

import pytest

from repro.faults.drill import sweep_plans
from repro.shard.crashsim import (
    ROUTER_SITES,
    STAMP,
    WORKER_SITES,
    ShardCrashSim,
    ShardPlan,
)

#: One full cycle of the (target, site) grid.
GRID = len(WORKER_SITES) + len(ROUTER_SITES)
PLANS = sweep_plans("shard", 1107, GRID)


@pytest.mark.parametrize(
    "plan", PLANS, ids=[f"{p.target}@{p.site}" for p in PLANS]
)
def test_crash_plan_recovers_committed_prefix(tmp_path, plan):
    result = ShardCrashSim(plan, tmp_path).run()
    assert result.ok, "; ".join(result.problems)
    assert result.facts["kill_fired"], (
        f"plan [{plan.describe()}] never reached its kill site — "
        f"acked {result.facts['acked']} of {plan.transactions} transactions"
    )


def test_plan_generation_covers_every_site():
    plans = sweep_plans("shard", 7, GRID * 3)
    everything = (
        {("worker", s) for s in WORKER_SITES}
        | {("router", s) for s in ROUTER_SITES}
    )
    # Any GRID consecutive plans of a sweep cover the whole grid.
    for start in range(len(plans) - GRID + 1):
        covered = {(p.kind, p.site)
                   for p in plans[start:start + GRID]}
        assert covered == everything


def test_unknown_kill_site_is_rejected_at_plan_construction():
    # A typo'd site would arm a kill that never fires: the plan "passes"
    # without ever crashing anything.
    with pytest.raises(ValueError, match="unknown failpoint site"):
        ShardPlan(seed=1, site="twopc.prepair")


def test_lost_acknowledged_commit_fails_the_plan(tmp_path):
    # Break the oracle's input: claim the client saw one more commit
    # than the cluster ever received.  The acked floor must notice.
    class Forgetful(ShardCrashSim):
        def _verify(self, cluster, roots, acked, inflight, result):
            acked.append((99, (roots[0],)))
            super()._verify(cluster, roots, acked, inflight, result)

    result = Forgetful(PLANS[0], tmp_path).run()
    assert not result.ok
    (problem,) = result.problems
    assert f"recovered {STAMP}=" in problem
    assert "allowed [99] (acked floor 99" in problem
