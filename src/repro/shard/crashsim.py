"""Multi-process crash simulation for the sharded cluster.

The ``shard`` drill scenario of :mod:`repro.faults.drill` (which owns
the report type, the isolation oracle and the ``repro-sweep`` CLI).
The single-process scenario (:mod:`repro.faults.crashsim`) replays one
journal against an in-process oracle.  Here the failure domain is a
*process*: a seeded plan arms a ``kill`` failpoint — a hard
``os._exit`` — inside one worker or the router at an exact 2PC state
(``twopc.prepare``/``prepared``/``decide``/``decided`` for workers,
``coord.log_decision``/``decided``/``send_decide`` for the coordinator),
drives a deterministic transaction mix through a real client, lets the
kill land, restarts the dead process, and checks the cluster against a
committed-prefix oracle:

* **floor** — every transaction the client saw acknowledged is present
  after recovery (the journals run ``commit`` or ``group`` sync, and
  both ack only after the relevant fsync);
* **atomicity** — the one in-flight transaction (the commit that raised)
  is either applied on *all* the shards it touched or on none;
* **integrity** — ``fsck`` with the placement audit is clean on every
  shard, and the offline :func:`repro.shard.placement.audit_cluster`
  (manifest + per-shard recovery) reports no findings once the cluster
  is stopped.

Each workload transaction stamps a monotonically increasing integer
into the roots it touches, so "which transactions survived" is readable
directly from the recovered values — no shadow database needed.
"""

from __future__ import annotations

import contextlib
import json
import random
from dataclasses import dataclass

from ..faults.drill import DrillReport, Scenario, check_isolation
from ..faults.registry import FaultRule
from .placement import audit_cluster, shard_of_uid
from .worker import ShardCluster

#: 2PC states a worker can be killed in / the coordinator can be killed in.
WORKER_SITES = (
    "twopc.prepare", "twopc.prepared", "twopc.decide", "twopc.decided",
)
ROUTER_SITES = (
    "coord.log_decision", "coord.decided", "coord.send_decide",
)

#: The workload's stamped attribute.
STAMP = "Stamp"


@dataclass
class ShardPlan:
    """One seeded crash scenario."""

    seed: int
    shards: int = 2
    sync_policy: str = "commit"
    #: ``"router"`` or ``"worker:<shard_id>"``.
    target: str = "router"
    site: str = "coord.decided"
    #: Which hit of *site* (in the target process) pulls the trigger.
    nth: int = 1
    transactions: int = 8
    #: Probability a transaction spans two shards (and so commits by 2PC).
    cross_ratio: float = 0.7

    def __post_init__(self):
        self.kill_rule()  # an unknown site would silently never fire

    @property
    def kind(self):
        return self.target.split(":")[0]

    @property
    def shard_id(self):
        """The targeted worker's shard (None when the router dies)."""
        return None if self.target == "router" else int(
            self.target.split(":")[1])

    def describe(self):
        return (f"seed={self.seed} shards={self.shards} "
                f"sync={self.sync_policy} kill={self.target}@{self.site}"
                f"#{self.nth}")

    def kill_rule(self):
        return FaultRule(self.site, "kill", self.nth).to_dict()


#: Every (target kind, 2PC site) pair a kill can land on.
GRID = tuple(("worker", site) for site in WORKER_SITES) \
    + tuple(("router", site) for site in ROUTER_SITES)


def random_plan(seed):
    """The plan of *seed* — a pure function of it.

    The kill lands on ``GRID[seed % len(GRID)]``: a sweep's seeds step
    by :data:`repro.faults.drill.SEED_STRIDE`, which is coprime with the
    grid size, so any ``len(GRID)`` consecutive plans kill both a worker
    and the coordinator at every 2PC state.
    """
    rng = random.Random(seed)
    kind, site = GRID[seed % len(GRID)]
    shards = rng.choice((2, 3))
    return ShardPlan(
        seed=seed,
        shards=shards,
        sync_policy=rng.choice(("commit", "commit", "group")),
        target=("router" if kind == "router"
                else f"worker:{rng.randrange(shards)}"),
        site=site,
        nth=rng.randint(1, 3),
    )


class ShardCrashSim:
    """Run one :class:`ShardPlan` in *root* (a fresh directory)."""

    #: Seconds a client call may take before it counts as failed.
    client_timeout = 30.0

    def __init__(self, plan, root, record_history_dir=None):
        self.plan = plan
        self.root = root
        #: Directory for per-shard transaction histories
        #: (``history-NN.jsonl``; a crashed worker leaves at most one
        #: torn tail line, and the restarted worker's boot marker splits
        #: the epochs).  The recovered histories are isolation-checked:
        #: any ``ISO-*`` error fails the plan like an oracle violation.
        self.record_history_dir = record_history_dir

    # -- pieces -----------------------------------------------------------

    def _cluster(self):
        plan = self.plan
        rules, router = [plan.kill_rule()], plan.kind == "router"
        return ShardCluster(
            self.root,
            shards=plan.shards,
            sync_policy=plan.sync_policy,
            grace=1.0,
            router_connect_timeout=3.0,
            worker_failpoints={} if router else {plan.shard_id: rules},
            router_failpoints=rules if router else [],
            record_history_dir=self.record_history_dir,
        )

    def _target_proc(self, cluster):
        if self.plan.kind == "router":
            return cluster.router_proc
        return cluster.workers[self.plan.shard_id]

    # -- the run ----------------------------------------------------------

    def run(self):
        from ..server.client import Client

        plan = self.plan
        result = DrillReport(plan=plan, scenario="shard")
        result.facts.update(acked=0, kill_fired=False, inflight_error="")
        rng = random.Random(plan.seed)
        acked = []          # (stamp, targets) the client saw committed
        inflight = None     # (stamp, targets) of the commit that raised
        roots = []
        cluster = self._cluster()
        try:
            cluster.start()
            client = Client(port=cluster.router_port,
                            timeout=self.client_timeout, max_retries=0)
            client.make_class("Doc", attributes=[
                {"name": STAMP, "domain": "integer"},
            ])
            roots = [client.make("Doc", values={STAMP: 0})
                     for _ in range(plan.shards * 2)]
            by_shard = {}
            for root in roots:
                by_shard.setdefault(
                    shard_of_uid(root, plan.shards), []
                ).append(root)
            for stamp in range(1, plan.transactions + 1):
                if not self._target_proc(cluster).is_alive():
                    break  # the kill landed between transactions
                if plan.shards > 1 and rng.random() < plan.cross_ratio:
                    shard_a, shard_b = rng.sample(range(plan.shards), 2)
                    targets = (rng.choice(by_shard[shard_a]),
                               rng.choice(by_shard[shard_b]))
                else:
                    targets = (rng.choice(roots),)
                try:
                    client.begin()
                    for uid in targets:
                        client.set_value(uid, STAMP, stamp)
                    client.commit()
                    acked.append((stamp, targets))
                except Exception as error:
                    inflight = (stamp, targets)
                    result.facts["inflight_error"] = repr(error)
                    break
            with contextlib.suppress(Exception):
                client.close()
            result.facts["acked"] = len(acked)
            if self._reap_and_restart(
                cluster, result, saw_error=inflight is not None
            ):
                result.facts["kill_fired"] = True
                result.fired.append(f"{plan.kind}@{plan.site}#{plan.nth}")
            self._verify(cluster, roots, acked, inflight, result)
        finally:
            cluster.stop()
        report = audit_cluster(self.root)
        if not report.ok:
            result.problems.append(
                f"offline cluster audit found problems: "
                f"{[f.rule for f in report.findings]}"
            )
        for finding in report.findings:
            if finding.rule == "SHARD-INDOUBT":
                result.problems.append(
                    f"in-doubt transaction survived recovery: "
                    f"{finding.detail}"
                )
        if self.record_history_dir is not None:
            check_isolation(result, self.record_history_dir)
        return result

    def _reap_and_restart(self, cluster, result, saw_error):
        """Restart whatever the plan killed; flag unexpected deaths."""
        fired = False
        proc = self._target_proc(cluster)
        # The kill is an os._exit a moment ago; give the OS time to reap
        # before reading is_alive (longer when the client already saw an
        # error, i.e. the target almost certainly just died).
        proc.join(timeout=5.0 if saw_error else 0.5)
        if not proc.is_alive():
            if proc.exitcode != 17:
                result.problems.append(
                    f"target died with exit code {proc.exitcode}, "
                    f"expected the failpoint's 17"
                )
            fired = True
            # Restart WITHOUT the kill rule: a fresh process re-arms the
            # registry, and e.g. a coord.log_decision kill would fire
            # again the moment the new router reconciles the in-doubt
            # transaction the first kill left behind.
            if self.plan.kind == "router":
                cluster.router_failpoints = []
                cluster.restart_router()
            else:
                cluster.worker_failpoints.pop(self.plan.shard_id, None)
                cluster.restart_worker(self.plan.shard_id)
        for shard_id, worker in list(cluster.workers.items()):
            if not worker.is_alive():
                result.problems.append(
                    f"shard {shard_id} worker died unexpectedly "
                    f"(exit {worker.exitcode})"
                )
                cluster.restart_worker(shard_id)
        if cluster.router_proc is not None \
                and not cluster.router_proc.is_alive():
            if self.plan.kind != "router" or not fired:
                result.problems.append(
                    f"router died unexpectedly "
                    f"(exit {cluster.router_proc.exitcode})"
                )
            cluster.restart_router()
        return fired

    def _verify(self, cluster, roots, acked, inflight, result):
        """Committed-prefix oracle over the recovered, re-served cluster."""
        from ..server.client import Client

        last_acked = {root: 0 for root in roots}
        for stamp, targets in acked:
            for root in targets:
                last_acked[root] = stamp
        try:
            client = Client(port=cluster.router_port,
                            timeout=self.client_timeout)
        except OSError as error:
            result.problems.append(f"recovered cluster unreachable: {error}")
            return
        try:
            values = {root: client.value(root, STAMP) for root in roots}
            check = client.check("placement")
            if not check.get("ok", False):
                result.problems.append(
                    "post-recovery placement check not clean"
                )
        except Exception as error:
            result.problems.append(f"post-recovery reads failed: {error!r}")
            return
        finally:
            with contextlib.suppress(Exception):
                client.close()
        inflight_stamp = inflight[0] if inflight else None
        inflight_targets = set(inflight[1]) if inflight else set()
        applied = set()
        for root in roots:
            value = values[root]
            floor = last_acked[root]
            allowed = {floor}
            if root in inflight_targets:
                allowed.add(inflight_stamp)
            if value not in allowed:
                result.problems.append(
                    f"{root}: recovered {STAMP}={value!r}, allowed "
                    f"{sorted(allowed)} (acked floor {floor}"
                    + (f", in-flight {inflight_stamp}" if inflight else "")
                    + ")"
                )
            elif root in inflight_targets and value == inflight_stamp \
                    and inflight_stamp != floor:
                applied.add(root)
        if inflight and applied and applied != inflight_targets:
            result.problems.append(
                f"in-flight transaction {inflight_stamp} applied on "
                f"{sorted(u.number for u in applied)} but not on all of "
                f"{sorted(u.number for u in inflight_targets)} — "
                f"atomicity broken"
            )


def record_trace(root, path):
    """Extract the stopped cluster's durable 2PC trace into *path*."""
    from ..analysis.protocheck import extract_trace

    with open(path, "w", encoding="utf-8") as handle:
        json.dump(extract_trace(root), handle, indent=1, sort_keys=True)


def _drill(plan, root, history_dir):
    return [ShardCrashSim(plan, root, history_dir).run()]


SCENARIO = Scenario("shard", random_plan, _drill, record_trace=record_trace)
