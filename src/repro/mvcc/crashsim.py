"""Replica failover drills under the fault-plan harness.

The ``replica`` drill scenario of :mod:`repro.faults.drill`: two
scripted disasters, each run against the engine's seeded primary
(:func:`~repro.faults.drill.primary_run`) with a
:class:`~repro.mvcc.replica.JournalFollower` tailing it:

``kill-replica``
    The replica process dies mid-stream and restarts.  A replica holds
    no durable state of its own — restart is a fresh follower over the
    primary's directory — so the drill asserts the *rebuilt* replica
    converges back to the primary's newest sealed state.

``kill-primary``
    The primary dies mid-ship (a seeded cut of its journal through the
    engine's disk model, :func:`~repro.faults.drill.crash_copy`).  The
    replica keeps serving the committed prefix it applied, and
    *failover* is promotion: recovering a fresh primary from the
    surviving bytes must land on the same state the replica refused to
    read past.

Oracles checked throughout (not only at the end):

* **committed prefix** — every state the replica ever serves equals a
  captured primary boundary (a sealed batch boundary; under the
  ``always`` policy that includes per-operation seals, exactly the
  states crash recovery itself can surface);
* **stale bound** — ``require_epoch(applied)`` always passes and
  ``require_epoch(primary_epoch + 1)`` always raises
  :class:`~repro.errors.ReplicaLagError`: the replica never lies about
  freshness in either direction;
* **promotion** — after kill-primary, a :class:`DurableDatabase`
  recovered from the survivors matches the replica's applied prefix
  and accepts new writes.
"""

from __future__ import annotations

import contextlib
from pathlib import Path

from ..errors import ReplicaLagError, StorageError
from ..faults.drill import (
    DrillReport,
    Scenario,
    crash_copy,
    last_match,
    primary_run,
    recover_copy,
    state_fingerprint,
)
from ..faults.plan import random_plan
from ..storage.durable import DurableDatabase
from ..storage.journal import SYNC_POLICIES
from .replica import JournalFollower

DRILL_KINDS = ("kill-replica", "kill-primary")


class ReplicaDrill:
    """Run one failover drill inside *root* (a caller-owned scratch
    directory).  *plan* is a :class:`repro.faults.FaultPlan`: its seed
    drives the workload, its policy the primary's journal, its rules
    (if any) inject primary-side faults exactly as in CrashSim.
    *record_history* is passed to the primary harness."""

    def __init__(self, plan, root, kind="kill-replica", record_history=False):
        if kind not in DRILL_KINDS:
            raise ValueError(
                f"unknown drill kind {kind!r}; expected one of "
                f"{', '.join(DRILL_KINDS)}"
            )
        self.plan = plan
        self.kind = kind
        self.root = Path(root)
        self.store = self.root / "store"
        self.scratch = self.root / "crash"
        self.record_history = record_history

    def run(self):
        plan = self.plan
        report = DrillReport(plan=plan, scenario="replica")
        facts = report.facts
        facts.update(kind=self.kind, polls=0, replica_rebuilds=0,
                     applied_epoch=0, primary_epoch=0, matched_label="")
        labels, states = [], []  # sealed commit points, in capture order
        kill_at = plan.stop_at_unit or max(1, plan.units // 2)

        with primary_run(
            plan, self.store, report, record_history=self.record_history,
        ) as (db, rng, drive):
            journal = db.journal

            def capture(label, **_):
                # Non-quiescent boundaries are legal replica states too:
                # under the ``always`` policy every operation seals its
                # own batch, so a shipped prefix can land mid-transaction
                # exactly where crash recovery would (aborts compensate).
                labels.append(label)
                states.append(state_fingerprint(db))

            def poll(follower):
                follower.poll()
                facts["polls"] += 1
                self._check_prefix(follower, states, labels, report)
                self._check_stale_bound(follower, db, report)

            follower = JournalFollower(self.store)

            def after_unit(index):
                nonlocal follower
                if follower is not None:
                    poll(follower)
                    if self.kind == "kill-replica" and index == kill_at:
                        # Replica process dies: nothing survives it.
                        follower = None
                else:
                    # ... and restarts: a fresh follower rebuilds from
                    # the primary's directory alone.
                    follower = JournalFollower(self.store)
                    facts["replica_rebuilds"] += 1

            drive(capture, after_unit)
            if follower is None:
                follower = JournalFollower(self.store)
                facts["replica_rebuilds"] += 1

            if self.kind == "kill-replica":
                # The restarted replica must catch up to the primary's
                # newest sealed state.
                if journal.needs_sync:
                    with contextlib.suppress(StorageError):
                        journal.sync()
                capture("final")
                poll(follower)
                # Everything sealed is in the journal file (flushed per
                # seal), so it must reach the last sealed boundary, not
                # merely *some* prefix.  Buffered-but-unsealed txn
                # batches legally lag: accept any boundary at the
                # primary's commit_seq.
                if (state_fingerprint(follower.database) != states[-1]
                        and follower.applied_epoch != journal.commit_seq):
                    report.problems.append(
                        f"restarted replica converged to epoch "
                        f"{follower.applied_epoch}, primary sealed "
                        f"{journal.commit_seq}"
                    )
            else:
                # Mid-ship: the cut can land anywhere in the flushed
                # stream, including inside a record (a torn batch the
                # replica must refuse to apply).
                crash_copy(self.store, self.scratch,
                           lambda flushed: rng.randint(0, flushed))
                facts["primary_epoch"] = db.commit_epoch
            facts["boundaries"] = len(states)

        if self.kind == "kill-primary":
            self._check_promotion(states, labels, report)
        return report

    # -- oracles ----------------------------------------------------------

    def _check_prefix(self, follower, states, labels, report):
        index = last_match(states, state_fingerprint(follower.database))
        if index is None:
            report.problems.append(
                f"replica state after poll {report.facts['polls']} matches "
                f"no captured commit point (not a committed prefix)"
            )
        else:
            report.facts["matched_label"] = labels[index]

    def _check_stale_bound(self, follower, db, report):
        report.facts["applied_epoch"] = follower.applied_epoch
        report.facts["primary_epoch"] = db.commit_epoch
        if follower.applied_epoch > db.commit_epoch:
            report.problems.append(
                f"replica applied epoch {follower.applied_epoch} beyond "
                f"the primary's {db.commit_epoch}"
            )
        try:
            follower.require_epoch(follower.applied_epoch)
        except ReplicaLagError:
            report.problems.append(
                "replica refused its own applied epoch"
            )
        try:
            follower.require_epoch(db.commit_epoch + 1)
            report.problems.append(
                "replica claimed an epoch the primary has not committed"
            )
        except ReplicaLagError:
            pass

    def _check_promotion(self, states, labels, report):
        """kill-primary ending: the replica applies what survived the
        cut, then a fresh primary is promoted from the same bytes."""
        facts = report.facts
        survivor = JournalFollower(self.scratch)
        facts["polls"] += 1
        facts["replica_rebuilds"] += 1
        state = state_fingerprint(survivor.database)
        index = last_match(states, state)
        if index is None:
            report.problems.append(
                "replica state after the primary crash matches no "
                "captured commit point"
            )
        else:
            facts["matched_label"] = labels[index]
        facts["applied_epoch"] = survivor.applied_epoch

        # Promotion: recover a fresh primary from the same survivors —
        # it must land exactly on the replica's prefix (refinement: the
        # replica's incremental parser and recovery agree byte-for-byte
        # on what a journal prefix means)...
        if state_fingerprint(recover_copy(self.scratch)) != state:
            report.problems.append(
                "promotion diverged: recovery over the surviving bytes "
                "disagrees with the replica's applied prefix"
            )
        # ... and accept new writes as a real primary.
        promoted = DurableDatabase(self.scratch, sync_policy=self.plan.policy)
        try:
            uid = promoted.make("Paragraph", values={"Text": "post-failover"})
            if not promoted.exists(uid):
                report.problems.append("promoted primary lost a write")
            if promoted.commit_epoch <= facts["applied_epoch"] - 1:
                report.problems.append(
                    f"promoted primary's epoch {promoted.commit_epoch} "
                    f"regressed below the replica's "
                    f"{facts['applied_epoch']}"
                )
        finally:
            promoted.close()


def _drill(plan, root, history_dir):
    """Both disasters per plan, each in its own sub-directory."""
    return [
        ReplicaDrill(
            plan, root / kind, kind,
            record_history=history_dir / f"{kind}.jsonl" if history_dir
            else False,
        ).run()
        for kind in DRILL_KINDS
    ]


SCENARIO = Scenario("replica", random_plan, _drill, policies=SYNC_POLICIES)
