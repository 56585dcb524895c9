"""CrashSim: the ``crash`` drill scenario — one journal, one kill.

On the shared engine (:mod:`repro.faults.drill`, which owns the seeded
primary, the disk model, recovery, the fsck and isolation oracles and
the report), CrashSim adds:

* a *boundary* capture at every operation and unit of the seeded
  workload: the state fingerprint plus how many journal bytes were
  flushed, whether the journal was sealed, and whether a transaction
  was open;
* the crash: at the plan's stop unit or the first injected
  :class:`~repro.errors.StorageError`.  Under ``kill`` everything the OS
  received survives; under ``power`` a seeded cut lands anywhere past
  the truly-fsynced watermark (so a "lying fsync" plan loses exactly the
  bytes the lie pretended were safe);
* its own oracle, the **durable floor**: the recovered state must equal
  a captured boundary *at or after* the last state the sync policy
  actually guaranteed, given real fsyncs.

With ``record_history`` the transaction history is isolation-checked
too — the workload is single-threaded strict execution, so any ``ISO-*``
error is a recorder or undo-path bug, not a storage failure.

Everything is derived from ``plan.seed``: two runs of one plan produce
identical journals, identical crashes, and identical verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from ..storage.journal import SYNC_POLICIES
from .drill import (
    DrillReport,
    Scenario,
    check_fsck,
    crash_copy,
    last_match,
    primary_run,
    recover_copy,
    state_fingerprint,
)
from .plan import random_plan


@dataclass
class _Boundary:
    """One captured state: what recovery may legally land on."""

    label: str
    state: dict
    #: Journal bytes flushed to the OS when captured (current epoch).
    flushed: int
    #: True when the journal had no open batch / unsealed records —
    #: i.e. the captured state coincides with a batch boundary on disk.
    sealed: bool
    #: Journal epoch the capture belongs to.
    epoch: int
    #: True when no transaction was open.  Only quiescent boundaries
    #: hold purely *committed* data and may become the durable floor:
    #: a mid-transaction state (durable per-op under ``always``) can
    #: legally be rolled back by the abort's own journaled undo pass.
    quiescent: bool = True


class CrashSim:
    """Run *plan* inside *root* (a scratch directory the caller owns).

    *record_history*: falsy — no recording; ``True`` — record the
    transaction history in memory and isolation-check it; a path —
    additionally stream it there as JSONL (the sweep's
    ``--record-histories`` files).
    """

    def __init__(self, plan, root, record_history=False):
        self.plan = plan
        self.root = Path(root)
        self.store = self.root / "store"
        self.scratch = self.root / "crash"
        self.record_history = record_history

    def run(self):
        plan = self.plan
        report = DrillReport(plan=plan, scenario="crash")
        boundaries = []
        # The durable watermark: bytes of the current journal epoch
        # covered by a *real* fsync.  A lying fsync never fires the
        # observer-only "journal.fsynced" site, so the watermark stays
        # put while the counters claim otherwise — exactly the gap the
        # power-cut model then exploits.  The floor starts at boundary 0:
        # schema DDL checkpoints, so nothing before it can be lost.
        marks = {"synced": 0, "floor_base": 0}

        def on_fsynced(ctx):
            marks["synced"] = ctx["journal"]._journal_file.tell()

        def on_checkpointed(ctx):
            # A checkpoint fsyncs the snapshot: every state captured so
            # far is durable regardless of journal bytes, and journal
            # accounting restarts with the new (empty) epoch file.
            marks["synced"] = 0
            marks["floor_base"] = len(boundaries)

        with primary_run(
            plan, self.store, report,
            observers={"journal.fsynced": on_fsynced,
                       "journal.checkpointed": on_checkpointed},
            record_history=self.record_history,
        ) as (db, rng, drive):
            journal = db.journal

            def capture(label, sealed=None, quiescent=True):
                if sealed is None:
                    sealed = not journal._auto_batch.records and not any(
                        b.records for b in journal._txn_batches.values()
                    )
                boundaries.append(_Boundary(
                    label=label,
                    state=state_fingerprint(db),
                    flushed=journal.journal_path.stat().st_size,
                    sealed=sealed,
                    epoch=journal.epoch,
                    quiescent=quiescent,
                ))

            drive(capture, lambda index: index == plan.stop_at_unit)
            if report.facts["crashed_by_fault"]:
                # The operation that hit the fault may have become
                # durable anyway (e.g. under ``always`` an fsync error
                # fires after the commit marker was flushed), so the
                # crash-moment state is a legal recovery target.  It is
                # never a *floor*: the operation raised, so it carries
                # no durability guarantee.
                capture("crash", sealed=False, quiescent=False)
            report.facts["boundaries"] = len(boundaries)

            def power_cut(flushed):
                # A power cut preserves only what a real fsync covered;
                # the tail past the watermark survives to a seeded cut.
                return rng.randint(min(marks["synced"], flushed), flushed)

            report.facts["surviving_bytes"] = crash_copy(
                self.store, self.scratch,
                power_cut if plan.crash_mode == "power" else None,
            )

        self._recover_and_check(boundaries, marks, report)
        return report

    def _recover_and_check(self, boundaries, marks, report):
        recovered = recover_copy(self.scratch)
        check_fsck(report, recovered)
        index = last_match([b.state for b in boundaries],
                           state_fingerprint(recovered))
        report.facts["recovered_index"] = index
        if index is None:
            report.problems.append(
                "recovered state matches no captured boundary state "
                "(not a committed prefix)"
            )
            return
        floor = self._durable_floor(boundaries, marks, report)
        report.facts["durable_floor"] = floor
        if index < floor:
            report.problems.append(
                f"durable state {boundaries[floor].label!r} (floor {floor}) "
                f"lost: recovery landed on index {index} "
                f"({boundaries[index].label!r})"
            )

    def _durable_floor(self, boundaries, marks, report):
        """Index of the last boundary the policy actually guaranteed.

        Checkpoint snapshots make everything before ``floor_base``
        durable.  Past that, a sealed boundary is guaranteed iff its
        journal bytes survived the crash: under ``kill`` every flushed
        byte did; under ``power`` only bytes under the real-fsync
        watermark.  States of older journal epochs are covered by the
        checkpoint that ended their epoch, never by surviving bytes of
        the current file.
        """
        floor = marks["floor_base"]
        final_epoch = boundaries[-1].epoch
        limit = report.facts["surviving_bytes"]
        if self.plan.crash_mode == "power":
            limit = min(marks["synced"], limit)
        for j, boundary in enumerate(boundaries):
            if (j > floor and boundary.sealed and boundary.quiescent
                    and boundary.epoch == final_epoch
                    and boundary.flushed <= limit):
                floor = j
        return floor


def _drill(plan, root, history_dir):
    record = history_dir / "history.jsonl" if history_dir else False
    return [CrashSim(plan, root, record_history=record).run()]


#: Plans are dealt round-robin across all four sync policies, so a sweep
#: of N plans exercises N/4 seeded workloads per policy.
SCENARIO = Scenario("crash", random_plan, _drill, policies=SYNC_POLICIES)
