"""The crash-drill engine: one report, one disk model, one sweep.

A *drill* is plan -> run -> kill -> recover -> oracle (docs/FAULTS.md,
"Drills").  The scenarios in :data:`SCENARIOS` add only a workload and
an oracle of their own; everything they would otherwise repeat is here:
:class:`DrillReport`; the disk model (:func:`crash_copy`,
:func:`recover_copy`); the shared oracles (:func:`last_match`,
:func:`check_fsck`, :func:`check_isolation`); the seeded primary
(:func:`primary_run` driving :class:`SeededWorkload`); and the sweep
(:func:`sweep_plans`, :func:`run_sweep`, the ``repro-sweep`` CLI).

**Seed format.**  Plan *i* of a sweep from base seed *B* has seed
``B + i * SEED_STRIDE``, and a plan is a pure function of (scenario, its
own seed, and — where the scenario deals sync policies round-robin — its
policy).  So ``DrillReport.command``, pasted back, re-creates exactly the
plan that failed.

Exit codes follow ``repro-check``: 0 clean, 1 findings, 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import shutil
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from random import Random
from typing import Any, Callable, NamedTuple, Optional

from ..core.database import Database
from ..errors import StorageError
from ..schema.attribute import AttributeSpec, SetOf
from ..storage.durable import DurableDatabase
from ..storage.journal import JOURNAL_NAME, SNAPSHOT_NAME, SYNC_POLICIES, Journal
from ..storage.serializer import encode_instance
from ..txn import TransactionManager
from .registry import fault_scope

#: Spread per-plan seeds apart so neighbouring plans do not share rng
#: prefixes (100003 is prime and far from any power of two).
SEED_STRIDE = 100003

#: Scenario name -> the module holding its ``SCENARIO``.  Imported on
#: demand: the shard and replica layers sit *above* this one.
SCENARIOS = {
    "crash": "repro.faults.crashsim",
    "replica": "repro.mvcc.crashsim",
    "shard": "repro.shard.crashsim",
}


class Scenario(NamedTuple):
    """What a scenario module registers as its ``SCENARIO``."""

    name: str
    #: Pure ``(seed, policy) -> plan`` — ``(seed) -> plan`` when the
    #: scenario deals no :attr:`policies`.
    make_plan: Callable[..., Any]
    #: ``(plan, root, history_dir) -> [DrillReport, ...]``: run the plan
    #: in the scratch directory *root*; with a *history_dir*, record
    #: transaction histories there (``*.jsonl``) and isolation-check them.
    run: Callable[[Any, Path, Optional[Path]], list]
    #: Sync policies dealt round-robin over a sweep; empty when the plan
    #: draws its own from its seed.
    policies: tuple = ()
    #: ``(root, path)``: write the run's durable protocol trace, if the
    #: scenario leaves one.
    record_trace: Optional[Callable[[Path, Path], None]] = None

    def plan(self, seed, policy=None):
        if self.policies:
            return self.make_plan(seed, policy)
        return self.make_plan(seed)


def scenario(name):
    return importlib.import_module(SCENARIOS[name]).SCENARIO


@dataclass
class DrillReport:
    """Outcome of one drill.  ``ok`` is the verdict; the rest is
    forensics for the sweep and for debugging a failing seed."""

    plan: Any
    scenario: str
    #: Ordered forensic facts (insertion order is print order).
    facts: dict = field(default_factory=dict)
    #: Faults that actually fired, as ``what#hit`` labels.
    fired: list = field(default_factory=list)
    #: Captured transaction history (history-recording runs only).
    history: Any = None
    problems: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.problems

    @property
    def command(self):
        """The command line that re-creates :attr:`plan` (None when no
        seed of this scenario yields it)."""
        spec = scenario(self.scenario)
        policy = self.plan.policy if spec.policies else None
        if spec.plan(self.plan.seed, policy) != self.plan:
            return None
        return (
            f"python -m repro.faults.drill {self.scenario} --plans 1 "
            f"--seed {self.plan.seed}"
            + (f" --policy {policy}" if policy else "")
        )

    def summary(self):
        verdict = "ok" if self.ok else "FAIL " + "; ".join(self.problems)
        facts = " ".join(f"{k}={v}" for k, v in self.facts.items())
        return (f"{self.scenario} {self.plan.describe()} -> {facts} "
                f"fired={len(self.fired)} [{verdict}]")


def state_fingerprint(database):
    """``{uid: serialized image}`` of every live instance.

    Equal exactly when the databases hold the same instances with the
    same values, members and reverse references, in the same order --
    abort and recovery both restore order exactly, so it is not
    normalized away.
    """
    return {
        instance.uid: encode_instance(instance)
        for instance in database.live_instances()
    }


class SeededWorkload:
    """Deterministic mixed workload over the Paragraph/Section schema
    (the same composite shape the crash-consistency sweep uses)."""

    def __init__(self, database, rng):
        self.db = database
        self.tm = TransactionManager(database)
        self.rng = rng

    def define_schema(self):
        self.db.make_class("Paragraph", attributes=[
            AttributeSpec("Text", domain="string"),
        ])
        self.db.make_class("Section", attributes=[
            AttributeSpec("Content", domain=SetOf("Paragraph"),
                          composite=True, exclusive=False, dependent=True),
        ])

    # -- pools -----------------------------------------------------------

    def _paragraphs(self):
        return sorted(
            (i.uid for i in self.db.instances_of("Paragraph")),
            key=lambda uid: uid.number,
        )

    def _sections(self):
        return sorted(
            (i.uid for i in self.db.instances_of("Section")),
            key=lambda uid: uid.number,
        )

    # -- units -----------------------------------------------------------

    def run_unit(self, index, capture):
        """Run one workload unit; *capture(label)* records a boundary
        after every completed operation."""
        rng = self.rng
        roll = rng.random()
        if roll < 0.35:
            self._txn_unit(index, capture, commit=True)
        elif roll < 0.50:
            self._txn_unit(index, capture, commit=False)
        elif roll < 0.75:
            self._bare_unit(index, capture)
        elif roll < 0.85:
            self._delete_unit(index, capture)
        elif roll < 0.92:
            if self.db.journal.needs_sync:
                self.db.journal.sync()
            capture(f"u{index}:sync")
        else:
            self.db.checkpoint()
            capture(f"u{index}:checkpoint")

    def _txn_unit(self, index, capture, commit):
        tm, rng = self.tm, self.rng
        txn = tm.begin()
        for op in range(rng.randint(1, 3) if not commit else rng.randint(2, 4)):
            self._txn_op(txn, f"u{index}.{op}")
            # Mid-transaction boundaries matter under the write-through
            # ``always`` policy, where every operation seals its own
            # batch; under batching policies they are never recoverable
            # alone and simply sit unused in the candidate list.
            capture(f"u{index}:op{op}", quiescent=False)
        if commit:
            tm.commit(txn)
            capture(f"u{index}:commit")
        else:
            tm.abort(txn)
            capture(f"u{index}:abort")

    def _txn_op(self, txn, tag):
        tm, rng = self.tm, self.rng
        paragraphs, sections = self._paragraphs(), self._sections()
        roll = rng.random()
        if roll < 0.35 or not paragraphs:
            if len(paragraphs) >= 40:
                return
            tm.make(txn, "Paragraph", values={"Text": f"t-{tag}"})
        elif roll < 0.60:
            tm.write(txn, rng.choice(paragraphs), "Text", f"w-{tag}")
        elif roll < 0.75 or not sections:
            if sections and rng.random() < 0.5:
                tm.make(txn, "Paragraph", values={"Text": f"m-{tag}"},
                        parents=[(rng.choice(sections), "Content")])
            else:
                tm.make(txn, "Section")
        elif roll < 0.90:
            tm.insert(txn, rng.choice(sections), "Content",
                      rng.choice(paragraphs))
        else:
            section = rng.choice(sections)
            # Attribute the read to the open transaction (not a bare
            # auto-txn, which could observe this txn's own dirty state).
            with self.db.txn_context(txn):
                content = self.db.value(section, "Content")
            if content:
                tm.remove(txn, section, "Content",
                          rng.choice(sorted(content, key=lambda u: u.number)))

    def _bare_unit(self, index, capture):
        db, rng = self.db, self.rng
        for op in range(rng.randint(1, 3)):
            paragraphs, sections = self._paragraphs(), self._sections()
            roll = rng.random()
            if roll < 0.40 or not paragraphs:
                if sections and rng.random() < 0.4:
                    db.make("Paragraph", values={"Text": f"b-u{index}.{op}"},
                            parents=[(rng.choice(sections), "Content")])
                else:
                    db.make("Paragraph", values={"Text": f"b-u{index}.{op}"})
            elif roll < 0.70:
                db.set_value(rng.choice(paragraphs), "Text", f"e-u{index}.{op}")
            elif roll < 0.85 or not sections:
                db.make("Section")
            else:
                db.insert_into(rng.choice(sections), "Content",
                               rng.choice(paragraphs))
            capture(f"u{index}:bare{op}")

    def _delete_unit(self, index, capture):
        db, rng = self.db, self.rng
        sections, paragraphs = self._sections(), self._paragraphs()
        if sections and rng.random() < 0.6:
            db.delete(rng.choice(sections))  # may cascade to dependents
        elif paragraphs:
            db.delete(rng.choice(paragraphs))
        capture(f"u{index}:delete")


@contextlib.contextmanager
def primary_run(plan, store, report, observers=None, record_history=None):
    """The live primary of one drill: a :class:`DurableDatabase` at
    *store* under *plan*'s sync policy with its failpoint rules armed.
    Yields ``(db, rng, drive)``; *rng* is seeded by the plan and drives
    the workload, then any seeded crash cut.

    ``drive(capture, after_unit)`` defines the schema and runs the
    plan's units until every unit ran, *after_unit(index)* returned
    true, or an injected :class:`~repro.errors.StorageError` crashed the
    run; ``capture(label, sealed=None, quiescent=True)`` is called after
    every completed operation.

    *observers* maps observer-only failpoint sites to callbacks, armed
    before the store opens.  *record_history*: falsy — no recording;
    ``True`` — record the transaction history in memory; a path —
    additionally stream it there as JSONL; it lands in
    ``report.history`` and is isolation-checked.  On exit the journal is
    abandoned (the process "dies"), so take any :func:`crash_copy`
    inside the block.
    """
    registry = plan.build_registry()
    for site, callback in (observers or {}).items():
        registry.observe(site, callback)
    rng = Random(plan.seed)
    facts = report.facts

    def drive(capture, after_unit=lambda index: False):
        facts.update(completed_units=0, crashed_by_fault=False)
        workload = SeededWorkload(db, rng)
        try:
            workload.define_schema()
            capture("schema")
            for index in range(1, plan.units + 1):
                workload.run_unit(index, capture)
                facts["completed_units"] = index
                if after_unit(index):
                    break
        except StorageError:
            facts["crashed_by_fault"] = True

    with fault_scope(registry):
        db = DurableDatabase(
            store, sync_policy=plan.policy, group_size=plan.group_size,
        )
        recorder = None
        if record_history:
            from ..analysis.history import HistoryRecorder

            recorder = HistoryRecorder(
                db, path=None if record_history is True
                else str(record_history),
            )
        try:
            yield db, rng, drive
        finally:
            if recorder is not None:
                recorder.close()
                report.history = recorder.history
            report.fired = [
                f"{t.site}:{t.action}#{t.hit}" for t in registry.triggered
            ]
            db.journal.abandon()
    if report.history is not None:
        check_isolation(report, report.history)


def crash_copy(store, scratch, cut=None):
    """Copy *store* into *scratch* as the disk would survive a crash;
    returns the surviving journal byte count.

    The checkpoint snapshot is fsynced when written, so it survives
    whole.  Reading the journal by path sees what reached the OS — bytes
    still in the writer's userspace buffer are lost, as in a real
    ``kill -9``.  *cut(flushed)* picks how many of those bytes survive
    (None: all of them).
    """
    store, scratch = Path(store), Path(scratch)
    scratch.mkdir(parents=True, exist_ok=True)
    snapshot = store / SNAPSHOT_NAME
    if snapshot.exists():
        shutil.copyfile(snapshot, scratch / SNAPSHOT_NAME)
    data = (store / JOURNAL_NAME).read_bytes()
    if cut is not None:
        data = data[:cut(len(data))]
    (scratch / JOURNAL_NAME).write_bytes(data)
    return len(data)


def recover_copy(scratch):
    """Offline recovery of a :func:`crash_copy` (no faults armed)."""
    recovered = Database()
    Journal.recover_into(recovered, Path(scratch))
    return recovered


def last_match(states, state):
    """Index of the last captured boundary state equal to *state* — the
    committed-prefix oracle — or None when it matches none."""
    for index in range(len(states) - 1, -1, -1):
        if states[index] == state:
            return index
    return None


def check_fsck(report, database):
    """fsck-clean oracle: zero findings on a recovered *database*."""
    from ..analysis.fsck import fsck_database

    fsck = fsck_database(database)
    report.facts["fsck_clean"] = fsck.clean
    report.facts["fsck_summary"] = fsck.summary()
    if not fsck.clean:
        report.problems.append(f"fsck not clean: {fsck.summary()}")


def check_isolation(report, source):
    """Isolation oracle over recorded transaction histories.

    *source* is one in-memory history or a directory of ``*.jsonl``
    files (a crashed writer leaves at most one torn tail line).  A
    crash-interrupted transaction reads as *unfinished* — a warning,
    expected under a kill plan; only hard ``ISO-*`` errors (a real
    serialization-graph cycle, a read of aborted state) fail the plan.
    """
    from ..analysis.history import History
    from ..analysis.isocheck import check_history

    if isinstance(source, History):
        iso = check_history(source)
        report.facts["iso_summary"] = iso.summary()
        report.problems.extend(f"isolation: {f}" for f in iso.errors)
        return
    for path in sorted(Path(source).glob("*.jsonl")):
        try:
            iso = check_history(History.load(path))
        except ValueError as error:
            report.problems.append(f"history {path.name}: {error}")
            continue
        report.problems.extend(
            f"isolation ({path.name}): {f}" for f in iso.errors
        )


def sweep_plans(name, base_seed, count, policy=None):
    """The *count* plans a sweep of scenario *name* from *base_seed*
    runs: seeds a stride apart, policies dealt round-robin (or pinned
    to *policy*)."""
    spec = scenario(name)
    policies = (policy,) if policy else spec.policies or (None,)
    return [
        spec.plan(base_seed + index * SEED_STRIDE,
                  policies[index % len(policies)])
        for index in range(count)
    ]


def run_sweep(name, base_seed, count, policy=None, verbose=False,
              keep_failed=False, record_histories=None, record_traces=None):
    """Run a sweep, each plan in a fresh scratch directory that is
    removed afterwards (unless it failed and *keep_failed*); returns
    every :class:`DrillReport`.  Prints one verdict line per failing
    run (per run when *verbose*).

    *record_histories* / *record_traces* name directories that receive
    each plan's ``plan-NNNN/*.jsonl`` transaction histories and
    ``trace-NNNN.json`` protocol trace.
    """
    spec = scenario(name)
    if record_traces is not None:
        Path(record_traces).mkdir(parents=True, exist_ok=True)
    reports = []
    for index, plan in enumerate(sweep_plans(name, base_seed, count, policy)):
        root = Path(tempfile.mkdtemp(prefix=f"drill-{name}-{index:04d}-"))
        history = None
        if record_histories is not None:
            history = Path(record_histories) / f"plan-{index:04d}"
            history.mkdir(parents=True, exist_ok=True)
        ran = spec.run(plan, root, history)
        if record_traces is not None and spec.record_trace is not None:
            spec.record_trace(
                root, Path(record_traces) / f"trace-{index:04d}.json"
            )
        reports.extend(ran)
        for report in ran:
            if not report.ok:
                print(f"FAIL  {report.summary()}")
                print(f"      rerun: {report.command}")
            elif verbose:
                print(f"ok    {report.summary()}")
        if keep_failed and not all(report.ok for report in ran):
            print(f"      scratch kept at {root}")
        else:
            shutil.rmtree(root, ignore_errors=True)
    return reports


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="repro-sweep",
        description="Deterministic crash-drill sweep: seeded plans of one "
                    "scenario, each run, killed, recovered and held to the "
                    "scenario's oracle.",
    )
    parser.add_argument("scenario", choices=sorted(SCENARIOS))
    parser.add_argument("--plans", type=int, default=100,
                        help="number of plans to run (default 100)")
    parser.add_argument("--seed", type=int, default=20260806,
                        help="base seed (default 20260806)")
    parser.add_argument("--policy", choices=SYNC_POLICIES,
                        help="pin one sync policy (default: round-robin)")
    parser.add_argument("--verbose", action="store_true",
                        help="print every run, not only failures")
    parser.add_argument("--keep-failed", action="store_true",
                        help="keep a failing plan's scratch directory")
    parser.add_argument("--record-histories", metavar="DIR",
                        help="record transaction histories as "
                             "DIR/plan-NNNN/*.jsonl and isolation-check "
                             "them (repro-check iso reads the same files)")
    parser.add_argument("--record-traces", metavar="DIR",
                        help="write durable protocol traces as "
                             "DIR/trace-NNNN.json (repro-check proto "
                             "--replay reads them)")
    args = parser.parse_args(argv)
    spec = scenario(args.scenario)
    if args.plans < 1:
        parser.error("--plans must be >= 1")
    if args.policy and not spec.policies:
        parser.error(f"--policy: {spec.name} plans draw it from the seed")
    if args.record_traces and spec.record_trace is None:
        parser.error(f"--record-traces: {spec.name} runs leave no trace")
    started = time.monotonic()
    reports = run_sweep(
        args.scenario, args.seed, args.plans, policy=args.policy,
        verbose=args.verbose, keep_failed=args.keep_failed,
        record_histories=args.record_histories,
        record_traces=args.record_traces,
    )
    failed = {r.plan.seed for r in reports if not r.ok}
    fired = Counter(label.split("#")[0] for r in reports for label in r.fired)
    print(
        f"{spec.name} sweep: {args.plans - len(failed)}/{args.plans} plans "
        f"recovered clean ({len(reports)} runs, base seed {args.seed}, "
        f"{time.monotonic() - started:.1f}s); {sum(fired.values())} "
        f"faults fired at {len(fired)} distinct sites"
    )
    for label in sorted(fired):
        print(f"  fired {label:<32} x{fired[label]}")
    return 1 if failed else 0


if __name__ == "__main__":
    # Re-import under the canonical name: the scenario modules import
    # ``repro.faults.drill``, not ``__main__``.
    from repro.faults.drill import main as _main

    sys.exit(_main())
