"""Adya-style isolation analysis (plane 5, part 2).

Two halves, one findings vocabulary:

**Dynamic** — :func:`check_history` replays a recorded
:class:`~repro.analysis.history.History` into Adya's Direct
Serialization Graph (DSG): one node per committed transaction, edges

* ``ww`` — *Ti* installed a version of *x* and *Tj* installed the next
  committed version (version order = install order; the recorder's
  per-UID counters never rewind),
* ``wr`` — *Tj* read a version *Ti* installed (read-from),
* ``rw`` — *Tj* read version *v* of *x* and *Tk* installed the first
  committed version after *v* (anti-dependency),

and reports the classic phenomena as typed findings:

=====================  ======================================================
``ISO-G0``             write cycle (cycle of ``ww`` edges only)
``ISO-G1A``            read from an aborted transaction (dirty read);
                       reads from a transaction with *no* outcome in the
                       history (crash-interrupted) downgrade to WARNING
``ISO-G1B``            read of a committed transaction's intermediate
                       (non-final) version of an object
``ISO-G1C``            dependency cycle (``ww``/``wr`` with ≥ 1 ``wr``)
``ISO-G2``             serialization cycle with ≥ 1 anti-dependency
``ISO-LOST-UPDATE``    2-cycle: ``rw`` on *x* one way, ``ww`` on the
                       same *x* back — an update based on a stale read
``ISO-WRITE-SKEW``     2-cycle of two ``rw`` edges on distinct objects
=====================  ======================================================

Every cycle finding carries a **shortest witness**: the minimal cycle of
transaction keys through the offending edge (per-edge BFS,
:func:`repro.graph.shortest_cycles`) plus every conflicting edge on it.

**Static** — :func:`predict_isolation` asks the same question of
:class:`~repro.analysis.locklint.TransactionTemplate` lock plans
*before any execution*: which anti-dependency hazards does the Section 7
discipline currently suppress **only** through its shared (read) locks?
Those are exactly the anomalies that appear the day reads stop locking
(ROADMAP item 3's MVCC snapshot reads), so the findings
(``ISO-TEMPLATE-LOST-UPDATE``, ``ISO-TEMPLATE-SKEW``,
``ISO-TEMPLATE-CYCLE``) are warnings that scope that work, not errors
about today's behavior.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Hashable, Iterable, Optional, Sequence, Union

from ..graph import shortest_cycles
from ..locking.modes import COMPATIBILITY, LockMode
from .findings import Report, Severity
from .history import Event, History, INITIAL_VERSION
from .lockdep import _resource_label
from .locklint import (
    TransactionTemplate,
    WRITE_MODES,
    coerce_template,
    plan_template_steps,
)

__all__ = [
    "Edge",
    "build_dsg",
    "check_history",
    "predict_isolation",
]


@dataclass(frozen=True, slots=True)
class Edge:
    """One DSG dependency edge."""

    src: str
    dst: str
    #: ``ww`` / ``wr`` / ``rw``.
    kind: str
    #: The object the conflict is on.
    uid: str
    #: Attribute footprint of the witnessing event (``None`` = whole
    #: object).
    attribute: Optional[str] = None

    def to_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "from": self.src, "to": self.dst, "kind": self.kind,
            "uid": self.uid,
        }
        if self.attribute is not None:
            payload["attribute"] = self.attribute
        return payload


# ---------------------------------------------------------------------------
# Dynamic half: history checking
# ---------------------------------------------------------------------------


def check_history(
    history: Union[History, Sequence[Event]],
    report: Optional[Report] = None,
) -> Report:
    """Check a recorded history for isolation anomalies.

    Multi-epoch histories (``boot`` markers from process restarts) are
    checked one epoch at a time — no edge crosses a crash boundary.
    ``checked`` counts events examined.
    """
    if report is None:
        report = Report(plane="iso")
    if not isinstance(history, History):
        history = History(list(history))
    epochs = history.epochs()
    many = len(epochs) > 1
    for number, events in enumerate(epochs, start=1):
        _check_epoch(events, report, epoch=number if many else None)
        report.checked += len(events)
    return report


def build_dsg(events: Sequence[Event]) -> list[Edge]:
    """The Direct Serialization Graph of one epoch: deduplicated
    ``ww``/``wr``/``rw`` edges between **committed** transactions."""
    status = _txn_status(events)
    committed = {txn for txn, state in status.items() if state == "committed"}
    installs = _committed_installs(events, committed)

    edges: list[Edge] = []
    seen: set[tuple[str, str, str, str]] = set()

    def put(src: str, dst: str, kind: str, uid: str,
            attribute: Optional[str]) -> None:
        if src == dst:
            return
        key = (src, dst, kind, uid)
        if key in seen:
            return
        seen.add(key)
        edges.append(Edge(src=src, dst=dst, kind=kind, uid=uid,
                          attribute=attribute))

    # ww: adjacent committed installs in version order.
    for uid, versions in installs.items():
        ordered = sorted(versions)
        for (_v1, t1, a1), (_v2, t2, _a2) in zip(ordered, ordered[1:]):
            put(t1, t2, "ww", uid, a1)
    for event in events:
        if event.kind != "read" or event.txn not in committed:
            continue
        # wr: read-from a committed installer.
        if event.installer is not None and event.installer in committed:
            put(event.installer, event.txn, "wr", event.uid, event.attribute)
        # rw: anti-dependency to the installer of the first committed
        # version after the one this read observed.
        later = [
            (version, txn) for version, txn, _attr in installs.get(event.uid, [])
            if version > event.version and txn != event.txn
        ]
        if later:
            _next_version, successor = min(later)
            put(event.txn, successor, "rw", event.uid, event.attribute)
    return edges


def _txn_status(events: Sequence[Event]) -> dict[str, str]:
    """``committed`` / ``aborted`` / ``open`` per transaction key."""
    status: dict[str, str] = {}
    for event in events:
        if not event.txn:
            continue
        if event.kind == "commit":
            status[event.txn] = "committed"
        elif event.kind == "abort":
            status[event.txn] = "aborted"
        else:
            status.setdefault(event.txn, "open")
    return status


def _committed_installs(
    events: Sequence[Event], committed: set[str]
) -> dict[str, list[tuple[int, str, Optional[str]]]]:
    """Per UID: committed ``(version, txn, attribute)`` installs."""
    installs: dict[str, list[tuple[int, str, Optional[str]]]] = defaultdict(list)
    for event in events:
        if event.kind in ("write", "delete") and event.txn in committed:
            installs[event.uid].append(
                (event.version, event.txn, event.attribute)
            )
    return installs


def _check_epoch(
    events: Sequence[Event], report: Report, epoch: Optional[int]
) -> None:
    status = _txn_status(events)
    committed = {txn for txn, state in status.items() if state == "committed"}
    installs = _committed_installs(events, committed)

    # Final committed version per (txn, uid) — G1B needs it.
    final_version: dict[tuple[str, str], int] = {}
    for uid, versions in installs.items():
        for version, txn, _attr in versions:
            key = (txn, uid)
            final_version[key] = max(final_version.get(key, INITIAL_VERSION),
                                     version)

    seen_dirty: set[tuple[str, str, str, int]] = set()
    for event in events:
        if (event.kind != "read" or event.installer is None
                or event.installer == event.txn):
            continue
        writer_state = status.get(event.installer, "open")
        dedupe = (event.txn, event.installer, event.uid, event.version)
        if dedupe in seen_dirty:
            continue
        if writer_state == "aborted":
            seen_dirty.add(dedupe)
            report.add(
                Severity.ERROR, "ISO-G1A", _location(event.uid, epoch),
                f"transaction {event.txn} read version {event.version} of "
                f"{event.uid}{_attr_suffix(event)} written by transaction "
                f"{event.installer}, which aborted (dirty read)",
                reader=event.txn, writer=event.installer, uid=event.uid,
                version=event.version, status="aborted",
                **_epoch_detail(epoch),
            )
        elif writer_state == "open":
            seen_dirty.add(dedupe)
            report.add(
                Severity.WARNING, "ISO-G1A", _location(event.uid, epoch),
                f"transaction {event.txn} read version {event.version} of "
                f"{event.uid}{_attr_suffix(event)} written by transaction "
                f"{event.installer}, which never finished (crash-"
                f"interrupted history?)",
                reader=event.txn, writer=event.installer, uid=event.uid,
                version=event.version, status="unfinished",
                **_epoch_detail(epoch),
            )
        else:
            final = final_version.get(
                (event.installer, event.uid), event.version
            )
            if event.version < final:
                seen_dirty.add(dedupe)
                report.add(
                    Severity.ERROR, "ISO-G1B", _location(event.uid, epoch),
                    f"transaction {event.txn} read intermediate version "
                    f"{event.version} of {event.uid}{_attr_suffix(event)}; "
                    f"transaction {event.installer} later installed version "
                    f"{final} before committing",
                    reader=event.txn, writer=event.installer, uid=event.uid,
                    version=event.version, final_version=final,
                    **_epoch_detail(epoch),
                )

    edges = build_dsg(events)
    _report_cycles(edges, report, epoch)


def _report_cycles(
    edges: list[Edge], report: Report, epoch: Optional[int]
) -> None:
    by_pair: dict[tuple[str, str], list[Edge]] = defaultdict(list)
    for edge in edges:
        by_pair[(edge.src, edge.dst)].append(edge)

    for cycle in shortest_cycles(by_pair):
        hops: list[list[Edge]] = []
        for index, src in enumerate(cycle):
            dst = cycle[(index + 1) % len(cycle)]
            hops.append(by_pair[(src, dst)])
        hop_kinds = [{edge.kind for edge in hop} for hop in hops]
        # Most specific phenomenon first: a hop may carry parallel
        # edges of several kinds, so ask which *assignment* exists.
        if all("ww" in kinds for kinds in hop_kinds):
            rule, what = "ISO-G0", "write cycle (G0)"
        elif all(kinds & {"ww", "wr"} for kinds in hop_kinds):
            rule, what = "ISO-G1C", "dependency cycle (G1c)"
        else:
            rule, what = "ISO-G2", "anti-dependency cycle (G2)"
        path = " -> ".join(cycle + (cycle[0],))
        witness = [edge.to_dict() for hop in hops for edge in hop]
        objects = sorted({edge.uid for hop in hops for edge in hop})
        report.add(
            Severity.ERROR, rule, _location(path, epoch),
            f"{what} through {len(cycle)} transaction(s) over "
            f"{', '.join(objects)}: the execution is not serializable",
            cycle=list(cycle), edges=witness, **_epoch_detail(epoch),
        )
        if len(cycle) == 2:
            _classify_two_cycle(cycle, hops, report, epoch)


def _classify_two_cycle(
    cycle: tuple[str, ...], hops: list[list[Edge]], report: Report,
    epoch: Optional[int],
) -> None:
    """Derived classifiers for 2-cycles: lost update and write skew."""
    forward, backward = hops[0], hops[1]
    emitted: set[str] = set()
    for rw, ww in ((forward, backward), (backward, forward)):
        for anti in rw:
            if anti.kind != "rw":
                continue
            for write in ww:
                if write.kind == "ww" and write.uid == anti.uid:
                    key = f"lost:{anti.uid}"
                    if key in emitted:
                        continue
                    emitted.add(key)
                    report.add(
                        Severity.ERROR, "ISO-LOST-UPDATE",
                        _location(anti.uid, epoch),
                        f"lost update on {anti.uid}: transaction {anti.src} "
                        f"read it, transaction {anti.dst} overwrote it, and "
                        f"{anti.src} then wrote a value based on its stale "
                        f"read",
                        cycle=list(cycle),
                        edges=[anti.to_dict(), write.to_dict()],
                        **_epoch_detail(epoch),
                    )
    rw_forward = [edge for edge in forward if edge.kind == "rw"]
    rw_backward = [edge for edge in backward if edge.kind == "rw"]
    for anti_a in rw_forward:
        for anti_b in rw_backward:
            if anti_a.uid == anti_b.uid:
                continue
            key = f"skew:{min(anti_a.uid, anti_b.uid)}:{max(anti_a.uid, anti_b.uid)}"
            if key in emitted:
                continue
            emitted.add(key)
            report.add(
                Severity.ERROR, "ISO-WRITE-SKEW",
                _location(f"{anti_a.uid} / {anti_b.uid}", epoch),
                f"write skew between transactions {anti_a.src} and "
                f"{anti_b.src}: each read the object the other wrote "
                f"({anti_a.uid}, {anti_b.uid}) under a constraint no "
                f"serial order preserves",
                cycle=list(cycle),
                edges=[anti_a.to_dict(), anti_b.to_dict()],
                **_epoch_detail(epoch),
            )


def _location(core: str, epoch: Optional[int]) -> str:
    return f"epoch {epoch}: {core}" if epoch is not None else core


def _epoch_detail(epoch: Optional[int]) -> dict[str, int]:
    return {"epoch": epoch} if epoch is not None else {}


def _attr_suffix(event: Event) -> str:
    return f".{event.attribute}" if event.attribute else ""


# ---------------------------------------------------------------------------
# Static half: template-mode prediction
# ---------------------------------------------------------------------------


def predict_isolation(
    db: Any,
    templates: Iterable[Union[TransactionTemplate, dict[str, Any], Sequence[Any]]],
    discipline: str = "composite",
) -> Report:
    """Predict which anomalies appear if reads stop taking locks.

    For every template the Section 7 planner computes the read-intent
    and write-intent lock sets.  An ``rw`` hazard *A → B* exists where a
    resource *A* read-locks would conflict with a mode *B* write-locks
    on it — under strict 2PL that conflict delays one of them; drop the
    shared locks (MVCC snapshot reads, ROADMAP item 3) and the
    anti-dependency is free to form.  Hazard cycles are reported as

    * ``ISO-TEMPLATE-LOST-UPDATE`` — a template reads **and** writes a
      resource another template (or a second concurrent instance of
      itself) writes: the read-then-write is an unprotected upgrade.
      Note the write locks alone do *not* prevent this — both instances
      can read before either takes its exclusive lock.
    * ``ISO-TEMPLATE-SKEW`` — two templates with mutual ``rw`` hazards
      on **distinct** resources (write-skew shape).
    * ``ISO-TEMPLATE-CYCLE`` — an ``rw``-hazard cycle through three or
      more templates.

    All three are WARNINGs: today's discipline serializes these
    executions; the report scopes what a weaker one must re-prove.
    ``checked`` counts templates analyzed.
    """
    report = Report(plane="iso")
    named: list[tuple[str, dict[Hashable, set[LockMode]],
                      dict[Hashable, set[LockMode]]]] = []
    for index, item in enumerate(templates):
        template = coerce_template(item, index)
        reads: dict[Hashable, set[LockMode]] = defaultdict(set)
        writes: dict[Hashable, set[LockMode]] = defaultdict(set)
        for step in plan_template_steps(db, template, discipline, report):
            bucket = writes if step.intent == "write" else reads
            for resource, mode in step.locks:
                if bucket is writes and mode not in WRITE_MODES:
                    # Composite write plans can include read-side locks
                    # (e.g. S on shared ancestors); those are read
                    # protection, not write intent.
                    reads[resource].add(mode)
                else:
                    bucket[resource].add(mode)
        named.append((template.name, dict(reads), dict(writes)))
        report.checked += 1

    # rw hazard A -> B via resource R: A read-locks R in a mode that
    # conflicts with a mode B write-locks R in.
    hazards: dict[tuple[int, int], set[Hashable]] = defaultdict(set)
    for a_index, (_a_name, a_reads, _a_writes) in enumerate(named):
        for b_index, (_b_name, _b_reads, b_writes) in enumerate(named):
            for resource, read_modes in a_reads.items():
                write_modes = b_writes.get(resource)
                if not write_modes:
                    continue
                if any(
                    not COMPATIBILITY[(write_mode, read_mode)]
                    for read_mode in read_modes
                    for write_mode in write_modes
                ):
                    hazards[(a_index, b_index)].add(resource)

    _report_template_lost_updates(named, hazards, report)
    _report_template_skew(named, hazards, report)
    _report_template_cycles(named, hazards, report)
    return report


def _report_template_lost_updates(
    named: list[tuple[str, dict[Hashable, set[LockMode]],
                      dict[Hashable, set[LockMode]]]],
    hazards: dict[tuple[int, int], set[Hashable]],
    report: Report,
) -> None:
    emitted: set[tuple[str, str, str]] = set()
    for (a_index, b_index), resources in sorted(
        hazards.items(), key=lambda item: item[0]
    ):
        a_name = named[a_index][0]
        b_name = named[b_index][0]
        a_writes = named[a_index][2]
        for resource in sorted(resources, key=_resource_label):
            if resource not in a_writes:
                continue  # A never writes it back: no upgrade to lose.
            label = _resource_label(resource)
            key = (a_name, b_name, label)
            if key in emitted:
                continue
            emitted.add(key)
            concurrent = (
                "a second concurrent instance of itself"
                if a_index == b_index
                else f"template {b_name!r}"
            )
            report.add(
                Severity.WARNING, "ISO-TEMPLATE-LOST-UPDATE", label,
                f"template {a_name!r} reads then writes {label} while "
                f"{concurrent} also writes it; only the shared lock on "
                f"the read serializes the read-modify-write today — "
                f"without read locks both can read before either writes "
                f"(lost update)",
                reader=a_name, writer=b_name, resource=label,
            )


def _report_template_skew(
    named: list[tuple[str, dict[Hashable, set[LockMode]],
                      dict[Hashable, set[LockMode]]]],
    hazards: dict[tuple[int, int], set[Hashable]],
    report: Report,
) -> None:
    emitted: set[tuple[str, str, str, str]] = set()
    for (a_index, b_index), forward in sorted(
        hazards.items(), key=lambda item: item[0]
    ):
        if a_index > b_index:
            continue  # unordered pair: visit once
        backward = hazards.get((b_index, a_index))
        if not backward:
            continue
        a_name, b_name = named[a_index][0], named[b_index][0]
        for resource_a in sorted(forward, key=_resource_label):
            for resource_b in sorted(backward, key=_resource_label):
                if resource_a == resource_b:
                    continue  # same resource both ways: lost-update shape
                label_a = _resource_label(resource_a)
                label_b = _resource_label(resource_b)
                key = (a_name, b_name, *sorted((label_a, label_b)))
                if key in emitted:
                    continue
                emitted.add(key)
                report.add(
                    Severity.WARNING, "ISO-TEMPLATE-SKEW",
                    f"{label_a} / {label_b}",
                    f"templates {a_name!r} and {b_name!r} each read what "
                    f"the other writes ({label_a}, {label_b}); without "
                    f"read locks the rw anti-dependencies close a cycle "
                    f"(write skew)",
                    templates=[a_name, b_name],
                    resources=[label_a, label_b],
                )


def _report_template_cycles(
    named: list[tuple[str, dict[Hashable, set[LockMode]],
                      dict[Hashable, set[LockMode]]]],
    hazards: dict[tuple[int, int], set[Hashable]],
    report: Report,
) -> None:
    labels: dict[tuple[str, str], list[str]] = {}
    for (a_index, b_index), resources in hazards.items():
        if a_index == b_index:
            continue
        a_name, b_name = named[a_index][0], named[b_index][0]
        if a_name == b_name:
            continue
        labels[(a_name, b_name)] = sorted(
            _resource_label(resource) for resource in resources
        )
    for cycle in shortest_cycles(labels):
        if len(cycle) < 3:
            continue  # 2-cycles are the skew/lost-update findings above
        path = " -> ".join(cycle + (cycle[0],))
        witness = []
        for index, src in enumerate(cycle):
            dst = cycle[(index + 1) % len(cycle)]
            witness.append({
                "from": src, "to": dst,
                "resources": labels[(src, dst)],
            })
        report.add(
            Severity.WARNING, "ISO-TEMPLATE-CYCLE", path,
            f"rw anti-dependency hazard cycle through {len(cycle)} "
            f"templates; without read locks an interleaving exists whose "
            f"DSG contains this cycle (G2)",
            cycle=list(cycle), edges=witness,
        )
