"""Two-phase commit: the coordinator decision log and in-doubt resolution.

Protocol (presumed abort, built on the group-commit journal):

1. The router assigns a cross-shard transaction a *gtid* and sends
   ``prepare {gtid}`` to every touched shard.  Each participant seals
   its buffered batch with a ``P`` record and fsyncs
   (:meth:`repro.storage.journal.Journal.prepare_txn`), then votes.
2. All yes-votes: the router appends ``{gtid, outcome}`` to its own
   ``coord.log`` and **fsyncs before any participant hears the
   decision** — the log line is the commit point.  Any failure during
   phase 1 decides abort, which is also logged.
3. The router sends ``decide {gtid, outcome}`` to every participant;
   each journals an ``R`` record and commits/aborts locally
   (:meth:`~repro.storage.journal.Journal.resolve_prepared`).

Recovery matrix (docs/SHARDING.md has the full table): a participant
that crashes between P and R recovers the batch *in doubt* and resolves
it against the coordinator log — present means use the logged outcome,
absent means the coordinator never reached its commit point, so the
outcome is abort (presumed abort).  A torn final log line is ignored:
an unreadable decision is no decision.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Iterable, Iterator

from ..faults.registry import fire as _fire

COORD_LOG_NAME = "coord.log"


def fire_or_die(site: str, **ctx: Any) -> None:
    """Fire a failpoint; a ``kill`` directive hard-exits the process.

    The multi-process crash simulator arms ``kill`` at the ``twopc.*``
    and ``coord.*`` sites to take a worker or the coordinator down at an
    exact 2PC state.  ``os._exit`` (not ``sys.exit``): no atexit, no
    flushing, no asyncio teardown — process death, as a power cut or
    OOM-kill would deliver it.
    """
    if _fire(site, **ctx) == "kill":
        os._exit(17)


class CoordinatorLog:
    """The router's append-only decision log (``coord.log``).

    JSON lines ``{"gtid": ..., "outcome": "commit"|"abort",
    "shards": [...]}``; a decision is durable once its line is fsynced,
    which happens *before* any participant is told.  The log is the
    single source of truth for in-doubt resolution — workers poll it
    (they mount the same cluster root) and the router replays it when
    reconciling after a restart.
    """

    def __init__(self, path: str | os.PathLike[str]) -> None:
        self.path = Path(path)
        self.decisions_logged = 0

    @classmethod
    def in_root(cls, root: str | os.PathLike[str]) -> CoordinatorLog:
        return cls(Path(root) / COORD_LOG_NAME)

    def decide(self, gtid: str, outcome: str,
               shards: Iterable[int] = ()) -> None:
        """Journal a decision durably; the commit point of 2PC."""
        if outcome not in ("commit", "abort"):
            raise ValueError(f"unknown 2PC outcome {outcome!r}")
        fire_or_die("coord.log_decision", gtid=gtid, outcome=outcome)
        line = json.dumps(
            {"gtid": gtid, "outcome": outcome, "shards": list(shards)}
        )
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        self.decisions_logged += 1
        fire_or_die("coord.decided", gtid=gtid, outcome=outcome)

    def load(self) -> dict[str, str]:
        """All durable decisions, as ``{gtid: outcome}``.

        A torn line (crash mid-append) is skipped: an unreadable
        decision is no decision, and presumed abort covers it.  A torn
        line is usually the *last* one, but it can also be any earlier
        line: a crash mid-append leaves no trailing newline, so the next
        coordinator's append physically concatenates onto the torn
        bytes.  The decisions glued after a torn prefix are real and
        fsynced — :func:`_decisions_in_line` digs them out instead of
        discarding the whole physical line.

        Duplicate decision lines for one gtid keep the **first**: the
        first fsynced line was the 2PC commit point, and a participant
        may already have applied it — a later contradictory line must
        never win.
        """
        decisions: dict[str, str] = {}
        if not self.path.exists():
            return decisions
        with open(self.path, encoding="utf-8") as handle:
            for line in handle:
                for entry in _decisions_in_line(line):
                    decisions.setdefault(entry["gtid"], entry["outcome"])
        return decisions


def _decisions_in_line(line: str) -> Iterator[dict[str, Any]]:
    """Every well-formed decision entry in one physical log line.

    The fast path is a whole line holding exactly one JSON object.  On a
    decode failure the line is scanned for embedded objects: a torn
    append leaves ``{"gtid": "g1", "outc`` with no newline, and the next
    append glues a complete decision right after it.  Each ``{`` is
    tried as the start of an object via ``raw_decode``, so the torn
    prefix is dropped while every complete decision on the line is
    recovered.  Entries missing ``gtid``/``outcome`` or carrying an
    unknown outcome are ignored (corrupt bytes are no decision).
    """
    line = line.strip()
    if not line:
        return
    entries: list[Any]
    try:
        entries = [json.loads(line)]
    except json.JSONDecodeError:
        entries = []
        decoder = json.JSONDecoder()
        position = line.find("{")
        while 0 <= position < len(line):
            try:
                entry, end = decoder.raw_decode(line, position)
            except json.JSONDecodeError:
                position = line.find("{", position + 1)
                continue
            entries.append(entry)
            position = line.find("{", end)
    for entry in entries:
        if (isinstance(entry, dict)
                and isinstance(entry.get("gtid"), str)
                and entry.get("outcome") in ("commit", "abort")):
            yield entry


def resolve_in_doubt(db: Any, decisions: dict[str, str],
                     journal: Any = None) -> list[tuple[str, str]]:
    """Resolve a recovered database's in-doubt batches against
    *decisions* (a ``{gtid: outcome}`` map, e.g. from
    :meth:`CoordinatorLog.load`).

    Gtids absent from *decisions* are **left in doubt** — the caller
    decides when absence means abort (the offline oracle and fsck may
    presume it, a live worker must first give the router a chance to
    finish logging; see ``repro.shard.worker``).  Pass
    ``presume_abort(db, journal)`` afterwards to close the remainder.

    With *journal* (the shard's live :class:`~repro.storage.journal.
    Journal`), each resolution is also journaled as an ``R`` record so
    the next recovery does not re-raise the doubt.  Returns the list of
    (gtid, outcome) pairs resolved.
    """
    from ..storage.journal import install_batch

    resolved: list[tuple[str, str]] = []
    for gtid in sorted(db.in_doubt):
        outcome = decisions.get(gtid)
        if outcome is None:
            continue
        records = db.in_doubt.pop(gtid)
        if outcome == "commit":
            # Recovery seats the allocator above every journaled UID,
            # including in-doubt ones, so no re-seat is needed here.
            install_batch(db, records)
            db.topology_reset()
        if journal is not None:
            journal.resolve_prepared(gtid, outcome == "commit")
        resolved.append((gtid, outcome))
    return resolved


def presume_abort(db: Any, journal: Any = None) -> list[tuple[str, str]]:
    """Abort every remaining in-doubt batch (presumed abort).

    Only safe once the coordinator can no longer decide commit for
    these gtids — offline analysis of a dead cluster, or a live worker
    whose grace period for the router expired.
    """
    resolved: list[tuple[str, str]] = []
    for gtid in sorted(db.in_doubt):
        db.in_doubt.pop(gtid)
        if journal is not None:
            journal.resolve_prepared(gtid, False)
        resolved.append((gtid, "abort"))
    return resolved
