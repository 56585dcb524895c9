"""The server's command table.

Each wire ``op`` maps to an async handler ``handler(session, args)``.
Handlers are responsible for three things, in order:

1. **authorization** — when the server carries an
   :class:`repro.authorization.engine.AuthorizationEngine`, the session's
   user must hold the operation's authorization type on the target
   object(s) (composite coverage included, paper Section 6);
2. **locking** — the Section 7 composite protocol's plan for the access
   is acquired *asynchronously* through the server's lock service, so a
   conflicting client waits (or aborts on deadlock) instead of failing;
3. **the operation** — applied through the session's transaction via the
   :class:`repro.txn.manager.TransactionManager`, so every change is
   undo-logged and strict-2PL holds to commit/abort.

A data op outside an explicit ``begin``/``commit`` scope auto-commits as
one step: a single atomic ``Database`` operation, run at once when its
lock plan is free and otherwise once a bare lock owner holds the plan
(:meth:`repro.server.server.Session.run`, which every data op goes
through).
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from ..core import operations as ops
from ..errors import ReadOnlyError, TransactionStateError
from ..locking.modes import LockMode
from ..schema.attribute import AttributeSpec
from .protocol import (
    WIRE_OPS,
    PreEncoded,
    ProtocolError,
    key_uid,
    wire_lenient,
)

#: Authorization types the engine understands (see authorization/atoms.py).
READ, WRITE = "R", "W"

#: Ops rejected while the server is degraded to read-only mode (the
#: journal failed persistently; see ``ReproServer._note_journal_failure``):
#: the ``write`` rows of :data:`WIRE_OPS`.  ``txn`` ops stay allowed so a
#: client caught mid-transaction can still resolve its scope (the commit
#: itself fails with a typed StorageError if it journals anything).
MUTATING_OPS = frozenset(
    op for op, row in WIRE_OPS.items() if row.effect == "write"
)


def _require(args, *names):
    missing = [name for name in names if name not in args]
    if missing:
        raise ProtocolError(f"missing argument(s): {', '.join(missing)}")
    return [args[name] for name in names]


def _attribute_spec(item):
    """Build an :class:`AttributeSpec` from its wire form (a dict)."""
    if isinstance(item, AttributeSpec):
        return item
    if not isinstance(item, dict):
        raise ProtocolError(f"attribute spec must be an object, got {item!r}")
    try:
        return AttributeSpec(**item)
    except TypeError as error:
        raise ProtocolError(f"bad attribute spec: {error}") from None


def _snapshot(db, instance):
    """An instance's wire view: identity, class, and attribute values."""
    classdef = db.lattice.get(instance.class_name)
    values = {}
    for spec in classdef.attributes():
        value = instance.get(spec.name)
        if spec.is_set and value is None:
            value = []
        values[spec.name] = list(value) if isinstance(value, list) else value
    return {
        "uid": instance.uid,
        "class": instance.class_name,
        "values": values,
    }


# ---------------------------------------------------------------------------
# Handlers
# ---------------------------------------------------------------------------


async def _op_ping(session, args):
    return "pong"


async def _op_login(session, args):
    (user,) = _require(args, "user")
    session.user = user
    return {"user": user}


async def _op_whoami(session, args):
    return {"user": session.user, "session": session.session_id,
            "txn": session.txn.txn_id if session.txn is not None else None}


async def _op_stats(session, args):
    return session.server.describe_stats(session)


async def _op_make_class(session, args):
    (name,) = _require(args, "name")
    specs = [_attribute_spec(item) for item in args.get("attributes", ())]
    session.server.db.make_class(
        name,
        superclasses=tuple(args.get("superclasses", ())),
        attributes=specs,
        versionable=bool(args.get("versionable", False)),
        segment=args.get("segment", ""),
        document=args.get("document", ""),
    )
    return {"class": name}


async def _op_describe(session, args):
    (name,) = _require(args, "class_name")
    classdef = session.server.db.classdef(name)
    return {
        "class": classdef.name,
        "superclasses": list(classdef.superclasses),
        "attributes": [spec.describe() for spec in classdef.attributes()],
    }


async def _op_make(session, args):
    (class_name,) = _require(args, "class_name")
    values = args.get("values") or {}
    parents = [tuple(pair) for pair in args.get("parents", ())]
    for parent_uid, _attribute in parents:
        session.authorize(WRITE, parent_uid)
    # The write plan of each parent, and the class step of the new object.
    return await session.run(
        _make, (class_name, values, parents),
        [parent_uid for parent_uid, _attribute in parents], "write",
        class_name=class_name,
    )


def _make(session, tm, txn, args):
    class_name, values, parents = args
    return tm.make(txn, class_name, values=values, parents=parents)


def _resolve(session, tm, txn, args):
    uid = args["uid"]
    db = session.server.db
    instance = db.resolve(uid)
    if db.on_read:
        # Guarded: an unobserved resolve, the hottest wire read, enters
        # no txn_context and makes no hook call.
        with db.txn_context(txn):
            db.note_reads((uid,))
    cache = session.server.image_cache
    if cache is not None:
        # The journal already fingerprints every persisted image for
        # write dedup; an unchanged object's wire snapshot is byte-
        # identical, so encode it once and splice the cached bytes.
        # The key carries the class's attribute shape: a schema
        # change alters the snapshot without touching the image.
        digest = session.server.journal.image_digest(uid)
        if digest is not None:
            classdef = db.lattice.get(instance.class_name)
            key = (digest, tuple(
                (spec.name, bool(spec.is_set))
                for spec in classdef.attributes()
            ))
            encoded = cache.get(key)
            if encoded is None:
                encoded = PreEncoded(_snapshot(db, instance))
                cache.put(key, encoded)
            return encoded
    return _snapshot(db, instance)


def _value(session, tm, txn, args):
    # The manager reads a snapshot transaction's value at its epoch.
    return tm.read(txn, args["uid"], args["attribute"])


def _set_value(session, tm, txn, args):
    tm.write(txn, args["uid"], args["attribute"], args.get("value"))
    return True


def _insert_into(session, tm, txn, args):
    return tm.insert(txn, args["uid"], args["attribute"], args["member"])


def _remove_from(session, tm, txn, args):
    return tm.remove(txn, args["uid"], args["attribute"], args["member"])


def _parent_spec(db, parent_uid, attribute):
    parent = db.resolve(parent_uid)
    classdef = db.lattice.get(parent.class_name)
    return classdef.attribute(attribute)


def _make_part_of(session, tm, txn, args):
    child, parent, attribute = args["child"], args["parent"], args["attribute"]
    if _parent_spec(session.server.db, parent, attribute).is_set:
        return tm.insert(txn, parent, attribute, child)
    tm.write(txn, parent, attribute, child)
    return True


def _remove_part_of(session, tm, txn, args):
    child, parent, attribute = args["child"], args["parent"], args["attribute"]
    db = session.server.db
    if _parent_spec(db, parent, attribute).is_set:
        return tm.remove(txn, parent, attribute, child)
    if db.resolve(parent).get(attribute) != child:
        return False
    tm.write(txn, parent, attribute, None)
    return True


def _delete(session, tm, txn, args):
    report = tm.delete(txn, args["uid"])
    return {
        "deleted": list(report.deleted),
        "preserved_independent": list(report.preserved_independent),
        "preserved_shared": list(report.preserved_shared),
    }


def _components_of(session, tm, txn, args):
    db = session.server.db
    # txn_context so observers (the isolation-history recorder)
    # attribute the traversal's reads to this transaction.
    with db.txn_context(txn):
        return db.components_of(
            args["uid"],
            classes=args.get("classes"),
            exclusive=bool(args.get("exclusive", False)),
            shared=bool(args.get("shared", False)),
            level=args.get("level"),
        )


def _navigate(method):
    """The body of a navigation read: ``Database.<method>(uid)``."""
    def body(session, tm, txn, args):
        db = session.server.db
        # txn_context so observers (the isolation-history recorder)
        # attribute the reads the method reports to this transaction.
        with db.txn_context(txn):
            return getattr(db, method)(args["uid"])

    return body


def _data_op(body, intent, required, key, composite, snapshot):
    auth_type = READ if intent == "read" else WRITE

    async def handler(session, args):
        _require(args, *required)
        uid = args[key]
        session.authorize(auth_type, uid)
        return await session.run(
            body, args, (uid,), intent, composite, snapshot
        )

    return handler


def _read_op(body, composite=False, snapshot=False, required=()):
    """A read op: ``body(session, tm, txn, args)`` reads ``args["uid"]``
    under the Section 7 read plan -- the composite plan when
    *composite*, else the instance plan -- behind the one wrapper every
    data op shares.

    The wrapper checks the arguments (``uid`` and *required*) and
    authorizes; :meth:`Session.run` then runs the body in one step (with
    *txn* None) when the request has no explicit transaction, otherwise
    in that transaction once the plan is held.  With *snapshot*, a
    snapshot transaction's read takes no locks (the transaction
    manager's ``reads_snapshot``)."""
    return _data_op(body, "read", ("uid", *required), "uid", composite,
                    snapshot)


def _write_op(body, required=("uid",), key="uid", composite=False):
    """A write op: ``body(session, tm, txn, args)`` writes ``args[key]``
    under the Section 7 write plan -- the composite plan when
    *composite*, else the instance plan -- through *tm*, the transaction
    manager's data ops, behind the same wrapper as :func:`_read_op`."""
    return _data_op(body, "write", required, key, composite, False)


async def _lock_ancestry(session, txn, args):
    """S on ``args["uid"]`` and on every ancestor the upward walk reads.
    A parent may link a new ancestor in while a lock is awaited, so walk
    again until a walk finds every ancestor it read locked."""
    uid = args["uid"]
    await session.lock_instance(txn, uid, "read")
    db = session.server.db
    locked = {uid}
    while True:
        read = []
        ops.ancestors_of(db, uid, read=read)
        fresh = [ancestor for ancestor in read if ancestor not in locked]
        if not fresh:
            return
        for ancestor in fresh:
            await session.lock_instance(txn, ancestor, "read")
            locked.add(ancestor)


def _ancestry(method):
    """``ancestors_of`` / ``roots_of``: their footprint is found while
    locking (:func:`_lock_ancestry`), so they always take locks."""
    body = _navigate(method)

    async def handler(session, args):
        (uid,) = _require(args, "uid")
        session.authorize(READ, uid)
        return await session.run(body, args, lock=_lock_ancestry)

    return handler


async def _lock_extent(session, txn, args):
    # An extent scan reads every instance of the class: S on the class
    # (conflicts with any writer's IX) is the right single granule.
    session.stats.lock_waits += await session.server.locks.acquire_plan(
        txn, ((("class", args["class_name"]), LockMode.S),)
    )


def _instances_of(session, tm, txn, args):
    server = session.server
    instances = server.db.instances_of(
        args["class_name"],
        include_subclasses=bool(args.get("include_subclasses", True)),
    )
    if server.auth is not None:
        instances = [
            inst for inst in instances
            if server.auth.check(session.user, READ, inst.uid)
        ]
    return [inst.uid for inst in instances]


async def _op_instances_of(session, args):
    _require(args, "class_name")
    return await session.run(_instances_of, args, lock=_lock_extent)


async def _op_query(session, args):
    (text,) = _require(args, "text")
    # The s-expression interpreter runs against the shared database with a
    # per-session environment (setq bindings survive across requests).
    # Query evaluation is read-oriented; data definition through it is
    # not undo-logged, so transactional clients should prefer the command
    # ops for updates (documented in docs/SERVER.md).  Results can carry
    # arbitrary library objects, whose wire contract is their readable
    # rendering — pre-lower them so the strict codec never refuses one.
    return wire_lenient(session.interpreter.run(text))


async def _op_begin(session, args):
    txn = session.begin(
        snapshot=bool(args.get("snapshot", False)),
        epoch=args.get("epoch"),
    )
    return {"txn": txn.txn_id, "snapshot_epoch": txn.snapshot_epoch}


# -- MVCC snapshot reads (docs/REPLICATION.md) ------------------------------


def _snapshot_manager(session):
    manager = session.server.db.snapshot_manager
    if manager is None:
        raise ProtocolError(
            "this server has no snapshot manager (started with mvcc=False); "
            "snapshot reads need one"
        )
    return manager


async def _op_snapshot_read(session, args):
    """Read one attribute from the version chain at a commit epoch.

    Lock-free: the read never waits behind a writer's X-lock.  With no
    ``epoch`` argument it reads at the newest committed epoch and
    returns it — the client can pin later reads to that token for a
    cross-request consistent view.  ``min_epoch`` bounds staleness on a
    replica: when the server has not yet applied that epoch the read
    fails with :class:`repro.errors.ReplicaLagError` instead of
    serving older data (the client falls back to the primary).
    """
    from ..errors import ReplicaLagError

    uid, attribute = _require(args, "uid", "attribute")
    session.authorize(READ, uid)
    manager = _snapshot_manager(session)
    current = manager.current_epoch
    epoch = args.get("epoch")
    min_epoch = args.get("min_epoch")
    floor = current if min_epoch is None else max(int(min_epoch), 0)
    if epoch is not None:
        floor = max(floor, int(epoch))
    if floor > current:
        raise ReplicaLagError(
            f"server has applied epoch {current}, epoch {floor} was "
            f"required",
            applied_epoch=current, min_epoch=floor,
        )
    at = current if epoch is None else int(epoch)
    return await session.run(_snapshot_read, (manager, uid, attribute, at))


def _snapshot_read(session, tm, txn, args):
    manager, uid, attribute, at = args
    # txn_context (not a lock) so the history recorder attributes the
    # snapshot read to this transaction.
    with session.server.db.txn_context(txn):
        value = manager.read_at(uid, attribute, at)
    return {"value": value, "epoch": at}


async def _op_read_epoch(session, args):
    """The server's newest committed epoch, plus replication lag when
    this server is a replica — the router uses it to pick a read
    endpoint and clients use it as a snapshot token."""
    server = session.server
    db = server.db
    manager = db.snapshot_manager
    payload = {
        "epoch": int(getattr(db, "commit_epoch", 0)),
        "mvcc": manager is not None,
    }
    if manager is not None:
        payload["floor"] = manager.floor_epoch
    replica = getattr(server, "replica", None)
    if replica is not None:
        payload["replica"] = replica.lag_row()
    return payload


# -- two-phase commit (shard workers; docs/SHARDING.md) ---------------------


async def _op_prepare(session, args):
    """Phase 1: seal this shard's part of a cross-shard transaction.

    The journal writes the transaction's batch followed by a durable
    ``P`` record; the transaction stays open (locks held) until
    ``decide`` delivers the coordinator's outcome.  Votes ``"yes"``
    when a durable prepared batch exists, ``"ro"`` when this shard
    buffered nothing durable (read-only participant or in-memory
    worker) — either way the participant awaits the decision, which
    also releases its locks.
    """
    from ..shard.twopc import fire_or_die

    (gtid,) = _require(args, "gtid")
    if session.txn is None or not session.txn.active:
        raise TransactionStateError(
            "prepare requires an active explicit transaction"
        )
    if session.prepared_gtid is not None:
        raise TransactionStateError(
            f"transaction is already prepared as {session.prepared_gtid!r}"
        )
    server = session.server
    fire_or_die("twopc.prepare", gtid=gtid)
    durable = False
    journal = server.journal
    if journal is not None:
        durable = journal.prepare_txn(session.txn, gtid)
    session.prepared_gtid = gtid
    session.prepared_durable = durable
    fire_or_die("twopc.prepared", gtid=gtid)
    return {"vote": "yes" if durable else "ro", "gtid": gtid}


async def _op_decide(session, args):
    """Phase 2: apply the coordinator's decision for a prepared txn.

    Matches either this session's own prepared transaction or one
    *parked* on the server (the preparing session disconnected).  The
    journal's ``R`` record lands before the in-memory commit/abort, so
    a crash in between is resolved identically at recovery.
    """
    from ..shard.twopc import fire_or_die

    gtid, outcome = _require(args, "gtid", "outcome")
    if outcome not in ("commit", "abort"):
        raise ProtocolError(f"unknown 2PC outcome {outcome!r}")
    commit = outcome == "commit"
    server = session.server
    if session.prepared_gtid == gtid and session.txn is not None:
        fire_or_die("twopc.decide", gtid=gtid, outcome=outcome)
        txn, session.txn = session.txn, None
        session.prepared_gtid = None
        durable, session.prepared_durable = session.prepared_durable, False
        if durable and server.journal is not None:
            server.journal.resolve_prepared(gtid, commit)
        server.finish(txn, commit=commit)
        if commit:
            session.stats.commits += 1
        else:
            session.stats.aborts += 1
        fire_or_die("twopc.decided", gtid=gtid, outcome=outcome)
        return {"txn": txn.txn_id, "outcome": outcome}
    if gtid in server.parked:
        fire_or_die("twopc.decide", gtid=gtid, outcome=outcome)
        server.decide_parked(gtid, commit)
        fire_or_die("twopc.decided", gtid=gtid, outcome=outcome)
        return {"txn": None, "outcome": outcome}
    raise TransactionStateError(
        f"no prepared transaction {gtid!r} on this shard"
    )


async def _op_indoubt(session, args):
    """Gtids this worker holds prepared-but-undecided (router
    reconciliation: a restarted router decides each against its log)."""
    server = session.server
    journal = server.journal
    return {
        "parked": sorted(server.parked),
        "journal": journal.prepared_gtids if journal is not None else [],
    }


async def _op_commit(session, args):
    txn_id = session.commit()
    # Under the journal's group policy the commit's batch is sealed but
    # not yet fsynced; acknowledge only after the batch barrier's flush.
    session.durability_point()
    return {"txn": txn_id}


async def _op_abort(session, args):
    return {"txn": session.abort()}


def _check_query(db, args, _source):
    from ..analysis.query_check import check_query

    (text,) = _require(args, "text")
    return check_query(db.lattice, text)


def _check_code(db, args, _source):
    from ..analysis.codelint import lint_package

    return lint_package()


def _check_proto(db, args, _source):
    from ..analysis.proto_model import Scope
    from ..analysis.protocheck import audit_protocol

    return audit_protocol(Scope(workers=1, txns=1, max_crashes=1))[0]


def _check_placement(db, args, shard_info):
    from ..analysis.fsck import fsck_database

    return fsck_database(db, placement=shard_info)


def _check_iso(db, args, recorder):
    from ..analysis.isocheck import check_history

    return check_history(recorder.history)


class _CheckPlane(NamedTuple):
    #: ``run(db, args, source)`` -> a findings Report.
    run: Callable
    #: Whether ``"all"`` runs it.  The explicit-only planes are CPU work
    #: (a package lint, a model exploration) or need an argument.
    in_all: bool
    #: The server attribute passed as ``source`` (``""``: none).  It is
    #: None on a server started without it: ``"all"`` skips the plane.
    source: str = ""
    #: The ProtocolError text when the plane is named but its source is off.
    disabled: str = ""


#: The ``check`` op's planes, in reply order.
_CHECKS = {
    "fsck": _CheckPlane(lambda db, args, _: db.fsck(), True),
    "schema": _CheckPlane(lambda db, args, _: db.check_schema(), True),
    "query": _CheckPlane(_check_query, False),
    "lockdep": _CheckPlane(
        lambda db, args, recorder: recorder.analyze(), True, "lockdep",
        "lock-order recording is disabled on this server "
        "(started with lockdep=False)",
    ),
    "code": _CheckPlane(_check_code, False),
    "proto": _CheckPlane(_check_proto, False),
    "placement": _CheckPlane(
        _check_placement, True, "shard_info",
        "this server is not a shard worker (no shard_info); "
        "the placement plane needs one",
    ),
    "iso": _CheckPlane(
        _check_iso, True, "history",
        "transaction-history recording is disabled on this "
        "server (start it with record_history / --record-history)",
    ),
}

#: Plane names the ``check`` op accepts.  The drift test keeps this set
#: consistent with :data:`repro.analysis.findings.PLANES` and the
#: ``repro-check`` CLI.
CHECK_PLANES = frozenset(_CHECKS) | {"all"}


async def _op_check(session, args):
    """Audit the live database without taking it offline.

    ``plane`` names one row of :data:`_CHECKS`, or ``"all"`` (the
    default: every row marked ``in_all`` whose source is on — fsck +
    schema, lockdep and iso when recording, placement on a shard
    worker).  Findings come back in the shared JSON schema of
    :mod:`repro.analysis.findings`.  The audit only reads, so no locks
    are taken; a concurrent writer mid-transaction can surface transient
    findings — run inside an idle window (or a ``begin``/``commit``
    scope) for a stable answer.
    """
    plane = args.get("plane", "all")
    if plane not in CHECK_PLANES:
        raise ProtocolError(f"unknown check plane {plane!r}")
    server = session.server
    reports = {}
    for name, check in _CHECKS.items():
        if plane != name and not (plane == "all" and check.in_all):
            continue
        source = getattr(server, check.source) if check.source else None
        if check.source and source is None:
            if plane == name:
                raise ProtocolError(check.disabled)
            continue
        reports[name] = check.run(server.db, args, source).to_dict()
    reports["ok"] = all(report["ok"] for report in reports.values())
    return reports


COMMANDS = {
    "ping": _op_ping,
    "login": _op_login,
    "whoami": _op_whoami,
    "stats": _op_stats,
    "make_class": _op_make_class,
    "describe": _op_describe,
    "make": _op_make,
    "resolve": _read_op(_resolve),
    "value": _read_op(_value, snapshot=True, required=("attribute",)),
    "set_value": _write_op(_set_value, ("uid", "attribute")),
    "insert_into": _write_op(_insert_into, ("uid", "attribute", "member")),
    "remove_from": _write_op(_remove_from, ("uid", "attribute", "member")),
    "make_part_of": _write_op(
        _make_part_of, ("child", "parent", "attribute"), key="parent"),
    "remove_part_of": _write_op(
        _remove_part_of, ("child", "parent", "attribute"), key="parent"),
    # Deleting a composite deletes its dependent components too: the
    # composite write plan.
    "delete": _write_op(_delete, composite=True),
    "components_of": _read_op(_components_of, composite=True),
    # The children's whole objects are read: the composite read plan.
    "children_of": _read_op(_navigate("children_of"), composite=True),
    "parents_of": _read_op(_navigate("parents_of")),
    "ancestors_of": _ancestry("ancestors_of"),
    "roots_of": _ancestry("roots_of"),
    "instances_of": _op_instances_of,
    "query": _op_query,
    "snapshot_read": _op_snapshot_read,
    "read_epoch": _op_read_epoch,
    "begin": _op_begin,
    "commit": _op_commit,
    "abort": _op_abort,
    "prepare": _op_prepare,
    "decide": _op_decide,
    "indoubt": _op_indoubt,
    "check": _op_check,
}


async def dispatch(session, op, args):
    """Route one request to its handler."""
    handler = COMMANDS.get(op)
    if handler is None:
        raise ProtocolError(f"unknown op {op!r}")
    key_uid(op, WIRE_OPS[op], args)
    if op in MUTATING_OPS and session.server.read_only:
        reason = session.server.read_only_reason or (
            "server is read-only after a journal failure"
        )
        raise ReadOnlyError(
            f"{reason}; {op!r} was rejected (reads are still served)"
        )
    session.op = op
    return await handler(session, args)
