"""The shard router: one wire-protocol front door for a sharded cluster.

Clients speak the ordinary :mod:`repro.server.protocol` to the router —
the same :class:`repro.server.client.Client` works unchanged — and the
router forwards each op as the route column of its
:data:`~repro.server.protocol.WIRE_OPS` row says:

* **UID-carrying ops** (``resolve``, ``set_value``, ``delete``, ...)
  go to the shard named by the UID's stride
  (:func:`repro.shard.placement.shard_of_uid`): no catalog lookup.
  These relay on a **raw-frame fast path**: the client's frame is
  forwarded upstream verbatim (its request id included), and the
  worker's response payload is spliced back byte-for-byte — the router
  decodes requests to route them but never re-encodes either side.
* **``make``** goes to the shard of its composite parents (``parents=``)
  or composite components (``values=``) — composite locality, in either
  construction order — then to the shard of its weak references (a
  worker validates UID domains locally, so references must resolve on
  the owning shard), and only then to the manifest's placement policy.
  Anchors on different shards are refused with a typed error.
* **``make_class``** broadcasts — schema must exist cluster-wide; the
  router keeps ``login``'s user and logs every upstream in as it.
* **``instances_of``** scatters to every shard and unions the extents;
  ``check`` scatters and returns per-shard reports.
* **``query``** is refused: the s-expression interpreter runs against
  one shard's database and cannot see the others.

Transactions are router-managed.  ``begin`` assigns a global transaction
id and enlists shards lazily (an upstream ``begin`` the first time an op
inside the scope touches a shard).  ``commit`` then picks the cheapest
safe protocol for what the transaction actually touched:

* **0 shards** — nothing to do, acknowledge.
* **1 shard** — forward the plain ``commit``: the single participant's
  journal makes it atomic and durable on its own (the fast path; with
  composite-aware placement this is the common case).
* **N shards** — two-phase commit: ``prepare`` on every participant
  (each seals a durable ``P``-marked journal batch), the decision is
  fsynced into the coordinator log *before* any participant hears it,
  then ``decide`` commits/aborts each shard.  See
  :mod:`repro.shard.twopc` and docs/SHARDING.md for the recovery
  matrix.

Each client session gets its own dedicated upstream connection per
shard, opened on first use and re-opened (with a fresh handshake and
``login``) when a worker restarts — endpoints are re-read from the
workers' published ``endpoint.json`` files on every connect, so a
worker that comes back on a new ephemeral port is found automatically.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import itertools
import uuid
from dataclasses import dataclass
from pathlib import Path

from ..core.identity import UID
from ..errors import (
    DeadlockError,
    ShardError,
    ShardUnavailableError,
    TransactionStateError,
)
from ..server.client import RETRYABLE_OPS, AsyncClient
from ..server.protocol import (
    BROADCAST,
    PLACE,
    ROUTER,
    SCATTER,
    SHARD_0,
    SHARD_OF,
    VERSION,
    WIRE_OPS,
    ProtocolError,
    decode_payload,
    frame_bytes,
    is_error_payload,
    key_uid,
)
from ..server.server import Preframed, SessionStats, WireServer
from .placement import Manifest, make_policy, read_endpoint, shard_of_uid
from .twopc import CoordinatorLog, fire_or_die

def _uids_in(value):
    """The UIDs carried by one attribute value (single or set-valued)."""
    if isinstance(value, UID):
        return [value]
    if isinstance(value, (list, tuple, set)):
        return [item for item in value if isinstance(item, UID)]
    return []


def _unavailable(shard_id, error=None, note=""):
    message = f"shard {shard_id} is unavailable"
    if error is not None:
        message += f" ({error})"
    if note:
        message += f"; {note}"
    exc = ShardUnavailableError(message)
    exc.shard = shard_id
    return exc


@dataclass
class RouterStats:
    """Counters for one router (the ``stats`` op's ``router`` row)."""

    sessions_opened: int = 0
    sessions_closed: int = 0
    requests: int = 0
    errors: int = 0
    relays: int = 0
    broadcasts: int = 0
    scatters: int = 0
    trivial_commits: int = 0
    fast_commits: int = 0
    twopc_commits: int = 0
    twopc_aborts: int = 0
    upstream_connects: int = 0
    retried_reads: int = 0
    raw_relays: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    pipelined_batches: int = 0
    pipelined_requests: int = 0

    def row(self):
        return dataclasses.asdict(self)


class _Upstream(AsyncClient):
    """One dedicated connection from one router session to one shard.

    Dedicated means sequential: the session's ops relay one at a time,
    so request ids pair trivially and the worker-side session state
    (user, open transaction) belongs to exactly one client.
    """

    async def relay_raw(self, raw):
        """Forward a client's raw request payload verbatim; return the raw
        response payload.

        This is the relay fast path: the worker's response carries the
        client's own request id, so the payload can be spliced straight
        back to the client with no decode/re-encode — the router's
        codec work per relayed op drops to the request-side routing
        decode.  Error responses — recognized by
        :func:`repro.server.protocol.is_error_payload`, which keys on
        the frame's kind byte — are decoded and raised typed, so
        transaction cleanup sees the same exceptions as the slow path.
        """
        payload = await self._exchange(frame_bytes(raw))
        if is_error_payload(payload):
            self._frame_result(decode_payload(VERSION, payload))
        return payload


class _RouterSession:
    """One client connection's routing state."""

    def __init__(self, session_id, peer):
        self.session_id = session_id
        self.peer = peer
        self.user = None
        self.stats = SessionStats()
        #: The session loop's durability flags; routing never sets
        #: ``sync_pending`` (each worker acks its own commits durably).
        self.defer_sync = False
        self.sync_pending = False
        #: shard_id -> _Upstream, opened lazily.
        self.upstreams = {}
        self.in_txn = False
        self.gtid = None
        #: Shards where this transaction has an open upstream ``begin``.
        self.touched = set()


class ShardRouter(WireServer):
    """A :class:`WireServer` routing each request to the shard workers.

    Parameters
    ----------
    root:
        The cluster directory (holds ``manifest.json``, ``coord.log``,
        and one subdirectory per shard).
    host, port:
        Bind address for clients; port 0 picks a free port.
    manifest:
        Pre-loaded :class:`~repro.shard.placement.Manifest`; loaded from
        *root* when omitted.
    connect_timeout:
        How long one upstream connect keeps retrying (re-reading the
        worker's published endpoint) before the shard is declared
        unavailable.  Covers a worker mid-restart.
    """

    name = "repro-router"

    def __init__(self, root, host="127.0.0.1", port=0, manifest=None,
                 connect_timeout=10.0):
        super().__init__(host, port)
        self.root = Path(root)
        self.manifest = (
            manifest if manifest is not None else Manifest.load(self.root)
        )
        self.shards = self.manifest.shards
        self.connect_timeout = connect_timeout
        self.coord = CoordinatorLog.in_root(self.root)
        self.policy = make_policy(self.manifest.policy, self.shards)
        self.stats = RouterStats()
        #: Gtids are unique across router restarts: fresh random boot id
        #: plus a per-boot sequence.  A restarted router never reuses an
        #: old gtid, so the coordinator log needs no compaction fences.
        self._boot = uuid.uuid4().hex[:8]
        self._gtid_seq = itertools.count(1)
        #: class name -> frozenset of composite attribute names, learnt
        #: lazily from ``describe`` (covers schema that predates this
        #: router).  Never stale: the lattice refuses a redefinition.
        self._composite_attrs = {}

    # -- lifecycle --------------------------------------------------------

    async def start(self):
        """Reconcile leftover 2PC state, then bind and accept clients."""
        await self.reconcile()
        return await super().start()

    async def reconcile(self):
        """Resolve transactions a previous coordinator left in doubt.

        Every reachable worker reports the gtids it still holds prepared
        (parked or journaled); each is decided with the logged outcome,
        or **abort** when the log has none — an unlogged decision never
        reached the 2PC commit point, so presumed abort is exact.  The
        abort is logged first so workers polling the log converge even
        if delivering the decision here fails.  Unreachable workers are
        skipped: they run the same resolution against the log when they
        restart (see ``repro.shard.worker``).
        """
        decisions = self.coord.load()
        for shard_id in range(self.shards):
            try:
                upstream = await self._connect(shard_id, quick=True)
            except ShardUnavailableError:
                continue
            try:
                pending = await upstream.call("indoubt")
                gtids = set(pending.get("parked", ()))
                gtids.update(pending.get("journal", ()))
                for gtid in sorted(gtids):
                    outcome = decisions.get(gtid)
                    if outcome is None:
                        self.coord.decide(gtid, "abort", shards=[shard_id])
                        decisions[gtid] = outcome = "abort"
                    with contextlib.suppress(Exception):
                        await upstream.call(
                            "decide", gtid=gtid, outcome=outcome
                        )
            except (ConnectionError, OSError, ProtocolError):
                continue
            finally:
                await upstream.close()

    # -- upstream connections ---------------------------------------------

    async def _connect(self, shard_id, user=None, quick=False):
        """Open and handshake a fresh upstream to *shard_id*.

        Re-reads the worker's published endpoint on every attempt, so a
        worker restarted on a new port is found as soon as it publishes.
        *quick* limits the patience to one second (reconciliation must
        not stall the router's start on a dead shard).
        """
        directory = self.manifest.shard_path(self.root, shard_id)
        loop = asyncio.get_running_loop()
        timeout = min(self.connect_timeout, 1.0) if quick \
            else self.connect_timeout
        deadline = loop.time() + timeout
        last = None
        while True:
            endpoint = read_endpoint(directory)
            if endpoint is not None:
                try:
                    upstream = await _Upstream(
                        endpoint["host"], endpoint["port"], user=user
                    ).connect()
                    self.stats.upstream_connects += 1
                    return upstream
                except (ConnectionError, OSError, ProtocolError) as error:
                    last = error
            if loop.time() >= deadline:
                raise _unavailable(
                    shard_id, last,
                    note="" if last is not None else "no endpoint published",
                )
            await asyncio.sleep(0.05)

    async def _upstream(self, sess, shard_id):
        upstream = sess.upstreams.get(shard_id)
        if upstream is None:
            upstream = await self._connect(shard_id, user=sess.user)
            sess.upstreams[shard_id] = upstream
        return upstream

    async def _drop_upstream(self, sess, shard_id):
        upstream = sess.upstreams.pop(shard_id, None)
        if upstream is not None:
            await upstream.close()

    # -- routing ----------------------------------------------------------

    async def _route(self, sess, op, args, raw=None):
        row = WIRE_OPS.get(op)
        if row is None:
            raise ProtocolError(f"unknown op {op!r}")
        route = row.route
        if route == SHARD_OF:
            shard_id = shard_of_uid(key_uid(op, row, args), self.shards)
            if row.colocated:
                self._check_colocated(op, args, row, shard_id)
            return await self._relay(sess, shard_id, op, args, raw=raw)
        if route == ROUTER or route == SCATTER:
            return await self._OWN_OPS[op](self, sess, args)
        if route == SHARD_0:
            return await self._relay(sess, 0, op, args, raw=raw)
        if route == PLACE:
            return await self._make(sess, args, raw=raw)
        if route == BROADCAST:
            return await self._broadcast(sess, op, args)
        raise ProtocolError(f"the shard router refuses {op!r}: {row.why}")

    #: The session loop's per-request handler.
    _request = _route

    def _check_colocated(self, op, args, row, shard_id):
        value = args[row.colocated]
        if shard_of_uid(value, self.shards) != shard_id:
            raise ShardError(
                f"{op!r} would link {value} across shards (it lives on "
                f"shard {shard_of_uid(value, self.shards)}, the {row.key} "
                f"on shard {shard_id}); composite hierarchies must stay "
                f"on one shard — create children with "
                f"make(..., parents=...) so placement co-locates them"
            )

    async def _make(self, sess, args, raw=None):
        parents = args.get("parents") or ()
        shards = set()
        for pair in parents:
            if not (isinstance(pair, (list, tuple)) and len(pair) == 2
                    and isinstance(pair[0], UID)):
                raise ProtocolError(
                    "'parents' must be a list of [uid, attribute] pairs"
                )
            shards.add(shard_of_uid(pair[0], self.shards))
        # UID references passed through values= anchor placement too.
        # Composite ones are hard constraints (the new object becomes
        # their parent, and a hierarchy lives whole on one shard); weak
        # ones must still *resolve* on whatever shard the object lands
        # on, because a worker validates UID domains against its local
        # store — so they decide placement when nothing stronger does.
        value_uids = {
            name: uids for name, value in (args.get("values") or {}).items()
            if (uids := _uids_in(value))
        }
        weak_shards = set()
        if value_uids:
            composite = await self._composite_attributes(
                args.get("class_name")
            )
            for name, uids in value_uids.items():
                owners = {shard_of_uid(uid, self.shards) for uid in uids}
                if name in composite:
                    shards.update(owners)
                else:
                    weak_shards.update(owners)
        if len(shards) > 1:
            raise ShardError(
                f"an object cannot be created with composite parents or "
                f"components on different shards {sorted(shards)}; a "
                f"hierarchy lives whole on its root's shard — create the "
                f"root first and attach parts top-down with "
                f"make(..., parents=[[root, attribute]])"
            )
        if shards:
            shard_id = shards.pop()
            strays = weak_shards - {shard_id}
        elif weak_shards:
            if len(weak_shards) > 1:
                strays = weak_shards
            else:
                shard_id = weak_shards.pop()
                strays = set()
        else:
            shard_id = self.policy.place_free(args.get("class_name"))
            strays = set()
        if strays:
            raise ShardError(
                f"the object would land on one shard but references "
                f"objects on shards {sorted(strays)}; references must "
                f"resolve on the owning shard — co-locate the referenced "
                f"objects or store the link from their side"
            )
        return await self._relay(sess, shard_id, "make", args, raw=raw)

    async def _composite_attributes(self, class_name):
        """Names of *class_name*'s composite attributes (cached).

        Learnt from a one-shot ``describe`` against shard 0 (schema is
        broadcast, so any worker knows it) on a dedicated connection —
        routing a make must not enlist shard 0 into the session's
        transaction.
        """
        cached = self._composite_attrs.get(class_name)
        if cached is None:
            upstream = await self._connect(0, quick=True)
            try:
                described = await upstream.call(
                    "describe", class_name=class_name
                )
            finally:
                await upstream.close()
            cached = frozenset(
                spec[1:].split(None, 1)[0]
                for spec in described.get("attributes", ())
                if isinstance(spec, str)
                and " :composite true" in spec.split(" :init ", 1)[0]
            )
            self._composite_attrs[class_name] = cached
        return cached

    async def _forward(self, upstream, op, args, raw):
        """One upstream exchange: raw splice when the client's frame can
        go through verbatim, decoded call otherwise."""
        if raw is not None:
            self.stats.raw_relays += 1
            return Preframed(frame_bytes(await upstream.relay_raw(raw)))
        return await upstream.call(op, **args)

    async def _relay(self, sess, shard_id, op, args, raw=None):
        """Forward one op to *shard_id* and return its result.

        With *raw* (the client's undecoded request frame) the exchange
        is a byte splice — see :meth:`_Upstream.relay_raw` — and the
        return value is a :class:`Preframed` response frame; internal
        callers (broadcast, scatter, commit) omit *raw* and get decoded
        results.

        Inside an explicit transaction the shard is enlisted first (a
        lazy upstream ``begin``).  A deadlock abort on one shard has
        already rolled that shard back, so the router aborts the rest of
        the distributed transaction before re-raising — same contract as
        a single server, where the victim's whole transaction is gone.
        A dead worker mid-transaction likewise aborts everywhere: its
        strict-2PL state died with it.
        """
        self.stats.relays += 1
        if sess.in_txn:
            try:
                upstream = await self._upstream(sess, shard_id)
                if shard_id not in sess.touched:
                    await upstream.call("begin")
                    sess.touched.add(shard_id)
                return await self._forward(upstream, op, args, raw)
            except DeadlockError:
                sess.touched.discard(shard_id)
                await self._abort_touched(sess)
                sess.in_txn = False
                sess.gtid = None
                raise
            except (ConnectionError, OSError) as error:
                await self._drop_upstream(sess, shard_id)
                sess.touched.discard(shard_id)
                await self._abort_touched(sess)
                sess.in_txn = False
                sess.gtid = None
                raise _unavailable(
                    shard_id, error,
                    note="the transaction is aborted; retry the scope",
                ) from None
        try:
            upstream = await self._upstream(sess, shard_id)
            return await self._forward(upstream, op, args, raw)
        except (ConnectionError, OSError) as error:
            await self._drop_upstream(sess, shard_id)
            if op in RETRYABLE_OPS:
                # Reads are safe to re-send on a fresh connection (the
                # worker may have restarted on a new port meanwhile).
                self.stats.retried_reads += 1
                upstream = await self._upstream(sess, shard_id)
                return await self._forward(upstream, op, args, raw)
            raise _unavailable(
                shard_id, error,
                note=f"{op!r} may have executed before the connection "
                     f"died — verify before retrying",
            ) from None

    async def _login(self, sess, args):
        user = args.get("user")
        if not user:
            raise ProtocolError("missing argument(s): user")
        sess.user = user
        for shard_id in sorted(sess.upstreams):
            with contextlib.suppress(ConnectionError, OSError):
                await sess.upstreams[shard_id].call("login", user=user)
        return {"user": user}

    async def _broadcast(self, sess, op, args):
        """Run *op* on every shard (DDL must exist cluster-wide)."""
        self.stats.broadcasts += 1
        result = None
        for shard_id in range(self.shards):
            result = await self._relay(sess, shard_id, op, args)
        return result

    async def _scatter_instances(self, sess, args):
        self.stats.scatters += 1
        members = []
        for shard_id in range(self.shards):
            members.extend(
                await self._relay(sess, shard_id, "instances_of", args)
            )
        # UID order is allocation order, which interleaves round-robin
        # across strides — sort to match a single server's extent scan.
        members.sort(key=lambda uid: uid.number)
        return members

    async def _scatter_check(self, sess, args):
        self.stats.scatters += 1
        reports = {}
        for shard_id in range(self.shards):
            reports[f"shard-{shard_id:02d}"] = await self._relay(
                sess, shard_id, "check", args
            )
        reports["ok"] = all(
            report.get("ok", False) for report in reports.values()
        )
        return reports

    async def _scatter_read_epoch(self, sess, args):
        """Every shard's commit epoch; ``epoch`` is the minimum.

        Epochs count each shard's *own* sealed journal batches, so they
        are only comparable per shard — a snapshot token from
        ``snapshot_read`` pins reads on the one shard that issued it.
        The minimum is the conservative cluster-wide bound a client can
        use as a freshness floor (``min_epoch``) against any shard.
        """
        self.stats.scatters += 1
        shards = {}
        for shard_id in range(self.shards):
            shards[f"shard-{shard_id:02d}"] = await self._relay(
                sess, shard_id, "read_epoch", args
            )
        epochs = [row.get("epoch", 0) for row in shards.values()]
        return {
            "epoch": min(epochs) if epochs else 0,
            "mvcc": all(row.get("mvcc", False) for row in shards.values()),
            "shards": shards,
        }

    async def _ping(self, sess, args):
        return "pong"

    async def _whoami(self, sess, args):
        return {"user": sess.user, "session": sess.session_id,
                "txn": sess.gtid}

    async def _stats(self, sess, args):
        row = self.stats.row()
        row["decisions_logged"] = self.coord.decisions_logged
        return {
            "router": row,
            "cluster": {
                "shards": self.shards,
                "policy": self.manifest.policy,
                "sync_policy": self.manifest.sync_policy,
            },
        }

    # -- transactions ------------------------------------------------------

    async def _begin(self, sess, args):
        if sess.in_txn:
            raise TransactionStateError(
                f"session already has active transaction {sess.gtid!r}; "
                f"commit or abort it first"
            )
        sess.in_txn = True
        sess.gtid = f"g{self._boot}-{next(self._gtid_seq)}"
        sess.touched.clear()
        return {"txn": sess.gtid}

    async def _abort(self, sess, args):
        if not sess.in_txn:
            raise TransactionStateError("no transaction to abort")
        gtid, sess.gtid = sess.gtid, None
        sess.in_txn = False
        await self._abort_touched(sess)
        return {"txn": gtid}

    async def _abort_touched(self, sess):
        """Abort the open upstream transactions (best effort: a dead
        worker's transaction dies with its session anyway)."""
        for shard_id in sorted(sess.touched):
            upstream = sess.upstreams.get(shard_id)
            if upstream is None:
                continue
            try:
                await upstream.call("abort")
            except Exception:
                await self._drop_upstream(sess, shard_id)
        sess.touched.clear()

    async def _commit(self, sess, args):
        if not sess.in_txn:
            raise TransactionStateError("no transaction to commit")
        gtid, sess.gtid = sess.gtid, None
        sess.in_txn = False
        touched = sorted(sess.touched)
        sess.touched.clear()
        if not touched:
            self.stats.trivial_commits += 1
            return {"txn": gtid, "shards": [], "mode": "trivial"}
        if len(touched) == 1:
            shard_id = touched[0]
            try:
                await sess.upstreams[shard_id].call("commit")
            except (ConnectionError, OSError) as error:
                await self._drop_upstream(sess, shard_id)
                raise _unavailable(
                    shard_id, error,
                    note="commit outcome unknown — check after the worker "
                         "recovers",
                ) from None
            self.stats.fast_commits += 1
            return {"txn": gtid, "shards": touched, "mode": "single"}
        return await self._commit_2pc(sess, gtid, touched)

    async def _commit_2pc(self, sess, gtid, touched):
        """Two-phase commit across *touched* shards.

        Any phase-1 failure decides abort.  The decision — either way —
        is fsynced into the coordinator log before any participant is
        told: shards whose prepare crashed mid-flight may hold a durable
        ``P`` record this router never saw a vote for, and their
        recovery resolves against the log.
        """
        votes = {}
        cause = None
        for shard_id in touched:
            upstream = sess.upstreams.get(shard_id)
            try:
                if upstream is None:
                    raise _unavailable(shard_id, note="upstream lost")
                result = await upstream.call("prepare", gtid=gtid)
                votes[shard_id] = result.get("vote", "yes")
            except (ConnectionError, OSError) as error:
                await self._drop_upstream(sess, shard_id)
                cause = _unavailable(
                    shard_id, error, note=f"prepare of {gtid!r} failed"
                )
                break
            except Exception as error:
                cause = error
                break
        outcome = "commit" if cause is None else "abort"
        self.coord.decide(gtid, outcome, shards=touched)
        if outcome == "commit":
            self.stats.twopc_commits += 1
        else:
            self.stats.twopc_aborts += 1
        for shard_id in touched:
            upstream = sess.upstreams.get(shard_id)
            if upstream is None:
                # Its worker (or connection) is gone: the parked-txn
                # poller or recovery resolves it against the log.
                continue
            fire_or_die(
                "coord.send_decide", gtid=gtid, shard=shard_id,
                outcome=outcome,
            )
            try:
                if shard_id in votes:
                    await upstream.call(
                        "decide", gtid=gtid, outcome=outcome
                    )
                else:
                    # Never voted, so never prepared: a plain abort
                    # releases its still-active transaction.
                    await upstream.call("abort")
            except Exception:
                await self._drop_upstream(sess, shard_id)
        if cause is not None:
            raise cause
        return {"txn": gtid, "shards": touched, "mode": "2pc"}

    #: The ``router`` and ``scatter`` rows of ``WIRE_OPS``, each to the
    #: method answering it.
    _OWN_OPS = {
        "ping": _ping,
        "login": _login,
        "whoami": _whoami,
        "stats": _stats,
        "instances_of": _scatter_instances,
        "read_epoch": _scatter_read_epoch,
        "begin": _begin,
        "commit": _commit,
        "abort": _abort,
        "check": _scatter_check,
    }

    # -- session hooks ----------------------------------------------------

    def _open_session(self, session_id, peer):
        return _RouterSession(session_id, peer)

    def _hello_fields(self):
        return {"shards": self.shards}

    async def _close_session(self, sess):
        """Abort any open distributed transaction, drop the upstreams.

        Closing an upstream mid-2PC is safe: a worker whose session dies
        while *prepared* parks the transaction (locks held) and resolves
        it from the coordinator log — see ``Session.close`` in
        :mod:`repro.server.server`.
        """
        if sess.in_txn:
            sess.in_txn = False
            sess.gtid = None
            with contextlib.suppress(Exception):
                await self._abort_touched(sess)
        for shard_id in list(sess.upstreams):
            await self._drop_upstream(sess, shard_id)
