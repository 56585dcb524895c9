"""Client library: a blocking :class:`Client` and an :class:`AsyncClient`.

Both share the wire codec (:mod:`repro.server.protocol`) and the request
bookkeeping in :class:`_ClientCore`; they differ only in transport.  The
surface mirrors the :class:`repro.Database` API::

    with Client(port=server.port) as db:
        db.make_class("AutoBody")
        db.make_class("Vehicle", attributes=[
            {"name": "Body", "domain": "AutoBody", "composite": True}])
        body = db.make("AutoBody")
        vehicle = db.make("Vehicle", values={"Body": body})
        with db.transaction():
            db.set_value(vehicle, "Body", None)

Server-side errors surface as the *typed* exceptions of
:mod:`repro.errors` (a deadlock abort raises
:class:`repro.errors.DeadlockError` here, carrying victim and cycle ids).

The blocking client reconnects with exponential backoff when the
connection drops **between** requests — but never silently inside an open
transaction scope, whose server-side state (locks, undo log) died with
the connection; there it raises :class:`ConnectionError`.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import random
import socket
import time

from ..faults.registry import fire as _fire
from ..schema.attribute import AttributeSpec
from .protocol import (
    READ,
    RECV_BYTES,
    SUPPORTED_VERSIONS,
    TXN,
    VERSION,
    WIRE_OPS,
    FrameBuffer,
    ProtocolError,
    WireProtocol,
    build_error,
    decode_payload,
    encode_request_bytes,
)


#: Ops the blocking client may transparently re-send on a fresh
#: connection after a mid-call disconnect: the ``read`` rows of
#: :data:`WIRE_OPS` and the ``hello`` handshake.  Anything else may
#: already have executed server-side before the connection died —
#: re-sending would double-execute it, so it surfaces a ConnectionError.
RETRYABLE_OPS = frozenset(
    {"hello"} | {op for op, row in WIRE_OPS.items() if row.effect == READ}
)


def spec_to_wire(spec):
    """An attribute spec (or dict) as the dict the wire carries."""
    if isinstance(spec, AttributeSpec):
        # Not dataclasses.asdict: that would deep-convert a SetOf domain
        # into a plain {"member": ...} dict; the wire carries SetOf.
        return {
            f.name: getattr(spec, f.name)
            for f in dataclasses.fields(spec)
            if f.name != "defined_in"  # server-side bookkeeping
        }
    if isinstance(spec, dict):
        return dict(spec)
    raise TypeError(f"attribute spec must be AttributeSpec or dict: {spec!r}")


class _ClientCore:
    """Request building and response interpretation (transport-free)."""

    def __init__(self, user=None):
        self.user = user
        #: The version the server's hello answer named.
        self.protocol_version = None
        self.session_id = None
        self.pipeline_depth = 1
        self._next_id = 0
        self._in_transaction = False

    def _encode_request(self, op, args):
        self._next_id += 1
        return self._next_id, encode_request_bytes(
            VERSION, self._next_id, op, args
        )

    def _interpret(self, request_id, frame):
        if frame.get("id") != request_id:
            raise ProtocolError(
                f"response id {frame.get('id')!r} does not match request "
                f"{request_id}"
            )
        return self._frame_result(frame)

    def _frame_result(self, frame):
        """The (typed) result carried by one response frame."""
        if frame.get("ok"):
            return frame.get("result")
        raise build_error(frame.get("error") or {})

    def _hello_args(self):
        return {"versions": list(SUPPORTED_VERSIONS), "client": "repro-client"}

    def _note_hello(self, result):
        self.protocol_version = result["version"]
        self.session_id = result.get("session")
        self.pipeline_depth = result.get("pipeline", 1)


class Client(_ClientCore):
    """Blocking TCP client.

    Parameters
    ----------
    host, port:
        Server address.
    user:
        When given, ``login`` runs right after the handshake (and again
        after every reconnect).
    timeout:
        Socket timeout per response.  Lock waits on the server count
        against it, so keep it above the server's ``lock_wait_timeout``
        when contention is expected.
    max_retries, backoff, jitter:
        Reconnect-with-backoff policy for dropped connections: retry
        *n* sleeps up to ``backoff * 2**(n-1)`` seconds, shortened by a
        random fraction of ``jitter`` so a thundering herd of clients
        losing one server spreads its reconnects instead of retrying in
        lock-step.  ``max_retries=0`` disables reconnection;
        ``jitter=0`` makes the schedule exact.  Only the read/handshake
        ops in :data:`RETRYABLE_OPS` are re-sent after a *mid-call*
        disconnect; a mutating op that dies mid-call raises
        ConnectionError because it may already have executed
        server-side.
    rng:
        Randomness source for the jitter (a seeded
        :class:`random.Random` makes reconnect timing reproducible in
        tests).
    """

    def __init__(self, host="127.0.0.1", port=4957, user=None, timeout=60.0,
                 max_retries=5, backoff=0.05, jitter=0.5, rng=None):
        super().__init__(user=user)
        self.host = host
        self.port = port
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff = backoff
        self.jitter = jitter
        self._rng = rng if rng is not None else random.Random()
        self._sock = None
        self._frames = FrameBuffer()
        self.connect()

    # -- transport --------------------------------------------------------

    def connect(self):
        """(Re)establish the connection and run the handshake.

        A reconnect is a *new* server session: whatever version the old
        connection's hello named, whatever session id it held, and any
        open-transaction flag are stale — the server behind this address
        may even be a different process than last time (a shard router
        restarting a worker, a failover).  They are cleared before the
        handshake so nothing downstream trusts dead state if the
        handshake itself fails mid-way.
        """
        self.close()
        self.protocol_version = None
        self.session_id = None
        self._in_transaction = False
        self._sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        )
        self._note_hello(self._roundtrip("hello", self._hello_args()))
        if self.user is not None:
            self._roundtrip("login", {"user": self.user})

    def close(self):
        """Close the socket and drop whatever it left in the receive
        buffer: a reconnect must never parse a dead connection's bytes."""
        if self._sock is not None:
            with contextlib.suppress(OSError):
                self._sock.close()
            self._sock = None
        self._frames = FrameBuffer()

    def _send_bytes(self, data):
        _fire("client.send", client=self, size=len(data))
        self._sock.sendall(data)

    def _read_response(self):
        """The next response frame: one ``recv`` per refill of the
        receive buffer, none while a complete frame is already in it."""
        frames = self._frames
        batch = frames.take(1)
        while not batch:
            _fire("client.recv", client=self, size=RECV_BYTES)
            chunk = self._sock.recv(RECV_BYTES)
            if not chunk:
                raise ConnectionError("server closed the connection")
            frames.feed(chunk)
            batch = frames.take(1)
        return decode_payload(VERSION, batch[0])

    def _roundtrip(self, op, args):
        request_id, data = self._encode_request(op, args)
        self._send_bytes(data)
        return self._interpret(request_id, self._read_response())

    # -- calls ------------------------------------------------------------

    def call(self, op, **args):
        """One request/response cycle, reconnecting on a dead connection."""
        attempt = 0
        last_error = None
        while True:
            if self._sock is None:
                self._reconnect_or_raise(attempt, last_error)
                if self._sock is None:
                    # The connect failed but retries remain: go around
                    # again with a longer backoff instead of calling into
                    # a dead socket.
                    attempt += 1
                    continue
            try:
                return self._roundtrip(op, args)
            except (ConnectionError, OSError) as error:
                self._classify_loss(error, (op,), repr(op))
                last_error = error
                attempt += 1

    def _classify_loss(self, error, ops, label):
        """The one disconnect classifier, for :meth:`call` and
        :meth:`Pipeline.flush`: *error* ended the exchange of the
        requests *ops* (*label* in messages).  Closes the connection,
        then raises, or returns when the caller may reconnect and resend.

        A timeout raises TimeoutError: the request may still execute.  A
        loss inside a transaction raises, since its locks and undo state
        died with the connection.  A loss with any op outside
        :data:`RETRYABLE_OPS` in flight raises, since that op may have
        executed.
        """
        self.close()
        if isinstance(error, socket.timeout):
            self._in_transaction = False
            raise TimeoutError(
                f"no response to {label} within {self.timeout}s"
            ) from None
        if self._in_transaction:
            self._in_transaction = False
            raise ConnectionError(
                f"connection lost inside a transaction ({error}); "
                f"its locks and undo state are gone — retry the scope"
            ) from None
        risky = sorted({op for op in ops if op not in RETRYABLE_OPS})
        if risky:
            raise ConnectionError(
                f"connection lost during {label} ({error}); non-read "
                f"op(s) {risky} may have executed server-side — verify "
                f"before retrying"
            ) from None

    def _reconnect_or_raise(self, attempt, error=None):
        """Back off, then try one reconnect.

        Raises ConnectionError once *attempt* exhausts ``max_retries``.
        A failed connect with retries remaining returns with
        ``self._sock`` still None — the caller must increment its attempt
        count and come back, not use the socket.
        """
        if attempt > self.max_retries:
            raise ConnectionError(
                f"could not reach {self.host}:{self.port} after "
                f"{self.max_retries} retries"
            ) from error
        if attempt:
            delay = self.backoff * (2 ** (attempt - 1))
            if self.jitter:
                # "Decorrelated"-style full jitter below the exponential
                # cap: herds desynchronize, the worst case never grows.
                delay *= 1.0 - self.jitter * self._rng.random()
            time.sleep(delay)
        try:
            self.connect()
        except OSError as connect_error:
            self.close()
            if attempt >= self.max_retries:
                raise ConnectionError(
                    f"could not reach {self.host}:{self.port} after "
                    f"{self.max_retries} retries"
                ) from connect_error

    # -- conveniences -----------------------------------------------------

    def ping(self, timeout=1.0):
        """Cheap health probe under its *own* short deadline.

        The normal per-response ``self.timeout`` is sized for lock waits
        (tens of seconds); a health check against a wedged or partitioned
        server must fail in ~a second instead.  Raises
        :class:`TimeoutError` when no answer arrives in *timeout*
        seconds, ConnectionError/OSError when the server is unreachable;
        see :meth:`healthy` for the non-raising form.
        """
        if self._sock is None:
            self.connect()
        # call() owns the failure handling: a timeout closes the socket
        # (a stale pong must not mis-pair with the next request) and a
        # dead connection goes through normal retry classification.
        try:
            previous = self._sock.gettimeout()
            self._sock.settimeout(timeout)
        except OSError:
            # Socket closed under us: skip the deadline juggling and let
            # call() reconnect.
            return self.call("ping")
        try:
            return self.call("ping")
        finally:
            if self._sock is not None:
                try:
                    self._sock.settimeout(previous)
                except OSError:
                    pass

    def healthy(self, timeout=1.0):
        """True when the server answers :meth:`ping` within *timeout*."""
        try:
            return self.ping(timeout=timeout) == "pong"
        except (OSError, TimeoutError):
            return False

    def pipeline(self):
        """A :class:`Pipeline` batching requests on this connection."""
        return Pipeline(self)

    def login(self, user):
        result = self.call("login", user=user)
        self.user = user
        return result

    def make_class(self, name, superclasses=(), attributes=(), **kwargs):
        return self.call(
            "make_class",
            name=name,
            superclasses=list(superclasses),
            attributes=[spec_to_wire(spec) for spec in attributes],
            **kwargs,
        )

    def make(self, class_name, values=None, parents=(), **kw_values):
        merged = dict(values or {})
        merged.update(kw_values)
        return self.call(
            "make",
            class_name=class_name,
            values=merged,
            parents=[list(pair) for pair in parents],
        )

    def begin(self, snapshot=False, epoch=None):
        """Open an explicit transaction.

        ``snapshot=True`` makes it read lock-free at a fixed commit
        epoch (*epoch*, or the server's newest); its writes still lock
        and validate first-updater-wins (docs/REPLICATION.md).
        """
        args = {}
        if snapshot or epoch is not None:
            args = {"snapshot": True, "epoch": epoch}
        result = self.call("begin", **args)
        self._in_transaction = True
        return result["txn"]

    def commit(self):
        result = self.call("commit")
        self._in_transaction = False
        return result["txn"]

    def abort(self):
        result = self.call("abort")
        self._in_transaction = False
        return result["txn"]

    @contextlib.contextmanager
    def transaction(self, snapshot=False, epoch=None):
        """``begin`` on entry; ``commit`` on success, ``abort`` on error.

        A server-side deadlock abort (:class:`repro.errors.DeadlockError`)
        has already rolled the transaction back — the scope re-raises it
        without sending a redundant ``abort``.
        """
        self.begin(snapshot=snapshot, epoch=epoch)
        try:
            yield self
        except BaseException as error:
            if self._in_transaction:
                from ..errors import DeadlockError

                if isinstance(error, DeadlockError):
                    self._in_transaction = False
                else:
                    with contextlib.suppress(Exception):
                        self.abort()
            raise
        else:
            self.commit()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


class PipelineResult:
    """Placeholder for one pipelined response, filled in by ``flush``.

    ``result()`` returns the op's decoded result, or raises the typed
    server error that came back for *this* request — one failed request
    does not poison its batch-mates.
    """

    __slots__ = ("done", "_value", "_error")

    def __init__(self):
        self.done = False
        self._value = None
        self._error = None

    def _resolve(self, value=None, error=None):
        self._value = value
        self._error = error
        self.done = True

    def result(self):
        if not self.done:
            raise RuntimeError("pipeline not flushed yet")
        if self._error is not None:
            raise self._error
        return self._value


class Pipeline:
    """Request pipelining over a :class:`Client` connection.

    Queue any number of ops without waiting for responses, then
    ``flush()`` once: every request goes out back-to-back and the server
    executes them in order, batching their commit fsyncs through one
    group-commit window — that amortization is where the throughput
    multiple comes from.  Each queued call returns a
    :class:`PipelineResult`; responses are matched back by request id::

        with client.pipeline() as p:
            handles = [p.resolve(uid) for uid in uids]
        snapshots = [h.result() for h in handles]

    Semantics:

    * **Ordering** — requests execute in queue order on the server.
    * **Error isolation** — a typed error for one request lands in its
      own handle; later requests in the batch still execute.
    * **Disconnects** — a batch that dies mid-flight is only re-sent
      when *every* op in it is in :data:`RETRYABLE_OPS` (the classifier
      :meth:`Client.call` uses); otherwise ConnectionError surfaces
      because a prefix of the batch may already have executed
      server-side.
    """

    def __init__(self, client):
        self.client = client
        self._queue = []

    def __len__(self):
        return len(self._queue)

    def call(self, op, **args):
        """Queue one op; returns its :class:`PipelineResult`."""
        handle = PipelineResult()
        self._queue.append((op, args, handle))
        return handle

    def flush(self):
        """Send every queued request, fill every handle, return them."""
        if not self._queue:
            return []
        client = self.client
        attempt = 0
        last_error = None
        while True:
            if client._sock is None:
                client._reconnect_or_raise(attempt, last_error)
                if client._sock is None:
                    attempt += 1
                    continue
            batch = self._queue
            self._queue = []
            try:
                self._exchange(batch)
                return [handle for _op, _args, handle in batch]
            except (ConnectionError, OSError) as error:
                self._queue = batch
                client._classify_loss(
                    error, [op for op, _args, _handle in batch],
                    "pipelined batch",
                )
                last_error = error
                attempt += 1
            except ProtocolError:
                # Framing desync: nothing on this connection can be
                # trusted any more, and re-sending blind could double-
                # execute.  Surface it.
                self._queue = batch
                client.close()
                raise
            except BaseException:
                self._queue = batch
                raise

    def _exchange(self, batch):
        """One attempt: write the whole batch, then read every response.

        Requests are (re-)encoded here, not at queue time: a reconnect
        between attempts renumbers ids, so the bytes are only valid
        per-connection.
        """
        client = self.client
        encoded = [client._encode_request(op, args)
                   for op, args, _handle in batch]
        # One send for the whole batch keeps the frames back-to-back on
        # the wire, so the server's drain loop sees them as one batch.
        client._send_bytes(b"".join(data for _rid, data in encoded))
        for (op, _args, handle), (request_id, _data) in zip(
            batch, encoded, strict=True
        ):
            frame = client._read_response()
            if frame.get("id") != request_id:
                raise ProtocolError(
                    f"pipelined response id {frame.get('id')!r} does not "
                    f"match request {request_id} (op {op!r})"
                )
            if frame.get("ok"):
                handle._resolve(value=frame.get("result"))
            else:
                handle._resolve(error=build_error(frame.get("error") or {}))

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        if exc_type is None:
            self.flush()


class AsyncClient(_ClientCore):
    """Asyncio TCP client with the same surface as :class:`Client`.

    Construct then ``await client.connect()``, or use it as an async
    context manager.  No automatic reconnection: an asyncio caller is
    expected to own retry policy (create a fresh client).
    """

    def __init__(self, host="127.0.0.1", port=4957, user=None):
        super().__init__(user=user)
        self.host = host
        self.port = port
        self._wire = None

    async def connect(self):
        # Same stale-state rule as the blocking client: a (re)connect is
        # a fresh server session (and a fresh receive buffer).
        self.protocol_version = None
        self.session_id = None
        self._in_transaction = False
        _transport, self._wire = (
            await asyncio.get_running_loop().create_connection(
                WireProtocol, self.host, self.port
            )
        )
        try:
            self._note_hello(
                await self._roundtrip("hello", self._hello_args())
            )
            if self.user is not None:
                await self._roundtrip("login", {"user": self.user})
        except BaseException:
            # A failed handshake must not leak the transport: ``async with``
            # never reaches __aexit__ when __aenter__ raises.
            await self.close()
            raise
        return self

    async def close(self):
        """Close the connection and drop its receive buffer (see
        :meth:`Client.close`)."""
        wire, self._wire = self._wire, None
        if wire is not None:
            with contextlib.suppress(Exception):
                await wire.close()

    async def _exchange(self, data):
        """Write one request frame; return the raw response payload."""
        wire = self._wire
        if wire is None:
            raise ConnectionError("not connected; call connect() first")
        wire.write(data)
        await wire.drain()
        batch = await wire.read(1)
        if not batch:
            raise ConnectionError("server closed the connection")
        return batch[0]

    async def _roundtrip(self, op, args):
        request_id, data = self._encode_request(op, args)
        payload = await self._exchange(data)
        return self._interpret(request_id, decode_payload(VERSION, payload))

    def call(self, op, **args):
        return self._roundtrip(op, args)

    async def ping(self, timeout=1.0):
        """Health probe with its own short deadline (see
        :meth:`Client.ping`); the connection is dropped on timeout so a
        late pong cannot mis-pair with the next request."""
        try:
            return await asyncio.wait_for(
                self._roundtrip("ping", {}), timeout
            )
        except asyncio.TimeoutError:
            await self.close()
            raise TimeoutError(
                f"no response to 'ping' within {timeout}s"
            ) from None

    async def healthy(self, timeout=1.0):
        """True when the server answers :meth:`ping` within *timeout*."""
        try:
            return await self.ping(timeout=timeout) == "pong"
        except (OSError, TimeoutError):
            return False

    async def login(self, user):
        result = await self.call("login", user=user)
        self.user = user
        return result

    async def make_class(self, name, superclasses=(), attributes=(),
                         **kwargs):
        return await self.call(
            "make_class",
            name=name,
            superclasses=list(superclasses),
            attributes=[spec_to_wire(spec) for spec in attributes],
            **kwargs,
        )

    async def make(self, class_name, values=None, parents=(), **kw_values):
        merged = dict(values or {})
        merged.update(kw_values)
        return await self.call(
            "make",
            class_name=class_name,
            values=merged,
            parents=[list(pair) for pair in parents],
        )

    async def begin(self, snapshot=False, epoch=None):
        args = {}
        if snapshot or epoch is not None:
            args = {"snapshot": True, "epoch": epoch}
        result = await self.call("begin", **args)
        self._in_transaction = True
        return result["txn"]

    async def commit(self):
        result = await self.call("commit")
        self._in_transaction = False
        return result["txn"]

    async def abort(self):
        result = await self.call("abort")
        self._in_transaction = False
        return result["txn"]

    @contextlib.asynccontextmanager
    async def transaction(self, snapshot=False, epoch=None):
        await self.begin(snapshot=snapshot, epoch=epoch)
        try:
            yield self
        except BaseException as error:
            if self._in_transaction:
                from ..errors import DeadlockError

                if isinstance(error, DeadlockError):
                    self._in_transaction = False
                else:
                    with contextlib.suppress(Exception):
                        await self.abort()
            raise
        else:
            await self.commit()

    async def __aenter__(self):
        return await self.connect()

    async def __aexit__(self, *exc_info):
        await self.close()


def _add_api(*classes):
    """Generate the one-liner RPC methods from :data:`WIRE_OPS`.

    A generated method binds its positional arguments to the row's
    argument names and returns ``self.call(op, **args)`` — sync or async
    depending on the class's ``call``.  None is generated for ``txn``
    rows (the client tracks the transaction scope) or for an op
    :class:`Client` writes by hand (``make`` and ``make_class`` reshape
    their arguments, ``login`` remembers the user, ``ping`` runs under
    its own timeout), on any class: a generated one would skip that.
    """
    def make_method(op, names):
        def method(self, *values, **extra):
            if len(values) > len(names):
                raise TypeError(f"{op} takes at most {len(names)} arguments")
            args = dict(zip(names, values, strict=False))
            args.update(extra)
            return self.call(op, **args)

        method.__name__ = op
        method.__doc__ = f"Invoke the ``{op}`` op on the server."
        return method

    for op, row in WIRE_OPS.items():
        if row.effect != TXN and op not in vars(Client):
            method = make_method(op, row.args)
            for cls in classes:
                setattr(cls, op, method)


_add_api(Client, Pipeline, AsyncClient)
