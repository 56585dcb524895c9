"""The wire protocol: length-prefixed binary frames (version 2).

A frame is a 4-byte big-endian unsigned length followed by that many
bytes of payload.  Every endpoint reads frames through one
:class:`FrameBuffer` per connection (bytes in, payloads out, no
sockets); nothing else parses a length prefix.  Every asyncio endpoint
fills that buffer through one :class:`WireProtocol`, the one transport
of the server, the shard router and the asyncio client.

A payload is compact struct-packed binary: a one-byte frame kind
(request / result / error), a signed 64-bit request id, and type-tagged
values.  The values are the object images' own:
:mod:`repro.storage.serializer` owns the tag table, its encoder and its
decoder, and this module only lays out frames around them.  UIDs,
``SetOf`` domains, ``bytes`` and non-string dict keys cross natively; a
value with no encoding raises :class:`ProtocolError` instead of silently
degrading to ``str(value)`` (use :func:`wire_lenient` to pre-render
arbitrary data, e.g. query results).  Both tables live in
docs/SERVER.md.

The first request on a connection must be the ``hello`` handshake, an
ordinary request frame offering the versions the client speaks; the
server echoes the one it picked, or fails the connection with a
``PROTOCOL`` error when the offer does not include it.  Every other op
is one row of :data:`WIRE_OPS`: its client arguments, its effect and
its route through the shard router.

Errors marshal by their stable ``code`` (see :mod:`repro.errors`): the
encoder captures the exception's public attributes, the decoder rebuilds
the registered class and reattaches *only the attributes the class
declares* (its ``wire_fields`` plus its constructor parameters), so a
hostile payload cannot shadow ``code`` or plant arbitrary state.
"""

from __future__ import annotations

import asyncio
import inspect
import struct
from typing import NamedTuple

from ..core.identity import UID
from ..errors import ReproError, SerializationError, error_registry
from ..schema.attribute import SetOf
from ..storage.serializer import MALFORMED, encode_str, encode_value, value_at

#: The protocol version this build speaks; the codec functions take it
#: as their first argument.
VERSION = 2
#: Protocol versions this build speaks (the hello must offer one).
SUPPORTED_VERSIONS = (VERSION,)

#: Hard ceiling on one frame's payload; a length prefix beyond this is
#: treated as a corrupt or hostile stream, not an allocation request.
MAX_FRAME_BYTES = 8 * 1024 * 1024

_LENGTH = struct.Struct(">I")


class ProtocolError(ReproError):
    """The byte stream or frame structure violates the wire protocol."""

    code = "PROTOCOL"


# ---------------------------------------------------------------------------
# Values
# ---------------------------------------------------------------------------


def wire_lenient(value):
    """Pre-render arbitrary data for the wire: leaves with no wire
    encoding become their readable ``str()`` rendering instead of
    raising.

    This is the query-result path: the s-expression interpreter returns
    library objects (class definitions, reports, ...) whose contract has
    always been "crosses the wire as its rendering".  The returned tree
    contains only wire-encodable values, left rich (UIDs stay UIDs)."""
    if (value is None
            or isinstance(value, (bool, int, float, str, bytes, UID, SetOf))):
        return value
    if isinstance(value, (list, tuple)):
        return [wire_lenient(item) for item in value]
    if isinstance(value, dict):
        return {
            key if isinstance(key, (str, int, bool, float, UID)) or key is None
            else str(key): wire_lenient(item)
            for key, item in value.items()
        }
    return str(value)


# ---------------------------------------------------------------------------
# Frame layout (values are the serializer's: repro.storage.serializer)
# ---------------------------------------------------------------------------

_KIND_ID = struct.Struct(">Bq")  # frame kind + request id
_u32_at = _LENGTH.unpack_from
_i64_at = struct.Struct(">q").unpack_from
_REQUEST, _RESULT, _ERROR = 1, 2, 3  # frame kinds


def _append_value(value, out):
    """:func:`encode_value`, its refusal raised as :class:`ProtocolError`."""
    try:
        encode_value(value, out)
    except SerializationError as error:
        raise ProtocolError(str(error)) from None


class PreEncoded:
    """A result encoded once: :func:`encode_result_bytes` splices its
    payload verbatim (the server's object-image cache keeps these)."""

    __slots__ = ("payload",)

    def __init__(self, value):
        out = []
        _append_value(value, out)
        self.payload = b"".join(out)


def _frame_at(data):
    """One payload as its frame dict, and the end offset."""
    kind = data[0]
    request_id = _i64_at(data, 1)[0]
    if kind == _REQUEST:
        end = 13 + _u32_at(data, 9)[0]
        op = data[13:end].decode()
        args, pos = value_at(data, end)
        return {"id": request_id, "op": op, "args": args}, pos
    if kind == _RESULT:
        result, pos = value_at(data, 9)
        return {"id": request_id, "ok": True, "result": result}, pos
    if kind == _ERROR:
        end = 13 + _u32_at(data, 9)[0]
        code = data[13:end].decode()
        pos = end + 4 + _u32_at(data, end)[0]
        message = data[end + 4:pos].decode()
        data_map, pos = value_at(data, pos)
        if not isinstance(data_map, dict):
            raise ProtocolError("v2 error data must be a map")
        return {"id": request_id, "ok": False,
                "error": {"code": code, "message": message,
                          "data": data_map}}, pos
    raise ProtocolError(f"unknown v2 frame kind {bytes([kind])!r}")


# ---------------------------------------------------------------------------
# Frame encoding
# ---------------------------------------------------------------------------


def frame_bytes(payload):
    """Wrap one encoded *payload* in the 4-byte length prefix."""
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    return _LENGTH.pack(len(payload)) + payload


def _checked_length(length):
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"declared frame length {length} exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    return length


def frame_length(prefix):
    """Validate a 4-byte length prefix; return the payload length."""
    if len(prefix) != 4:
        raise ProtocolError("truncated length prefix")
    return _checked_length(_LENGTH.unpack(prefix)[0])


#: Bytes one refill asks the socket for.
RECV_BYTES = 65536


class FrameBuffer:
    """Bytes in, frame payloads out: the one wire reader.

    Every endpoint (server, both clients, the shard router) owns one per
    connection and drives it with whatever reads its transport does:
    :meth:`feed` appends received bytes, :meth:`take` hands out complete
    payloads in order and keeps a partial frame for the next feed.  Each
    length prefix is checked against :data:`MAX_FRAME_BYTES` as soon as
    its 4 bytes are in, before any of the body is waited for.  No
    sockets in here: a dropped connection is simply a buffer that never
    completes.
    """

    __slots__ = ("_data", "_scan", "_lengths")

    def __init__(self):
        self._data = bytearray()
        #: Offset of the first frame not yet known to be complete.
        self._scan = 0
        #: Payload lengths of the complete frames, in order.
        self._lengths = []

    def __len__(self):
        """Bytes held: complete frames not yet taken plus a partial one."""
        return len(self._data)

    @property
    def waiting(self):
        """Bytes of the complete frames not yet taken."""
        return self._scan

    def feed(self, data):
        """Append received bytes; an oversized length prefix raises."""
        buffer = self._data
        buffer += data
        scan, size, lengths = self._scan, len(buffer), self._lengths
        while size - scan >= 4:
            length = _checked_length(_u32_at(buffer, scan)[0])
            if size - scan - 4 < length:
                break
            lengths.append(length)
            scan += 4 + length
        self._scan = scan

    def take(self, limit):
        """Up to *limit* complete payloads (bytes), oldest first."""
        lengths = self._lengths
        if not lengths:
            return []
        taken = lengths[:limit]
        del lengths[:limit]
        end = 4 * len(taken) + sum(taken)
        chunk = bytes(self._data[:end])  # one copy out of the buffer
        del self._data[:end]
        self._scan -= end
        frames = []
        pos = 4
        for length in taken:
            frames.append(chunk[pos:pos + length])
            pos += length + 4
        return frames


class WireProtocol(asyncio.BufferedProtocol):
    """One connection's transport, shared by every asyncio endpoint: the
    :class:`~repro.server.server.WireServer` session loop listens with
    ``loop.create_server`` and :class:`~repro.server.client.AsyncClient`
    (and so the shard router's upstreams) connects with
    ``loop.create_connection``, both on this class.

    Receiving: the transport reads straight into one :data:`RECV_BYTES`
    buffer this connection reuses (``get_buffer``), and each refill is
    fed to the connection's :class:`FrameBuffer`, waking the task
    parked in :meth:`read`.  The offered buffer shrinks by the bytes of
    complete frames already waiting, and reading pauses once a whole
    refill of them waits, so the frame buffer never holds more than
    :data:`RECV_BYTES` plus one partial frame, however fast the peer
    sends and whatever the session is waiting for.

    Sending: :meth:`write` hands bytes to the transport, and
    :meth:`drain` waits while the transport has paused writing.  Reading
    pauses for as long as writing does, so a peer that pipelines and
    never reads its answers stops being read.
    """

    def __init__(self, on_connect=None):
        #: Called with this protocol once the connection is made (the
        #: server starts the session task there).
        self._on_connect = on_connect
        self.frames = FrameBuffer()
        self.transport = None
        self._recv = memoryview(bytearray(RECV_BYTES))
        self._loop = None
        #: The reader's future, woken by a refill, an EOF or the loss.
        self._waiter = None
        #: The writer's future, woken by resume_writing or the loss.
        self._drainer = None
        self._reading = True
        self._writing = True
        self._eof = False
        self._lost = False
        #: What ended the stream abnormally (a lost connection's error,
        #: an oversized length prefix); raised by the next read.
        self._error = None
        self._closed = None

    # -- asyncio callbacks -------------------------------------------------

    def connection_made(self, transport):
        self.transport = transport
        self._loop = asyncio.get_running_loop()
        self._closed = self._loop.create_future()
        if self._on_connect is not None:
            self._on_connect(self)

    def get_buffer(self, sizehint):
        return self._recv[:RECV_BYTES - self.frames.waiting]

    def buffer_updated(self, nbytes):
        try:
            self.frames.feed(self._recv[:nbytes])
        except ProtocolError as error:
            self._error = error
            self._pause_reading()
        else:
            if self.frames.waiting >= RECV_BYTES:
                self._pause_reading()
        _wake(self._waiter)

    def eof_received(self):
        self._eof = True
        _wake(self._waiter)
        # Keep the write side open: the answers to what already arrived
        # are still due.
        return True

    def connection_lost(self, exc):
        self._eof = self._lost = True
        if self._error is None:
            self._error = exc
        _wake(self._waiter)
        _wake(self._drainer)
        # A cancelled close() has cancelled the future already.
        _wake(self._closed)

    def pause_writing(self):
        self._writing = False
        self._pause_reading()

    def resume_writing(self):
        self._writing = True
        _wake(self._drainer)
        self._resume_reading()

    # -- flow control --------------------------------------------------------

    def _pause_reading(self):
        if self._reading:
            self._reading = False
            self.transport.pause_reading()

    def _resume_reading(self):
        if (not self._reading and self._writing and self._error is None
                and self.frames.waiting < RECV_BYTES):
            self._reading = True
            self.transport.resume_reading()

    # -- the connection task's side ------------------------------------------

    async def read(self, limit):
        """Up to *limit* payloads, oldest first, waiting for a refill
        only while no complete frame is buffered.

        Returns ``[]`` at a clean EOF between frames; an EOF inside a
        frame raises :class:`ProtocolError`, and a lost connection (or
        an oversized length prefix) raises its error.
        """
        frames = self.frames
        while True:
            if self._error is not None:
                raise self._error
            batch = frames.take(limit)
            if batch:
                if not self._reading:
                    self._resume_reading()
                return batch
            if self._eof:
                if len(frames):
                    raise ProtocolError("connection dropped mid-frame")
                return batch
            self._waiter = self._loop.create_future()
            try:
                await self._waiter
            finally:
                self._waiter = None

    def write(self, data):
        """Queue *data* on the transport (it sends what it can at once)."""
        self.transport.write(data)

    async def drain(self):
        """Wait while the transport has paused writing; a lost
        connection raises :class:`ConnectionResetError`."""
        while not (self._writing or self._lost):
            self._drainer = self._loop.create_future()
            try:
                await self._drainer
            finally:
                self._drainer = None
        if self._lost:
            raise ConnectionResetError("connection lost")

    async def close(self):
        """Close the transport (after it has sent what it holds) and
        wait until the connection is gone."""
        self.transport.close()
        await self._closed


def _wake(future):
    if future is not None and not future.done():
        future.set_result(None)


# ---------------------------------------------------------------------------
# Request / response shapes
# ---------------------------------------------------------------------------


def _wire_bytes(kind, request_id, texts, value):
    """One frame as full wire bytes: *kind*, the id, the frame's strings,
    then one value (a :class:`PreEncoded` one spliced)."""
    out = [_KIND_ID.pack(kind, request_id)]
    for text in texts:
        encode_str(text, out)
    if type(value) is PreEncoded:
        out.append(value.payload)
    else:
        _append_value(value, out)
    return frame_bytes(b"".join(out))


def encode_request_bytes(version, request_id, op, args):
    """One request as full wire bytes (prefix included)."""
    return _wire_bytes(_REQUEST, request_id, (op,), args or {})


def encode_result_bytes(version, request_id, result):
    """One ok-response as full wire bytes."""
    return _wire_bytes(_RESULT, request_id, (), result)


def encode_error_bytes(version, request_id, error):
    """One error response as full wire bytes."""
    code, message, data = _error_payload(error)
    return _wire_bytes(_ERROR, request_id, (code, message), data)


def decode_payload(version, data):
    """Decode one frame payload (the bytes after the length prefix) into
    its frame dict: ``{"id", "op", "args"}`` for a request, ``{"id",
    "ok": True, "result"}`` or ``{"id", "ok": False, "error": {"code",
    "message", "data"}}`` for a response, values decoded rich."""
    try:
        frame, pos = _frame_at(data)
    except MALFORMED as error:
        raise ProtocolError(f"malformed v2 frame: {error}") from None
    if pos != len(data):
        if pos > len(data):
            raise ProtocolError("truncated v2 frame")
        raise ProtocolError(f"{len(data) - pos} trailing bytes after v2 frame")
    return frame


def is_error_payload(payload):
    """Cheaply detect an error response without a full decode (the shard
    router's raw-splice fast path): a frame declares its kind in its
    first byte."""
    return len(payload) > 0 and payload[0] == _ERROR


def check_request(frame):
    """Validate a request frame; return ``(id, op, args)``."""
    request_id = frame.get("id")
    op = frame.get("op")
    args = frame.get("args", {})
    if not isinstance(request_id, int) or isinstance(request_id, bool):
        raise ProtocolError("request is missing an integer 'id'")
    if not isinstance(op, str) or not op:
        raise ProtocolError("request is missing a string 'op'")
    if not isinstance(args, dict):
        raise ProtocolError("'args' must be an object")
    return request_id, op, args


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

#: Effects.  A ``read`` changes no data, so a client may resend it on a
#: fresh connection after losing its answer; a ``write`` mutates (a
#: read-only server refuses it); a ``txn`` op opens, ends or votes on a
#: transaction and is neither.
READ, WRITE, TXN = "read", "write", "txn"

#: Routes through the shard router.  ``SHARD_OF`` relays to the shard of
#: the row's ``key`` UID argument (its ``colocated`` UID argument must
#: live there too); ``SHARD_0`` relays to shard 0; ``PLACE`` is
#: ``make``'s composite-aware placement; ``BROADCAST`` runs on every
#: shard; ``SCATTER`` runs on every shard and the router merges the
#: answers; ``ROUTER`` is answered by the router itself; ``REFUSED`` is
#: refused, for the row's ``why``.
SHARD_OF, SHARD_0, PLACE, BROADCAST, SCATTER, ROUTER, REFUSED = (
    "shard of", "shard 0", "placement", "broadcast", "scatter", "router",
    "refused",
)


class WireOp(NamedTuple):
    """One wire op's row in :data:`WIRE_OPS`."""

    #: The client method's positional argument names, in order.
    args: tuple
    #: ``READ``, ``WRITE`` or ``TXN``.
    effect: str
    #: One of the routes above.
    route: str
    #: ``SHARD_OF``: the UID argument naming the shard.
    key: str = ""
    #: ``SHARD_OF``: a UID argument that must live on that shard too.
    colocated: str = ""
    #: ``REFUSED``: why the router refuses it.
    why: str = ""


_TWOPC = "it is internal to router-worker two-phase commit"

#: Every op a server dispatches, in ``dispatch.COMMANDS`` order.  This
#: is the one place an op's client arguments, effect and shard route
#: are written: the read-only gate, the client's resend rule and its
#: generated methods, the shard router, the PROTO-OP-DRIFT lint and the
#: operations table in docs/SERVER.md all follow it.
WIRE_OPS = {
    "ping": WireOp((), READ, ROUTER),
    "login": WireOp(("user",), READ, ROUTER),
    "whoami": WireOp((), READ, ROUTER),
    "stats": WireOp((), READ, ROUTER),
    "make_class": WireOp(("name", "superclasses", "attributes"), WRITE,
                         BROADCAST),
    "describe": WireOp(("class_name",), READ, SHARD_0),
    "make": WireOp(("class_name", "values", "parents"), WRITE, PLACE),
    "resolve": WireOp(("uid",), READ, SHARD_OF, "uid"),
    "value": WireOp(("uid", "attribute"), READ, SHARD_OF, "uid"),
    "set_value": WireOp(("uid", "attribute", "value"), WRITE, SHARD_OF,
                        "uid"),
    "insert_into": WireOp(("uid", "attribute", "member"), WRITE, SHARD_OF,
                          "uid"),
    "remove_from": WireOp(("uid", "attribute", "member"), WRITE, SHARD_OF,
                          "uid"),
    "make_part_of": WireOp(("child", "parent", "attribute"), WRITE,
                           SHARD_OF, "parent", "child"),
    "remove_part_of": WireOp(("child", "parent", "attribute"), WRITE,
                             SHARD_OF, "parent", "child"),
    "delete": WireOp(("uid",), WRITE, SHARD_OF, "uid"),
    "components_of": WireOp(("uid",), READ, SHARD_OF, "uid"),
    "children_of": WireOp(("uid",), READ, SHARD_OF, "uid"),
    "parents_of": WireOp(("uid",), READ, SHARD_OF, "uid"),
    "ancestors_of": WireOp(("uid",), READ, SHARD_OF, "uid"),
    "roots_of": WireOp(("uid",), READ, SHARD_OF, "uid"),
    "instances_of": WireOp(("class_name",), READ, SCATTER),
    # The s-expression interpreter can define and mutate data.
    "query": WireOp(("text",), WRITE, REFUSED, why=(
        "the s-expression interpreter sees one shard's database only; "
        "connect to a worker directly for queries")),
    "snapshot_read": WireOp(("uid", "attribute", "epoch"), READ, SHARD_OF,
                            "uid"),
    "read_epoch": WireOp((), READ, SCATTER),
    "begin": WireOp(("snapshot", "epoch"), TXN, ROUTER),
    "commit": WireOp((), TXN, ROUTER),
    "abort": WireOp((), TXN, ROUTER),
    "prepare": WireOp(("gtid",), TXN, REFUSED, why=_TWOPC),
    "decide": WireOp(("gtid", "outcome"), TXN, REFUSED, why=_TWOPC),
    "indoubt": WireOp((), TXN, REFUSED, why=_TWOPC),
    "check": WireOp(("plane", "text"), READ, SCATTER),
}


def key_uid(op, row, args):
    """The UID named by *row*'s ``key`` argument, after checking that
    it and the ``colocated`` argument are UIDs.

    The server and the shard router both call this before anything
    hashes or routes the argument, so a malformed one is the same
    :class:`ProtocolError` from either; a row without a ``key`` returns
    None."""
    for name in (row.key, row.colocated):
        if name and not isinstance(args.get(name), UID):
            raise ProtocolError(f"{op!r} requires a UID argument {name!r}")
    return args.get(row.key) if row.key else None


# ---------------------------------------------------------------------------
# Error marshalling
# ---------------------------------------------------------------------------

#: Exception attributes that never cross the wire.
_PRIVATE = ("args",)


def _wire_safe(value):
    """An exception attribute as it crosses the wire: transactions
    reduced to their ids, anything the value codec encodes kept as is.

    Marshalling an error must never fail: an attribute with no wire form
    degrades to its rendering here (and only here)."""
    if hasattr(value, "txn_id"):
        return value.txn_id
    if isinstance(value, (list, tuple)):
        return [_wire_safe(item) for item in value]
    try:
        encode_value(value, [])
    except SerializationError:
        return str(value)
    return value


def _error_payload(error):
    """``(code, message, data)`` for *error* (any exception)."""
    if isinstance(error, ReproError):
        code = error.code
        data = {
            name: _wire_safe(value)
            for name, value in vars(error).items()
            if not name.startswith("_") and name not in _PRIVATE
        }
    else:
        code = "INTERNAL"
        data = {"type": type(error).__name__}
    return code, str(error), data


#: Per-class cache of the attribute names :func:`build_error` may
#: reattach from the wire.
_FIELD_CACHE = {}

#: Names never reattached from a payload, whatever the class declares:
#: the code is identity, message/args are carried positionally.
_SEALED = frozenset({"self", "code", "message", "args", "kwargs"})


def _declared_fields(cls):
    """Attribute names *cls* declares for wire reattachment.

    The union over the MRO of each class's explicit ``wire_fields``
    tuple and its ``__init__`` parameter names — i.e. the state the
    class itself admits to carrying.  Anything else in a payload is
    dropped: the wire must not plant arbitrary attributes on a rebuilt
    exception (or shadow ``code``)."""
    cached = _FIELD_CACHE.get(cls)
    if cached is None:
        names = set()
        for klass in cls.__mro__:
            names.update(vars(klass).get("wire_fields", ()))
            init = vars(klass).get("__init__")
            if init is not None:
                try:
                    names.update(inspect.signature(init).parameters)
                except (TypeError, ValueError):
                    pass
        cached = frozenset(
            name for name in names - _SEALED if not name.startswith("_")
        )
        _FIELD_CACHE[cls] = cached
    return cached


def build_error(payload):
    """Rebuild a typed exception from a response's ``error`` object.

    The registered class for the code is instantiated without running its
    (signature-varying) constructor; the message and the *declared*
    marshalled attributes (see :func:`_declared_fields`) are reattached.
    Unknown codes degrade to :class:`ProtocolError` for protocol-level
    failures and :class:`repro.errors.ReproError` otherwise.
    """
    code = payload.get("code", "REPRO")
    message = payload.get("message", "")
    data = payload.get("data") or {}
    registry = error_registry()
    registry.setdefault("PROTOCOL", ProtocolError)
    cls = registry.get(code)
    if cls is None:
        cls = ReproError
        message = f"[{code}] {message}"
    error = cls.__new__(cls)
    Exception.__init__(error, message)
    allowed = _declared_fields(cls)
    for name, value in data.items():
        if name not in allowed:
            continue
        try:
            setattr(error, name, value)
        except AttributeError:  # slotted / read-only attribute
            pass
    return error
