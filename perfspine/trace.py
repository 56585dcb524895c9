"""Span tracing applied from outside the program.

``SPAN_POINTS`` is the one table of layer boundaries.  For a traced run
:meth:`Tracer.install` wraps each public entry point *where it is looked
up* (a module-level name in the namespace of the module that calls it, or
a method on its class), so ``src/repro`` itself carries no tracing code.
A point that does not resolve raises: a refactor that renames an entry
point must break the waterfall loudly, not drop a layer.

A span is ``(span, layer, start_ns, end_ns, parent, session, request)``.
The parent travels in a ``contextvar`` (it survives ``await``), the clock
is ``time.perf_counter_ns`` (CLOCK_MONOTONIC on Linux, so driver and
server stamps are comparable) and ``(session id, request id)`` is the
identifier both processes share.  Spans stay in memory as parallel
columns and are written as JSONL when the process ends.

Self time of a span = its duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import inspect
import threading
import time
from array import array
from typing import NamedTuple

clock = time.perf_counter_ns


class SpanPoint(NamedTuple):
    layer: str
    span: str
    module: str
    attribute: str


_SERVER = "repro.server.server"
_CLIENT = "repro.server.client"
_TM = "repro.txn.manager"
_DB = "repro.core.database"

SPAN_POINTS = (
    # server.client: the blocking client's codec and its two wait points.
    SpanPoint("server.client", "client.call", _CLIENT, "Client.call"),
    SpanPoint("server.client", "client.flush", _CLIENT, "Pipeline.flush"),
    SpanPoint("server.client", "client.encode", _CLIENT,
              "encode_request_bytes"),
    SpanPoint("server.client", "client.decode", _CLIENT, "decode_payload"),
    # server.protocol: the same codec as the server loop looks it up.
    SpanPoint("server.protocol", "protocol.req_decode", _SERVER,
              "decode_payload"),
    SpanPoint("server.protocol", "protocol.req_decode", _SERVER,
              "check_request"),
    SpanPoint("server.protocol", "protocol.resp_encode", _SERVER,
              "encode_result_bytes"),
    SpanPoint("server.protocol", "protocol.resp_encode", _SERVER,
              "encode_error_bytes"),
    # server.server: the two places a request waits inside the server.
    SpanPoint("server.server", "server.barrier_wait", _SERVER,
              "ReproServer.durability_barrier"),
    SpanPoint("server.server", "server.lock_wait", _SERVER,
              "LockService.acquire_plan"),
    SpanPoint("server.dispatch", "dispatch", _SERVER, "dispatch"),
    SpanPoint("authorization", "authorization.require",
              "repro.authorization.engine", "AuthorizationEngine.require"),
    SpanPoint("locking", "locking.plan", "repro.locking.protocol",
              "CompositeLockingProtocol.plan_instance"),
    SpanPoint("locking", "locking.plan", "repro.locking.protocol",
              "CompositeLockingProtocol.plan_composite"),
    SpanPoint("locking", "locking.acquire", "repro.locking.table",
              "LockTable.acquire"),
    SpanPoint("locking", "locking.release", "repro.locking.table",
              "LockTable.release_all"),
    SpanPoint("txn", "txn.op", _TM, "TransactionManager.begin"),
    SpanPoint("txn", "txn.op", _TM, "TransactionManager.read"),
    SpanPoint("txn", "txn.op", _TM, "TransactionManager.write"),
    SpanPoint("txn", "txn.op", _TM, "TransactionManager.insert"),
    SpanPoint("txn", "txn.op", _TM, "TransactionManager.remove"),
    SpanPoint("txn", "txn.op", _TM, "TransactionManager.make"),
    SpanPoint("txn", "txn.op", _TM, "TransactionManager.delete"),
    SpanPoint("txn", "txn.op", _TM, "TransactionManager.read_composite"),
    SpanPoint("txn", "txn.commit", _TM, "TransactionManager.commit"),
    SpanPoint("txn", "txn.abort", _TM, "TransactionManager.abort"),
    SpanPoint("core", "core.op", _DB, "Database.resolve"),
    SpanPoint("core", "core.op", _DB, "Database.value"),
    SpanPoint("core", "core.op", _DB, "Database.set_value"),
    SpanPoint("core", "core.op", _DB, "Database.components_of"),
    SpanPoint("core", "core.op", _DB, "Database.insert_into"),
    SpanPoint("core", "core.op", _DB, "Database.remove_from"),
    SpanPoint("core", "core.make", _DB, "Database.make"),
    SpanPoint("core", "core.delete", _DB, "Database.delete"),
    SpanPoint("mvcc", "mvcc.read_at", "repro.mvcc.manager",
              "SnapshotManager.read_at"),
    SpanPoint("mvcc", "mvcc.read_at", "repro.mvcc.manager",
              "SnapshotManager.instance_at"),
    # storage.serializer: object images as the journal and the version
    # chains ask for them.  The transaction manager's undo images of a
    # delete are the txn layer's own work and stay in txn.op.
    SpanPoint("storage.serializer", "serializer.encode",
              "repro.storage.journal", "encode_instance"),
    SpanPoint("storage.serializer", "serializer.encode",
              "repro.mvcc.manager", "encode_instance"),
    SpanPoint("storage.serializer", "image_cache.get",
              "repro.storage.serializer", "ImageCache.get"),
    # storage.journal: the append hook is private, so only the fsync is a
    # span; the append cost is measured by difference (journal.append_us).
    SpanPoint("storage.journal", "journal.sync", "repro.storage.journal",
              "Journal.sync"),
)

#: The benchmark's own span around a unit made of several calls (a
#: transaction of contended_txn_mix): retry loop and think time.
DRIVER_LAYER = "driver"

LAYER_OF = {point.span: point.layer for point in SPAN_POINTS}

_PARENT = contextvars.ContextVar("perfspine_parent", default=-1)
_SESSION = contextvars.ContextVar("perfspine_session", default=0)
_REQUEST = contextvars.ContextVar("perfspine_request", default=0)


# Where the shared (session id, request id) becomes known.  The values
# stick to the thread or asyncio task until the next request replaces
# them; a connection's spans before its first dispatch carry session 0.
def _client_session(args):
    _SESSION.set(args[0].session_id or 0)


def _pipeline_session(args):
    _SESSION.set(args[0].client.session_id or 0)


def _request_sent(args):
    _REQUEST.set(args[1])


def _server_session(args):
    _SESSION.set(args[0].session_id)


def _request_received(frame):
    request_id = frame.get("id")
    _REQUEST.set(request_id if isinstance(request_id, int) else 0)


_BEFORE = {
    (_CLIENT, "Client.call"): _client_session,
    (_CLIENT, "Pipeline.flush"): _pipeline_session,
    (_CLIENT, "encode_request_bytes"): _request_sent,
    (_SERVER, "dispatch"): _server_session,
}
_AFTER = {(_SERVER, "decode_payload"): _request_received}
#: Points that record a byte count: an object image, a framed request as
#: the client sends it, a response payload as it arrives (+4: its length
#: prefix) -- exactly the bytes the server meters in and out.
_SIZE = {
    ("repro.storage.journal", "encode_instance"): lambda a, r: len(r),
    ("repro.mvcc.manager", "encode_instance"): lambda a, r: len(r),
    (_CLIENT, "encode_request_bytes"): lambda a, r: len(r),
    (_CLIENT, "decode_payload"): lambda a, r: len(a[1]) + 4,
}


class _Store:
    """One thread's spans as parallel columns: a span's parent is always
    in its own thread, and columns keep a million spans near 40 MB."""

    def __init__(self):
        self.span = array("h")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.session = array("q")
        self.request = array("q")
        self.size = array("q")


class Tracer:
    """Wraps the span points and collects their spans."""

    def __init__(self):
        self.span_names = []
        self._stores = []
        self._local = threading.local()
        self._patched = []

    # -- recording ---------------------------------------------------------

    def _span_index(self, span):
        if span not in self.span_names:
            self.span_names.append(span)
        return self.span_names.index(span)

    def _store(self):
        store = getattr(self._local, "store", None)
        if store is None:
            store = self._local.store = _Store()
            self._stores.append(store)
        return store

    # A span is stamped first thing on entry and last thing on exit, so
    # its own bookkeeping counts as its self time and not as its parent's
    # (or, for a top-level span, as unattributed time).
    def _open(self, span_index):
        now = clock()
        store = self._store()
        index = len(store.start)
        store.start.append(now)
        store.span.append(span_index)
        store.parent.append(_PARENT.get())
        store.end.append(0)
        store.session.append(0)
        store.request.append(0)
        store.size.append(0)
        return store, index, _PARENT.set(index)

    @staticmethod
    def _close(opened):
        store, index, token = opened
        _PARENT.reset(token)
        store.session[index] = _SESSION.get()
        store.request[index] = _REQUEST.get()
        store.end[index] = clock()

    @contextlib.contextmanager
    def span(self, name):
        """A span of the benchmark's own (layer ``driver``)."""
        opened = self._open(self._span_index(name))
        try:
            yield
        finally:
            self._close(opened)

    def _wrap(self, function, point, key):
        span_index = self._span_index(point.span)
        before = _BEFORE.get(key)
        after = _AFTER.get(key)
        size = _SIZE.get(key)
        open_span, close_span = self._open, self._close

        def finish(opened, args, result):
            if after is not None:
                after(result)
            if size is not None:
                opened[0].size[opened[1]] = size(args, result)

        if inspect.iscoroutinefunction(function):
            @functools.wraps(function)
            async def wrapper(*args, **kwargs):
                opened = open_span(span_index)
                try:
                    if before is not None:
                        before(args)
                    result = await function(*args, **kwargs)
                    finish(opened, args, result)
                    return result
                finally:
                    close_span(opened)
        else:
            @functools.wraps(function)
            def wrapper(*args, **kwargs):
                opened = open_span(span_index)
                try:
                    if before is not None:
                        before(args)
                    result = function(*args, **kwargs)
                    finish(opened, args, result)
                    return result
                finally:
                    close_span(opened)
        return wrapper

    # -- installing --------------------------------------------------------

    @property
    def installed(self):
        return bool(self._patched)

    def install(self):
        """Wrap every span point; raise if one does not resolve."""
        for point in SPAN_POINTS:
            try:
                owner = importlib.import_module(point.module)
                *path, name = point.attribute.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, name)
            except (ImportError, AttributeError) as error:
                self.uninstall()
                raise LookupError(
                    f"span point {point.span!r} does not resolve: "
                    f"{point.module}:{point.attribute} ({error})"
                ) from error
            key = (point.module, point.attribute)
            setattr(owner, name, self._wrap(original, point, key))
            self._patched.append((owner, name, original))

    def uninstall(self):
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    # -- reading back ------------------------------------------------------

    def rows(self):
        """Every finished span as ``(span, start, end, parent, session,
        request, size)``, parents renumbered across thread stores."""
        offset = 0
        for store in list(self._stores):
            count = len(store.start)
            for i in range(count):
                parent = store.parent[i]
                yield (self.span_names[store.span[i]], store.start[i],
                       store.end[i], parent + offset if parent >= 0 else -1,
                       store.session[i], store.request[i], store.size[i])
            offset += count

    def dump_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as out:
            for span, start, end, parent, session, request, size in \
                    self.rows():
                out.write(
                    f'{{"span":"{span}","layer":"'
                    f'{LAYER_OF.get(span, DRIVER_LAYER)}","start_ns":{start},'
                    f'"end_ns":{end},"parent":{parent},'
                    f'"request":[{session},{request}],"size":{size}}}\n'
                )


def load_jsonl(path):
    """The rows :meth:`Tracer.dump_jsonl` wrote."""
    import json

    with open(path, encoding="utf-8") as lines:
        for line in lines:
            row = json.loads(line)
            session, request = row["request"]
            yield (row["span"], row["start_ns"], row["end_ns"],
                   row["parent"], session, request, row["size"])


def summarize(rows, window):
    """Per span name, over the spans that started inside *window*
    (``(start_ns, end_ns)``): ``{span: {"count", "total_ns", "self_ns",
    "size"}}``, and the time covered by top-level spans (those without a
    parent).  Unfinished spans (end 0) are dropped."""
    rows = list(rows)
    child_ns = [0] * len(rows)
    for _span, start, end, parent, _s, _r, _size in rows:
        if end and parent >= 0:
            child_ns[parent] += end - start
    low, high = window
    summary = {}
    root_ns = 0
    for index, (span, start, end, parent, _s, _r, size) in enumerate(rows):
        if not end or not low <= start < high:
            continue
        if parent < 0:
            root_ns += end - start
        entry = summary.setdefault(
            span, {"count": 0, "total_ns": 0, "self_ns": 0, "size": 0}
        )
        entry["count"] += 1
        entry["total_ns"] += end - start
        entry["self_ns"] += end - start - child_ns[index]
        entry["size"] += size
    return summary, root_ns
