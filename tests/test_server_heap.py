"""The server holds each per-object fact once.

A ``ReproServer`` on a ``DurableDatabase`` (authorization on, the
always-on lock-order recorder, MVCC chains) serves pipelined batches of
makes, set_values and resolves through ``_serve_batch``, in autocommit
and in explicit transactions, exactly as the wire hands it requests:
every UID and class name in a request is the decoder's fresh copy.
Afterwards:

* every UID the lock table, the lock-order recorder or the authorization
  cache holds *is* the live instance's own ``uid`` (not a decoded copy),
  and every instance shares its class's name string with the lattice;
* the version chains add no GC-tracked object, and cost a bounded number
  of bytes each beside their images;
* the recorder's witness labels are the transactions' int ids.
"""

from __future__ import annotations

import asyncio
import gc
import tracemalloc

from repro.authorization.engine import AuthorizationEngine
from repro.core.identity import UID
from repro.mvcc import manager as manager_module
from repro.server.protocol import decode_payload, encode_request_bytes
from repro.server.server import ReproServer
from repro.storage.durable import DurableDatabase
from repro.workloads.txmix import STAMP_ATTRIBUTE as STAMP, memory_fixture

USER = "designer"
ROOTS = 120
PARTS_PER_ROOT = 2
BATCH = 16

#: tracemalloc bytes allocated by ``mvcc/manager.py`` and still held,
#: per chain: the flat chain tuple (3.7 (epoch, image) pairs on average
#: here, 99 bytes with its GC header) and the chain dict's table (~51).
#: Measured 156.3 on CPython 3.10.13 and 152.2 on 3.11.7 and 3.12.1
#: (x86-64 Linux); the bound leaves ~20% over the largest.  The
#: parallel-list chains read 349.5 (a tuple and two lists per chain).
#: Image bytes are not counted: the journal's seal allocates them, and
#: they are the same bytes either way.
BYTES_PER_CHAIN_BOUND = 190


def _frames(requests, start):
    return [
        encode_request_bytes(2, start + index, op, args)[4:]
        for index, (op, args) in enumerate(requests)
    ]


async def _serve(server, session, requests):
    """Serve *requests* as pipelined batches; the decoded results."""
    results = []
    for offset in range(0, len(requests), BATCH):
        batch = _frames(requests[offset:offset + BATCH], offset)
        for data, _sync, _rid in await server._serve_batch(session, batch):
            frame = decode_payload(2, data[4:])
            assert frame["ok"], frame
            results.append(frame["result"])
    return results


async def _ingest(server, session):
    await _serve(server, session, [("login", {"user": USER})])
    roots = await _serve(server, session, [
        ("make", {"class_name": "MixRoot", "values": {STAMP: n}})
        for n in range(ROOTS)
    ])
    parts = await _serve(server, session, [
        ("make", {"class_name": "MixPart", "values": {STAMP: n},
                  "parents": [[root, "Parts"]]})
        for n, root in enumerate(roots * PARTS_PER_ROOT)
    ])
    await _serve(server, session, [
        request
        for n, uid in enumerate(roots + parts)
        for request in (
            ("set_value", {"uid": uid, "attribute": STAMP, "value": -n}),
            ("resolve", {"uid": uid}),
        )
    ])
    # An explicit transaction keeps its locks until it commits.
    await _serve(server, session, [("begin", {})] + [
        ("set_value", {"uid": uid, "attribute": STAMP, "value": n})
        for n, uid in enumerate(roots[:BATCH])
    ])


def _uids(value):
    """Every UID inside a lock resource or a lock-order resource."""
    if isinstance(value, UID):
        yield value
    elif isinstance(value, tuple):
        for item in value:
            yield from _uids(item)


def test_each_per_object_fact_is_held_once(tmp_path):
    db = DurableDatabase(tmp_path, sync_policy="commit")
    memory_fixture(db, roots=0)
    auth = AuthorizationEngine(db)
    auth.grant(USER, "sW", on_class="MixRoot")
    server = ReproServer(db, auth=auth)
    session = server._open_session(1, None)
    try:
        gc.collect()
        tracemalloc.start()
        try:
            asyncio.run(_ingest(server, session))
            gc.collect()
            chain_bytes = sum(
                stat.size for stat in tracemalloc.take_snapshot().filter_traces(
                    [tracemalloc.Filter(True, manager_module.__file__)]
                ).statistics("filename")
            )
        finally:
            tracemalloc.stop()

        def canonical(uid):
            return uid is db.peek(uid).uid

        # The open transaction's locks and coverage.
        table = server.tm.table
        locked = [uid for resource in table._granted
                  for uid in _uids(resource)]
        assert len(locked) == BATCH
        assert all(map(canonical, locked))
        assert all(canonical(uid) for granules in table._covered.values()
                   for uid in granules)
        # The lock-order recorder's interned resources.
        graph = server.lockdep.graph
        recorded = [uid for resource in graph._resources
                    for uid in _uids(resource)]
        assert len(recorded) == ROOTS * (1 + PARTS_PER_ROOT)
        assert all(map(canonical, recorded))
        # The authorization cache.
        cached = list(auth._cache[USER])
        assert len(cached) == ROOTS * (1 + PARTS_PER_ROOT)
        assert all(map(canonical, cached))
        # One class-name string per class.
        for instance in db.live_instances():
            name = db.lattice.get(instance.class_name).name
            assert instance.class_name is name
            assert instance.uid.class_name is name

        chains = server.snapshots._chains
        assert len(chains) == ROOTS * (1 + PARTS_PER_ROOT)
        assert not any(map(gc.is_tracked, chains.values()))
        assert chain_bytes / len(chains) < BYTES_PER_CHAIN_BOUND, (
            chain_bytes / len(chains))

        labels = [witness[0] for edge in graph._edges.values()
                  for witness in edge[1:]]
        assert labels
        assert all(type(label) is int for label in labels)
    finally:
        session.close()
        server.snapshots.close()
        db.close()
