"""Experiment B14: network server throughput vs the embedded API.

The server subsystem (asyncio wire protocol + sessions) adds a TCP
round-trip, binary codec work, and per-request lock-plan acquisition on
top of every operation.  This experiment measures what that costs:

* **embedded** — the same op mix called directly on a Database/
  TransactionManager in-process (the floor);
* **tcp@N** — N concurrent blocking clients, each on its own thread and
  its own connection, driving one :class:`repro.server.ServerThread`.

Reported per configuration: requests/sec across all clients and mean
per-request latency.  Expected shape: embedded beats TCP at one client
(the wire adds real per-op cost), and aggregate TCP throughput does not
collapse as clients are added — sessions multiplex onto one event loop
and disjoint workloads don't contend on locks (Section 7: writers of
different composites sharing one class hierarchy proceed in parallel).
"""

from __future__ import annotations

import threading
import time

from repro import AttributeSpec, Database
from repro.bench import print_table
from repro.server import Client, ServerThread
from repro.txn import TransactionManager

#: Requests each worker issues per measured run.
OPS_PER_CLIENT = 60
CLIENT_COUNTS = (1, 4, 16)


def _schema(db):
    db.make_class("Part", attributes=[
        AttributeSpec("Serial", domain="integer"),
        AttributeSpec("Status", domain="string"),
    ])


def _embedded_ops(db, tm, uid, count):
    """The embedded mirror of the client op mix: write, read, read."""
    for i in range(count // 3):
        txn = tm.begin()
        tm.write(txn, uid, "Status", f"s{i}")
        tm.commit(txn)
        txn = tm.begin()
        tm.read(txn, uid, "Status")
        tm.read(txn, uid, "Serial")
        tm.commit(txn)


def _client_ops(client, uid, count):
    for i in range(count // 3):
        client.set_value(uid, "Status", f"s{i}")
        client.value(uid, "Status")
        client.value(uid, "Serial")


def _run_tcp(port, clients):
    """Drive *clients* concurrent connections; each worker gets its own
    Part instance, so the Section 7 plans never contend."""
    workers = []
    connections = [Client(port=port, timeout=30.0)
                   for _ in range(clients)]
    uids = [c.make("Part", values={"Serial": i, "Status": "new"})
            for i, c in enumerate(connections)]
    barrier = threading.Barrier(clients + 1)

    def work(client, uid):
        barrier.wait()
        _client_ops(client, uid, OPS_PER_CLIENT)

    try:
        for connection, uid in zip(connections, uids, strict=True):
            thread = threading.Thread(target=work, args=(connection, uid))
            thread.start()
            workers.append(thread)
        barrier.wait()
        started = time.perf_counter()
        for thread in workers:
            thread.join()
        elapsed = time.perf_counter() - started
    finally:
        for connection in connections:
            connection.close()
    total_ops = (OPS_PER_CLIENT // 3) * 3 * clients
    return total_ops, elapsed


def test_b14_server_throughput(benchmark):
    rows = []

    # Embedded floor: same mix, no wire.
    db = Database()
    _schema(db)
    tm = TransactionManager(db)
    uid = db.make("Part", values={"Serial": 0, "Status": "new"})
    started = time.perf_counter()
    _embedded_ops(db, tm, uid, OPS_PER_CLIENT)
    elapsed = time.perf_counter() - started
    embedded_ops = (OPS_PER_CLIENT // 3) * 3
    rows.append({
        "config": "embedded",
        "clients": 0,
        "requests": embedded_ops,
        "req_per_sec": embedded_ops / elapsed,
        "mean_latency_ms": 1000.0 * elapsed / embedded_ops,
    })

    with ServerThread() as handle:
        with Client(port=handle.port) as admin:
            admin.make_class("Part", attributes=[
                AttributeSpec("Serial", domain="integer"),
                AttributeSpec("Status", domain="string"),
            ])
        for clients in CLIENT_COUNTS:
            total_ops, elapsed = _run_tcp(handle.port, clients)
            rows.append({
                "config": f"tcp@{clients}",
                "clients": clients,
                "requests": total_ops,
                "req_per_sec": total_ops / elapsed,
                "mean_latency_ms": 1000.0 * elapsed / total_ops,
            })

    by_config = {row["config"]: row for row in rows}
    # The wire costs something: embedded beats a single TCP client.
    assert by_config["embedded"]["req_per_sec"] > by_config["tcp@1"]["req_per_sec"]
    # Disjoint sessions multiplex: aggregate throughput at 4 clients is
    # not worse than ~half of one client's (no serialization collapse).
    assert by_config["tcp@4"]["req_per_sec"] > 0.5 * by_config["tcp@1"]["req_per_sec"]
    # Everyone's requests completed.
    assert all(row["requests"] > 0 for row in rows)

    print_table(rows, title="B14 — embedded vs TCP request throughput "
                            f"({OPS_PER_CLIENT} ops/client)")

    with ServerThread() as handle:
        with Client(port=handle.port) as client:
            client.make_class("Part", attributes=[
                AttributeSpec("Serial", domain="integer"),
                AttributeSpec("Status", domain="string"),
            ])
            uid = client.make("Part", values={"Serial": 1, "Status": "new"})

            def kernel():
                _client_ops(client, uid, 30)
                return True

            benchmark.pedantic(kernel, rounds=5, iterations=1)
