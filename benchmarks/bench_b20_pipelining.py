"""Experiment B20: request pipelining vs serial round-trips.

Protocol v2 lets a client queue N requests on one connection before
reading responses; the server drains the already-buffered frames into
one batch, executes them in order, defers each commit's durability
barrier to the end of the batch, and answers with one coalesced write.
Against a group-commit journal that turns N fsync waits into one —
which is where the multiple comes from, not codec arithmetic.

Measured here: autocommitting writes against a durable store
(``sync_policy="group"``) driven serially, then pipelined at increasing
depths.  The claim asserted below is on counts, which do not depend on
the host's fsync latency: at depth 8 a request pays at most 1/8 of the
journal fsyncs a serial request pays, and fsyncs per request never rise
with depth.  Throughput is printed and recorded, not asserted: since the
batch barrier stopped sleeping out the window for a lone session, serial
requests run at fsync speed and their distance to depth 8 is whatever
the host's fsync makes it.
"""

from __future__ import annotations

import time

from repro import AttributeSpec
from repro.bench import print_table
from repro.server import Client, ServerThread
from repro.storage.durable import DurableDatabase

#: Writes per measured configuration.
OPS = 96
DEPTHS = (2, 4, 8, 16)


def _serial(client, uid, count):
    for i in range(count):
        client.set_value(uid, "Status", f"s{i}")


def _pipelined(client, uid, count, depth):
    done = 0
    while done < count:
        batch = min(depth, count - done)
        pipe = client.pipeline()
        for i in range(done, done + batch):
            pipe.set_value(uid, "Status", f"s{i}")
        pipe.flush()
        done += batch


def _measure(label, fn, journal):
    fsyncs = journal.fsyncs
    started = time.perf_counter()
    fn()
    elapsed = time.perf_counter() - started
    return {
        "config": label,
        "requests": OPS,
        "req_per_sec": OPS / elapsed,
        "mean_latency_ms": 1000.0 * elapsed / OPS,
        "fsyncs_per_request": (journal.fsyncs - fsyncs) / OPS,
    }


def test_b20_pipelining(tmp_path, benchmark):
    database = DurableDatabase(str(tmp_path / "data"), sync_policy="group")
    rows = []
    try:
        with ServerThread(database=database,
                          group_commit_window=0.002) as handle:
            with Client(port=handle.port) as admin:
                admin.make_class("Part", attributes=[
                    AttributeSpec("Serial", domain="integer"),
                    AttributeSpec("Status", domain="string"),
                ])
                uid = admin.make("Part",
                                 values={"Serial": 1, "Status": "new"})

            with Client(port=handle.port) as client:
                rows.append(_measure(
                    "serial-v2",
                    lambda c=client: _serial(c, uid, OPS),
                    database.journal,
                ))
            for depth in DEPTHS:
                with Client(port=handle.port) as client:
                    rows.append(_measure(
                        f"pipelined-v2@{depth}",
                        lambda c=client, d=depth: _pipelined(c, uid, OPS, d),
                        database.journal,
                    ))

            fsyncs = {row["config"]: row["fsyncs_per_request"]
                      for row in rows}
            # The acceptance claim: every serial autocommit pays its own
            # barrier fsync; a pipelined batch pays one for all its
            # members, so depth 8 costs at most 1/8 of serial's.
            assert 8 * fsyncs["pipelined-v2@8"] <= fsyncs["serial-v2"]
            # Deeper batches never pay more fsyncs per request.
            per_depth = [fsyncs[f"pipelined-v2@{d}"] for d in DEPTHS]
            assert per_depth == sorted(per_depth, reverse=True)

            print_table(rows, title=f"B20 — pipelined vs serial durable "
                                    f"writes ({OPS} ops)")

            with Client(port=handle.port) as client:

                def kernel():
                    _pipelined(client, uid, 24, 8)
                    return True

                benchmark.pedantic(kernel, rounds=5, iterations=1)
    finally:
        database.close()
