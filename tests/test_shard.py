"""The sharding subsystem: placement, coordinator log, router, cluster.

The unit half exercises placement arithmetic and the 2PC decision log
in-process.  The end-to-end half starts *real* clusters — N spawned
worker processes plus an asyncio router process, talking over real TCP
— and drives them with the blocking client: single-shard fast-path
commits, cross-shard two-phase commits, coordinator and participant
crashes at armed 2PC failpoints, and worker failover with the client's
reconnect handshake.
"""

from __future__ import annotations

import asyncio
import json
import os
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import UID, Database
from repro.errors import (
    ClassDefinitionError,
    ShardError,
    ShardUnavailableError,
    StorageError,
    TransactionStateError,
)
from repro.faults import fault_scope
from repro.faults.registry import FailpointRegistry
from repro.server import Client, ProtocolError, ServerThread
from repro.server.protocol import (
    FrameBuffer,
    WireProtocol,
    decode_payload,
    encode_request_bytes,
)
from repro.shard.placement import (
    Manifest,
    audit_cluster,
    ensure_manifest,
    make_policy,
    read_endpoint,
    shard_dir_name,
    shard_of_uid,
    write_endpoint,
)
from repro.shard.router import ShardRouter
from repro.shard.twopc import COORD_LOG_NAME, CoordinatorLog
from repro.shard.worker import ShardCluster
from repro.workloads.txmix import run_tcp_mix, single_root_mix, tcp_fixture


# ---------------------------------------------------------------------------
# Placement units
# ---------------------------------------------------------------------------


class TestPlacement:
    def test_shard_of_uid_matches_strided_allocation(self):
        for shards in (1, 2, 3, 5):
            for shard_id in range(shards):
                for k in range(4):
                    number = (shard_id + 1) + k * shards
                    uid = UID(number, "Thing")
                    assert shard_of_uid(uid, shards) == shard_id

    def test_round_robin_cycles(self):
        policy = make_policy("round_robin", 3)
        assert [policy.place_free("A") for _ in range(6)] == [
            0, 1, 2, 0, 1, 2,
        ]

    def test_hash_class_is_stable_and_in_range(self):
        policy = make_policy("hash_class", 4)
        for name in ("Vehicle", "Body", "Engine", "Chassis"):
            first = policy.place_free(name)
            assert 0 <= first < 4
            assert policy.place_free(name) == first
            assert make_policy("hash_class", 4).place_free(name) == first

    def test_unknown_policy_raises(self):
        with pytest.raises(ShardError, match="unknown placement policy"):
            make_policy("mystery", 2)

    def test_manifest_round_trips(self, tmp_path):
        manifest = Manifest(shards=3, policy="hash_class",
                            sync_policy="group")
        manifest.save(tmp_path)
        loaded = Manifest.load(tmp_path)
        assert loaded.to_dict() == manifest.to_dict()
        assert loaded.shard_path(tmp_path, 2) == \
            tmp_path / shard_dir_name(2)

    def test_ensure_manifest_refuses_layout_change(self, tmp_path):
        ensure_manifest(tmp_path, shards=2)
        again = ensure_manifest(tmp_path, shards=2)
        assert again.shards == 2
        with pytest.raises(ShardError, match="refusing to reopen"):
            ensure_manifest(tmp_path, shards=3)
        with pytest.raises(ShardError, match="refusing to reopen"):
            ensure_manifest(tmp_path, shards=2, policy="hash_class")

    def test_newer_manifest_version_rejected(self, tmp_path):
        manifest = Manifest(shards=1)
        data = manifest.to_dict()
        data["version"] = 99
        (tmp_path / "manifest.json").write_text(json.dumps(data))
        with pytest.raises(StorageError, match="newer"):
            Manifest.load(tmp_path)

    def test_endpoint_round_trips(self, tmp_path):
        write_endpoint(tmp_path, "127.0.0.1", 4957)
        endpoint = read_endpoint(tmp_path)
        assert endpoint["host"] == "127.0.0.1"
        assert endpoint["port"] == 4957
        assert endpoint["pid"] == os.getpid()

    def test_endpoint_missing_or_corrupt_is_none(self, tmp_path):
        assert read_endpoint(tmp_path) is None
        (tmp_path / "endpoint.json").write_text("{torn")
        assert read_endpoint(tmp_path) is None
        (tmp_path / "endpoint.json").write_text('{"host": "x"}')
        assert read_endpoint(tmp_path) is None


class TestCoordinatorLog:
    def test_decide_and_load_round_trip(self, tmp_path):
        log = CoordinatorLog.in_root(tmp_path)
        log.decide("g1", "commit", shards=[0, 1])
        log.decide("g2", "abort", shards=[1])
        assert CoordinatorLog.in_root(tmp_path).load() == {
            "g1": "commit", "g2": "abort",
        }

    def test_torn_tail_is_not_a_decision(self, tmp_path):
        log = CoordinatorLog.in_root(tmp_path)
        log.decide("g1", "commit", shards=[0])
        with open(tmp_path / COORD_LOG_NAME, "ab") as handle:
            handle.write(b'{"gtid": "g2", "outc')  # crash mid-append
        assert CoordinatorLog.in_root(tmp_path).load() == {"g1": "commit"}

    def test_torn_first_line_keeps_glued_decisions(self, tmp_path):
        # A crash mid-append leaves no trailing newline, so the next
        # coordinator's fsynced decisions physically concatenate onto
        # the torn bytes: the same *physical* line then holds garbage
        # followed by real decisions, which must not be thrown away.
        with open(tmp_path / COORD_LOG_NAME, "wb") as handle:
            handle.write(b'{"gtid": "g0", "outc')  # torn very first line
        log = CoordinatorLog.in_root(tmp_path)
        log.decide("g1", "commit", shards=[0])
        log.decide("g2", "abort", shards=[1])
        raw = (tmp_path / COORD_LOG_NAME).read_bytes()
        assert raw.startswith(b'{"gtid": "g0", "outc{')  # really glued
        assert CoordinatorLog.in_root(tmp_path).load() == {
            "g1": "commit", "g2": "abort",
        }

    def test_duplicate_gtid_keeps_the_first_decision(self, tmp_path):
        # The first fsynced line was the commit point and a participant
        # may already have applied it; a later contradictory line (a
        # buggy or replayed coordinator) must never win.
        log = CoordinatorLog.in_root(tmp_path)
        log.decide("g1", "commit", shards=[0])
        log.decide("g1", "abort", shards=[0])
        assert CoordinatorLog.in_root(tmp_path).load() == {"g1": "commit"}


class TestInDoubtSettle:
    """The worker's pre-serve in-doubt settlement, driven in-process:
    real journals and recovery, no sockets."""

    def _in_doubt_db(self, tmp_path, gtid="g1"):
        """A recovered shard holding one prepared-but-undecided batch."""
        from repro.storage.durable import DurableDatabase
        from repro.txn.manager import TransactionManager

        directory = tmp_path / "shard-00"
        db = DurableDatabase(str(directory), sync_policy="commit")
        db.make_class("Doc", attributes=[
            {"name": "Stamp", "domain": "integer"},
        ])
        manager = TransactionManager(db)
        txn = manager.begin()
        manager.make(txn, "Doc", values={"Stamp": 7})
        db.journal.prepare_txn(txn, gtid)
        db.journal.abandon()  # the crash simulator's power cut
        recovered = DurableDatabase(str(directory), sync_policy="commit")
        assert gtid in recovered.in_doubt
        return recovered

    def test_grace_expiry_presumes_abort(self, tmp_path):
        import asyncio
        from types import SimpleNamespace

        db = self._in_doubt_db(tmp_path)
        from repro.shard.worker import _settle_in_doubt

        spec = SimpleNamespace(
            coord_log=str(tmp_path / COORD_LOG_NAME), grace=0.05,
        )
        asyncio.run(_settle_in_doubt(db, spec))
        assert not db.in_doubt
        assert not db.instances_of("Doc")  # the batch was dropped
        db.close()
        # The resolution was journaled (R record): the next recovery
        # does not re-raise the doubt.
        from repro.storage.durable import DurableDatabase

        again = DurableDatabase(str(tmp_path / "shard-00"),
                                sync_policy="commit")
        assert not again.in_doubt
        assert not again.instances_of("Doc")
        again.close()

    def test_decision_arriving_during_grace_commits(self, tmp_path):
        import asyncio
        from types import SimpleNamespace

        db = self._in_doubt_db(tmp_path)
        from repro.shard.worker import _settle_in_doubt

        log = CoordinatorLog.in_root(tmp_path)
        spec = SimpleNamespace(coord_log=str(log.path), grace=10.0)

        async def scenario():
            async def decide_soon():
                await asyncio.sleep(0.15)
                log.decide("g1", "commit", shards=[0])

            deliver = asyncio.ensure_future(decide_soon())
            await _settle_in_doubt(db, spec)
            await deliver

        asyncio.run(scenario())
        assert not db.in_doubt
        assert len(db.instances_of("Doc")) == 1  # the commit applied
        db.close()

    def test_decision_already_logged_needs_no_grace(self, tmp_path):
        import asyncio
        from types import SimpleNamespace

        db = self._in_doubt_db(tmp_path)
        from repro.shard.worker import _settle_in_doubt

        log = CoordinatorLog.in_root(tmp_path)
        log.decide("g1", "abort", shards=[0])
        spec = SimpleNamespace(coord_log=str(log.path), grace=10.0)
        started = time.monotonic()
        asyncio.run(_settle_in_doubt(db, spec))
        assert time.monotonic() - started < 5.0  # no grace wait
        assert not db.in_doubt
        assert not db.instances_of("Doc")
        db.close()


# ---------------------------------------------------------------------------
# Live clusters (spawned worker + router processes)
# ---------------------------------------------------------------------------


def _vehicle_schema(client):
    client.make_class("Body")
    client.make_class("Car", attributes=[
        {"name": "Body", "domain": "Body", "composite": True,
         "exclusive": True, "dependent": True},
    ])


class TestClusterEndToEnd:
    def test_happy_path(self, tmp_path):
        with ShardCluster(tmp_path, shards=2) as cluster:
            client = Client(port=cluster.router_port, timeout=20.0)
            assert client.ping() == "pong"
            _vehicle_schema(client)

            # Free objects spread round-robin; each shard allocates on
            # its own UID stride.
            cars = [client.make("Car") for _ in range(4)]
            assert {shard_of_uid(uid, 2) for uid in cars} == {0, 1}

            # Composite children are co-located with their parent.
            body = client.make("Body", parents=[(cars[0], "Body")])
            assert shard_of_uid(body, 2) == shard_of_uid(cars[0], 2)

            # Single-shard transaction: fast path, no 2PC.
            with client.transaction():
                client.set_value(cars[0], "Body", None)
            # Cross-shard transaction: two-phase commit.
            with client.transaction():
                client.set_value(cars[0], "Body", body)
                client.set_value(cars[1], "Body", None)
            stats = client.stats()["router"]
            assert stats["fast_commits"] == 1
            assert stats["twopc_commits"] == 1
            assert stats["twopc_aborts"] == 0

            # Scatter ops union the shards.
            assert sorted(u.number for u in client.instances_of("Car")) \
                == sorted(u.number for u in cars)
            # The live placement audit runs on every shard.
            assert client.check("placement")["ok"]
            client.close()
        report = audit_cluster(tmp_path)
        assert report.ok, report.to_dict()

    def test_bottom_up_make_anchors_on_composite_values(self, tmp_path):
        """make(values={composite: uid}) must land on the component's
        shard; components scattered over different shards are refused
        with a typed error (UIDs cannot migrate under striding)."""
        with ShardCluster(tmp_path, shards=2) as cluster:
            client = Client(port=cluster.router_port, timeout=20.0)
            client.make_class("Body")
            client.make_class("Tandem", attributes=[
                {"name": "FrontBody", "domain": "Body", "composite": True},
                {"name": "RearBody", "domain": "Body", "composite": True},
                {"name": "Tag", "domain": "string"},
            ])

            # Free bodies spread round-robin until both shards hold one.
            bodies = [client.make("Body") for _ in range(2)]
            assert {shard_of_uid(uid, 2) for uid in bodies} == {0, 1}

            # One component: the parent is co-located with it, not
            # placed by the free-object policy.
            for body in bodies:
                tandem = client.make("Tandem", values={"FrontBody": body})
                assert shard_of_uid(tandem, 2) == shard_of_uid(body, 2)

            # Components on different shards: refused, typed, and the
            # message says how to build the hierarchy instead.
            with pytest.raises(ShardError, match="root's shard"):
                client.make("Tandem", values={"FrontBody": bodies[0],
                                              "RearBody": bodies[1]})

            # Weak (non-composite) references still have to *resolve*
            # on the owning shard, so they anchor placement when no
            # composite constraint does.
            client.make_class("Note", attributes=[
                {"name": "About", "domain": "Tandem"},
            ])
            for _ in range(2):
                note = client.make("Note", values={"About": tandem})
                assert shard_of_uid(note, 2) == shard_of_uid(tandem, 2)
            client.close()
        assert audit_cluster(tmp_path).ok

    def test_txmix_workload_through_router(self, tmp_path):
        with ShardCluster(tmp_path, shards=2) as cluster:
            client = Client(port=cluster.router_port, timeout=20.0)
            roots, components = tcp_fixture(client, roots=4,
                                            parts_per_root=2)
            for root in roots:
                for part in components[root]:
                    assert shard_of_uid(part, 2) == shard_of_uid(root, 2)
            scripts = single_root_mix(roots, transactions=8,
                                      steps_per_txn=3, seed=11)
            stats = run_tcp_mix(client, scripts)
            assert stats["transactions"] == 8
            assert stats["ops"] == 24
            router = client.stats()["router"]
            # Single-root scripts on co-located hierarchies never span
            # shards: every commit takes the fast path.
            assert router["twopc_commits"] == 0
            assert router["fast_commits"] + router["trivial_commits"] == 8
            client.close()
        assert audit_cluster(tmp_path).ok

    def test_kill_one_worker_failover(self, tmp_path):
        """A restarted worker is rediscovered, and the client's
        reconnect runs a fresh handshake (new session, clean state)."""
        with ShardCluster(tmp_path, shards=2) as cluster:
            client = Client(port=cluster.router_port, timeout=20.0)
            _vehicle_schema(client)
            cars = [client.make("Car") for _ in range(2)]
            victim = next(u for u in cars if shard_of_uid(u, 2) == 1)
            session_before = client.session_id

            assert cluster.kill_worker(1) is not None
            cluster.restart_worker(1)
            # resolve is retryable: the client reconnects (re-running the
            # version handshake) and the router re-dials the worker's
            # freshly published endpoint.
            assert client.resolve(victim)["class"] == "Car"
            with client.transaction():
                client.set_value(victim, "Body", None)
            assert client.session_id is not None
            assert session_before is not None
            client.close()
        assert audit_cluster(tmp_path).ok

    def test_coordinator_killed_after_logging_commit(self, tmp_path):
        """The decision fsync is the commit point: a coordinator killed
        right after it leaves both participants parked, and the
        restarted router's reconciliation delivers the commit."""
        cluster = ShardCluster(
            tmp_path, shards=2,
            router_failpoints=[{
                "site": "coord.decided", "action": "kill", "nth": 1,
                "count": 1, "torn_bytes": 8, "delay_s": 0.0, "message": "",
            }],
        )
        with cluster:
            client = Client(port=cluster.router_port, timeout=20.0,
                            max_retries=0)
            _vehicle_schema(client)
            cars = [client.make("Car") for _ in range(2)]
            client.begin()
            for car in cars:
                client.set_value(car, "Body", None)
            with pytest.raises((ConnectionError, TimeoutError)):
                client.commit()
            client.close()
            assert cluster.wait_router() == 17

            cluster.restart_router()
            client = Client(port=cluster.router_port, timeout=20.0)
            for car in cars:
                assert client.value(car, "Body") is None
            assert client.check("placement")["ok"]
            client.close()
        assert audit_cluster(tmp_path).ok

    def test_worker_killed_after_prepare_aborts(self, tmp_path):
        """A participant that dies between its durable prepare and its
        vote makes the coordinator abort; the restarted worker finds the
        abort in the log and rolls back."""
        cluster = ShardCluster(
            tmp_path, shards=2,
            worker_failpoints={1: [{
                "site": "twopc.prepared", "action": "kill", "nth": 1,
                "count": 1, "torn_bytes": 8, "delay_s": 0.0, "message": "",
            }]},
        )
        with cluster:
            client = Client(port=cluster.router_port, timeout=20.0)
            _vehicle_schema(client)
            cars = [client.make("Car") for _ in range(2)]
            body = client.make("Body", parents=[(cars[0], "Body")])
            client.begin()
            for car in cars:
                client.set_value(car, "Body", None)
            with pytest.raises(ShardUnavailableError):
                client.commit()
            assert cluster.wait_worker(1) == 17

            cluster.restart_worker(1)
            assert client.value(cars[0], "Body") == body  # rolled back
            assert client.check("placement")["ok"]
            client.close()
        assert audit_cluster(tmp_path).ok


# ---------------------------------------------------------------------------
# The router runs the server's session loop: pipelining, one write per
# batch, server.* failpoints (in-process workers and router)
# ---------------------------------------------------------------------------

DEPTH = 8


@pytest.fixture()
def router(tmp_path):
    """A 2-shard router over two in-memory workers, all in this process.

    The router runs on worker 0's event loop, so a failpoint armed here
    fires in the workers *and* the router (see :class:`_RouterOnly`).
    """
    manifest = ensure_manifest(tmp_path, shards=2)
    workers = []
    try:
        for shard_id in range(2):
            db = Database()
            db.allocator.restride(0, shard_id, 2)
            worker = ServerThread(database=db, shard_info=(shard_id, 2))
            workers.append(worker.start())
            directory = manifest.shard_path(tmp_path, shard_id)
            directory.mkdir(parents=True, exist_ok=True)
            write_endpoint(directory, "127.0.0.1", worker.port)
        shard_router = ShardRouter(tmp_path)
        workers[0].submit(shard_router.start())
        try:
            yield shard_router
        finally:
            workers[0].submit(shard_router.stop())
    finally:
        for worker in workers:
            worker.stop()


class _RouterOnly(FailpointRegistry):
    """Count and trigger failpoints only where ``server`` is the router."""

    def __init__(self, router):
        super().__init__()
        self.router = router

    def fire(self, site, **ctx):
        if ctx.get("server") is not self.router:
            return None
        return super().fire(site, **ctx)


def _routed_docs(client):
    client.make_class("Doc", attributes=[{"name": "Text", "domain": "string"}])
    return [client.make("Doc", values={"Text": f"d{i}"})
            for i in range(DEPTH)]


class TestRouterSessionLoop:
    def test_pipelined_batch_is_one_write_of_raw_relays(
            self, router, monkeypatch):
        with Client(port=router.port, timeout=20.0) as client:
            docs = _routed_docs(client)
            assert {shard_of_uid(uid, 2) for uid in docs} == {0, 1}
            before = client.stats()["router"]
            writes = []
            write = WireProtocol.write

            def counted(wire, data):
                # Only the router's client-facing side: not the workers,
                # not the router's upstream connections.
                sockname = wire.transport.get_extra_info("sockname")
                if sockname[1] == router.port:
                    writes.append(len(data))
                return write(wire, data)

            monkeypatch.setattr(WireProtocol, "write", counted)
            with fault_scope(_RouterOnly(router)) as faults:
                pipe = client.pipeline()
                handles = [pipe.value(doc, "Text") for doc in docs]
                pipe.flush()
                assert faults.hit_count("server.recv_frame") == DEPTH
                assert faults.hit_count("server.send_frame") == DEPTH
            monkeypatch.undo()
            assert len(writes) == 1
            assert [h.result() for h in handles] == \
                [f"d{i}" for i in range(DEPTH)]
            after = client.stats()["router"]
            assert after["raw_relays"] == before["raw_relays"] + DEPTH
            assert after["pipelined_batches"] == \
                before["pipelined_batches"] + 1
            assert after["bytes_in"] > before["bytes_in"]
            assert after["bytes_out"] > before["bytes_out"]

    def test_garbled_third_frame_at_the_router(self, router):
        with Client(port=router.port, timeout=20.0) as client:
            docs = _routed_docs(client)
            with fault_scope(_RouterOnly(router)) as faults:
                faults.add("server.send_frame", "garble", nth=3)
                pipe = client.pipeline()
                handles = [pipe.value(doc, "Text") for doc in docs]
                with pytest.raises(ProtocolError):
                    pipe.flush()
            assert [h.result() for h in handles[:2]] == ["d0", "d1"]
            assert not any(h.done for h in handles[2:])

    def test_a_malformed_uid_argument_is_refused_as_the_server_does(
            self, router):
        # The router and the workers check the key and co-located UID
        # arguments of a WIRE_OPS row with the same helper.
        with Client(port=router.port, timeout=20.0) as client:
            doc = _routed_docs(client)[0]
            for op, args, name in (
                    ("value", {"uid": [1], "attribute": "Text"}, "uid"),
                    ("delete", {"uid": 5}, "uid"),
                    ("make_part_of", {"child": {"a": 1}, "parent": doc,
                                      "attribute": "Text"}, "child")):
                with pytest.raises(ProtocolError) as excinfo:
                    client.call(op, **args)
                assert str(excinfo.value) == (
                    f"{op!r} requires a UID argument {name!r}")
            assert client.value(doc, "Text") == "d0"

    def test_hello_reports_pipeline_and_shards(self, router):
        with socket.create_connection(("127.0.0.1", router.port),
                                      timeout=10.0) as sock:
            sock.sendall(encode_request_bytes(2, 1, "hello", {"versions": [2]}))
            frames = FrameBuffer()
            while not (batch := frames.take(1)):
                frames.feed(sock.recv(65536))
        hello = decode_payload(2, batch[0])["result"]
        assert hello["server"].startswith("repro-router/")
        assert hello["shards"] == 2
        assert hello["pipeline"] == router.max_pipeline > 1


class TestRouterSchema:
    def test_class_redefinition_is_refused_and_placement_holds(
            self, router):
        with Client(port=router.port, timeout=20.0) as client:
            _vehicle_schema(client)
            bodies = [client.make("Body") for _ in range(2)]
            assert {shard_of_uid(uid, 2) for uid in bodies} == {0, 1}
            car = client.make("Car", values={"Body": bodies[0]})
            assert shard_of_uid(car, 2) == shard_of_uid(bodies[0], 2)
            with pytest.raises(ClassDefinitionError, match="already defined"):
                client.make_class("Car")
            car = client.make("Car", values={"Body": bodies[1]})
            assert shard_of_uid(car, 2) == shard_of_uid(bodies[1], 2)


# ---------------------------------------------------------------------------
# Standalone-server satellites: --port-file, ping, reconnect handshake
# ---------------------------------------------------------------------------


class TestPortFileDiscovery:
    def test_port_zero_with_port_file(self, tmp_path):
        port_file = tmp_path / "port"
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.server",
             "--port", "0", "--port-file", str(port_file)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        )
        try:
            deadline = time.monotonic() + 15.0
            while not port_file.exists() and time.monotonic() < deadline:
                assert proc.poll() is None, proc.stdout.read().decode()
                time.sleep(0.05)
            port = int(port_file.read_text().strip())
            assert port > 0
            with Client(port=port, timeout=10.0) as client:
                assert client.ping() == "pong"
        finally:
            proc.terminate()
            proc.wait(timeout=10.0)
            proc.stdout.close()


@pytest.fixture()
def handle():
    with ServerThread() as server:
        yield server


class TestPingHealth:
    def test_ping_times_out_fast_against_a_wedged_server(self, handle):
        client = Client(port=handle.port, timeout=30.0, max_retries=0)
        try:
            with fault_scope() as faults:
                faults.add("server.send_frame", "delay", delay_s=2.0)
                started = time.monotonic()
                with pytest.raises(TimeoutError):
                    client.ping(timeout=0.3)
                elapsed = time.monotonic() - started
            # The probe used its own deadline, not the 30s one — and the
            # connection was dropped so the late pong can't mis-pair.
            assert elapsed < 2.0
            assert client._sock is None
        finally:
            client.close()

    def test_healthy_true_then_false_after_shutdown(self):
        server = ServerThread().start()
        client = Client(port=server.port, timeout=5.0, max_retries=0)
        assert client.healthy()
        server.stop()
        assert not client.healthy()
        client.close()

    def test_reconnect_runs_a_fresh_handshake(self, handle):
        client = Client(port=handle.port, timeout=10.0)
        _vehicle_schema(client)
        client.begin()
        assert client._in_transaction
        first_session = client.session_id
        client.close()
        client.connect()
        # A reconnect is a new server session: a fresh hello, a new
        # session id, and no inherited transaction state.
        assert client.protocol_version == 2
        assert client.session_id != first_session
        assert not client._in_transaction
        with pytest.raises(TransactionStateError):
            client.commit()
        client.close()
