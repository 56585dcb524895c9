"""The network subsystem: codec, sessions, and cross-client locking.

The end-to-end tests run the real asyncio server (on its own thread) and
talk to it over real TCP sockets with the blocking client — two
concurrent clients provoke a composite-lock conflict and a deadlock
abort, exercising the Section 7 protocol across connections.
"""

from __future__ import annotations

import socket
import struct
import threading
import time

import pytest

from repro import AttributeSpec, Database, SetOf, UID
from repro.errors import (
    AccessDenied,
    DeadlockError,
    LockConflictError,
    TopologyError,
    TransactionStateError,
    UnknownObjectError,
)
from repro.server import (
    Client,
    MAX_FRAME_BYTES,
    ProtocolError,
    ServerThread,
    build_error,
    decode_payload,
)
from repro.server.protocol import (
    FrameBuffer,
    check_request,
    encode_error_bytes,
    encode_request_bytes,
    encode_result_bytes,
    frame_length,
)

pytestmark = pytest.mark.usefixtures("owns_nothing")


# ---------------------------------------------------------------------------
# Codec
# ---------------------------------------------------------------------------


def wire_round_trip(value):
    """*value* as a result frame carries it across the wire."""
    frame = decode_payload(2, encode_result_bytes(2, 1, value)[4:])
    assert frame["id"] == 1 and frame["ok"] is True
    return frame["result"]


class TestWireCodec:
    def test_scalars_round_trip(self):
        for value in (None, True, False, 0, -7, 3.25, "héllo", ""):
            assert wire_round_trip(value) == value

    def test_uid_round_trips_as_real_uid(self):
        uid = UID(42, "Vehicle")
        decoded = wire_round_trip(uid)
        assert decoded == uid
        assert isinstance(decoded, UID)
        assert decoded.class_name == "Vehicle"

    def test_set_of_round_trips(self):
        decoded = wire_round_trip(SetOf("Paragraph"))
        assert decoded == SetOf("Paragraph")

    def test_nested_structures(self):
        value = {"uids": [UID(1, "A"), UID(2, "B")],
                 "spec": {"domain": SetOf("A")},
                 "plain": [1, [2, {"x": None}]]}
        assert wire_round_trip(value) == value

    def test_unencodable_values_raise(self):
        # An old codec silently degraded these to str(value) — a lossy
        # one-way trip the receiver could not distinguish from a real
        # string.  Strictness is the fix: garbage in, typed error out.
        with pytest.raises(ProtocolError):
            encode_result_bytes(2, 1, object)
        with pytest.raises(ProtocolError):
            encode_result_bytes(2, 1, {"x": {1, 2, 3}})

    def test_bytes_round_trip(self):
        for value in (b"", b"\x00\xff", "snow☃".encode()):
            decoded = wire_round_trip(value)
            assert decoded == value
            assert isinstance(decoded, bytes)

    def test_non_string_dict_keys_round_trip(self):
        value = {1: "one", (2, "b"): UID(3, "C"), None: [b"\x01"]}
        decoded = wire_round_trip(value)
        assert decoded == value

    def test_frame_round_trip(self):
        data = encode_request_bytes(2, 3, "ping", {})
        assert frame_length(data[:4]) == len(data) - 4
        assert decode_payload(2, data[4:]) == {
            "id": 3, "op": "ping", "args": {}}

    def test_oversized_frame_rejected_by_length_prefix(self):
        prefix = struct.pack(">I", MAX_FRAME_BYTES + 1)
        with pytest.raises(ProtocolError):
            frame_length(prefix)

    def test_truncated_prefix_rejected(self):
        with pytest.raises(ProtocolError):
            frame_length(b"\x00\x00")

    def test_non_json_payload_rejected(self):
        # JSON is no frame: a legacy JSON payload is a typed refusal.
        for payload in (b'{"id":1,"op":"ping","args":{}}',
                        b"\xff\xfe not json"):
            with pytest.raises(ProtocolError):
                decode_payload(2, payload)

    def test_non_object_payload_rejected(self):
        with pytest.raises(ProtocolError):
            decode_payload(2, b"[1, 2, 3]")

    def test_request_validation(self):
        with pytest.raises(ProtocolError):
            check_request({"op": "ping"})  # no id
        with pytest.raises(ProtocolError):
            check_request({"id": 1})  # no op
        with pytest.raises(ProtocolError):
            check_request({"id": 1, "op": "ping", "args": []})


class TestErrorMarshalling:
    def _round_trip(self, error):
        frame = decode_payload(2, encode_error_bytes(2, 9, error)[4:])
        assert frame["ok"] is False
        return build_error(frame["error"])

    def test_unknown_object_keeps_typed_uid(self):
        rebuilt = self._round_trip(UnknownObjectError(UID(5, "Vehicle")))
        assert isinstance(rebuilt, UnknownObjectError)
        assert rebuilt.uid == UID(5, "Vehicle")
        assert isinstance(rebuilt.uid, UID)

    def test_deadlock_carries_victim_and_cycle_ids(self):
        class FakeTxn:
            def __init__(self, txn_id):
                self.txn_id = txn_id

        error = DeadlockError("boom", victim=FakeTxn(7),
                              cycle=(FakeTxn(3), FakeTxn(7)))
        rebuilt = self._round_trip(error)
        assert isinstance(rebuilt, DeadlockError)
        assert rebuilt.victim == 7
        assert rebuilt.cycle == [3, 7]

    def test_lock_conflict_keeps_resource(self):
        error = LockConflictError("no", resource=("instance", UID(1, "A")))
        rebuilt = self._round_trip(error)
        assert isinstance(rebuilt, LockConflictError)
        assert rebuilt.resource == ["instance", UID(1, "A")]

    def test_unknown_code_degrades_gracefully(self):
        rebuilt = build_error({"code": "FROM_THE_FUTURE", "message": "hm"})
        assert "FROM_THE_FUTURE" in str(rebuilt)

    def test_non_repro_exception_becomes_internal(self):
        frame = decode_payload(
            2, encode_error_bytes(2, 1, ValueError("oops"))[4:])
        assert frame["error"]["code"] == "INTERNAL"
        assert frame["error"]["data"]["type"] == "ValueError"


# ---------------------------------------------------------------------------
# End-to-end over real TCP
# ---------------------------------------------------------------------------


def vehicle_schema(client):
    client.make_class("AutoBody", attributes=[
        AttributeSpec("Color", domain="string")])
    client.make_class("Engine")
    client.make_class(
        "Vehicle",
        attributes=[
            AttributeSpec("Body", domain="AutoBody", composite=True,
                          exclusive=True, dependent=True),
            AttributeSpec("Engines", domain=SetOf("Engine"), composite=True,
                          exclusive=True, dependent=True),
            AttributeSpec("Color", domain="string"),
        ],
    )


@pytest.fixture
def server():
    with ServerThread(lock_wait_timeout=5.0) as handle:
        yield handle


@pytest.fixture
def client(server):
    with Client(port=server.port, timeout=20.0) as c:
        yield c


@pytest.fixture
def client2(server):
    with Client(port=server.port, timeout=20.0) as c:
        yield c


def _raw_hello(port, versions):
    """The decoded answer to a hello offering *versions* on a bare socket."""
    with socket.create_connection(("127.0.0.1", port), timeout=5.0) as sock:
        sock.sendall(encode_request_bytes(2, 1, "hello",
                                          {"versions": versions}))
        frames = FrameBuffer()
        while not (batch := frames.take(1)):
            frames.feed(sock.recv(65536))
    return decode_payload(2, batch[0])


class TestBasicOps:
    def test_handshake_negotiates_version(self, server, client):
        # Version 2 is the one version: the client's hello offers it and
        # the server names it back, whatever else a hello offers.
        assert client.protocol_version == 2
        assert client.session_id is not None
        assert client.ping() == "pong"
        hello = _raw_hello(server.port, [1, 2])
        assert hello["ok"] is True and hello["result"]["version"] == 2

    def test_schema_and_data_ops(self, client):
        vehicle_schema(client)
        body = client.make("AutoBody")
        vehicle = client.make("Vehicle",
                              values={"Body": body, "Color": "red"})
        assert isinstance(vehicle, UID)
        assert client.value(vehicle, "Color") == "red"
        client.set_value(vehicle, "Color", "blue")
        snapshot = client.resolve(vehicle)
        assert snapshot["class"] == "Vehicle"
        assert snapshot["values"]["Color"] == "blue"
        assert snapshot["values"]["Body"] == body

    def test_composite_navigation(self, client):
        vehicle_schema(client)
        body = client.make("AutoBody")
        engine = client.make("Engine")
        vehicle = client.make("Vehicle", values={"Body": body})
        assert client.insert_into(vehicle, "Engines", engine) is True
        assert sorted(client.components_of(vehicle)) == sorted([body, engine])
        assert client.parents_of(body) == [vehicle]
        assert client.roots_of(engine) == [vehicle]
        assert client.remove_from(vehicle, "Engines", engine) is True
        assert client.components_of(vehicle) == [body]

    def test_bottom_up_assembly_over_the_wire(self, client):
        vehicle_schema(client)
        vehicle = client.make("Vehicle")
        engine = client.make("Engine")
        assert client.make_part_of(engine, vehicle, "Engines") is True
        assert client.children_of(vehicle) == [engine]
        assert client.remove_part_of(engine, vehicle, "Engines") is True
        assert client.children_of(vehicle) == []

    def test_delete_reports_cascade(self, client):
        vehicle_schema(client)
        body = client.make("AutoBody")
        vehicle = client.make("Vehicle", values={"Body": body})
        report = client.delete(vehicle)
        assert set(report["deleted"]) == {vehicle, body}  # dependent cascade
        with pytest.raises(UnknownObjectError):
            client.resolve(body)

    def test_instances_of_and_describe(self, client):
        vehicle_schema(client)
        made = {client.make("AutoBody") for _ in range(3)}
        assert set(client.instances_of("AutoBody")) == made
        description = client.describe("Vehicle")
        assert description["class"] == "Vehicle"
        assert any("Body" in line for line in description["attributes"])

    def test_query_evaluation(self, client):
        vehicle_schema(client)
        client.make("Vehicle", values={"Color": "red"})
        blue = client.make("Vehicle", values={"Color": "blue"})
        results = client.query('(select Vehicle (= Color "blue"))')
        assert results == [[blue]]

    def test_typed_errors_cross_the_wire(self, client):
        vehicle_schema(client)
        with pytest.raises(UnknownObjectError) as exc_info:
            client.value(UID(999, "Vehicle"), "Color")
        assert exc_info.value.uid == UID(999, "Vehicle")

    def test_unknown_op_is_protocol_error(self, client):
        with pytest.raises(ProtocolError):
            client.call("no_such_op")

    def test_stats_counters(self, client, client2):
        client.ping()
        client2.ping()
        stats = client.stats()
        assert stats["server"]["sessions_opened"] >= 2
        assert stats["server"]["requests"] >= 2
        assert stats["server"]["bytes_in"] > 0
        assert stats["server"]["bytes_out"] > 0
        assert stats["session"]["requests"] >= 1

    def test_version_negotiation_rejects_unknown_versions(self, server):
        frame = _raw_hello(server.port, [99])
        assert frame["ok"] is False
        assert frame["error"]["code"] == "PROTOCOL"

    def test_malformed_first_frame_fails_cleanly(self, server, client):
        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=5.0) as sock:
            sock.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1) + b"x")
            # Server hangs up (possibly after a best-effort error frame).
            sock.settimeout(5.0)
            while True:
                if not sock.recv(4096):
                    break
        assert client.ping() == "pong"  # the server survived


class TestTransactions:
    def test_explicit_commit_persists(self, client, client2):
        vehicle_schema(client)
        vehicle = client.make("Vehicle", values={"Color": "red"})
        client.begin()
        client.set_value(vehicle, "Color", "green")
        client.commit()
        assert client2.value(vehicle, "Color") == "green"

    def test_abort_rolls_back(self, client):
        vehicle_schema(client)
        vehicle = client.make("Vehicle", values={"Color": "red"})
        client.begin()
        client.set_value(vehicle, "Color", "green")
        client.abort()
        assert client.value(vehicle, "Color") == "red"

    def test_transaction_scope_aborts_on_error(self, client):
        vehicle_schema(client)
        vehicle = client.make("Vehicle", values={"Color": "red"})
        with pytest.raises(RuntimeError):
            with client.transaction():
                client.set_value(vehicle, "Color", "green")
                raise RuntimeError("client-side failure")
        assert client.value(vehicle, "Color") == "red"

    def test_refused_set_value_and_abort_leave_fsck_clean(self, client):
        vehicle_schema(client)
        mine, theirs = client.make("AutoBody"), client.make("AutoBody")
        vehicle = client.make("Vehicle", values={"Body": mine})
        client.make("Vehicle", values={"Body": theirs})
        with pytest.raises(TopologyError):
            client.set_value(vehicle, "Body", theirs)
        fsck = client.check("fsck")["fsck"]
        assert fsck["ok"], fsck["findings"]
        assert client.value(vehicle, "Body") == mine
        client.begin()
        client.delete(vehicle)
        client.abort()
        fsck = client.check("fsck")["fsck"]
        assert fsck["ok"], fsck["findings"]
        assert client.parents_of(mine) == [vehicle]

    def test_nested_begin_rejected(self, client):
        client.begin()
        with pytest.raises(TransactionStateError):
            client.begin()
        client.abort()

    def test_disconnect_aborts_and_releases_locks(self, server, client2):
        doomed = Client(port=server.port, timeout=20.0)
        vehicle_schema(doomed)
        vehicle = doomed.make("Vehicle", values={"Color": "red"})
        doomed.begin()
        doomed.set_value(vehicle, "Color", "green")  # X locks held
        doomed.close()  # dies without commit
        deadline = time.time() + 5.0
        while time.time() < deadline:  # session teardown is async
            try:
                client2.set_value(vehicle, "Color", "blue")
                break
            except LockConflictError:
                time.sleep(0.05)
        assert client2.value(vehicle, "Color") == "blue"  # change rolled back

    def test_reconnect_with_backoff_outside_transaction(self, client):
        client._sock.close()  # simulate a dropped connection
        assert client.ping() == "pong"

    def test_connection_loss_inside_transaction_raises(self, client):
        vehicle_schema(client)
        vehicle = client.make("Vehicle", values={"Color": "red"})
        client.begin()
        client.set_value(vehicle, "Color", "green")
        client._sock.close()
        with pytest.raises(ConnectionError):
            client.value(vehicle, "Color")
        # After the explicit reconnect the rollback is observable.
        client.connect()
        assert client.value(vehicle, "Color") == "red"


class TestCrossClientLocking:
    """Two real clients contending through the Section 7 protocol."""

    def test_write_write_conflict_on_composite_root_blocks(
        self, client, client2
    ):
        """Acceptance: a write-write conflict on a shared composite root
        blocks until the holder commits, then proceeds."""
        vehicle_schema(client)
        body = client.make("AutoBody")
        vehicle = client.make("Vehicle",
                              values={"Body": body, "Color": "red"})

        client.begin()
        client.set_value(vehicle, "Color", "green")  # X on the root

        release_order = []

        def blocked_writer():
            client2.set_value(vehicle, "Color", "yellow")
            release_order.append("writer-done")

        thread = threading.Thread(target=blocked_writer)
        thread.start()
        time.sleep(0.4)  # long enough for client2 to be queued
        assert not release_order, "writer must block while the X lock is held"
        release_order.append("commit")
        client.commit()
        thread.join(timeout=10.0)
        assert release_order == ["commit", "writer-done"]
        assert client.value(vehicle, "Color") == "yellow"
        assert client.stats()["server"]["lock_waits"] >= 1

    def test_composite_plan_blocks_component_writer(self):
        """Reading a whole composite (components_of under an explicit
        transaction) holds ISO on the component classes; a direct write on
        a *component* from another client needs IX on that class, which
        conflicts — one granule covers the whole composite (Section 7)."""
        with ServerThread(lock_wait_timeout=0.4) as handle:
            reader = Client(port=handle.port, timeout=20.0)
            writer = Client(port=handle.port, timeout=20.0)
            try:
                vehicle_schema(reader)
                body = reader.make("AutoBody")
                vehicle = reader.make("Vehicle", values={"Body": body})

                reader.begin()
                reader.components_of(vehicle)  # ISO on AutoBody, held to commit
                started = time.time()
                with pytest.raises(LockConflictError):
                    writer.set_value(body, "Color", "x")
                assert time.time() - started >= 0.3  # queued, then timed out
                reader.commit()
                writer.set_value(body, "Color", "x")  # granted after release
            finally:
                reader.close()
                writer.close()

    def test_deadlock_across_clients_aborts_victim(self, client, client2):
        """Acceptance: a wait-for cycle spanning two connections is
        detected; the younger transaction gets a DeadlockError and its
        transaction is rolled back server-side."""
        vehicle_schema(client)
        a = client.make("Vehicle", values={"Color": "a"})
        b = client.make("Vehicle", values={"Color": "b"})

        client.begin()
        client2.begin()
        client.set_value(a, "Color", "a1")   # T1: X on a
        client2.set_value(b, "Color", "b1")  # T2: X on b

        outcome = {}

        def crossing(c, uid, key):
            try:
                c.set_value(uid, "Color", "x")
                outcome[key] = "ok"
            except DeadlockError as error:
                outcome[key] = error

        t1 = threading.Thread(target=crossing, args=(client, b, "t1"))
        t2 = threading.Thread(target=crossing, args=(client2, a, "t2"))
        t1.start()
        time.sleep(0.3)  # T1 queues first, completing the cycle via T2
        t2.start()
        t1.join(timeout=15.0)
        t2.join(timeout=15.0)

        victims = [k for k, v in outcome.items()
                   if isinstance(v, DeadlockError)]
        assert len(victims) == 1, f"exactly one victim expected: {outcome}"
        survivor = "t1" if victims == ["t2"] else "t2"
        assert outcome[survivor] == "ok"
        error = outcome[victims[0]]
        assert error.victim is not None

        # The victim's transaction is gone server-side...
        victim_client = client if victims == ["t1"] else client2
        with pytest.raises(TransactionStateError):
            victim_client.commit()
        # ...and the survivor can commit.
        survivor_client = client if survivor == "t1" else client2
        survivor_client.commit()
        stats = client.stats()["server"]
        assert stats["deadlock_aborts"] >= 1

    def test_disjoint_composites_do_not_interfere(self, client, client2):
        """The paper's headline property, across connections: writers of
        different composites sharing one class hierarchy never block."""
        vehicle_schema(client)
        v1 = client.make("Vehicle", values={"Color": "x"})
        v2 = client2.make("Vehicle", values={"Color": "y"})
        client.begin()
        client2.begin()
        client.set_value(v1, "Color", "x2")
        client2.set_value(v2, "Color", "y2")  # would block under class locks
        client.commit()
        client2.commit()
        assert client.value(v1, "Color") == "x2"
        assert client.value(v2, "Color") == "y2"


class TestLockdepSites:
    def test_inversion_witnesses_name_the_ops_and_sessions(
        self, client, client2
    ):
        """The server's recorder stores the wire op, session and
        transaction as each grant's acquisition site: an inversion's two
        witnesses say which request of which connection took the locks,
        which the (identical) serve-loop Python stack never did."""
        vehicle_schema(client)
        v1 = client.make("Vehicle", values={"Color": "a"})
        v2 = client.make("Vehicle", values={"Color": "b"})
        # Opposite orders on two connections, one after the other: no
        # lock ever waited, the inversion is latent.
        for connection, ordering in ((client, (v1, v2)), (client2, (v2, v1))):
            connection.begin()
            for vehicle in ordering:
                connection.set_value(vehicle, "Color", "x")
            connection.commit()
        findings = client.check(plane="lockdep")["lockdep"]["findings"]
        inversion = next(
            finding["detail"] for finding in findings
            if finding["rule"] == "LOCKDEP-INVERSION"
        )
        witnesses = [inversion["witness_forward"], inversion["witness_reverse"]]
        sessions = set()
        for witness in witnesses:
            for stack in (witness["held_stack"], witness["acquire_stack"]):
                op, session, txn = stack
                assert op == "set_value"
                assert txn == f"txn {witness['txn']}"
                sessions.add(session)
        assert sessions == {
            f"session {client.session_id}", f"session {client2.session_id}"
        }


class TestAuthorization:
    def test_access_checks_route_through_engine(self):
        from repro.authorization.engine import AuthorizationEngine

        db = Database()
        db.make_class("Doc", attributes=[
            AttributeSpec("Title", domain="string")])
        doc = db.make("Doc", values={"Title": "secret"})
        engine = AuthorizationEngine(db)
        engine.grant("alice", "sW", database=True)
        engine.grant("bob", "sR", on_instance=doc)

        with ServerThread(database=db, auth=engine) as handle:
            alice = Client(port=handle.port, user="alice")
            bob = Client(port=handle.port, user="bob")
            try:
                # W implies R for alice; bob may read but not write.
                alice.set_value(doc, "Title", "updated")
                assert bob.value(doc, "Title") == "updated"
                with pytest.raises(AccessDenied):
                    bob.set_value(doc, "Title", "defaced")
                # An unauthenticated session is denied outright.
                nobody = Client(port=handle.port)
                with pytest.raises(AccessDenied):
                    nobody.value(doc, "Title")
                nobody.close()
            finally:
                alice.close()
                bob.close()

    def test_instances_of_filters_unreadable(self):
        from repro.authorization.engine import AuthorizationEngine

        db = Database()
        db.make_class("Doc")
        visible = db.make("Doc")
        db.make("Doc")  # hidden
        engine = AuthorizationEngine(db)
        engine.grant("carol", "sR", on_instance=visible)
        with ServerThread(database=db, auth=engine) as handle:
            with Client(port=handle.port, user="carol") as carol:
                assert carol.instances_of("Doc") == [visible]


class TestMalformedUidArgument:
    """A UID argument that is not a UID is a ProtocolError, as the shard
    router answers it, before authorization or the store hash it."""

    CALLS = (
        ("value", {"attribute": "Title"}),
        ("resolve", {}),
        ("set_value", {"attribute": "Title", "value": "x"}),
        ("delete", {}),
        ("components_of", {}),
    )

    @pytest.mark.parametrize("with_auth", [False, True])
    def test_refused_and_the_connection_still_works(self, with_auth):
        from repro.authorization.engine import AuthorizationEngine

        db = Database()
        db.make_class("Doc", attributes=[
            AttributeSpec("Title", domain="string")])
        doc = db.make("Doc", values={"Title": "kept"})
        engine = None
        if with_auth:
            engine = AuthorizationEngine(db)
            engine.grant("alice", "sW", database=True)
        with ServerThread(database=db, auth=engine) as handle:
            with Client(port=handle.port, user="alice") as client:
                for op, extra in self.CALLS:
                    for bad in ([1], {"a": 1}, 5):
                        with pytest.raises(ProtocolError,
                                           match="requires a UID argument"):
                            client.call(op, uid=bad, **extra)
                with pytest.raises(ProtocolError, match="'child'"):
                    client.call("make_part_of", child=[1], parent=doc,
                                attribute="Title")
                assert client.value(doc, "Title") == "kept"


class TestAsyncClient:
    def test_async_client_full_cycle(self, server):
        import asyncio

        from repro.server import AsyncClient

        async def scenario():
            async with AsyncClient(port=server.port) as c:
                await c.make_class("Part", attributes=[
                    {"name": "n", "domain": "integer"}])
                part = await c.make("Part", values={"n": 1})
                async with c.transaction():
                    await c.set_value(part, "n", 2)
                assert await c.value(part, "n") == 2
                with pytest.raises(UnknownObjectError):
                    await c.value(UID(10_000, "Part"), "n")
                return await c.ping()

        assert asyncio.run(scenario()) == "pong"
