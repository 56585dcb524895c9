"""Network fault injection end-to-end: real server, real sockets,
armed failpoints.

Covers the ISSUE's server/client satellites: frame drop/garble/kill on
the wire, client retry classification under injected socket faults,
seeded-jitter reconnect backoff, mid-op disconnect cleanup, deadlock
abort under perturbed timing, and the server's degrade-to-read-only
path when the journal fails persistently.
"""

from __future__ import annotations

import asyncio
import contextlib
import random
import socket
import threading
import time

import pytest

from repro import Database
from repro.errors import (
    DeadlockError,
    ReadOnlyError,
    StorageError,
    TransactionStateError,
)
from repro.faults import fault_scope
from repro.server import AsyncClient, Client, ProtocolError, ServerThread
from repro.server.protocol import (
    RECV_BYTES,
    FrameBuffer,
    WireProtocol,
    decode_payload,
    encode_request_bytes,
    encode_result_bytes,
    frame_bytes,
)
from repro.storage.durable import DurableDatabase

pytestmark = pytest.mark.usefixtures("owns_nothing")

STRING_ATTR = {"name": "Text", "domain": "string"}


def _doc_schema(client):
    client.make_class("Doc", attributes=[STRING_ATTR])


@pytest.fixture()
def handle():
    with ServerThread(database=Database()) as server:
        yield server


# ---------------------------------------------------------------------------
# Wire-frame faults (server.send_frame / server.recv_frame)
# ---------------------------------------------------------------------------


class TestServerWireFaults:
    def test_garbled_response_is_a_typed_protocol_error(self, handle):
        with Client(port=handle.port) as client:
            with fault_scope() as faults:
                faults.add("server.send_frame", "garble")
                with pytest.raises(ProtocolError):
                    client.ping()

    def test_dropped_request_times_out_client_side(self, handle):
        client = Client(port=handle.port, timeout=0.5, max_retries=0)
        try:
            with fault_scope() as faults:
                faults.add("server.recv_frame", "drop")
                with pytest.raises(TimeoutError, match="no response"):
                    client.ping()
        finally:
            client.close()

    def test_dropped_response_times_out_client_side(self, handle):
        client = Client(port=handle.port, timeout=0.5, max_retries=0)
        try:
            with fault_scope() as faults:
                faults.add("server.send_frame", "drop")
                with pytest.raises(TimeoutError):
                    client.ping()
        finally:
            client.close()

    def test_killed_connection_retryable_op_reconnects(self, handle):
        with Client(port=handle.port, max_retries=4, backoff=0.01) as client:
            with fault_scope() as faults:
                faults.add("server.send_frame", "kill")
                # The first response dies with the connection; ping is
                # retryable, so the client reconnects (fresh handshake)
                # and re-sends.
                assert client.ping() == "pong"
                assert faults.hit_count("server.send_frame") >= 2

    def test_killed_connection_mid_mutation_raises(self, handle):
        with Client(port=handle.port, max_retries=4, backoff=0.01) as client:
            _doc_schema(client)
            with fault_scope() as faults:
                faults.add("server.send_frame", "kill")
                with pytest.raises(ConnectionError, match="may have executed"):
                    client.make("Doc")
            # The make DID execute server-side before the response died —
            # exactly why it must not be blind-retried.
            assert len(client.instances_of("Doc")) == 1

    def test_delayed_frames_only_slow_things_down(self, handle):
        with Client(port=handle.port) as client:
            with fault_scope() as faults:
                faults.add("server.send_frame", "delay", delay_s=0.05,
                           count=None)
                started = time.monotonic()
                assert client.ping() == "pong"
                assert time.monotonic() - started >= 0.05


# ---------------------------------------------------------------------------
# One write per server batch; server.send_frame still fires per frame
# ---------------------------------------------------------------------------

DEPTH = 8


def _docs(client):
    _doc_schema(client)
    return [client.make("Doc", values={"Text": f"d{i}"})
            for i in range(DEPTH)]


class TestBatchWrites:
    def test_one_write_per_batch_one_failpoint_hit_per_frame(
            self, handle, monkeypatch):
        with Client(port=handle.port) as client:
            docs = _docs(client)
            batches = client.stats()["server"]["pipelined_batches"]
            writes = []
            write = WireProtocol.write

            def counted(wire, data):
                writes.append(len(data))
                return write(wire, data)

            monkeypatch.setattr(WireProtocol, "write", counted)
            with fault_scope() as faults:
                pipe = client.pipeline()
                handles = [pipe.value(doc, "Text") for doc in docs]
                pipe.flush()
                assert faults.hit_count("server.send_frame") == DEPTH
            assert len(writes) == 1
            monkeypatch.undo()
            assert [h.result() for h in handles] == \
                [f"d{i}" for i in range(DEPTH)]
            stats = client.stats()["server"]
            assert stats["pipelined_batches"] == batches + 1

    def test_garbled_third_frame(self, handle):
        with Client(port=handle.port) as client:
            docs = _docs(client)
            with fault_scope() as faults:
                faults.add("server.send_frame", "garble", nth=3)
                pipe = client.pipeline()
                handles = [pipe.value(doc, "Text") for doc in docs]
                with pytest.raises(ProtocolError):
                    pipe.flush()
            assert [h.result() for h in handles[:2]] == ["d0", "d1"]
            assert not any(h.done for h in handles[2:])

    def test_delayed_fifth_frame_lets_the_first_four_through(self, handle):
        client = Client(port=handle.port, timeout=0.5, max_retries=0)
        try:
            docs = _docs(client)
            with fault_scope() as faults:
                faults.add("server.send_frame", "delay", nth=5, delay_s=2.0)
                pipe = client.pipeline()
                handles = [pipe.value(doc, "Text") for doc in docs]
                # Frames 1-4 went out before the delay: only frame 5's
                # wait outlasts the client's deadline.
                with pytest.raises(TimeoutError):
                    pipe.flush()
            assert [h.result() for h in handles[:4]] == \
                ["d0", "d1", "d2", "d3"]
            assert not any(h.done for h in handles[4:])
        finally:
            client.close()

    def test_killed_fifth_frame_of_a_mutating_batch(self, handle):
        with Client(port=handle.port, max_retries=4, backoff=0.01) as client:
            docs = _docs(client)
            with fault_scope() as faults:
                faults.add("server.send_frame", "kill", nth=5)
                pipe = client.pipeline()
                handles = [pipe.set_value(doc, "Text", f"e{i}")
                           for i, doc in enumerate(docs)]
                with pytest.raises(ConnectionError, match="may have executed"):
                    pipe.flush()
            assert all(h.done for h in handles[:4])
            assert not any(h.done for h in handles[4:])
            # The whole batch ran before its responses were written.
            assert [client.value(doc, "Text") for doc in docs] == \
                [f"e{i}" for i in range(DEPTH)]


# ---------------------------------------------------------------------------
# No stale bytes after a reconnect (scripted peer: exact partial frames)
# ---------------------------------------------------------------------------


class _Wire:
    """The scripted peer's side of one connection."""

    def __init__(self, conn):
        self.conn = conn
        self.frames = FrameBuffer()

    def next_frame(self):
        """The next decoded frame, or None once the other side hangs up."""
        batch = self.frames.take(1)
        while not batch:
            chunk = self.conn.recv(RECV_BYTES)
            if not chunk:
                return None
            self.frames.feed(chunk)
            batch = self.frames.take(1)
        return decode_payload(2, batch[0])

    def hello(self):
        frame = self.next_frame()
        assert 2 in frame["args"]["versions"]
        self.conn.sendall(self.answer(frame, {
            "version": 2, "session": 1, "pipeline": DEPTH,
        }))

    def answer(self, frame, result):
        return encode_result_bytes(2, frame["id"], result)


class _ScriptedPeer:
    """A listener that plays one script per accepted connection, in order."""

    def __init__(self, *scripts):
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.port = self._listener.getsockname()[1]
        self._scripts = scripts
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self):
        with contextlib.suppress(OSError):
            for script in self._scripts:
                conn, _peer = self._listener.accept()
                with conn, contextlib.suppress(OSError):
                    script(_Wire(conn))

    def close(self):
        self._thread.join(timeout=10.0)
        self._listener.close()
        assert not self._thread.is_alive(), "a scripted connection never came"


def _late_pong(wire):
    wire.hello()
    pong = wire.answer(wire.next_frame(), "pong")
    wire.conn.sendall(pong[:3])
    time.sleep(0.5)  # the rest arrives after the client gave up
    wire.conn.sendall(pong[3:])


WHOAMI = {"user": None, "session": 2}


def _fresh_whoami(wire):
    wire.hello()
    wire.conn.sendall(wire.answer(wire.next_frame(), WHOAMI))
    wire.next_frame()  # until the client hangs up


class TestNoStaleBytes:
    def test_batch_killed_mid_frame_resends_on_a_clean_buffer(self):
        def dying(wire):
            wire.hello()
            pings = [wire.next_frame() for _ in range(3)]
            answers = b"".join(wire.answer(ping, "pong") for ping in pings)
            wire.conn.sendall(answers[:-5])  # 2 frames and most of a third

        def healthy(wire):
            wire.hello()
            for _ in range(3):
                wire.conn.sendall(wire.answer(wire.next_frame(), "pong"))
            wire.next_frame()

        peer = _ScriptedPeer(dying, healthy)
        try:
            with Client(port=peer.port, max_retries=2, backoff=0.01) as client:
                pipe = client.pipeline()
                handles = [pipe.call("ping") for _ in range(3)]
                pipe.flush()
                assert [h.result() for h in handles] == ["pong"] * 3
        finally:
            peer.close()

    def test_timed_out_ping_leaves_no_late_pong_behind(self):
        peer = _ScriptedPeer(_late_pong, _fresh_whoami)
        try:
            with Client(port=peer.port, max_retries=2, backoff=0.01) as client:
                with pytest.raises(TimeoutError):
                    client.ping(timeout=0.2)
                assert client.whoami() == WHOAMI
        finally:
            peer.close()

    def test_async_timed_out_ping_leaves_no_late_pong_behind(self):
        peer = _ScriptedPeer(_late_pong, _fresh_whoami)

        async def scenario():
            client = AsyncClient(port=peer.port)
            await client.connect()
            with pytest.raises(TimeoutError):
                await client.ping(timeout=0.2)
            await client.connect()
            try:
                return await client.whoami()
            finally:
                await client.close()

        try:
            assert asyncio.run(scenario()) == WHOAMI
        finally:
            peer.close()


class TestAsyncHandshakeFailure:
    def test_garbage_hello_answer_closes_the_stream(self, monkeypatch):
        hung_up = []

        def garbage_hello(wire):
            wire.next_frame()
            wire.conn.sendall(frame_bytes(b"\xffnot a frame"))
            wire.conn.settimeout(5.0)
            hung_up.append(wire.conn.recv(RECV_BYTES) == b"")

        peer = _ScriptedPeer(garbage_hello)
        opened = []
        connection_made = WireProtocol.connection_made

        def recording(wire, transport):
            opened.append(transport)
            return connection_made(wire, transport)

        monkeypatch.setattr(WireProtocol, "connection_made", recording)

        async def scenario():
            with pytest.raises(ProtocolError):
                await AsyncClient(port=peer.port).connect()
            # Closed before connect() re-raised: the caller never got a
            # client object to close.
            assert [transport.is_closing() for transport in opened] == \
                [True]

        try:
            asyncio.run(scenario())
        finally:
            peer.close()
        assert hung_up == [True]


class TestCancelledClose:
    def test_connection_lost_after_a_cancelled_close_logs_nothing(self):
        """A ``close()`` cancelled while it waits for the loss (a stop
        that cancels its tasks) has cancelled the closed future; the loss
        that then arrives must not set a result on it."""
        logged = []

        async def scenario():
            loop = asyncio.get_running_loop()
            loop.set_exception_handler(
                lambda _loop, context: logged.append(context))
            ours, theirs = socket.socketpair()
            try:
                _transport, wire = await loop.create_connection(
                    WireProtocol, sock=ours)
                closing = asyncio.ensure_future(wire.close())
                await asyncio.sleep(0)
                closing.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await closing
                for _ in range(3):
                    await asyncio.sleep(0)
                assert wire._lost
            finally:
                theirs.close()

        asyncio.run(scenario())
        assert logged == []


# ---------------------------------------------------------------------------
# Bounded receive memory
# ---------------------------------------------------------------------------


def _reads_of(doc, count):
    """*count* pipelined ``value`` requests for *doc*'s text, ids from 1."""
    return b"".join(
        encode_request_bytes(2, i, "value", {"uid": doc, "attribute": "Text"})
        for i in range(1, count + 1)
    )


class TestBoundedReceiveMemory:
    def test_flood_is_answered_in_order_within_one_refill(
            self, handle, monkeypatch):
        held = []
        feed = FrameBuffer.feed

        def metered(frames, data):
            feed(frames, data)
            if threading.current_thread().name == "repro-server":
                held.append(len(frames))

        monkeypatch.setattr(FrameBuffer, "feed", metered)
        count = 5000
        flood = b"".join(encode_request_bytes(2, i, "ping", {})
                         for i in range(1, count + 1))
        frame_size = len(flood) // count
        assert len(flood) > RECV_BYTES  # needs more than one refill
        with socket.create_connection(("127.0.0.1", handle.port),
                                      timeout=30.0) as sock:
            wire = _Wire(sock)
            sock.sendall(
                encode_request_bytes(2, 0, "hello", {"versions": [2]})
            )
            assert wire.next_frame()["result"]["version"] == 2
            sender = threading.Thread(target=sock.sendall, args=(flood,))
            sender.start()
            answers = [wire.next_frame() for _ in range(count)]
            sender.join(timeout=30.0)
            assert not sender.is_alive()
        assert [answer["id"] for answer in answers] == \
            list(range(1, count + 1))
        assert all(answer["result"] == "pong" for answer in answers)
        # The server reads only when no whole frame is buffered: one
        # refill plus (at most) one partial frame.
        assert max(held) <= RECV_BYTES + frame_size - 1

    def test_flood_behind_a_lock_wait_stays_within_one_refill(
            self, handle, monkeypatch):
        # Bytes reach the server whenever its loop is idle, not when the
        # session asks: a session parked in a lock wait must still stop
        # being read once a whole refill of complete frames waits.
        held = []
        feed = FrameBuffer.feed

        def metered(frames, data):
            feed(frames, data)
            if threading.current_thread().name == "repro-server":
                held.append(len(frames))

        with Client(port=handle.port) as owner:
            _doc_schema(owner)
            doc = owner.make("Doc", values={"Text": "before"})
            owner.begin()
            owner.set_value(doc, "Text", "after")  # X lock held
            monkeypatch.setattr(FrameBuffer, "feed", metered)
            count = 5000
            blocked = encode_request_bytes(
                2, 1, "value", {"uid": doc, "attribute": "Text"}
            )
            flood = b"".join(encode_request_bytes(2, i, "ping", {})
                             for i in range(2, count + 2))
            frame_size = len(flood) // count
            assert len(flood) > RECV_BYTES
            with socket.create_connection(("127.0.0.1", handle.port),
                                          timeout=30.0) as sock:
                wire = _Wire(sock)
                sock.sendall(
                    encode_request_bytes(2, 0, "hello", {"versions": [2]})
                )
                assert wire.next_frame()["result"]["version"] == 2
                sender = threading.Thread(target=sock.sendall,
                                          args=(blocked + flood,))
                sender.start()
                deadline = time.monotonic() + 10.0
                while not (held and held[-1] >= RECV_BYTES):
                    assert time.monotonic() < deadline, "never filled"
                    time.sleep(0.01)
                feeds = len(held)
                time.sleep(0.2)
                # Paused: nothing more is read while the lock is held.
                assert len(held) == feeds
                owner.commit()
                answers = [wire.next_frame() for _ in range(count + 1)]
                sender.join(timeout=30.0)
                assert not sender.is_alive()
        assert [answer["id"] for answer in answers] == \
            list(range(1, count + 2))
        assert answers[0]["result"] == "after"
        assert all(answer["result"] == "pong" for answer in answers[1:])
        assert max(held) <= RECV_BYTES + frame_size - 1

    def test_a_peer_that_never_reads_stops_being_read(
            self, handle, monkeypatch):
        reading = []
        pause_writing = WireProtocol.pause_writing

        def recording(wire):
            pause_writing(wire)
            reading.append(wire.transport.is_reading())

        def served():
            return handle.submit(lambda: handle.server.stats.requests)

        text = "x" * 16384
        with Client(port=handle.port) as client:
            _doc_schema(client)
            doc = client.make("Doc", values={"Text": text})
        count = 2000
        flood = _reads_of(doc, count)
        assert len(flood) > RECV_BYTES
        monkeypatch.setattr(WireProtocol, "pause_writing", recording)
        before = served()
        with socket.create_connection(("127.0.0.1", handle.port),
                                      timeout=30.0) as sock:
            wire = _Wire(sock)
            sock.sendall(
                encode_request_bytes(2, 0, "hello", {"versions": [2]})
            )
            assert wire.next_frame()["result"]["version"] == 2
            sender = threading.Thread(target=sock.sendall, args=(flood,))
            sender.start()
            deadline = time.monotonic() + 10.0
            while not reading:
                assert time.monotonic() < deadline, "writing never paused"
                time.sleep(0.01)
            stalled = served()
            time.sleep(0.2)
            assert served() == stalled < before + count
            answers = [wire.next_frame() for _ in range(count)]
            sender.join(timeout=30.0)
            assert not sender.is_alive()
        # Every pause of the writer paused the reader with it.
        assert not any(reading)
        assert [answer["id"] for answer in answers] == \
            list(range(1, count + 1))
        assert all(answer["result"] == text for answer in answers)

    def test_stop_is_not_held_by_a_peer_that_never_reads(self, monkeypatch):
        paused = threading.Event()
        pause_writing = WireProtocol.pause_writing

        def recording(wire):
            pause_writing(wire)
            paused.set()

        server = ServerThread(database=Database()).start()
        thread = server._thread
        try:
            with Client(port=server.port) as client:
                _doc_schema(client)
                doc = client.make("Doc", values={"Text": "x" * 16384})
            monkeypatch.setattr(WireProtocol, "pause_writing", recording)
            flood = _reads_of(doc, 2000)
            with socket.create_connection(("127.0.0.1", server.port),
                                          timeout=30.0) as sock:
                sock.sendall(
                    encode_request_bytes(2, 0, "hello", {"versions": [2]})
                )
                sender = threading.Thread(target=sock.sendall,
                                          args=(flood,), daemon=True)
                sender.start()
                assert paused.wait(timeout=10.0)
                started = time.monotonic()
                server.stop()
                assert time.monotonic() - started < 5.0
                assert not thread.is_alive()
        finally:
            server.stop()


# ---------------------------------------------------------------------------
# Client-side socket faults (client.send / client.recv)
# ---------------------------------------------------------------------------


class TestClientSocketFaults:
    def test_injected_send_fault_retries_retryable_op(self, handle):
        with Client(port=handle.port, max_retries=4, backoff=0.01) as client:
            with fault_scope() as faults:
                faults.add("client.send", "error")
                assert client.ping() == "pong"
                # Hit 1 errored; the reconnect handshake and the re-sent
                # ping account for the rest.
                assert faults.hit_count("client.send") >= 2

    def test_injected_recv_fault_on_mutation_raises(self, handle):
        with Client(port=handle.port, max_retries=4, backoff=0.01) as client:
            _doc_schema(client)
            with fault_scope() as faults:
                faults.add("client.recv", "error")
                with pytest.raises(ConnectionError, match="may have executed"):
                    client.make("Doc")

    def test_injected_fault_inside_transaction_scope_raises(self, handle):
        with Client(port=handle.port, max_retries=4, backoff=0.01) as client:
            _doc_schema(client)
            client.begin()
            with fault_scope() as faults:
                faults.add("client.send", "error")
                with pytest.raises(ConnectionError,
                                   match="inside a transaction"):
                    client.ping()

    def test_reconnect_backoff_is_jittered_and_seeded(self, handle,
                                                      monkeypatch):
        client = Client(port=handle.port, max_retries=3, backoff=0.05,
                        jitter=0.5, rng=random.Random(7))
        handle.stop()
        delays = []
        monkeypatch.setattr("repro.server.client.time.sleep", delays.append)
        with pytest.raises(ConnectionError, match="could not reach"):
            client.call("ping")
        client.close()

        reference = random.Random(7)
        expected = [
            0.05 * 2 ** (attempt - 1) * (1 - 0.5 * reference.random())
            for attempt in (1, 2, 3)
        ]
        assert delays == pytest.approx(expected)
        for attempt, delay in zip((1, 2, 3), delays, strict=True):
            assert 0 < delay <= 0.05 * 2 ** (attempt - 1)

    def test_zero_jitter_keeps_exact_schedule(self, handle, monkeypatch):
        client = Client(port=handle.port, max_retries=2, backoff=0.04,
                        jitter=0)
        handle.stop()
        delays = []
        monkeypatch.setattr("repro.server.client.time.sleep", delays.append)
        with pytest.raises(ConnectionError):
            client.call("ping")
        client.close()
        assert delays == pytest.approx([0.04, 0.08])


# ---------------------------------------------------------------------------
# Session cleanup and deadlock abort under perturbed timing
# ---------------------------------------------------------------------------


class TestSessionRobustness:
    def test_mid_op_disconnect_releases_locks_and_stays_consistent(self):
        with ServerThread(database=Database(),
                          lock_wait_timeout=5.0) as handle:
            orphan = Client(port=handle.port)
            _doc_schema(orphan)
            uid = orphan.make("Doc", values={"Text": "start"})
            orphan.begin()
            orphan.set_value(uid, "Text", "orphaned")  # X lock held
            orphan.close()  # abrupt: no abort, no goodbye

            survivor = Client(port=handle.port, timeout=10.0)
            try:
                # The server reaps the dead session and aborts its
                # transaction; the queued write below is granted once
                # the X lock releases (well inside the wait timeout).
                survivor.set_value(uid, "Text", "after")
                assert survivor.value(uid, "Text") == "after"
                report = survivor.call("check", plane="fsck")
                assert report["ok"], report
            finally:
                survivor.close()

    def test_deadlock_abort_under_injected_frame_delay(self):
        # The classic crossing writers, with every server response
        # delayed a little to perturb timing: the wait-for cycle must
        # still resolve to exactly one DeadlockError victim.
        with ServerThread(database=Database()) as handle:
            c1 = Client(port=handle.port, timeout=30.0)
            c2 = Client(port=handle.port, timeout=30.0)
            try:
                _doc_schema(c1)
                a = c1.make("Doc", values={"Text": "a"})
                b = c1.make("Doc", values={"Text": "b"})
                with fault_scope() as faults:
                    faults.add("server.send_frame", "delay", delay_s=0.005,
                               count=None)
                    c1.begin()
                    c2.begin()
                    c1.set_value(a, "Text", "a1")  # T1: X on a
                    c2.set_value(b, "Text", "b1")  # T2: X on b

                    outcome = {}

                    def crossing(client, uid, key):
                        try:
                            client.set_value(uid, "Text", "x")
                            outcome[key] = "ok"
                        except DeadlockError as error:
                            outcome[key] = error

                    t1 = threading.Thread(target=crossing, args=(c1, b, "t1"))
                    t2 = threading.Thread(target=crossing, args=(c2, a, "t2"))
                    t1.start()
                    time.sleep(0.3)
                    t2.start()
                    t1.join(timeout=15.0)
                    t2.join(timeout=15.0)

                victims = [key for key, value in outcome.items()
                           if isinstance(value, DeadlockError)]
                assert len(victims) == 1, f"one victim expected: {outcome}"
                survivor = "t1" if victims == ["t2"] else "t2"
                assert outcome[survivor] == "ok"
                victim_client = c1 if victims == ["t1"] else c2
                survivor_client = c2 if victims == ["t1"] else c1
                with pytest.raises(TransactionStateError):
                    victim_client.commit()
                survivor_client.commit()
            finally:
                c1.close()
                c2.close()


# ---------------------------------------------------------------------------
# Degrade to read-only on persistent journal failure
# ---------------------------------------------------------------------------


class TestReadOnlyDegrade:
    def test_journal_failure_degrades_to_typed_read_only(self, tmp_path):
        db = DurableDatabase(tmp_path / "store", sync_policy="commit")
        with ServerThread(database=db) as handle:
            client = Client(port=handle.port)
            try:
                _doc_schema(client)
                uid = client.make("Doc", values={"Text": "durable"})

                with fault_scope() as faults:
                    faults.add("journal.fsync", "error", count=None)
                    client.call("begin")
                    client.call("set_value", uid=uid, attribute="Text",
                                value="lost")
                    # The commit cannot be made durable: a typed
                    # StorageError reaches the client, never a silent ack.
                    with pytest.raises(StorageError):
                        client.call("commit")

                # The server survived the failure in read-only mode:
                # mutations are rejected with the typed wire error...
                with pytest.raises(ReadOnlyError, match="read-only"):
                    client.set_value(uid, "Text", "rejected")
                with pytest.raises(ReadOnlyError):
                    client.make("Doc")
                with pytest.raises(ReadOnlyError):
                    client.query('(instances "Doc")')
                # ...reads keep being served from the in-memory state.
                # That state includes the failed commit's effects (the
                # client was TOLD the commit is not durable); read-only
                # mode bounds the divergence, and a restart below rolls
                # it back to the durable prefix.
                assert client.value(uid, "Text") == "lost"
                assert client.ping() == "pong"
                # The stats op reports the degraded state.
                stats = client.stats()
                assert stats["server"]["read_only"] is True
                assert stats["durability"]["failed"] is True
            finally:
                client.close()
        db.journal.abandon()

        # Restart: recovery is clean and lands on a captured state.  The
        # failed commit's batch was flushed (marker included) before the
        # fsync raised, so a process restart still sees it — it is a
        # *power* cut that would lose it, which is CrashSim territory
        # (tests/test_crashsim.py covers that with the same fault).
        from repro.storage.journal import Journal

        recovered = Database()
        Journal.recover_into(recovered, tmp_path / "store")
        assert recovered.value(uid, "Text") == "lost"
        assert recovered.fsck().clean

    def test_read_only_server_still_accepts_new_sessions(self, tmp_path):
        db = DurableDatabase(tmp_path / "store", sync_policy="commit")
        with ServerThread(database=db) as handle:
            first = Client(port=handle.port)
            _doc_schema(first)
            uid = first.make("Doc", values={"Text": "kept"})
            with fault_scope() as faults:
                faults.add("journal.fsync", "error", count=None)
                with pytest.raises(StorageError):
                    first.make("Doc", values={"Text": "lost"})
            first.close()

            late = Client(port=handle.port)
            try:
                assert late.value(uid, "Text") == "kept"
                with pytest.raises(ReadOnlyError):
                    late.set_value(uid, "Text", "no")
            finally:
                late.close()
        db.close()  # quiet on a failed journal; frees journal.log
