"""Wire protocol v2, codec strictness fixes, and request pipelining.

Property-based round-trips (Hypothesis) drive the codec over nested
values — UIDs, SetOf markers, bytes, big integers, non-string dict keys,
maps shaped like the retired JSON protocol's ``$``-tags — plus
frame-size boundaries; end-to-end tests check the handshake refuses
peers that do not speak v2, exercise pipelined batches with per-request
error isolation, and kill the connection mid-pipeline to check the
retry classification holds for batches too.
"""

from __future__ import annotations

import socket
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import Database, SetOf, UID
from repro.errors import (
    LockConflictError,
    ShardUnavailableError,
    UnknownClassError,
    UnknownObjectError,
)
from repro.faults import fault_scope
from repro.server import (
    Client,
    MAX_FRAME_BYTES,
    Pipeline,
    ProtocolError,
    ServerThread,
    build_error,
)
from repro.server.protocol import (
    FrameBuffer,
    decode_payload,
    encode_error_bytes,
    encode_request_bytes,
    encode_result_bytes,
    frame_bytes,
    is_error_payload,
)

pytestmark = pytest.mark.usefixtures("owns_nothing")

# ---------------------------------------------------------------------------
# Value strategies
# ---------------------------------------------------------------------------

_texts = st.text(max_size=12)
_uids = st.builds(
    UID,
    st.integers(min_value=0, max_value=2**40),
    st.sampled_from(["Vehicle", "Doc", "Класс"]),
)
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),  # unbounded: exercises the v2 bigint tag
    st.floats(allow_nan=False, allow_infinity=False),
    _texts,
    st.binary(max_size=32),
    _uids,
    st.builds(SetOf, st.sampled_from(["Engine", "Paragraph"])),
)
_keys = st.one_of(
    _texts,
    st.integers(min_value=-(2**70), max_value=2**70),
    st.booleans(),
    st.none(),
    _uids,
    st.tuples(st.integers(), st.text(max_size=6)),
)
_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(_texts, children, max_size=4),
        st.dictionaries(_keys, children, max_size=4),
    ),
    max_leaves=16,
)


def _old_tag(name, value):
    """A map shaped like one of the retired JSON protocol's ``$``-tags
    (``$uid``, ``$set_of``, ``$bytes``, ``$nsdict``)."""
    return {"$" + name: value}


_old_tags = st.builds(
    _old_tag, st.sampled_from(["uid", "set_of", "bytes", "nsdict"]), _values
)


class TestCodecProperties:
    @given(value=st.one_of(_old_tags, _values))
    @example(value=_old_tag("uid", [1, "X"]))
    @settings(max_examples=200, deadline=None)
    def test_v1_round_trip(self, value):
        # No "$" namespace any more: a map shaped like an old tag is a
        # plain map in results, request args and error data alike.
        data = encode_result_bytes(2, 7, value)
        frame = decode_payload(2, data[4:])
        assert frame["id"] == 7 and frame["ok"] is True
        assert frame["result"] == value
        args = _old_tag("uid", value)
        data = encode_request_bytes(2, 7, "op", args)
        assert decode_payload(2, data[4:])["args"] == args
        data = encode_error_bytes(2, 7, LockConflictError("no", resource=value))
        error = build_error(decode_payload(2, data[4:])["error"])
        assert isinstance(error, LockConflictError)
        assert error.resource == value

    @given(value=_values)
    @settings(max_examples=200, deadline=None)
    def test_v2_round_trip(self, value):
        data = encode_result_bytes(2, 7, value)
        frame = decode_payload(2, data[4:])
        assert frame["id"] == 7 and frame["ok"] is True
        assert frame["result"] == value

    @given(
        request_id=st.integers(min_value=-(2**63), max_value=2**63 - 1),
        op=st.text(min_size=1, max_size=20),
        args=st.dictionaries(_texts, _values, max_size=3),
    )
    @settings(max_examples=100, deadline=None)
    def test_v2_request_round_trip(self, request_id, op, args):
        data = encode_request_bytes(2, request_id, op, args)
        frame = decode_payload(2, data[4:])
        assert frame == {"id": request_id, "op": op, "args": args}

    @given(value=_values)
    @settings(max_examples=100, deadline=None)
    def test_v2_rejects_truncation(self, value):
        data = encode_result_bytes(2, 1, value)
        payload = data[4:]
        if len(payload) > 9:  # kind + id survive; the value is cut
            with pytest.raises(ProtocolError):
                decode_payload(2, payload[:-1])
        with pytest.raises(ProtocolError):
            decode_payload(2, payload + b"\x00")  # trailing garbage


# ---------------------------------------------------------------------------
# The reference decoder: the method-per-read v2 reader the flat decoder
# replaced, kept verbatim (plus tag-offset recording) as the oracle.
# ---------------------------------------------------------------------------


class _V2Reader:
    """Sequential reader over one v2 frame payload."""

    __slots__ = ("data", "pos")

    def __init__(self, data):
        self.data = data
        self.pos = 0

    def take(self, n):
        end = self.pos + n
        if end > len(self.data):
            raise ProtocolError("truncated v2 frame")
        chunk = self.data[self.pos:end]
        self.pos = end
        return chunk

    def u32(self):
        return struct.unpack(">I", self.take(4))[0]

    def i64(self):
        return struct.unpack(">q", self.take(8))[0]

    def str(self):
        try:
            return self.take(self.u32()).decode("utf-8")
        except UnicodeDecodeError as error:
            raise ProtocolError(f"undecodable v2 string: {error}") from None


def _reference_value(reader, tags):
    tags.append(reader.pos)
    tag = reader.take(1)
    if tag == b"N":
        return None
    if tag == b"T":
        return True
    if tag == b"F":
        return False
    if tag == b"I":
        return reader.i64()
    if tag == b"J":
        return int.from_bytes(reader.take(reader.u32()), "big", signed=True)
    if tag == b"D":
        return struct.unpack(">d", reader.take(8))[0]
    if tag == b"S":
        return reader.str()
    if tag == b"B":
        return bytes(reader.take(reader.u32()))
    if tag == b"U":
        number = reader.i64()
        return UID(number, reader.str())
    if tag == b"E":
        return SetOf(reader.str())
    if tag == b"L":
        return [_reference_value(reader, tags) for _ in range(reader.u32())]
    if tag == b"M":
        return {reader.str(): _reference_value(reader, tags)
                for _ in range(reader.u32())}
    if tag == b"H":
        pairs = []
        for _ in range(reader.u32()):
            key = _reference_value(reader, tags)
            if isinstance(key, list):
                key = tuple(key)
            pairs.append((key, _reference_value(reader, tags)))
        return dict(pairs)
    raise ProtocolError(f"unknown v2 type tag {tag!r}")


def _reference_decode(data, tags=None):
    """The old ``decode_payload(2, data)``; *tags* collects the offset of
    every kind and type-tag byte it read."""
    tags = [] if tags is None else tags
    reader = _V2Reader(data)
    tags.append(0)
    kind = reader.take(1)
    request_id = reader.i64()
    if kind == b"\x01":
        op = reader.str()
        frame = {"id": request_id, "op": op,
                 "args": _reference_value(reader, tags)}
    elif kind == b"\x02":
        frame = {"id": request_id, "ok": True,
                 "result": _reference_value(reader, tags)}
    elif kind == b"\x03":
        code = reader.str()
        message = reader.str()
        data_map = _reference_value(reader, tags)
        if not isinstance(data_map, dict):
            raise ProtocolError("v2 error data must be a map")
        frame = {"id": request_id, "ok": False,
                 "error": {"code": code, "message": message,
                           "data": data_map}}
    else:
        raise ProtocolError(f"unknown v2 frame kind {kind!r}")
    if reader.pos != len(data):
        raise ProtocolError(
            f"{len(data) - reader.pos} trailing bytes after v2 frame"
        )
    return frame


_payloads = st.one_of(
    st.builds(lambda v: encode_result_bytes(2, 7, v)[4:], _values),
    st.builds(
        lambda rid, op, args: encode_request_bytes(2, rid, op, args)[4:],
        st.integers(min_value=-(2**63), max_value=2**63 - 1),
        st.text(min_size=1, max_size=8),
        st.dictionaries(_texts, _values, max_size=3),
    ),
    st.builds(
        lambda v: encode_error_bytes(2, 9, LockConflictError(
            "no", resource=v))[4:],
        _values,
    ),
)


class TestFlatDecoder:
    @given(data=_payloads)
    @settings(max_examples=300, deadline=None)
    def test_equals_the_reference_decoder(self, data):
        assert decode_payload(2, data) == _reference_decode(data)

    @given(data=_payloads)
    @settings(max_examples=100, deadline=None)
    def test_every_strict_prefix_is_a_protocol_error(self, data):
        for end in range(len(data)):
            with pytest.raises(ProtocolError):
                decode_payload(2, data[:end])

    @given(data=_payloads)
    @settings(max_examples=100, deadline=None)
    def test_corrupt_tag_bytes_fail_typed_or_decode(self, data):
        tags = []
        _reference_decode(data, tags)
        for offset in tags:
            for byte in b"NTFIJDSBUELMH\x00\x01\x02\x03\xff":
                corrupt = data[:offset] + bytes([byte]) + data[offset + 1:]
                try:
                    frame = decode_payload(2, corrupt)
                except ProtocolError:
                    continue
                assert isinstance(frame, dict) and "id" in frame
                # Where the corruption still decodes, it decodes the way
                # the reference does (repr: a reinterpreted float may be
                # NaN, which equals nothing).
                assert repr(frame) == repr(_reference_decode(corrupt))

    @given(kind=st.sampled_from([1, 2, 3]), rest=st.binary(max_size=64))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_bytes_fail_typed_or_decode(self, kind, rest):
        data = bytes([kind]) + rest
        try:
            frame = decode_payload(2, data)
        except ProtocolError:
            return
        assert isinstance(frame, dict)

    def test_absurd_nesting_is_a_protocol_error(self):
        nested = b"\x02" + struct.pack(">q", 1) \
            + b"L\x00\x00\x00\x01" * 100_000 + b"N"
        with pytest.raises(ProtocolError):
            decode_payload(2, nested)


class TestFrameBuffer:
    @given(
        values=st.lists(_values, min_size=1, max_size=8),
        cuts=st.lists(st.integers(min_value=0), max_size=12),
        limits=st.lists(st.integers(min_value=1, max_value=4), max_size=12),
    )
    @settings(max_examples=200, deadline=None)
    def test_any_split_yields_the_same_frames(self, values, cuts, limits):
        wire = [encode_result_bytes(2, i, v) for i, v in enumerate(values)]
        stream = b"".join(wire)
        bounds = sorted({cut % (len(stream) + 1) for cut in cuts})
        chunks = [stream[a:b] for a, b in
                  zip([0, *bounds], [*bounds, len(stream)], strict=True)]
        frames = FrameBuffer()
        taken = []
        for index, chunk in enumerate(chunks):
            frames.feed(chunk)
            taken += frames.take(limits[index % len(limits)] if limits
                                 else len(wire))
        taken += frames.take(len(wire))
        assert taken == [data[4:] for data in wire]
        assert len(frames) == 0 and frames.take(1) == []

    @given(length=st.integers(min_value=MAX_FRAME_BYTES + 1,
                              max_value=2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_oversized_prefix_refused_with_only_its_four_bytes(self, length):
        frames = FrameBuffer()
        prefix = struct.pack(">I", length)
        frames.feed(prefix[:3])
        with pytest.raises(ProtocolError, match="exceeds"):
            frames.feed(prefix[3:])
        assert len(frames) == 4

    def test_prefix_at_the_limit_waits_for_its_body(self):
        frames = FrameBuffer()
        frames.feed(struct.pack(">I", MAX_FRAME_BYTES))
        assert frames.take(1) == [] and len(frames) == 4


class TestFrameBoundaries:
    def test_payload_at_limit_is_framed(self):
        data = frame_bytes(b"x" * MAX_FRAME_BYTES)
        assert len(data) == 4 + MAX_FRAME_BYTES

    def test_payload_over_limit_is_refused(self):
        with pytest.raises(ProtocolError):
            frame_bytes(b"x" * (MAX_FRAME_BYTES + 1))

    def test_error_detection_by_version(self):
        error = encode_error_bytes(2, 3, ValueError("x"))[4:]
        ok = encode_result_bytes(2, 3, "fine")[4:]
        assert is_error_payload(error)
        assert not is_error_payload(ok)
        # Only the kind byte counts: a result whose *content* holds an
        # error frame is still a result, and a JSON error is no frame.
        assert not is_error_payload(encode_result_bytes(2, 3, error)[4:])
        assert not is_error_payload(b'{"id":3,"ok":false}')
        assert not is_error_payload(b"")


class TestErrorHardening:
    def test_hostile_payload_cannot_shadow_code(self):
        hostile = {
            "code": "LOCK_CONFLICT",
            "message": "hm",
            "data": {
                "code": "IM_A_TEAPOT",       # sealed: identity
                "message": "replaced",        # sealed
                "add_note": "callable name",  # not declared by the class
                "planted": 123,               # not declared at all
                "resource": ["instance", 5],  # declared: must reattach
            },
        }
        error = build_error(hostile)
        assert isinstance(error, LockConflictError)
        assert error.code == "LOCK_CONFLICT"
        assert str(error) == "hm"
        assert error.resource == ["instance", 5]
        assert not hasattr(error, "planted")
        assert callable(error.add_note)  # still the method, not a string

    def test_wire_fields_reattach_renamed_attributes(self):
        # These two classes store state under a different name than their
        # constructor parameter (or set it post-construction) — their
        # wire_fields declarations keep the attributes crossing the wire.
        shard_error = build_error({
            "code": "SHARD_UNAVAILABLE", "message": "m", "data": {"shard": 3},
        })
        assert isinstance(shard_error, ShardUnavailableError)
        assert shard_error.shard == 3
        class_error = build_error({
            "code": "UNKNOWN_CLASS", "message": "m",
            "data": {"class_name": "Ghost"},
        })
        assert isinstance(class_error, UnknownClassError)
        assert class_error.class_name == "Ghost"


# ---------------------------------------------------------------------------
# End-to-end: handshake, pipelining, disconnect semantics
# ---------------------------------------------------------------------------


@pytest.fixture()
def handle():
    with ServerThread(database=Database()) as server:
        yield server


def _doc_schema(client):
    client.make_class("Doc", attributes=[
        {"name": "Text", "domain": "string"},
        {"name": "Blob", "domain": "string"},
    ])


def _raw_exchange(port, data):
    """Send *data* on a bare socket and read until the server hangs up:
    the first answer decoded, and the payloads after it."""
    frames = FrameBuffer()
    with socket.create_connection(("127.0.0.1", port), timeout=5.0) as sock:
        sock.sendall(data)
        while chunk := sock.recv(65536):
            frames.feed(chunk)
    first, *rest = frames.take(16)
    return decode_payload(2, first), rest


class TestEndToEnd:
    def test_v2_session_full_data_path(self, handle):
        with Client(port=handle.port) as client:
            assert client.protocol_version == 2
            _doc_schema(client)
            doc = client.make("Doc", values={"Text": "héllo"})
            assert isinstance(doc, UID)
            snapshot = client.resolve(doc)
            assert snapshot["values"]["Text"] == "héllo"
            assert client.instances_of("Doc") == [doc]

    def test_v1_client_against_v2_default_server(self, handle):
        # A hello offering only version 1 is refused, typed, and the
        # connection closes.
        frame, rest = _raw_exchange(
            handle.port, encode_request_bytes(2, 1, "hello", {"versions": [1]}))
        assert frame["id"] == 1 and frame["ok"] is False
        assert frame["error"]["code"] == "PROTOCOL"
        assert "no common protocol version" in frame["error"]["message"]
        assert rest == []

    def test_handshake_advertises_pipeline_depth(self, handle):
        with Client(port=handle.port) as client:
            # The server's hello result carries its pipelining budget.
            assert client.pipeline_depth >= 1

    def test_mixed_version_sessions_share_a_server(self, handle):
        with Client(port=handle.port) as client:
            _doc_schema(client)
            doc = client.make("Doc", values={"Text": "shared"})
            # A legacy JSON hello is no frame: the server answers with a
            # typed error and hangs up instead of waiting for more.
            legacy = b'{"id":1,"op":"hello","args":{"versions":[1]}}'
            frame, rest = _raw_exchange(handle.port, frame_bytes(legacy))
            assert frame["ok"] is False
            assert frame["error"]["code"] == "PROTOCOL"
            assert rest == []
            client.set_value(doc, "Text", "still served")
            assert client.value(doc, "Text") == "still served"

    def test_image_cache_hits_on_repeated_resolve(self, tmp_path):
        # The cache keys on the journal's image digest, so it exists only
        # for journal-backed databases.
        from repro.storage.durable import DurableDatabase

        database = DurableDatabase(str(tmp_path / "data"))
        try:
            with ServerThread(database=database) as server, \
                    Client(port=server.port) as client:
                _doc_schema(client)
                doc = client.make("Doc", values={"Text": "cached"})
                first = client.resolve(doc)
                second = client.resolve(doc)
                assert first == second
                cache = client.stats()["image_cache"]
                assert cache["hits"] >= 1
                # A mutation changes the digest: the stale entry is never
                # served again.
                client.set_value(doc, "Text", "fresher")
                assert client.resolve(doc)["values"]["Text"] == "fresher"
        finally:
            database.close()


class TestPipelining:
    def test_batch_results_in_order(self, handle):
        with Client(port=handle.port) as client:
            _doc_schema(client)
            docs = [client.make("Doc", values={"Text": f"d{i}"})
                    for i in range(8)]
            pipe = client.pipeline()
            assert isinstance(pipe, Pipeline)
            handles = [pipe.resolve(doc) for doc in docs]
            assert all(not h.done for h in handles)
            pipe.flush()
            texts = [h.result()["values"]["Text"] for h in handles]
            assert texts == [f"d{i}" for i in range(8)]
            batches = client.stats()["server"]["pipelined_batches"]
            assert batches >= 1

    def test_per_request_error_isolation(self, handle):
        with Client(port=handle.port) as client:
            _doc_schema(client)
            doc = client.make("Doc", values={"Text": "ok"})
            with client.pipeline() as pipe:
                before = pipe.resolve(doc)
                broken = pipe.resolve(UID(999999, "Doc"))
                after = pipe.resolve(doc)
            assert before.result()["values"]["Text"] == "ok"
            with pytest.raises(UnknownObjectError):
                broken.result()
            # The failed request did not poison the rest of the batch.
            assert after.result()["values"]["Text"] == "ok"

    def test_mutations_pipeline_too(self, handle):
        with Client(port=handle.port) as client:
            _doc_schema(client)
            doc = client.make("Doc", values={"Text": "v0"})
            pipe = client.pipeline()
            for i in range(5):
                pipe.set_value(doc, "Text", f"v{i + 1}")
            final = pipe.resolve(doc)
            pipe.flush()
            assert final.result()["values"]["Text"] == "v5"

    def test_unflushed_handle_refuses_result(self, handle):
        with Client(port=handle.port) as client:
            pipe = client.pipeline()
            handle_ = pipe.call("ping")
            with pytest.raises(RuntimeError, match="not flushed"):
                handle_.result()
            pipe.flush()
            assert handle_.result() == "pong"

    def test_killed_connection_retryable_batch_reconnects(self, handle):
        with Client(port=handle.port, max_retries=4, backoff=0.01) as client:
            _doc_schema(client)
            doc = client.make("Doc", values={"Text": "x"})
            with fault_scope() as faults:
                faults.add("server.send_frame", "kill")
                pipe = client.pipeline()
                handles = [pipe.call("ping"), pipe.resolve(doc)]
                pipe.flush()
                # The whole batch was re-sent on a fresh connection: every
                # op in it is retryable, so that is safe.
                assert handles[0].result() == "pong"
                assert handles[1].result()["values"]["Text"] == "x"
                assert faults.hit_count("server.send_frame") >= 1

    def test_killed_connection_mid_mutating_batch_raises(self, handle):
        with Client(port=handle.port, max_retries=4, backoff=0.01) as client:
            _doc_schema(client)
            doc = client.make("Doc", values={"Text": "v0"})
            with fault_scope() as faults:
                faults.add("server.send_frame", "kill")
                pipe = client.pipeline()
                pipe.call("ping")
                pipe.set_value(doc, "Text", "poisoned?")
                with pytest.raises(ConnectionError, match="may have executed"):
                    pipe.flush()
            # RETRYABLE_OPS semantics: the batch contained a mutation, so
            # it must NOT have been blind-resent — the set_value executed
            # exactly once (before the response frame was killed).
            assert client.value(doc, "Text") == "poisoned?"
