"""The one value codec: object images and v2 frames share one tag table.

The reference below is the image codec the merged one replaced — a
per-value ``_Reader`` over the eight image tags ``N T F I D S U L`` —
kept verbatim (plus tag-offset recording) as the oracle: every image it
can write must encode byte-identically and decode to the same instance,
and every malformed image must fail typed.  The end-to-end half checks
that a value the wire carries is also storable: acked, visible, and
still there after recovery and on a journal follower.
"""

from __future__ import annotations

import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import SetOf, UID
from repro.core.instance import Instance
from repro.core.references import ReverseReference
from repro.errors import SerializationError
from repro.mvcc import JournalFollower
from repro.server import Client, ServerThread
from repro.server.protocol import ProtocolError
from repro.storage.durable import DurableDatabase
from repro.storage.serializer import decode_instance, encode_instance

pytestmark = pytest.mark.usefixtures("owns_nothing")

# ---------------------------------------------------------------------------
# The reference: the image codec before the merge
# ---------------------------------------------------------------------------

_TAG_NONE = b"N"
_TAG_TRUE = b"T"
_TAG_FALSE = b"F"
_TAG_INT = b"I"
_TAG_FLOAT = b"D"
_TAG_STR = b"S"
_TAG_UID = b"U"
_TAG_LIST = b"L"
_TAG_INSTANCE = b"O"

_U32 = struct.Struct(">I")
_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")


def _encode_str(out, text):
    data = text.encode("utf-8")
    out.append(_U32.pack(len(data)))
    out.append(data)


def encode_value(value, out):
    """Append the encoding of one value to the byte-chunk list *out*."""
    if value is None:
        out.append(_TAG_NONE)
    elif value is True:
        out.append(_TAG_TRUE)
    elif value is False:
        out.append(_TAG_FALSE)
    elif isinstance(value, int):
        out.append(_TAG_INT)
        out.append(_I64.pack(value))
    elif isinstance(value, float):
        out.append(_TAG_FLOAT)
        out.append(_F64.pack(value))
    elif isinstance(value, str):
        out.append(_TAG_STR)
        _encode_str(out, value)
    elif isinstance(value, UID):
        out.append(_TAG_UID)
        out.append(_I64.pack(value.number))
        _encode_str(out, value.class_name)
    elif isinstance(value, (list, tuple)):
        out.append(_TAG_LIST)
        out.append(_U32.pack(len(value)))
        for item in value:
            encode_value(item, out)
    else:
        raise SerializationError(
            f"cannot serialize value of type {type(value).__name__}: {value!r}"
        )


class _Reader:
    """Sequential reader over a bytes buffer."""

    __slots__ = ("data", "pos")

    def __init__(self, data):
        self.data = data
        self.pos = 0

    def take(self, n):
        if self.pos + n > len(self.data):
            raise SerializationError("truncated record")
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def read_u32(self):
        return _U32.unpack(self.take(4))[0]

    def read_i64(self):
        return _I64.unpack(self.take(8))[0]

    def read_f64(self):
        return _F64.unpack(self.take(8))[0]

    def read_str(self):
        return self.take(self.read_u32()).decode("utf-8")


def decode_value(reader, tags):
    """Decode one value from *reader*; *tags* collects tag offsets."""
    tags.append(reader.pos)
    tag = reader.take(1)
    if tag == _TAG_NONE:
        return None
    if tag == _TAG_TRUE:
        return True
    if tag == _TAG_FALSE:
        return False
    if tag == _TAG_INT:
        return reader.read_i64()
    if tag == _TAG_FLOAT:
        return reader.read_f64()
    if tag == _TAG_STR:
        return reader.read_str()
    if tag == _TAG_UID:
        number = reader.read_i64()
        return UID(number, reader.read_str())
    if tag == _TAG_LIST:
        count = reader.read_u32()
        return [decode_value(reader, tags) for _ in range(count)]
    raise SerializationError(f"unknown type tag {tag!r}")


def reference_encode(instance):
    out = [_TAG_INSTANCE]
    _encode_str(out, instance.class_name)
    out.append(_I64.pack(instance.uid.number))
    out.append(_I64.pack(instance.change_count))
    out.append(_U32.pack(len(instance.values)))
    for name, value in instance.values.items():
        _encode_str(out, name)
        encode_value(value, out)
    out.append(_U32.pack(len(instance.reverse_references)))
    for ref in instance.reverse_references:
        encode_value(ref.parent, out)
        out.append(_TAG_TRUE if ref.dependent else _TAG_FALSE)
        out.append(_TAG_TRUE if ref.exclusive else _TAG_FALSE)
        _encode_str(out, ref.attribute)
    return b"".join(out)


def reference_decode(data, tags=None):
    """The old ``decode_instance``; *tags* collects the offset of the
    record tag, every value tag and every flag byte it read."""
    tags = [] if tags is None else tags
    reader = _Reader(data)
    tags.append(0)
    if reader.take(1) != _TAG_INSTANCE:
        raise SerializationError("not an instance record")
    class_name = reader.read_str()
    uid = UID(reader.read_i64(), class_name)
    change_count = reader.read_i64()
    values = {}
    for _ in range(reader.read_u32()):
        name = reader.read_str()
        values[name] = decode_value(reader, tags)
    instance = Instance(uid, class_name, values, change_count=change_count)
    for _ in range(reader.read_u32()):
        parent = decode_value(reader, tags)
        tags.append(reader.pos)
        dependent = reader.take(1) == _TAG_TRUE
        tags.append(reader.pos)
        exclusive = reader.take(1) == _TAG_TRUE
        attribute = reader.read_str()
        instance.reverse_references.append(
            ReverseReference(parent, dependent, exclusive, attribute)
        )
    return instance


def _fields(instance):
    # repr: a float may be NaN, which equals nothing.
    return repr((instance.uid, instance.uid.class_name, instance.class_name,
                 instance.change_count, instance.values,
                 instance.reverse_references))


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

_names = st.text(max_size=8)
_i64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
_uids = st.builds(UID, _i64, st.sampled_from(["C", "Doc", "Класс"]))
_image_scalars = st.one_of(
    st.none(), st.booleans(), _i64, st.floats(), _names, _uids,
)
_image_values = st.recursive(
    _image_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
    ),
    max_leaves=12,
)
_wire_scalars = st.one_of(
    _image_scalars,
    st.integers(),  # unbounded: the bigint tag
    st.binary(max_size=16),
    st.builds(SetOf, st.sampled_from(["Engine", "Paragraph"])),
)
_flat_keys = st.one_of(_names, st.integers(), st.booleans(), st.none(), _uids)
_keys = st.one_of(_flat_keys, st.tuples(st.integers(), _names))
#: Any hashable key, tuples of tuples included.
_nested_keys = st.recursive(
    _flat_keys,
    lambda children: st.one_of(st.tuples(children),
                               st.tuples(children, children)),
    max_leaves=6,
)
_wire_values = st.recursive(
    _wire_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(_names, children, max_size=3),
        st.dictionaries(_keys, children, max_size=3),
    ),
    max_leaves=12,
)


@st.composite
def _instances(draw, values=_image_values):
    class_name = draw(st.sampled_from(["C", "Vehicle", "Документ"]))
    instance = Instance(
        UID(draw(_i64), class_name), class_name,
        draw(st.dictionaries(_names, values, max_size=5)),
        change_count=draw(_i64),
    )
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        instance.reverse_references.append(ReverseReference(
            draw(values), draw(st.booleans()), draw(st.booleans()),
            draw(_names),
        ))
    return instance


# ---------------------------------------------------------------------------
# Properties against the reference
# ---------------------------------------------------------------------------


class TestAgainstTheReference:
    @given(instance=_instances())
    @settings(max_examples=300, deadline=None)
    def test_encodes_byte_identically(self, instance):
        assert encode_instance(instance) == reference_encode(instance)

    @given(instance=_instances())
    @settings(max_examples=300, deadline=None)
    def test_decodes_like_the_reference(self, instance):
        image = reference_encode(instance)
        assert _fields(decode_instance(image)) == \
            _fields(reference_decode(image))

    @given(instance=_instances())
    @settings(max_examples=100, deadline=None)
    def test_every_strict_prefix_and_any_trailer_is_refused(self, instance):
        image = encode_instance(instance)
        for end in range(len(image)):
            with pytest.raises(SerializationError):
                decode_instance(image[:end])
        with pytest.raises(SerializationError):
            decode_instance(image + b"N")

    #: The reference's refusal of each value tag the merged codec added.
    _NEWER_TAG_ERRORS = frozenset(
        f"unknown type tag {bytes([tag])!r}" for tag in b"JBEMH")

    #: Its parent's ``N`` tag corrupted to ``I`` or ``D`` swallows the next
    #: eight bytes, leaving UID(-190)'s last byte, ``B``, as a value tag:
    #: the merged codec reads bytes where the reference knows no tag.
    _READS_A_NEWER_TAG = Instance(UID(0, "C"), "C", {}, change_count=0)
    _READS_A_NEWER_TAG.reverse_references.append(
        ReverseReference([None, UID(-190, "C")], False, False, ""))

    @given(instance=_instances())
    @example(instance=_READS_A_NEWER_TAG)
    @settings(max_examples=100, deadline=None)
    def test_corrupt_tag_bytes_fail_typed_or_decode_alike(self, instance):
        image = encode_instance(instance)
        tags = []
        reference_decode(image, tags)
        for offset in tags:
            for byte in b"NTFIDSUL\x00\xff":
                corrupt = image[:offset] + bytes([byte]) + image[offset + 1:]
                try:
                    decoded = decode_instance(corrupt)
                except SerializationError:
                    continue
                try:
                    expected = reference_decode(corrupt)
                except SerializationError as error:
                    # The corrupt tag sent both decoders on through bytes
                    # that hold a tag only the merged codec knows: it
                    # reads a value where the reference refuses, and that
                    # value must be one it writes back and reads alike.
                    assert str(error) in self._NEWER_TAG_ERRORS, error
                    assert _fields(decode_instance(encode_instance(
                        decoded))) == _fields(decoded)
                    continue
                assert _fields(decoded) == _fields(expected)
            # Tags only the merged codec knows: typed failure or a value.
            for byte in b"JBELMHO":
                corrupt = image[:offset] + bytes([byte]) + image[offset + 1:]
                try:
                    assert isinstance(decode_instance(corrupt), Instance)
                except SerializationError:
                    pass

    @given(instance=_instances(values=_wire_values))
    @settings(max_examples=200, deadline=None)
    def test_every_wire_value_is_storable(self, instance):
        restored = decode_instance(encode_instance(instance))
        assert _fields(restored) == _fields(instance)
        assert encode_instance(restored) == encode_instance(instance)

    @given(keys=st.lists(_nested_keys, min_size=1, max_size=4, unique=True))
    @settings(max_examples=300, deadline=None)
    def test_every_image_written_decodes_back(self, keys):
        # The decoder rebuilds a list map key as a tuple one level deep
        # (the v2 wire's rule), so a key nesting a tuple is refused at
        # encode time rather than written and then unreadable.
        instance = Instance(UID(1, "C"), "C",
                            {"x": {key: i for i, key in enumerate(keys)}})
        nests = any(isinstance(key, tuple)
                    and any(isinstance(part, tuple) for part in key)
                    for key in keys)
        try:
            image = encode_instance(instance)
        except SerializationError:
            assert nests
            return
        assert not nests
        assert _fields(decode_instance(image)) == _fields(instance)

    def test_unencodable_value_is_a_serialization_error(self):
        for value in (object(), {1, 2}, bytearray(b"x")):
            with pytest.raises(SerializationError):
                encode_instance(Instance(UID(1, "C"), "C", {"x": value}))
        with pytest.raises(SerializationError):
            encode_instance(Instance(UID(1, "C"), "C", {"x": UID(2**70, "C")}))

    def test_subclass_values_encode_as_their_base(self):
        from enum import Enum, IntEnum

        class Size(IntEnum):
            BIG = 7

        class Colour(str, Enum):
            RED = "red"

        instance = Instance(UID(1, "C"), "C", {"n": Size.BIG, "c": Colour.RED})
        assert encode_instance(instance) == reference_encode(instance)


# ---------------------------------------------------------------------------
# End to end: what the wire carries, the journal keeps
# ---------------------------------------------------------------------------

_WIRE_ONLY = [b"raw", {"k": 1}, {1: 2, (1, "a"): 3}, 2**70, -(2**70)]


class TestWireValuesAreDurable:
    @pytest.mark.parametrize("value", _WIRE_ONLY, ids=repr)
    def test_acked_visible_recovered_and_followed(self, tmp_path, value):
        directory = tmp_path / "d"
        db = DurableDatabase(directory, sync_policy="group")
        try:
            with ServerThread(database=db) as server, \
                    Client(port=server.port) as client:
                client.make_class("Item", attributes=[
                    {"name": "x", "domain": "any"},
                ])
                uid = client.make("Item", values={"x": "before"})
                assert client.set_value(uid, "x", value) is True
                assert client.resolve(uid)["values"]["x"] == value
                assert client.value(uid, "x") == value
            follower = JournalFollower(directory)
            assert follower.database.value(uid, "x") == value
        finally:
            db.close()
        reopened = DurableDatabase(directory)
        try:
            assert reopened.value(uid, "x") == value
        finally:
            reopened.close()

    def test_nested_tuple_key_is_refused_and_the_journal_stays_readable(
            self, tmp_path):
        directory = tmp_path / "d"
        db = DurableDatabase(directory)
        db.make_class("Item", attributes=[{"name": "x", "domain": "any"}])
        uid = db.make("Item", values={"x": "before"})
        with pytest.raises(SerializationError, match="decode hashable"):
            db.set_value(uid, "x", {(1, (2, 3)): "v"})
        assert JournalFollower(directory).database.value(uid, "x") == "before"
        # The refused value is still in memory (refused at the seal, after
        # the edit), so overwrite it before the closing checkpoint.
        db.set_value(uid, "x", "after")
        db.close()
        reopened = DurableDatabase(directory)
        try:
            assert reopened.value(uid, "x") == "after"
        finally:
            reopened.close()

    @pytest.mark.parametrize("capacity", [1024, 0], ids=["cached", "uncached"])
    def test_unencodable_snapshot_is_a_protocol_error(self, tmp_path,
                                                       capacity):
        # Whether or not the image cache encodes the snapshot, a value
        # with no v2 encoding reaches the client as the same error.  The
        # value is planted behind the journal's back, so the sealed
        # image's digest still stands and the cache is consulted.
        db = DurableDatabase(tmp_path / "d")
        db.make_class("Item", attributes=[{"name": "x", "domain": "any"}])
        uid = db.make("Item", values={"x": "before"})
        db.resolve(uid).values["x"] = object()
        try:
            with ServerThread(database=db, image_cache_capacity=capacity) \
                    as server, Client(port=server.port) as client:
                with pytest.raises(ProtocolError, match="cannot serialize"):
                    client.resolve(uid)
                assert client.ping()
        finally:
            db.resolve(uid).values["x"] = "before"
            db.close()

    def test_embedded_big_integer_survives_recovery(self, tmp_path):
        directory = tmp_path / "d"
        db = DurableDatabase(directory)
        db.make_class("Item", attributes=[{"name": "x", "domain": "any"}])
        uid = db.make("Item")
        db.set_value(uid, "x", 2**70)
        db.close()
        reopened = DurableDatabase(directory)
        try:
            assert reopened.value(uid, "x") == 2**70
        finally:
            reopened.close()
