"""The one value codec: object images on disk and v2 wire values.

A compact, self-describing, dependency-free format (we deliberately avoid
``pickle``: records must be stable bytes whose size the clustering layer
can reason about, and decoding must never execute code).

Every value is a one-byte type tag followed by a fixed or length-prefixed
payload, per the one tag table ("Values" in docs/SERVER.md).  Only this
module knows the tags: the journal, MVCC version chains, replica replay
and the v2 wire protocol all go through :func:`encode_value` and
:func:`value_at`.  An object image uses the same tags in its ``O`` record::

    'O' | str class_name | i64 uid number | i64 change_count
        | u32 count + (str name, value) pairs      (the body of an 'M' map)
        | u32 count + (value parent, flag D, flag X, str attribute) tuples

Strings are UTF-8 with a u32 length prefix; integers are signed 64-bit
(``J`` carries the rest); flags are the ``T``/``F`` tag bytes.
"""

from __future__ import annotations

import struct
from collections import OrderedDict

from ..core.identity import UID
from ..core.instance import Instance
from ..core.references import ReverseReference
from ..errors import SerializationError
from ..schema.attribute import SetOf

_U32 = struct.Struct(">I")
_TAG_U32 = struct.Struct(">BI")      # tag + length or count
_TAG_I64 = struct.Struct(">Bq")
_TAG_F64 = struct.Struct(">Bd")
_TAG_UID = struct.Struct(">BqI")     # 'U' + number + class-name length
_IMAGE_HEAD = struct.Struct(">qqI")  # uid number, change_count, value count
_REF_TAIL = struct.Struct(">BBI")    # flag D, flag X, attribute length

_u32_at = _U32.unpack_from
_i64_at = struct.Struct(">q").unpack_from
_f64_at = struct.Struct(">d").unpack_from

# The one tag table (docs/SERVER.md "Values"), as the integers
# ``data[pos]`` yields; the structs above pack them with the "B" code.
(_NONE, _TRUE, _FALSE, _INT, _BIGINT, _FLOAT, _STR, _BYTES, _UID, _SETOF,
 _LIST, _MAP, _HMAP, _INSTANCE) = b"NTFIJDSBUELMHO"
#: The bodiless tags as the chunks the encoder appends.
_NONE_TAG, _TRUE_TAG, _FALSE_TAG = map(bytes, ([_NONE], [_TRUE], [_FALSE]))

#: What a malformed record makes :func:`value_at` raise (short read, bad
#: string, unknown tag, unhashable key, absurd nesting): decode_instance
#: maps each to SerializationError, the wire protocol to ProtocolError.
MALFORMED = (SerializationError, IndexError, struct.error,
             UnicodeDecodeError, TypeError, RecursionError)

#: Subclasses of an encodable type encode as the base type's content.
_BASES = ((int, int.__int__), (float, float.__float__), (str, str.__str__),
          (bytes, bytes), (list, list), (tuple, list), (dict, dict))

def encode_str(text, out):
    """Append *text* as a u32-length-prefixed UTF-8 string (no tag)."""
    data = text.encode()
    out.append(_U32.pack(len(data)))
    out.append(data)


def encode_value(value, out):
    """Append one value's encoding (the journal's common types tested
    first) to the chunk list *out*; SerializationError if it has none."""
    kind = type(value)
    if kind is str:
        data = value.encode()
        out.append(_TAG_U32.pack(_STR, len(data)))
        out.append(data)
    elif kind is int:
        try:
            out.append(_TAG_I64.pack(_INT, value))
        except struct.error:
            data = value.to_bytes(value.bit_length() // 8 + 1, "big",
                                  signed=True)
            out.append(_TAG_U32.pack(_BIGINT, len(data)))
            out.append(data)
    elif kind is UID:
        data = value.class_name.encode()
        try:
            out.append(_TAG_UID.pack(_UID, value.number, len(data)))
        except struct.error:
            raise SerializationError(
                f"UID number out of range: {value!r}") from None
        out.append(data)
    elif kind is list or kind is tuple:
        out.append(_TAG_U32.pack(_LIST, len(value)))
        for item in value:
            encode_value(item, out)
    elif value is None:
        out.append(_NONE_TAG)
    elif value is True:
        out.append(_TRUE_TAG)
    elif value is False:
        out.append(_FALSE_TAG)
    elif kind is float:
        out.append(_TAG_F64.pack(_FLOAT, value))
    elif kind is dict:
        if all(isinstance(key, str) for key in value):
            out.append(_TAG_U32.pack(_MAP, len(value)))
            _encode_pairs(value, out)
        else:
            out.append(_TAG_U32.pack(_HMAP, len(value)))
            for key, item in value.items():
                # value_at rebuilds a list key as a tuple, one level deep.
                if isinstance(key, tuple) and any(
                        isinstance(part, tuple) for part in key):
                    raise SerializationError(
                        f"map key {key!r} would not decode hashable")
                encode_value(key, out)
                encode_value(item, out)
    elif kind is bytes:
        out.append(_TAG_U32.pack(_BYTES, len(value)))
        out.append(value)
    elif kind is SetOf:
        data = value.member.encode()
        out.append(_TAG_U32.pack(_SETOF, len(data)))
        out.append(data)
    else:
        for base, exact in _BASES:
            if isinstance(value, base):
                return encode_value(exact(value), out)
        raise SerializationError(
            f"cannot serialize value of type {type(value).__name__}: "
            f"{value!r}"
        )


def _encode_pairs(mapping, out):
    """Append (str key, value) pairs: an 'M' body, or an image's values."""
    for key, item in mapping.items():
        encode_str(key, out)
        encode_value(item, out)


def value_at(data, pos):
    """The value at offset *pos* of *data*, and the offset after it.

    Lengths are not checked against the data: a slice that runs past
    the end comes back short, and the next read (or the caller's final
    offset check) fails instead, raising one of :data:`MALFORMED`."""
    tag = data[pos]
    pos += 1
    if tag == _STR:
        end = pos + 4 + _u32_at(data, pos)[0]
        return data[pos + 4:end].decode(), end
    if tag == _MAP:
        return _pairs_at(data, pos + 4, _u32_at(data, pos)[0])
    if tag == _UID:
        number = _i64_at(data, pos)[0]
        end = pos + 12 + _u32_at(data, pos + 8)[0]
        return UID(number, data[pos + 12:end].decode()), end
    if tag == _INT:
        return _i64_at(data, pos)[0], pos + 8
    if tag == _NONE:
        return None, pos
    if tag == _LIST:
        count = _u32_at(data, pos)[0]
        pos += 4
        value = []
        for _ in range(count):
            item, pos = value_at(data, pos)
            value.append(item)
        return value, pos
    if tag == _TRUE:
        return True, pos
    if tag == _FALSE:
        return False, pos
    if tag == _BYTES:
        end = pos + 4 + _u32_at(data, pos)[0]
        return bytes(data[pos + 4:end]), end
    if tag == _FLOAT:
        return _f64_at(data, pos)[0], pos + 8
    if tag == _BIGINT:
        end = pos + 4 + _u32_at(data, pos)[0]
        return int.from_bytes(data[pos + 4:end], "big", signed=True), end
    if tag == _SETOF:
        end = pos + 4 + _u32_at(data, pos)[0]
        return SetOf(data[pos + 4:end].decode()), end
    if tag == _HMAP:
        count = _u32_at(data, pos)[0]
        pos += 4
        value = {}
        for _ in range(count):
            key, pos = value_at(data, pos)
            if type(key) is list:
                key = tuple(key)  # tuple keys encode as lists
            value[key], pos = value_at(data, pos)
        return value, pos
    raise SerializationError(f"unknown type tag {bytes([tag])!r}")


def _pairs_at(data, pos, count):
    """*count* (str key, value) pairs at offset *pos* as a dict, and the
    offset after them: an 'M' body, or an image's values."""
    value = {}
    for _ in range(count):
        end = pos + 4 + _u32_at(data, pos)[0]
        key = data[pos + 4:end].decode()
        value[key], pos = value_at(data, end)
    return value, pos


def encode_instance(instance):
    """Serialize *instance* to bytes (its object image)."""
    data = instance.class_name.encode()
    values = instance.values
    out = [_TAG_U32.pack(_INSTANCE, len(data)), data, _IMAGE_HEAD.pack(
        instance.uid.number, instance.change_count, len(values))]
    _encode_pairs(values, out)
    refs = instance.reverse_references
    out.append(_U32.pack(len(refs)))
    for ref in refs:
        encode_value(ref.parent, out)
        data = ref.attribute.encode()
        out.append(_REF_TAIL.pack(_TRUE if ref.dependent else _FALSE,
                                  _TRUE if ref.exclusive else _FALSE,
                                  len(data)))
        out.append(data)
    return b"".join(out)


def decode_instance(data):
    """The instance in an :func:`encode_instance` image.  Anything else (a
    short read, bad UTF-8, an unknown tag, trailing bytes) raises
    :class:`SerializationError`."""
    try:
        if data[0] != _INSTANCE:
            raise SerializationError("not an instance record")
        end = 5 + _u32_at(data, 1)[0]
        class_name = data[5:end].decode()
        number, change_count, count = _IMAGE_HEAD.unpack_from(data, end)
        values, pos = _pairs_at(data, end + _IMAGE_HEAD.size, count)
        instance = Instance(UID(number, class_name), class_name, values,
                            change_count=change_count)
        refs = instance.reverse_references
        count = _u32_at(data, pos)[0]
        pos += 4
        for _ in range(count):
            parent, pos = value_at(data, pos)
            end = pos + 6 + _u32_at(data, pos + 2)[0]
            refs.append(ReverseReference(
                parent, data[pos] == _TRUE, data[pos + 1] == _TRUE,
                data[pos + 6:end].decode(),
            ))
            pos = end
    except MALFORMED as error:
        raise SerializationError(f"malformed object image: {error}") from None
    if pos != len(data):
        raise SerializationError(
            f"instance record of {len(data)} bytes ends at offset {pos}")
    return instance


class ImageCache:
    """Bounded LRU of encoded object images keyed by content digest.

    The server's wire-protocol hot path uses this to encode an unchanged
    object's snapshot once: the journal already fingerprints every
    persisted image with a 16-byte BLAKE2b digest (``journal._digest``)
    for write dedup, so ``(digest, schema shape)`` names the encoded
    bytes exactly — a mutation changes the digest, a schema change
    changes the shape, and either way the stale entry simply never gets
    looked up again until LRU eviction reclaims it.
    """

    def __init__(self, capacity=1024):
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries = OrderedDict()

    def __len__(self):
        return len(self._entries)

    def get(self, key):
        """The cached payload for *key*, or None (counts hit/miss)."""
        payload = self._entries.get(key)
        if payload is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return payload

    def put(self, key, payload):
        self._entries[key] = payload
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def clear(self):
        self._entries.clear()

    def stats_row(self):
        return {
            "capacity": self.capacity,
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }
