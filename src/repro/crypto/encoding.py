"""Byte-level encoding helpers shared by the cryptographic modules.

The paper manipulates integers (key values, hash-chain exponents) and variable
length attribute values.  Everything that ends up inside a hash or a signature
must first be serialised to bytes in a canonical, unambiguous way; this module
centralises those conversions so that the owner, publisher and user all hash
exactly the same byte strings.
"""

from __future__ import annotations

from typing import Iterable, Union

Encodable = Union[bytes, bytearray, memoryview, str, int, float, bool, None]

#: Separator used when joining multiple encoded fields.  Length-prefixing (see
#: :func:`encode_many`) already guarantees unambiguity; the separator merely aids
#: debugging of raw byte strings.
_FIELD_TAG_BYTES = 1


def int_to_bytes(value: int) -> bytes:
    """Serialise a (possibly negative) integer to a minimal big-endian encoding.

    A sign byte is prepended so that ``-1`` and ``255`` never encode to the same
    byte string.
    """
    sign = b"\x01" if value < 0 else b"\x00"
    magnitude = abs(value)
    length = max(1, (magnitude.bit_length() + 7) // 8)
    return sign + magnitude.to_bytes(length, "big")


def bytes_to_int(data: bytes) -> int:
    """Invert :func:`int_to_bytes`."""
    if not data:
        raise ValueError("cannot decode an integer from empty bytes")
    sign = -1 if data[0] == 1 else 1
    return sign * int.from_bytes(data[1:], "big")


def decode_sign_magnitude(data: bytes) -> int:
    """Strictly decode a sign+magnitude integer, rejecting non-canonical forms.

    The single source of truth for what a canonical integer encoding is:
    exactly one sign byte (0 or 1) followed by a minimal big-endian magnitude
    (no leading zero byte unless the magnitude *is* the single zero byte),
    and no negative zero.  Used by both the scalar codec below and the wire
    layer's integer fields.
    """
    if len(data) < 2:
        raise ValueError("integer needs a sign byte and a magnitude")
    sign, magnitude = data[0], data[1:]
    if sign not in (0, 1):
        raise ValueError(f"integer sign byte must be 0 or 1, got {sign}")
    if len(magnitude) > 1 and magnitude[0] == 0:
        raise ValueError("integer magnitude must be minimal (no leading zero)")
    value = int.from_bytes(magnitude, "big")
    if sign == 1 and value == 0:
        raise ValueError("negative zero is not a canonical integer encoding")
    return -value if sign else value


def encode_value(value: Encodable) -> bytes:
    """Canonically encode a single scalar value as bytes.

    Each supported type gets a distinct one-byte tag so that, for instance, the
    integer ``1`` and the string ``"1"`` hash differently.
    """
    kind = type(value)  # the two common exact types first; bool is not int here
    if kind is int:
        return b"I" + int_to_bytes(value)
    if kind is str:
        return b"S" + value.encode("utf-8")
    if value is None:
        return b"N"
    if isinstance(value, bool):  # bool must be tested before int
        return b"B" + (b"\x01" if value else b"\x00")
    if isinstance(value, (bytes, bytearray, memoryview)):
        return b"Y" + bytes(value)
    if isinstance(value, str):
        return b"S" + value.encode("utf-8")
    if isinstance(value, int):
        return b"I" + int_to_bytes(value)
    if isinstance(value, float):
        return b"F" + repr(value).encode("ascii")
    raise TypeError(f"cannot canonically encode value of type {type(value)!r}")


def decode_value(data: bytes) -> Encodable:
    """Invert :func:`encode_value`, rejecting malformed or non-canonical input.

    Raises ``ValueError`` for unknown tags, truncated payloads and encodings
    that :func:`encode_value` could never have produced (e.g. a boolean byte
    other than ``0``/``1``, a non-minimal integer magnitude).  The wire layer
    relies on this strictness: a decoded value always re-encodes to the exact
    bytes it came from.
    """
    if not data:
        raise ValueError("cannot decode a value from empty bytes")
    tag, payload = data[:1], data[1:]
    if tag == b"N":
        if payload:
            raise ValueError("None carries no payload")
        return None
    if tag == b"B":
        if payload == b"\x01":
            return True
        if payload == b"\x00":
            return False
        raise ValueError("boolean payload must be a single 0/1 byte")
    if tag == b"Y":
        return payload
    if tag == b"S":
        return payload.decode("utf-8")
    if tag == b"I":
        return decode_sign_magnitude(payload)
    if tag == b"F":
        text = payload.decode("ascii")
        value = float(text)
        if repr(value).encode("ascii") != payload:
            raise ValueError(f"non-canonical float encoding {text!r}")
        return value
    raise ValueError(f"unknown value tag {tag!r}")


def encode_many(values: Iterable[Encodable]) -> bytes:
    """Encode a sequence of values with length prefixes.

    Length-prefixing makes the encoding injective: no two distinct sequences of
    values can produce the same byte string, which is required for the
    collision-resistance arguments in the paper to carry over to the
    implementation.
    """
    parts = []
    for value in values:
        encoded = encode_value(value)
        parts.append(len(encoded).to_bytes(4, "big"))
        parts.append(encoded)
    return b"".join(parts)


def decode_many(data: bytes) -> list:
    """Invert :func:`encode_many`; raises ``ValueError`` on malformed input."""
    values = []
    offset = 0
    total = len(data)
    while offset < total:
        if total - offset < 4:
            raise ValueError("truncated length prefix")
        length = int.from_bytes(data[offset : offset + 4], "big")
        offset += 4
        if total - offset < length:
            raise ValueError("length prefix exceeds the remaining bytes")
        values.append(decode_value(data[offset : offset + length]))
        offset += length
    return values


def concat_digests(*digests: bytes) -> bytes:
    """Concatenate digests, as the ``|`` operator in the paper's formulas."""
    return b"".join(digests)


def encode_record_payload(values, attribute_order) -> bytes:
    """Canonical byte encoding of one full tuple, in schema attribute order.

    The single definition of "the bytes a whole record hashes/signs to",
    shared by every baseline proof scheme (naive per-tuple signatures, the
    Devanbu Merkle tree, the VB-tree digest hierarchy): each attribute name is
    encoded next to its value, with :func:`encode_many`'s length prefixes
    keeping the result injective.  Raises ``KeyError`` when ``values`` is
    missing an attribute — callers validate shape before hashing.
    """
    flattened: list = []
    for name in attribute_order:
        flattened.append(name)
        flattened.append(values[name])
    return encode_many(flattened)
