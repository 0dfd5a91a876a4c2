"""Canonical wire codec for every proof artifact the publisher ships.

Framing
-------

Every top-level artifact is encoded as::

    magic "PV" (2 bytes) | version (1 byte, :data:`WIRE_VERSION`) | type tag (1 byte) | body

Bodies are built from the strict primitives of
:mod:`repro.wire.primitives`: big-endian fixed-width integers, u32
length-prefixed byte strings, sign+magnitude arbitrary-precision integers and
the canonical scalar encoding shared with the hashing layer.  Mappings are
serialised with strictly increasing keys, optionals carry an explicit presence
byte, and nested artifacts of a *fixed* type are embedded body-only while
union-typed fields (e.g. the matched/filtered entries of a range proof) carry
a one-byte type tag.

The encoding is **canonical**: for every artifact there is exactly one valid
byte string, and :func:`decode` rejects everything else —
truncation, trailing bytes, non-minimal integers, unsorted map keys, unknown
tags — with a typed :class:`~repro.wire.errors.WireFormatError`.  Round-trip
identity (``decode(encode(x)) == x`` and ``encode(decode(b)) == b``) is locked
in by golden vectors under ``tests/golden/``.

A JSON debug printer (:func:`to_json`) mirrors the same field model with
hex-encoded byte strings, for logging and troubleshooting; it is one-way —
the binary format is the one that crosses the network and the only one read.

Each codec is declared as a field-spec table, so the binary writer, the binary
reader and the JSON printer are always generated from one source of truth.
There is one decode path: each artifact's table is compiled, on first use,
into one flat ``read_body`` function whose every byte-level read is a call
into the strict :class:`~repro.wire.primitives.WireReader` primitives.
"""

from __future__ import annotations

import dataclasses
import hashlib
import inspect
import json
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Type

from repro.core.proof import (
    BoundaryEntryProof,
    FilteredEntryProof,
    GreaterThanProof,
    JoinQueryProof,
    MatchedEntryProof,
    RangeQueryProof,
    SignatureBundle,
)
from repro.core.digest import BoundaryAssist, EntryAssist
from repro.core.relational import RelationManifest, UpdateReceipt
from repro.crypto.aggregate import AggregateSignature
from repro.crypto.merkle import MerkleProof
from repro.crypto.rsa import RSAPublicKey
from repro.db.query import (
    Conjunction,
    EqualityCondition,
    JoinQuery,
    Projection,
    Query,
    RangeCondition,
)
from repro.db.schema import Attribute, AttributeType, KeyDomain, Schema
from repro.wire.errors import WireFormatError
from repro.wire.primitives import WireReader, WireWriter

__all__ = [
    "encode",
    "decode",
    "to_json",
    "to_json_obj",
    "manifest_id",
    "register_artifact",
    "frame_header",
    "cut_leading_bytes",
    "encode_tail",
    "WIRE_VERSION",
    # field types, for registering extension artifacts (see repro.service.protocol)
    "INT",
    "BOOL",
    "STR",
    "BYTES",
    "SCALAR",
    "OptionalField",
    "TupleField",
    "PairField",
    "MapField",
    "NestedField",
    "EnumStrField",
    "FixedBytesField",
]

#: Version 2 added the live-update pipeline: ``RelationManifest.sequence``
#: (manifest rotation), fixed-width manifest-id fields, and the
#: insert/delete/update artifacts of :mod:`repro.wire.updates`.
#: Version 3 made serving scheme-polymorphic: manifests carry a ``scheme``
#: tag (part of the manifest id), per-scheme VO artifacts are registered from
#: the scheme modules (:mod:`repro.schemes`), and a query response's proof
#: field is a union over every registered scheme's VO type.
#: Version 4 added owner-signed freshness: the ``FreshnessAttestation``
#: artifact, attestation stamps on query/join responses, and the attestation
#: push/fetch service messages (:mod:`repro.service.protocol`).
#: Version 5 serves the chain only: manifests lose the ``scheme`` tag and a
#: query response's proof is a ``RangeQueryProof`` body, no union tag.
WIRE_VERSION = 5
_MAGIC = b"PV"


# ---------------------------------------------------------------------------
# Field types
# ---------------------------------------------------------------------------


class _Field:
    """One wire-field type: binary write, decoder emission, the JSON mirror.

    ``emit`` contributes to the generated per-artifact decoder (see
    :meth:`_ArtifactCodec._generate_read_body`): it returns a Python
    *expression* that reads this field from ``reader``, with any objects the
    expression needs registered in ``bindings``.  A field type whose read
    needs statements (a validating ``raise``) defines ``read(reader, what)``
    instead, and the default emission calls it.
    """

    def write(self, writer: WireWriter, value) -> None:
        raise NotImplementedError

    def emit(self, label_expr: str, bindings: Dict[str, object]) -> str:
        name = _bind(bindings, "f", self.read)
        return f"{name}(reader, {label_expr})"

    def to_json(self, value):
        raise NotImplementedError


def _bind(bindings: Dict[str, object], prefix: str, value) -> str:
    """Register ``value`` under a fresh name in a codegen namespace."""
    name = f"_{prefix}{len(bindings)}"
    bindings[name] = value
    return name


class _Int(_Field):
    def write(self, writer, value):
        writer.int_(value)

    def emit(self, label_expr, bindings):
        return f"reader.int_({label_expr})"

    def to_json(self, value):
        return int(value)


class _Bool(_Field):
    def write(self, writer, value):
        writer.bool_(value)

    def emit(self, label_expr, bindings):
        return f"reader.bool_({label_expr})"

    def to_json(self, value):
        return bool(value)


class _Str(_Field):
    def write(self, writer, value):
        writer.str_(value)

    def emit(self, label_expr, bindings):
        return f"reader.str_({label_expr})"

    def to_json(self, value):
        return str(value)


class _Bytes(_Field):
    def write(self, writer, value):
        writer.bytes_(value)

    def emit(self, label_expr, bindings):
        return f"reader.bytes_({label_expr})"

    def to_json(self, value):
        return bytes(value).hex()


class _Scalar(_Field):
    """A typed attribute value (None/bool/int/float/str/bytes)."""

    def write(self, writer, value):
        writer.scalar(value)

    def emit(self, label_expr, bindings):
        return f"reader.scalar({label_expr})"

    def to_json(self, value):
        if isinstance(value, (bytes, bytearray, memoryview)):
            return {"__bytes__": bytes(value).hex()}
        return value


class _FixedBytes(_Field):
    """Exactly ``size`` raw bytes — the length is part of the format.

    Used for digests and manifest ids: a value of the wrong width is rejected
    structurally (at encode time as a programming error, at decode time as a
    short read / trailing bytes), and the wire carries no redundant length
    prefix.
    """

    def __init__(self, size: int) -> None:
        if size <= 0:
            raise ValueError("fixed-width byte fields need a positive size")
        self.size = size

    def write(self, writer, value):
        writer.fixed_bytes(value, self.size)

    def emit(self, label_expr, bindings):
        return f"reader.fixed_bytes({self.size}, {label_expr})"

    def to_json(self, value):
        return bytes(value).hex()


class _Optional(_Field):
    def __init__(self, inner: _Field) -> None:
        self.inner = inner

    def write(self, writer, value):
        writer.bool_(value is not None)
        if value is not None:
            self.inner.write(writer, value)

    def emit(self, label_expr, bindings):
        inner = self.inner.emit(label_expr, bindings)
        # A conditional expression evaluates its test first, so the presence
        # byte is consumed before the inner field reads anything.
        return f"({inner} if reader.optional({label_expr}) else None)"

    def to_json(self, value):
        return None if value is None else self.inner.to_json(value)


class _Tuple(_Field):
    def __init__(self, inner: _Field) -> None:
        self.inner = inner

    def write(self, writer, value):
        items = tuple(value)
        writer.u32(len(items))
        for item in items:
            self.inner.write(writer, item)

    def emit(self, label_expr, bindings):
        # One label for every element (the element index would cost a string
        # format per field and only ever shows up in error text).
        inner = self.inner.emit(label_expr, bindings)
        return (
            f"tuple([{inner} for _ in range(reader.count({label_expr}))])"
        )

    def to_json(self, value):
        return [self.inner.to_json(item) for item in value]


class _Pair(_Field):
    def __init__(self, first: _Field, second: _Field) -> None:
        self.first = first
        self.second = second

    def write(self, writer, value):
        a, b = value
        self.first.write(writer, a)
        self.second.write(writer, b)

    def emit(self, label_expr, bindings):
        # Tuple displays evaluate left to right, preserving the field order.
        first = self.first.emit(label_expr, bindings)
        second = self.second.emit(label_expr, bindings)
        return f"({first}, {second})"

    def to_json(self, value):
        a, b = value
        return [self.first.to_json(a), self.second.to_json(b)]


class _Map(_Field):
    """A mapping with canonically sorted (strictly increasing) keys."""

    def __init__(self, key: _Field, value: _Field) -> None:
        self.key = key
        self.value = value

    def write(self, writer, value):
        items = sorted(value.items())
        writer.u32(len(items))
        for k, v in items:
            self.key.write(writer, k)
            self.value.write(writer, v)

    def emit(self, label_expr, bindings):
        # A map needs a statement loop (the strictly-increasing key check), so
        # it is generated as a standalone helper the artifact decoder calls.
        generated = getattr(self, "_generated_read", None)
        if generated is None:
            inner_bindings: Dict[str, object] = {"_WireFormatError": WireFormatError}
            key_expr = self.key.emit("what", inner_bindings)
            value_expr = self.value.emit("what", inner_bindings)
            lines = [
                "def _read_map(reader, what):",
                "    result = {}",
                "    previous = None",
                "    for _ in range(reader.count(what)):",
                f"        key = {key_expr}",
                "        if previous is not None and not key > previous:",
                "            raise _WireFormatError(",
                "                f'map keys of {what} are not strictly increasing',",
                "                reason='unsorted-map',",
                "            )",
                "        previous = key",
                f"        result[key] = {value_expr}",
                "    return result",
            ]
            exec(  # noqa: S102 - codegen from the trusted field-spec table
                compile("\n".join(lines), "<wire codec map>", "exec"),
                inner_bindings,
            )
            generated = self._generated_read = inner_bindings["_read_map"]
        name = _bind(bindings, "m", generated)
        return f"{name}(reader, {label_expr})"

    def to_json(self, value):
        return {
            str(k): self.value.to_json(v) for k, v in sorted(value.items())
        }


class _Nested(_Field):
    """An embedded artifact of one fixed type (body-only, no tag)."""

    def __init__(self, cls: type) -> None:
        self.cls = cls
        self._resolved: Optional["_ArtifactCodec"] = None

    def _codec(self) -> "_ArtifactCodec":
        codec = self._resolved
        if codec is None:
            codec = self._resolved = _codec_for_type(self.cls)
        return codec

    def write(self, writer, value):
        self._codec().write_body(writer, value)

    def emit(self, label_expr, bindings):
        # Late-bound attribute lookup: the nested codec's read_body may itself
        # be replaced by a generated decoder after its first use.
        name = _bind(bindings, "c", self._codec())
        return f"{name}.read_body(reader)"

    def to_json(self, value):
        return self._codec().json_body(value)


class _Union(_Field):
    """An embedded artifact of one of several types (1-byte tag + body)."""

    def __init__(self, *classes: type) -> None:
        self.classes = classes
        self._by_tag: Optional[Dict[int, "_ArtifactCodec"]] = None

    def _members(self) -> Dict[int, "_ArtifactCodec"]:
        members = self._by_tag
        if members is None:
            members = self._by_tag = {
                _codec_for_type(cls).tag: _codec_for_type(cls)
                for cls in self.classes
            }
        return members

    def write(self, writer, value):
        codec = _codec_for_type(type(value))
        if codec.cls not in self.classes:
            raise ValueError(
                f"{type(value).__name__} is not a member of this union"
            )
        writer.u8(codec.tag)
        codec.write_body(writer, value)

    def read(self, reader, what):
        tag = reader.u8(what)
        members = self._by_tag
        if members is None:
            members = self._members()
        codec = members.get(tag)
        if codec is None:
            allowed = "/".join(cls.__name__ for cls in self.classes)
            raise WireFormatError(
                f"tag {tag:#04x} of {what} is not one of {allowed}",
                reason="bad-union-tag",
            )
        return codec.read_body(reader)

    def to_json(self, value):
        codec = _codec_for_type(type(value))
        return {"type": codec.name, "body": codec.json_body(value)}


class _EnumStr(_Field):
    """A string restricted to a fixed set of values (validated on decode)."""

    def __init__(self, *allowed: str) -> None:
        self.allowed = frozenset(allowed)

    def write(self, writer, value):
        writer.str_(value)

    def read(self, reader, what):
        value = reader.str_(what)
        if value not in self.allowed:
            raise WireFormatError(
                f"{what} must be one of {sorted(self.allowed)}, got {value!r}",
                reason="bad-enum",
            )
        return value

    def to_json(self, value):
        return str(value)


class _AttrType(_Field):
    """:class:`~repro.db.schema.AttributeType` as its canonical value string."""

    def write(self, writer, value):
        writer.str_(value.value)

    def read(self, reader, what):
        raw = reader.str_(what)
        try:
            return AttributeType(raw)
        except ValueError:
            raise WireFormatError(
                f"unknown attribute type {raw!r}", reason="bad-enum"
            ) from None

    def to_json(self, value):
        return value.value


INT = _Int()
BOOL = _Bool()
STR = _Str()
BYTES = _Bytes()
SCALAR = _Scalar()

#: Public aliases for composite field types, so extension modules (the service
#: protocol) can declare their own artifacts without reaching for underscores.
OptionalField = _Optional
TupleField = _Tuple
PairField = _Pair
MapField = _Map
NestedField = _Nested
EnumStrField = _EnumStr
FixedBytesField = _FixedBytes


# ---------------------------------------------------------------------------
# Artifact codecs
# ---------------------------------------------------------------------------


class _ArtifactCodec:
    """Binary and JSON (de)serialisation of one artifact class."""

    def __init__(
        self,
        tag: int,
        cls: type,
        fields: Sequence[Tuple[str, _Field]],
        post: Optional[Callable[[object], None]] = None,
    ) -> None:
        self.tag = tag
        self.cls = cls
        self.name = cls.__name__
        self.fields = tuple(fields)
        self.post = post
        self._names = tuple(name for name, _ in self.fields)
        # The generated decoder constructs positionally, so the field table
        # must be the constructor's parameter list; a mismatch is a
        # registration (import-time) error, never a second decode path.
        parameters = tuple(inspect.signature(cls).parameters)
        if parameters != self._names:
            raise ValueError(
                f"wire fields of {self.name} must be its constructor's "
                f"parameters in order: registered {list(self._names)}, "
                f"constructor takes {list(parameters)}"
            )

    def _invalid(self, error) -> WireFormatError:
        return WireFormatError(
            f"decoded fields do not form a valid {self.name}: {error}",
            reason="invalid-artifact",
        )

    def write_body(self, writer: WireWriter, artifact) -> None:
        for name, field in self.fields:
            field.write(writer, getattr(artifact, name))

    def read_body(self, reader: WireReader):
        """Decode one body; replaced by a generated decoder on first use.

        The decoder is *generated* from the same field-spec table that drives
        the writer and the JSON mirror: each field type emits the expression
        that reads it, the expressions are compiled into one flat function per
        artifact, and construction is positional.  This removes a layer of
        dynamic dispatch per field — the wire decode hot path handles a few
        thousand fields per verification object.

        Generation is deferred to the first decode so that nested artifact
        types registered later (the service layer extends the registry) are
        resolvable by then.
        """
        return self._generate_read_body()(reader)

    def _generate_read_body(self):
        bindings: Dict[str, object] = {
            "_cls": self.cls,
            "_invalid": self._invalid,
            "_post": self.post,
            "_new": object.__new__,
        }
        expressions = []
        for name, field in self.fields:
            label = _bind(bindings, "L", f"{self.name}.{name}")
            expressions.append(field.emit(label, bindings))
        if self._plain_dataclass():
            # A plain frozen/record dataclass whose __init__ only assigns the
            # registered fields: build the instance directly (field reads
            # still run left to right via the dict display).  The codec-level
            # ``post`` validation hook runs as usual.
            assignments = ", ".join(
                f"{name!r}: {expression}"
                for name, expression in zip(self._names, expressions)
            )
            lines = [
                "def _read_body(reader):",
                "    _artifact = _new(_cls)",
                # In-place __dict__ update: reading __dict__ bypasses the
                # frozen dataclass's __setattr__ guard.
                f"    _artifact.__dict__.update({{{assignments}}})",
            ]
        else:
            lines = [
                "def _read_body(reader):",
                "    try:",
                f"        _artifact = _cls({', '.join(expressions)})",
                "    except (ValueError, TypeError, KeyError) as _error:",
                "        raise _invalid(_error) from None",
            ]
        if self.post is not None:
            lines.append("    _post(_artifact)")
        lines.append("    return _artifact")
        exec(  # noqa: S102 - codegen from the trusted field-spec table
            compile("\n".join(lines), f"<wire codec {self.name}>", "exec"),
            bindings,
        )
        _read_body = bindings["_read_body"]
        self.read_body = _read_body  # shadows the method for this codec
        return _read_body

    def _plain_dataclass(self) -> bool:
        """True when direct construction is indistinguishable from __init__.

        Requires a dataclass without ``__post_init__`` or ``__slots__`` whose
        init fields are exactly the registered wire fields, in order — then
        the generated ``__init__`` does nothing but assign them.
        """
        cls = self.cls
        if not dataclasses.is_dataclass(cls):
            return False
        if hasattr(cls, "__post_init__") or "__slots__" in cls.__dict__:
            return False
        fields = dataclasses.fields(cls)
        if not all(field.init for field in fields):
            return False
        return tuple(field.name for field in fields) == self._names

    def json_body(self, artifact) -> Dict[str, object]:
        return {
            name: field.to_json(getattr(artifact, name))
            for name, field in self.fields
        }


_TAGS: Dict[int, _ArtifactCodec] = {}
_TYPES: Dict[type, _ArtifactCodec] = {}


def register_artifact(
    tag: int,
    cls: type,
    fields: Sequence[Tuple[str, _Field]],
    post: Optional[Callable[[object], None]] = None,
) -> None:
    """Register a codec for ``cls`` under ``tag``.

    The service layer uses this to add its request/response envelopes to the
    same registry the proof artifacts live in, so one :func:`decode` call
    handles every frame.
    """
    if tag in _TAGS:
        raise ValueError(f"wire tag {tag:#04x} is already registered")
    if cls in _TYPES:
        raise ValueError(f"{cls.__name__} is already registered")
    codec = _ArtifactCodec(tag, cls, fields, post)
    _TAGS[tag] = codec
    _TYPES[cls] = codec


def _codec_for_type(cls: type) -> _ArtifactCodec:
    codec = _TYPES.get(cls)
    if codec is None:
        raise ValueError(f"no wire codec registered for {cls.__name__}")
    return codec


# -- validation hooks ---------------------------------------------------------


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise WireFormatError(message, reason="invalid-artifact")


def _post_merkle_proof(proof: MerkleProof) -> None:
    _check(proof.tree_size >= 1, "Merkle proof tree size must be at least 1")
    _check(
        0 <= proof.leaf_index < proof.tree_size,
        "Merkle proof leaf index out of range",
    )


def _post_aggregate(aggregate: AggregateSignature) -> None:
    _check(aggregate.value >= 1, "aggregate signature value must be positive")
    _check(aggregate.count >= 1, "aggregate signature count must be positive")


def _post_filtered(entry: FilteredEntryProof) -> None:
    _check(
        entry.reason in ("predicate", "access-control"),
        f"unknown filtering reason {entry.reason!r}",
    )


def _post_public_key(key: RSAPublicKey) -> None:
    _check(key.modulus >= 3, "RSA modulus must be at least 3")
    _check(key.exponent >= 3, "RSA public exponent must be at least 3")
    _check_hash_name(key.hash_name)


def _check_hash_name(name: str) -> None:
    try:
        hashlib.new(name)
    except (ValueError, TypeError):
        raise WireFormatError(
            f"unknown hash algorithm {name!r}", reason="invalid-artifact"
        ) from None


def _post_manifest(manifest: RelationManifest) -> None:
    _check(manifest.base >= 2, "digest-scheme base must be at least 2")
    _check(manifest.sequence >= 0, "negative manifest sequence")
    _check_hash_name(manifest.hash_name)


def _post_receipt(receipt: UpdateReceipt) -> None:
    _check(receipt.signatures_recomputed >= 0, "negative signature count")
    _check(receipt.digests_recomputed >= 0, "negative digest count")
    _check(receipt.chain_messages_recomputed >= 0, "negative chain-message count")
    # Section 6.3 accounting invariants: exactly one signature per affected
    # chain entry, and every re-derived chain message is re-signed.  Enforced
    # at decode so a receipt whose counts drifted (or were tampered with) in
    # transit can never silently round-trip.
    _check(
        receipt.signatures_recomputed == len(receipt.entries_affected),
        "signature count disagrees with the affected-entry list",
    )
    _check(
        receipt.chain_messages_recomputed == receipt.signatures_recomputed,
        "chain-message count disagrees with the signature count",
    )


# -- registrations ------------------------------------------------------------

register_artifact(0x01, EntryAssist, [("mht_root", _Optional(BYTES))])

register_artifact(
    0x02,
    BoundaryAssist,
    [
        ("intermediate_digests", _Tuple(BYTES)),
        ("used_canonical", BOOL),
        ("mht_root", _Optional(BYTES)),
        ("canonical_digest", _Optional(BYTES)),
        ("mht_proof", _Optional(_Nested(MerkleProof))),
    ],
)

register_artifact(
    0x03,
    MerkleProof,
    [
        ("leaf_index", INT),
        ("siblings", _Tuple(_Pair(BYTES, BOOL))),
        ("tree_size", INT),
    ],
    post=_post_merkle_proof,
)

register_artifact(
    0x04,
    AggregateSignature,
    [("value", INT), ("count", INT)],
    post=_post_aggregate,
)

register_artifact(
    0x05,
    SignatureBundle,
    [
        ("individual", _Tuple(INT)),
        ("aggregate", _Optional(_Nested(AggregateSignature))),
    ],
)

register_artifact(
    0x06,
    GreaterThanProof,
    [
        ("alpha", INT),
        ("predecessor_boundary", _Nested(BoundaryAssist)),
        ("entry_assists", _Tuple(_Nested(EntryAssist))),
        ("right_delimiter_digest", BYTES),
        ("signatures", _Nested(SignatureBundle)),
    ],
)

register_artifact(
    0x07,
    BoundaryEntryProof,
    [
        ("side", _EnumStr("lower", "upper")),
        ("chain_boundary", _Nested(BoundaryAssist)),
        ("other_chain_digest", BYTES),
        ("attribute_root", BYTES),
    ],
)

register_artifact(
    0x08,
    MatchedEntryProof,
    [
        ("upper_assist", _Nested(EntryAssist)),
        ("lower_assist", _Nested(EntryAssist)),
        ("dropped_attribute_digests", _Map(STR, BYTES)),
        ("eliminated_duplicate", BOOL),
        ("revealed_attributes", _Map(STR, SCALAR)),
        ("key", _Optional(INT)),
    ],
)

register_artifact(
    0x09,
    FilteredEntryProof,
    [
        ("revealed_attributes", _Map(STR, SCALAR)),
        ("attribute_leaf_digests", _Map(STR, BYTES)),
        ("upper_chain_digest", BYTES),
        ("lower_chain_digest", BYTES),
        ("reason", _EnumStr("predicate", "access-control")),
    ],
    post=_post_filtered,
)

register_artifact(
    0x0A,
    RangeQueryProof,
    [
        ("key_low", INT),
        ("key_high", INT),
        ("lower_boundary", _Nested(BoundaryEntryProof)),
        ("upper_boundary", _Nested(BoundaryEntryProof)),
        ("entries", _Tuple(_Union(MatchedEntryProof, FilteredEntryProof))),
        ("signatures", _Nested(SignatureBundle)),
        ("outer_neighbor_digest", _Optional(BYTES)),
    ],
)

register_artifact(
    0x0B,
    JoinQueryProof,
    [
        ("left_proof", _Nested(RangeQueryProof)),
        ("right_point_proofs", _Map(INT, _Nested(RangeQueryProof))),
    ],
)

register_artifact(
    0x0C,
    UpdateReceipt,
    [
        ("signatures_recomputed", INT),
        ("digests_recomputed", INT),
        ("entries_affected", _Tuple(INT)),
        ("chain_messages_recomputed", INT),
    ],
    post=_post_receipt,
)

register_artifact(
    0x10,
    RSAPublicKey,
    [("modulus", INT), ("exponent", INT), ("hash_name", STR)],
    post=_post_public_key,
)

register_artifact(0x11, KeyDomain, [("lower", INT), ("upper", INT)])

register_artifact(
    0x12,
    Attribute,
    [
        ("name", STR),
        ("attribute_type", _AttrType()),
        ("domain", _Optional(_Nested(KeyDomain))),
        ("size_hint", INT),
    ],
)

register_artifact(
    0x13,
    Schema,
    [
        ("name", STR),
        ("attributes", _Tuple(_Nested(Attribute))),
        ("key", STR),
    ],
)

register_artifact(
    0x14,
    RelationManifest,
    [
        ("schema", _Nested(Schema)),
        ("scheme_kind", _EnumStr("conceptual", "optimized")),
        ("base", INT),
        ("hash_name", STR),
        ("public_key", _Nested(RSAPublicKey)),
        ("sequence", INT),
    ],
    post=_post_manifest,
)

register_artifact(
    0x20,
    RangeCondition,
    [
        ("attribute", STR),
        ("low", _Optional(INT)),
        ("high", _Optional(INT)),
    ],
)

register_artifact(
    0x21, EqualityCondition, [("attribute", STR), ("value", SCALAR)]
)

register_artifact(
    0x22,
    Conjunction,
    [("conditions", _Tuple(_Union(RangeCondition, EqualityCondition)))],
)

register_artifact(
    0x23,
    Projection,
    [("attributes", _Optional(_Tuple(STR))), ("distinct", BOOL)],
)

register_artifact(
    0x24,
    Query,
    [
        ("relation_name", STR),
        ("where", _Nested(Conjunction)),
        ("projection", _Nested(Projection)),
    ],
)

register_artifact(
    0x25,
    JoinQuery,
    [
        ("left_relation", STR),
        ("right_relation", STR),
        ("foreign_key", STR),
        ("primary_key", STR),
        ("where", _Nested(Conjunction)),
        ("projection", _Nested(Projection)),
    ],
)


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------


def encode(artifact) -> bytes:
    """Encode ``artifact`` to its canonical framed wire bytes."""
    codec = _codec_for_type(type(artifact))
    writer = WireWriter()
    writer.u8(codec.tag)
    codec.write_body(writer, artifact)
    return _MAGIC + bytes((WIRE_VERSION,)) + writer.getvalue()


def frame_header(cls: type) -> bytes:
    """The four bytes every framed ``cls`` artifact starts with."""
    return _MAGIC + bytes((WIRE_VERSION, _codec_for_type(cls).tag))


def cut_leading_bytes(
    frame: bytes, count: int
) -> Optional[Tuple[Tuple[bytes, ...], bytes]]:
    """Cut a frame's first ``count`` BYTES fields out, without decoding it.

    Returns ``(values, the frame without them)``, or ``None`` for a frame too
    short to hold them.  What follows the cut fields decodes independently
    of them, so frames with equal remainders differ in those fields only.
    """
    offset = 4
    values = []
    for _ in range(count):
        end = offset + 4 + int.from_bytes(frame[offset : offset + 4], "big")
        values.append(frame[offset + 4 : end])
        offset = end
    if offset > len(frame):
        return None
    return tuple(values), frame[:4] + frame[offset:]


def encode_tail(artifact, first_field: str) -> bytes:
    """What ``encode(artifact)`` ends with: its fields from ``first_field`` on."""
    codec = _codec_for_type(type(artifact))
    writer = WireWriter()
    for name, field in codec.fields[codec._names.index(first_field) :]:
        field.write(writer, getattr(artifact, name))
    return writer.getvalue()


def decode(data, expect: Optional[type] = None):
    """Decode framed wire bytes back into the artifact they encode.

    Accepts ``bytes`` as well as ``bytearray``/``memoryview`` buffers (copied
    to ``bytes`` once).  ``expect`` optionally pins the artifact type: a well-formed frame of a
    different type is rejected (a publisher cannot, say, answer a range query
    with a join proof and hope the client mixes them up).
    """
    reader = WireReader(data)
    magic = reader.raw(2, "magic")
    if magic != _MAGIC:
        raise WireFormatError(
            f"bad magic {bytes(magic)!r}; expected {_MAGIC!r}", reason="bad-magic"
        )
    version = reader.u8("format version")
    if version != WIRE_VERSION:
        raise WireFormatError(
            f"unsupported wire format version {version}", reason="bad-version"
        )
    tag = reader.u8("artifact tag")
    codec = _TAGS.get(tag)
    if codec is None:
        raise WireFormatError(f"unknown artifact tag {tag:#04x}", reason="bad-tag")
    artifact = codec.read_body(reader)
    reader.expect_end()
    if expect is not None and not isinstance(artifact, expect):
        raise WireFormatError(
            f"expected a {expect.__name__}, decoded a {codec.name}",
            reason="unexpected-artifact",
        )
    return artifact


def to_json_obj(artifact) -> Dict[str, object]:
    """The JSON debug representation of ``artifact`` (a plain dict)."""
    codec = _codec_for_type(type(artifact))
    return {
        "format": f"repro-wire-json/{WIRE_VERSION}",
        "type": codec.name,
        "body": codec.json_body(artifact),
    }


def to_json(artifact, indent: Optional[int] = None) -> str:
    """Serialise ``artifact`` to a JSON debug string."""
    return json.dumps(to_json_obj(artifact), indent=indent, sort_keys=True)


def manifest_id(manifest: RelationManifest) -> bytes:
    """The 32-byte routing/commitment id of a manifest.

    SHA-256 over the canonical wire encoding: two manifests share an id
    exactly when they are byte-identical on the wire.  Clients address shards
    by this id and cross-check it against the manifest bytes a server returns.
    """
    return hashlib.sha256(encode(manifest)).digest()
