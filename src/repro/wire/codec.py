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
union-typed fields carry a one-byte type tag.

A verified answer spends its bytes on digests, signatures and values:

* every digest of a range proof is written bare, at the one width (a byte,
  1..64) the proof declares first; an artifact that carries digests but
  declares none (a proof part framed on its own) has its frame declare it,
  0 when it holds no digest;
* a proof part (matched, filtered and boundary entries, boundary assists)
  opens with one flags byte: one bit per boolean, two-valued string, optional
  or map field, so an absent part takes no bytes.  An unknown bit and a map
  flagged present but empty are refused, and the high bit tells the matched
  and filtered entries of a proof apart;
* answer rows name their sorted columns once, then carry each row's scalars
  in column order.

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
There is one decode path and one encode path: each artifact's table is
compiled, on first use, into one flat ``read_body`` and one flat
``write_body`` function, leaf artifacts inlined and the primitives written
out as statements.  A generated reader reads the well-formed common case
inline; any anomaly rewinds to the start of that primitive and re-reads it
through the strict :class:`~repro.wire.primitives.WireReader` method, so
every rejection keeps its typed reason and message.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import inspect
import json
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Type

from repro.core.proof import (
    BoundaryEntryProof,
    FilteredEntryProof,
    JoinQueryProof,
    MatchedEntryProof,
    RangeQueryProof,
    SignatureBundle,
)
from repro.core.digest import BoundaryAssist, EntryAssist
from repro.core.relational import RelationManifest, UpdateReceipt
from repro.crypto.aggregate import AggregateSignature
from repro.crypto.encoding import encode_value
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
from repro.wire.primitives import _U32, MAX_FIELD_BYTES, WireReader

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
    "ROWS",
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
#: Version 6 drops the manifest's digest-scheme kind (every served chain is
#: Section 5.1's) and the Section 3 list proof's registration (tag 0x06).
#: Version 7 writes a proof's digests at one declared width, opens each proof
#: part with a flags byte, and names an answer's row columns once.
WIRE_VERSION = 7
_MAGIC = b"PV"

#: The widest digest a proof may declare (hashlib's largest fixed output).
MAX_DIGEST_WIDTH = 64
#: ``_BYTE[i] == bytes((i,))``: flags and width bytes without a call.
_BYTE = tuple(bytes((i,)) for i in range(256))


# ---------------------------------------------------------------------------
# Code generation
# ---------------------------------------------------------------------------


class _Emitter:
    """The body of one generated function: indented lines, fresh locals, bindings.

    Reader code keeps the cursor in three locals — ``d`` (the input bytes),
    ``e`` (their length) and ``o`` (the offset) — and primitives are read
    inline from them.  Whenever an inline read meets anything it does not
    handle (a short input, an oversized or non-canonical field, invalid
    UTF-8), :meth:`strict` hands the offset back to
    ``reader`` and re-reads that one primitive through the strict
    :class:`~repro.wire.primitives.WireReader` method, which either raises
    its typed error or returns the value; the fast path then resumes.  The
    accepted language and every rejection are therefore the strict reader's.
    Writer code appends to ``ap`` (a list's ``append``) the exact bytes the
    strict encoding defines, raising the same exception types.
    """

    def __init__(self, bindings: Dict[str, object]) -> None:
        self.bindings = bindings
        self.lines: List[str] = []
        self.depth = 1
        self.locals = 0

    def line(self, text: str) -> None:
        self.lines.append("    " * self.depth + text)

    @contextmanager
    def block(self, header: str):
        self.line(header)
        self.depth += 1
        yield
        self.depth -= 1

    def local(self, prefix: str) -> str:
        self.locals += 1
        return f"{prefix}{self.locals}"

    def bind(self, prefix: str, value) -> str:
        """Register ``value`` under a fresh global name of the generated code."""
        name = f"_{prefix}{len(self.bindings)}"
        self.bindings[name] = value
        return name

    def strict(self, target: str, call: str) -> None:
        """Re-read the field at ``o`` through a strict ``reader`` method."""
        self.line("reader._offset = o")
        self.line(f"{target} = {call}")
        self.line("o = reader._offset")

    def compile(self, header: str, name: str, filename: str):
        source = "\n".join([header] + self.lines)
        exec(  # noqa: S102 - codegen from the trusted field-spec tables
            compile(source, filename, "exec"), self.bindings
        )
        return self.bindings[name]


def _emit_count(em: _Emitter, target: str, label: str) -> None:
    """A u32 element count, bounded by the remaining bytes (``WireReader.count``)."""
    em.line("s = o + 4")
    with em.block(f"if s <= e and ({target} := _U32(d, o)[0]) <= e - s:"):
        em.line("o = s")
    with em.block("else:"):
        em.strict(target, f"reader.count({label})")


def _emit_length(em: _Emitter, sized: str) -> None:
    """Write ``len(sized)`` as a u32 (a byte string's prefix, a collection's count)."""
    em.line(f"n = len({sized})")
    with em.block("if n > 0xFFFFFFFF:"):
        em.line("raise ValueError(f'u32 out of range: {n}')")
    em.line("ap(n.to_bytes(4, 'big'))")


def _emit_prefixed(em: _Emitter, raw: str) -> None:
    """Write the bytes in local ``raw`` behind their u32 length prefix."""
    _emit_length(em, raw)
    em.line(f"ap({raw})")


def _emit_int_bytes(em: _Emitter, value: str, target: str, tag: str = "") -> None:
    """``target = [tag] sign byte | minimal big-endian magnitude`` of ``value``."""
    head = f"b{tag!r} + " if tag else ""
    em.line(
        f"{target} = {head}(b'\\x01' if {value} < 0 else b'\\x00') + "
        f"(m := abs({value})).to_bytes(max(1, (m.bit_length() + 7) // 8), 'big')"
    )


# ---------------------------------------------------------------------------
# Field types
# ---------------------------------------------------------------------------


class _Field:
    """One wire-field type: reader and writer emission, and the JSON mirror.

    ``emit_read`` appends the statements that read this field into the local
    ``target`` (``label`` names the bound error-context string);
    ``emit_write`` appends the statements that write the value in the local
    ``value``.  Both are composed into one flat function per artifact (see
    :class:`_ArtifactCodec`).
    """

    #: Whether the field embeds another artifact (possibly inside an
    #: optional, tuple, pair or map).
    nests = False
    #: Whether the field holds digests at its proof's width.
    digests = False

    def emit_read(self, em: _Emitter, target: str, label: str) -> None:
        raise NotImplementedError

    def emit_write(self, em: _Emitter, value: str) -> None:
        raise NotImplementedError

    def to_json(self, value):
        raise NotImplementedError

    def walk(self, value):
        """The digests the field's ``value`` carries (declared width only)."""
        return ()


class _Int(_Field):
    def emit_read(self, em, target, label):
        # Canonical sign+magnitude: a 0/1 sign byte, a minimal magnitude
        # (no leading zero byte unless it is the only one) and no negative
        # zero; anything else is the strict reader's to refuse.
        em.line("s = o + 4")
        with em.block(
            "if s <= e and 2 <= (n := _U32(d, o)[0]) <= _MAX and (t := s + n) <= e"
            " and (c := d[s]) <= 1 and (d[s + 1] or (n == 2 and not c)):"
        ):
            em.line(
                f"{target} = -int.from_bytes(d[s + 1:t], 'big') if c"
                " else int.from_bytes(d[s + 1:t], 'big')"
            )
            em.line("o = t")
        with em.block("else:"):
            em.strict(target, f"reader.int_({label})")

    def emit_write(self, em, value):
        _emit_int_bytes(em, value, "b")
        _emit_prefixed(em, "b")

    def to_json(self, value):
        return int(value)


class _Bool(_Field):
    def emit_read(self, em, target, label):
        with em.block("if o < e and (c := d[o]) <= 1:"):
            em.line(f"{target} = c == 1")
            em.line("o += 1")
        with em.block("else:"):
            em.strict(target, f"reader.bool_({label})")

    def emit_write(self, em, value):
        em.line(f"ap(b'\\x01' if {value} else b'\\x00')")

    def to_json(self, value):
        return bool(value)


class _Str(_Field):
    def emit_read(self, em, target, label):
        em.line("s = o + 4")
        with em.block("if s <= e and (n := _U32(d, o)[0]) <= _MAX and (t := s + n) <= e:"):
            with em.block("try:"):
                em.line(f"{target} = str(d[s:t], 'utf-8')")
            with em.block("except UnicodeDecodeError:"):
                em.strict(target, f"reader.str_({label})")
            with em.block("else:"):
                em.line("o = t")
        with em.block("else:"):
            em.strict(target, f"reader.str_({label})")

    def emit_write(self, em, value):
        em.line(f"b = {value}.encode('utf-8')")
        _emit_prefixed(em, "b")

    def to_json(self, value):
        return str(value)


class _Bytes(_Field):
    def emit_read(self, em, target, label):
        em.line("s = o + 4")
        with em.block("if s <= e and (n := _U32(d, o)[0]) <= _MAX and (t := s + n) <= e:"):
            em.line(f"{target} = d[s:t]")
            em.line("o = t")
        with em.block("else:"):
            em.strict(target, f"reader.bytes_({label})")

    def emit_write(self, em, value):
        em.line(f"b = bytes({value})")
        _emit_prefixed(em, "b")

    def to_json(self, value):
        return bytes(value).hex()


class _Scalar(_Field):
    """A typed attribute value (None/bool/int/float/str/bytes)."""

    def emit_read(self, em, target, label):
        # Inline: the canonical int ('I'), text ('S') and bytes ('Y') tags;
        # every other or rejected shape is the strict scalar reader's.
        em.line("s = o + 4")
        with em.block("if s <= e and 0 < (n := _U32(d, o)[0]) <= _MAX and (t := s + n) <= e:"):
            em.line("c = d[s]")
            with em.block(
                "if c == 73 and n >= 3 and (z := d[s + 1]) <= 1"
                " and (d[s + 2] or (n == 3 and not z)):"
            ):
                em.line(
                    f"{target} = -int.from_bytes(d[s + 2:t], 'big') if z"
                    " else int.from_bytes(d[s + 2:t], 'big')"
                )
                em.line("o = t")
            with em.block("elif c == 83:"):
                with em.block("try:"):
                    em.line(f"{target} = str(d[s + 1:t], 'utf-8')")
                with em.block("except UnicodeDecodeError:"):
                    em.strict(target, f"reader.scalar({label})")
                with em.block("else:"):
                    em.line("o = t")
            with em.block("elif c == 89:"):
                em.line(f"{target} = d[s + 1:t]")
                em.line("o = t")
            with em.block("else:"):
                em.strict(target, f"reader.scalar({label})")
        with em.block("else:"):
            em.strict(target, f"reader.scalar({label})")

    def emit_write(self, em, value):
        with em.block(f"if type({value}) is int:"):
            _emit_int_bytes(em, value, "b", tag="I")
        with em.block(f"elif type({value}) is str:"):
            em.line(f"b = b'S' + {value}.encode('utf-8')")
        with em.block("else:"):
            em.line(f"b = _encode_value({value})")
        _emit_prefixed(em, "b")

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

    def emit_read(self, em, target, label):
        with em.block(f"if (t := o + {self.size}) <= e:"):
            em.line(f"{target} = d[o:t]")
            em.line("o = t")
        with em.block("else:"):
            em.strict(target, f"reader.fixed_bytes({self.size}, {label})")

    def emit_write(self, em, value):
        em.line(f"b = bytes({value})")
        with em.block(f"if len(b) != {self.size}:"):
            em.line(
                "raise ValueError(f'fixed-width field needs exactly "
                f"{self.size} bytes, got {{len(b)}}')"
            )
        em.line("ap(b)")

    def to_json(self, value):
        return bytes(value).hex()


class _Digest(_FixedBytes):
    """A digest at the width of its proof: the local ``dw`` of the generated code."""

    digests = True

    def __init__(self) -> None:
        self.size = "dw"

    def emit_write(self, em, value):
        em.line(f"b = bytes({value})")
        with em.block("if len(b) != dw:"):
            em.line(
                "raise ValueError(f'a digest of {len(b)} bytes in a proof of "
                "{dw}-byte digests')"
            )
        em.line("ap(b)")

    def walk(self, value):
        yield value


class _Optional(_Field):
    def __init__(self, inner: _Field) -> None:
        self.inner = inner
        self.nests = inner.nests

    @property
    def digests(self) -> bool:
        return self.inner.digests

    def walk(self, value):
        return () if value is None else self.inner.walk(value)

    def emit_read(self, em, target, label):
        present = em.local("p")
        with em.block(f"if o < e and ({present} := d[o]) <= 1:"):
            em.line("o += 1")
        with em.block("else:"):
            em.strict(present, f"reader.optional({label})")
        with em.block(f"if {present}:"):
            self.inner.emit_read(em, target, label)
        with em.block("else:"):
            em.line(f"{target} = None")

    def emit_write(self, em, value):
        with em.block(f"if {value} is None:"):
            em.line("ap(b'\\x00')")
        with em.block("else:"):
            em.line("ap(b'\\x01')")
            self.inner.emit_write(em, value)

    def to_json(self, value):
        return None if value is None else self.inner.to_json(value)


class _Tuple(_Field):
    def __init__(self, inner: _Field) -> None:
        self.inner = inner
        self.nests = inner.nests

    @property
    def digests(self) -> bool:
        return self.inner.digests

    def walk(self, value):
        for item in value:
            yield from self.inner.walk(item)

    def emit_read(self, em, target, label):
        # One label for every element (the element index would cost a string
        # format per field and only ever shows up in error text).
        count, items, item = em.local("k"), em.local("a"), em.local("x")
        _emit_count(em, count, label)
        em.line(f"{items} = []")
        with em.block(f"for _ in range({count}):"):
            self.inner.emit_read(em, item, label)
            em.line(f"{items}.append({item})")
        em.line(f"{target} = tuple({items})")

    def emit_write(self, em, value):
        items, item = em.local("a"), em.local("x")
        em.line(f"{items} = tuple({value})")
        _emit_length(em, items)
        with em.block(f"for {item} in {items}:"):
            self.inner.emit_write(em, item)

    def to_json(self, value):
        return [self.inner.to_json(item) for item in value]


class _Pair(_Field):
    def __init__(self, first: _Field, second: _Field) -> None:
        self.first = first
        self.second = second
        self.nests = first.nests or second.nests

    @property
    def digests(self) -> bool:
        return self.first.digests or self.second.digests

    def walk(self, value):
        yield from self.first.walk(value[0])
        yield from self.second.walk(value[1])

    def emit_read(self, em, target, label):
        first, second = em.local("x"), em.local("x")
        self.first.emit_read(em, first, label)
        self.second.emit_read(em, second, label)
        em.line(f"{target} = ({first}, {second})")

    def emit_write(self, em, value):
        first, second = em.local("x"), em.local("x")
        em.line(f"{first}, {second} = {value}")
        self.first.emit_write(em, first)
        self.second.emit_write(em, second)

    def to_json(self, value):
        a, b = value
        return [self.first.to_json(a), self.second.to_json(b)]


class _Map(_Field):
    """A mapping with canonically sorted (strictly increasing) keys."""

    def __init__(self, key: _Field, value: _Field) -> None:
        self.key = key
        self.value = value
        self.nests = key.nests or value.nests

    @property
    def digests(self) -> bool:
        return self.value.digests

    def walk(self, value):
        for item in value.values():
            yield from self.value.walk(item)

    def emit_read(self, em, target, label):
        count, result, previous = em.local("k"), em.local("r"), em.local("q")
        key, value = em.local("x"), em.local("x")
        _emit_count(em, count, label)
        em.line(f"{result} = {{}}")
        em.line(f"{previous} = None")
        with em.block(f"for _ in range({count}):"):
            self.key.emit_read(em, key, label)
            with em.block(f"if {previous} is not None and not {key} > {previous}:"):
                em.line(
                    f"raise _WireFormatError(f'map keys of {{{label}}} are not "
                    "strictly increasing', reason='unsorted-map')"
                )
            em.line(f"{previous} = {key}")
            self.value.emit_read(em, value, label)
            em.line(f"{result}[{key}] = {value}")
        em.line(f"{target} = {result}")

    def emit_write(self, em, value):
        items, key, item = em.local("a"), em.local("x"), em.local("x")
        em.line(f"{items} = sorted({value}.items())")
        _emit_length(em, items)
        with em.block(f"for {key}, {item} in {items}:"):
            self.key.emit_write(em, key)
            self.value.emit_write(em, item)

    def to_json(self, value):
        return {
            str(k): self.value.to_json(v) for k, v in sorted(value.items())
        }


class _Nested(_Field):
    """An embedded artifact of one fixed type (body-only, no tag)."""

    nests = True

    def __init__(self, cls: type) -> None:
        self.cls = cls

    @property
    def digests(self) -> bool:
        return _codec_for_type(self.cls).inherits_width

    def walk(self, value):
        codec = _codec_for_type(self.cls)
        return codec.walk(value) if codec.inherits_width else ()

    def emit_read(self, em, target, label):
        _codec_for_type(self.cls).emit_read_nested(em, target)

    def emit_write(self, em, value):
        _codec_for_type(self.cls).emit_write_nested(em, value)

    def to_json(self, value):
        return _codec_for_type(self.cls).json_body(value)


class _Union(_Field):
    """An embedded artifact of one of several types (1-byte tag + body)."""

    nests = True
    tagged = True

    def __init__(self, *classes: type) -> None:
        self.classes = classes

    def emit_read(self, em, target, label):
        tag = em.local("g")
        with em.block("if o < e:"):
            em.line(f"{tag} = d[o]")
            em.line("o += 1")
        with em.block("else:"):
            em.strict(tag, f"reader.u8({label})")
        keyword = "if"
        for cls in self.classes:
            codec = _codec_for_type(cls)
            with em.block(f"{keyword} {tag} == {codec.tag}:"):
                codec.emit_read_nested(em, target)
            keyword = "elif"
        allowed = em.bind("s", "/".join(cls.__name__ for cls in self.classes))
        with em.block("else:"):
            em.line(
                f"raise _WireFormatError(f'tag {{{tag}:#04x}} of {{{label}}} is not "
                f"one of {{{allowed}}}', reason='bad-union-tag')"
            )

    def emit_write(self, em, value):
        kind = em.local("y")
        em.line(f"{kind} = type({value})")
        keyword = "if"
        for cls in self.classes:
            codec = _codec_for_type(cls)
            with em.block(f"{keyword} {kind} is {em.bind('k', cls)}:"):
                if self.tagged:
                    em.line(f"ap({bytes((codec.tag,))!r})")
                codec.emit_write_nested(em, value)
            keyword = "elif"
        with em.block("else:"):
            em.line(f"{em.bind('f', self._refuse)}({value})")

    def _refuse(self, value) -> None:
        codec = _codec_for_type(type(value))
        if codec.cls not in self.classes:
            raise ValueError(f"{type(value).__name__} is not a member of this union")

    def to_json(self, value):
        codec = _codec_for_type(type(value))
        return {"type": codec.name, "body": codec.json_body(value)}


class _FlagUnion(_Union):
    """An embedded artifact of one of several flag-opened types, no tag.

    Each member's flags byte sets its own ``kind`` bits, so the union reads
    the flags byte, picks the member by its kind bits and hands the byte on
    to the member's body, which checks the rest of it.
    """

    tagged = False

    @property
    def digests(self) -> bool:
        return any(_codec_for_type(cls).inherits_width for cls in self.classes)

    def walk(self, value):
        return _codec_for_type(type(value)).walk(value)

    def emit_read(self, em, target, label):
        members = [_codec_for_type(cls) for cls in self.classes]
        mask = 0
        for codec in members:
            mask |= codec.kind
        flags = em.local("g")
        with em.block("if o < e:"):
            em.line(f"{flags} = d[o]")
            em.line("o += 1")
        with em.block("else:"):
            em.strict(flags, f"reader.u8({label})")
        keyword = "if"
        for codec in members[:-1]:
            with em.block(f"{keyword} {flags} & {mask} == {codec.kind}:"):
                codec.emit_read_nested(em, target, flags)
            keyword = "elif"
        # The last member reads any other kind, and refuses it as bad flags.
        with em.block("else:"):
            members[-1].emit_read_nested(em, target, flags)


class _Flag(_Field):
    """One bit of its artifact's flags byte, and what a set bit announces.

    :meth:`present` is the expression, over the value in a local, that sets
    the bit; :meth:`emit_write` writes the bytes a set bit announces (none
    unless ``payload``), and :meth:`emit_read_flagged` reads the field given
    the expression of its bit.
    """

    payload = True

    def present(self, value: str) -> str:
        raise NotImplementedError

    def emit_check(self, em: _Emitter, value: str) -> None:
        """Statements refusing a value the bit cannot stand for."""

    def emit_read_flagged(self, em: _Emitter, target: str, label: str, bit: str) -> None:
        raise NotImplementedError


class _FlagBool(_Flag):
    """A boolean that is its bit."""

    payload = False

    def present(self, value):
        return value

    def emit_read_flagged(self, em, target, label, bit):
        em.line(f"{target} = ({bit}) != 0")

    def to_json(self, value):
        return bool(value)


class _FlagChoice(_Flag):
    """A string of two allowed values: its bit is set for ``on``."""

    payload = False

    def __init__(self, off: str, on: str) -> None:
        self.off = off
        self.on = on

    def present(self, value):
        return f"{value} == {self.on!r}"

    def emit_check(self, em, value):
        with em.block(f"if {value} != {self.on!r} and {value} != {self.off!r}:"):
            em.line(f"{em.bind('f', self._refuse)}({value})")

    def _refuse(self, value) -> None:
        raise ValueError(f"{value!r} is neither {self.off!r} nor {self.on!r}")

    def emit_read_flagged(self, em, target, label, bit):
        em.line(f"{target} = {self.on!r} if {bit} else {self.off!r}")

    def to_json(self, value):
        return str(value)


class _FlagOptional(_Flag, _Optional):
    """An optional whose presence is its bit: ``None`` takes no bytes."""

    def present(self, value):
        return f"{value} is not None"

    def emit_write(self, em, value):
        self.inner.emit_write(em, value)

    def emit_read_flagged(self, em, target, label, bit):
        with em.block(f"if {bit}:"):
            self.inner.emit_read(em, target, label)
        with em.block("else:"):
            em.line(f"{target} = None")


class _FlagMap(_Flag, _Map):
    """A map whose bit says it is non-empty: an empty map takes no bytes."""

    def present(self, value):
        return value

    def emit_write(self, em, value):
        _Map.emit_write(self, em, value)

    def emit_read_flagged(self, em, target, label, bit):
        with em.block(f"if {bit}:"):
            _Map.emit_read(self, em, target, label)
            with em.block(f"if not {target}:"):
                em.line(f"raise {em.bind('f', _empty_map)}({label})")
        with em.block("else:"):
            em.line(f"{target} = {{}}")


class _FlagAssist(_Flag):
    """An :class:`EntryAssist` as one bit, plus its root digest when it has one."""

    digests = True

    def present(self, value):
        return f"{value}.mht_root is not None"

    def emit_write(self, em, value):
        DIGEST.emit_write(em, f"{value}.mht_root")

    def emit_read_flagged(self, em, target, label, bit):
        root = em.local("x")
        with em.block(f"if {bit}:"):
            DIGEST.emit_read(em, root, label)
            em.line(f"{target} = _new({em.bind('k', EntryAssist)})")
            em.line(f"{target}.__dict__['mht_root'] = {root}")
        with em.block("else:"):
            em.line(f"{target} = {em.bind('a', EntryAssist())}")

    def walk(self, value):
        return () if value.mht_root is None else (value.mht_root,)

    def to_json(self, value):
        return _codec_for_type(EntryAssist).json_body(value)


class _Rows(_Field):
    """Answer rows of one column set.

    The row count, then, when there are rows, the sorted column names once
    and each row's scalars in column order.  A scalar keeps its
    ``u32 length | encode_value(v)`` bytes, an attribute leaf's pre-image
    tail.  Rows whose key sets differ are refused at encode.
    """

    def emit_read(self, em, target, label):
        count, width, rows = em.local("k"), em.local("k"), em.local("a")
        columns, name, previous = em.local("a"), em.local("x"), em.local("q")
        values, item = em.local("a"), em.local("x")
        _emit_count(em, count, label)
        em.line(f"{rows} = []")
        with em.block(f"if {count}:"):
            _emit_count(em, width, label)
            em.line(f"{columns} = []")
            em.line(f"{previous} = None")
            with em.block(f"for _ in range({width}):"):
                STR.emit_read(em, name, label)
                with em.block(f"if {previous} is not None and not {name} > {previous}:"):
                    em.line(
                        f"raise _WireFormatError(f'column names of {{{label}}} are not "
                        "strictly increasing', reason='unsorted-map')"
                    )
                em.line(f"{previous} = {name}")
                em.line(f"{columns}.append({name})")
            with em.block(f"for _ in range({count}):"):
                em.line(f"{values} = []")
                with em.block(f"for _ in range({width}):"):
                    SCALAR.emit_read(em, item, label)
                    em.line(f"{values}.append({item})")
                em.line(f"{rows}.append(dict(zip({columns}, {values})))")
        em.line(f"{target} = tuple({rows})")

    def emit_write(self, em, value):
        rows, columns, keys = em.local("a"), em.local("a"), em.local("y")
        row, name, item = em.local("x"), em.local("x"), em.local("x")
        em.line(f"{rows} = tuple({value})")
        _emit_length(em, rows)
        with em.block(f"if {rows}:"):
            em.line(f"{keys} = {rows}[0].keys()")
            em.line(f"{columns} = sorted({keys})")
            _emit_length(em, columns)
            with em.block(f"for {name} in {columns}:"):
                STR.emit_write(em, name)
            with em.block(f"for {row} in {rows}:"):
                with em.block(f"if {row}.keys() != {keys}:"):
                    em.line("raise ValueError('rows of one answer must share their columns')")
                with em.block(f"for {name} in {columns}:"):
                    em.line(f"{item} = {row}[{name}]")
                    SCALAR.emit_write(em, item)

    def to_json(self, value):
        return [
            {str(k): SCALAR.to_json(v) for k, v in sorted(row.items())} for row in value
        ]


class _EnumStr(_Str):
    """A string restricted to a fixed set of values (validated on decode)."""

    def __init__(self, *allowed: str) -> None:
        self.allowed = frozenset(allowed)

    def emit_read(self, em, target, label):
        super().emit_read(em, target, label)
        with em.block(f"if {target} not in {em.bind('e', self.allowed)}:"):
            em.line(f"raise {em.bind('f', self._refusal)}({label}, {target})")

    def _refusal(self, what: str, value: str) -> WireFormatError:
        return WireFormatError(
            f"{what} must be one of {sorted(self.allowed)}, got {value!r}",
            reason="bad-enum",
        )


class _AttrType(_Field):
    """:class:`~repro.db.schema.AttributeType` as its canonical value string."""

    def emit_read(self, em, target, label):
        STR.emit_read(em, target, label)
        em.line(f"{target} = {em.bind('f', self._member)}({target})")

    @staticmethod
    def _member(raw: str) -> AttributeType:
        try:
            return AttributeType(raw)
        except ValueError:
            raise WireFormatError(f"unknown attribute type {raw!r}", reason="bad-enum") from None

    def emit_write(self, em, value):
        STR.emit_write(em, f"{value}.value")

    def to_json(self, value):
        return value.value


INT = _Int()
BOOL = _Bool()
STR = _Str()
BYTES = _Bytes()
SCALAR = _Scalar()
DIGEST = _Digest()
ROWS = _Rows()

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
    """Binary and JSON (de)serialisation of one artifact class.

    The binary reader and writer are *generated* from the field-spec table,
    on first use (so that nested artifact types registered later — the
    service layer extends the registry — are resolvable by then): each field
    type emits the statements that read or write it, an embedded artifact
    that embeds none itself is inlined, and the result is one flat function
    per artifact with the wire primitives written out in it.  Construction is
    positional, or a direct ``__dict__`` fill for a plain dataclass.

    ``width`` makes the artifact declare the width of the digests it holds
    (it maps an artifact to that width); the body then opens with the width
    byte.  An artifact with flag fields (:class:`_Flag`) opens its body with
    a flags byte: bit ``i`` for its ``i``-th flag field, plus the fixed
    ``kind`` bits above them that a :class:`_FlagUnion` picks it by.
    """

    def __init__(
        self,
        tag: int,
        cls: type,
        fields: Sequence[Tuple[str, _Field]],
        post: Optional[Callable[[object], None]] = None,
        width: Optional[Callable[[object], int]] = None,
        kind: int = 0,
    ) -> None:
        self.tag = tag
        self.cls = cls
        self.name = cls.__name__
        self.fields = tuple(fields)
        self.post = post
        self.width = width
        self.kind = kind
        self._names = tuple(name for name, _ in self.fields)
        flagged = [i for i, (_, field) in enumerate(self.fields) if isinstance(field, _Flag)]
        self._bits = {index: 1 << bit for bit, index in enumerate(flagged)}
        #: the flags-byte bits no flag field owns: they must equal ``kind``
        self._fixed_bits = 0xFF & -(1 << len(flagged))
        if kind & ~self._fixed_bits:
            raise ValueError(f"the kind bits of {self.name} overlap its flag bits")
        self._flagged = bool(flagged or kind)
        self.header = _MAGIC + bytes((WIRE_VERSION, tag))
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
        self._plain = self._plain_dataclass()
        # A width-declaring body reads into its own ``dw``: never inlined.
        self._leaf = width is None and not any(field.nests for _, field in self.fields)
        #: generated writers of the fields from index ``i`` on (``encode_tail``)
        self._tail_writers: Dict[int, Callable] = {}

    def _invalid(self, error) -> WireFormatError:
        return WireFormatError(
            f"decoded fields do not form a valid {self.name}: {error}",
            reason="invalid-artifact",
        )

    # -- digest width ------------------------------------------------------------

    @functools.cached_property
    def inherits_width(self) -> bool:
        """True when the artifact holds digests at a width it does not declare."""
        return self.width is None and any(field.digests for _, field in self.fields)

    def walk(self, artifact):
        """The digests of ``artifact`` written at its inherited width."""
        for name, field in self.fields:
            yield from field.walk(getattr(artifact, name))

    def frame_width(self, artifact) -> int:
        """The width a frame of ``artifact`` on its own declares (0: no digest)."""
        widths = {len(digest) for digest in self.walk(artifact)}
        if not widths:
            return 0
        width = widths.pop()
        if widths or not 0 < width <= MAX_DIGEST_WIDTH:
            raise ValueError(
                f"the digests of one {self.name} frame must share one width of "
                f"1..{MAX_DIGEST_WIDTH} bytes"
            )
        return width

    def check_frame_width(self, artifact, width: int) -> None:
        """Refuse a frame whose declared width is not the one it would encode at."""
        if self.frame_width(artifact) != width:
            raise WireFormatError(
                f"a {self.name} frame declares {width}-byte digests and carries "
                "no digest at that width",
                reason="bad-digest-width",
            )

    # -- reading ---------------------------------------------------------------

    def read_body(self, reader: WireReader, dw: int = 0):
        """Decode one body; replaced by the generated decoder on first use."""
        em = _Emitter(_codegen_bindings())
        em.line("d = reader._data")
        em.line("e = reader._end")
        em.line("o = reader._offset")
        self.emit_read_body(em, "_artifact")
        em.line("reader._offset = o")
        em.line("return _artifact")
        read_body = em.compile(
            "def _read_body(reader, dw=0):", "_read_body", f"<wire codec {self.name}>"
        )
        self.read_body = read_body  # shadows the method for this codec
        return read_body(reader, dw)

    def emit_read_nested(self, em: _Emitter, target: str, flags: Optional[str] = None) -> None:
        """Statements reading this artifact where another embeds it.

        An artifact that embeds none is inlined; any other is read through
        its own generated function, so each body is compiled once.
        ``flags`` names a local holding the artifact's flags byte, already
        read.
        """
        if self._leaf:
            self.emit_read_body(em, target, flags)
            return
        if flags is not None:
            em.line("o -= 1")  # the body reads its own flags byte
        em.line("reader._offset = o")
        em.line(f"{target} = {em.bind('c', self)}.read_body(reader, dw)")
        em.line("o = reader._offset")

    def emit_read_body(self, em: _Emitter, target: str, flags: Optional[str] = None) -> None:
        """Statements reading this artifact's body into the local ``target``."""
        values = [em.local("v") for _ in self.fields]
        labels = [em.bind("L", f"{self.name}.{name}") for name in self._names]
        cls = em.bind("k", self.cls)
        if self.width is not None:
            with em.block(f"if o < e and 0 < (dw := d[o]) <= {MAX_DIGEST_WIDTH}:"):
                em.line("o += 1")
            with em.block("else:"):
                em.strict("dw", f"_read_width(reader, {em.bind('L', f'{self.name} digest width')})")
        if self._flagged:
            name = em.bind("L", f"{self.name} flags")
            if flags is None:
                flags = em.local("f")
                with em.block("if o < e:"):
                    em.line(f"{flags} = d[o]")
                    em.line("o += 1")
                with em.block("else:"):
                    em.strict(flags, f"reader.u8({name})")
            with em.block(f"if {flags} & {self._fixed_bits} != {self.kind}:"):
                em.line(f"raise _bad_flags({name}, {flags})")

        def read_fields():
            for index, ((_, field), value, label) in enumerate(zip(self.fields, values, labels)):
                if index in self._bits:
                    field.emit_read_flagged(em, value, label, f"{flags} & {self._bits[index]}")
                else:
                    field.emit_read(em, value, label)

        if self._plain:
            # A plain dataclass whose __init__ only assigns the registered
            # fields: fill the instance directly, after every field is read
            # (reading __dict__ bypasses a frozen dataclass's __setattr__).
            read_fields()
            em.line(f"{target} = _new({cls})")
            fill = em.local("z")
            em.line(f"{fill} = {target}.__dict__")
            for name, value in zip(self._names, values):
                em.line(f"{fill}[{name!r}] = {value}")
        else:
            with em.block("try:"):
                read_fields()
                em.line(f"{target} = {cls}({', '.join(values)})")
            with em.block("except (ValueError, TypeError, KeyError) as _error:"):
                em.line(f"raise {em.bind('i', self._invalid)}(_error) from None")
        if self.post is not None:
            em.line(f"{em.bind('p', self.post)}({target})")

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

    # -- writing ---------------------------------------------------------------

    def write_body(self, ap: Callable[[bytes], None], artifact, dw: int = 0) -> None:
        """Encode one body through ``ap``; replaced by the generated writer on first use."""
        write_body = self.write_body = self.tail_writer(0)
        write_body(ap, artifact, dw)

    def tail_writer(self, first: int) -> Callable:
        """The generated writer of fields ``first..`` of an artifact, into ``ap``."""
        writer = self._tail_writers.get(first)
        if writer is None:
            em = _Emitter(_codegen_bindings())
            em.line("pass")
            self._emit_write_fields(em, "a", first)
            writer = self._tail_writers[first] = em.compile(
                "def _write_body(ap, a, dw=0):", "_write_body", f"<wire codec {self.name}>"
            )
        return writer

    def emit_write_nested(self, em: _Emitter, value: str) -> None:
        """Statements writing the artifact in the local ``value`` where another embeds it.

        Inlined when it embeds no artifact itself, as :meth:`emit_read_nested`.
        """
        if self._leaf:
            self._emit_write_fields(em, value, 0)
        else:
            em.line(f"{em.bind('c', self)}.write_body(ap, {value}, dw)")

    def _emit_write_fields(self, em: _Emitter, value: str, first: int) -> None:
        if self.width is not None:
            em.line(f"dw = {em.bind('w', self.width)}({value})")
            with em.block(f"if not 0 < dw <= {MAX_DIGEST_WIDTH}:"):
                em.line(
                    f"raise ValueError(f'{self.name} digests of {{dw}} bytes; "
                    f"a width is 1..{MAX_DIGEST_WIDTH}')"
                )
            if first == 0:
                em.line("ap(_BYTE[dw])")
        items = {}
        for index, (name, field) in enumerate(self.fields):
            if index >= first:
                items[index] = item = em.local("w")
                em.line(f"{item} = {value}.{name}")
                if index in self._bits:
                    field.emit_check(em, item)
        if self._flagged and first == 0:
            bits = [str(self.kind)] + [
                f"({bit} if {self.fields[index][1].present(items[index])} else 0)"
                for index, bit in self._bits.items()
            ]
            em.line(f"ap(_BYTE[{' | '.join(bits)}])")
        for index, (_, field) in enumerate(self.fields[first:], first):
            if index not in self._bits:
                field.emit_write(em, items[index])
            elif field.payload:
                with em.block(f"if {field.present(items[index])}:"):
                    field.emit_write(em, items[index])

    def json_body(self, artifact) -> Dict[str, object]:
        return {
            name: field.to_json(getattr(artifact, name))
            for name, field in self.fields
        }


def _codegen_bindings() -> Dict[str, object]:
    """The names every generated reader and writer may use."""
    return {
        "_U32": _U32,
        "_MAX": MAX_FIELD_BYTES,
        "_WireFormatError": WireFormatError,
        "_encode_value": encode_value,
        "_new": object.__new__,
        "_BYTE": _BYTE,
        "_read_width": _read_width,
        "_bad_flags": _bad_flags,
    }


_TAGS: Dict[int, _ArtifactCodec] = {}
_TYPES: Dict[type, _ArtifactCodec] = {}


def register_artifact(
    tag: int,
    cls: type,
    fields: Sequence[Tuple[str, _Field]],
    post: Optional[Callable[[object], None]] = None,
    width: Optional[Callable[[object], int]] = None,
    kind: int = 0,
) -> None:
    """Register a codec for ``cls`` under ``tag`` (see :class:`_ArtifactCodec`).

    The service layer uses this to add its request/response envelopes to the
    same registry the proof artifacts live in, so one :func:`decode` call
    handles every frame.
    """
    if tag in _TAGS:
        raise ValueError(f"wire tag {tag:#04x} is already registered")
    if cls in _TYPES:
        raise ValueError(f"{cls.__name__} is already registered")
    codec = _ArtifactCodec(tag, cls, fields, post, width, kind)
    _TAGS[tag] = codec
    _TYPES[cls] = codec


def _codec_for_type(cls: type) -> _ArtifactCodec:
    codec = _TYPES.get(cls)
    if codec is None:
        raise ValueError(f"no wire codec registered for {cls.__name__}")
    return codec


# -- refusals and validation hooks --------------------------------------------


def _read_width(reader: WireReader, what: str, allow_zero: bool = False) -> int:
    """A declared digest width: 1..64, or 0 where a frame may hold no digest."""
    width = reader.u8(what)
    if not (0 < width <= MAX_DIGEST_WIDTH or (allow_zero and width == 0)):
        raise WireFormatError(
            f"{what} of {width} bytes is not 1..{MAX_DIGEST_WIDTH}",
            reason="bad-digest-width",
        )
    return width


def _bad_flags(what: str, flags: int) -> WireFormatError:
    return WireFormatError(f"{what} {flags:#04x} set a bit of no field", reason="bad-flags")


def _empty_map(what: str) -> WireFormatError:
    return WireFormatError(f"{what} is flagged present but empty", reason="empty-map")


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

register_artifact(0x01, EntryAssist, [("mht_root", _FlagOptional(DIGEST))])

register_artifact(
    0x02,
    BoundaryAssist,
    [
        ("intermediate_digests", _Tuple(DIGEST)),
        ("used_canonical", _FlagBool()),
        ("mht_root", _FlagOptional(DIGEST)),
        ("canonical_digest", _FlagOptional(DIGEST)),
        ("mht_proof", _FlagOptional(_Nested(MerkleProof))),
    ],
)

register_artifact(
    0x03,
    MerkleProof,
    [
        ("leaf_index", INT),
        ("siblings", _Tuple(_Pair(DIGEST, BOOL))),
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
    0x07,
    BoundaryEntryProof,
    [
        ("side", _FlagChoice("lower", "upper")),
        ("chain_boundary", _Nested(BoundaryAssist)),
        ("other_chain_digest", DIGEST),
        ("attribute_root", DIGEST),
    ],
)

register_artifact(
    0x08,
    MatchedEntryProof,
    [
        ("upper_assist", _FlagAssist()),
        ("lower_assist", _FlagAssist()),
        ("dropped_attribute_digests", _FlagMap(STR, DIGEST)),
        ("eliminated_duplicate", _FlagBool()),
        ("revealed_attributes", _FlagMap(STR, SCALAR)),
        ("key", _FlagOptional(INT)),
    ],
)

register_artifact(
    0x09,
    FilteredEntryProof,
    [
        ("revealed_attributes", _FlagMap(STR, SCALAR)),
        ("attribute_leaf_digests", _FlagMap(STR, DIGEST)),
        ("upper_chain_digest", DIGEST),
        ("lower_chain_digest", DIGEST),
        ("reason", _FlagChoice("predicate", "access-control")),
    ],
    kind=0x80,
)

register_artifact(
    0x0A,
    RangeQueryProof,
    [
        ("key_low", INT),
        ("key_high", INT),
        ("lower_boundary", _Nested(BoundaryEntryProof)),
        ("upper_boundary", _Nested(BoundaryEntryProof)),
        ("entries", _Tuple(_FlagUnion(MatchedEntryProof, FilteredEntryProof))),
        ("signatures", _Nested(SignatureBundle)),
        ("outer_neighbor_digest", _Optional(BYTES)),
    ],
    # every proof carries its lower boundary's attribute root
    width=lambda proof: len(proof.lower_boundary.attribute_root),
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

# A router indexes its relations by manifest id when it is built, so a
# manifest is the first artifact every publishing or serving process encodes:
# its writers are compiled here, at import, rather than inside that first
# publish or recovery.
for _cls in (RelationManifest, Schema, Attribute):
    _codec_for_type(_cls).write_body = _codec_for_type(_cls).tail_writer(0)


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------


def encode(artifact) -> bytes:
    """Encode ``artifact`` to its canonical framed wire bytes."""
    codec = _codec_for_type(type(artifact))
    parts = [codec.header]
    if codec.inherits_width:
        width = codec.frame_width(artifact)
        parts.append(_BYTE[width])
        codec.write_body(parts.append, artifact, width)
    else:
        codec.write_body(parts.append, artifact)
    return b"".join(parts)


def frame_header(cls: type) -> bytes:
    """The four bytes every framed ``cls`` artifact starts with."""
    return _codec_for_type(cls).header


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
    parts: List[bytes] = []
    writer = codec.tail_writer(codec._names.index(first_field))
    if codec.inherits_width:
        writer(parts.append, artifact, codec.frame_width(artifact))
    else:
        writer(parts.append, artifact)
    return b"".join(parts)


def decode(data, expect: Optional[type] = None):
    """Decode framed wire bytes back into the artifact they encode.

    Accepts ``bytes`` as well as ``bytearray``/``memoryview`` buffers (copied
    to ``bytes`` once).  ``expect`` optionally pins the artifact type: a well-formed frame of a
    different type is rejected (a publisher cannot, say, answer a range query
    with a join proof and hope the client mixes them up).
    """
    reader = WireReader(data)
    frame = reader._data
    codec = _TAGS.get(frame[3]) if len(frame) > 3 else None
    if codec is not None and frame[:4] == codec.header:
        reader._offset = 4
    else:  # the header read field by field, for the typed refusal
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
    if codec.inherits_width:
        width = _read_width(reader, "frame digest width", allow_zero=True)
        artifact = codec.read_body(reader, width)
        codec.check_frame_width(artifact, width)
    else:
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
