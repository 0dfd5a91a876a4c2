"""The generated readers and writers against the wire format they compile.

Every artifact's reader and writer is generated from its field table with
the primitives written out inline (``repro.wire.codec``); an anomaly in a
read rewinds to the start of that primitive and re-reads it through the
strict ``WireReader`` method.  These tests hold the generated code to:

* the golden vectors, each of which must re-encode byte for byte, whole and
  from every field on (``encode_tail``);
* a strict reference decoder, built here from the same field tables with
  nothing but ``WireReader`` method calls: over every byte flip, truncation
  and extension of every golden vector, both must return equal artifacts or
  raise the same error type with the same reason *and message*;
* the exception types the encoder raises for values the format cannot hold.
"""

from __future__ import annotations

import pytest

from test_wire_golden import _load_golden, _sweep, build_vectors
from repro.core.digest import EntryAssist
from repro.core.proof import FilteredEntryProof, RangeQueryProof
from repro.service.protocol import ManifestByIdRequest
from repro.wire import WireFormatError, codec, decode, encode
from repro.wire.primitives import WireReader
from repro.wire.updates import FreshnessAttestation

# -- golden vectors through the generated writers ---------------------------------


@pytest.mark.parametrize("name", sorted(build_vectors()))
def test_golden_vector_reencodes_through_the_generated_writers(name):
    artifact = build_vectors()[name]
    frame = bytes.fromhex(_load_golden()[name]["hex"])
    assert encode(decode(frame)) == frame == encode(artifact)
    fields = codec._codec_for_type(type(artifact))._names
    for field in fields:  # every suffix the response cache may splice
        assert frame.endswith(codec.encode_tail(artifact, field))


# -- a strict reference decoder over the same field tables -----------------------


def _strict_flagged(field, reader: WireReader, what: str, bit: bool, dw: int):
    if isinstance(field, codec._FlagBool):
        return bit
    if isinstance(field, codec._FlagChoice):
        return field.on if bit else field.off
    if isinstance(field, codec._FlagAssist):
        return EntryAssist(reader.fixed_bytes(dw, what) if bit else None)
    if isinstance(field, codec._FlagMap):
        if not bit:
            return {}
        value = _strict_field(field, reader, what, dw)  # read as the map it is
        if not value:
            raise codec._empty_map(what)
        return value
    if isinstance(field, codec._FlagOptional):
        return _strict_field(field.inner, reader, what, dw) if bit else None
    raise AssertionError(f"no reference read for {field!r}")


def _strict_field(field, reader: WireReader, what: str, dw: int = 0):
    if isinstance(field, codec._Digest):
        return reader.fixed_bytes(dw, what)
    if isinstance(field, codec._Rows):
        rows = []
        count = reader.count(what)
        if count:
            columns = []
            for _ in range(reader.count(what)):
                name = reader.str_(what)
                if columns and not name > columns[-1]:
                    raise WireFormatError(
                        f"column names of {what} are not strictly increasing",
                        reason="unsorted-map",
                    )
                columns.append(name)
            for _ in range(count):
                rows.append(dict(zip(columns, [reader.scalar(what) for _ in columns])))
        return tuple(rows)
    if isinstance(field, codec._EnumStr):
        value = reader.str_(what)
        if value not in field.allowed:
            raise field._refusal(what, value)
        return value
    if isinstance(field, codec._AttrType):
        return field._member(reader.str_(what))
    simple = {
        codec._Int: reader.int_,
        codec._Bool: reader.bool_,
        codec._Str: reader.str_,
        codec._Bytes: reader.bytes_,
        codec._Scalar: reader.scalar,
    }
    if type(field) in simple:
        return simple[type(field)](what)
    if isinstance(field, codec._FixedBytes):
        return reader.fixed_bytes(field.size, what)
    if isinstance(field, codec._Optional):
        return _strict_field(field.inner, reader, what, dw) if reader.optional(what) else None
    if isinstance(field, codec._Tuple):
        return tuple(
            [_strict_field(field.inner, reader, what, dw) for _ in range(reader.count(what))]
        )
    if isinstance(field, codec._Pair):
        first = _strict_field(field.first, reader, what, dw)
        return first, _strict_field(field.second, reader, what, dw)
    if isinstance(field, codec._Map):
        result, previous = {}, None
        for _ in range(reader.count(what)):
            key = _strict_field(field.key, reader, what)
            if previous is not None and not key > previous:
                raise WireFormatError(
                    f"map keys of {what} are not strictly increasing", reason="unsorted-map"
                )
            previous = key
            result[key] = _strict_field(field.value, reader, what, dw)
        return result
    if isinstance(field, codec._Nested):
        return _strict_body(codec._codec_for_type(field.cls), reader, dw)
    if isinstance(field, codec._FlagUnion):
        members = [codec._codec_for_type(cls) for cls in field.classes]
        mask = 0
        for member in members:
            mask |= member.kind
        if not reader.remaining:
            reader.u8(what)  # the typed truncation
        kind = reader._data[reader._offset] & mask
        chosen = next((m for m in members if m.kind == kind), members[-1])
        return _strict_body(chosen, reader, dw)
    if isinstance(field, codec._Union):
        tag = reader.u8(what)
        members = {codec._codec_for_type(cls).tag: cls for cls in field.classes}
        if tag not in members:
            allowed = "/".join(cls.__name__ for cls in field.classes)
            raise WireFormatError(
                f"tag {tag:#04x} of {what} is not one of {allowed}", reason="bad-union-tag"
            )
        return _strict_body(codec._codec_for_type(members[tag]), reader)
    raise AssertionError(f"no reference read for {field!r}")


def _strict_body(artifact_codec, reader: WireReader, dw: int = 0):
    name = artifact_codec.name
    if artifact_codec.width is not None:
        dw = codec._read_width(reader, f"{name} digest width")
    flags = 0
    if artifact_codec._flagged:
        flags = reader.u8(f"{name} flags")
        if flags & artifact_codec._fixed_bits != artifact_codec.kind:
            raise codec._bad_flags(f"{name} flags", flags)

    def read_fields():
        values = []
        for index, (field_name, field) in enumerate(artifact_codec.fields):
            what = f"{name}.{field_name}"
            if index in artifact_codec._bits:
                bit = bool(flags & artifact_codec._bits[index])
                values.append(_strict_flagged(field, reader, what, bit, dw))
            else:
                values.append(_strict_field(field, reader, what, dw))
        return values

    if artifact_codec._plain:
        artifact = object.__new__(artifact_codec.cls)
        artifact.__dict__.update(zip(artifact_codec._names, read_fields()))
    else:
        try:
            artifact = artifact_codec.cls(*read_fields())
        except (ValueError, TypeError, KeyError) as error:
            raise artifact_codec._invalid(error) from None
    if artifact_codec.post is not None:
        artifact_codec.post(artifact)
    return artifact


def _strict_decode(data):
    reader = WireReader(data)
    magic = reader.raw(2, "magic")
    if magic != b"PV":
        raise WireFormatError(f"bad magic {bytes(magic)!r}; expected {b'PV'!r}", reason="bad-magic")
    version = reader.u8("format version")
    if version != codec.WIRE_VERSION:
        raise WireFormatError(f"unsupported wire format version {version}", reason="bad-version")
    tag = reader.u8("artifact tag")
    if tag not in codec._TAGS:
        raise WireFormatError(f"unknown artifact tag {tag:#04x}", reason="bad-tag")
    artifact_codec = codec._TAGS[tag]
    if artifact_codec.inherits_width:
        width = codec._read_width(reader, "frame digest width", allow_zero=True)
        artifact = _strict_body(artifact_codec, reader, width)
        artifact_codec.check_frame_width(artifact, width)
    else:
        artifact = _strict_body(artifact_codec, reader)
    reader.expect_end()
    return artifact


def _outcome(decoder, data):
    try:
        return ("ok", decoder(data))
    except WireFormatError as error:
        return ("error", error.reason, str(error))


@pytest.mark.parametrize("name", sorted(build_vectors()))
def test_generated_reader_matches_the_strict_reader_everywhere(name):
    frame = bytes.fromhex(_load_golden()[name]["hex"])
    inputs = 0
    for data in _sweep(frame):
        assert _outcome(decode, data) == _outcome(_strict_decode, data), data.hex()
        inputs += 1
    assert inputs > 3 * len(frame)


# -- encode-side errors keep their exception types --------------------------------

_MANIFEST_ID = bytes(32)


def _attestation(manifest_id=_MANIFEST_ID):
    return FreshnessAttestation(
        manifest_id=manifest_id, sequence=1, epoch=1, issued_at_ms=0, not_after_ms=1,
        owner_signature=3,
    )


def _range_proof_with_entry(entry):
    vectors = build_vectors()
    proof = next(value for value in vectors.values() if isinstance(value, RangeQueryProof))
    return RangeQueryProof(
        key_low=proof.key_low,
        key_high=proof.key_high,
        lower_boundary=proof.lower_boundary,
        upper_boundary=proof.upper_boundary,
        entries=(entry,),
        signatures=proof.signatures,
        outer_neighbor_digest=None,
    )


@pytest.mark.parametrize(
    "build,error",
    [
        # a fixed-width field of the wrong width
        (lambda: _attestation(manifest_id=bytes(31)), ValueError),
        # a value of no member type in a union slot
        (lambda: _range_proof_with_entry(EntryAssist(b"\0" * 32)), ValueError),
        # an unregistered type in a union slot
        (lambda: _range_proof_with_entry(object()), ValueError),
        # a non-bytes value in a BYTES field
        (lambda: ManifestByIdRequest(manifest_id="not bytes"), TypeError),
        (lambda: ManifestByIdRequest(manifest_id=None), TypeError),
        # a non-int in an INT field
        (lambda: FreshnessAttestation(_MANIFEST_ID, "1", 1, 0, 1, 3), TypeError),
        # a non-mapping in a map field
        (
            lambda: FilteredEntryProof(
                revealed_attributes=[("dept", 2)],
                attribute_leaf_digests={},
                upper_chain_digest=b"",
                lower_chain_digest=b"",
                reason="predicate",
            ),
            AttributeError,
        ),
    ],
    ids=[
        "fixed-bytes-width",
        "union-non-member",
        "union-unregistered",
        "bytes-field-str",
        "bytes-field-none",
        "int-field-str",
        "map-field-list",
    ],
)
def test_encode_refusals_keep_their_exception_types(build, error):
    with pytest.raises(error):
        encode(build())


def test_a_length_beyond_u32_is_a_value_error(monkeypatch):
    """No test can allocate 4 GiB, so the generated writer is handed a ``len``
    that reports one; its u32 range check must refuse it as ``ValueError``."""
    request = ManifestByIdRequest(manifest_id=b"\x01" * 32)
    writer = codec._codec_for_type(ManifestByIdRequest).tail_writer(0)
    monkeypatch.setitem(writer.__globals__, "len", lambda value: 2**32)
    with pytest.raises(ValueError, match="u32 out of range"):
        encode(request)
    monkeypatch.undo()
    assert decode(encode(request)) == request
