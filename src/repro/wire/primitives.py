"""The strict byte-level reader of the wire format.

Every multi-byte quantity is big-endian; every variable-length field is
length-prefixed with an unsigned 32-bit count.  The reader is *strict*: it
validates bounds before every read, rejects non-canonical primitive encodings
(non-minimal integers, boolean bytes other than 0/1, invalid UTF-8) and raises
:class:`~repro.wire.errors.WireFormatError` with a machine-readable reason, so
a malformed or tampered byte string can never silently decode.

It is a cursor over one ``bytes`` object: one advancing offset, every field
a plain slice of the input, and error context strings only materialised on
the failure branch.  A ``bytearray``/``memoryview`` argument is copied to
``bytes`` once at construction.  The per-artifact readers
:mod:`repro.wire.codec` generates read the well-formed common case inline
from the same cursor and hand every other field to these methods, so what
they define is exactly what decodes; the generated writers emit the bytes
they accept.
"""

from __future__ import annotations

import struct
from typing import Optional

from repro.crypto.encoding import Encodable, decode_sign_magnitude, decode_value
from repro.wire.errors import WireFormatError

__all__ = ["WireReader"]

#: Upper bound on any single length prefix (also the service frame cap).
MAX_FIELD_BYTES = 64 * 1024 * 1024

#: One compiled big-endian u32, shared by every prefix read: a single C-level
#: ``unpack_from`` replaces the slice + ``int.from_bytes`` pair on the hottest
#: line of the decoder.
_U32 = struct.Struct(">I").unpack_from



class WireReader:
    """Strict, bounds-checked cursor over a wire byte string.

    Accepts ``bytes`` as well as ``bytearray``/``memoryview`` buffers; the
    latter are copied to ``bytes`` once, here, so every field read below is a
    plain slice.
    """

    __slots__ = ("_data", "_offset", "_end")

    def __init__(self, data) -> None:
        if type(data) is not bytes:
            # via memoryview: buffers only (bytes(5) would be five zero bytes)
            data = bytes(memoryview(data))
        self._data = data
        self._offset = 0
        self._end = len(data)

    @property
    def remaining(self) -> int:
        return self._end - self._offset

    def _fail_short(self, count: int, what) -> None:
        raise WireFormatError(
            f"truncated input: need {count} bytes for {what or 'a field'}, "
            f"have {self._end - self._offset}",
            reason="truncated",
        )

    def _take(self, count: int, what=None) -> bytes:
        offset = self._offset
        stop = offset + count
        if count < 0 or stop > self._end:
            self._fail_short(count, what)
        self._offset = stop
        return self._data[offset:stop]

    def raw(self, count: int, what="raw bytes") -> bytes:
        """Read exactly ``count`` unprefixed bytes (framing fields)."""
        return self._take(count, what)

    def expect_end(self) -> None:
        if self._end - self._offset:
            raise WireFormatError(
                f"{self._end - self._offset} trailing bytes after a complete artifact",
                reason="trailing-bytes",
            )

    # -- fixed-width primitives ---------------------------------------------

    def u8(self, what="u8") -> int:
        offset = self._offset
        if offset >= self._end:
            self._fail_short(1, what)
        self._offset = offset + 1
        return self._data[offset]

    def u32(self, what="u32") -> int:
        offset = self._offset
        stop = offset + 4
        if stop > self._end:
            self._fail_short(4, what)
        self._offset = stop
        return _U32(self._data, offset)[0]

    def bool_(self, what="bool") -> bool:
        offset = self._offset
        if offset >= self._end:
            self._fail_short(1, what)
        self._offset = offset + 1
        value = self._data[offset]
        if value > 1:
            raise WireFormatError(
                f"boolean byte for {what} must be 0 or 1, got {value}",
                reason="bad-bool",
            )
        return value == 1

    # -- length-prefixed primitives -----------------------------------------

    def bytes_(self, what="bytes") -> bytes:
        offset = self._offset
        stop = offset + 4
        end = self._end
        if stop > end:
            self._fail_short(4, what)
        length = _U32(self._data, offset)[0]
        if length > MAX_FIELD_BYTES:
            raise WireFormatError(
                f"length prefix of {what} exceeds the {MAX_FIELD_BYTES}-byte cap",
                reason="oversized-field",
            )
        payload_stop = stop + length
        if payload_stop > end:
            self._offset = stop
            self._fail_short(length, what)
        self._offset = payload_stop
        return self._data[stop:payload_stop]

    def fixed_bytes(self, size: int, what="fixed bytes") -> bytes:
        """Exactly ``size`` raw bytes (the dual of :meth:`WireWriter.fixed_bytes`)."""
        return self._take(size, what)

    def str_(self, what="string") -> str:
        raw = self.bytes_(what)
        try:
            return str(raw, "utf-8")
        except UnicodeDecodeError as error:
            raise WireFormatError(
                f"invalid UTF-8 in {what}: {error}", reason="bad-utf8"
            ) from None

    def int_(self, what="int") -> int:
        # Inlined sign+magnitude decode (the strict dual of WireWriter.int_);
        # semantics identical to crypto.encoding.decode_sign_magnitude.
        raw = self.bytes_(what)
        size = len(raw)
        if size < 2:
            raise WireFormatError(
                f"malformed integer {what}: integer needs a sign byte and a "
                "magnitude",
                reason="bad-int",
            )
        sign = raw[0]
        if sign > 1 or (size > 2 and raw[1] == 0):
            try:
                decode_sign_magnitude(raw)
            except ValueError as error:
                raise WireFormatError(
                    f"malformed integer {what}: {error}", reason="bad-int"
                ) from None
        value = int.from_bytes(raw[1:], "big")
        if sign:
            if value == 0:
                raise WireFormatError(
                    f"malformed integer {what}: negative zero is not a "
                    "canonical integer encoding",
                    reason="bad-int",
                )
            return -value
        return value

    def scalar(self, what="scalar") -> Encodable:
        # Inline fast paths for the common tags (int / str / bytes); every
        # rejected or unusual shape falls through to the strict shared
        # decoder so the accepted language is exactly decode_value's.
        offset = self._offset
        stop = offset + 4
        end = self._end
        if stop > end:
            self._fail_short(4, what)
        data = self._data
        length = _U32(data, offset)[0]
        payload_stop = stop + length
        if length > MAX_FIELD_BYTES or payload_stop > end:
            raw = self.bytes_(what)  # raises the canonical typed error
            raise WireFormatError(  # pragma: no cover - bytes_ always raises
                f"malformed scalar {what}", reason="bad-scalar"
            )
        self._offset = payload_stop
        body = stop + 1
        if length:
            tag = data[stop]
            if tag == 73:  # 'I': sign byte + minimal big-endian magnitude
                size = payload_stop - body
                if size >= 2 and data[body] <= 1 and not (size > 2 and data[body + 1] == 0):
                    value = int.from_bytes(data[body + 1 : payload_stop], "big")
                    sign = data[body]
                    if not sign:
                        return value
                    if value:
                        return -value
            elif tag == 83:  # 'S': UTF-8 text
                try:
                    return str(data[body:payload_stop], "utf-8")
                except UnicodeDecodeError:
                    pass
            elif tag == 89:  # 'Y': raw bytes
                return data[body:payload_stop]
        try:
            return decode_value(data[stop:payload_stop])
        except ValueError as error:
            raise WireFormatError(
                f"malformed scalar {what}: {error}", reason="bad-scalar"
            ) from None

    # -- composite framing ---------------------------------------------------

    def count(self, what="count") -> int:
        """A u32 element count, sanity-bounded by the remaining bytes.

        Every encoded element occupies at least one byte, so a count larger
        than the remaining input is necessarily garbage — rejecting it here
        keeps a flipped count byte from triggering a huge allocation.
        """
        offset = self._offset
        stop = offset + 4
        if stop > self._end:
            self._fail_short(4, what)
        self._offset = stop
        value = _U32(self._data, offset)[0]
        if value > self._end - stop:
            raise WireFormatError(
                f"{what} of {value} exceeds the "
                f"{self._end - stop} remaining bytes",
                reason="bad-count",
            )
        return value

    def optional(self, what: Optional[str] = "optional") -> bool:
        """Read a presence byte; True means the value follows."""
        offset = self._offset
        if offset >= self._end:
            self._fail_short(1, what)
        self._offset = offset + 1
        value = self._data[offset]
        if value > 1:
            raise WireFormatError(
                f"boolean byte for presence of {what} must be 0 or 1, got {value}",
                reason="bad-bool",
            )
        return value == 1
