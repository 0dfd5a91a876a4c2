"""Wire format for verification objects and publication metadata.

This package gives every proof artifact of the reproduction a **canonical,
versioned, length-prefixed binary encoding** (plus a JSON debug printer), so
that query answers and their verification objects can actually cross a
network or be persisted — the client/server separation the paper's data
publishing model (Figure 3) assumes.

* :func:`encode` / :func:`decode` — framed binary codec, strict validation
* :func:`to_json` / :func:`to_json_obj` — human-readable debug printer
* :func:`manifest_id` — 32-byte routing/commitment id of a relation manifest
* :class:`WireFormatError` — typed rejection of malformed bytes
"""

from repro.wire.codec import (
    WIRE_VERSION,
    decode,
    encode,
    manifest_id,
    register_artifact,
    to_json,
    to_json_obj,
)
from repro.wire.errors import WireFormatError
from repro.wire.updates import (
    ManifestRotated,
    RecordDelta,
    UpdateRequest,
    UpdateResponse,
    manifest_signing_message,
    update_signing_message,
)

__all__ = [
    "WIRE_VERSION",
    "WireFormatError",
    "ManifestRotated",
    "RecordDelta",
    "UpdateRequest",
    "UpdateResponse",
    "decode",
    "encode",
    "manifest_id",
    "manifest_signing_message",
    "register_artifact",
    "to_json",
    "to_json_obj",
    "update_signing_message",
]
