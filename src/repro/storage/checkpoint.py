"""Checkpoints: one relation's owner-signed manifest state at a WAL boundary.

A checkpoint bounds recovery time and lets the WAL be compacted: restart
attaches to the relation store and replays only the records logged after
the snapshot.  Rows, chain digests and signatures live in the shard's
:class:`~repro.storage.relstore.RelationStore`; the checkpoint file carries
no rows.  It reuses the WAL's ``[length | crc32 | payload]`` record framing
(:mod:`repro.storage.wal`) with exactly two records::

    record 0   JSON header   {"format", "relation", "sequence"}
    record 1   wire frame    ManifestRotated — the relation's latest
                             owner-signed rotation at checkpoint time

**Trust argument.**  The rotation record is owner-signed over (superseded
id, manifest bytes), and loading re-verifies that signature — so the
*metadata* a recovered shard serves (key, schema, scheme, sequence) is
owner-authorised, not just CRC-intact.  Nothing else is read from this
file: the rotation is the only thing in it the owner signed, so a checkpoint
carrying any further record (rows, say) is refused as corrupt rather than
trusted on its CRC.  The rows a recovered chain serves come with the owner's
stored signatures (see :mod:`repro.storage.relstore`), which every verifying
client re-checks.  The WAL's update frames are owner-signed too, so a party
holding only the disk (no key) can truncate history but never extend or
alter it, and ``walctl verify`` re-checks every signature in both files.

Writes are atomic: temp file, fsync, rename, directory fsync.  A crash
mid-checkpoint leaves the previous checkpoint in place and the WAL intact.

The owner's signing key lives beside the checkpoints (``keys.json``):
as documented in :mod:`repro.service.owner`, this reproduction's deployment
model trusts the publisher host with the signing key (the server re-signs
chain entries on update), so persisting it with the shard adds no new party
to the trust model.  The file is written ``0o600``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Dict, Optional

from repro.crypto.rsa import RSAPrivateKey, RSAPublicKey
from repro.crypto.signature import SignatureScheme
from repro.storage.errors import CheckpointCorruptError
from repro.storage.faults import FaultRegistry
from repro.storage.wal import _fsync_directory, encode_record, iter_wal_records
from repro.wire import WireFormatError, decode, encode
from repro.wire.updates import ManifestRotated, manifest_signing_message

__all__ = [
    "CHECKPOINT_FORMAT",
    "Checkpoint",
    "load_checkpoint",
    "load_keys",
    "save_keys",
    "write_checkpoint",
]

CHECKPOINT_FORMAT = 1


@dataclass(frozen=True)
class Checkpoint:
    """A loaded, signature-verified snapshot of one relation's manifest state."""

    relation_name: str
    rotation: ManifestRotated

    @property
    def sequence(self) -> int:
        return self.rotation.manifest.sequence


def write_checkpoint(
    path: str,
    relation_name: str,
    rotation: ManifestRotated,
    faults: Optional[FaultRegistry] = None,
) -> None:
    """Atomically write one relation's snapshot to ``path``."""
    header = json.dumps(
        {
            "format": CHECKPOINT_FORMAT,
            "relation": relation_name,
            "sequence": rotation.manifest.sequence,
        },
        sort_keys=True,
    ).encode("utf-8")
    tmp_path = path + ".tmp"
    with open(tmp_path, "wb") as tmp:
        tmp.write(encode_record(header))
        tmp.write(encode_record(encode(rotation)))
        tmp.flush()
        os.fsync(tmp.fileno())
    if faults is not None:
        faults.hit("checkpoint-before-swap")
    os.replace(tmp_path, path)
    _fsync_directory(os.path.dirname(path))


def load_checkpoint(path: str) -> Checkpoint:
    """Load and verify one snapshot; typed errors on any inconsistency.

    Verifies: record CRCs (via the shared WAL reader — a torn or corrupt
    checkpoint is a :class:`CheckpointCorruptError`, never a partial load),
    the header shape, that the file holds the header and a rotation that
    decodes (another wire version's is corrupt here) and nothing else, and
    the rotation's owner signature under the manifest's own public key.
    """
    try:
        records = list(iter_wal_records(path))
    except Exception as error:
        raise CheckpointCorruptError(
            f"checkpoint {path} is unreadable: {error}", path=path
        ) from error
    if len(records) != 2:
        raise CheckpointCorruptError(
            f"checkpoint {path} holds {len(records)} record(s); a checkpoint "
            "is exactly a header and a rotation (rows live in the relation "
            "store)",
            path=path,
        )
    try:
        header = json.loads(records[0].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise CheckpointCorruptError(
            f"checkpoint {path} has a malformed header: {error}", path=path
        ) from error
    if header.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointCorruptError(
            f"checkpoint {path} has format {header.get('format')!r}, "
            f"this build reads format {CHECKPOINT_FORMAT}",
            path=path,
        )
    try:
        rotation = decode(records[1], expect=ManifestRotated)
    except WireFormatError as error:
        detail = f"checkpoint {path}: the rotation record does not decode: {error}"
        raise CheckpointCorruptError(detail, path=path) from error
    manifest = rotation.manifest
    message = manifest_signing_message(manifest, rotation.previous_id)
    if not manifest.public_key.verify(message, rotation.owner_signature):
        raise CheckpointCorruptError(
            f"checkpoint {path}: the manifest rotation is not signed by the "
            "owner key it names",
            path=path,
        )
    if manifest.sequence != header.get("sequence"):
        raise CheckpointCorruptError(
            f"checkpoint {path}: header sequence {header.get('sequence')!r} "
            f"contradicts the signed manifest sequence {manifest.sequence}",
            path=path,
        )
    return Checkpoint(
        relation_name=str(header.get("relation", "")),
        rotation=rotation,
    )


# -- key persistence ----------------------------------------------------------


def save_keys(path: str, schemes: Dict[str, SignatureScheme]) -> None:
    """Persist one shard's per-relation signing keys (mode 0600)."""
    payload = {
        name: {
            "modulus": hex(scheme.signer.modulus),
            "public_exponent": hex(scheme.signer.public_exponent),
            "private_exponent": hex(scheme.signer.private_exponent),
            "prime_p": hex(scheme.signer.prime_p),
            "prime_q": hex(scheme.signer.prime_q),
            "other_primes": [hex(prime) for prime in scheme.signer.other_primes],
            "hash_name": scheme.signer.hash_name,
            "signature_bits": scheme.signature_bits,
        }
        for name, scheme in schemes.items()
    }
    tmp_path = path + ".tmp"
    descriptor = os.open(tmp_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
    with os.fdopen(descriptor, "w") as handle:
        json.dump({"format": CHECKPOINT_FORMAT, "keys": payload}, handle, indent=1)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp_path, path)
    _fsync_directory(os.path.dirname(path))


def load_keys(path: str) -> Dict[str, SignatureScheme]:
    """Rebuild each relation's :class:`SignatureScheme` from ``keys.json``."""
    try:
        with open(path, "r") as handle:
            document = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        raise CheckpointCorruptError(
            f"key file {path} is unreadable: {error}", path=path
        ) from error
    schemes: Dict[str, SignatureScheme] = {}
    try:
        for name, entry in document["keys"].items():
            private = RSAPrivateKey(
                modulus=int(entry["modulus"], 16),
                public_exponent=int(entry["public_exponent"], 16),
                private_exponent=int(entry["private_exponent"], 16),
                prime_p=int(entry["prime_p"], 16),
                prime_q=int(entry["prime_q"], 16),
                hash_name=entry["hash_name"],
                other_primes=tuple(
                    int(prime, 16) for prime in entry.get("other_primes", ())
                ),
            )
            public = RSAPublicKey(
                modulus=private.modulus,
                exponent=private.public_exponent,
                hash_name=private.hash_name,
            )
            schemes[name] = SignatureScheme(
                signer=private,
                verifier=public,
                signature_bits=int(entry["signature_bits"]),
            )
    except (KeyError, TypeError, ValueError) as error:
        raise CheckpointCorruptError(
            f"key file {path} has a malformed entry: {error}", path=path
        ) from error
    return schemes
