"""``python -m repro.storage.walctl`` — offline storage-root tooling.

Three subcommands over a durable publication root (no server needed, and —
for ``inspect``/``verify`` — no signing key: everything is checked with the
public keys embedded in the owner-signed manifests):

``inspect <root>``
    JSON summary: per relation, the checkpoint's sequence, the relation
    store's row count and committed sequence (the store runs ahead of the
    checkpoint between compactions), and the WAL's record count, torn-tail
    bytes and corruption offset (if any).
    With ``--replication``, also each relation's applied replication mark —
    the ``(sequence, epoch)`` a server over this root would answer to a
    ``ReplicationStatusRequest`` — computed offline by walking the WAL
    forward from the checkpoint.

``verify <root>``
    Full offline verification.  Loads every checkpoint (owner signature over
    the rotation re-checked), then walks every WAL record: CRC framing,
    strict decode, manifest-id chaining (each record must address the
    manifest its predecessor produced), contiguous sequence numbers, and the
    owner signature on every update, rotation and freshness attestation.
    Exit 0 only if the whole root verifies; each failure prints one ``FAIL``
    line.

``repair <root> [--force]``
    Truncate damaged log tails explicitly, keeping a ``.bak`` copy of every
    file it touches.  A torn tail (partial final record) is truncated
    without ``--force`` — the open path would do the same.  Mid-file
    *corruption* (CRC failure) requires ``--force``, because everything
    after the damaged record is lost; ``verify`` afterwards confirms what
    remains is a consistent prefix of history.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sqlite3
import sys
from dataclasses import replace
from typing import List

from repro.service.owner import delta_sequence_cost
from repro.storage.checkpoint import load_checkpoint
from repro.storage.errors import (
    CheckpointCorruptError,
    RecoveryError,
    StorageError,
    WalCorruptError,
)
from repro.storage.relstore import RelationStore
from repro.storage.store import PublicationStorage, check_storage_format
from repro.storage.wal import iter_wal_records, scan_wal
from repro.wire import WireFormatError, decode, manifest_id
from repro.wire.updates import (
    FreshnessAttestation,
    ManifestRotated,
    UpdateRequest,
    attestation_signing_message,
    manifest_signing_message,
    update_signing_message,
)

__all__ = ["main"]


def _layout(root: str):
    """``storage.json`` as (unopened storage, shard layout, storage format)."""
    storage = PublicationStorage(root)
    manifest_path = os.path.join(root, "storage.json")
    with open(manifest_path, "r") as handle:
        document = json.load(handle)
    return storage, document.get("shards", {}), document.get("format")


def _replication_mark(storage: PublicationStorage, shard: str, name: str):
    """The applied ``(sequence, epoch)`` mark a server over this root would
    report via ``ReplicationStatusRequest``: the checkpoint's sequence walked
    forward through the WAL's updates, plus the highest logged attestation
    epoch."""
    checkpoint = load_checkpoint(storage.checkpoint_path(shard, name))
    sequence = checkpoint.sequence
    epoch = 0
    for frame in iter_wal_records(storage.wal_path(shard, name)):
        try:
            artifact = decode(frame)
        except WireFormatError as error:  # what recovery refuses the root with
            message = f"{shard}/{name}: a WAL record does not decode: {error}"
            raise RecoveryError(message, reason="undecodable-record") from error
        if isinstance(artifact, UpdateRequest):
            sequence = artifact.sequence + delta_sequence_cost(artifact.deltas)
        elif isinstance(artifact, ManifestRotated):
            sequence = artifact.sequence
        elif isinstance(artifact, FreshnessAttestation):
            epoch = max(epoch, artifact.epoch)
    return {"applied_sequence": sequence, "epoch": epoch}


def _store_summary(storage: PublicationStorage, shard: str, name: str):
    """Row count and committed sequence of ``name`` in the shard's store."""
    path = storage.relstore_path(shard)
    if not os.path.exists(path):
        return {"error": "the shard has no relstore.db"}
    store = RelationStore(path)
    try:
        state = store.chain_state(name)
        rows = store.count_records(name)
    except sqlite3.DatabaseError as error:
        return {"error": str(error)}
    finally:
        store.close()
    if state is None:
        return {"error": "the relation store holds no chain state for it"}
    return {"rows": rows, "sequence": state.sequence}


def _cmd_inspect(args) -> int:
    storage, layout, found_format = _layout(args.root)
    report = {"root": args.root, "format": found_format, "shards": {}}
    try:
        check_storage_format(args.root, found_format)
    except StorageError as error:
        report["format_error"] = str(error)
    for shard, names in sorted(layout.items()):
        entries = {}
        for name in names:
            entry = {}
            try:
                checkpoint = load_checkpoint(storage.checkpoint_path(shard, name))
                entry["checkpoint"] = {
                    "sequence": checkpoint.sequence,
                    "previous_id": checkpoint.rotation.previous_id.hex(),
                }
            except CheckpointCorruptError as error:
                entry["checkpoint"] = {"error": str(error)}
            entry["store"] = _store_summary(storage, shard, name)
            scan = scan_wal(storage.wal_path(shard, name))
            entry["wal"] = {
                "records": scan.records,
                "bytes": scan.valid_end,
                "torn_tail_bytes": scan.torn_bytes,
            }
            if scan.corrupt_at is not None:
                entry["wal"]["corrupt_at"] = scan.corrupt_at
                entry["wal"]["corrupt_detail"] = scan.corrupt_detail
            if args.replication:
                try:
                    entry["replication"] = _replication_mark(storage, shard, name)
                except (CheckpointCorruptError, RecoveryError, WalCorruptError) as error:
                    entry["replication"] = {"error": str(error)}
            entries[name] = entry
        report["shards"][shard] = entries
    json.dump(report, sys.stdout, indent=1, sort_keys=True)
    print()
    return 0


def _verify_relation(storage: PublicationStorage, shard: str, name: str) -> List[str]:
    failures: List[str] = []
    try:
        checkpoint = load_checkpoint(storage.checkpoint_path(shard, name))
    except CheckpointCorruptError as error:
        return [f"{shard}/{name}: checkpoint: {error}"]
    manifest = checkpoint.rotation.manifest
    next_sequence = None
    try:
        frames = list(iter_wal_records(storage.wal_path(shard, name)))
    except WalCorruptError as error:
        return [f"{shard}/{name}: wal: {error}"]
    for index, frame in enumerate(frames):
        where = f"{shard}/{name}: wal record {index}"
        try:
            artifact = decode(frame)
        except Exception as error:  # noqa: BLE001 - reported, not raised
            failures.append(f"{where}: does not decode: {error}")
            break
        if isinstance(artifact, UpdateRequest):
            if next_sequence is not None and artifact.sequence != next_sequence:
                failures.append(
                    f"{where}: sequence {artifact.sequence}, expected "
                    f"{next_sequence} (gap or reordering)"
                )
                break
            expected = replace(manifest, sequence=artifact.sequence)
            if manifest_id(expected) != artifact.manifest_id:
                failures.append(
                    f"{where}: addresses a manifest outside this relation's "
                    "history"
                )
                break
            message = update_signing_message(
                artifact.manifest_id, artifact.sequence, artifact.deltas
            )
            if not manifest.public_key.verify(message, artifact.owner_signature):
                failures.append(f"{where}: owner signature does not verify")
                break
            next_sequence = artifact.sequence + delta_sequence_cost(artifact.deltas)
        elif isinstance(artifact, ManifestRotated):
            if next_sequence is not None and artifact.sequence != next_sequence:
                failures.append(
                    f"{where}: rotation to sequence {artifact.sequence} does "
                    f"not follow its update (expected {next_sequence})"
                )
                break
            expected = replace(manifest, sequence=artifact.sequence)
            if manifest_id(artifact.manifest) != manifest_id(expected):
                failures.append(
                    f"{where}: rotation manifest outside this relation's history"
                )
                break
            message = manifest_signing_message(
                artifact.manifest, artifact.previous_id
            )
            if not manifest.public_key.verify(message, artifact.owner_signature):
                failures.append(f"{where}: rotation signature does not verify")
                break
        elif isinstance(artifact, FreshnessAttestation):
            # Freshness attestations interleave with the update stream but
            # never advance the sequence: each must bind a manifest on this
            # relation's history and carry a valid owner signature.
            expected = replace(manifest, sequence=artifact.sequence)
            if manifest_id(expected) != artifact.manifest_id:
                failures.append(
                    f"{where}: attestation manifest outside this relation's "
                    "history"
                )
                break
            message = attestation_signing_message(
                artifact.manifest_id,
                artifact.sequence,
                artifact.epoch,
                artifact.issued_at_ms,
                artifact.not_after_ms,
            )
            if not manifest.public_key.verify(message, artifact.owner_signature):
                failures.append(
                    f"{where}: attestation signature does not verify"
                )
                break
        else:
            failures.append(
                f"{where}: foreign artifact {type(artifact).__name__}"
            )
            break
    return failures


def _cmd_verify(args) -> int:
    storage, layout, _ = _layout(args.root)
    failures: List[str] = []
    relations = 0
    for shard, names in sorted(layout.items()):
        for name in names:
            relations += 1
            failures.extend(_verify_relation(storage, shard, name))
    for failure in failures:
        print(f"FAIL {failure}")
    if failures:
        return 1
    print(f"OK {relations} relation(s) verified")
    return 0


def _cmd_repair(args) -> int:
    storage, layout, _ = _layout(args.root)
    repaired = 0
    blocked = 0
    for shard, names in sorted(layout.items()):
        for name in names:
            path = storage.wal_path(shard, name)
            scan = scan_wal(path)
            if scan.corrupt_at is None and scan.torn_bytes == 0:
                continue
            if scan.corrupt_at is not None and not args.force:
                print(
                    f"CORRUPT {shard}/{name}: {scan.corrupt_detail}; "
                    "pass --force to truncate there (records after the "
                    "damage will be lost)"
                )
                blocked += 1
                continue
            shutil.copy2(path, path + ".bak")
            with open(path, "r+b") as handle:
                handle.truncate(scan.valid_end)
            kind = "corrupt" if scan.corrupt_at is not None else "torn"
            print(
                f"REPAIRED {shard}/{name}: truncated {kind} tail at offset "
                f"{scan.valid_end} (backup: {os.path.basename(path)}.bak)"
            )
            repaired += 1
    if blocked:
        return 1
    print(f"OK {repaired} file(s) repaired")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.storage.walctl", description=__doc__.split("\n\n")[0]
    )
    commands = parser.add_subparsers(dest="command", required=True)
    inspect = commands.add_parser("inspect", help="JSON summary of a storage root")
    inspect.add_argument("root")
    inspect.add_argument(
        "--replication",
        action="store_true",
        help=(
            "also report each relation's applied replication mark — the "
            "(sequence, epoch) a server over this root would serve — next to "
            "its WAL head"
        ),
    )
    inspect.set_defaults(func=_cmd_inspect)
    verify = commands.add_parser("verify", help="verify checkpoints and WAL chains")
    verify.add_argument("root")
    verify.set_defaults(func=_cmd_verify)
    repair = commands.add_parser("repair", help="truncate damaged WAL tails (with backup)")
    repair.add_argument("root")
    repair.add_argument(
        "--force",
        action="store_true",
        help="also truncate at mid-file corruption, not just torn tails",
    )
    repair.set_defaults(func=_cmd_repair)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
