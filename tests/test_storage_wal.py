"""Unit and fuzz tests for the write-ahead log and checkpoint files.

Covers the on-disk framing (length + CRC-32 + payload), the three fsync
policies, torn-tail truncation on open, the torn-vs-corrupt classification
(a partial final record is silently dropped; damaged bytes before the tail
are a typed error that only an explicit repair may truncate), atomic
compaction, and the checkpoint/key files that share the framing.

The fuzz sections are deterministic (seeded ``random.Random``): every
truncation point and every single-byte flip over a multi-record log must
leave the reader yielding an exact *prefix* of the original payloads or
refusing with a typed error — never garbage, never records past damage.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.storage import (
    WalCorruptError,
    WriteAheadLog,
    iter_wal_records,
    load_checkpoint,
    load_keys,
    save_keys,
    scan_wal,
)
from repro.storage.errors import CheckpointCorruptError
from repro.storage.faults import FaultInjected, FaultRegistry
from repro.storage.wal import BATCH_FSYNC_EVERY, encode_record

PAYLOADS = [b"alpha", b"beta-beta", b"gamma" * 40, b"\x00\xff" * 17, b"z"]


def _write_log(path, payloads=PAYLOADS, fsync="always"):
    with WriteAheadLog(str(path), fsync=fsync) as wal:
        for payload in payloads:
            wal.append(payload)
    return str(path)


# -- framing and replay --------------------------------------------------------


def test_append_replay_roundtrip(tmp_path):
    path = _write_log(tmp_path / "a.wal")
    with WriteAheadLog(path) as wal:
        assert wal.records == len(PAYLOADS)
        assert wal.replay() == PAYLOADS
    assert list(iter_wal_records(path)) == PAYLOADS


def test_record_framing_is_length_crc_payload(tmp_path):
    record = encode_record(b"hello")
    assert len(record) == 8 + 5
    assert int.from_bytes(record[:4], "big") == 5
    assert record[8:] == b"hello"
    with pytest.raises(ValueError):
        encode_record(b"")


def test_empty_and_missing_logs_open_clean(tmp_path):
    scan = scan_wal(str(tmp_path / "missing.wal"))
    assert (scan.records, scan.valid_end, scan.corrupt_at) == (0, 0, None)
    with WriteAheadLog(str(tmp_path / "fresh.wal")) as wal:
        assert wal.records == 0
        assert wal.replay() == []


# -- fsync policies ------------------------------------------------------------


def test_fsync_always_syncs_every_append(tmp_path):
    with WriteAheadLog(str(tmp_path / "a.wal"), fsync="always") as wal:
        for payload in PAYLOADS:
            wal.append(payload)
        assert wal.syncs == len(PAYLOADS)


def test_fsync_batch_syncs_on_the_batch_boundary(tmp_path):
    with WriteAheadLog(str(tmp_path / "b.wal"), fsync="batch") as wal:
        for index in range(BATCH_FSYNC_EVERY - 1):
            wal.append(b"r%d" % index)
        assert wal.syncs == 0
        wal.append(b"boundary")
        assert wal.syncs == 1
        wal.append(b"tail")
        wal.sync()  # graceful-shutdown path flushes the partial batch
        assert wal.syncs == 2


def test_fsync_off_only_syncs_explicitly(tmp_path):
    with WriteAheadLog(str(tmp_path / "c.wal"), fsync="off") as wal:
        for payload in PAYLOADS:
            wal.append(payload)
        assert wal.syncs == 0
        wal.sync()
        assert wal.syncs == 1


def test_unknown_fsync_policy_is_rejected(tmp_path):
    with pytest.raises(ValueError):
        WriteAheadLog(str(tmp_path / "d.wal"), fsync="sometimes")


# -- torn tails vs corruption --------------------------------------------------


def test_torn_tail_is_truncated_on_open(tmp_path):
    path = _write_log(tmp_path / "torn.wal")
    whole = os.path.getsize(path)
    with open(path, "ab") as handle:
        handle.write(encode_record(b"never-finished")[:11])
    with WriteAheadLog(path) as wal:
        assert wal.records == len(PAYLOADS)
        assert wal.truncated_tail_bytes == 11
        assert wal.replay() == PAYLOADS
        wal.append(b"after-recovery")  # appends land where the tail was cut
        assert wal.replay() == PAYLOADS + [b"after-recovery"]
    assert os.path.getsize(path) == whole + len(encode_record(b"after-recovery"))


def test_midfile_corruption_refuses_to_open(tmp_path):
    path = _write_log(tmp_path / "corrupt.wal")
    with open(path, "r+b") as handle:
        handle.seek(8 + len(PAYLOADS[0]) + 8 + 2)  # inside the second payload
        byte = handle.read(1)
        handle.seek(-1, os.SEEK_CUR)
        handle.write(bytes([byte[0] ^ 0x40]))
    scan = scan_wal(path)
    assert scan.corrupt_at == 8 + len(PAYLOADS[0])
    assert scan.records == 1
    with pytest.raises(WalCorruptError) as excinfo:
        WriteAheadLog(path)
    assert excinfo.value.offset == scan.corrupt_at
    with pytest.raises(WalCorruptError):
        list(iter_wal_records(path))


def test_impossible_length_is_corruption_not_a_tail(tmp_path):
    path = str(tmp_path / "length.wal")
    with open(path, "wb") as handle:
        handle.write(encode_record(b"fine"))
        handle.write((0).to_bytes(4, "big") + (0).to_bytes(4, "big"))
    scan = scan_wal(path)
    assert scan.corrupt_at == 8 + 4
    assert "announces 0 bytes" in scan.corrupt_detail


def test_every_truncation_point_yields_a_prefix(tmp_path):
    """Torn-tail fuzz: cutting the file anywhere must recover a clean prefix."""
    path = _write_log(tmp_path / "cut.wal")
    original = open(path, "rb").read()
    boundaries = []
    offset = 0
    for payload in PAYLOADS:
        offset += 8 + len(payload)
        boundaries.append(offset)
    for cut in range(len(original) + 1):
        with open(path, "wb") as handle:
            handle.write(original[:cut])
        expected = sum(1 for b in boundaries if b <= cut)
        with WriteAheadLog(path) as wal:
            assert wal.replay() == PAYLOADS[:expected], f"cut at byte {cut}"


def test_single_byte_flips_never_yield_forged_records(tmp_path):
    """Bit-flip fuzz: any one-byte change is caught as corruption or a torn
    tail — the reader yields a strict prefix of the true history or refuses."""
    path = _write_log(tmp_path / "flip.wal")
    original = open(path, "rb").read()
    rng = random.Random(0xC0FFEE)
    for _ in range(200):
        position = rng.randrange(len(original))
        mutation = bytearray(original)
        mutation[position] ^= 1 << rng.randrange(8)
        with open(path, "wb") as handle:
            handle.write(bytes(mutation))
        scan = scan_wal(path)
        if scan.corrupt_at is not None:
            with pytest.raises(WalCorruptError):
                list(iter_wal_records(path))
            continue
        recovered = list(iter_wal_records(path))
        assert recovered == PAYLOADS[: len(recovered)], (
            f"flip at byte {position} produced non-prefix records"
        )


# -- compaction ----------------------------------------------------------------


def test_rewrite_replaces_contents_atomically(tmp_path):
    path = _write_log(tmp_path / "compact.wal")
    with WriteAheadLog(path) as wal:
        wal.rewrite([b"only-survivor"])
        assert wal.records == 1
        wal.append(b"post-compaction")
        assert wal.replay() == [b"only-survivor", b"post-compaction"]
    assert not os.path.exists(path + ".tmp")
    with WriteAheadLog(path) as wal:
        assert wal.replay() == [b"only-survivor", b"post-compaction"]


# -- failpoints in the append path ---------------------------------------------


def test_mid_record_error_failpoint_backs_out_the_partial_write(tmp_path):
    faults = FaultRegistry()
    with WriteAheadLog(str(tmp_path / "f.wal"), faults=faults) as wal:
        wal.append(b"before")
        faults.arm("wal-mid-record", "error")
        with pytest.raises(FaultInjected):
            wal.append(b"doomed-record")
        # The half-written record was backed out; the log stays clean and
        # appendable in-process.
        wal.append(b"after")
        assert wal.replay() == [b"before", b"after"]


def test_before_fsync_error_failpoint_fires_once(tmp_path):
    faults = FaultRegistry()
    faults.arm("wal-before-fsync", "error", at_hit=2)
    with WriteAheadLog(str(tmp_path / "g.wal"), faults=faults) as wal:
        wal.append(b"one")
        with pytest.raises(FaultInjected):
            wal.append(b"two")
        wal.append(b"three")  # disarmed after firing
    # The record that hit the failpoint was fully written (the crash window
    # is *after* the write, before durability) — replay sees all three.
    assert list(iter_wal_records(str(tmp_path / "g.wal"))) == [b"one", b"two", b"three"]


# -- checkpoints and keys ------------------------------------------------------


@pytest.fixture(scope="module")
def small_world(signature_scheme):
    from repro.core.publisher import Publisher
    from repro.core.relational import SignedRelation
    from repro.db import workload
    from repro.service.router import ShardRouter

    relation = workload.generate_employees(12, seed=3, photo_bytes=8)
    signed = SignedRelation(relation, signature_scheme)
    router = ShardRouter({"hr": Publisher({"employees": signed})})
    return router, signed


def test_checkpoint_roundtrip(tmp_path, small_world, signature_scheme):
    from repro.storage.checkpoint import write_checkpoint

    router, signed = small_world
    rotation = router.rotation("employees")
    path = str(tmp_path / "employees.ckpt")
    write_checkpoint(path, "employees", rotation)
    checkpoint = load_checkpoint(path)
    assert checkpoint.relation_name == "employees"
    assert checkpoint.sequence == signed.version
    assert checkpoint.rotation == rotation


def test_checkpoint_with_forged_rotation_is_refused(tmp_path, small_world):
    from dataclasses import replace

    from repro.storage.checkpoint import write_checkpoint

    router, signed = small_world
    rotation = router.rotation("employees")
    forged = replace(rotation, owner_signature=rotation.owner_signature + 1)
    path = str(tmp_path / "forged.ckpt")
    write_checkpoint(path, "employees", forged)
    with pytest.raises(CheckpointCorruptError) as excinfo:
        load_checkpoint(path)
    assert "not signed by the owner key" in str(excinfo.value)


def test_truncated_checkpoint_is_refused(tmp_path, small_world, signature_scheme):
    from repro.storage.checkpoint import write_checkpoint

    router, signed = small_world
    path = str(tmp_path / "short.ckpt")
    write_checkpoint(path, "employees", router.rotation("employees"))
    # Drop the rotation record: only the header is left.
    records = list(iter_wal_records(path))
    with open(path, "wb") as handle:
        for record in records[:-1]:
            handle.write(encode_record(record))
    with pytest.raises(CheckpointCorruptError) as excinfo:
        load_checkpoint(path)
    assert "holds 1 record(s)" in str(excinfo.value)


def test_checkpoint_carrying_row_records_is_refused(tmp_path, small_world):
    """Only the rotation is owner-signed, so nothing else may ride in the file.

    A CRC-valid row record appended after the rotation — how rows used to be
    smuggled back in to be re-signed on restart — makes the file corrupt.
    """
    from repro.storage.checkpoint import write_checkpoint
    from repro.wire import encode
    from repro.wire.updates import RecordDelta

    router, signed = small_world
    path = str(tmp_path / "rows.ckpt")
    write_checkpoint(path, "employees", router.rotation("employees"))
    row = dict(next(iter(signed.relation)).values)
    with open(path, "ab") as handle:
        handle.write(encode_record(encode(RecordDelta(kind="insert", values=row))))
    with pytest.raises(CheckpointCorruptError) as excinfo:
        load_checkpoint(path)
    assert "holds 3 record(s)" in str(excinfo.value)


def test_keys_roundtrip_preserves_signatures(tmp_path, signature_scheme):
    path = str(tmp_path / "keys.json")
    save_keys(path, {"employees": signature_scheme})
    assert (os.stat(path).st_mode & 0o777) == 0o600
    loaded = load_keys(path)["employees"]
    message = b"key-roundtrip-probe"
    assert loaded.sign(message) == signature_scheme.sign(message)
    assert loaded.verifier == signature_scheme.verifier
