"""``sign_batch`` sharded across forked children: same bytes, same counters, no debris.

The sharded path is always forced through the module's own seams — a patched
affinity mask (``os.sched_getaffinity``) or cut-over (``_shard.MIN_SHARD_ITEMS``)
— never by hoping the runner has two cores.  Faults are injected into the
children the same way: a patch applied before the fork is inherited by the
child, and acts only where ``os.getpid()`` is not the test's.
"""

from __future__ import annotations

import gc
import logging
import os
import signal
import sqlite3
import subprocess
import sys
import threading
import warnings

import pytest

from repro.bench.scale import RELATION, _row_stream, metrics_schema
from repro.core.relational import SignedRelation
from repro.crypto import _shard, rsa
from repro.crypto.rsa import SIGN_COUNTER, RSAPrivateKey, generate_keypair
from repro.crypto.signature import scheme_from_keypair
from repro.db.workload import generate_employees
from repro.storage.relstore import RelationStore, build_stored_chain

# Forking a threaded process warns on 3.12; the serial fallback must keep it quiet.
pytestmark = pytest.mark.filterwarnings("error::DeprecationWarning")


@pytest.fixture(scope="module")
def keys():
    """One 512-bit key per supported modulus structure (2, 3 and 4 primes)."""
    return {
        primes: generate_keypair(bits=512, crt_primes=primes).private_key
        for primes in (2, 3, 4)
    }


def _messages(count, tag=b"shard"):
    return [b"%s|%06d" % (tag, index) for index in range(count)]


def _force_cpus(monkeypatch, cpus, alone=True):
    """Pretend the affinity mask holds ``cpus`` CPUs (placement hints become no-ops).

    Earlier files of the suite leak daemon threads (chaos proxies, fake
    servers, all parked in ``accept``), so unless ``alone`` is false the seam
    also says this is the only thread — and lets the one warning 3.12 has
    about forking next to them through.
    """
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, mask: None, raising=False)
    if alone:
        monkeypatch.setattr(threading, "active_count", lambda: 1)
        warnings.filterwarnings("ignore", "This process .* is multi-threaded", DeprecationWarning)


def _force_serial(monkeypatch):
    monkeypatch.setattr(_shard, "MIN_SHARD_ITEMS", sys.maxsize)


def _record_shards(monkeypatch):
    """Spy on ``split``: the shard sizes of every sharded batch."""
    seen = []
    real = _shard.split

    def spy(items, shards):
        seen.append([len(shard) for shard in real(items, shards)])
        return real(items, shards)

    monkeypatch.setattr(_shard, "split", spy)
    return seen


def _serial_reference(key, messages):
    """What a never-sharded key of the same material signs, one message at a time."""
    return [key.sign(message) for message in messages]


def _assert_no_debris(fds_before):
    """No zombie child and no leaked descriptor."""
    try:
        assert os.waitpid(-1, os.WNOHANG) == (0, 0)  # only other tests' live children
    except ChildProcessError:
        pass  # no children at all
    assert _open_fds() == fds_before


def _open_fds():
    gc.collect()  # descriptors of earlier tests' garbage must not count
    return len(os.listdir("/proc/self/fd"))


# -- byte identity ---------------------------------------------------------------


@pytest.mark.parametrize("primes", [2, 3, 4])
@pytest.mark.parametrize(
    "cpus, count, expected_shards",
    [
        (4, 127, None),  # one short of two full shards: serial
        (4, 128, [64, 64]),
        (3, 200, [67, 67, 66]),  # uneven: the remainder goes to the first shards
        (4, 257, [65, 64, 64, 64]),
        (2, 200, [100, 100]),
    ],
)
def test_sharded_output_is_byte_identical(monkeypatch, keys, primes, cpus, count, expected_shards):
    key = keys[primes]
    messages = _messages(count)
    _force_cpus(monkeypatch, cpus)
    seen = _record_shards(monkeypatch)
    fds = _open_fds()
    signed_before = SIGN_COUNTER.signatures
    signatures = key.sign_batch(messages)
    assert SIGN_COUNTER.signatures - signed_before == count
    assert seen == ([] if expected_shards is None else [expected_shards])
    assert signatures == _serial_reference(key, messages)
    assert all(key.public_key().verify(m, s) for m, s in zip(messages[:3], signatures[:3]))
    _assert_no_debris(fds)


def test_split_covers_the_batch_in_order():
    items = list(range(11))
    assert _shard.split(items, 3) == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10]]
    assert _shard.split(items, 1) == [items]


def test_accept_sees_each_child_shard_at_its_offset(monkeypatch):
    _force_cpus(monkeypatch, 3)
    offered = []

    def accept(offset, results):
        offered.append((offset, results))
        return True

    assert _shard.map_sharded(lambda item: item + 1, list(range(200)), 2, accept) == list(
        range(1, 201)
    )
    assert offered == [(67, list(range(68, 135))), (134, list(range(135, 201)))]


def test_single_cpu_mask_stays_serial(monkeypatch, keys):
    _force_cpus(monkeypatch, 1)
    seen = _record_shards(monkeypatch)
    key = keys[3]
    assert key.sign_batch(_messages(200)) == _serial_reference(key, _messages(200))
    assert seen == []


def test_platform_without_fork_stays_serial(monkeypatch, keys):
    _force_cpus(monkeypatch, 4)
    monkeypatch.delattr(os, "fork")
    seen = _record_shards(monkeypatch)
    key = keys[3]
    assert key.sign_batch(_messages(200)) == _serial_reference(key, _messages(200))
    assert seen == []


def _signed_and_counted(key, messages):
    before = SIGN_COUNTER.signatures
    return key.sign_batch(messages), SIGN_COUNTER.signatures - before


def test_duplicates_in_a_batch_sign_once(monkeypatch, keys):
    """Each distinct message is signed once, wherever its copies sit in the batch."""
    fresh = _messages(195, b"fresh")
    batch = fresh[:20] + fresh + fresh[:30] + fresh[100:]
    reference = _serial_reference(keys[3], batch)

    _force_cpus(monkeypatch, 3)
    seen = _record_shards(monkeypatch)
    sharded = _signed_and_counted(keys[3], batch)
    assert seen == [[65, 65, 65]]
    _force_serial(monkeypatch)
    serial = _signed_and_counted(keys[3], batch)
    assert len(seen) == 1
    assert sharded == serial == (reference, 195)


def test_each_pending_message_is_hashed_once(monkeypatch, keys):
    """A batch that outgrows the FDH cache used to hash every message twice."""
    monkeypatch.setattr(rsa, "_full_domain_hash_cached", rsa._FDHCache(16))
    _force_serial(monkeypatch)
    key = keys[3]
    fresh = _messages(120)
    before = rsa.fdh_cache_stats()
    signatures = key.sign_batch(fresh + fresh[:50])
    after = rsa.fdh_cache_stats()
    assert after["misses"] - before["misses"] == len(fresh)
    assert after["hits"] == before["hits"]
    assert after["size"] == after["capacity"] == 16  # the memo stays at its bound
    assert signatures == _serial_reference(key, fresh + fresh[:50])


# -- whole publications ------------------------------------------------------------


def test_signed_relation_built_sharded_equals_serial(monkeypatch, keys):
    scheme = scheme_from_keypair(rsa.RSAKeyPair(keys[3], keys[3].public_key()))
    relation = generate_employees(1024, seed=5, photo_bytes=8)
    _force_cpus(monkeypatch, 4)
    seen = _record_shards(monkeypatch)
    sharded = SignedRelation(relation, scheme)
    assert [sum(sizes) for sizes in seen] == [1026]
    _force_serial(monkeypatch)
    serial = SignedRelation(relation, scheme)
    assert len(seen) == 1
    assert sharded.signatures == serial.signatures
    assert sharded.manifest == serial.manifest


def _stored_rows(path):
    with sqlite3.connect(path) as connection:
        return (
            connection.execute("SELECT * FROM entries ORDER BY kind, key, fingerprint").fetchall(),
            connection.execute("SELECT * FROM chain_state").fetchall(),
        )


def test_stored_chain_built_sharded_equals_serial(monkeypatch, tmp_path, keys):
    scheme = scheme_from_keypair(rsa.RSAKeyPair(keys[3], keys[3].public_key()))
    schema = metrics_schema(1024)

    def build(name):
        store = RelationStore(str(tmp_path / name), fsync="off")
        try:
            build_stored_chain(store, RELATION, schema, _row_stream(1024), scheme)
        finally:
            store.close()
        return _stored_rows(str(tmp_path / name))

    _force_cpus(monkeypatch, 2)
    seen = _record_shards(monkeypatch)
    sharded = build("sharded.db")
    assert seen == [[256, 256], [256, 256]]  # two full 512-message flushes; the 2-entry tail is serial
    _force_serial(monkeypatch)
    serial = build("serial.db")
    assert len(seen) == 2
    assert len(sharded[0]) == 1026 and sharded == serial


# -- a child that fails ------------------------------------------------------------


def _patch_child_signing(monkeypatch, on_item):
    """Run ``on_item(count, real_signature)`` for every signature a *child* makes."""
    parent = os.getpid()
    real = RSAPrivateKey._sign_representative
    made = [0]

    def patched(self, representative):
        signature = real(self, representative)
        if os.getpid() == parent:
            return signature
        made[0] += 1
        return on_item(made[0], signature)

    monkeypatch.setattr(RSAPrivateKey, "_sign_representative", patched)


def _kill_self(count, signature):
    if count == 7:
        os.kill(os.getpid(), signal.SIGKILL)
    return signature


def _raise(count, signature):
    if count == 7:
        raise RuntimeError("boom in a child")
    return signature


def _corrupt(count, signature):
    return signature ^ 1 if count == 7 else signature  # one bad CRT recombination


@pytest.mark.parametrize(
    "on_item, reason",
    [(_kill_self, "child-exit"), (_raise, "child-exit"), (_corrupt, "screening-failed")],
)
def test_failed_child_shard_is_resigned_with_one_warning(
    monkeypatch, caplog, capfd, keys, on_item, reason
):
    key = keys[3]
    messages = _messages(128)
    reference = _serial_reference(key, messages)
    _force_cpus(monkeypatch, 2)
    _patch_child_signing(monkeypatch, on_item)
    fds = _open_fds()
    with caplog.at_level(logging.DEBUG, logger="repro.crypto"):
        signed = _signed_and_counted(key, messages)
    assert signed == (reference, 128)
    warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warnings) == 1
    assert warnings[0].getMessage() == f"sign_batch: shard 1 of 2 re-signed serially: {reason}"
    assert capfd.readouterr().err == ""  # the child's traceback dies with it
    _assert_no_debris(fds)


def test_truncated_pipe_is_a_short_read(monkeypatch, caplog, keys):
    key = keys[3]
    messages = _messages(128)
    parent = os.getpid()
    real_write = os.write

    def half_write(fd, data):
        if os.getpid() == parent:
            return real_write(fd, data)
        real_write(fd, bytes(data[: len(data) // 2]))
        os._exit(0)

    _force_cpus(monkeypatch, 2)
    monkeypatch.setattr(os, "write", half_write)
    fds = _open_fds()
    with caplog.at_level(logging.WARNING, logger="repro.crypto"):
        signatures = key.sign_batch(messages)
    monkeypatch.setattr(os, "write", real_write)
    assert signatures == _serial_reference(key, messages)
    assert [r.getMessage().rsplit(": ", 1)[1] for r in caplog.records] == ["short-read"]
    _assert_no_debris(fds)


def test_short_writes_are_resumed(monkeypatch, caplog, keys):
    """``os.write`` may take less than it was given; the child loops until done."""
    key = keys[3]
    messages = _messages(128)
    real_write = os.write
    monkeypatch.setattr(os, "write", lambda fd, data: real_write(fd, bytes(data[:100])))
    _force_cpus(monkeypatch, 2)
    with caplog.at_level(logging.WARNING, logger="repro.crypto"):
        signatures = key.sign_batch(messages)
    monkeypatch.setattr(os, "write", real_write)
    assert signatures == _serial_reference(key, messages)
    assert caplog.records == []


def test_interrupt_in_the_parent_reaps_the_children(monkeypatch, keys):
    key = keys[3]
    parent = os.getpid()
    real = RSAPrivateKey._sign_representative
    made = [0]

    def interrupting(self, representative):
        if os.getpid() == parent:
            made[0] += 1
            if made[0] == 5:
                raise KeyboardInterrupt
        return real(self, representative)

    _force_cpus(monkeypatch, 3)
    monkeypatch.setattr(RSAPrivateKey, "_sign_representative", interrupting)
    fds = _open_fds()
    signed_before = SIGN_COUNTER.signatures
    with pytest.raises(KeyboardInterrupt):
        key.sign_batch(_messages(3000))
    _assert_no_debris(fds)
    assert SIGN_COUNTER.signatures == signed_before


# -- the process around it -----------------------------------------------------------


def test_sharded_batch_logs_one_debug_line(monkeypatch, caplog, keys):
    _force_cpus(monkeypatch, 2)
    with caplog.at_level(logging.DEBUG, logger="repro.crypto"):
        keys[3].sign_batch(_messages(128))
        keys[3].sign_batch(_messages(127))
    lines = [r.getMessage() for r in caplog.records]
    assert len(lines) == 1 and lines[0].startswith("sign_batch: 128 messages in 2 shards, ")


def test_second_thread_alive_stays_serial_and_quiet(monkeypatch, keys):
    _force_cpus(monkeypatch, 4, alone=False)
    seen = _record_shards(monkeypatch)
    release = threading.Event()
    bystander = threading.Thread(target=release.wait, args=(30,))
    bystander.start()
    try:
        key = keys[3]
        signatures = key.sign_batch(_messages(200))  # a DeprecationWarning is an error here
    finally:
        release.set()
        bystander.join(timeout=30)
    assert not bystander.is_alive()
    assert seen == []
    assert signatures == _serial_reference(key, _messages(200))


_UNFLUSHED_PRINT = """
import logging, os, sys
logging.basicConfig(level=logging.DEBUG, stream=sys.stderr)
from repro.crypto.rsa import generate_keypair
key = generate_keypair(bits=512).private_key
os.sched_getaffinity = lambda pid: {0, 1}
os.sched_setaffinity = lambda pid, mask: None
print("READY before the fork")  # stdout is a pipe: block-buffered, not flushed
key.sign_batch([b"m%d" % index for index in range(128)])
"""


def test_child_does_not_flush_the_inherited_stdout_buffer():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, "-c", _UNFLUSHED_PRINT], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert "128 messages in 2 shards" in done.stderr
    assert done.stdout.count("READY before the fork") == 1
