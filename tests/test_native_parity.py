"""Cross-backend parity: pure Python vs the libcrypto modexp backend.

The backend contract (:mod:`repro.crypto.backend`) is that every public
artifact — signatures, FDH representatives, aggregates, chain digests, wire
frames — is byte-identical whichever implementation computed it.  These tests
build the libcrypto backend from the library ``_hashlib`` mapped and compare it
with ``pow`` and with the pure backend exactly, so a run under
``REPRO_NATIVE=0`` still cross-checks the native path.  Around that sit the
selection rules (the default, the ``REPRO_NATIVE=0`` escape hatch, a failed
probe), concurrent and forked use, and a leak guard on both entry points.
"""

from __future__ import annotations

import logging
import os
import subprocess
import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.crypto import _shard, backend
from repro.crypto.aggregate import (
    aggregate_signatures,
    batch_verify_signatures,
    verify_aggregate,
)
from repro.crypto.backend import (
    LibcryptoBackend,
    active_backend,
    backend_name,
    backend_stats,
    force_backend,
    pure_backend,
)
from repro.crypto.rsa import full_domain_hash, full_domain_hash_many
from repro.wire import decode, encode


def _src_path() -> str:
    return os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _run_python(code: str, **env_changes) -> str:
    env = dict(os.environ, PYTHONPATH=_src_path())
    env.pop("REPRO_NATIVE", None)
    env.update(env_changes)
    return subprocess.check_output([sys.executable, "-c", code], env=env, text=True, timeout=60)


@pytest.fixture(scope="module")
def native():
    """The libcrypto backend, whatever ``REPRO_NATIVE`` selected for this process."""
    path = backend._mapped_libcrypto()
    if path is None or not sys.platform.startswith("linux"):
        pytest.skip("no libcrypto mapped by _hashlib on this platform")
    return LibcryptoBackend(path)


@pytest.fixture(params=["python", "libcrypto"])
def each_backend(request, native):
    return native if request.param == "libcrypto" else pure_backend()


# ---------------------------------------------------------------------------
# Backend selection and reporting
# ---------------------------------------------------------------------------


def test_backend_identity_is_reported():
    assert backend_stats() == {
        "backend": backend_name(),
        "native": active_backend().native,
    }
    assert backend_name() in ("python", "libcrypto")


def test_repro_native_zero_forces_pure_python_in_a_fresh_process():
    output = _run_python(
        "from repro.crypto.backend import backend_name, active_backend; "
        "print(backend_name(), active_backend().native)",
        REPRO_NATIVE="0",
    )
    assert output.split() == ["python", "False"]


def test_default_selection_is_libcrypto_wherever_hashlib_maps_it():
    """Not skipped anywhere: off Linux, or without ``_hashlib``, it pins ``python``."""
    output = _run_python(
        "import sys\n"
        "from repro.crypto.backend import backend_name\n"
        "try:\n"
        "    import _hashlib  # noqa: F401\n"
        "    linked = sys.platform.startswith('linux')\n"
        "except ImportError:\n"
        "    linked = False\n"
        "print(backend_name(), 'libcrypto' if linked else 'python')",
    )
    name, expected = output.split()
    assert name == expected


def test_a_probe_that_disagrees_with_pow_downgrades_to_python(monkeypatch, caplog, native):
    monkeypatch.delenv("REPRO_NATIVE", raising=False)
    real = LibcryptoBackend.powmod_secret
    monkeypatch.setattr(
        LibcryptoBackend, "powmod_secret", lambda self, b, e, m: real(self, b, e, m) ^ 1
    )
    with caplog.at_level(logging.INFO, logger="repro.crypto"):
        selected = backend._select_backend()
    assert selected.name == "python" and not selected.native
    assert [record.getMessage() for record in caplog.records] == [
        f"crypto backend: python ({backend._mapped_libcrypto()} disagrees with builtin pow)"
    ]


def test_force_backend_restores_the_previous_backend(native):
    before = active_backend()
    with force_backend(native) as pinned:
        assert active_backend() is pinned is native
        with force_backend(pure_backend()):
            assert active_backend() is pure_backend()
        assert active_backend() is native
    assert active_backend() is before


# ---------------------------------------------------------------------------
# Arithmetic-level parity
# ---------------------------------------------------------------------------


@given(
    base=st.integers(min_value=-(2**530), max_value=2**530),
    exponent=st.integers(min_value=0, max_value=2**521),
    modulus=st.one_of(
        st.integers(min_value=2, max_value=2**521),
        st.sampled_from([1, 2]),
        st.integers(min_value=1, max_value=2**520).map(lambda half: 2 * half + 1),
    ),
    exponent_zero=st.booleans(),
)
@settings(
    max_examples=150,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
def test_both_entry_points_match_builtin_pow(each_backend, base, exponent, modulus, exponent_zero):
    """Even moduli, moduli 1 and 2, exponent 0, bases at or above the modulus
    and negative bases included: what does not go native must still be ``pow``."""
    if exponent_zero:
        exponent = 0
    expected = pow(base, exponent, modulus)
    assert each_backend.powmod(base, exponent, modulus) == expected
    assert each_backend.powmod_secret(base, exponent, modulus) == expected
    assert each_backend.powmod(base + modulus, exponent, modulus) == expected
    with force_backend(each_backend):
        assert backend.powmod(base, exponent, modulus) == expected
        assert backend.powmod_secret(base, exponent, modulus) == expected


def test_concurrent_calls_from_eight_threads_all_equal_pow(native):
    modulus = backend._PROBE_MODULUS
    errors = []

    def worker(seed: int) -> None:
        for index in range(200):
            value = seed * 7919 + index
            exponent = (value << 64) | 65537
            expected = pow(value, exponent, modulus)
            for entry in (native.powmod, native.powmod_secret):
                if entry(value, exponent, modulus) != expected:
                    errors.append((seed, index, entry.__name__))

    threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []


def _resident_bytes() -> int:
    with open("/proc/self/statm", "r", encoding="ascii") as statm:
        return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


@pytest.mark.parametrize("entry", ["powmod", "powmod_secret"])
def test_a_hundred_thousand_calls_do_not_grow_resident_memory(native, entry):
    call = getattr(native, entry)
    modulus = (1 << 127) - 1
    for value in range(1_000):  # allocator pools and ctypes caches settle first
        call(value, 65537, modulus)
    before = _resident_bytes()
    for value in range(100_000):
        call(value, 65537, modulus)
    assert _resident_bytes() - before < 1 << 20


# ---------------------------------------------------------------------------
# Artifact-level parity: signatures, FDH, aggregates, wire frames
# ---------------------------------------------------------------------------


@given(messages=st.lists(st.binary(min_size=0, max_size=64), min_size=1, max_size=8))
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_fdh_is_byte_identical_across_backends(messages, signature_scheme):
    modulus = signature_scheme.verifier.modulus
    active = full_domain_hash_many(messages, modulus)
    singles = [full_domain_hash(message, modulus) for message in messages]
    with force_backend(pure_backend()):
        pure = full_domain_hash_many(messages, modulus)
    assert active == singles == pure


@given(messages=st.lists(st.binary(min_size=0, max_size=48), min_size=1, max_size=6))
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
def test_signatures_are_byte_identical_across_backends(messages, signature_scheme, native):
    verifier = signature_scheme.verifier
    with force_backend(native):
        native_signatures = signature_scheme.sign_batch(messages)
    with force_backend(pure_backend()):
        pure_signatures = [signature_scheme.signer.sign(message) for message in messages]
        # Cross-check: pure-backend verification accepts the native batch.
        assert all(verifier.verify(m, s) for m, s in zip(messages, native_signatures))
    assert native_signatures == pure_signatures
    with force_backend(native):
        assert all(verifier.verify(m, s) for m, s in zip(messages, pure_signatures))


def test_sharded_sign_batch_in_forked_children_equals_serial_signing(
    monkeypatch, signature_scheme, native
):
    messages = [b"parity-shard|%04d" % index for index in range(128)]
    with force_backend(pure_backend()):
        serial = [signature_scheme.signer.sign(message) for message in messages]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, mask: None, raising=False)
    monkeypatch.setattr(threading, "active_count", lambda: 1)
    assert _shard.shard_count(len(messages)) == 2
    with force_backend(native):
        assert signature_scheme.signer.sign_batch(messages) == serial


def test_aggregates_and_batch_verify_are_identical_across_backends(signature_scheme, native):
    messages = [b"parity-agg|%04d" % index for index in range(16)]
    signatures = signature_scheme.sign_batch(messages)
    public_key = signature_scheme.verifier
    aggregates = []
    for arithmetic in (native, pure_backend()):
        with force_backend(arithmetic):
            aggregate = aggregate_signatures(signatures, public_key, messages)
            aggregates.append(aggregate.value)
            assert verify_aggregate(aggregate, messages, public_key)
            assert batch_verify_signatures(messages, signatures, public_key)
            assert batch_verify_signatures(messages, signatures, public_key, weight_bits=16)
    assert aggregates[0] == aggregates[1]


def test_answer_frames_are_byte_identical_across_backends(signature_scheme, native):
    from repro.core.publisher import Publisher
    from repro.core.relational import SignedRelation
    from repro.core.verifier import ResultVerifier
    from repro.db import workload
    from repro.db.query import Conjunction, Query, RangeCondition

    query = Query(
        "employees",
        Conjunction((RangeCondition("salary", 20_000, 80_000),)),
    )

    def build_answer():
        relation = workload.generate_employees(24, seed=11, photo_bytes=8)
        signed = SignedRelation(relation, signature_scheme)
        publisher = Publisher({"employees": signed})
        verifier = ResultVerifier({"employees": signed.manifest})
        answer = publisher.answer(query)
        verifier.verify(query, answer.rows, answer.proof)
        return answer, encode(answer.proof)

    with force_backend(native):
        native_answer, native_frame = build_answer()
    with force_backend(pure_backend()):
        pure_answer, pure_frame = build_answer()
    assert pure_frame == native_frame
    assert decode(native_frame) == native_answer.proof == pure_answer.proof
    assert pure_answer.rows == native_answer.rows


# ---------------------------------------------------------------------------
# Tamper sweep under the active backend
# ---------------------------------------------------------------------------


def test_tampering_is_rejected_under_the_active_backend(signature_scheme):
    """Acceleration must never widen what verifies: every single-bit/byte
    perturbation of a genuine signature (and a swapped-message pairing) is
    rejected by single verification and by the batch screening test."""
    messages = [b"parity-tamper|%04d" % index for index in range(12)]
    signatures = signature_scheme.sign_batch(messages)
    public_key = signature_scheme.verifier

    for index in range(len(messages)):
        flipped = list(signatures)
        flipped[index] ^= 1 << (index % 64)
        assert not public_key.verify(messages[index], flipped[index])
        assert not batch_verify_signatures(messages, flipped, public_key)
        assert not batch_verify_signatures(
            messages, flipped, public_key, weight_bits=16
        )

    # Message/signature pairings must not be interchangeable either.
    assert not public_key.verify(messages[0], signatures[1])
    swapped = [signatures[1], signatures[0], *signatures[2:]]
    assert not batch_verify_signatures(
        messages, swapped, public_key, weight_bits=16
    )

    # Out-of-range and degenerate values.
    assert not public_key.verify(messages[0], signatures[0] + public_key.modulus)
    for bogus in (0, 1, public_key.modulus - 1):
        assert not public_key.verify(messages[0], bogus)
