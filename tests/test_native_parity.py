"""Cross-backend parity: pure Python vs the native (gmpy2) arithmetic backend.

The backend contract (:mod:`repro.crypto.backend`) is that every public
artifact — signatures, FDH representatives, aggregates, chain digests, wire
frames — is byte-identical regardless of which arithmetic implementation
computed it.  These tests run the same workloads under
``force_backend(pure_backend())`` and under the import-selected backend and
compare the results exactly.  On a machine without gmpy2 the two coincide
and the suite degenerates to (still useful) self-consistency plus the
powmod algebraic properties; in the CI native lane the active
backend is gmpy2 and every comparison is a true cross-implementation check.

A tamper sweep runs under the *active* backend so the native lane proves
that acceleration never widens what verifies, and a subprocess test pins the
``REPRO_NATIVE=0`` escape hatch.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.crypto.aggregate import (
    aggregate_signatures,
    batch_verify_signatures,
    verify_aggregate,
)
from repro.crypto.backend import (
    active_backend,
    backend_name,
    backend_stats,
    force_backend,
    key_context,
    powmod,
    pure_backend,
)
from repro.crypto.rsa import full_domain_hash, full_domain_hash_many
from repro.wire import decode, encode


def _src_path() -> str:
    return os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


# ---------------------------------------------------------------------------
# Backend selection and reporting
# ---------------------------------------------------------------------------


def test_backend_identity_is_reported():
    stats = backend_stats()
    assert stats["backend"] == backend_name()
    assert stats["backend"] in ("python", "gmpy2")
    assert stats["native"] == active_backend().native
    assert 0 <= stats["key_contexts"] <= stats["key_context_capacity"]


def test_repro_native_zero_forces_pure_python_in_a_fresh_process():
    """``REPRO_NATIVE=0`` must select the pure backend even with gmpy2 present."""
    env = dict(os.environ, REPRO_NATIVE="0", PYTHONPATH=_src_path())
    output = subprocess.check_output(
        [
            sys.executable,
            "-c",
            "from repro.crypto.backend import backend_name, active_backend; "
            "print(backend_name(), active_backend().native)",
        ],
        env=env,
        text=True,
    )
    assert output.split() == ["python", "False"]


def test_default_selection_matches_gmpy2_importability():
    """Without the override, the backend is gmpy2 iff gmpy2 imports cleanly."""
    env = dict(os.environ, PYTHONPATH=_src_path())
    env.pop("REPRO_NATIVE", None)
    output = subprocess.check_output(
        [
            sys.executable,
            "-c",
            "from repro.crypto.backend import backend_name\n"
            "try:\n"
            "    import gmpy2  # noqa: F401\n"
            "    expected = 'gmpy2'\n"
            "except Exception:\n"
            "    expected = 'python'\n"
            "print(backend_name(), expected)",
        ],
        env=env,
        text=True,
    )
    name, expected = output.split()
    assert name == expected


# ---------------------------------------------------------------------------
# Arithmetic-level parity
# ---------------------------------------------------------------------------


@given(
    base=st.integers(min_value=0, max_value=2**521),
    exponent=st.integers(min_value=0, max_value=2**521),
    modulus=st.integers(min_value=2, max_value=2**521),
)
@settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
def test_powmod_matches_builtin_pow_on_both_backends(base, exponent, modulus):
    expected = pow(base, exponent, modulus)
    assert powmod(base, exponent, modulus) == expected
    with force_backend(pure_backend()):
        assert powmod(base, exponent, modulus) == expected


@given(value=st.integers(min_value=0, max_value=2**600))
@settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
def test_key_context_pow_verify_matches_pow_on_both_backends(
    value, signature_scheme
):
    public_key = signature_scheme.verifier
    expected = pow(value, public_key.exponent, public_key.modulus)
    assert key_context(public_key.modulus, public_key.exponent).pow_verify(
        value
    ) == expected
    with force_backend(pure_backend()):
        assert key_context(public_key.modulus, public_key.exponent).pow_verify(
            value
        ) == expected


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
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_signatures_are_byte_identical_across_backends(messages, signature_scheme):
    signer = signature_scheme.signer
    active_signatures = signature_scheme.sign_batch(messages)
    with force_backend(pure_backend()):
        pure_signatures = [signer.sign(message) for message in messages]
        # Cross-check: pure-backend verification accepts the active batch.
        assert all(
            signature_scheme.verifier.verify(message, signature)
            for message, signature in zip(messages, active_signatures)
        )
    assert active_signatures == pure_signatures
    assert all(
        signature_scheme.verifier.verify(message, signature)
        for message, signature in zip(messages, pure_signatures)
    )


def test_aggregates_and_batch_verify_are_identical_across_backends(
    signature_scheme,
):
    messages = [b"parity-agg|%04d" % index for index in range(16)]
    signatures = signature_scheme.sign_batch(messages)
    public_key = signature_scheme.verifier
    active_aggregate = aggregate_signatures(signatures, public_key, messages)
    assert verify_aggregate(active_aggregate, messages, public_key)
    assert batch_verify_signatures(messages, signatures, public_key)
    assert batch_verify_signatures(
        messages, signatures, public_key, weight_bits=16
    )
    with force_backend(pure_backend()):
        pure_aggregate = aggregate_signatures(signatures, public_key, messages)
        assert pure_aggregate.value == active_aggregate.value
        assert verify_aggregate(pure_aggregate, messages, public_key)
        assert batch_verify_signatures(messages, signatures, public_key)
        assert batch_verify_signatures(
            messages, signatures, public_key, weight_bits=16
        )


def test_answer_frames_are_byte_identical_across_backends(signature_scheme):
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
        return answer

    active_answer = build_answer()
    active_frame = encode(active_answer.proof)
    with force_backend(pure_backend()):
        pure_answer = build_answer()
        pure_frame = encode(pure_answer.proof)
        assert decode(pure_frame) == pure_answer.proof
    assert pure_frame == active_frame
    assert decode(active_frame) == active_answer.proof
    assert pure_answer.rows == active_answer.rows


# ---------------------------------------------------------------------------
# Tamper sweep under the active backend
# ---------------------------------------------------------------------------


def test_tampering_is_rejected_under_the_active_backend(signature_scheme):
    """Acceleration must never widen what verifies: every single-bit/byte
    perturbation of a genuine signature (and a swapped-message pairing) is
    rejected through the per-key fast path and the batch screening test."""
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


def test_force_backend_restores_the_previous_backend():
    before = active_backend()
    with force_backend(pure_backend()) as pinned:
        assert active_backend() is pinned is pure_backend()
    assert active_backend() is before


@pytest.mark.skipif(
    not active_backend().native, reason="gmpy2 backend not active"
)
def test_native_backend_is_actually_native():
    """In the CI native lane this pins that the fast path is really gmpy2."""
    assert backend_name() == "gmpy2"
    assert backend_stats()["native"] is True
