"""Unit tests for prime generation and the RSA implementation."""

import pytest

from repro.crypto.primes import (
    SMALL_PRIMES,
    extended_gcd,
    generate_prime,
    is_probable_prime,
    modular_inverse,
)
from repro.crypto.rsa import RSAPublicKey, full_domain_hash, generate_keypair
from repro.crypto.signature import rsa_scheme, scheme_from_keypair


class TestPrimality:
    def test_small_primes_table(self):
        assert SMALL_PRIMES[:5] == [2, 3, 5, 7, 11]
        assert 1999 in SMALL_PRIMES
        assert all(p < 2000 for p in SMALL_PRIMES)

    def test_known_primes(self):
        for prime in (2, 3, 5, 97, 7919, 104729, 2**31 - 1):
            assert is_probable_prime(prime)

    def test_known_composites(self):
        for composite in (0, 1, 4, 9, 561, 8911, 2**31, 7919 * 104729):
            assert not is_probable_prime(composite)

    def test_carmichael_numbers_rejected(self):
        # Carmichael numbers fool Fermat's test but not Miller-Rabin.
        for carmichael in (561, 1105, 1729, 2465, 2821, 6601, 8911, 62745):
            assert not is_probable_prime(carmichael)

    def test_large_prime_accepted(self):
        # 2^89 - 1 is a Mersenne prime.
        assert is_probable_prime(2**89 - 1)

    def test_generated_prime_has_requested_bits(self):
        for bits in (16, 32, 64, 128):
            prime = generate_prime(bits)
            assert prime.bit_length() == bits
            assert is_probable_prime(prime)

    def test_tiny_prime_request_rejected(self):
        with pytest.raises(ValueError):
            generate_prime(4)


class TestModularArithmetic:
    def test_extended_gcd(self):
        g, x, y = extended_gcd(240, 46)
        assert g == 2
        assert 240 * x + 46 * y == 2

    def test_modular_inverse(self):
        assert (3 * modular_inverse(3, 11)) % 11 == 1
        assert (65537 * modular_inverse(65537, 99991 * 99989)) % (99991 * 99989) != 0

    def test_modular_inverse_missing(self):
        with pytest.raises(ValueError):
            modular_inverse(6, 9)


class TestFullDomainHash:
    def test_output_below_modulus(self):
        modulus = 2**512 + 1
        assert 0 <= full_domain_hash(b"hello", modulus) < modulus

    def test_deterministic(self):
        modulus = 2**256 + 5
        assert full_domain_hash(b"m", modulus) == full_domain_hash(b"m", modulus)

    def test_message_sensitivity(self):
        modulus = 2**256 + 5
        assert full_domain_hash(b"m1", modulus) != full_domain_hash(b"m2", modulus)

    def test_modulus_sensitivity(self):
        assert full_domain_hash(b"m", 2**256 + 5) != full_domain_hash(b"m", 2**255 + 9)


class TestRSA:
    def test_sign_verify_round_trip(self, signature_scheme):
        message = b"the quick brown fox"
        signature = signature_scheme.sign(message)
        assert signature_scheme.verify(message, signature)

    def test_verification_rejects_tampered_message(self, signature_scheme):
        signature = signature_scheme.sign(b"original")
        assert not signature_scheme.verify(b"tampered", signature)

    def test_verification_rejects_tampered_signature(self, signature_scheme):
        signature = signature_scheme.sign(b"m")
        assert not signature_scheme.verify(b"m", signature + 1)

    def test_signature_in_range(self, signature_scheme):
        signature = signature_scheme.sign(b"m")
        assert 0 < signature < signature_scheme.verifier.modulus

    def test_sign_accepts_buffer_types(self, signature_scheme):
        # bytearray/memoryview messages must keep working despite the FDH memo.
        reference = signature_scheme.sign(b"buffer-msg")
        assert signature_scheme.sign(bytearray(b"buffer-msg")) == reference
        assert signature_scheme.sign(memoryview(b"buffer-msg")) == reference
        assert signature_scheme.verify(bytearray(b"buffer-msg"), reference)

    def test_repeated_signing_is_deterministic(self, signature_scheme):
        first = signature_scheme.sign(b"repeat-msg")
        assert signature_scheme.sign(b"repeat-msg") == first

    def test_out_of_range_signature_rejected(self, signature_scheme):
        public = signature_scheme.verifier
        assert not public.verify(b"m", 0)
        assert not public.verify(b"m", public.modulus + 5)

    def test_key_sizes(self):
        keypair = generate_keypair(bits=512)
        assert keypair.public_key.bits in (511, 512)
        assert keypair.public_key.signature_bytes == 64

    def test_too_small_modulus_rejected(self):
        with pytest.raises(ValueError):
            generate_keypair(bits=128)

    def test_keys_are_distinct_across_generations(self):
        first = generate_keypair(bits=512)
        second = generate_keypair(bits=512)
        assert first.public_key.modulus != second.public_key.modulus

    def test_cross_key_verification_fails(self, signature_scheme):
        other = rsa_scheme(bits=512)
        signature = signature_scheme.sign(b"m")
        assert not other.verify(b"m", signature)

    def test_scheme_from_keypair(self):
        keypair = generate_keypair(bits=512)
        scheme = scheme_from_keypair(keypair)
        assert scheme.verify(b"x", scheme.sign(b"x"))

    def test_public_key_is_dataclass_with_expected_fields(self, signature_scheme):
        public = signature_scheme.verifier
        assert isinstance(public, RSAPublicKey)
        assert public.exponent == 65537
