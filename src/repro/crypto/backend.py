"""Runtime-selected modular exponentiation backend.

Every modular exponentiation in the library — CRT signing, signature
verification, condensed-RSA aggregation, batch screening — goes through this
module, which selects one of two interchangeable implementations at import:

* :class:`PurePythonBackend` — CPython's built-in ``pow``; always available.
* :class:`LibcryptoBackend` — OpenSSL's ``BN_*`` modexp, called through
  ``ctypes`` in the ``libcrypto`` that CPython's ``hashlib`` has already
  mapped into the process (every SHA-256 of the library runs through it).
  The library is found by reading ``/proc/self/maps`` after
  ``import _hashlib`` and opening exactly the mapped file, never by a
  library search that could load a second OpenSSL.

Two entry points take and return plain ``int`` values:

* :func:`powmod` is for public operands (the e = 65537 of verification,
  aggregation and screening) and runs ``BN_mod_exp``;
* :func:`powmod_secret` is for the CRT halves of a signature, whose exponent
  and modulus are the private key, and runs ``BN_mod_exp_mont_consttime``,
  clearing every operand with ``BN_clear_free``.

Only an odd modulus above 1 with a non-negative exponent goes native; anything
else (even moduli, negative exponents) is ``pow``'s.  Each call allocates and
frees its own ``BN_CTX`` and ``BIGNUM`` values, so no handle outlives a call:
there is no per-thread state and nothing a forked child inherits.

Selection: ``REPRO_NATIVE=0`` (or ``false``/``no``/``off``) forces pure
Python.  Pure Python is also what runs off Linux, when no ``libcrypto`` is
mapped, and when the native backend fails a known-answer probe against
``pow``.  The choice is logged once at import on the ``repro.crypto`` logger
and reported by :func:`backend_stats` (surfaced through ``cache_stats()`` /
the demo server's ``CACHE_STATS`` line).

**The contract: every result is byte-identical across backends.**  Both
compute the same function over Python ``int`` inputs; the parity suite
(``tests/test_native_parity.py``) property-tests this, and the golden wire
vectors hold both backends to the same frames.
"""

from __future__ import annotations

import contextlib
import ctypes
import logging
import os
import sys
from typing import Dict, Optional

__all__ = [
    "PurePythonBackend",
    "LibcryptoBackend",
    "active_backend",
    "pure_backend",
    "backend_name",
    "backend_stats",
    "force_backend",
    "powmod",
    "powmod_secret",
]

logger = logging.getLogger("repro.crypto")

#: Values of ``REPRO_NATIVE`` that force the pure-Python backend.
_DISABLE_VALUES = frozenset({"0", "false", "no", "off"})

#: The known-answer probe's odd 1024-bit modulus.
_PROBE_MODULUS = (1 << 1023) | 0xB0B


class PurePythonBackend:
    """Standard-library arithmetic: CPython ``int`` and builtin ``pow``."""

    name = "python"
    native = False

    @staticmethod
    def powmod(base: int, exponent: int, modulus: int) -> int:
        return pow(base, exponent, modulus)

    powmod_secret = powmod


class LibcryptoBackend:
    """OpenSSL ``BN_mod_exp`` / ``BN_mod_exp_mont_consttime`` over ``ctypes``."""

    name = "libcrypto"
    native = True

    def __init__(self, path: str) -> None:
        lib = ctypes.CDLL(path)
        pointer, integer = ctypes.c_void_p, ctypes.c_int
        # A default ``int`` restype would truncate 64-bit pointers.
        for symbol, restype, argtypes in (
            ("BN_CTX_new", pointer, []),
            ("BN_CTX_free", None, [pointer]),
            ("BN_new", pointer, []),
            ("BN_free", None, [pointer]),
            ("BN_clear_free", None, [pointer]),
            ("BN_bin2bn", pointer, [ctypes.c_char_p, integer, pointer]),
            ("BN_bn2binpad", integer, [pointer, ctypes.c_char_p, integer]),
            ("BN_mod_exp", integer, [pointer] * 5),
            ("BN_mod_exp_mont_consttime", integer, [pointer] * 6),
        ):
            function = getattr(lib, symbol)
            function.restype, function.argtypes = restype, argtypes
        consttime = lib.BN_mod_exp_mont_consttime
        self._lib = lib
        self._public = (lib.BN_mod_exp, lib.BN_free)
        self._secret = (
            lambda r, a, p, m, context: consttime(r, a, p, m, context, None),
            lib.BN_clear_free,
        )

    def powmod(self, base: int, exponent: int, modulus: int) -> int:
        return self._modexp(base, exponent, modulus, *self._public)

    def powmod_secret(self, base: int, exponent: int, modulus: int) -> int:
        return self._modexp(base, exponent, modulus, *self._secret)

    def _modexp(self, base, exponent, modulus, modexp, release) -> int:
        """``pow(base, exponent, modulus)`` with operands and context freed in here."""
        if modulus <= 1 or not modulus & 1 or exponent < 0:
            return pow(base, exponent, modulus)
        lib = self._lib
        width = (modulus.bit_length() + 7) // 8
        context = lib.BN_CTX_new()
        numbers = []
        try:
            for value in (base % modulus, exponent, modulus):
                data = value.to_bytes((value.bit_length() + 7) // 8, "big")
                numbers.append(lib.BN_bin2bn(data, len(data), None))
            result = lib.BN_new()
            numbers.append(result)
            if not (context and all(numbers) and modexp(result, *numbers[:3], context)):
                raise MemoryError("libcrypto modular exponentiation failed")
            output = ctypes.create_string_buffer(width)
            lib.BN_bn2binpad(result, output, width)
            return int.from_bytes(output.raw, "big")
        finally:
            for number in numbers:
                release(number)
            lib.BN_CTX_free(context)


def _mapped_libcrypto() -> Optional[str]:
    """Path of the ``libcrypto`` that ``_hashlib`` mapped into this process."""
    try:
        import _hashlib  # noqa: F401, PLC0415 - maps libcrypto as a side effect

        with open("/proc/self/maps", "r", encoding="utf-8", errors="replace") as maps:
            for line in maps:
                path = line.split(None, 5)[-1].strip()
                if os.path.basename(path).startswith("libcrypto.so"):
                    return path
    except (ImportError, OSError):
        pass
    return None


def _agrees_with_pow(backend) -> bool:
    """Known-answer probe of both entry points against ``pow``."""
    modulus = _PROBE_MODULUS
    base = modulus // 3
    return all(
        entry(base, exponent, modulus) == pow(base, exponent, modulus)
        for entry, exponent in ((backend.powmod, 65537), (backend.powmod_secret, modulus >> 960))
    )


def _select_backend():
    """Pick the arithmetic backend once, at import, with one INFO line.

    An openable-but-broken native library (a wrong symbol, a disagreeing
    answer) downgrades to pure Python instead of corrupting every signature
    in the process.
    """
    forced = os.environ.get("REPRO_NATIVE", "").strip().lower()
    path = None
    if forced in _DISABLE_VALUES:
        reason = f"REPRO_NATIVE={forced}"
    elif not sys.platform.startswith("linux"):
        reason = f"not Linux ({sys.platform})"
    else:
        path = _mapped_libcrypto()
        reason = "no libcrypto mapped by _hashlib"
    if path is not None:
        try:
            backend = LibcryptoBackend(path)
            if _agrees_with_pow(backend):
                logger.info("crypto backend: libcrypto (%s)", path)
                return backend
            reason = f"{path} disagrees with builtin pow"
        except (OSError, AttributeError, MemoryError) as error:
            reason = f"{path}: {error}"
    logger.info("crypto backend: python (%s)", reason)
    return PurePythonBackend()


_PURE = PurePythonBackend()
_ACTIVE = _select_backend()


def active_backend():
    """The backend every crypto hot path currently dispatches through."""
    return _ACTIVE


def pure_backend() -> PurePythonBackend:
    """The always-available pure-Python backend (for parity testing)."""
    return _PURE


def backend_name() -> str:
    """Short name of the active backend: ``"libcrypto"`` or ``"python"``."""
    return _ACTIVE.name


def backend_stats() -> Dict[str, object]:
    """Which arithmetic implementation is serving, and whether it is native.

    Exposed through ``cache_stats()`` on the verifier, publisher-facing
    request handler and demo server.
    """
    return {"backend": _ACTIVE.name, "native": _ACTIVE.native}


@contextlib.contextmanager
def force_backend(backend):
    """Pin the active backend for a ``with`` block — **test use only**.

    The parity suite runs the same signing/verification workload under each
    backend and asserts byte-identical artifacts.  Production code never
    switches backends after import.
    """
    global _ACTIVE
    previous, _ACTIVE = _ACTIVE, backend
    try:
        yield backend
    finally:
        _ACTIVE = previous


def powmod(base: int, exponent: int, modulus: int) -> int:
    """``base ** exponent % modulus`` for public operands."""
    return _ACTIVE.powmod(base, exponent, modulus)


def powmod_secret(base: int, exponent: int, modulus: int) -> int:
    """``base ** exponent % modulus`` in constant time on a private exponent and modulus."""
    return _ACTIVE.powmod_secret(base, exponent, modulus)
