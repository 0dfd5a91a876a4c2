"""Runtime-selected big-integer arithmetic backend.

Every modular exponentiation in the library — CRT signing, signature
verification, condensed-RSA aggregation, batch screening — goes through this
module, which selects one of two interchangeable implementations at import:

* :class:`PurePythonBackend` — CPython's built-in ``pow``; always available,
  no dependencies, semantics unchanged from the seed.
* :class:`Gmpy2Backend` — `gmpy2 <https://gmpy2.readthedocs.io/>`_ ``mpz``
  arithmetic (GMP under the hood), selected automatically when ``gmpy2``
  imports cleanly.  GMP's modexp is typically 5-20x faster than CPython's at
  the 512-1024 bit modulus sizes the paper's ``Msign`` parameter uses.

Selection is controlled by the ``REPRO_NATIVE`` environment variable:
``REPRO_NATIVE=0`` (or ``false``/``no``/``off``) forces the pure-Python
backend even when gmpy2 is installed; any other value (or the variable being
unset) uses gmpy2 when importable.  A broken or absent gmpy2 silently falls
back to pure Python — the chosen backend is logged once at import on the
``repro.crypto`` logger and reported by :func:`backend_stats` (surfaced
through ``cache_stats()`` / the demo server's ``CACHE_STATS`` line).

**The contract: every result is byte-identical across backends.**  Both
implementations compute the same mathematical functions over Python ``int``
inputs and return Python ``int`` results; gmpy2 is an *arithmetic* substitute
only.  The cross-backend parity suite (``tests/test_native_parity.py``)
property-tests this, and the golden wire vectors hold both backends to the
same frames.

Per-key amortisation
--------------------

Verifying clients check thousands of signatures under the *same* pinned owner
key.  :func:`key_context` returns a bounded-cached
:class:`VerifyKeyContext` per ``(modulus, exponent)`` pair holding everything
that is constant across those verifications: the backend-native operands
(``mpz(n)``, ``mpz(e)`` under gmpy2 — the int->mpz conversion of the modulus
is paid once per key, not per answer).

The context cache is FIFO-bounded (:data:`_KEY_CONTEXT_MAX` keys) so a client
that talks to many publishers cannot grow it without bound.
"""

from __future__ import annotations

import logging
import os
import threading
from typing import Dict, Tuple

__all__ = [
    "PurePythonBackend",
    "Gmpy2Backend",
    "VerifyKeyContext",
    "active_backend",
    "pure_backend",
    "backend_name",
    "backend_stats",
    "force_backend",
    "use_backend",
    "powmod",
    "key_context",
]

logger = logging.getLogger("repro.crypto")

#: Values of ``REPRO_NATIVE`` that force the pure-Python backend.
_DISABLE_VALUES = frozenset({"0", "false", "no", "off"})

#: Bound on the module-level (modulus, exponent) -> VerifyKeyContext cache.
_KEY_CONTEXT_MAX = 64

class PurePythonBackend:
    """Standard-library arithmetic: CPython ``int`` and builtin ``pow``."""

    name = "python"
    native = False

    @staticmethod
    def wrap(value: int) -> int:
        """Convert an int to the backend's working representation (identity)."""
        return value

    @staticmethod
    def powmod(base: int, exponent: int, modulus: int) -> int:
        return pow(base, exponent, modulus)

    @staticmethod
    def powmod_wrapped(base: int, exponent, modulus) -> int:
        """``powmod`` against operands already passed through :meth:`wrap`."""
        return pow(base, exponent, modulus)


class Gmpy2Backend:
    """gmpy2-accelerated arithmetic over GMP ``mpz`` integers."""

    name = "gmpy2"
    native = True

    def __init__(self, module) -> None:
        self._gmpy2 = module
        self.wrap = module.mpz
        self._powmod = module.powmod

    def powmod(self, base: int, exponent: int, modulus: int) -> int:
        return int(self._powmod(base, exponent, modulus))

    def powmod_wrapped(self, base, exponent, modulus) -> int:
        """``powmod`` against pre-wrapped ``mpz`` exponent/modulus operands."""
        return int(self._powmod(base, exponent, modulus))


def _select_backend():
    """Pick the arithmetic backend once, at import.

    gmpy2 is probed with a known-answer modexp before being trusted: an
    importable-but-broken build (ABI mismatch, truncated wheel) downgrades to
    pure Python instead of corrupting every signature in the process.
    """
    forced = os.environ.get("REPRO_NATIVE", "").strip().lower()
    if forced in _DISABLE_VALUES:
        logger.info("crypto backend: python (REPRO_NATIVE=%s)", forced or "0")
        return PurePythonBackend()
    try:
        import gmpy2  # noqa: PLC0415 - optional dependency, guarded import

        probe = int(gmpy2.powmod(0xB0B, 0x10001, (1 << 127) - 1))
        if probe != pow(0xB0B, 0x10001, (1 << 127) - 1):
            raise RuntimeError("gmpy2.powmod disagrees with builtin pow")
        backend = Gmpy2Backend(gmpy2)
        logger.info("crypto backend: gmpy2 (gmpy2 %s)", gmpy2.version())
        return backend
    except Exception as error:  # pragma: no cover - depends on environment
        logger.info("crypto backend: python (gmpy2 unavailable: %s)", error)
        return PurePythonBackend()


_PURE = PurePythonBackend()
_ACTIVE = _select_backend()

_CONTEXT_LOCK = threading.Lock()
_KEY_CONTEXTS: Dict[Tuple[int, int, str], "VerifyKeyContext"] = {}


def active_backend():
    """The backend every crypto hot path currently dispatches through."""
    return _ACTIVE


def pure_backend() -> PurePythonBackend:
    """The always-available pure-Python backend (for parity testing)."""
    return _PURE


def backend_name() -> str:
    """Short name of the active backend: ``"gmpy2"`` or ``"python"``."""
    return _ACTIVE.name


def backend_stats() -> Dict[str, object]:
    """Active-backend identity plus key-context cache occupancy.

    Exposed through ``cache_stats()`` on the verifier, publisher-facing
    request handler and demo server, so a deployment can confirm at a glance
    which arithmetic implementation is actually serving.
    """
    return {
        "backend": _ACTIVE.name,
        "native": _ACTIVE.native,
        "key_contexts": len(_KEY_CONTEXTS),
        "key_context_capacity": _KEY_CONTEXT_MAX,
    }


def use_backend(backend) -> None:
    """Swap the active backend (test hook; see :func:`force_backend`)."""
    global _ACTIVE
    _ACTIVE = backend
    with _CONTEXT_LOCK:
        _KEY_CONTEXTS.clear()


class force_backend:
    """Context manager pinning the active backend — **test use only**.

    The parity suite runs the same signing/verification workload under each
    backend and asserts byte-identical artifacts.  Production code never
    switches backends after import.
    """

    def __init__(self, backend) -> None:
        self._backend = backend
        self._previous = None

    def __enter__(self):
        self._previous = _ACTIVE
        use_backend(self._backend)
        return self._backend

    def __exit__(self, *exc_info) -> None:
        use_backend(self._previous)


def powmod(base: int, exponent: int, modulus: int) -> int:
    """``base ** exponent % modulus`` through the active backend."""
    return _ACTIVE.powmod(base, exponent, modulus)


class VerifyKeyContext:
    """Per-key verification state: the backend-wrapped operands.

    One context exists per pinned ``(modulus, exponent)`` pair (see
    :func:`key_context`); ``pow_verify`` is the amortised
    ``signature ** e mod n`` every chain/aggregate/batch verification runs.
    """

    __slots__ = (
        "modulus",
        "exponent",
        "backend",
        "_wrapped_exponent",
        "_wrapped_modulus",
        "verifications",
    )

    def __init__(self, modulus: int, exponent: int, backend) -> None:
        self.modulus = modulus
        self.exponent = exponent
        self.backend = backend
        self._wrapped_exponent = backend.wrap(exponent)
        self._wrapped_modulus = backend.wrap(modulus)
        self.verifications = 0

    def pow_verify(self, value: int) -> int:
        """``value ** e mod n`` with every per-key constant precomputed."""
        self.verifications += 1
        return self.backend.powmod_wrapped(
            value, self._wrapped_exponent, self._wrapped_modulus
        )


def key_context(modulus: int, exponent: int) -> VerifyKeyContext:
    """The bounded-cached :class:`VerifyKeyContext` for a public key.

    Lazily creates (and FIFO-bounds) one context per distinct key seen by
    this process, keyed on the *active* backend so a test-forced backend swap
    never serves stale wrapped operands.
    """
    backend = _ACTIVE
    cache_key = (modulus, exponent, backend.name)
    context = _KEY_CONTEXTS.get(cache_key)
    if context is not None:
        return context
    with _CONTEXT_LOCK:
        context = _KEY_CONTEXTS.get(cache_key)
        if context is None:
            if len(_KEY_CONTEXTS) >= _KEY_CONTEXT_MAX:
                _KEY_CONTEXTS.pop(next(iter(_KEY_CONTEXTS)))
            context = VerifyKeyContext(modulus, exponent, backend)
            _KEY_CONTEXTS[cache_key] = context
    return context
