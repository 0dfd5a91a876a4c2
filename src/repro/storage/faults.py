"""Deterministic failpoints for crash and fault testing.

A *failpoint* is a named hook compiled into a hot path (WAL append, update
acknowledgement, socket flush).  In production every hook is a no-op
dictionary miss.  Tests arm a failpoint with an action:

=========  =================================================================
``kill``    ``os._exit(137)`` — the process dies as if SIGKILLed, mid-
            operation, with no atexit/finally cleanup (the honest crash).
``error``   raise a typed :class:`FaultInjected` — exercises error paths
            without losing the process.
``drop``    (socket failpoints) close the peer connection mid-frame.
``stall``   (socket failpoints) stop writing without closing — the peer sees
            a silent half-open stream and must time out.
=========  =================================================================

Arming is explicit and deterministic: by constructor
(:meth:`FaultRegistry.arm`) or by environment —
``REPRO_FAULTS="wal-before-fsync:kill"`` arms one failpoint for the whole
process, ``"update-after-apply:kill@3"`` arms it to fire on the third hit.
A failpoint fires exactly once and then disarms, so a restarted-under-test
server does not crash again at the same spot unless re-armed.

Registered points (see :data:`FAILPOINTS`):

* ``wal-before-fsync`` — the record is fully written but not yet durable.
* ``wal-mid-record``   — half a record is written: the torn-tail case.
* ``update-after-apply`` — the batch applied and is durable, but the owner
  never receives the acknowledgement (tests idempotent resubmission).
* ``conn-mid-frame``   — the server wrote part of a response frame.
* ``checkpoint-before-swap`` — a checkpoint was written but not yet renamed
  into place (recovery must keep using the previous one).
* ``relstore-before-commit`` — an update batch is fully staged in the store
  but the outermost COMMIT has not run (kill-style crash tests: the store
  rolls back to the previous update boundary and the WAL replays the rest).
"""

from __future__ import annotations

import os
import threading
import time
from typing import Dict, Optional, Tuple

from repro.storage.errors import StorageError

__all__ = [
    "FAILPOINTS",
    "FAULT_ACTIONS",
    "FaultInjected",
    "FaultRegistry",
    "fault_registry_from_env",
    "ENV_VAR",
]

#: Environment variable read by :func:`fault_registry_from_env`.
ENV_VAR = "REPRO_FAULTS"

#: Every failpoint compiled into the serving stack.  ``walctl`` and the fault
#: harness iterate this tuple, so adding a hook here is what makes the crash
#: matrix cover it.
FAILPOINTS = (
    "wal-before-fsync",
    "wal-mid-record",
    "update-after-apply",
    "conn-mid-frame",
    "checkpoint-before-swap",
    "relstore-before-commit",
)

FAULT_ACTIONS = ("kill", "error", "drop", "stall")

#: Exit status of a ``kill`` action — the conventional 128+9 of SIGKILL, so
#: harnesses cannot mistake an injected crash for a clean exit.
KILL_EXIT_STATUS = 137

#: How long a ``stall`` action sleeps; long enough that any per-attempt
#: client timeout under test expires first.
STALL_SECONDS = 30.0


class FaultInjected(StorageError):
    """The typed error raised by an ``error``-action failpoint."""

    def __init__(self, point: str) -> None:
        super().__init__(f"fault injected at failpoint {point!r}")
        self.point = point


class FaultRegistry:
    """Armed failpoints of one process; thread-safe, fire-once."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: point -> (action, hits remaining before firing)
        self._armed: Dict[str, Tuple[str, int]] = {}
        #: point -> times the hook was reached (fired or not), for tests.
        self.hits: Dict[str, int] = {}

    def arm(self, point: str, action: str, at_hit: int = 1) -> None:
        """Arm ``point`` to perform ``action`` on its ``at_hit``-th hit."""
        if point not in FAILPOINTS:
            raise ValueError(f"unknown failpoint {point!r}; known: {FAILPOINTS}")
        if action not in FAULT_ACTIONS:
            raise ValueError(f"unknown fault action {action!r}; known: {FAULT_ACTIONS}")
        if at_hit < 1:
            raise ValueError("at_hit counts from 1")
        with self._lock:
            self._armed[point] = (action, at_hit)

    def disarm(self, point: str) -> None:
        with self._lock:
            self._armed.pop(point, None)

    def armed(self) -> Dict[str, Tuple[str, int]]:
        with self._lock:
            return dict(self._armed)

    # -- firing --------------------------------------------------------------

    def _trigger(self, point: str) -> Optional[str]:
        """Count a hit; return the action to perform now, if any."""
        with self._lock:
            self.hits[point] = self.hits.get(point, 0) + 1
            entry = self._armed.get(point)
            if entry is None:
                return None
            action, remaining = entry
            if remaining > 1:
                self._armed[point] = (action, remaining - 1)
                return None
            del self._armed[point]
            return action

    def hit(self, point: str) -> None:
        """The in-line hook: no-op unless armed, then kill/error exactly once.

        ``drop``/``stall`` actions are socket policies and make no sense as a
        blind in-line action; code paths that support them call
        :meth:`socket_action` instead.
        """
        action = self._trigger(point)
        if action is None:
            return
        if action == "kill":
            os._exit(KILL_EXIT_STATUS)
        if action == "error":
            raise FaultInjected(point)
        if action == "stall":
            time.sleep(STALL_SECONDS)
            return
        raise FaultInjected(point)  # "drop" outside a socket path

    def socket_action(self, point: str) -> Optional[str]:
        """The socket-path hook: returns ``drop``/``stall`` for the caller to
        enact on its connection, handles ``kill``/``error`` directly."""
        action = self._trigger(point)
        if action is None:
            return None
        if action == "kill":
            os._exit(KILL_EXIT_STATUS)
        if action == "error":
            raise FaultInjected(point)
        return action


def fault_registry_from_env(environ: Optional[Dict[str, str]] = None) -> Optional[FaultRegistry]:
    """Build a registry from ``REPRO_FAULTS``; None when the variable is unset.

    Syntax: comma-separated ``point:action`` or ``point:action@hit`` terms,
    e.g. ``REPRO_FAULTS="wal-before-fsync:kill,conn-mid-frame:drop@2"``.
    A malformed spec raises immediately — a fault harness that silently arms
    nothing would "pass" every crash test.
    """
    env = os.environ if environ is None else environ
    spec = env.get(ENV_VAR, "").strip()
    if not spec:
        return None
    registry = FaultRegistry()
    for term in spec.split(","):
        term = term.strip()
        if not term:
            continue
        point, _, action = term.partition(":")
        if not action:
            raise ValueError(
                f"malformed {ENV_VAR} term {term!r}; expected point:action[@hit]"
            )
        action, _, hit = action.partition("@")
        registry.arm(point.strip(), action.strip(), int(hit) if hit else 1)
    return registry
