"""The publication server: a non-blocking event loop with pipelined frames.

A :class:`PublicationServer` listens on a TCP socket and serves the framed
protocol of :mod:`repro.service.protocol` from a single ``selectors``-based
event loop.  Connections are **pipelined**: a client may write any number of
request frames back-to-back without waiting for responses, and the server
answers each connection's requests strictly in order — so a client pays the
network round trip once per *batch*, not once per query (see
:meth:`~repro.service.client.VerifyingClient.execute_many`).

Proof construction runs inline on the loop thread — one core, no IPC.  To put
reads on more cores, run one more publisher: a same-host read replica
(:mod:`repro.service.replication`) behind a
:class:`~repro.service.failover.FailoverClient`; see
``examples/replica_scaleout.py``.

Owner mutations (:class:`~repro.wire.updates.UpdateRequest`) are applied
under the shard's write lock: owner-signature verification, all-or-nothing
application and manifest rotation.

Every failure is answered with a typed
:class:`~repro.service.protocol.ErrorResponse`; the server never leaks a
stack trace to the peer and never dies on a malformed request.

Run ``python -m repro.service`` to serve the built-in demo database
(prints ``PORT <n>`` once it is listening; see :mod:`repro.service.demo`).
"""

from __future__ import annotations

import selectors
import socket
import threading
import time
from typing import Dict, Optional, Tuple

from repro.crypto.backend import backend_stats
from repro.service.config import ServerConfig
from repro.service.handler import HandledFrame, RequestHandler
from repro.service.protocol import (
    ErrorResponse,
    MAX_FRAME_BYTES,
    MID_FRAME_STALL_SECONDS,
)
from repro.service.router import ShardRouter
from repro.wire import encode

__all__ = ["PublicationServer"]

_RECV_CHUNK = 256 * 1024


class _Connection:
    """Per-connection event-loop state."""

    __slots__ = (
        "sock",
        "inbuf",
        "outbuf",
        "closing",
        "stalled",
        "last_recv",
        "registered_events",
    )

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.inbuf = bytearray()
        self.outbuf = bytearray()
        #: True once the connection must be torn down after the outbuf drains.
        self.closing = False
        #: True once a "stall" fault froze this connection's writes: the
        #: outbuf is never flushed again and the peer must time out.
        self.stalled = False
        self.last_recv = time.monotonic()
        self.registered_events = 0

    def wants_events(self) -> int:
        events = 0
        if not self.closing:
            events |= selectors.EVENT_READ
        if self.outbuf and not self.stalled:
            events |= selectors.EVENT_WRITE
        return events


class PublicationServer:
    """Serves query answers plus verification objects over TCP.

    Parameters
    ----------
    router:
        The shard router naming every hosted relation.
    config:
        A :class:`~repro.service.config.ServerConfig`: bind address (port 0
        picks a free port; read it back from :attr:`address` after
        :meth:`start`), connection cap (a connection beyond it immediately
        receives a typed ``ErrorResponse(code="ServerBusy")`` — overload,
        never an unexplained hang), the encoded-response cache switch and the
        per-connection pipelining cap.
    storage:
        Optional :class:`~repro.storage.store.PublicationStorage`: accepted
        update batches are write-ahead logged (and fsynced per the storage's
        policy) before they are applied or acknowledged, and :meth:`stop`
        flushes the logs before returning.  The server does not *close* the
        storage — the caller that opened it does.
    faults:
        Optional :class:`~repro.storage.faults.FaultRegistry` for
        deterministic crash/drop/stall injection (testing only).
    """

    def __init__(
        self,
        router: ShardRouter,
        storage=None,
        faults=None,
        config: Optional[ServerConfig] = None,
    ) -> None:
        if config is None:
            config = ServerConfig()
        self.config = config
        self.router = router
        self._requested = (config.host, config.port)
        self._max_connections = config.max_workers
        self._max_pipelined = config.max_pipelined_frames
        self.storage = storage
        self.faults = faults
        self.handler = RequestHandler(
            router,
            response_cache=config.response_cache,
            storage=storage,
            faults=faults,
            read_only=config.read_only,
            serve_replication=config.serve_replication,
        )
        self._listener: Optional[socket.socket] = None
        self._loop_thread: Optional[threading.Thread] = None
        self._stopping = threading.Event()
        self._wake_send: Optional[socket.socket] = None
        # Event-loop state (touched only from the loop thread after start).
        self._selector: Optional[selectors.BaseSelector] = None
        self._connections: Dict[socket.socket, _Connection] = {}
        # Stats (monotonic counters; read by tests and the demo logger).
        self._stats_lock = threading.Lock()
        self.requests_served = 0
        self.errors_answered = 0
        self.connections_refused = 0

    # -- lifecycle ----------------------------------------------------------

    @property
    def updates_applied(self) -> int:
        return self.handler.updates_applied

    @property
    def address(self) -> Tuple[str, int]:
        """The bound (host, port); only meaningful after :meth:`start`."""
        if self._listener is None:
            raise RuntimeError("the server has not been started")
        return self._listener.getsockname()[:2]

    def start(self) -> Tuple[str, int]:
        """Bind, listen and start the event loop."""
        if self._listener is not None:
            raise RuntimeError("the server is already running")
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind(self._requested)
        listener.listen(256)
        listener.setblocking(False)
        self._listener = listener
        self._stopping.clear()
        self._wake_send, wake_recv = socket.socketpair()
        self._wake_send.setblocking(False)
        wake_recv.setblocking(False)
        self._loop_thread = threading.Thread(
            target=self._run_loop, args=(wake_recv,), name="publication-loop", daemon=True
        )
        self._loop_thread.start()
        return self.address

    def request_stop(self) -> None:
        """Ask the event loop to shut down gracefully; returns immediately.

        Safe to call from a signal handler: it only sets an event and writes
        one byte to the wake socketpair.  The loop then drains in-flight
        responses (bounded; see :meth:`_drain_on_stop`) before closing
        connections, and :meth:`stop` flushes the durable storage.
        """
        self._stopping.set()
        if self._wake_send is not None:
            try:
                self._wake_send.send(b"x")
            except OSError:
                pass

    def stop(self) -> None:
        """Stop the loop, drain connections and release the sockets."""
        if self._listener is None:
            return
        self.request_stop()
        if self._loop_thread is not None:
            self._loop_thread.join(timeout=10)
            self._loop_thread = None
        if self.storage is not None:
            # Every acknowledged batch is already on disk under
            # fsync="always"; this flushes whatever a weaker policy buffered.
            self.storage.sync()
        if self._wake_send is not None:
            self._wake_send.close()
            self._wake_send = None
        self._listener.close()
        self._listener = None

    def __enter__(self) -> "PublicationServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def serve_forever(self) -> None:
        """Blocking convenience wrapper: start (if needed) and wait."""
        if self._listener is None:
            self.start()
        try:
            while not self._stopping.wait(0.5):
                pass
        except KeyboardInterrupt:
            pass
        finally:
            self.stop()

    def cache_stats(self) -> Dict[str, object]:
        """Hit/miss/eviction counters of the server-side caches."""
        stats: Dict[str, object] = dict(self.handler.cache_stats())
        shards = {}
        for shard_name, publisher in self.router.shards.items():
            shards[shard_name] = publisher.cache_stats()
        stats["shards"] = shards
        stats["crypto_backend"] = backend_stats()
        return stats

    # -- the event loop -----------------------------------------------------

    def _run_loop(self, wake_recv: socket.socket) -> None:
        selector = selectors.DefaultSelector()
        self._selector = selector
        assert self._listener is not None
        selector.register(self._listener, selectors.EVENT_READ, ("listener", None))
        selector.register(wake_recv, selectors.EVENT_READ, ("wake", None))
        last_sweep = time.monotonic()
        try:
            while not self._stopping.is_set():
                events = selector.select(timeout=0.2)
                for key, mask in events:
                    tag, payload = key.data
                    if tag == "listener":
                        self._accept_ready()
                    elif tag == "wake":
                        try:
                            wake_recv.recv(4096)
                        except OSError:
                            pass
                    else:  # a client connection
                        self._connection_ready(payload, mask)
                now = time.monotonic()
                if now - last_sweep >= 1.0:
                    last_sweep = now
                    self._sweep_stalled(now)
        finally:
            self._drain_on_stop()
            for connection in list(self._connections.values()):
                self._drop_connection(connection)
            selector.close()
            self._selector = None
            wake_recv.close()

    def _drain_on_stop(self, deadline_seconds: float = 1.0) -> None:
        """Best-effort flush of already-computed responses before teardown.

        A graceful shutdown (SIGTERM/``request_stop``) should not cut off a
        response the server already produced: writable outbufs are flushed
        for up to ``deadline_seconds``.
        """
        deadline = time.monotonic() + deadline_seconds
        while time.monotonic() < deadline:
            busy = False
            for connection in list(self._connections.values()):
                if connection.sock not in self._connections or connection.stalled:
                    continue
                self._flush_outbuf(connection)
                if connection.sock in self._connections and connection.outbuf:
                    busy = True
            if not busy:
                return
            time.sleep(0.01)

    # -- accepting ----------------------------------------------------------

    def _accept_ready(self) -> None:
        assert self._listener is not None
        while True:
            try:
                sock, _peer = self._listener.accept()
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                return
            if len(self._connections) >= self._max_connections:
                self._refuse(sock)
                continue
            sock.setblocking(False)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            connection = _Connection(sock)
            self._connections[sock] = connection
            self._reregister(connection)

    def _refuse(self, sock: socket.socket) -> None:
        with self._stats_lock:
            self.connections_refused += 1
            self.errors_answered += 1
        payload = encode(
            ErrorResponse(
                code="ServerBusy",
                reason="overloaded",
                message=(
                    f"all {self._max_connections} connection slots are in use"
                ),
            )
        )
        try:
            sock.send(len(payload).to_bytes(4, "big") + payload)
        except OSError:
            pass
        sock.close()

    # -- connection I/O ------------------------------------------------------

    def _reregister(self, connection: _Connection) -> None:
        assert self._selector is not None
        wanted = connection.wants_events()
        if wanted == connection.registered_events:
            return
        if connection.registered_events == 0:
            if wanted:
                self._selector.register(connection.sock, wanted, ("conn", connection))
        elif wanted == 0:
            self._selector.unregister(connection.sock)
        else:
            self._selector.modify(connection.sock, wanted, ("conn", connection))
        connection.registered_events = wanted

    def _connection_ready(self, connection: _Connection, mask: int) -> None:
        if mask & selectors.EVENT_WRITE:
            self._flush_outbuf(connection)
        if mask & selectors.EVENT_READ and not connection.closing:
            self._read_ready(connection)
        if connection.sock in self._connections:
            if connection.closing and not connection.outbuf:
                self._drop_connection(connection)
            else:
                self._reregister(connection)

    def _read_ready(self, connection: _Connection) -> None:
        try:
            chunk = connection.sock.recv(_RECV_CHUNK)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self._drop_connection(connection)
            return
        if not chunk:
            # Clean or abrupt EOF.  Any responses still buffered are moot —
            # the peer is no longer reading.
            self._drop_connection(connection)
            return
        connection.last_recv = time.monotonic()
        connection.inbuf += chunk
        self._parse_frames(connection)

    def _parse_frames(self, connection: _Connection) -> None:
        inbuf = connection.inbuf
        offset = 0
        total = len(inbuf)
        unflushed = 0
        while not connection.closing:
            if total - offset < 4:
                break
            length = int.from_bytes(inbuf[offset : offset + 4], "big")
            if length > MAX_FRAME_BYTES:
                self._respond(
                    connection,
                    self._framing_error(
                        f"announced frame of {length} bytes exceeds the cap"
                    ),
                )
                break
            if total - offset - 4 < length:
                break
            with memoryview(inbuf) as view:
                frame = bytes(view[offset + 4 : offset + 4 + length])
            offset += 4 + length
            self._respond(connection, self.handler.handle_frame(frame))
            unflushed += 1
            if unflushed >= self._max_pipelined:
                unflushed = 0
                self._flush_outbuf(connection)
                if connection.sock not in self._connections:
                    return  # the peer went away mid-pipeline
        if offset:
            del inbuf[:offset]
        if connection.outbuf:
            self._flush_outbuf(connection)

    def _framing_error(self, message: str) -> HandledFrame:
        payload = encode(
            ErrorResponse(
                code="ServiceProtocolError", reason="framing", message=message
            )
        )
        return HandledFrame(payload, is_error=True, close_after=True)

    def _respond(self, connection: _Connection, handled: HandledFrame) -> None:
        """Queue one response, in request order, behind the earlier ones."""
        connection.outbuf += len(handled.payload).to_bytes(4, "big")
        connection.outbuf += handled.payload
        if handled.close_after:
            connection.closing = True
        with self._stats_lock:
            if handled.is_error:
                self.errors_answered += 1
            else:
                self.requests_served += 1

    def _flush_outbuf(self, connection: _Connection) -> None:
        if connection.stalled:
            return
        outbuf = connection.outbuf
        faults = self.faults
        if faults is not None and outbuf and "conn-mid-frame" in faults.armed():
            action = faults.socket_action("conn-mid-frame")
            if action is not None:
                # Deliver roughly half of what is buffered — cutting a
                # response frame in the middle — then drop or freeze the
                # connection so clients exercise their torn-read/timeout
                # handling.
                half = max(1, len(outbuf) // 2)
                try:
                    sent = connection.sock.send(outbuf[:half])
                    del outbuf[:sent]
                except OSError:
                    pass
                if action == "drop":
                    self._drop_connection(connection)
                else:
                    connection.stalled = True
                    self._reregister(connection)
                return
        try:
            while outbuf:
                sent = connection.sock.send(outbuf)
                del outbuf[:sent]
        except (BlockingIOError, InterruptedError):
            pass
        except OSError:
            self._drop_connection(connection)
            return
        if connection.closing and not outbuf:
            self._drop_connection(connection)

    def _drop_connection(self, connection: _Connection) -> None:
        if self._connections.pop(connection.sock, None) is None:
            return
        if connection.registered_events and self._selector is not None:
            try:
                self._selector.unregister(connection.sock)
            except KeyError:
                pass
        connection.registered_events = 0
        connection.sock.close()

    def _sweep_stalled(self, now: float) -> None:
        for connection in list(self._connections.values()):
            # Only a frame cut off in the middle is bounded here (see
            # protocol.MID_FRAME_STALL_SECONDS): whole frames are answered as
            # they are parsed, so bytes left in inbuf are a partial frame.
            if connection.inbuf and now - connection.last_recv > MID_FRAME_STALL_SECONDS:
                self._drop_connection(connection)


def _main(argv=None) -> int:
    """Serve the built-in demo database (for examples and integration tests)."""
    import argparse
    import json
    import signal
    import sys

    from repro.service.config import StorageConfig
    from repro.service.demo import build_demo_router
    from repro.storage import (
        FSYNC_POLICIES,
        fault_registry_from_env,
        open_publication_storage,
    )

    defaults = ServerConfig()
    parser = argparse.ArgumentParser(description=_main.__doc__)
    parser.add_argument("--host", default=defaults.host)
    parser.add_argument("--port", type=int, default=defaults.port)
    parser.add_argument("--key-bits", type=int, default=512)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--max-workers", type=int, default=defaults.max_workers)
    parser.add_argument(
        "--no-response-cache",
        action="store_true",
        help="disable the encoded-response cache",
    )
    parser.add_argument(
        "--storage-dir",
        default=None,
        help=(
            "durable publication root: bootstrap the demo database into it on "
            "first run, recover from its relation store + write-ahead logs "
            "on every later run"
        ),
    )
    parser.add_argument(
        "--fsync",
        choices=FSYNC_POLICIES,
        default="always",
        help="WAL fsync policy (only meaningful with --storage-dir)",
    )
    parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=0,
        help="checkpoint+compact a relation's WAL every N logged updates (0 = never)",
    )
    parser.add_argument(
        "--replicate-from",
        default=None,
        metavar="HOST:PORT",
        help=(
            "run as a read-only replica of the primary at HOST:PORT: bootstrap "
            "--storage-dir from its snapshot when empty, then continuously "
            "apply its owner-signed WAL frames (requires --storage-dir; a "
            "fresh bootstrap also requires --keys-from)"
        ),
    )
    parser.add_argument(
        "--keys-from",
        default=None,
        metavar="PATH",
        help=(
            "trusted local storage root whose per-shard signing keys "
            "(shards/*/keys.json) are installed into a freshly bootstrapped "
            "replica; keys are never fetched over the replication channel"
        ),
    )
    parser.add_argument(
        "--serve-replication",
        action="store_true",
        help=(
            "serve the replication feed (WAL frames + storage snapshots) to "
            "replicas; off by default because the feed bypasses per-query "
            "controls — enable it on primaries only"
        ),
    )
    parser.add_argument(
        "--poll-interval",
        type=float,
        default=0.05,
        help="replication poll interval in seconds (with --replicate-from)",
    )
    args = parser.parse_args(argv)

    primary = None
    if args.replicate_from is not None:
        if args.storage_dir is None:
            parser.error("--replicate-from requires --storage-dir")
        host_text, _, port_text = args.replicate_from.rpartition(":")
        try:
            primary = (host_text, int(port_text))
        except ValueError:
            parser.error("--replicate-from must be HOST:PORT")
        from repro.service.replication import (
            ReplicationFollower,
            bootstrap_replica_root,
        )

        bootstrap_replica_root(
            primary[0], primary[1], args.storage_dir, keys_from=args.keys_from
        )

    faults = fault_registry_from_env()
    storage = None
    if args.storage_dir is not None:
        storage_config = StorageConfig(
            root=args.storage_dir,
            fsync=args.fsync,
            checkpoint_every=args.checkpoint_every,
        )
        router, storage = open_publication_storage(
            args.storage_dir,
            lambda: build_demo_router(key_bits=args.key_bits, seed=args.seed),
            faults=faults,
            config=storage_config,
        )
    else:
        router = build_demo_router(key_bits=args.key_bits, seed=args.seed)
    server = PublicationServer(
        router,
        storage=storage,
        faults=faults,
        config=ServerConfig(
            host=args.host,
            port=args.port,
            max_workers=args.max_workers,
            response_cache=not args.no_response_cache,
            read_only=primary is not None,
            serve_replication=args.serve_replication,
        ),
    )

    def _graceful(signum, frame):  # noqa: ARG001 - signal handler signature
        server.request_stop()

    signal.signal(signal.SIGTERM, _graceful)
    signal.signal(signal.SIGINT, _graceful)
    host, port = server.start()
    print(f"PORT {port}", flush=True)
    print(
        "RELATIONS " + ",".join(name for name, _ in router.listing()),
        flush=True,
    )
    if storage is not None:
        print(f"STORAGE {storage.origin}", flush=True)
    follower = None
    if primary is not None:
        follower = ReplicationFollower(
            server, primary[0], primary[1], poll_interval=args.poll_interval
        ).start()
        print(f"REPLICATING {primary[0]}:{primary[1]}", flush=True)
    try:
        server.serve_forever()
    finally:
        if follower is not None:
            follower.stop()
        if storage is not None:
            storage.close()
        # Long-running-server observability: one cache-stats line on the way
        # out, so operators can see hit rates and confirm the bounds held.
        print(
            "CACHE_STATS " + json.dumps(server.cache_stats(), default=str),
            file=sys.stderr,
            flush=True,
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(_main())
