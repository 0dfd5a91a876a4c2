"""Span tracing installed from outside, on the public callables of each layer.

A :class:`Tracer` replaces named functions and methods with wrappers that
record one span per call -- (id, parent, frame, op, layer, start, end,
size) -- in a list in memory, and puts the originals back on
:meth:`Tracer.uninstall`.  Nothing under ``src/`` knows about it.

*frame* is the index of the wire frame a span belongs to, counted from
:meth:`Tracer.reset` on both sides of the connection: the client counts
frames as it sends them, the server as it handles them, and because the
benchmark drives one closed-loop client the n-th frame sent is the n-th
frame handled.  *op* is ``[index, class]`` of the benchmark operation (a
point read, a range read or an update) the client was executing, None
outside one and on the server; one op can take several frames when it
chases a manifest rotation.  Both sides read ``time.perf_counter``
(CLOCK_MONOTONIC on Linux, shared by all processes of the box).

Each traced stretch of a run is one *dump*: both sides reset when it starts
and append their spans to their JSONL file when it ends, so the k-th dump
of the client file and the k-th of the server file cover the same frames.
Span ids, parents and frames are relative to their dump.

A layer's self time is its span's duration minus its direct children's.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from time import perf_counter

ID, PARENT, FRAME, OP, LAYER, START, END, SIZE = range(8)
FIELDS = ("id", "parent", "frame", "op", "layer", "start", "end", "size")


class Tracer:
    def __init__(self) -> None:
        self.spans = []
        self.frame = -1
        self.op = None
        self._stack = []
        self._patches = []
        self._transaction_depth = 0

    def reset(self) -> None:
        """Forget recorded spans and restart the frame count."""
        self.spans = []
        self.frame = -1

    # -- recording ---------------------------------------------------------

    def _open(self, layer, size=None):
        span = [
            len(self.spans),
            self._stack[-1] if self._stack else -1,
            self.frame,
            self.op,
            layer,
            0.0,
            0.0,
            size,
        ]
        self.spans.append(span)
        self._stack.append(span[ID])
        span[START] = perf_counter()
        return span

    def _close(self, span) -> None:
        span[END] = perf_counter()
        self._stack.pop()

    def wrap(self, owner, name, layer, new_frame=False, size_of=None) -> None:
        """Record a span of ``layer`` around every call of ``owner.name``.

        ``new_frame`` marks the call that starts a wire frame; ``size_of``
        maps the call's positional arguments to a number kept on the span
        (bytes appended, signatures made).
        """
        original = getattr(owner, name)

        def traced(*args, **kwargs):
            if new_frame:
                self.frame += 1
            span = self._open(layer, size_of(args) if size_of else None)
            try:
                return original(*args, **kwargs)
            finally:
                self._close(span)

        traced.__name__ = getattr(original, "__name__", name)
        self._patches.append((owner, name, original))
        setattr(owner, name, traced)

    def wrap_commit(self, owner, name, layer) -> None:
        """Record the exit of the outermost ``owner.name()`` context manager.

        For a nesting transaction scope, where only the outermost exit
        commits: the span covers that commit and none of the work inside
        the scope.
        """
        original = getattr(owner, name)
        tracer = self

        class Scope:
            def __init__(self, inner) -> None:
                self.inner = inner

            def __enter__(self):
                result = self.inner.__enter__()
                tracer._transaction_depth += 1
                return result

            def __exit__(self, *exc_info):
                tracer._transaction_depth -= 1
                if tracer._transaction_depth:
                    return self.inner.__exit__(*exc_info)
                span = tracer._open(layer)
                try:
                    return self.inner.__exit__(*exc_info)
                finally:
                    tracer._close(span)

        def traced(*args, **kwargs):
            return Scope(original(*args, **kwargs))

        self._patches.append((owner, name, original))
        setattr(owner, name, traced)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def dump(self, path: str) -> None:
        """Append the recorded spans to ``path``, one JSON object per line."""
        with open(path, "a", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(FIELDS, span))) + "\n")


def load_dumps(path: str) -> list:
    """The dumps of a span log, each a list of spans."""
    dumps = []
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                record = json.loads(line)
                span = [record[field] for field in FIELDS]
                if span[ID] == 0:
                    dumps.append([])
                dumps[-1].append(span)
    return dumps


# -- where the spans go ----------------------------------------------------


def install_client_hooks(tracer: Tracer) -> None:
    import repro.core.verifier as verifier
    import repro.crypto.aggregate as aggregate
    import repro.crypto.rsa as rsa
    import repro.service.client as client
    import repro.service.owner as owner
    import repro.service.protocol as protocol

    tracer.wrap(client.VerifyingClient, "execute", "service.client")
    tracer.wrap(client.VerifyingClient, "refresh_rotated_manifest", "service.client.refresh")
    tracer.wrap(owner.OwnerClient, "push", "service.owner.validate")
    tracer.wrap(owner, "build_update_request", "service.owner.sign")
    # Both connections send through client.send_message; its self time is
    # the sendall, which on a two-core box lasts until the server -- woken on
    # the sender's core -- has handled the frame.  The rest of the wait is
    # in recv_frame.  send_message and recv_message resolve encode_frame,
    # recv_frame and decode through protocol's globals.
    tracer.wrap(client, "send_message", "service.transport", new_frame=True)
    tracer.wrap(protocol, "encode_frame", "wire.encode_request")
    tracer.wrap(protocol, "recv_frame", "service.transport")
    tracer.wrap(protocol, "decode", "wire.decode_response")
    tracer.wrap(verifier.ResultVerifier, "verify", "core.verifier")
    for module, name in (
        (verifier, "verify_aggregate"),
        (verifier, "batch_verify_signatures"),
        (rsa.RSAPublicKey, "verify"),
    ):
        tracer.wrap(module, name, "crypto.modexp")
    for module in (aggregate, rsa):
        tracer.wrap(module, "full_domain_hash", "crypto.fdh")
        tracer.wrap(module, "full_domain_hash_many", "crypto.fdh")
    _wrap_signing(tracer)


def install_server_hooks(tracer: Tracer) -> None:
    import repro.core.relational as relational
    import repro.service.handler as handler
    import repro.storage.recovery as recovery
    import repro.storage.store as store
    from repro.core.publisher import Publisher
    from repro.storage.relstore import RelationStore
    from repro.storage.wal import WriteAheadLog

    tracer.wrap(handler.RequestHandler, "handle_frame", "service.handler", new_frame=True)
    tracer.wrap(handler, "decode", "wire.decode_request")
    tracer.wrap(handler, "encode", "wire.encode_response")
    tracer.wrap(Publisher, "answer", "core.publisher.answer")
    tracer.wrap(Publisher, "apply_deltas", "core.publisher.apply")
    for name in dir(RelationStore):
        if name.startswith("load_"):
            tracer.wrap(RelationStore, name, "storage.relstore.read")
    tracer.wrap_commit(RelationStore, "transaction", "storage.relstore.commit")
    tracer.wrap(
        WriteAheadLog, "append", "storage.wal.append", size_of=lambda args: len(args[1])
    )
    # The log's fsync; sqlite's own are made in C and stay inside the commit.
    tracer.wrap(os, "fsync", "storage.wal.fsync")
    _wrap_signing(tracer)
    # The publish path a fresh root takes inside open_publication_storage.
    tracer.wrap(relational.SignedRelation, "__init__", "core.relational.digest")
    tracer.wrap(store, "dump_publication", "storage.relstore.dump")
    tracer.wrap(store, "write_checkpoint", "storage.checkpoint.write")
    tracer.wrap(recovery, "recover_router", "storage.recover")


def _wrap_signing(tracer: Tracer) -> None:
    from repro.crypto.signature import SignatureScheme

    # size = signatures made by the call
    tracer.wrap(SignatureScheme, "sign", "crypto.sign", size_of=lambda args: 1)
    tracer.wrap(SignatureScheme, "sign_batch", "crypto.sign", size_of=lambda args: len(args[1]))


# -- reading the spans -----------------------------------------------------


def self_times(spans) -> list:
    """Per span: its duration minus the durations of its direct children."""
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            own[span[PARENT]] -= span[END] - span[START]
    return own


def check_nesting(spans) -> None:
    """Raise unless every span of a dump lies inside its parent."""
    for span in spans:
        if span[END] < span[START]:
            raise ValueError(f"span {span[ID]} ends before it starts")
        if span[PARENT] < 0:
            continue
        parent = spans[span[PARENT]]
        if not (parent[START] <= span[START] and span[END] <= parent[END]):
            raise ValueError(f"span {span[ID]} is not inside its parent {parent[ID]}")


def stage_table(client_dumps, server_dumps) -> dict:
    """Sum self time per (op class, layer) over both processes.

    Server spans are assigned to the op whose frame they served; the part of
    the client's socket wait the server did not spend handling the frame
    stays with ``service.transport``.  Returns one :func:`empty_row` per
    class.
    """
    table = defaultdict(empty_row)

    def add(row, span, own) -> None:
        row["layers"][span[LAYER]] += own
        row["calls"][span[LAYER]] += 1
        row["sizes"][span[LAYER]] += span[SIZE] or 0

    for client_spans, server_spans in zip(client_dumps, server_dumps):
        frame_class = {}
        for span, own in zip(client_spans, self_times(client_spans)):
            if span[OP] is None:
                continue
            row = table[span[OP][1]]
            add(row, span, own)
            if span[PARENT] < 0:
                row["ops"] += 1
                row["total_s"] += span[END] - span[START]
            if span[LAYER] == "service.transport":
                frame_class[span[FRAME]] = span[OP][1]
        for span, own in zip(server_spans, self_times(server_spans)):
            if span[FRAME] not in frame_class:
                continue
            row = table[frame_class[span[FRAME]]]
            add(row, span, own)
            if span[PARENT] < 0:
                row["server_s"] += span[END] - span[START]
                row["layers"]["service.transport"] -= span[END] - span[START]
    return table


def empty_row() -> dict:
    """ops, their summed duration, the server's share of it, and per layer:
    self seconds, calls, and summed span sizes."""
    return {
        "ops": 0,
        "total_s": 0.0,
        "server_s": 0.0,
        "layers": defaultdict(float),
        "calls": defaultdict(int),
        "sizes": defaultdict(int),
    }


def merge_rows(rows) -> dict:
    merged = empty_row()
    for row in rows:
        for field in ("ops", "total_s", "server_s"):
            merged[field] += row[field]
        for field in ("layers", "calls", "sizes"):
            for layer, value in row[field].items():
                merged[field][layer] += value
    return merged
