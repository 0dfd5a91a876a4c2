"""Stateful (Hypothesis) harness for the live-update pipeline.

A :class:`~hypothesis.stateful.RuleBasedStateMachine` drives a random
interleaving of inserts, deletes, updates and queries against a *live*
:class:`~repro.service.server.PublicationServer`, with a shadow in-memory
model alongside.  Invariants checked on every step:

* every verified answer equals the shadow model's answer **at the manifest
  version the client held** (the :attr:`VerifiedResult.manifest_sequence` the
  client reports must be the version whose rows it returned);
* the client's pinned manifest follows rotations only through the
  authenticated refresh path (key continuity + rotation signature + strictly
  increasing sequence);
* rejected mutations (duplicate inserts, deletes of absent records) are typed
  errors and leave both the server and the model untouched;
* a replay adversary (an in-path proxy serving captured pre-rotation answers
  re-stamped to the current manifest id) is always refused by the
  freshness-enforcing client with a typed :class:`StaleAnswerError`, while
  the genuine attested path keeps serving.

The machine talks to the server over real sockets; nothing reaches into
publisher state except the final owner-side self-check.
"""

import socket
import threading
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

pytestmark = pytest.mark.concurrency

from repro.core.owner import DataOwner
from repro.core.publisher import Publisher
from repro.crypto.signature import rsa_scheme
from repro.db.query import Conjunction, Query, RangeCondition
from repro.db.relation import Relation
from repro.db.schema import Attribute, AttributeType, KeyDomain, Schema
from repro.service import (
    FreshnessPolicy,
    OwnerClient,
    PublicationServer,
    QuerySpec,
    RecordDelta,
    RemoteError,
    ServerConfig,
    ShardRouter,
    StaleAnswerError,
    VerifyingClient,
)
from repro.service.protocol import QueryRequest, QueryResponse, recv_frame, send_message
from repro.wire import decode, encode, manifest_id

#: One shared key pair for every machine instance: RSA generation dominates
#: run time and exercises no additional update-pipeline code.
_SCHEME = rsa_scheme(bits=512)

_DOMAIN = KeyDomain(0, 1024)

_SCHEMA = Schema.build(
    "items",
    [
        Attribute("k", AttributeType.INTEGER, _DOMAIN),
        Attribute("label", AttributeType.STRING, size_hint=8),
    ],
    key="k",
)

_KEYS = st.integers(min_value=1, max_value=1023)
_LABELS = st.text(alphabet="abcdef", min_size=1, max_size=4)


def _row(key: int, label: str):
    return {"k": key, "label": label}


_FULL_RANGE = Query("items", Conjunction((RangeCondition("k", 1, 1023),)))


def _read_exact(sock, count):
    chunks = []
    while count:
        chunk = sock.recv(count)
        if not chunk:
            return None
        chunks.append(chunk)
        count -= len(chunk)
    return b"".join(chunks)


def _read_frame(sock):
    header = _read_exact(sock, 4)
    if header is None:
        return None
    return _read_exact(sock, int.from_bytes(header, "big"))


class _ReplayAdversary(threading.Thread):
    """An in-path proxy: transparent normally, but while ``stale_frame`` is
    set it substitutes that captured answer for every query response."""

    def __init__(self, upstream):
        super().__init__(daemon=True)
        self.upstream = upstream
        self.stale_frame = None
        self.listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self.listener.bind(("127.0.0.1", 0))
        self.listener.listen(8)
        self.listener.settimeout(0.2)
        self.address = self.listener.getsockname()
        self._stopping = threading.Event()

    def run(self):
        while not self._stopping.is_set():
            try:
                conn, _ = self.listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            try:
                with conn, socket.create_connection(
                    self.upstream, timeout=10
                ) as up:
                    while True:
                        frame = _read_frame(conn)
                        if frame is None:
                            break
                        up.sendall(len(frame).to_bytes(4, "big") + frame)
                        reply = _read_frame(up)
                        if reply is None:
                            break
                        stale = self.stale_frame
                        if stale is not None and isinstance(
                            decode(reply), QueryResponse
                        ):
                            reply = stale
                        conn.sendall(len(reply).to_bytes(4, "big") + reply)
            except OSError:
                continue

    def stop(self):
        self._stopping.set()
        self.join(timeout=5)
        self.listener.close()


class LiveUpdateMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.server = None
        self.owner_client = None
        self.client = None
        self.fresh_client = None
        self.adversary = None
        self.captured = []

    @initialize(
        seed_rows=st.lists(
            st.tuples(_KEYS, _LABELS), min_size=0, max_size=6, unique_by=lambda t: t
        )
    )
    def start_world(self, seed_rows):
        owner = DataOwner(signature_scheme=_SCHEME)
        relation = Relation.from_rows(
            _SCHEMA, [_row(k, label) for k, label in seed_rows]
        )
        database = owner.publish_database({"items": relation})
        router = ShardRouter({"shard": Publisher(database.relations)})
        self.server = PublicationServer(router, config=ServerConfig(max_workers=4))
        host, port = self.server.start()
        self.owner_client = OwnerClient(host, port, _SCHEME)
        # The genesis manifest arrives through the "authenticated channel":
        # rotations must chain from it via the trust-root policy.
        self.client = VerifyingClient(
            host, port, trusted_manifests=dict(database.manifests)
        )
        # The replay adversary sits between the freshness-enforcing client
        # and the server; the owner attests once, rotations re-stamp.
        self.owner_client.attest("items", lifetime=3600.0)
        self.adversary = _ReplayAdversary((host, port))
        self.adversary.start()
        self.fresh_client = VerifyingClient(
            self.adversary.address[0],
            self.adversary.address[1],
            trusted_manifests=dict(database.manifests),
            freshness=FreshnessPolicy(max_staleness=3600.0),
        )
        #: Captured (version, raw answer frame) pairs for later replay.
        self.captured = []
        # Shadow model: multiset of (key, label) rows, plus the data version.
        self.model = Counter((k, label) for k, label in seed_rows)
        self.version = 0

    def teardown(self):
        if self.owner_client is not None:
            self.owner_client.close()
        if self.client is not None:
            self.client.close()
        if getattr(self, "fresh_client", None) is not None:
            self.fresh_client.close()
        if getattr(self, "adversary", None) is not None:
            self.adversary.stop()
        if self.server is not None:
            self.server.stop()

    # -- helpers -------------------------------------------------------------

    def _model_rows(self, low, high):
        # Rows are compared sorted by (key, label): the chain fixes the key
        # order, but the order *among* records sharing a key is an
        # implementation detail (inserts land before existing equal keys),
        # which the model must not over-specify.
        expanded = [
            {"k": k, "label": label}
            for (k, label), copies in self.model.items()
            for _ in range(copies)
        ]
        return sorted(
            (row for row in expanded if low <= row["k"] <= high),
            key=lambda row: (row["k"], row["label"]),
        )

    # -- mutations -----------------------------------------------------------

    @precondition(lambda self: self.server is not None)
    @rule(key=_KEYS, label=_LABELS)
    def insert(self, key, label):
        if self.model[(key, label)]:
            # Exact duplicate: must be refused, atomically.
            with pytest.raises(RemoteError) as excinfo:
                self.owner_client.insert("items", _row(key, label))
            assert excinfo.value.code == "UpdateApplicationError"
            return
        receipt = self.owner_client.insert("items", _row(key, label))
        assert receipt.digests_recomputed == 1
        self.model[(key, label)] += 1
        self.version += 1

    @precondition(lambda self: self.server is not None)
    @rule(data=st.data())
    def delete(self, data):
        if not self.model:
            return
        key, label = data.draw(
            st.sampled_from(sorted(self.model)), label="victim"
        )
        receipt = self.owner_client.delete("items", _row(key, label))
        assert receipt.digests_recomputed == 0
        self.model[(key, label)] -= 1
        if not self.model[(key, label)]:
            del self.model[(key, label)]
        self.version += 1

    @precondition(lambda self: self.server is not None)
    @rule(data=st.data(), new_key=_KEYS, new_label=_LABELS)
    def update(self, data, new_key, new_label):
        if not self.model:
            return
        old_key, old_label = data.draw(
            st.sampled_from(sorted(self.model)), label="target"
        )
        if (new_key, new_label) != (old_key, old_label) and self.model[
            (new_key, new_label)
        ]:
            return  # replacement would collide; covered by the insert rule
        if (new_key, new_label) == (old_key, old_label):
            return  # replacing a record with itself is a duplicate insert
        self.owner_client.update(
            "items", _row(old_key, old_label), _row(new_key, new_label)
        )
        self.model[(old_key, old_label)] -= 1
        if not self.model[(old_key, old_label)]:
            del self.model[(old_key, old_label)]
        self.model[(new_key, new_label)] += 1
        self.version += 2

    @precondition(lambda self: self.server is not None)
    @rule(data=st.data())
    def delete_absent_is_refused(self, data):
        key = data.draw(_KEYS, label="absent key")
        label = data.draw(_LABELS, label="absent label")
        if self.model[(key, label)]:
            return
        with pytest.raises(RemoteError) as excinfo:
            self.owner_client.delete("items", _row(key, label))
        assert excinfo.value.code == "UpdateApplicationError"

    # -- queries -------------------------------------------------------------

    @precondition(lambda self: self.server is not None)
    @rule(bounds=st.tuples(_KEYS, _KEYS))
    def query_range(self, bounds):
        low, high = min(bounds), max(bounds)
        query = Query("items", Conjunction((RangeCondition("k", low, high),)))
        result = self.client.execute(QuerySpec(query))
        # The answer is attributed to the manifest version the client held —
        # which, after the transparent rotation refresh, is the current one.
        assert result.manifest_sequence == self.version
        got = sorted(
            ({"k": row["k"], "label": row["label"]} for row in result.rows),
            key=lambda row: (row["k"], row["label"]),
        )
        assert got == self._model_rows(low, high)
        if result.proof is not None:
            assert result.report is not None

    # -- the replay adversary ------------------------------------------------

    @precondition(lambda self: self.server is not None)
    @rule()
    def capture_answer(self):
        """The adversary records a genuine, attested answer off the wire."""
        current = manifest_id(self.owner_client.manifest("items"))
        with socket.create_connection(self.server.address, timeout=10) as sock:
            send_message(
                sock, QueryRequest(manifest_id=current, query=_FULL_RANGE)
            )
            frame = recv_frame(sock)
        assert isinstance(decode(frame), QueryResponse)
        self.captured.append((self.version, frame))
        del self.captured[:-8]

    @precondition(lambda self: self.server is not None)
    @rule()
    def refresh_attestation(self):
        attestation = self.owner_client.attest("items", lifetime=3600.0)
        assert attestation.sequence == self.version

    @precondition(
        lambda self: self.captured
        and self.captured[0][0] < self.version
    )
    @rule()
    def stale_replay_is_refused(self):
        """Serving a captured pre-rotation answer under the *current* id must
        raise a typed StaleAnswerError — and only while the adversary is in
        the path; the genuine attested answer then still serves."""
        _, frame = next(
            (v, f) for v, f in self.captured if v < self.version
        )
        current = manifest_id(self.owner_client.manifest("items"))
        doctored = replace(decode(frame), manifest_id=current)
        self.adversary.stale_frame = encode(doctored)
        try:
            with pytest.raises(StaleAnswerError) as excinfo:
                self.fresh_client.execute(QuerySpec(_FULL_RANGE))
            # The captured attestation binds the pre-rotation manifest
            # (mismatch); a pre-attestation capture carries none at all.
            assert excinfo.value.reason in (
                "no-attestation",
                "attestation-mismatch",
                "attestation-regressed",
            )
        finally:
            self.adversary.stale_frame = None
        result = self.fresh_client.execute(QuerySpec(_FULL_RANGE))
        assert result.attestation is not None
        assert result.manifest_sequence == self.version

    # -- invariants ----------------------------------------------------------

    @invariant()
    def rotations_never_regress(self):
        if self.client is None:
            return
        observed = self.client.rotations_observed.get("items")
        if observed is not None:
            assert observed <= self.version


LiveUpdateMachine.TestCase.settings = settings(
    max_examples=6,
    stateful_step_count=18,
    deadline=None,
    print_blob=True,
)

TestLiveUpdates = LiveUpdateMachine.TestCase


def test_final_state_verifies_internally():
    """One scripted run whose final owner-side self-check must pass."""
    owner = DataOwner(signature_scheme=_SCHEME)
    relation = Relation.from_rows(_SCHEMA, [_row(5, "a"), _row(9, "b")])
    database = owner.publish_database({"items": relation})
    signed = database["items"]
    router = ShardRouter({"shard": Publisher(database.relations)})
    with PublicationServer(router) as server:
        host, port = server.address
        with OwnerClient(host, port, _SCHEME) as owner_client:
            owner_client.insert("items", _row(7, "c"))
            owner_client.update("items", _row(5, "a"), _row(5, "z"))
            owner_client.delete("items", _row(9, "b"))
    assert signed.version == 4
    assert signed.verify_internal_consistency()
