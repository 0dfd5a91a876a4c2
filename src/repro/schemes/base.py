"""The ``ProofScheme`` contract: one interface from publisher to wire to client.

The paper's central claim is *comparative* — its signature-chain construction
beats Merkle-tree publication (Devanbu et al. 2000) and the VB-tree (Pang &
Tan 2004) on VO size, precision and update cost.  This module is what lets the
whole serving stack host those competitors side by side: a
:class:`ProofScheme` names one way of publishing a relation so that an
untrusted publisher can serve verifiable answers, and everything downstream —
the :class:`~repro.service.router.ShardRouter`, the
:class:`~repro.service.handler.RequestHandler` and the
:class:`~repro.service.client.VerifyingClient` — dispatches on the scheme tag
carried by the relation's manifest instead of assuming the chain scheme.

A scheme provides four things:

* ``publish(relation, signature_scheme)`` — the owner-side artefact
  (:class:`SchemePublication`): signed state plus a scheme-tagged
  :class:`~repro.core.relational.RelationManifest`,
* ``make_publisher(database)`` — the publisher-side engine serving queries
  with proofs and applying owner delta batches (duck-compatible with the
  surface :mod:`repro.service` expects from the chain scheme's
  :class:`~repro.core.publisher.Publisher`),
* ``verifier_for(relation_name, manifest)`` — the user-side
  :class:`SchemeVerifier` that accepts a wire answer or rejects it with a
  typed :class:`~repro.core.errors.VerificationError`,
* per-scheme wire field-specs: each scheme module registers its VO artifact
  with :func:`repro.wire.codec.register_artifact` from the same field-spec
  table that drives the binary writer, the generated reader and the JSON
  mirror.

Schemes self-describe their security envelope: ``proves_completeness`` is
False for authenticity-only schemes (naive per-tuple signatures, the
VB-tree), and a :class:`~repro.service.client.VerifyingClient` refuses to
serve range answers under such a scheme unless the caller explicitly opts in
(``allow_incomplete=True``) — under-verification is a typed
:class:`CompletenessUnsupported`, never silent.
"""

from __future__ import annotations

import abc
from typing import (
    ClassVar,
    Dict,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

from repro.core.errors import (
    ProofConstructionError,
    ReproError,
    VerificationError,
)
from repro.core.publisher import PublishedResult, plan_deltas, simulate_deltas
from repro.core.relational import RelationManifest, UpdateReceipt
from repro.core.report import VerificationReport
from repro.crypto.hashing import HashFunction, default_hash
from repro.crypto.signature import SignatureScheme
from repro.db.query import Query, RangeCondition
from repro.db.relation import Relation
from repro.db.schema import KeyDomain, Schema

__all__ = [
    "CompletenessUnsupported",
    "SchemeMismatchError",
    "UnknownSchemeError",
    "ProofScheme",
    "PublisherProtocol",
    "SchemePublication",
    "SchemePublisher",
    "SchemeVerifier",
    "register_scheme",
    "get_scheme",
    "scheme_of",
    "available_schemes",
    "registered_vo_types",
]


class UnknownSchemeError(ReproError):
    """A manifest names a proof scheme this build has no implementation for."""

    def __init__(self, message: str, reason: str = "unknown-scheme") -> None:
        super().__init__(message)
        self.reason = reason


class SchemeMismatchError(ReproError):
    """An artefact's scheme tag contradicts the scheme the client pinned.

    Raised when a rotated manifest (or a stamped historical manifest) tries to
    change the proof scheme of a relation: rotations carry data updates, never
    scheme migrations, so a scheme change is either a hostile downgrade or a
    misconfigured publisher — refused before any signature math runs.
    """

    def __init__(self, message: str, reason: str = "scheme-mismatch") -> None:
        super().__init__(message)
        self.reason = reason


class CompletenessUnsupported(VerificationError):
    """The relation's scheme cannot prove completeness for this answer.

    A typed refusal, so a client can never *silently* under-verify: queries
    against authenticity-only schemes (naive, VB-tree) must opt in with
    ``allow_incomplete=True``, and join verification is only defined for
    schemes that support it.
    """

    def __init__(self, message: str, reason: str = "completeness-unsupported") -> None:
        super().__init__(message, reason)


# ---------------------------------------------------------------------------
# Publications and publishers
# ---------------------------------------------------------------------------


class SchemePublication(abc.ABC):
    """Owner-side artefact of one relation published under one scheme.

    Exposes the exact surface the service stack already consumes from the
    chain scheme's :class:`~repro.core.relational.SignedRelation`: a
    scheme-tagged :attr:`manifest` whose ``sequence`` tracks the mutation
    :attr:`version` (so every applied update rotates the 32-byte manifest id),
    and :meth:`sign_rotation` for owner-authenticated rotations.
    """

    #: Registry name of the scheme this publication belongs to.
    scheme_name: ClassVar[str] = ""

    def __init__(
        self,
        relation: Relation,
        signature_scheme: SignatureScheme,
        hash_function: Optional[HashFunction] = None,
    ) -> None:
        self.relation = relation
        self.schema: Schema = relation.schema
        self.domain: KeyDomain = self.schema.key_domain
        self.hash_function = hash_function or default_hash()
        self._signature_scheme = signature_scheme
        self._version = 0
        self._manifest: Optional[RelationManifest] = None

    # -- manifest / rotation -------------------------------------------------

    @property
    def version(self) -> int:
        """Monotonic counter bumped by every applied insert/delete/update."""
        return self._version

    @property
    def signature_scheme(self) -> SignatureScheme:
        """The owner signing scheme this publication was signed under."""
        return self._signature_scheme

    def restore_sequence(self, sequence: int) -> None:
        """Resume the manifest sequence of a recovered publication.

        The signed state every scheme derives depends only on the rows and
        the key, never on the sequence counter, so recovery rebuilds the
        publication from checkpointed rows and then restores the counter —
        the next :attr:`manifest` reproduces the checkpointed one exactly.
        """
        if sequence < 0:
            raise ValueError("sequence must be >= 0")
        self._version = int(sequence)
        self._manifest = None

    @property
    def manifest(self) -> RelationManifest:
        """Scheme-tagged public metadata, rebuilt per data version.

        ``scheme_kind``/``base`` are chain-scheme digest parameters; they keep
        their defaults here (the wire format carries them for every manifest)
        and are ignored by non-chain verifiers.
        """
        if self._manifest is None or self._manifest.sequence != self._version:
            self._manifest = RelationManifest(
                schema=self.schema,
                scheme_kind="optimized",
                base=2,
                hash_name=self.hash_function.name,
                public_key=self._signature_scheme.verifier,
                sequence=self._version,
                scheme=self.scheme_name,
            )
        return self._manifest

    def sign_rotation(self, previous_id: bytes) -> int:
        """Owner signature over (superseded id, current manifest bytes).

        Same domain-separated rotation message as the chain scheme
        (:func:`repro.wire.updates.manifest_signing_message`), so one client
        rotation policy covers every scheme.
        """
        from repro.wire.updates import manifest_signing_message

        return self._signature_scheme.sign(manifest_signing_message(self.manifest, previous_id))

    # -- queries -------------------------------------------------------------

    @abc.abstractmethod
    def answer_range(self, low: int, high: int) -> Tuple[List[Dict[str, object]], object]:
        """Rows of ``low <= key <= high`` plus this scheme's VO artifact."""

    # -- updates -------------------------------------------------------------

    @abc.abstractmethod
    def _apply_insert(self, record) -> UpdateReceipt:
        """Insert one validated record; returns the per-step cost receipt."""

    @abc.abstractmethod
    def _apply_delete(self, record) -> UpdateReceipt:
        """Delete one validated record; returns the per-step cost receipt."""

    def apply_deltas(self, deltas: Sequence) -> UpdateReceipt:
        """Apply one owner delta batch, all-or-nothing.

        Planning and pre-simulation are shared with the chain scheme
        (:func:`repro.core.publisher.plan_deltas` /
        :func:`~repro.core.publisher.simulate_deltas`), so a bad delta
        anywhere in the batch raises a typed
        :class:`~repro.core.errors.UpdateApplicationError` before anything is
        touched.  Each insert/delete advances :attr:`version` by one and each
        update by two — the same sequence accounting as the chain scheme, so
        :func:`repro.service.owner.delta_sequence_cost` predicts rotations for
        every scheme.
        """
        plan = plan_deltas(self.schema, deltas)
        simulate_deltas(self.relation, plan)
        receipts = []
        for kind, record, replacement in plan:
            if kind == "insert":
                receipts.append(self._apply_insert(record))
                self._version += 1
            elif kind == "delete":
                receipts.append(self._apply_delete(record))
                self._version += 1
            else:
                receipts.append(self._apply_delete(record))
                receipts.append(self._apply_insert(replacement))
                self._version += 2
        return UpdateReceipt.merge(receipts)


def range_bounds(query: Query, schema: Schema, domain: KeyDomain) -> Tuple[int, int]:
    """The clamped closed key range a plain range query asks for.

    Shared by baseline publishers and verifiers so both sides derive the
    bounds from the query the same way the chain scheme does.
    """
    key_condition = query.where.key_condition(schema)
    if key_condition is None:
        key_condition = RangeCondition(schema.key, None, None)
    return key_condition.bounds(domain)


def check_plain_range_query(
    scheme_name: str, query: Query, schema: Schema, role: Optional[str]
) -> None:
    """Reject query shapes a baseline scheme cannot answer verifiably.

    The baselines authenticate whole tuples against a key range: projections
    would strip signed attributes (Section 2.3's precision criticism — the
    VO must ship them anyway), non-key predicates cannot be proven applied,
    and there is no access-control story.  Each unsupported shape is a typed
    :class:`~repro.core.errors.ProofConstructionError`, so a server answers
    with an explicit error instead of an unverifiable result.
    """
    if role is not None:
        raise ProofConstructionError(
            f"the {scheme_name!r} scheme does not support access-control roles"
        )
    if query.projection.attributes is not None or query.projection.distinct:
        raise ProofConstructionError(
            f"the {scheme_name!r} scheme signs whole tuples and cannot serve "
            "projections or DISTINCT"
        )
    if query.where.non_key_conditions(schema):
        raise ProofConstructionError(
            f"the {scheme_name!r} scheme cannot prove non-key predicates were "
            "applied; only sort-key ranges are served"
        )


class SchemePublisher:
    """Generic publisher hosting :class:`SchemePublication` objects.

    Duck-compatible with the slice of :class:`~repro.core.publisher.Publisher`
    the service layer uses — ``database``, :meth:`signed_relation`,
    :meth:`answer`, :meth:`answer_join`, :meth:`apply_deltas`,
    :meth:`cache_stats` — so :class:`~repro.service.router.ShardRouter` and
    :class:`~repro.service.handler.RequestHandler` route to it exactly like to
    a chain shard.
    """

    def __init__(self, scheme: "ProofScheme", database: Mapping[str, SchemePublication]) -> None:
        self.scheme = scheme
        self.database: Dict[str, SchemePublication] = dict(database)
        for name, publication in self.database.items():
            if publication.scheme_name != scheme.name:
                raise ValueError(
                    f"relation {name!r} was published under scheme "
                    f"{publication.scheme_name!r}, not {scheme.name!r}"
                )

    def signed_relation(self, name: str) -> SchemePublication:
        try:
            return self.database[name]
        except KeyError as error:
            raise KeyError(f"publisher does not host relation {name!r}") from error

    def answer(self, query: Query, role: Optional[str] = None) -> PublishedResult:
        """Answer a sort-key range query with this scheme's VO."""
        publication = self.signed_relation(query.relation_name)
        schema = publication.schema
        check_plain_range_query(self.scheme.name, query, schema, role)
        alpha, beta = range_bounds(query, schema, publication.domain)
        if alpha > beta:
            return PublishedResult(query.relation_name, [], None, query)
        rows, proof = publication.answer_range(alpha, beta)
        return PublishedResult(query.relation_name, [dict(row) for row in rows], proof, query)

    def answer_join(self, join, role: Optional[str] = None):
        raise ProofConstructionError(
            f"the {self.scheme.name!r} scheme cannot prove join results; "
            "host the relations under the chain scheme for verifiable joins"
        )

    def apply_deltas(self, relation_name: str, deltas: Sequence) -> UpdateReceipt:
        return self.signed_relation(relation_name).apply_deltas(deltas)

    def cache_stats(self) -> Dict[str, object]:
        return {}


@runtime_checkable
class PublisherProtocol(Protocol):
    """The exact publisher surface the service stack consumes.

    Every shard a :class:`~repro.service.router.ShardRouter` hosts — the
    chain scheme's :class:`~repro.core.publisher.Publisher`, the generic
    :class:`SchemePublisher`, or anything a future scheme supplies — is used
    through precisely these five members, nothing more:

    * :attr:`database` — relation name -> publication mapping; the router
      and the durable storage walk it to index and persist every relation,
    * :meth:`signed_relation` — the live publication behind one relation
      (manifests, rotation signatures, recovery hooks),
    * :meth:`answer` / :meth:`answer_join` — proof-carrying query answers,
    * :meth:`apply_deltas` — owner update batches, and
    * :meth:`cache_stats` — proof-cache counters for the stats endpoint.

    The protocol is ``runtime_checkable`` so tests can assert conformance of
    every registered scheme's publisher with a plain ``isinstance`` check;
    like all runtime protocols it checks member presence, not signatures —
    the conformance test in ``tests/test_schemes.py`` exercises the real
    signatures.
    """

    database: Mapping[str, object]

    def signed_relation(self, name: str) -> object: ...

    def answer(self, query: Query, role: Optional[str] = None) -> PublishedResult: ...

    def answer_join(self, join, role: Optional[str] = None): ...

    def apply_deltas(self, relation_name: str, deltas: Sequence) -> UpdateReceipt: ...

    def cache_stats(self) -> Dict[str, object]: ...


# ---------------------------------------------------------------------------
# Verifiers
# ---------------------------------------------------------------------------


class SchemeVerifier(abc.ABC):
    """User-side verification under one scheme, for one pinned manifest.

    The contract matches :class:`~repro.core.verifier.ResultVerifier.verify`:
    return a :class:`~repro.core.report.VerificationReport` on success, raise
    a typed :class:`~repro.core.errors.VerificationError` otherwise — never a
    raw ``ValueError``/``TypeError``, even for structurally hostile input
    decoded from untrusted wire bytes.  The contract is enforced
    structurally: :meth:`verify` is the template that converts structural
    breakage into a typed ``malformed-proof`` rejection, and scheme authors
    implement only :meth:`_verify`.
    """

    def verify(
        self,
        query: Query,
        rows: Sequence[Mapping[str, object]],
        proof: Optional[object],
        role: Optional[str] = None,
    ) -> VerificationReport:
        """Accept the answer or raise a typed verification error."""
        try:
            return self._verify(query, rows, proof, role)
        except VerificationError:
            raise
        except (ValueError, TypeError, KeyError, IndexError, OverflowError) as error:
            raise VerificationError(
                f"malformed result or proof: {error}", reason="malformed-proof"
            ) from error

    @abc.abstractmethod
    def _verify(
        self,
        query: Query,
        rows: Sequence[Mapping[str, object]],
        proof: Optional[object],
        role: Optional[str],
    ) -> VerificationReport:
        """Scheme-specific verification; raw structural errors are allowed
        to escape — the :meth:`verify` template types them."""


# ---------------------------------------------------------------------------
# Scheme interface and registry
# ---------------------------------------------------------------------------


class ProofScheme(abc.ABC):
    """One way of publishing relations with verifiable query answers."""

    #: Registry name; also the manifest's ``scheme`` tag on the wire.
    name: ClassVar[str] = ""
    #: Whether range answers prove that no qualifying tuple was omitted.
    proves_completeness: ClassVar[bool] = False
    #: Whether PK-FK join answers can be verified under this scheme.
    supports_joins: ClassVar[bool] = False
    #: The VO artifact class this scheme ships on the wire (registered with
    #: the codec by the scheme's module, from its field-spec table).
    vo_type: ClassVar[type] = object

    @abc.abstractmethod
    def publish(
        self,
        relation: Relation,
        signature_scheme: SignatureScheme,
        hash_function: Optional[HashFunction] = None,
        **parameters,
    ) -> SchemePublication:
        """Sign ``relation`` under this scheme (the owner-side step)."""

    def make_publisher(self, database: Mapping[str, SchemePublication], policy=None):
        """The publisher-side engine over already-published relations."""
        if policy is not None:
            raise ProofConstructionError(
                f"the {self.name!r} scheme does not support access-control policies"
            )
        return SchemePublisher(self, database)

    @abc.abstractmethod
    def verifier_for(
        self,
        relation_name: str,
        manifest: RelationManifest,
        policy=None,
    ) -> SchemeVerifier:
        """A user-side verifier bound to one relation's pinned manifest."""

    def check_proof_type(self, proof: object) -> None:
        """Typed rejection of a VO that belongs to a different scheme."""
        if proof is not None and not isinstance(proof, self.vo_type):
            raise VerificationError(
                f"the {self.name!r} scheme expects a "
                f"{self.vo_type.__name__} verification object, got "
                f"{type(proof).__name__}",
                reason="scheme-proof-mismatch",
            )


_REGISTRY: Dict[str, ProofScheme] = {}


def register_scheme(scheme: ProofScheme) -> ProofScheme:
    """Register ``scheme`` under its :attr:`~ProofScheme.name`.

    Adding a scheme to the serving stack is exactly: implement the interface,
    register the VO codec from a field-spec table, call this.  Every layer —
    router, handler, client — picks it up through the registry.
    """
    if not scheme.name:
        raise ValueError("a proof scheme needs a non-empty name")
    if scheme.name in _REGISTRY:
        raise ValueError(f"proof scheme {scheme.name!r} is already registered")
    _REGISTRY[scheme.name] = scheme
    return scheme


def get_scheme(name: str) -> ProofScheme:
    """The registered scheme called ``name``; typed error when unknown."""
    scheme = _REGISTRY.get(name)
    if scheme is None:
        raise UnknownSchemeError(
            f"no proof scheme named {name!r} is registered "
            f"(available: {', '.join(sorted(_REGISTRY)) or 'none'})"
        )
    return scheme


def scheme_of(manifest: RelationManifest) -> ProofScheme:
    """Resolve a manifest's scheme tag against the registry."""
    return get_scheme(manifest.scheme)


def available_schemes() -> List[str]:
    """Sorted names of every registered scheme."""
    return sorted(_REGISTRY)


def registered_vo_types() -> Tuple[type, ...]:
    """The VO artifact classes of every registered scheme (union members)."""
    return tuple(scheme.vo_type for _, scheme in sorted(_REGISTRY.items()))
