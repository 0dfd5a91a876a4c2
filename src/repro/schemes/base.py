"""The ``ProofScheme`` contract: one in-process interface for the paper's comparisons.

The paper's central claim is *comparative* — its signature-chain construction
beats Merkle-tree publication (Devanbu et al. 2000) and the VB-tree (Pang &
Tan 2004) on VO size, precision and update cost (Sections 2.3 and 6).  This
module puts the chain scheme and those baselines behind one interface so the
comparison runs as ``publish → answer → verify`` triples in one process
(:mod:`repro.bench.schemes`, ``examples/scheme_comparison.py``).  Only the
chain scheme is served: the wire, service and storage layers never consult
this module.

A scheme provides four things:

* ``publish(relation, signature_scheme)`` — the owner-side publication:
  signed state plus the :class:`~repro.core.relational.RelationManifest` its
  verifier reads (schema, hash, owner public key),
* ``make_publisher(database)`` — the publisher-side engine: answers with the
  scheme's VO and applies owner delta batches all-or-nothing,
* ``verifier_for(relation_name, manifest)`` — the user-side
  :class:`SchemeVerifier` that accepts an answer or rejects it with a typed
  :class:`~repro.core.errors.VerificationError`,
* a wire field-spec for its VO artifact, registered by the scheme's module
  with :func:`repro.wire.codec.register_artifact`: the canonical encoding is
  how the comparison counts VO bytes.

``proves_completeness`` is False for the authenticity-only schemes (naive
per-tuple signatures, the VB-tree): a publisher that drops qualifying rows
goes unnoticed under them, which is the gap the chain scheme closes.
"""

from __future__ import annotations

import abc
from typing import ClassVar, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.errors import ProofConstructionError, VerificationError
from repro.core.publisher import PublishedResult, plan_deltas, simulate_deltas
from repro.core.relational import RelationManifest, UpdateReceipt
from repro.core.report import VerificationReport
from repro.crypto.hashing import HashFunction, default_hash
from repro.crypto.signature import SignatureScheme
from repro.db.query import Query, RangeCondition
from repro.db.relation import Relation
from repro.db.schema import KeyDomain, Schema

__all__ = [
    "ProofScheme",
    "SchemePublication",
    "SchemePublisher",
    "SchemeVerifier",
]


# ---------------------------------------------------------------------------
# Publications and publishers
# ---------------------------------------------------------------------------


class SchemePublication(abc.ABC):
    """Owner-side artefact of one relation published under one baseline scheme.

    :attr:`manifest` is the public metadata the owner distributes with it —
    schema, hash and owner key; its chain-digest parameters keep their
    defaults and no baseline verifier reads them.
    """

    #: Name of the scheme this publication belongs to.
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
        self.manifest = RelationManifest(
            schema=self.schema,
            base=2,
            hash_name=self.hash_function.name,
            public_key=signature_scheme.verifier,
        )

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
        touched.  An update is a delete plus an insert, so its receipt counts
        both — the update-cost column of the scheme comparison.
        """
        plan = plan_deltas(self.schema, deltas)
        simulate_deltas(self.relation, plan)
        receipts = []
        for kind, record, replacement in plan:
            if kind == "insert":
                receipts.append(self._apply_insert(record))
            elif kind == "delete":
                receipts.append(self._apply_delete(record))
            else:
                receipts.append(self._apply_delete(record))
                receipts.append(self._apply_insert(replacement))
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
    :class:`~repro.core.errors.ProofConstructionError` instead of an
    unverifiable result.
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
    """A baseline scheme's in-process publisher over its publications.

    Answers sort-key range queries with the scheme's VO and applies owner
    delta batches — the two things the comparison measures.  It is not a
    service shard: :class:`~repro.service.router.ShardRouter` hosts chain
    publishers only.
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

    def answer(self, query: Query, role: Optional[str] = None) -> PublishedResult:
        """Answer a sort-key range query with this scheme's VO."""
        publication = self.database[query.relation_name]
        schema = publication.schema
        check_plain_range_query(self.scheme.name, query, schema, role)
        alpha, beta = range_bounds(query, schema, publication.domain)
        if alpha > beta:
            return PublishedResult(query.relation_name, [], None, query)
        rows, proof = publication.answer_range(alpha, beta)
        return PublishedResult(query.relation_name, [dict(row) for row in rows], proof, query)

    def apply_deltas(self, relation_name: str, deltas: Sequence) -> UpdateReceipt:
        return self.database[relation_name].apply_deltas(deltas)


# ---------------------------------------------------------------------------
# Verifiers
# ---------------------------------------------------------------------------


class SchemeVerifier(abc.ABC):
    """User-side verification under one scheme, for one manifest.

    The contract matches :class:`~repro.core.verifier.ResultVerifier.verify`:
    return a :class:`~repro.core.report.VerificationReport` on success, raise
    a typed :class:`~repro.core.errors.VerificationError` otherwise — never a
    raw ``ValueError``/``TypeError``, even for structurally hostile input.
    The contract is enforced structurally: :meth:`verify` is the template
    that converts structural breakage into a typed ``malformed-proof``
    rejection, and scheme authors implement only :meth:`_verify`.
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
# Scheme interface
# ---------------------------------------------------------------------------


class ProofScheme(abc.ABC):
    """One way of publishing relations with verifiable query answers."""

    #: The scheme's name in the comparison table.
    name: ClassVar[str] = ""
    #: Whether range answers prove that no qualifying tuple was omitted.
    proves_completeness: ClassVar[bool] = False
    #: The VO artifact class this scheme's publisher produces.
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
        """A user-side verifier bound to one relation's manifest."""

    def check_proof_type(self, proof: object) -> None:
        """Typed rejection of a VO that belongs to a different scheme."""
        if proof is not None and not isinstance(proof, self.vo_type):
            raise VerificationError(
                f"the {self.name!r} scheme expects a "
                f"{self.vo_type.__name__} verification object, got "
                f"{type(proof).__name__}",
                reason="scheme-proof-mismatch",
            )
