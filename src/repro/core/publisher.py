"""The untrusted publisher: answers relational queries and builds proofs.

The publisher hosts one or more :class:`~repro.core.relational.SignedRelation`
objects (records + chain signatures, but never the owner's private key),
rewrites incoming queries according to the access-control policy, evaluates
them and attaches a :class:`~repro.core.proof.RangeQueryProof` (or
:class:`~repro.core.proof.JoinQueryProof`) that the user can check against the
owner's public key.

An honest publisher physically cannot fabricate proofs for incorrect results:
the boundary digests it would need are undefined
(:class:`~repro.core.errors.CheatingAttemptError`).  The test suite contains a
*dishonest* publisher that tries anyway, to demonstrate that verification
catches every manipulation of Section 3.2's case analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.cache import CacheStats
from repro.core.errors import (
    PolicyViolationError,
    ProofConstructionError,
    UpdateApplicationError,
)
from repro.core.proof import (
    BoundaryEntryProof,
    FilteredEntryProof,
    JoinQueryProof,
    MatchedEntryProof,
    RangeQueryProof,
    SignatureBundle,
)
from repro.core.relational import SignedRelation, UpdateReceipt
from repro.crypto.aggregate import aggregate_signatures
from repro.db.access_control import AccessControlPolicy, visibility_column_name
from repro.db.query import Conjunction, JoinQuery, Projection, Query, RangeCondition
from repro.db.records import Record
from repro.db.schema import Schema

__all__ = [
    "PublishedResult",
    "PublishedJoinResult",
    "Publisher",
    "plan_deltas",
    "simulate_deltas",
]


def plan_deltas(schema: Schema, deltas: Sequence) -> List[Tuple[str, Record, Optional[Record]]]:
    """Materialise wire deltas into validated records; typed errors only.

    Shared by the chain scheme's :class:`Publisher` and the in-process
    comparison baselines, so "what makes a well-formed delta batch" has
    exactly one definition.
    """
    if not deltas:
        raise UpdateApplicationError("an update batch needs at least one delta")
    plan: List[Tuple[str, Record, Optional[Record]]] = []
    for index, delta in enumerate(deltas):
        try:
            if delta.kind == "insert":
                plan.append(("insert", Record(schema, dict(delta.values)), None))
            elif delta.kind == "delete":
                plan.append(("delete", Record(schema, dict(delta.values)), None))
            elif delta.kind == "update":
                if delta.old_values is None:
                    raise ValueError("update delta without old values")
                plan.append(
                    (
                        "update",
                        Record(schema, dict(delta.old_values)),
                        Record(schema, dict(delta.values)),
                    )
                )
            else:
                raise ValueError(f"unknown delta kind {delta.kind!r}")
        except (ValueError, TypeError, KeyError, AttributeError) as error:
            raise UpdateApplicationError(
                f"delta[{index}] does not form a valid {schema.name!r} "
                f"record: {error}"
            ) from None
    return plan


def simulate_deltas(relation, plan: Sequence[Tuple[str, Record, Optional[Record]]]) -> None:
    """Dry-run a planned batch against the relation's (key, fingerprint) occupancy.

    The relation keeps a sorted (key, fingerprint) index and refuses exact
    duplicates, so occupancy per identity is 0 or 1; only the deltas of *this
    batch* need tracking on top (O(b log n) total).  Raises a typed
    :class:`~repro.core.errors.UpdateApplicationError` before the first real
    mutation, so a bad delta anywhere in the batch leaves the published state
    untouched — all-or-nothing for every scheme.
    """
    pending: Dict[Tuple[int, bytes], int] = {}

    def occupancy(record: Record) -> int:
        identity = (record.key, record.fingerprint())
        return int(relation.contains(record)) + pending.get(identity, 0)

    def simulate_insert(record: Record, index: int) -> None:
        if occupancy(record) > 0:
            raise UpdateApplicationError(
                f"delta[{index}] inserts an exact duplicate of an existing "
                f"record (key {record.key})"
            )
        identity = (record.key, record.fingerprint())
        pending[identity] = pending.get(identity, 0) + 1

    def simulate_delete(record: Record, index: int) -> None:
        if occupancy(record) <= 0:
            raise UpdateApplicationError(
                f"delta[{index}] deletes a record that is not in the "
                f"relation (key {record.key})"
            )
        identity = (record.key, record.fingerprint())
        pending[identity] = pending.get(identity, 0) - 1

    for index, (kind, record, replacement) in enumerate(plan):
        if kind == "insert":
            simulate_insert(record, index)
        elif kind == "delete":
            simulate_delete(record, index)
        else:
            simulate_delete(record, index)
            simulate_insert(replacement, index)


@dataclass
class PublishedResult:
    """What the publisher ships back for a select-project query."""

    relation_name: str
    rows: List[Dict[str, object]]
    proof: Optional[RangeQueryProof]
    rewritten_query: Query
    #: Closed sort-key interval of the chain entries the answer read (see
    #: :func:`_chain_window`), ``None`` if unbounded.  In-process only: a
    #: server tells by it which later updates could have changed the answer.
    window: Optional[Tuple[int, int]] = None

    @property
    def is_vacuous(self) -> bool:
        """True when the query range was empty and no proof is required."""
        return self.proof is None


@dataclass
class PublishedJoinResult:
    """What the publisher ships back for a PK-FK join query."""

    rows: List[Dict[str, object]]
    proof: Optional[JoinQueryProof]
    rewritten_query: JoinQuery
    left_rows: List[Dict[str, object]]

    @property
    def is_vacuous(self) -> bool:
        """True when the (rewritten) key range was empty and no proof is required."""
        return self.proof is None


def _chain_window(signed: SignedRelation, start: int, stop: int) -> Tuple[int, int]:
    """Keys bounding every chain entry an answer over records ``[start, stop)`` reads.

    Section 6.3's update locality, read backwards: a mutation re-signs the
    entries next to the key it touches and no other, so the answer stays
    exact while no touched key falls in this interval — from the entry below
    the lower boundary entry (an empty range ships ``g`` of that outer
    neighbour) to the entry above the upper one, clamped at the delimiters.
    """
    last = signed.entry_count() - 1
    return signed.entry(max(start - 1, 0)).key, signed.entry(min(stop + 2, last)).key


class Publisher:
    """Hosts signed relations and answers queries with completeness proofs.

    Every answer is assembled from the relation's current per-entry columns;
    the one thing worth remembering across answers, a boundary entry's chain
    proof, is memoised by the digest scheme it is a pure function of
    (:meth:`~repro.core.digest.OptimizedChainScheme.boundary_proof`), so the
    publisher keeps no cache of its own and a mutation has nothing to
    invalidate here.
    """

    def __init__(
        self,
        database: Mapping[str, SignedRelation],
        policy: Optional[AccessControlPolicy] = None,
        aggregate: bool = True,
    ) -> None:
        self.database: Dict[str, SignedRelation] = dict(database)
        self.policy = policy
        self.aggregate = aggregate

    def cache_stats(self) -> Dict[str, object]:
        """``vo_fragments``: the hosted relations' boundary-assist memo counters, summed."""
        schemes = {  # a set: one relation may be hosted under several names
            scheme
            for signed in self.database.values()
            for scheme in (signed.upper_scheme, signed.lower_scheme)
        }
        totals = CacheStats(hits=0, misses=0, evictions=0, size=0, capacity=0)
        for scheme in schemes:
            for counter, value in scheme._boundary_memo.stats().items():
                totals[counter] += value
        return {"vo_fragments": totals}

    # -- helpers ------------------------------------------------------------------

    def signed_relation(self, name: str) -> SignedRelation:
        try:
            return self.database[name]
        except KeyError as error:
            raise KeyError(f"publisher does not host relation {name!r}") from error

    def _rewrite(
        self, query: Query, role: Optional[str], schema: Schema
    ) -> Tuple[Query, Tuple[object, ...]]:
        """Apply access-control rewriting; returns (rewritten query, role conditions)."""
        if role is None or self.policy is None:
            return query, ()
        role_object = self.policy.role(role)
        rewritten = self.policy.rewrite(query, role, schema)
        return rewritten, tuple(role_object.row_conditions)

    # -- range / multipoint / projection queries ----------------------------------------

    def answer(
        self, query: Query, role: Optional[str] = None
    ) -> PublishedResult:
        """Answer a select-project(-multipoint) query with a completeness proof."""
        signed = self.signed_relation(query.relation_name)
        schema = signed.schema
        domain = signed.domain
        rewritten, role_conditions = self._rewrite(query, role, schema)

        key_condition = rewritten.where.key_condition(schema)
        if key_condition is None:
            key_condition = RangeCondition(schema.key, None, None)
        alpha, beta = key_condition.bounds(domain)
        if alpha > beta:
            return PublishedResult(query.relation_name, [], None, rewritten)

        start, stop = signed.relation.range_indices(alpha, beta)
        return self._build_range_result(
            signed, rewritten, role_conditions, role, alpha, beta, start, stop
        )

    def _build_range_result(
        self,
        signed: SignedRelation,
        rewritten: Query,
        role_conditions: Tuple[object, ...],
        role: Optional[str],
        alpha: int,
        beta: int,
        start: int,
        stop: int,
    ) -> PublishedResult:
        """Assemble rows and proof for an already-located key range."""
        schema = signed.schema
        scanned = signed.relation.records[start:stop]
        non_key_conditions = rewritten.where.non_key_conditions(schema)

        lower_boundary = self._lower_boundary_proof(signed, start, alpha)
        upper_boundary = self._upper_boundary_proof(signed, stop, beta)

        rows: List[Dict[str, object]] = []
        entries: List[object] = []
        seen_projected: set = set()
        projection = rewritten.projection
        projected_names = projection.effective_attributes(schema)
        # Per answer, not per row: a name the schema lacks still fails the
        # first row it would be projected from, as Record.project fails it.
        projectable = all(schema.has_attribute(name) for name in projected_names)
        dropped_names = projection.dropped_attributes(schema)

        for offset, record in enumerate(scanned):
            chain_index = signed.record_chain_index(start + offset)
            matches = all(condition.matches(record) for condition in non_key_conditions)
            if matches:
                if not projectable:
                    record.project(projected_names)
                values = record.values
                row = {name: values[name] for name in projected_names}
                if projection.distinct:
                    row_signature = tuple(sorted(row.items(), key=lambda item: str(item[0])))
                    if row_signature in seen_projected:
                        entries.append(
                            self._matched_entry(
                                signed,
                                chain_index,
                                record,
                                dropped_names,
                                eliminated_duplicate=True,
                                revealed=row,
                            )
                        )
                        continue
                    seen_projected.add(row_signature)
                rows.append(row)
                entries.append(self._matched_entry(signed, chain_index, record, dropped_names))
            else:
                entries.append(
                    self._filtered_entry(
                        signed,
                        chain_index,
                        record,
                        non_key_conditions,
                        role_conditions,
                        role,
                    )
                )

        bundle, outer_digest = self._signature_bundle(signed, start, stop)
        proof = RangeQueryProof(
            key_low=alpha,
            key_high=beta,
            lower_boundary=lower_boundary,
            upper_boundary=upper_boundary,
            entries=tuple(entries),
            signatures=bundle,
            outer_neighbor_digest=outer_digest,
        )
        return PublishedResult(
            rewritten.relation_name, rows, proof, rewritten, _chain_window(signed, start, stop)
        )

    # -- proof building blocks ---------------------------------------------------------

    def _lower_boundary_proof(
        self, signed: SignedRelation, start: int, alpha: int
    ) -> BoundaryEntryProof:
        """Proof for the entry immediately below the query range.

        The chain proof depends only on the entry's key and on how far
        ``alpha`` sits from the domain edge, so the scheme memoises it; the
        other two fields are the entry's current columns, read per answer.
        """
        chain_index = start  # record at relation position start-1, or the left delimiter
        entry = signed.entry(chain_index)
        lower, attribute_root = signed.boundary_components(chain_index, 1)
        return BoundaryEntryProof(
            side="lower",
            chain_boundary=signed.upper_scheme.boundary_proof(
                entry.key,
                signed.domain.upper - entry.key - 1,
                signed.domain.upper - alpha,
            ),
            other_chain_digest=lower,
            attribute_root=attribute_root,
        )

    def _upper_boundary_proof(
        self, signed: SignedRelation, stop: int, beta: int
    ) -> BoundaryEntryProof:
        """Proof for the entry immediately above the query range."""
        chain_index = stop + 1
        entry = signed.entry(chain_index)
        upper, attribute_root = signed.boundary_components(chain_index, 0)
        return BoundaryEntryProof(
            side="upper",
            chain_boundary=signed.lower_scheme.boundary_proof(
                entry.key,
                entry.key - signed.domain.lower - 1,
                beta - signed.domain.lower,
            ),
            other_chain_digest=upper,
            attribute_root=attribute_root,
        )

    def _matched_entry(
        self,
        signed: SignedRelation,
        chain_index: int,
        record: Record,
        dropped_names: Sequence[str],
        eliminated_duplicate: bool = False,
        revealed: Optional[Dict[str, object]] = None,
    ) -> MatchedEntryProof:
        """Proof material for a record returned to the user (or a DISTINCT duplicate)."""
        upper_assist, lower_assist = signed.entry_assists(chain_index)
        dropped_digests = self._attribute_leaf_digests(signed, record, dropped_names)
        return MatchedEntryProof(
            upper_assist=upper_assist,
            lower_assist=lower_assist,
            dropped_attribute_digests=dropped_digests,
            eliminated_duplicate=eliminated_duplicate,
            revealed_attributes=dict(revealed or {}),
            key=record.key if eliminated_duplicate else None,
        )

    def _filtered_entry(
        self,
        signed: SignedRelation,
        chain_index: int,
        record: Record,
        non_key_conditions: Sequence[object],
        role_conditions: Sequence[object],
        role: Optional[str],
    ) -> FilteredEntryProof:
        """Proof material for an in-range record the query filters out (Section 4.4)."""
        schema = signed.schema
        failed_role = [
            condition
            for condition in role_conditions
            if condition in non_key_conditions and not condition.matches(record)
        ]
        failed_query = [
            condition
            for condition in non_key_conditions
            if condition not in role_conditions and not condition.matches(record)
        ]
        revealed: Dict[str, object] = {}
        reason = "predicate"
        if failed_role:
            if role is None:
                raise ProofConstructionError(
                    "a role is required to justify access-control filtering"
                )
            column = visibility_column_name(role)
            if not schema.has_attribute(column):
                raise PolicyViolationError(
                    "cannot hide a record filtered by access control without a "
                    f"visibility column; add {column!r} via add_visibility_columns()"
                )
            revealed[column] = record[column]
            reason = "access-control"
        elif failed_query:
            for condition in failed_query:
                revealed[condition.attribute] = record[condition.attribute]
        else:  # pragma: no cover - caller only passes non-matching records
            raise ProofConstructionError("record unexpectedly satisfies every condition")

        hidden = [name for name in schema.non_key_positions if name not in revealed]
        leaf_digests = self._attribute_leaf_digests(signed, record, hidden)
        upper, lower, _ = signed.components(chain_index)
        return FilteredEntryProof(
            revealed_attributes=revealed,
            attribute_leaf_digests=leaf_digests,
            upper_chain_digest=upper,
            lower_chain_digest=lower,
            reason=reason,
        )

    def _attribute_leaf_digests(
        self, signed: SignedRelation, record: Record, names: Sequence[str]
    ) -> Dict[str, bytes]:
        """Leaf digests of the record's attribute Merkle tree for ``names``.

        Read off the record's attribute-tree kernel run (a stored row's
        re-fingerprint has already made it), so shipping them hashes nothing.
        """
        if not names:
            return {}
        positions = record.schema.non_key_positions
        digests = record.attribute_leaf_digests(signed.hash_function)
        return {name: digests[positions[name]] for name in names}

    def _signature_bundle(
        self, signed: SignedRelation, start: int, stop: int
    ) -> Tuple[SignatureBundle, Optional[bytes]]:
        """Signatures covering the scanned range (or the boundary pair when empty)."""
        if stop > start:
            indices = [signed.record_chain_index(position) for position in range(start, stop)]
            outer_digest = None
        else:
            indices = [start]  # the lower-boundary entry's chain index
            outer_digest = (
                signed.manifest.left_anchor()
                if start == 0
                else signed.entry_digest(start - 1)
            )
        raw = [signed.signatures[index] for index in indices]
        if self.aggregate:
            # The chain messages behind these signatures are pairwise distinct
            # by construction (each embeds its own entry's g, and the entries
            # are strictly ascending in (key, fingerprint)), so they are not
            # rebuilt here to be compared; the client checks its own.
            bundle = SignatureBundle(
                aggregate=aggregate_signatures(raw, signed.manifest.public_key)
            )
        else:
            bundle = SignatureBundle(individual=tuple(raw))
        return bundle, outer_digest

    # -- live updates (Section 6.3 over the wire) ----------------------------------------

    def apply_deltas(self, relation_name: str, deltas: Sequence) -> UpdateReceipt:
        """Apply a batch of :class:`~repro.wire.updates.RecordDelta` mutations.

        All-or-nothing: every delta is materialised into schema-validated
        :class:`~repro.db.records.Record` objects and the whole batch is
        simulated against the relation's (key, fingerprint) occupancy *before*
        the first real mutation, so a bad delta anywhere in the batch raises
        :class:`~repro.core.errors.UpdateApplicationError` and leaves the
        chain, the signatures and the manifest untouched.  Application then
        goes through the normal receipt machinery and the per-step receipts
        are merged with :meth:`~repro.core.relational.UpdateReceipt.merge`.
        """
        signed = self.signed_relation(relation_name)
        plan = plan_deltas(signed.schema, deltas)
        simulate_deltas(signed.relation, plan)
        receipts = []
        for kind, record, replacement in plan:
            if kind == "insert":
                receipts.append(signed.insert_record(record))
            elif kind == "delete":
                receipts.append(signed.delete_record(record))
            else:
                receipts.append(signed.update_record(record, replacement))
        return UpdateReceipt.merge(receipts)

    # -- joins ---------------------------------------------------------------------------

    def answer_join(
        self, join: JoinQuery, role: Optional[str] = None
    ) -> PublishedJoinResult:
        """Answer a PK-FK join (Section 4.3) with completeness and authenticity proofs.

        Completeness is proven on the foreign-key side (the left relation,
        which must be signed in foreign-key sort order); each joined
        primary-key record is additionally proven authentic and unique through
        a point-query proof on the right relation.
        """
        left_signed = self.signed_relation(join.left_relation)
        right_signed = self.signed_relation(join.right_relation)
        if left_signed.schema.key != join.foreign_key:
            raise ProofConstructionError(
                "the left relation must be signed in foreign-key order for join proofs"
            )
        if right_signed.schema.key != join.primary_key:
            raise ProofConstructionError(
                "the right relation must be signed in primary-key order for join proofs"
            )
        selection = Query(join.left_relation, join.where, join.projection)
        left_result = self.answer(selection, role)
        if left_result.proof is None:
            return PublishedJoinResult([], None, join, [])

        right_point_proofs: Dict[int, RangeQueryProof] = {}
        right_rows_by_key: Dict[int, Dict[str, object]] = {}
        foreign_values = sorted(
            {row[join.foreign_key] for row in left_result.rows}
        )
        point_results = self._answer_points_batch(join, foreign_values)
        for value in foreign_values:
            point_result = point_results[value]
            if point_result.proof is None or len(point_result.rows) != 1:
                raise ProofConstructionError(
                    f"referential integrity violation: {join.foreign_key}={value} has "
                    f"{len(point_result.rows)} matches in {join.right_relation!r}"
                )
            right_point_proofs[value] = point_result.proof
            right_rows_by_key[value] = point_result.rows[0]

        joined_rows = []
        for left_row in left_result.rows:
            right_row = right_rows_by_key[left_row[join.foreign_key]]
            combined = {
                f"{join.left_relation}.{name}": value for name, value in left_row.items()
            }
            combined.update(
                {
                    f"{join.right_relation}.{name}": value
                    for name, value in right_row.items()
                }
            )
            joined_rows.append(combined)
        proof = JoinQueryProof(
            left_proof=left_result.proof, right_point_proofs=right_point_proofs
        )
        return PublishedJoinResult(
            rows=joined_rows,
            proof=proof,
            rewritten_query=join,
            left_rows=left_result.rows,
        )

    def _answer_points_batch(
        self, join: JoinQuery, values: Sequence[int]
    ) -> Dict[int, PublishedResult]:
        """Point proofs on the primary-key side for all foreign keys of a join.

        All point ranges are located by one shared left-to-right scan over the
        relation's sorted key index (``values`` is sorted ascending, each
        bisect resumes where the previous one stopped); each located range is
        then assembled through the exact same :meth:`_build_range_result` path
        an individual point query would take, so the resulting proofs are
        byte-identical to per-value answers.
        """
        right_signed = self.signed_relation(join.right_relation)
        domain = right_signed.domain
        in_domain = [value for value in values if domain.contains(value)]
        indices = right_signed.relation.point_indices_batch(in_domain)
        results: Dict[int, PublishedResult] = {}
        for value in values:
            point_query = Query(
                join.right_relation,
                Conjunction((RangeCondition(join.primary_key, value, value),)),
                Projection(),
            )
            alpha, beta = domain.clamp_range(value, value)
            if alpha > beta:
                results[value] = PublishedResult(
                    join.right_relation, [], None, point_query
                )
                continue
            start, stop = indices[value]
            results[value] = self._build_range_result(
                right_signed, point_query, (), None, alpha, beta, start, stop
            )
        return results
