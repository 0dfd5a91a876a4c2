"""User-side verification of relational query results.

The verifier holds only what the owner distributed through an authenticated
channel: per-relation :class:`~repro.core.relational.RelationManifest` objects
(schema, key domain, digest-scheme configuration) and the owner's public key.
From those, plus the query it issued and the rows and proof the publisher
returned, it reconstructs every ``g`` digest and chain message and checks them
against the owner's signatures.

Verification raises a :class:`~repro.core.errors.VerificationError` subclass
describing the problem; on success it returns a
:class:`~repro.core.report.VerificationReport` with cost accounting used by the
benchmarks.
"""

from __future__ import annotations

import contextlib
from types import SimpleNamespace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.errors import (
    AuthenticityError,
    CompletenessError,
    VerificationError,
)
from repro.core.proof import (
    BoundaryEntryProof,
    FilteredEntryProof,
    JoinQueryProof,
    MatchedEntryProof,
    RangeQueryProof,
)
from repro.core.relational import RelationManifest
from repro.core.report import VerificationReport
from repro.crypto.aggregate import (
    AggregateSignature,
    batch_verify_signatures,
    find_invalid_signature,
    verify_aggregate,
)
from repro.crypto.backend import backend_stats
from repro.crypto.rsa import fdh_cache_stats
from repro.crypto.encoding import concat_digests
from repro.crypto.hashing import HASH_COUNTER
from repro.db.access_control import AccessControlPolicy, visibility_column_name
from repro.db.query import Conjunction, JoinQuery, Projection, Query, RangeCondition
from repro.db.records import attribute_digests
from repro.db.schema import Schema

__all__ = ["ResultVerifier", "check_signature_bundle"]


def check_signature_bundle(
    messages: Sequence[bytes],
    individual: Sequence[int],
    aggregate: Optional[AggregateSignature],
    public_key,
) -> Optional[Tuple[str, str]]:
    """Does a signature bundle vouch for exactly ``messages``?

    The one "aggregate, else count-check, else per-signature" decision every
    verifier shares (chain, value-list and naive per-tuple).  Returns None
    when the bundle is accepted, otherwise ``(reason, what)``: the ``reason``
    code of the typed error the caller raises (``signature-mismatch`` /
    ``signature-count-mismatch``) and the part of the bundle that failed,
    worded to start the caller's message.

    Individual signatures verify in one accumulated pass (the
    Bellare-Garay-Rabin screening test; ~3x faster than one modular
    exponentiation per message); only on failure does per-signature
    verification run, to localise the broken entry.
    """
    if aggregate is not None:
        if not messages:
            return "signature-count-mismatch", "an aggregate over zero messages"
        if not verify_aggregate(aggregate, messages, public_key):
            return "signature-mismatch", "the aggregated signature"
        return None
    if len(individual) != len(messages):
        return "signature-count-mismatch", "the number of signatures"
    if not messages:
        return None
    if len(messages) == 1:
        if public_key.verify(messages[0], individual[0]):
            return None
        return "signature-mismatch", "signature 0"
    if batch_verify_signatures(messages, individual, public_key):
        return None
    bad_index = find_invalid_signature(messages, individual, public_key)
    return (
        "signature-mismatch",
        f"signature {bad_index}" if bad_index is not None else "the signature batch",
    )


@contextlib.contextmanager
def _malformed_input_guard():
    """Convert structural breakage into a typed ``malformed-proof`` rejection.

    The chain-digest schemes raise ``ValueError`` for assists whose shape no
    honest publisher could produce (a missing representation-tree root, the
    wrong number of intermediate digests), and comparisons inside condition
    checks raise ``TypeError`` when a row value has an impossible type.  For a
    verifier those are all just failed verifications — the guard keeps the
    public API's contract: accept, or reject with a ``VerificationError``.
    """
    try:
        yield
    except VerificationError:
        raise
    except (ValueError, TypeError, KeyError, IndexError, OverflowError) as error:
        raise VerificationError(
            f"malformed result or proof: {error}", reason="malformed-proof"
        ) from error


class ResultVerifier:
    """Verifies relational query results against owner-signed chains."""

    def __init__(
        self,
        manifests: Mapping[str, RelationManifest],
        policy: Optional[AccessControlPolicy] = None,
        memoize: bool = True,
    ) -> None:
        self.manifests: Dict[str, RelationManifest] = dict(manifests)
        self.policy = policy
        self.memoize = memoize
        # Chain schemes (and their digest memos) are kept per scheme
        # parameters — everything a digest depends on, and not ``sequence`` —
        # so a verifier checking many results over the same relation re-uses
        # the digests it derived, across manifest rotations too.
        # ``memoize=False`` keeps the schemes but strips their memos, so cost
        # benchmarks can count the hashes of a from-scratch verification.
        self._scheme_cache: Dict[tuple, tuple] = {}

    def _chain_schemes(self, manifest: RelationManifest) -> tuple:
        """The manifest's (upper, lower) chain schemes, built once per parameter set."""
        key = (manifest.base, manifest.hash_name, manifest.domain)
        cached = self._scheme_cache.get(key)
        if cached is None:
            cached = manifest.chain_schemes(self.memoize)
            self._scheme_cache[key] = cached
        return cached

    def cache_stats(self) -> Dict[str, object]:
        """Counters of the verifier-side memos, for long-running clients.

        ``fdh`` is the module-wide full-domain-hash representative memo (the
        dominant verification cache: every chain message's representative is
        hashed once and reused across answers); ``chain_schemes`` counts the
        per-parameter-set persistent schemes this verifier holds;
        ``crypto_backend`` reports which arithmetic backend (``libcrypto`` or
        ``python``) is serving the modular exponentiations, and whether it is
        native.
        """
        return {
            "fdh": fdh_cache_stats(),
            "chain_schemes": {"size": len(self._scheme_cache)},
            "crypto_backend": backend_stats(),
        }

    @classmethod
    def for_relation(
        cls, name: str, manifest: RelationManifest, policy=None
    ) -> "ResultVerifier":
        """Convenience constructor for a single relation."""
        return cls({name: manifest}, policy)

    def manifest(self, relation_name: str) -> RelationManifest:
        try:
            return self.manifests[relation_name]
        except KeyError as error:
            raise VerificationError(
                f"no manifest available for relation {relation_name!r}",
                reason="unknown-relation",
            ) from error

    # -- range / multipoint / projection queries ------------------------------------------

    def verify(
        self,
        query: Query,
        rows: Sequence[Mapping[str, object]],
        proof: Optional[RangeQueryProof],
        role: Optional[str] = None,
    ) -> VerificationReport:
        """Verify a select-project(-multipoint) result.

        ``query`` is the query as the *user* issued it; when a ``role`` and a
        policy are available the verifier applies the same rewriting the
        publisher is supposed to apply, so a publisher that ignores access
        control is caught as well.

        The outcome is always either a report or a typed
        :class:`~repro.core.errors.VerificationError`: structurally broken
        input (a proof whose shape no honest publisher could produce, rows
        with impossible value types) is converted to a ``malformed-proof``
        rejection rather than escaping as a raw ``ValueError``/``TypeError``.
        Results decoded from untrusted wire bytes hit this path whenever
        tampering survives the codec's own validation.
        """
        with _malformed_input_guard():
            return self._verify(query, rows, proof, role)

    def _verify(
        self,
        query: Query,
        rows: Sequence[Mapping[str, object]],
        proof: Optional[RangeQueryProof],
        role: Optional[str] = None,
    ) -> VerificationReport:
        start_hashes = HASH_COUNTER.count
        manifest = self.manifest(query.relation_name)
        schema = manifest.schema
        rewritten = (
            self.policy.rewrite(query, role, schema)
            if role is not None and self.policy is not None
            else query
        )
        key_condition = rewritten.where.key_condition(schema)
        if key_condition is None:
            key_condition = RangeCondition(schema.key, None, None)
        alpha, beta = key_condition.bounds(manifest.domain)

        if alpha > beta:
            if rows or proof is not None:
                raise VerificationError(
                    "the query range is empty, yet the publisher returned data",
                    reason="vacuous-range",
                )
            return VerificationReport(result_rows=0)
        if proof is None:
            raise CompletenessError(
                "the publisher did not attach a completeness proof",
                reason="missing-proof",
            )
        if proof.key_low != alpha or proof.key_high != beta:
            raise VerificationError(
                "the proof speaks about a different key range than the query",
                reason="range-mismatch",
            )
        hash_function = manifest.hash_function()
        width = len(proof.lower_boundary.attribute_root)
        if width != hash_function.digest_size:
            # A decoded proof carries every digest at the one width it declares.
            raise VerificationError(
                f"the proof's digests are {width} bytes, the manifest's "
                f"{manifest.hash_name} digests {hash_function.digest_size}",
                reason="malformed-proof",
            )

        projection = rewritten.projection
        upper_scheme, lower_scheme = self._chain_schemes(manifest)
        # What every entry of this answer is checked against: derived once
        # here, not once per row.
        constants = SimpleNamespace(
            key_name=schema.key,
            domain=manifest.domain,
            upper_scheme=upper_scheme,
            lower_scheme=lower_scheme,
            hash_function=hash_function,
            expected_names=set(projection.effective_attributes(schema)),
            leaf_heads=schema.attribute_leaf_heads,
        )

        lower_digest = self._boundary_digest(
            proof.lower_boundary, "lower", alpha, beta, constants
        )
        upper_digest = self._boundary_digest(
            proof.upper_boundary, "upper", alpha, beta, constants
        )

        non_key_conditions = rewritten.where.non_key_conditions(schema)
        entry_digests: List[bytes] = []
        row_iterator = iter(rows)
        consumed_rows = 0

        for entry in proof.entries:
            if isinstance(entry, MatchedEntryProof):
                if entry.eliminated_duplicate:
                    digest = self._duplicate_entry_digest(
                        entry, rows, alpha, beta, constants, projection
                    )
                else:
                    try:
                        row = next(row_iterator)
                    except StopIteration:
                        raise CompletenessError(
                            "the proof covers more matched records than rows returned",
                            reason="row-count-mismatch",
                        ) from None
                    consumed_rows += 1
                    digest = self._matched_entry_digest(
                        entry, row, alpha, beta, constants, non_key_conditions
                    )
            elif isinstance(entry, FilteredEntryProof):
                digest = self._filtered_entry_digest(
                    entry, constants, non_key_conditions, role
                )
            else:  # pragma: no cover - defensive
                raise VerificationError("unknown proof entry type")
            entry_digests.append(digest)

        if consumed_rows != len(rows):
            raise VerificationError(
                "the publisher returned rows that the proof does not cover",
                reason="row-count-mismatch",
            )

        messages = self._chain_messages(
            proof, lower_digest, upper_digest, entry_digests, constants.hash_function
        )
        bundle = proof.signatures
        failure = check_signature_bundle(
            messages, bundle.individual, bundle.aggregate, manifest.public_key
        )
        if failure is not None:
            reason, what = failure
            raise CompletenessError(
                f"{what} does not match the reconstructed chain", reason=reason
            )
        return VerificationReport(
            checked_messages=len(messages),
            # One modular exponentiation per answer either way: condensed
            # aggregates verify as one product, and individual bundles go
            # through the accumulated screening pass of check_signature_bundle.
            signature_verifications=1,
            hash_operations=HASH_COUNTER.count - start_hashes,
            result_rows=len(rows),
        )

    # -- digest reconstruction -------------------------------------------------------------

    def _boundary_digest(
        self,
        boundary: BoundaryEntryProof,
        expected_side: str,
        alpha: int,
        beta: int,
        constants: SimpleNamespace,
    ) -> bytes:
        """Reassemble ``g`` for a boundary record from its boundary proof."""
        if boundary.side != expected_side:
            raise VerificationError(
                f"expected a {expected_side!r} boundary proof, got {boundary.side!r}",
                reason="boundary-side-mismatch",
            )
        domain = constants.domain
        if expected_side == "lower":
            derived = constants.upper_scheme.recompute_from_boundary(
                domain.upper - alpha, boundary.chain_boundary
            )
            return concat_digests(
                derived, boundary.other_chain_digest, boundary.attribute_root
            )
        derived = constants.lower_scheme.recompute_from_boundary(
            beta - domain.lower, boundary.chain_boundary
        )
        return concat_digests(
            boundary.other_chain_digest, derived, boundary.attribute_root
        )

    def _entry_chain_digests(
        self, key: int, entry: MatchedEntryProof, constants: SimpleNamespace
    ) -> Tuple[bytes, bytes]:
        domain = constants.domain
        upper = constants.upper_scheme.recompute_from_value(
            key, domain.upper - key - 1, entry.upper_assist
        )
        lower = constants.lower_scheme.recompute_from_value(
            key, key - domain.lower - 1, entry.lower_assist
        )
        return upper, lower

    def _matched_entry_digest(
        self,
        entry: MatchedEntryProof,
        row: Mapping[str, object],
        alpha: int,
        beta: int,
        constants: SimpleNamespace,
        non_key_conditions: Sequence[object],
    ) -> bytes:
        key_name = constants.key_name
        if key_name not in row:
            raise VerificationError(
                "result rows must include the sort-key attribute",
                reason="missing-key",
            )
        key = row[key_name]
        if not isinstance(key, int) or not (alpha <= key <= beta):
            raise CompletenessError(
                f"result row key {key!r} falls outside the query range",
                reason="key-out-of-range",
            )
        if row.keys() != constants.expected_names:
            raise VerificationError(
                "result row attributes do not match the query projection",
                reason="projection-mismatch",
            )
        for condition in non_key_conditions:
            attribute = getattr(condition, "attribute", None)
            if attribute in row and not condition.matches(_RowView(row)):
                raise VerificationError(
                    f"result row violates the query condition on {attribute!r}",
                    reason="spurious-row",
                )
        attribute_root = self._attribute_root(
            row, entry.dropped_attribute_digests, constants
        )
        upper, lower = self._entry_chain_digests(key, entry, constants)
        return concat_digests(upper, lower, attribute_root)

    def _duplicate_entry_digest(
        self,
        entry: MatchedEntryProof,
        rows: Sequence[Mapping[str, object]],
        alpha: int,
        beta: int,
        constants: SimpleNamespace,
        projection: Projection,
    ) -> bytes:
        """Digest of an eliminated DISTINCT duplicate (Section 4.2)."""
        if not projection.distinct:
            raise VerificationError(
                "the proof eliminates duplicates although the query did not ask for DISTINCT",
                reason="unexpected-duplicate",
            )
        if entry.key is None:
            raise VerificationError(
                "an eliminated duplicate must disclose its key value",
                reason="missing-key",
            )
        if not (alpha <= entry.key <= beta):
            raise CompletenessError(
                "an eliminated duplicate's key falls outside the query range",
                reason="key-out-of-range",
            )
        revealed = dict(entry.revealed_attributes)
        matches_existing = any(
            all(row.get(name) == value for name, value in revealed.items())
            for row in rows
        )
        if not matches_existing:
            raise CompletenessError(
                "a record was eliminated as a duplicate but matches no returned row",
                reason="false-duplicate",
            )
        attribute_root = self._attribute_root(
            revealed, entry.dropped_attribute_digests, constants
        )
        upper, lower = self._entry_chain_digests(entry.key, entry, constants)
        return concat_digests(upper, lower, attribute_root)

    def _filtered_entry_digest(
        self,
        entry: FilteredEntryProof,
        constants: SimpleNamespace,
        non_key_conditions: Sequence[object],
        role: Optional[str],
    ) -> bytes:
        """Digest of an in-range record the query filters out (Section 4.4)."""
        revealed = dict(entry.revealed_attributes)
        if not revealed:
            raise CompletenessError(
                "a filtered record must justify its exclusion",
                reason="unjustified-filtering",
            )
        if entry.reason == "access-control":
            if role is None:
                raise VerificationError(
                    "the proof hides records behind access control, but no role was given",
                    reason="missing-role",
                )
            column = visibility_column_name(role)
            if revealed.get(column) is not False:
                raise CompletenessError(
                    "a record was hidden for access-control reasons although the "
                    "visibility column does not say so",
                    reason="unjustified-filtering",
                )
        elif entry.reason == "predicate":
            justified = False
            for condition in non_key_conditions:
                attribute = getattr(condition, "attribute", None)
                if attribute in revealed and not condition.matches(_RowView(revealed)):
                    justified = True
                    break
            if not justified:
                raise CompletenessError(
                    "a filtered record's revealed attributes satisfy every query condition",
                    reason="unjustified-filtering",
                )
        else:
            raise VerificationError(
                f"unknown filtering reason {entry.reason!r}", reason="bad-proof"
            )
        attribute_root = self._attribute_root(
            revealed, entry.attribute_leaf_digests, constants
        )
        return concat_digests(
            entry.upper_chain_digest, entry.lower_chain_digest, attribute_root
        )

    def _attribute_root(
        self,
        revealed: Mapping[str, object],
        provided_digests: Mapping[str, bytes],
        constants: SimpleNamespace,
    ) -> bytes:
        """Rebuild ``MHT(r.A)`` from revealed values and provided leaf digests."""
        try:
            return attribute_digests(
                constants.leaf_heads, revealed, constants.hash_function, provided_digests
            )[1]
        except KeyError as missing:
            raise VerificationError(
                "the proof provides neither value nor digest for attribute "
                f"{missing.args[0]!r}",
                reason="missing-attribute-digest",
            ) from None

    # -- chain messages and signatures --------------------------------------------------------

    def _chain_messages(
        self,
        proof: RangeQueryProof,
        lower_digest: bytes,
        upper_digest: bytes,
        entry_digests: List[bytes],
        hash_function,
    ) -> List[bytes]:
        if entry_digests:
            new = hash_function.constructor
            chain = [lower_digest] + entry_digests + [upper_digest]
            messages = [
                new(chain[i - 1] + chain[i] + chain[i + 1]).digest()
                for i in range(1, len(chain) - 1)
            ]
            HASH_COUNTER.count += len(messages)
            return messages
        if proof.outer_neighbor_digest is None:
            raise CompletenessError(
                "an empty result needs the outer neighbour digest of the boundary pair",
                reason="missing-outer-digest",
            )
        return [
            hash_function.combine(
                proof.outer_neighbor_digest, lower_digest, upper_digest
            )
        ]

    # -- joins ------------------------------------------------------------------------------

    def verify_join(
        self,
        join: JoinQuery,
        rows: Sequence[Mapping[str, object]],
        proof: Optional[JoinQueryProof],
        left_rows: Sequence[Mapping[str, object]],
        role: Optional[str] = None,
    ) -> VerificationReport:
        """Verify a PK-FK join result (Section 4.3).

        Like :meth:`verify`, always rejects with a typed
        :class:`~repro.core.errors.VerificationError` — never a raw
        ``ValueError``/``TypeError`` — when handed structurally broken input.
        """
        with _malformed_input_guard():
            return self._verify_join(join, rows, proof, left_rows, role)

    def _verify_join(
        self,
        join: JoinQuery,
        rows: Sequence[Mapping[str, object]],
        proof: Optional[JoinQueryProof],
        left_rows: Sequence[Mapping[str, object]],
        role: Optional[str] = None,
    ) -> VerificationReport:
        left_query = Query(join.left_relation, join.where, join.projection)
        if proof is None:
            report = self.verify(left_query, left_rows, None, role)
            if rows:
                raise VerificationError(
                    "vacuous join reported rows", reason="vacuous-range"
                )
            return report
        report = self.verify(left_query, left_rows, proof.left_proof, role)

        right_manifest = self.manifest(join.right_relation)
        joined: List[Dict[str, object]] = []
        verified_right: Dict[int, Mapping[str, object]] = {}
        for left_row in left_rows:
            value = left_row.get(join.foreign_key)
            if value not in proof.right_point_proofs:
                raise CompletenessError(
                    f"no authenticity proof for joined key {value!r}",
                    reason="missing-join-proof",
                )
            if value not in verified_right:
                point_query = Query(
                    join.right_relation,
                    Conjunction((RangeCondition(join.primary_key, value, value),)),
                    Projection(),
                )
                right_row = self._verify_point_lookup(
                    point_query, proof.right_point_proofs[value], rows, value
                )
                verified_right[value] = right_row
                report = report.merge(
                    VerificationReport(checked_messages=1, result_rows=1)
                )
            combined = {
                f"{join.left_relation}.{name}": item for name, item in left_row.items()
            }
            combined.update(
                {
                    f"{join.right_relation}.{name}": item
                    for name, item in verified_right[value].items()
                }
            )
            joined.append(combined)

        if [dict(row) for row in rows] != joined:
            raise VerificationError(
                "the joined rows do not match the verified left and right partitions",
                reason="join-mismatch",
            )
        return report

    def _verify_point_lookup(
        self,
        point_query: Query,
        point_proof: RangeQueryProof,
        all_rows: Sequence[Mapping[str, object]],
        value: int,
    ) -> Mapping[str, object]:
        """Verify a single-key lookup on the primary-key side of a join."""
        prefix = f"{point_query.relation_name}."
        candidate_rows = []
        for row in all_rows:
            key_attr = prefix + self.manifest(point_query.relation_name).schema.key
            if row.get(key_attr) == value:
                candidate = {
                    name[len(prefix) :]: item
                    for name, item in row.items()
                    if name.startswith(prefix)
                }
                if candidate not in candidate_rows:
                    candidate_rows.append(candidate)
        if len(candidate_rows) != 1:
            raise CompletenessError(
                f"expected exactly one primary-key record for key {value!r}",
                reason="join-cardinality",
            )
        self.verify(point_query, candidate_rows, point_proof, role=None)
        return candidate_rows[0]


class _RowView:
    """Adapts a plain mapping to the ``record.get`` interface conditions expect."""

    def __init__(self, values: Mapping[str, object]) -> None:
        self._values = values

    def get(self, name: str, default=None):
        return self._values.get(name, default)

    def __getitem__(self, name: str):
        return self._values[name]
