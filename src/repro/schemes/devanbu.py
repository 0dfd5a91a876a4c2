"""Devanbu et al. Merkle-tree publication as a registered ``ProofScheme``.

Devanbu, Gertz, Martel and Stubblebine ("Authentic Data Publication over the
Internet", 2000) — reference [10] of the paper — authenticate query results by
building a Merkle hash tree over every sort order of a table and signing the
root.  To prove completeness of a range query the publisher must *expand* the
result with the tuples immediately beyond its left and right boundaries and
ship the sibling digests up to the root.

The scheme **does** prove completeness, which is exactly why it is the paper's
main comparison target.  The paper criticises it on five counts (Section 2.3);
the benchmarks quantify them, here and live via ``repro.bench.schemes``:

1. one MHT per sort order (same as the proposed scheme, so not benchmarked),
2. the VO grows logarithmically with the *table* size (``bench_vo_scaling``),
3. projected-out attributes must still be shipped (``bench_precision_comparison``),
4. the boundary tuples are exposed in full, potentially violating row-level
   access control (``bench_precision_comparison``),
5. range queries on unsorted attributes are not supported (no equivalent of
   the multipoint machinery exists here).

Updates must recompute every digest on the leaf-to-root path and re-sign the
root (``bench_update_cost``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.errors import CompletenessError, VerificationError
from repro.core.relational import RelationManifest, UpdateReceipt
from repro.core.report import VerificationReport
from repro.crypto.encoding import encode_record_payload
from repro.crypto.hashing import HashFunction
from repro.crypto.signature import SignatureScheme
from repro.db.relation import Relation
from repro.schemes.base import (
    ProofScheme,
    SchemePublication,
    SchemeVerifier,
    check_plain_range_query,
    range_bounds,
    register_scheme,
)
from repro.wire import codec

__all__ = [
    "DevanbuProof",
    "DevanbuScheme",
    "DevanbuPublication",
    "DevanbuSchemeVerifier",
]


@dataclass(frozen=True)
class DevanbuProof:
    """Verification object of the Devanbu scheme for one range query.

    Attributes
    ----------
    expanded_rows:
        The result tuples *plus* the boundary tuples just outside the range,
        each with every attribute (no projection is possible).
    sibling_digests:
        Digests of the maximal subtrees not overlapping the expanded range, in
        the deterministic order the verifier's recursion consumes them.
    root_signature:
        The owner's signature over the root digest.
    left_is_table_start, right_is_table_end:
        True when the expanded range abuts the corresponding end of the table
        (no boundary tuple exists on that side).
    """

    expanded_rows: Tuple[Dict[str, object], ...]
    sibling_digests: Tuple[bytes, ...]
    root_signature: int
    leaf_range: Tuple[int, int]
    table_size: int
    left_is_table_start: bool
    right_is_table_end: bool

    @property
    def digest_count(self) -> int:
        return len(self.sibling_digests)

    @property
    def signature_count(self) -> int:
        return 1

    @property
    def boundary_rows_exposed(self) -> int:
        """How many out-of-range tuples the user gets to see."""
        return (0 if self.left_is_table_start else 1) + (0 if self.right_is_table_end else 1)

    def size_bytes(self, digest_bytes: int, signature_bytes: int) -> int:
        return self.digest_count * digest_bytes + self.signature_count * signature_bytes


def _leaf_digest(hash_function: HashFunction, row, attribute_names) -> bytes:
    return hash_function.digest(b"devanbu-leaf|" + encode_record_payload(row, attribute_names))


_ROW = codec.MapField(codec.STR, codec.SCALAR)

#: Wire field-spec of the Devanbu VO (single source for writer/reader/JSON).
DEVANBU_PROOF_FIELDS = (
    ("expanded_rows", codec.TupleField(_ROW)),
    ("sibling_digests", codec.TupleField(codec.BYTES)),
    ("root_signature", codec.INT),
    ("leaf_range", codec.PairField(codec.INT, codec.INT)),
    ("table_size", codec.INT),
    ("left_is_table_start", codec.BOOL),
    ("right_is_table_end", codec.BOOL),
)


def _post_devanbu(proof: DevanbuProof) -> None:
    lo, hi = proof.leaf_range
    if not (proof.table_size >= 0 and 0 <= lo <= hi <= proof.table_size):
        raise codec.WireFormatError(
            "Devanbu proof leaf range is inconsistent with its table size",
            reason="invalid-artifact",
        )
    if len(proof.expanded_rows) != hi - lo:
        raise codec.WireFormatError(
            "Devanbu proof expanded rows disagree with its leaf range",
            reason="invalid-artifact",
        )


codec.register_artifact(0x51, DevanbuProof, DEVANBU_PROOF_FIELDS, post=_post_devanbu)


class DevanbuPublication(SchemePublication):
    """Owner/publisher-side state: the sorted relation plus its signed MHT."""

    scheme_name = "devanbu"

    def __init__(
        self,
        relation: Relation,
        signature_scheme: SignatureScheme,
        hash_function: Optional[HashFunction] = None,
    ) -> None:
        super().__init__(relation, signature_scheme, hash_function)
        self._rebuild()

    # -- tree construction ---------------------------------------------------

    def _rebuild(self) -> None:
        names = self.schema.attribute_names
        self._leaves = [
            _leaf_digest(self.hash_function, record.as_dict(), names) for record in self.relation
        ]
        self.root = self._subtree_digest(0, len(self._leaves))
        self.root_signature = self._signature_scheme.sign(self.root)

    def _subtree_digest(self, start: int, stop: int) -> bytes:
        if stop - start == 0:
            return self.hash_function.digest(b"devanbu-empty")
        if stop - start == 1:
            return self._leaves[start]
        mid = (start + stop + 1) // 2
        return self.hash_function.digest(
            b"devanbu-node|" + self._subtree_digest(start, mid) + self._subtree_digest(mid, stop)
        )

    @property
    def height(self) -> int:
        """Tree height (number of internal levels)."""
        size = max(1, len(self._leaves))
        height = 0
        while size > 1:
            size = (size + 1) // 2
            height += 1
        return height

    # -- query answering -----------------------------------------------------

    def answer_range(self, low: int, high: int) -> Tuple[List[dict], DevanbuProof]:
        """Answer ``low <= key <= high`` with the expanded result and its VO."""
        start, stop = self.relation.range_indices(low, high)
        expanded_start = max(0, start - 1)
        expanded_stop = min(len(self._leaves), stop + 1)
        expanded = [
            self.relation[index].as_dict() for index in range(expanded_start, expanded_stop)
        ]
        siblings: List[bytes] = []
        self._collect_siblings(0, len(self._leaves), expanded_start, expanded_stop, siblings)
        proof = DevanbuProof(
            expanded_rows=tuple(expanded),
            sibling_digests=tuple(siblings),
            root_signature=self.root_signature,
            leaf_range=(expanded_start, expanded_stop),
            table_size=len(self._leaves),
            left_is_table_start=start == 0,
            right_is_table_end=stop == len(self._leaves),
        )
        rows = [self.relation[index].as_dict() for index in range(start, stop)]
        return rows, proof

    def _collect_siblings(self, start: int, stop: int, lo: int, hi: int, out: List[bytes]) -> None:
        """Digests of maximal subtrees outside ``[lo, hi)``, left to right."""
        if stop <= lo or start >= hi or start >= stop:
            if start < stop:
                out.append(self._subtree_digest(start, stop))
            return
        if stop - start == 1:
            return  # in-range leaf: the verifier recomputes it from the tuple
        mid = (start + stop + 1) // 2
        self._collect_siblings(start, mid, lo, hi, out)
        self._collect_siblings(mid, stop, lo, hi, out)

    # -- updates -------------------------------------------------------------

    def _rebuild_receipt(self) -> UpdateReceipt:
        """Every mutation re-hashes the leaf-to-root path and re-signs the
        root — the locking hot-spot the paper's Section 6.3 points out.  The
        affected "entry" is the root."""
        path_length = self.height + 1
        self._rebuild()
        return UpdateReceipt(
            signatures_recomputed=1,
            digests_recomputed=path_length,
            entries_affected=(0,),
            chain_messages_recomputed=1,
        )

    def _apply_insert(self, record) -> UpdateReceipt:
        self.relation.insert(record)
        return self._rebuild_receipt()

    def _apply_delete(self, record) -> UpdateReceipt:
        self.relation.delete(record)
        return self._rebuild_receipt()


class DevanbuSchemeVerifier(SchemeVerifier):
    """User-side verification against the owner-signed Merkle root.

    Besides reconstructing the root from the expanded rows and the sibling
    digests, the verifier pins the *result rows* to the in-range slice of the
    authenticated expanded rows — a tampered result row can then never hide
    behind an honest expansion — and checks that every expanded tuple carries
    exactly the schema attributes (extra, unauthenticated attributes are
    rejected rather than passed through).
    """

    def __init__(self, relation_name: str, manifest: RelationManifest) -> None:
        self.relation_name = relation_name
        self.manifest = manifest
        self.hash_function = manifest.hash_function()

    def _verify(self, query, rows, proof, role) -> VerificationReport:
        DEVANBU.check_proof_type(proof)
        schema = self.manifest.schema
        check_plain_range_query("devanbu", query, schema, role)
        alpha, beta = range_bounds(query, schema, self.manifest.domain)
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
        names = set(schema.attribute_names)
        for row in proof.expanded_rows:
            if set(row) != names:
                raise VerificationError(
                    "an expanded tuple does not carry exactly the schema attributes",
                    reason="tampered-result",
                )
        key = schema.key
        expanded = [dict(row) for row in proof.expanded_rows]
        # A table-edge claim must match the leaf range: left_is_table_start
        # with leaf_range[0] != 0 (or the right-side dual) means the
        # publisher hid a slice of the table behind sibling digests while
        # pretending nothing qualifies there — the completeness forgery this
        # scheme exists to prevent.
        if proof.left_is_table_start and proof.leaf_range[0] != 0:
            raise CompletenessError(
                "the proof claims the range abuts the table start, but its "
                "leaf range does not begin at leaf 0",
                reason="boundary-flag-mismatch",
            )
        if proof.right_is_table_end and proof.leaf_range[1] != proof.table_size:
            raise CompletenessError(
                "the proof claims the range abuts the table end, but its "
                "leaf range stops short of the table size",
                reason="boundary-flag-mismatch",
            )
        # The expansion's shape is fully determined by the boundary flags: one
        # leading below-range tuple unless the range abuts the table start,
        # one trailing above-range tuple unless it abuts the table end, and
        # everything between strictly inside [alpha, beta].  Checking the
        # shape (rather than filtering by key) pins the flags themselves — a
        # flipped flag can never be a harmless no-op.
        leading = 0 if proof.left_is_table_start else 1
        trailing = 0 if proof.right_is_table_end else 1
        if len(expanded) < leading + trailing:
            raise CompletenessError(
                "the expansion is smaller than its boundary flags require",
                reason="row-mismatch",
            )
        for row in expanded[:leading]:
            if not isinstance(row.get(key), int) or row[key] >= alpha:
                raise CompletenessError(
                    "the left boundary tuple does not precede the query range",
                    reason="row-mismatch",
                )
        for row in expanded[len(expanded) - trailing :]:
            if not isinstance(row.get(key), int) or row[key] <= beta:
                raise CompletenessError(
                    "the right boundary tuple does not follow the query range",
                    reason="row-mismatch",
                )
        in_range = expanded[leading : len(expanded) - trailing]
        for row in in_range:
            if not isinstance(row.get(key), int) or not (alpha <= row[key] <= beta):
                raise CompletenessError(
                    "an expansion tuple between the boundaries falls outside "
                    "the query range",
                    reason="row-mismatch",
                )
        if [dict(row) for row in rows] != in_range:
            raise CompletenessError(
                "the result rows are not the in-range slice of the "
                "authenticated expansion",
                reason="row-mismatch",
            )
        leaf_digests = [
            _leaf_digest(self.hash_function, row, schema.attribute_names) for row in expanded
        ]
        siblings = list(proof.sibling_digests)
        root = self._reconstruct(0, proof.table_size, *proof.leaf_range, leaf_digests, siblings)
        if (
            siblings
            or leaf_digests
            or not self.manifest.public_key.verify(root, proof.root_signature)
        ):
            raise CompletenessError(
                "the expanded result does not reconstruct the signed Merkle root",
                reason="signature-mismatch",
            )
        return VerificationReport(
            checked_messages=1,
            signature_verifications=1,
            result_rows=len(rows),
        )

    def _reconstruct(
        self,
        start: int,
        stop: int,
        lo: int,
        hi: int,
        leaf_digests: List[bytes],
        siblings: List[bytes],
    ) -> bytes:
        """Mirror of ``DevanbuPublication._collect_siblings``: consume leaf
        and sibling digests in the order the publisher emitted them."""
        if stop <= lo or start >= hi or start >= stop:
            if start < stop:
                return siblings.pop(0)
            return self.hash_function.digest(b"devanbu-empty")
        if stop - start == 1:
            return leaf_digests.pop(0)
        mid = (start + stop + 1) // 2
        left = self._reconstruct(start, mid, lo, hi, leaf_digests, siblings)
        right = self._reconstruct(mid, stop, lo, hi, leaf_digests, siblings)
        return self.hash_function.digest(b"devanbu-node|" + left + right)


class DevanbuScheme(ProofScheme):
    """Registry entry for the Devanbu et al. Merkle-tree baseline."""

    name = "devanbu"
    proves_completeness = True
    supports_joins = False
    vo_type = DevanbuProof

    def publish(
        self,
        relation: Relation,
        signature_scheme: SignatureScheme,
        hash_function: Optional[HashFunction] = None,
        **parameters,
    ) -> DevanbuPublication:
        return DevanbuPublication(relation, signature_scheme, hash_function)

    def verifier_for(
        self,
        relation_name: str,
        manifest: RelationManifest,
        policy=None,
    ) -> DevanbuSchemeVerifier:
        return DevanbuSchemeVerifier(relation_name, manifest)


DEVANBU = register_scheme(DevanbuScheme())
