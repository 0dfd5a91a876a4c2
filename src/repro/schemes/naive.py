"""Naive per-tuple signatures as a registered ``ProofScheme``.

The strawman the paper's related-work section starts from: the owner signs
the digest of every tuple, the publisher ships matching tuples with their
signatures, and the user verifies them.  Verification cost is one signature
per result tuple unless the publisher condenses them — which is what Section
5.2's aggregation (and the Ma et al. scheme) set out to remove.

Authenticity only — dropping qualifying tuples is undetectable, so the scheme
registers with ``proves_completeness = False`` and a
:class:`~repro.service.client.VerifyingClient` refuses to answer under it
without an explicit ``allow_incomplete=True`` opt-in
(:class:`~repro.schemes.base.CompletenessUnsupported`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.errors import AuthenticityError, VerificationError
from repro.core.relational import RelationManifest, UpdateReceipt
from repro.core.report import VerificationReport
from repro.core.verifier import check_signature_bundle
from repro.crypto.aggregate import AggregateSignature, aggregate_signatures
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

__all__ = ["NaiveProof", "NaiveScheme", "NaivePublication", "NaiveSchemeVerifier"]


@dataclass(frozen=True)
class NaiveProof:
    """Per-tuple signatures (or one condensed signature) for a result."""

    signatures: Tuple[int, ...] = ()
    aggregate: Optional[AggregateSignature] = None

    @property
    def signature_count(self) -> int:
        return 1 if self.aggregate is not None else len(self.signatures)


#: Wire field-spec of the naive VO — the single source the binary writer, the
#: generated reader and the JSON mirror are all derived from.
NAIVE_PROOF_FIELDS = (
    ("signatures", codec.TupleField(codec.INT)),
    ("aggregate", codec.OptionalField(codec.NestedField(AggregateSignature))),
)

codec.register_artifact(0x50, NaiveProof, NAIVE_PROOF_FIELDS)


class NaivePublication(SchemePublication):
    """Owner/publisher-side state: a relation plus one signature per tuple."""

    scheme_name = "naive"

    def __init__(
        self,
        relation: Relation,
        signature_scheme: SignatureScheme,
        hash_function: Optional[HashFunction] = None,
    ) -> None:
        super().__init__(relation, signature_scheme, hash_function)
        self._signatures = [self._sign(record) for record in relation]

    def _sign(self, record) -> int:
        return self._signature_scheme.sign(
            encode_record_payload(record.as_dict(), self.schema.attribute_names)
        )

    def answer_range(
        self, low: int, high: int, aggregate: bool = False
    ) -> Tuple[List[dict], NaiveProof]:
        """Matching tuples and their signatures; no completeness proof exists."""
        start, stop = self.relation.range_indices(low, high)
        rows = [self.relation[index].as_dict() for index in range(start, stop)]
        signatures = self._signatures[start:stop]
        if aggregate and signatures:
            messages = [encode_record_payload(row, self.schema.attribute_names) for row in rows]
            return rows, NaiveProof(
                aggregate=aggregate_signatures(
                    signatures, self._signature_scheme.verifier, messages
                )
            )
        return rows, NaiveProof(signatures=tuple(signatures))

    def _apply_insert(self, record) -> UpdateReceipt:
        """Exactly one new tuple signature is computed."""
        position = self.relation.insert(record)
        self._signatures.insert(position, self._sign(self.relation[position]))
        return UpdateReceipt(
            signatures_recomputed=1,
            digests_recomputed=1,
            entries_affected=(position,),
            chain_messages_recomputed=1,
        )

    def _apply_delete(self, record) -> UpdateReceipt:
        """No signature work at all (the scheme's one strength)."""
        del self._signatures[self.relation.delete(record)]
        return UpdateReceipt(
            signatures_recomputed=0,
            digests_recomputed=0,
            entries_affected=(),
            chain_messages_recomputed=0,
        )


class NaiveSchemeVerifier(SchemeVerifier):
    """User-side check: every returned tuple carries a valid owner signature."""

    def __init__(self, relation_name: str, manifest: RelationManifest) -> None:
        self.relation_name = relation_name
        self.manifest = manifest

    def _verify(self, query, rows, proof, role) -> VerificationReport:
        NAIVE.check_proof_type(proof)
        schema = self.manifest.schema
        check_plain_range_query("naive", query, schema, role)
        alpha, beta = range_bounds(query, schema, self.manifest.domain)
        if alpha > beta:
            if rows or proof is not None:
                raise VerificationError(
                    "the query range is empty, yet the publisher returned data",
                    reason="vacuous-range",
                )
            return VerificationReport(result_rows=0)
        if proof is None:
            if rows:
                raise AuthenticityError(
                    "result rows arrived without any tuple signatures",
                    reason="missing-proof",
                )
            return VerificationReport(result_rows=0)
        names = schema.attribute_names
        messages = []
        for row in rows:
            materialised = dict(row)
            if set(materialised) != set(names):
                raise AuthenticityError(
                    "a result row does not carry exactly the schema attributes",
                    reason="tampered-result",
                )
            key = materialised[schema.key]
            if not isinstance(key, int) or not (alpha <= key <= beta):
                raise VerificationError(
                    f"result row key {key!r} falls outside the query range",
                    reason="key-out-of-range",
                )
            messages.append(encode_record_payload(materialised, names))
        # Relation refuses exact duplicates, so no honest answer repeats a
        # row; a repeated row with its signature repeated (or multiplied into
        # the aggregate) would otherwise verify.
        if len(set(messages)) != len(messages):
            raise AuthenticityError("the result repeats a row", reason="duplicate-row")
        failure = check_signature_bundle(
            messages, proof.signatures, proof.aggregate, self.manifest.public_key
        )
        if failure is not None:
            reason, what = failure
            raise AuthenticityError(f"{what} does not match the result rows", reason=reason)
        return VerificationReport(
            checked_messages=len(messages),
            signature_verifications=1 if messages else 0,
            result_rows=len(rows),
        )


class NaiveScheme(ProofScheme):
    """Registry entry for the per-tuple-signature baseline."""

    name = "naive"
    proves_completeness = False
    supports_joins = False
    vo_type = NaiveProof

    def publish(
        self,
        relation: Relation,
        signature_scheme: SignatureScheme,
        hash_function: Optional[HashFunction] = None,
        **parameters,
    ) -> NaivePublication:
        return NaivePublication(relation, signature_scheme, hash_function)

    def verifier_for(
        self,
        relation_name: str,
        manifest: RelationManifest,
        policy=None,
    ) -> NaiveSchemeVerifier:
        return NaiveSchemeVerifier(relation_name, manifest)


NAIVE = register_scheme(NaiveScheme())
