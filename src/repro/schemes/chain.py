"""The paper's signature-chain construction behind the ``ProofScheme`` interface.

This is the scheme the whole repository reproduces (Sections 3-6): per-entry
hash-chain digests, one chain signature per record, boundary proofs for
completeness, per-record attribute Merkle trees for precision.  The machinery
lives where it always did — :mod:`repro.core.relational` (owner),
:mod:`repro.core.publisher` (untrusted publisher) and
:mod:`repro.core.verifier` (user) — and the service serves it directly; this
module is the thin adapter that lines it up with the baselines for the
in-process comparison.

The chain scheme is the only one that proves completeness **and** supports
verifiable PK-FK joins, projections, multipoint predicates and access-control
rewriting; its VO artifact is :class:`~repro.core.proof.RangeQueryProof`.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from repro.core.proof import RangeQueryProof
from repro.core.publisher import Publisher
from repro.core.relational import RelationManifest, SignedRelation
from repro.core.report import VerificationReport
from repro.core.verifier import ResultVerifier
from repro.crypto.hashing import HashFunction
from repro.crypto.signature import SignatureScheme
from repro.db.query import Query
from repro.db.relation import Relation
from repro.schemes.base import ProofScheme, SchemeVerifier

__all__ = ["CHAIN", "ChainScheme", "ChainVerifier"]


class ChainVerifier(SchemeVerifier):
    """Adapter binding a :class:`~repro.core.verifier.ResultVerifier` to one relation."""

    def __init__(self, result_verifier: ResultVerifier) -> None:
        self.result_verifier = result_verifier

    def _verify(
        self,
        query: Query,
        rows: Sequence[Mapping[str, object]],
        proof: Optional[object],
        role: Optional[str],
    ) -> VerificationReport:
        CHAIN.check_proof_type(proof)
        return self.result_verifier.verify(query, rows, proof, role=role)


class ChainScheme(ProofScheme):
    """The paper's signature-chain scheme."""

    name = "chain"
    proves_completeness = True
    vo_type = RangeQueryProof

    def publish(
        self,
        relation: Relation,
        signature_scheme: SignatureScheme,
        hash_function: Optional[HashFunction] = None,
        base: int = 2,
        **parameters,
    ) -> SignedRelation:
        return SignedRelation(
            relation=relation,
            signature_scheme=signature_scheme,
            base=base,
            hash_function=hash_function,
            **parameters,
        )

    def make_publisher(
        self, database: Mapping[str, SignedRelation], policy=None, **parameters
    ) -> Publisher:
        return Publisher(database, policy=policy, **parameters)

    def verifier_for(
        self,
        relation_name: str,
        manifest: RelationManifest,
        policy=None,
    ) -> ChainVerifier:
        return ChainVerifier(ResultVerifier({relation_name: manifest}, policy=policy))


CHAIN = ChainScheme()
