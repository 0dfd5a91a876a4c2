"""The VB-tree (Pang & Tan, ICDE 2004) behind the ``ProofScheme`` interface.

Pang & Tan's VB-tree ("Authenticating Query Results in Edge Computing" —
reference [20] of the paper) augments a B+-tree with digests computed
bottom-up, and *signs every node digest* so a verification object only needs
the smallest signed subtree enveloping the query result.  This module keeps
the parts the SIGMOD 2005 paper actually compares against:

* a fanout-``f`` digest hierarchy over the sorted tuples, every node signed,
* VO construction for a range: the signed digests of the minimal covering
  nodes; the verifier rebuilds each covering digest from the result tuples
  (the hierarchy's shape is a pure function of ``(table_size, fanout)``) and
  checks the owner's signature on every one,
* update cost accounting — an update re-hashes *and re-signs* the whole root
  path, the churn cost the paper's Section 6.3 comparison highlights.

Like the naive scheme, the VB-tree authenticates values but cannot prove
completeness (``proves_completeness = False``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.errors import AuthenticityError, VerificationError
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
)
from repro.wire import codec

__all__ = [
    "VBTREE",
    "VBTreeProof",
    "VBTreeScheme",
    "VBTreePublication",
    "VBTreeSchemeVerifier",
]


@dataclass(frozen=True)
class VBTreeProof:
    """Authenticity VO: signed covering-node digests plus opening digests.

    ``fanout``, ``table_size`` and ``leaf_range`` describe where the result
    sits in the (deterministic) digest hierarchy, which is exactly what a
    remote :class:`VBTreeSchemeVerifier` needs to rebuild every covering-node
    digest from the result tuples alone — the tree shape is a pure function
    of ``(table_size, fanout)``, so no per-node structure crosses the wire.
    """

    covering_signatures: Tuple[int, ...]
    covering_digests: Tuple[bytes, ...]
    opening_digests: Tuple[bytes, ...]
    fanout: int = 0
    table_size: int = 0
    leaf_range: Tuple[int, int] = (0, 0)

    @property
    def digest_count(self) -> int:
        return len(self.covering_digests) + len(self.opening_digests)

    @property
    def signature_count(self) -> int:
        return len(self.covering_signatures)


def _leaf_digest(hash_function: HashFunction, row, attribute_names) -> bytes:
    return hash_function.digest(b"vbtree-leaf|" + encode_record_payload(row, attribute_names))


class _Node:
    __slots__ = ("children", "leaf_span", "digest", "signature")

    def __init__(self, leaf_span: Tuple[int, int]) -> None:
        self.children: List["_Node"] = []
        self.leaf_span = leaf_span
        self.digest = b""
        self.signature = 0


#: Wire field-spec of the VB-tree VO (single source for writer/reader/JSON).
VBTREE_PROOF_FIELDS = (
    ("covering_signatures", codec.TupleField(codec.INT)),
    ("covering_digests", codec.TupleField(codec.BYTES)),
    ("opening_digests", codec.TupleField(codec.BYTES)),
    ("fanout", codec.INT),
    ("table_size", codec.INT),
    ("leaf_range", codec.PairField(codec.INT, codec.INT)),
)


def _post_vbtree(proof: VBTreeProof) -> None:
    lo, hi = proof.leaf_range
    if proof.fanout < 2:
        raise codec.WireFormatError(
            "VB-tree proof fanout must be at least 2", reason="invalid-artifact"
        )
    if not (proof.table_size >= 0 and 0 <= lo <= hi <= proof.table_size):
        raise codec.WireFormatError(
            "VB-tree proof leaf range is inconsistent with its table size",
            reason="invalid-artifact",
        )
    if len(proof.covering_signatures) != len(proof.covering_digests):
        raise codec.WireFormatError(
            "VB-tree proof signature/digest counts disagree",
            reason="invalid-artifact",
        )


codec.register_artifact(0x52, VBTreeProof, VBTREE_PROOF_FIELDS, post=_post_vbtree)


class VBTreePublication(SchemePublication):
    """Owner/publisher-side state: the relation plus its signed digest hierarchy."""

    scheme_name = "vbtree"

    def __init__(
        self,
        relation: Relation,
        signature_scheme: SignatureScheme,
        hash_function: Optional[HashFunction] = None,
        fanout: int = 8,
    ) -> None:
        if fanout < 2:
            raise ValueError("fanout must be at least 2")
        super().__init__(relation, signature_scheme, hash_function)
        self.fanout = fanout
        self._rebuild()

    # -- construction --------------------------------------------------------

    def _signed_node(self, leaf_span: Tuple[int, int], digest: bytes) -> _Node:
        node = _Node(leaf_span)
        node.digest = digest
        node.signature = self._signature_scheme.sign(digest)
        return node

    def _rebuild(self) -> None:
        names = self.schema.attribute_names
        level = [
            self._signed_node(
                (index, index + 1),
                _leaf_digest(self.hash_function, record.as_dict(), names),
            )
            for index, record in enumerate(self.relation)
        ] or [self._signed_node((0, 0), self.hash_function.digest(b"vbtree-empty"))]
        while len(level) > 1:
            parents: List[_Node] = []
            for start in range(0, len(level), self.fanout):
                group = level[start : start + self.fanout]
                parent = self._signed_node(
                    (group[0].leaf_span[0], group[-1].leaf_span[1]),
                    self.hash_function.digest(
                        b"vbtree-node|" + b"".join(child.digest for child in group)
                    ),
                )
                parent.children = group
                parents.append(parent)
            level = parents
        self.root = level[0]

    @property
    def height(self) -> int:
        """Number of levels from a leaf to the root (inclusive)."""
        levels = 1
        node = self.root
        while node.children:
            node = node.children[0]
            levels += 1
        return levels

    # -- query answering -----------------------------------------------------

    def answer_range(self, low: int, high: int) -> Tuple[List[dict], VBTreeProof]:
        """Authenticity proof for a range: minimal signed covering nodes."""
        start, stop = self.relation.range_indices(low, high)
        rows = [self.relation[index].as_dict() for index in range(start, stop)]
        covering: List[_Node] = []
        self._cover(self.root, start, stop, covering)
        opening: List[bytes] = []
        for node in covering:
            self._collect_openings(node, start, stop, opening)
        return rows, VBTreeProof(
            covering_signatures=tuple(node.signature for node in covering),
            covering_digests=tuple(node.digest for node in covering),
            opening_digests=tuple(opening),
            fanout=self.fanout,
            table_size=len(self.relation),
            leaf_range=(start, stop),
        )

    def _cover(self, node: _Node, lo: int, hi: int, out: List[_Node]) -> None:
        span_lo, span_hi = node.leaf_span
        if span_hi <= lo or span_lo >= hi:
            return
        if lo <= span_lo and span_hi <= hi:
            out.append(node)
            return
        if not node.children:
            out.append(node)  # partially overlapping leaf: include it
            return
        for child in node.children:
            self._cover(child, lo, hi, out)

    def _collect_openings(self, node: _Node, lo: int, hi: int, out: List[bytes]) -> None:
        if not node.children:
            return
        for child in node.children:
            span_lo, span_hi = child.leaf_span
            if span_hi <= lo or span_lo >= hi:
                out.append(child.digest)
            else:
                self._collect_openings(child, lo, hi, out)

    # -- updates -------------------------------------------------------------

    def _rebuild_receipt(self) -> UpdateReceipt:
        """Every mutation re-hashes *and re-signs* the whole root path;
        ``entries_affected`` names the levels."""
        path = self.height
        self._rebuild()
        return UpdateReceipt(
            signatures_recomputed=path,
            digests_recomputed=path,
            entries_affected=tuple(range(path)),
            chain_messages_recomputed=path,
        )

    def _apply_insert(self, record) -> UpdateReceipt:
        self.relation.insert(record)
        return self._rebuild_receipt()

    def _apply_delete(self, record) -> UpdateReceipt:
        self.relation.delete(record)
        return self._rebuild_receipt()


class VBTreeSchemeVerifier(SchemeVerifier):
    """User-side verification of signed covering-node digests.

    Holds only what the owner distributes through the manifest.  The digest
    hierarchy over ``n`` sorted tuples with fanout ``f`` is deterministic —
    level ``k`` holds ``ceil(n / f^k)`` nodes and node ``i`` of level ``k``
    spans leaves ``[i*f^k, min((i+1)*f^k, n))`` — so the verifier mirrors the
    publisher's covering recursion structurally, rebuilds each covering-node
    digest from the result tuples, and checks the owner's signature on every
    one.

    The scheme authenticates values only: a verified answer proves every
    returned tuple is genuine and in query range, but (unlike the paper's
    chain scheme) nothing stops the publisher from omitting qualifying tuples.
    """

    def __init__(self, relation_name: str, manifest: RelationManifest) -> None:
        self.relation_name = relation_name
        self.manifest = manifest
        self.hash_function = manifest.hash_function()

    def _verify(self, query, rows, proof, role) -> VerificationReport:
        VBTREE.check_proof_type(proof)
        schema = self.manifest.schema
        check_plain_range_query("vbtree", query, schema, role)
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
                    "result rows arrived without any covering signatures",
                    reason="missing-proof",
                )
            return VerificationReport(result_rows=0)
        materialised = [dict(row) for row in rows]
        if not self._authenticates(alpha, beta, materialised, proof):
            raise AuthenticityError(
                "the covering-node signatures do not authenticate the result",
                reason="signature-mismatch",
            )
        return VerificationReport(
            checked_messages=len(proof.covering_digests),
            signature_verifications=len(proof.covering_signatures),
            result_rows=len(rows),
        )

    @staticmethod
    def _level_counts(table_size: int, fanout: int) -> List[int]:
        """Node counts per level, leaves first (mirrors the publication's
        ``_rebuild``)."""
        counts = [max(1, table_size)]
        while counts[-1] > 1:
            counts.append((counts[-1] + fanout - 1) // fanout)
        return counts

    @staticmethod
    def _expected_cover(
        counts: List[int], table_size: int, fanout: int, lo: int, hi: int
    ) -> List[Tuple[int, int]]:
        """The canonical (level, index) covering set of ``[lo, hi)``."""
        if table_size == 0 or lo >= hi:
            return []
        cover: List[Tuple[int, int]] = []

        def descend(level: int, index: int) -> None:
            start = index * fanout**level
            stop = min(start + fanout**level, table_size)
            if stop <= lo or start >= hi:
                return
            if lo <= start and stop <= hi:
                cover.append((level, index))
                return
            first = index * fanout
            for child in range(first, min(first + fanout, counts[level - 1])):
                descend(level - 1, child)

        descend(len(counts) - 1, 0)
        return cover

    def _rebuild_digest(
        self,
        level: int,
        index: int,
        counts: List[int],
        fanout: int,
        leaf_digests: Sequence[bytes],
        lo: int,
    ) -> bytes:
        if level == 0:
            return leaf_digests[index - lo]
        first = index * fanout
        return self.hash_function.digest(
            b"vbtree-node|"
            + b"".join(
                self._rebuild_digest(level - 1, child, counts, fanout, leaf_digests, lo)
                for child in range(first, min(first + fanout, counts[level - 1]))
            )
        )

    def _authenticates(self, low: int, high: int, rows: Sequence[dict], proof: VBTreeProof) -> bool:
        """Whether every returned tuple is authentic and in range.

        False for any structural mismatch: wrong row count, a tuple outside
        ``[low, high]``, a covering digest that does not rebuild from the
        tuples, a signature that does not verify, or unexpected opening
        digests — honest covering nodes are fully in-range, so their subtrees
        need no openings.
        """
        if proof.fanout < 2 or proof.table_size < 0:
            return False
        lo, hi = proof.leaf_range
        if not (0 <= lo <= hi <= proof.table_size):
            return False
        if len(rows) != hi - lo or proof.opening_digests:
            return False
        schema = self.manifest.schema
        names = schema.attribute_names
        for row in rows:
            if set(row) != set(names):
                return False
            key = row[schema.key]
            if not isinstance(key, int) or not (low <= key <= high):
                return False
        keys = [row[schema.key] for row in rows]
        if keys != sorted(keys):
            return False
        counts = self._level_counts(proof.table_size, proof.fanout)
        cover = self._expected_cover(counts, proof.table_size, proof.fanout, lo, hi)
        if not (len(cover) == len(proof.covering_digests) == len(proof.covering_signatures)):
            return False
        leaf_digests = [_leaf_digest(self.hash_function, row, names) for row in rows]
        public_key = self.manifest.public_key
        for (level, index), digest, signature in zip(
            cover, proof.covering_digests, proof.covering_signatures
        ):
            rebuilt = self._rebuild_digest(level, index, counts, proof.fanout, leaf_digests, lo)
            if rebuilt != digest or not public_key.verify(digest, signature):
                return False
        return True


class VBTreeScheme(ProofScheme):
    """The VB-tree baseline."""

    name = "vbtree"
    proves_completeness = False
    vo_type = VBTreeProof

    def publish(
        self,
        relation: Relation,
        signature_scheme: SignatureScheme,
        hash_function: Optional[HashFunction] = None,
        fanout: int = 8,
        **parameters,
    ) -> VBTreePublication:
        return VBTreePublication(relation, signature_scheme, hash_function, fanout=fanout)

    def verifier_for(
        self,
        relation_name: str,
        manifest: RelationManifest,
        policy=None,
    ) -> VBTreeSchemeVerifier:
        return VBTreeSchemeVerifier(relation_name, manifest)


VBTREE = VBTreeScheme()
