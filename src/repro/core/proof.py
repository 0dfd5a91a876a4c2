"""Verification objects (VOs) shipped from the publisher to the user.

Every proof class exposes

* ``digest_count`` — how many hash digests it carries, and
* ``signature_count`` — how many signatures it carries (1 when aggregated),

so the benchmark harness can report the *measured* authentication traffic
``Muser`` next to the paper's analytical formula (4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple, Union

from repro.core.digest import BoundaryAssist, EntryAssist
from repro.crypto.aggregate import AggregateSignature

__all__ = [
    "SignatureBundle",
    "GreaterThanProof",
    "BoundaryEntryProof",
    "MatchedEntryProof",
    "FilteredEntryProof",
    "RangeQueryProof",
    "JoinQueryProof",
]


@dataclass(frozen=True)
class SignatureBundle:
    """The signatures accompanying a result: individual or aggregated.

    Section 5.2: the publisher may condense the per-entry signatures into one
    aggregated signature; both transports are supported so the benchmarks can
    quantify the saving.
    """

    individual: Tuple[int, ...] = ()
    aggregate: Optional[AggregateSignature] = None

    def __post_init__(self) -> None:
        if bool(self.individual) == bool(self.aggregate):
            raise ValueError(
                "exactly one of individual signatures or an aggregate must be supplied"
            )

    @property
    def is_aggregated(self) -> bool:
        return self.aggregate is not None

    @property
    def signature_count(self) -> int:
        """Number of signature-sized objects transmitted."""
        return 1 if self.is_aggregated else len(self.individual)

    @property
    def covered_messages(self) -> int:
        """How many chain messages the bundle vouches for."""
        if self.aggregate is not None:
            return self.aggregate.count
        return len(self.individual)


# ---------------------------------------------------------------------------
# Section 3: greater-than predicate on a sorted value list
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GreaterThanProof:
    """Completeness proof for ``sigma_{r >= alpha}(R)`` over a sorted list.

    Attributes
    ----------
    alpha:
        The query constant.
    predecessor_boundary:
        Boundary proof for the entry immediately before the result (possibly
        the left delimiter): proves its value is ``< alpha`` without revealing
        it.
    entry_assists:
        Per result entry, the publisher-supplied assist needed to recompute its
        chain digest (empty under formula (2), whose digest needs no help).
    right_delimiter_digest:
        The opaque digest ``g(r_{n+1})`` of the right delimiter.
    signatures:
        Signatures covering the result entries and the right delimiter (or the
        single chain signature binding the boundary pair when the result is
        empty).
    """

    alpha: int
    predecessor_boundary: BoundaryAssist
    entry_assists: Tuple[EntryAssist, ...]
    right_delimiter_digest: bytes
    signatures: SignatureBundle

    @property
    def digest_count(self) -> int:
        count = self.predecessor_boundary.digest_count + 1  # right delimiter digest
        count += sum(assist.digest_count for assist in self.entry_assists)
        return count

    @property
    def signature_count(self) -> int:
        return self.signatures.signature_count

    def size_bytes(self, digest_bytes: int, signature_bytes: int) -> int:
        """Total authentication traffic in bytes (``Muser``)."""
        return self.digest_count * digest_bytes + self.signature_count * signature_bytes


# ---------------------------------------------------------------------------
# Section 4: relational range / multipoint / projected queries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundaryEntryProof:
    """Proof material for a record just outside the query range.

    Exactly one chain is *derived* (via a :class:`BoundaryAssist`): the upper
    chain for the record below ``alpha``, the lower chain for the record above
    ``beta``.  The remaining ``g`` components are shipped as opaque digests —
    they reveal nothing about the hidden record but are needed to reassemble
    ``g`` for the neighbouring signature checks.
    """

    side: str  # "lower" (record below alpha) or "upper" (record above beta)
    chain_boundary: BoundaryAssist
    other_chain_digest: bytes
    attribute_root: bytes

    def __post_init__(self) -> None:
        if self.side not in ("lower", "upper"):
            raise ValueError("boundary side must be 'lower' or 'upper'")

    @property
    def digest_count(self) -> int:
        return self.chain_boundary.digest_count + 2


@dataclass(frozen=True)
class MatchedEntryProof:
    """Proof material for a record that is part of the user-visible result.

    The user knows the key and the projected attribute values; the proof adds
    whatever else is needed to recompute ``g``: the chain-scheme assists and
    leaf digests for attributes removed by projection.
    """

    upper_assist: EntryAssist
    lower_assist: EntryAssist
    dropped_attribute_digests: Mapping[str, bytes] = field(default_factory=dict)
    #: True when this record is an eliminated duplicate of a DISTINCT query:
    #: its projected values are revealed (they equal a surviving row) but it is
    #: not listed again in the result rows.
    eliminated_duplicate: bool = False
    #: For eliminated duplicates only: the projected attribute values.
    revealed_attributes: Mapping[str, object] = field(default_factory=dict)
    #: For eliminated duplicates only: the key value (not present in any row).
    key: Optional[int] = None

    @property
    def digest_count(self) -> int:
        return (
            self.upper_assist.digest_count
            + self.lower_assist.digest_count
            + len(self.dropped_attribute_digests)
        )


@dataclass(frozen=True)
class FilteredEntryProof:
    """Proof material for a record inside the key range that the query filters out.

    Section 4.4: the record is glue for contiguity.  The publisher reveals just
    enough to justify the filtering — the attribute value that fails the query
    condition (case 1) or the visibility flag of the user's group (case 2) —
    plus digests for everything else, including the chain components.
    """

    revealed_attributes: Mapping[str, object]
    attribute_leaf_digests: Mapping[str, bytes]
    upper_chain_digest: bytes
    lower_chain_digest: bytes
    reason: str = "predicate"  # "predicate" or "access-control"

    @property
    def digest_count(self) -> int:
        return len(self.attribute_leaf_digests) + 2


EntryProof = Union[MatchedEntryProof, FilteredEntryProof]


@dataclass(frozen=True)
class RangeQueryProof:
    """Completeness + authenticity proof for one contiguous key range.

    Attributes
    ----------
    key_low, key_high:
        The closed key range ``[alpha, beta]`` the proof speaks about (after
        access-control rewriting and domain clamping).  The verifier recomputes
        this range from the query; a mismatch is rejected.
    lower_boundary, upper_boundary:
        Proofs for the records immediately below ``alpha`` and above ``beta``.
    entries:
        Proof material for every record whose key falls in the range, in sort
        order (matched, filtered and eliminated-duplicate records alike).
    outer_neighbor_digest:
        Only for empty scanned ranges: the opaque ``g`` digest (or chain-end
        anchor) of the record *before* the lower-boundary record, needed to
        check the single signature that binds the boundary pair together.
    signatures:
        One signature per in-range record (non-empty case) or the single
        lower-boundary signature (empty case); optionally aggregated.
    """

    key_low: int
    key_high: int
    lower_boundary: BoundaryEntryProof
    upper_boundary: BoundaryEntryProof
    entries: Tuple[EntryProof, ...]
    signatures: SignatureBundle
    outer_neighbor_digest: Optional[bytes] = None

    @property
    def digest_count(self) -> int:
        count = self.lower_boundary.digest_count + self.upper_boundary.digest_count
        count += sum(entry.digest_count for entry in self.entries)
        if self.outer_neighbor_digest is not None:
            count += 1
        return count

    @property
    def signature_count(self) -> int:
        return self.signatures.signature_count

    def size_bytes(self, digest_bytes: int, signature_bytes: int) -> int:
        """Total authentication traffic in bytes (``Muser``)."""
        return self.digest_count * digest_bytes + self.signature_count * signature_bytes


@dataclass(frozen=True)
class JoinQueryProof:
    """Proof for a primary key-foreign key join (Section 4.3).

    Completeness is established on the foreign-key side (the left relation,
    signed in foreign-key order); authenticity and existence of each joined
    primary-key record is established by a point-query proof on the right
    relation.
    """

    left_proof: RangeQueryProof
    right_point_proofs: Mapping[int, RangeQueryProof]

    @property
    def digest_count(self) -> int:
        return self.left_proof.digest_count + sum(
            proof.digest_count for proof in self.right_point_proofs.values()
        )

    @property
    def signature_count(self) -> int:
        return self.left_proof.signature_count + sum(
            proof.signature_count for proof in self.right_point_proofs.values()
        )

    def size_bytes(self, digest_bytes: int, signature_bytes: int) -> int:
        return self.digest_count * digest_bytes + self.signature_count * signature_bytes
