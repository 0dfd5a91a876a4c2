"""The data owner: key management and publication of signed data sets.

The owner is the only trusted party in the model (Figure 3 of the paper): it
holds the signing key, builds the chain signatures over each data set it wants
to publish and hands the resulting artefacts to one or more publishers.  Users
receive only the owner's public key and per-relation manifests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Sequence

from repro.core.basic_scheme import SignedValueList
from repro.core.polynomial import DEFAULT_BASE
from repro.core.relational import RelationManifest, SignedRelation
from repro.crypto.hashing import HashFunction, default_hash
from repro.crypto.rsa import RSAPublicKey
from repro.crypto.signature import SignatureScheme, rsa_scheme
from repro.db.relation import Relation
from repro.db.schema import KeyDomain

__all__ = ["DataOwner", "PublishedDatabase"]


@dataclass
class PublishedDatabase:
    """A set of signed relations the owner hands to a publisher.

    ``manifests`` is the user-facing half: it contains no data and is what the
    owner distributes (with the public key) through an authenticated channel.
    """

    relations: Dict[str, SignedRelation]

    @property
    def manifests(self) -> Dict[str, RelationManifest]:
        return {name: signed.manifest for name, signed in self.relations.items()}

    def __getitem__(self, name: str) -> SignedRelation:
        return self.relations[name]

    def __contains__(self, name: str) -> bool:
        return name in self.relations


class DataOwner:
    """Creates and maintains signed data sets.

    Everything it publishes uses the Section 5.1 chain digests; formula (2)'s
    exist only in a directly built Section 3 ``SignedValueList``.

    Parameters
    ----------
    signature_scheme:
        An existing signature scheme to reuse (handy in tests, where RSA key
        generation dominates run time); a fresh RSA key pair is generated when
        omitted.
    key_bits:
        Modulus size for a freshly generated key (ignored when a scheme is
        supplied).  1024 matches the paper's ``Msign``.
    base:
        Polynomial base ``B`` of the Section 5.1 digests
        (:data:`~repro.core.polynomial.DEFAULT_BASE` unless given).
    """

    def __init__(
        self,
        signature_scheme: Optional[SignatureScheme] = None,
        key_bits: int = 1024,
        base: int = DEFAULT_BASE,
        hash_function: Optional[HashFunction] = None,
    ) -> None:
        self.signature_scheme = signature_scheme or rsa_scheme(bits=key_bits)
        self.base = base
        self.hash_function = hash_function or default_hash()

    # -- key distribution ---------------------------------------------------------

    @property
    def public_key(self) -> RSAPublicKey:
        """The verification key users obtain through an authenticated channel."""
        return self.signature_scheme.verifier

    # -- publication --------------------------------------------------------------

    def publish_value_list(
        self, values: Sequence[int], domain: KeyDomain
    ) -> SignedValueList:
        """Publish a sorted list of distinct values (the Section 3 scheme)."""
        return SignedValueList(
            domain=domain,
            values=values,
            signature_scheme=self.signature_scheme,
            base=self.base,
            hash_function=self.hash_function,
        )

    def publish_relation(self, relation: Relation) -> SignedRelation:
        """Publish one relation in its current sort order (Section 4 scheme)."""
        return SignedRelation(
            relation=relation,
            signature_scheme=self.signature_scheme,
            base=self.base,
            hash_function=self.hash_function,
        )

    def publish_database(
        self, relations: Mapping[str, Relation]
    ) -> PublishedDatabase:
        """Publish several relations under one owner key."""
        return PublishedDatabase(
            relations={
                name: self.publish_relation(relation)
                for name, relation in relations.items()
            }
        )

    def publish_sort_orders(
        self, relation: Relation, keys: Iterable[str]
    ) -> Dict[str, SignedRelation]:
        """Publish one signed chain per "interesting sort order" of a relation.

        The paper notes this is analogous to creating a B+-tree per frequently
        queried attribute; PK-FK join verification, for instance, needs the
        foreign-key side ordered (and signed) on the foreign-key attribute.
        """
        return {key: self.publish_relation(relation.resorted(key)) for key in keys}
