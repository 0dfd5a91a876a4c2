"""Schemas, attribute types and key domains.

The completeness scheme needs to know, for the sort-key attribute ``K``, the
domain bounds ``(L, U)``: the iterated hash chains in formula (3) have lengths
``U - K - 1`` and ``K - L - 1``.  :class:`KeyDomain` captures those bounds and
the bookkeeping around them (delimiter values, distance computations), while
:class:`Schema` describes a full relation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.crypto.encoding import encode_many
from repro.crypto.merkle import LEAF_PREFIX

__all__ = ["AttributeType", "Attribute", "KeyDomain", "Schema"]


class AttributeType(enum.Enum):
    """Supported attribute types.

    ``INTEGER`` attributes may serve as sort keys (they need a bounded domain);
    the other types can only appear as payload attributes covered by the
    per-record Merkle tree.
    """

    INTEGER = "integer"
    STRING = "string"
    FLOAT = "float"
    BLOB = "blob"
    BOOLEAN = "boolean"

    def validate(self, value) -> bool:
        """Return True if ``value`` is acceptable for this type (None is allowed)."""
        if value is None:
            return True
        if self is AttributeType.INTEGER:
            return isinstance(value, int) and not isinstance(value, bool)
        if self is AttributeType.STRING:
            return isinstance(value, str)
        if self is AttributeType.FLOAT:
            return isinstance(value, (int, float)) and not isinstance(value, bool)
        if self is AttributeType.BLOB:
            return isinstance(value, (bytes, bytearray, memoryview))
        if self is AttributeType.BOOLEAN:
            return isinstance(value, bool)
        return False  # pragma: no cover - exhaustive enum


@dataclass(frozen=True)
class KeyDomain:
    """The open domain ``(L, U)`` of a sort-key attribute.

    All key values must satisfy ``L < k < U``.  The bounds themselves are
    public knowledge (the paper assumes ``L`` and ``U`` are known to everyone)
    and are hashed into the delimiter signatures.
    """

    lower: int
    upper: int

    def __post_init__(self) -> None:
        if self.upper <= self.lower:
            raise ValueError(
                f"key domain upper bound must exceed lower bound (got {self.lower}, {self.upper})"
            )

    @property
    def width(self) -> int:
        """``U - L`` — the quantity the Section 5.1 polynomial decomposes."""
        return self.upper - self.lower

    def contains(self, value: int) -> bool:
        """True if ``value`` lies strictly inside the domain."""
        return self.lower < value < self.upper

    def require(self, value: int) -> int:
        """Validate and return ``value``; raise ``ValueError`` if out of domain."""
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"key values must be integers, got {value!r}")
        if not self.contains(value):
            raise ValueError(
                f"key value {value} outside the open domain ({self.lower}, {self.upper})"
            )
        return value

    def distance_to_upper(self, value: int) -> int:
        """``U - value - 1``: the length of the upper hash chain for ``value``."""
        return self.upper - value - 1

    def distance_to_lower(self, value: int) -> int:
        """``value - L - 1``: the length of the lower hash chain for ``value``."""
        return value - self.lower - 1

    def clamp_range(self, low: Optional[int], high: Optional[int]) -> Tuple[int, int]:
        """Intersect a query range with the domain, returning closed bounds.

        ``None`` bounds mean "unbounded" and collapse to the domain edge plus
        or minus one (the smallest/largest representable key).
        """
        lo = self.lower + 1 if low is None else max(low, self.lower + 1)
        hi = self.upper - 1 if high is None else min(high, self.upper - 1)
        return lo, hi


@dataclass(frozen=True)
class Attribute:
    """A single attribute (column) of a relation."""

    name: str
    attribute_type: AttributeType = AttributeType.STRING
    #: Domain bounds; only meaningful (and required) for integer sort keys.
    domain: Optional[KeyDomain] = None
    #: Approximate serialised size in bytes; used by the cost benchmarks to
    #: model record sizes (``Mr`` in Table 1).
    size_hint: int = 8

    def validate(self, value) -> None:
        """Raise ``ValueError`` if ``value`` is not acceptable for this attribute."""
        if not self.attribute_type.validate(value):
            raise ValueError(
                f"value {value!r} is not valid for attribute {self.name!r} "
                f"of type {self.attribute_type.value}"
            )
        if self.domain is not None and value is not None:
            self.domain.require(value)


@dataclass(frozen=True)
class Schema:
    """An ordered collection of attributes with one designated sort key.

    Parameters
    ----------
    name:
        Relation name (used in error messages and examples).
    attributes:
        All attributes, in declaration order.  The first attribute named by
        ``key`` is the sort key the owner signs a chain for; additional sort
        orders can be created by re-keying (see :meth:`with_key`).
    key:
        Name of the sort-key attribute.  It must be an ``INTEGER`` attribute
        with a :class:`KeyDomain`.
    """

    name: str
    attributes: Tuple[Attribute, ...]
    key: str

    def __post_init__(self) -> None:
        names = [attribute.name for attribute in self.attributes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate attribute names in schema {self.name!r}")
        key_attribute = self._find(self.key)
        if key_attribute.attribute_type is not AttributeType.INTEGER:
            raise ValueError("the sort-key attribute must be an integer attribute")
        if key_attribute.domain is None:
            raise ValueError("the sort-key attribute must declare a KeyDomain")

    # -- helpers -----------------------------------------------------------

    @cached_property
    def _lookup_maps(
        self,
    ) -> Tuple[Mapping[str, int], Tuple[Attribute, ...], Mapping[str, int]]:
        """Name->position lookup structures, built once per (frozen) schema.

        They turn every by-name lookup — including the per-attribute
        Merkle-leaf positioning on the publisher's hot path — from a linear
        scan into a dictionary hit.  The mappings are exposed read-only so a
        caller cannot corrupt the shared lookup state of an immutable schema.
        (``cached_property`` writes to ``__dict__`` directly, which is why it
        works on a frozen dataclass.)
        """
        positions = MappingProxyType(
            {attribute.name: index for index, attribute in enumerate(self.attributes)}
        )
        non_key = tuple(
            attribute for attribute in self.attributes if attribute.name != self.key
        )
        non_key_positions = MappingProxyType(
            {attribute.name: index for index, attribute in enumerate(non_key)}
        )
        return (positions, non_key, non_key_positions)

    @cached_property
    def attribute_leaf_heads(self) -> Tuple[Tuple[str, bytes], ...]:
        """``(name, head)`` per non-key attribute, in schema order.

        ``head`` is how the pre-image of the attribute's ``MHT(r.A)`` leaf
        digest starts, ``LEAF_PREFIX | encode_many([name])``; the value's own
        length-prefixed encoding completes it (see
        :func:`repro.db.records.attribute_digests`).  Built once per schema.
        """
        return tuple(
            (attribute.name, LEAF_PREFIX + encode_many([attribute.name]))
            for attribute in self._lookup_maps[1]
        )

    @property
    def attribute_positions(self) -> Mapping[str, int]:
        """Attribute name -> position in declaration order (read-only, O(1))."""
        return self._lookup_maps[0]

    @property
    def non_key_positions(self) -> Mapping[str, int]:
        """Non-key attribute name -> position among :attr:`non_key_attributes`."""
        return self._lookup_maps[2]

    def _find(self, name: str) -> Attribute:
        position = self._lookup_maps[0].get(name)
        if position is None:
            raise KeyError(f"schema {self.name!r} has no attribute {name!r}")
        return self.attributes[position]

    @classmethod
    def build(
        cls, name: str, attributes: Sequence[Attribute], key: str
    ) -> "Schema":
        """Construct a schema from any attribute sequence."""
        return cls(name=name, attributes=tuple(attributes), key=key)

    # -- public API ---------------------------------------------------------

    @property
    def key_attribute(self) -> Attribute:
        """The sort-key attribute object."""
        return self._find(self.key)

    @property
    def key_domain(self) -> KeyDomain:
        """Domain bounds of the sort key."""
        domain = self.key_attribute.domain
        assert domain is not None  # enforced in __post_init__
        return domain

    @property
    def attribute_names(self) -> List[str]:
        """All attribute names in declaration order."""
        return [attribute.name for attribute in self.attributes]

    @property
    def non_key_attributes(self) -> List[Attribute]:
        """Attributes other than the sort key, in declaration order.

        These are the attributes covered by the per-record Merkle tree
        ``MHT(r.A)`` in formula (3).
        """
        return list(self._lookup_maps[1])

    def attribute(self, name: str) -> Attribute:
        """Look up an attribute by name."""
        return self._find(name)

    def has_attribute(self, name: str) -> bool:
        """True if the schema declares ``name``."""
        return name in self._lookup_maps[0]

    def validate_values(self, values: Dict[str, object]) -> None:
        """Validate a full record's values against the schema."""
        names = self._lookup_maps[0]
        if values.keys() != names.keys():
            unknown = set(values) - set(names)
            if unknown:
                raise ValueError(
                    f"unknown attributes {sorted(unknown)} for schema {self.name!r}"
                )
            missing = set(names) - set(values)
            raise ValueError(f"missing attributes {sorted(missing)} for schema {self.name!r}")
        for attribute in self.attributes:
            attribute.validate(values[attribute.name])

    def record_size_bytes(self) -> int:
        """Approximate serialised record size (``Mr``), from size hints."""
        return sum(attribute.size_hint for attribute in self.attributes)

    def with_key(self, key: str) -> "Schema":
        """A copy of this schema sorted on a different integer attribute.

        The paper signs one chain per "interesting sort order"; re-keying a
        schema is how the owner declares an additional order.
        """
        return Schema(name=self.name, attributes=self.attributes, key=key)

    def with_extra_attributes(self, extra: Sequence[Attribute]) -> "Schema":
        """A copy of this schema with additional attributes appended.

        Used by Section 4.4 (case 2) to add per-user-group visibility columns.
        """
        return Schema(name=self.name, attributes=self.attributes + tuple(extra), key=self.key)
