"""A reference query engine: the tests' evaluator, not the serving path.

Nothing under ``src/`` evaluates queries through this module — the publisher
scans its signed relations directly while it builds the proof.  The engine is
the plain, proof-free definition of what a (rewritten) query must return,
which ``tests/test_db_relation_query_engine.py`` pins.  It intentionally
returns more than the bare result: *where* in the sorted relation the result
sits (the boundary positions) and, for multipoint queries, which records
inside the contiguous key range were filtered out and why.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.db.query import Conjunction, JoinQuery, Projection, Query, RangeCondition
from repro.db.records import Record
from repro.db.relation import Relation
from repro.db.schema import Schema

__all__ = ["RangeResult", "JoinResult", "QueryEngine"]


@dataclass
class RangeResult:
    """Outcome of evaluating a select-project query.

    Attributes
    ----------
    relation:
        The relation the query ran against.
    key_low, key_high:
        The closed key range actually scanned (after clamping to the domain).
    start, stop:
        Half-open index range of the scanned records inside the relation.
    records:
        The scanned records (all records in the key range, in sort order),
        regardless of whether they satisfy non-key conditions.
    matches:
        Parallel list of booleans: ``matches[i]`` is True when ``records[i]``
        satisfies the full WHERE clause (for pure range queries every entry is
        True; multipoint queries have gaps).
    projection:
        The projection requested by the query.
    """

    relation: Relation
    key_low: int
    key_high: int
    start: int
    stop: int
    records: List[Record]
    matches: List[bool]
    projection: Projection

    @property
    def matching_records(self) -> List[Record]:
        """Only the records that satisfy the full WHERE clause."""
        return [record for record, ok in zip(self.records, self.matches) if ok]

    @property
    def is_multipoint(self) -> bool:
        """True when some scanned records are filtered out by non-key conditions."""
        return not all(self.matches)

    def projected_rows(self) -> List[Dict[str, object]]:
        """The user-visible rows (matching records, projected)."""
        schema = self.relation.schema
        names = self.projection.effective_attributes(schema)
        rows = [record.project(names) for record in self.matching_records]
        if self.projection.distinct:
            seen = set()
            unique = []
            for row in rows:
                signature = tuple(sorted(row.items(), key=lambda item: item[0]))
                if signature not in seen:
                    seen.add(signature)
                    unique.append(row)
            return unique
        return rows


@dataclass
class JoinResult:
    """Outcome of a primary key-foreign key join."""

    left_result: RangeResult
    right_relation: Relation
    joined_rows: List[Dict[str, object]]
    #: For each matching left record, the right record it joined with.
    pairs: List[Tuple[Record, Record]] = field(default_factory=list)


class QueryEngine:
    """Evaluates queries against a set of named relations."""

    def __init__(self, relations: Optional[Dict[str, Relation]] = None) -> None:
        self.relations: Dict[str, Relation] = dict(relations or {})

    def register(self, name: str, relation: Relation) -> None:
        """Register a relation under ``name``."""
        self.relations[name] = relation

    def relation(self, name: str) -> Relation:
        """Look up a registered relation."""
        try:
            return self.relations[name]
        except KeyError as error:
            raise KeyError(f"unknown relation {name!r}") from error

    # -- selection / projection ------------------------------------------------

    def execute(self, query: Query) -> RangeResult:
        """Evaluate a select-project query."""
        relation = self.relation(query.relation_name)
        schema = relation.schema
        key_condition = query.where.key_condition(schema)
        if key_condition is None:
            key_condition = RangeCondition(schema.key, None, None)
        low, high = key_condition.bounds(schema.key_domain)
        if low > high:
            return RangeResult(
                relation=relation,
                key_low=low,
                key_high=high,
                start=0,
                stop=0,
                records=[],
                matches=[],
                projection=query.projection,
            )
        start, stop = relation.range_indices(low, high)
        scanned = relation.records[start:stop]
        other_conditions = query.where.non_key_conditions(schema)
        matches = [
            all(condition.matches(record) for condition in other_conditions)
            for record in scanned
        ]
        return RangeResult(
            relation=relation,
            key_low=low,
            key_high=high,
            start=start,
            stop=stop,
            records=scanned,
            matches=matches,
            projection=query.projection,
        )

    # -- joins -------------------------------------------------------------------

    def execute_join(self, join: JoinQuery) -> JoinResult:
        """Evaluate a PK-FK join with optional selection on the left relation.

        The left relation must be sorted on the foreign-key attribute (the
        owner materialises that sort order; see ``Relation.resorted``).
        Referential integrity is checked during execution: a dangling foreign
        key is reported as an error, because the paper's completeness argument
        for joins rests on it.
        """
        left = self.relation(join.left_relation)
        right = self.relation(join.right_relation)
        if left.schema.key != join.foreign_key:
            raise ValueError(
                "the left relation must be sorted on the foreign-key attribute "
                f"({join.foreign_key!r}); it is sorted on {left.schema.key!r}"
            )
        selection = Query(join.left_relation, join.where, Projection())
        left_result = self.execute(selection)

        right_index: Dict[object, Record] = {}
        for record in right:
            right_index[record[join.primary_key]] = record

        joined_rows: List[Dict[str, object]] = []
        pairs: List[Tuple[Record, Record]] = []
        for record in left_result.matching_records:
            fk_value = record[join.foreign_key]
            partner = right_index.get(fk_value)
            if partner is None:
                raise ValueError(
                    f"referential integrity violation: {join.foreign_key}={fk_value!r} "
                    f"has no match in {join.right_relation!r}"
                )
            row = {f"{join.left_relation}.{k}": v for k, v in record.as_dict().items()}
            row.update(
                {f"{join.right_relation}.{k}": v for k, v in partner.as_dict().items()}
            )
            joined_rows.append(row)
            pairs.append((record, partner))
        return JoinResult(
            left_result=left_result,
            right_relation=right,
            joined_rows=joined_rows,
            pairs=pairs,
        )
