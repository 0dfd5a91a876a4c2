"""Relational substrate: schemas, records, relations, queries and access control.

The paper's scheme operates over ordinary relational tables sorted on a key
attribute with a bounded integer domain.  This package provides a small but
complete in-memory relational layer so the owner / publisher / user pipeline in
:mod:`repro.core` has something realistic to run on:

* :mod:`repro.db.schema` — typed attribute definitions and key domains,
* :mod:`repro.db.records` — immutable records,
* :mod:`repro.db.relation` — sorted relations with duplicate-key handling,
* :mod:`repro.db.query` — the query model (range/equality selection,
  projection, PK-FK joins, multipoint queries),
* :mod:`repro.db.engine` — the tests' reference query evaluator,
* :mod:`repro.db.access_control` — role-based policies and query rewriting,
* :mod:`repro.db.btree` — a B+-tree that stores per-record signatures in its
  leaves (Section 6.3),
* :mod:`repro.db.workload` — synthetic data generators for tests, examples and
  benchmarks.
"""

from repro.db.access_control import AccessControlPolicy, Role
from repro.db.engine import QueryEngine
from repro.db.query import (
    Conjunction,
    EqualityCondition,
    JoinQuery,
    Projection,
    Query,
    RangeCondition,
)
from repro.db.records import Record
from repro.db.relation import Relation
from repro.db.schema import Attribute, AttributeType, KeyDomain, Schema

__all__ = [
    "AccessControlPolicy",
    "Role",
    "QueryEngine",
    "Conjunction",
    "EqualityCondition",
    "JoinQuery",
    "Projection",
    "Query",
    "RangeCondition",
    "Record",
    "Relation",
    "Attribute",
    "AttributeType",
    "KeyDomain",
    "Schema",
]
