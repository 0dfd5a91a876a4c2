"""A superseded chain window still verifies under the current manifest.

A freshness attestation bounds how old the *attestation* is, not the data:
a chain message signs ``h(g(r_{i-1}) | g(r_i) | g(r_{i+1}))`` and binds no
manifest sequence, and a manifest commits to no content.  So an answer built
before a mutation verifies against the manifest after it, whatever the
mutation removed from or added to the answered range.

Both tests are the verifier refusing such an answer, which it does not do
yet: they are strict expected failures, and binding each chain signature to
the version that made it (ROADMAP item 1) turns them into passes.
"""

from __future__ import annotations

import pytest

from repro.core.errors import VerificationError
from repro.core.owner import DataOwner
from repro.core.publisher import Publisher
from repro.core.verifier import ResultVerifier
from repro.db.query import Conjunction, Query, RangeCondition
from repro.db.records import Record
from repro.db.workload import figure1_employee_relation

GAP = "a chain window binds no manifest sequence (ROADMAP item 1)"
#: Only the missing refusal is expected: any other failure is a real one.
superseded_window_gap = pytest.mark.xfail(
    strict=True, raises=pytest.fail.Exception, reason=GAP
)


@pytest.fixture(scope="module")
def owner():
    return DataOwner(key_bits=512)


def _published(owner):
    signed = owner.publish_relation(figure1_employee_relation())
    return signed, Publisher({"employees": signed})


def _salary_range(low, high):
    return Query("employees", Conjunction((RangeCondition("salary", low, high),)))


def _assert_refused_after(signed, query, stale):
    """The verifier holding the *current* manifest must refuse ``stale``."""
    current = ResultVerifier({"employees": signed.manifest})
    with pytest.raises(VerificationError):
        current.verify(query, stale.rows, stale.proof)


@superseded_window_gap
def test_pre_delete_answer_is_refused_after_the_delete(owner):
    """``salary < 10000`` answered with three rows, then one of them deleted."""
    signed, publisher = _published(owner)
    query = _salary_range(None, 9999)
    stale = publisher.answer(query)
    assert [row["name"] for row in stale.rows] == ["A", "C", "D"]
    deleted = signed.relation[1]
    assert deleted["name"] == "C"
    signed.delete_record(deleted)
    assert [row["name"] for row in publisher.answer(query).rows] == ["A", "D"]
    _assert_refused_after(signed, query, stale)


@superseded_window_gap
def test_pre_insert_empty_range_is_refused_after_the_insert(owner):
    """An empty range answered, then a qualifying row inserted into it."""
    signed, publisher = _published(owner)
    query = _salary_range(9000, 12000)
    stale = publisher.answer(query)
    assert stale.rows == [] and stale.proof is not None
    signed.insert_record(
        Record(
            signed.schema,
            {"emp_id": "006", "name": "F", "salary": 10000, "dept": 2, "photo": b"photo-F"},
        )
    )
    assert [row["name"] for row in publisher.answer(query).rows] == ["F"]
    _assert_refused_after(signed, query, stale)
