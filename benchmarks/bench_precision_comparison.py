"""Precision comparison: what each scheme discloses beyond the query answer.

This regenerates the qualitative comparison behind the paper's introduction and
Section 2.3: for the Figure 1 scenario (an HR executive restricted to salaries
below 9000) and for projected queries, count how many out-of-scope rows and
attribute *values* each scheme reveals to the user.

* the proposed scheme reveals none (digests only),
* Devanbu et al. reveal the two boundary tuples (row-level leak) and every
  attribute of every returned tuple (column-level leak).
"""

import pytest

from conftest import format_table, report
from repro.core.cost_model import CostParameters
from repro.core.publisher import Publisher
from repro.core.verifier import ResultVerifier
from repro.db.access_control import add_visibility_columns
from repro.db.query import Conjunction, Projection, Query, RangeCondition
from repro.db.workload import (
    figure1_employee_relation,
    figure1_policy,
    generate_employees,
)
from repro.schemes.devanbu import DevanbuPublication

# Run the table-regeneration tests under --benchmark-only as well: they are
# what actually reproduces the paper's figures.
pytestmark = pytest.mark.usefixtures("benchmark")

PARAMS = CostParameters()


@pytest.fixture(scope="module")
def figure1_world(owner, signature_scheme):
    policy = figure1_policy()
    augmented = add_visibility_columns(figure1_employee_relation(), policy)
    signed = owner.publish_relation(augmented)
    publisher = Publisher({"employees": signed}, policy=policy)
    verifier = ResultVerifier({"employees": signed.manifest}, policy=policy)
    baseline = DevanbuPublication(figure1_employee_relation(), signature_scheme)
    return publisher, verifier, baseline


def test_report_row_level_precision(figure1_world):
    """The HR executive's rewritten query: salary < 9000."""
    publisher, verifier, baseline = figure1_world
    query = Query("employees", Conjunction((RangeCondition("salary", None, 9999),)))
    ours = publisher.answer(query, role="hr_executive")
    verifier.verify(query, ours.rows, ours.proof, role="hr_executive")
    our_leaked_rows = sum(
        1 for row in ours.rows if row["salary"] >= 9000
    )

    _, baseline_proof = baseline.answer_range(1, 8999)
    baseline_leaked_rows = sum(
        1 for row in baseline_proof.expanded_rows if row["salary"] >= 9000
    )
    rows = [
        ("this paper", len(ours.rows), our_leaked_rows),
        ("Devanbu MHT", len(baseline_proof.expanded_rows), baseline_leaked_rows),
    ]
    report(
        "precision_row_level_figure1",
        format_table(("scheme", "rows shown to executive", "rows beyond policy bound"), rows),
    )
    assert our_leaked_rows == 0
    assert baseline_leaked_rows >= 1  # the 12100 record is exposed


def test_report_column_level_precision(owner, signature_scheme):
    """Projection: SELECT name — how many non-projected values travel to the user."""
    relation = generate_employees(100, seed=5, photo_bytes=256)
    signed = owner.publish_relation(relation)
    publisher = Publisher({"employees": signed})
    verifier = ResultVerifier({"employees": signed.manifest})
    baseline = DevanbuPublication(generate_employees(100, seed=5, photo_bytes=256), signature_scheme)

    keys = relation.keys()
    low, high = keys[20], keys[39]
    query = Query(
        "employees",
        Conjunction((RangeCondition("salary", low, high),)),
        Projection(attributes=("name",)),
    )
    ours = publisher.answer(query)
    verifier.verify(query, ours.rows, ours.proof)
    our_extra_values = sum(len(row) - 2 for row in ours.rows)  # beyond key+name

    _, baseline_proof = baseline.answer_range(low, high)
    schema_width = len(relation.schema.attribute_names)
    baseline_extra_values = sum(
        schema_width - 2 for _ in baseline_proof.expanded_rows
    )
    blob_bytes_shipped = sum(
        len(row["photo"]) for row in baseline_proof.expanded_rows
    )
    rows = [
        ("this paper", our_extra_values, 0),
        ("Devanbu MHT", baseline_extra_values, blob_bytes_shipped),
    ]
    report(
        "precision_column_level_projection",
        format_table(
            ("scheme", "non-projected values shipped", "BLOB bytes shipped"), rows
        ),
    )
    assert our_extra_values == 0
    assert baseline_extra_values > 0 and blob_bytes_shipped > 0


def test_multipoint_unsupported_by_baseline(figure1_world):
    """Limitation (5): multipoint queries only work under the proposed scheme."""
    publisher, verifier, baseline = figure1_world
    from repro.db.query import EqualityCondition

    query = Query(
        "employees",
        Conjunction((RangeCondition("salary", None, 9999), EqualityCondition("dept", 1))),
    )
    ours = publisher.answer(query, role="hr_manager")
    verifier.verify(query, ours.rows, ours.proof, role="hr_manager")
    assert [row["name"] for row in ours.rows] == ["A", "D"]
    # The baseline has no notion of filtering on an unsorted attribute: the
    # closest it can do is return the full salary range.
    baseline_rows, _ = baseline.answer_range(1, 9999)
    assert len(baseline_rows) > len(ours.rows)


def test_figure1_query_time(benchmark, figure1_world):
    publisher, verifier, _ = figure1_world
    query = Query("employees", Conjunction((RangeCondition("salary", None, 9999),)))

    def round_trip():
        result = publisher.answer(query, role="hr_executive")
        verifier.verify(query, result.rows, result.proof, role="hr_executive")

    benchmark(round_trip)
