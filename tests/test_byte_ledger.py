"""An exact byte ledger of verified answers at the shipped base.

For eight canonical answers, published at ``DEFAULT_BASE`` under a seeded
1024-bit key, the ledger pins

* ``response_bytes``: the length-prefixed response frames the client reads;
* ``proof_bytes``: the VO alone (``encode`` of the proof);
* ``payload_bytes``: what formula (4) counts of that VO, its digests at the
  hash's digest size (an empty range's outer neighbour ``g`` is three of
  them) plus its signatures at the key's size;

in ``tests/golden/byte_ledger.json``, so that a later framing change shows
up as a diff to that table.  A VO made of digests and signatures alone stays
within 8 % of its payload.  The projection, DISTINCT and filtered answers
also carry attribute names (the keys of their digest and value maps) and
revealed values, which formula (4) does not count; their ratio is pinned
with the table.  Regenerate the table after an intended change with::

    PYTHONPATH=src python tests/test_byte_ledger.py --regen
"""

import json
import os

import pytest

from repro.bench.scale import RELATION, _base_row, metrics_schema
from repro.core.owner import DataOwner
from repro.core.polynomial import DEFAULT_BASE
from repro.core.proof import RangeQueryProof
from repro.core.publisher import Publisher
from repro.crypto.rsa import generate_keypair
from repro.crypto.signature import scheme_from_keypair
from repro.db import workload
from repro.db.query import Conjunction, EqualityCondition, JoinQuery, Projection, Query, RangeCondition
from repro.db.relation import Relation
from repro.service.protocol import JoinResponse, QueryResponse, encode_frame
from repro.wire import encode, manifest_id

LEDGER_PATH = os.path.join(os.path.dirname(__file__), "golden", "byte_ledger.json")
#: Seed of the ledger's owner key: a signature's byte length follows the key.
KEY_SEED = 2005
#: A VO may exceed its digests and signatures by at most this factor.
FRAMING_MAX = 1.08
#: The answers whose VO also carries attribute names and revealed values.
NAMED_CELLS = ("projection_drops_one", "distinct_one_duplicate", "filtered_range")


def _range(name, key, low, high, *conditions, projection=Projection()):
    return Query(name, Conjunction((RangeCondition(key, low, high),) + conditions), projection)


def _answer(publisher, signed, query):
    result = publisher.answer(query)
    response = QueryResponse(result.rows, result.proof, manifest_id(signed.manifest))
    return [response], [result.proof]


def _payload(proof, digest_bytes: int, signature_bytes: int) -> int:
    ranges = (
        [proof]
        if isinstance(proof, RangeQueryProof)
        else [proof.left_proof, *proof.right_point_proofs.values()]
    )
    return sum(
        part.size_bytes(digest_bytes, signature_bytes)
        + len(part.outer_neighbor_digest or b"\0" * digest_bytes)
        - digest_bytes
        for part in ranges
    )


def build_ledger() -> dict:
    """Case name -> its byte counts, all deterministic."""
    owner = DataOwner(scheme_from_keypair(generate_keypair(bits=1024, rng_seed=KEY_SEED)))
    assert owner.base == DEFAULT_BASE
    # Dense keys 1..1024 but for a gap, 601..610, that the empty range falls in.
    metrics = owner.publish_relation(
        Relation.from_rows(
            metrics_schema(1024),
            [_base_row(key) for key in range(1, 1025) if not 601 <= key <= 610],
        )
    )
    employees = owner.publish_relation(workload.generate_employees(60, seed=21, photo_bytes=8))
    duplicated = owner.publish_relation(
        Relation.from_rows(
            workload.employee_schema(),
            [
                {"salary": 1000, "emp_id": "0", "name": "same", "dept": 1, "photo": b""},
                {"salary": 1000, "emp_id": "1", "name": "same", "dept": 1, "photo": b""},
                {"salary": 2000, "emp_id": "2", "name": "other", "dept": 2, "photo": b""},
            ],
        )
    )
    customers, orders = workload.generate_customers_and_orders(25, 80, seed=5)
    sales = owner.publish_database({"customers": customers, "orders": orders})

    on_metrics = Publisher({RELATION: metrics})
    key = "metric_id"
    cases = {
        "point_read": _answer(on_metrics, metrics, _range(RELATION, key, 500, 500)),
        "range_40": _answer(on_metrics, metrics, _range(RELATION, key, 301, 340)),
        "empty_range": _answer(on_metrics, metrics, _range(RELATION, key, 603, 607)),
        "projection_drops_one": _answer(
            on_metrics,
            metrics,
            _range(RELATION, key, 301, 340, projection=Projection(("metric_id", "value"))),
        ),
        "distinct_one_duplicate": _answer(
            Publisher({"employees": duplicated}),
            duplicated,
            _range(
                "employees", "salary", None, None,
                projection=Projection(("name", "dept"), distinct=True),
            ),
        ),
        "filtered_range": _answer(
            Publisher({"employees": employees}),
            employees,
            _range("employees", "salary", 20_000, 70_000, EqualityCondition("dept", 1)),
        ),
    }
    join = Publisher(sales.relations).answer_join(
        JoinQuery(
            "orders", "customers", "customer_id", "customer_id",
            Conjunction((RangeCondition("customer_id", None, 10),)),
        )
    )
    cases["pk_fk_join"] = (
        [
            JoinResponse(
                join.rows,
                join.left_rows,
                join.proof,
                manifest_id(sales["orders"].manifest),
                manifest_id(sales["customers"].manifest),
            )
        ],
        [join.proof],
    )
    batch = [_answer(on_metrics, metrics, _range(RELATION, key, low, low + 9)) for low in (11, 511, 1011)]
    cases["pipelined_batch_of_3"] = tuple(sum((part[i] for part in batch), []) for i in (0, 1))

    digest_bytes = metrics.manifest.hash_function().digest_size
    signature_bytes = (owner.public_key.modulus.bit_length() + 7) // 8
    return {
        name: {
            "response_bytes": sum(len(encode_frame(response)) for response in responses),
            "proof_bytes": sum(len(encode(proof)) for proof in proofs),
            "payload_bytes": sum(_payload(proof, digest_bytes, signature_bytes) for proof in proofs),
            "rows": sum(len(response.rows) for response in responses),
        }
        for name, (responses, proofs) in cases.items()
    }


@pytest.fixture(scope="module")
def ledger():
    return build_ledger()


def test_the_ledger_is_pinned(ledger):
    with open(LEDGER_PATH, encoding="utf-8") as handle:
        pinned = json.load(handle)
    assert ledger == pinned, (
        "the bytes of a canonical answer moved; if intended, regenerate with: "
        "PYTHONPATH=src python tests/test_byte_ledger.py --regen"
    )


def test_a_vo_of_digests_and_signatures_carries_little_else(ledger):
    for name, cell in ledger.items():
        if name not in NAMED_CELLS:
            assert cell["proof_bytes"] <= FRAMING_MAX * cell["payload_bytes"], name
    assert ledger["distinct_one_duplicate"]["rows"] == 2
    assert ledger["empty_range"]["rows"] == 0 and ledger["range_40"]["rows"] == 40


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        with open(LEDGER_PATH, "w", encoding="utf-8") as handle:
            json.dump(build_ledger(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {LEDGER_PATH}")
    else:
        print(__doc__)
