"""Section 6.3: update overheads — neighbour re-signing vs digest-hierarchy schemes.

The paper's claim: an update under the proposed scheme touches at most three
signatures, residing in at most two adjacent B+-tree leaves, regardless of the
table size; Merkle-hash-tree schemes (Devanbu) must re-hash the whole
leaf-to-root path and re-sign the root (a locking hot-spot), and the VB-tree
re-signs every node on the path.
"""

import pytest

from conftest import format_table, report
from repro.db.btree import BPlusTree
from repro.db.workload import generate_employees
from repro.schemes.devanbu import DevanbuPublication
from repro.schemes.naive import NaivePublication
from repro.schemes.vbtree import VBTreePublication
from repro.wire.updates import RecordDelta

# Run the table-regeneration tests under --benchmark-only as well: they are
# what actually reproduces the paper's figures.
pytestmark = pytest.mark.usefixtures("benchmark")

TABLE_SIZES = (128, 512, 2048)


def _fresh_salary(relation):
    used = set(relation.keys())
    return next(s for s in range(40_000, 100_000) if s not in used)


def _fresh_row(relation, emp_id):
    return {
        "salary": _fresh_salary(relation),
        "emp_id": emp_id,
        "name": emp_id[0].upper(),
        "dept": 1,
        "photo": b"",
    }


@pytest.fixture(scope="module")
def update_worlds(owner, signature_scheme):
    worlds = {}
    for size in TABLE_SIZES:
        relation = generate_employees(size, seed=31, photo_bytes=4)
        worlds[size] = {
            "relation": relation,
            "ours": owner.publish_relation(
                generate_employees(size, seed=31, photo_bytes=4)
            ),
            "devanbu": DevanbuPublication(
                generate_employees(size, seed=31, photo_bytes=4), signature_scheme
            ),
            "vbtree": VBTreePublication(
                generate_employees(size, seed=31, photo_bytes=4), signature_scheme, fanout=8
            ),
            "naive": NaivePublication(
                generate_employees(size, seed=31, photo_bytes=4), signature_scheme
            ),
        }
    return worlds


def test_report_update_costs(update_worlds):
    rows = []
    ours_signatures = {}
    devanbu_hashes = {}
    for size, world in sorted(update_worlds.items()):
        ours = world["ours"]
        # The same mutation under every scheme: one inserted row.
        receipt = ours.insert_record(_fresh_row(ours.relation, "upd"))
        devanbu_cost, vbtree_cost, naive_cost = (
            world[name].apply_deltas(
                [RecordDelta("insert", _fresh_row(world[name].relation, "upd"))]
            )
            for name in ("devanbu", "vbtree", "naive")
        )
        ours_signatures[size] = receipt.signatures_recomputed
        devanbu_hashes[size] = devanbu_cost.digests_recomputed
        rows.append(
            (
                size,
                f"{receipt.signatures_recomputed} sigs",
                f"{devanbu_cost.digests_recomputed} hashes + "
                f"{devanbu_cost.signatures_recomputed} sig (root)",
                f"{vbtree_cost.signatures_recomputed} sigs (path)",
                f"{naive_cost.signatures_recomputed} sig",
            )
        )
    report(
        "update_cost_comparison",
        format_table(
            ("table rows", "this paper", "Devanbu MHT", "VB-tree", "naive per-tuple"),
            rows,
        ),
    )
    # Our update cost is constant; the MHT path grows with the table size.
    assert set(ours_signatures.values()) == {3}
    assert devanbu_hashes[TABLE_SIZES[-1]] > devanbu_hashes[TABLE_SIZES[0]]


def test_report_leaves_touched(update_worlds, owner):
    """Signatures co-located in B+-tree leaves: at most two leaves per update."""
    from repro.db.schema import KeyDomain
    from repro.db.workload import generate_sorted_values

    domain = KeyDomain(0, 1_000_000)
    values = generate_sorted_values(2000, domain, seed=3)
    published = owner.publish_value_list(values, domain)
    tree = BPlusTree(fanout=64)
    for position, value in enumerate(published.values):
        tree.insert(value, position, signature=published.signatures[position + 1])
    touched = []
    used = set(values)
    candidate = 500_001
    for _ in range(20):
        while candidate in used:
            candidate += 1
        used.add(candidate)
        touched.append(
            tree.update_with_signatures(candidate, None, lambda a, b, c: hash((a, b, c)))
        )
        candidate += 997
    report(
        "update_leaves_touched",
        format_table(
            ("update #", "leaves touched"),
            [(index + 1, count) for index, count in enumerate(touched)],
        ),
    )
    assert max(touched) <= 2


@pytest.mark.parametrize("size", TABLE_SIZES)
def test_our_update_time(benchmark, update_worlds, size):
    ours = update_worlds[size]["ours"]

    def insert_and_remove():
        row = _fresh_row(ours.relation, "bench")
        ours.insert_record(row)
        ours.delete_record(ours.relation[ours.relation.range_indices(row["salary"], row["salary"])[0]])

    benchmark.pedantic(insert_and_remove, rounds=5, iterations=1)


@pytest.mark.parametrize("size", TABLE_SIZES[:2])
def test_devanbu_update_time(benchmark, update_worlds, size):
    baseline = update_worlds[size]["devanbu"]

    def insert_and_remove():
        row = _fresh_row(baseline.relation, "bench")
        baseline.apply_deltas([RecordDelta("insert", row), RecordDelta("delete", row)])

    benchmark.pedantic(insert_and_remove, rounds=3, iterations=1)
