"""The Figure 9/10 sweep (``benchmarks/paper_sweep.py``) at the served key domain.

Exact counts per first-touch 40-row answer over the 16,385-wide domain the
benchmark serves, at B=2 (the base shipped before) and at the shipped
default: they are machine-independent, so they are asserted exactly, against
literals and against the committed record the CI gate reads.
"""

import copy
import importlib.util
import json
import os

from repro.core.polynomial import DEFAULT_BASE

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load(name):
    path = os.path.join(_ROOT, "benchmarks", name)
    spec = importlib.util.spec_from_file_location(name[:-3] + "_cli", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_served_domain_counts_at_b2_and_at_the_default():
    sweep = _load("paper_sweep.py")
    signer = sweep._signer()
    calibration = sweep.calibrate(signer)
    cells = {}
    for base in (2, DEFAULT_BASE):
        cells.update(sweep.measure_root("16385", base, (40,), signer, calibration))
    before, after = cells["16385/B=2/Q=40"], cells[f"16385/B={DEFAULT_BASE}/Q=40"]
    assert DEFAULT_BASE == 3
    # B=2 -> B=3: verifier, publisher and owner hashes, and VO bytes.
    assert (before["verifier_hashes_per_answer"], after["verifier_hashes_per_answer"]) == (
        2099.25,
        1675,
    )
    assert (before["publisher_hashes_per_answer"], after["publisher_hashes_per_answer"]) == (
        157.25,
        113.5,
    )
    assert (before["owner_hashes_per_row"], after["owner_hashes_per_row"]) == (161.191, 118.547)
    assert (before["vo_bytes_per_answer"], after["vo_bytes_per_answer"]) == (4896.75, 4464.75)
    # The chain share is what the cost model's kernel counts predict; the
    # rest (attribute roots, 40 chain messages) does not depend on B.
    for cell in (before, after):
        assert cell["verifier_hashes_per_answer"] - cell["kernel_chain_hashes_per_answer"] == 160
    with open(sweep.RECORD_JSON, encoding="utf-8") as handle:
        record = json.load(handle)
    exact = _load("check_bench_floors.py")._SWEEP_EXACT
    for name, cell in cells.items():
        for field in exact:
            assert record["cells"][name][field] == cell[field], (name, field)


def test_sweep_gate_binds_on_exact_counts():
    gate = _load("check_bench_floors.py")
    with open(gate._SWEEP_RECORD, encoding="utf-8") as handle:
        record = json.load(handle)
    failures = []
    gate._check_sweep(record, record, failures)
    assert failures == []

    moved = copy.deepcopy(record)
    moved["cells"]["16385/B=3/Q=40"]["vo_bytes_per_answer"] += 1
    failures = []
    gate._check_sweep(record, moved, failures)
    assert any("vo_bytes_per_answer" in failure for failure in failures)

    off_model = copy.deepcopy(record)
    off_model["cells"]["16385/B=4/Q=40"]["kernel_chain_hashes_per_answer"] -= 1
    failures = []
    gate._check_sweep(record, off_model, failures)
    assert any("base-dependent" in failure for failure in failures)

    other_default = dict(record, default_base=2)
    failures = []
    gate._check_sweep(record, other_default, failures)
    assert any("not the measured argmin" in failure for failure in failures)
