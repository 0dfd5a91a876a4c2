"""Tier-1 smoke mode of the scheme-comparison benchmark.

Runs the in-process scheme comparison (``benchmarks/
bench_scheme_comparison.py``) at scaled-down sizes, so every ordinary
``pytest`` run re-checks that every scheme answers and verifies and that the
paper's comparative claims still hold.
"""

from repro.bench.schemes import SMOKE_SCHEME_CONFIG, run_scheme_benchmarks
from repro.schemes import SCHEMES


def test_scheme_comparison_smoke_report():
    report = run_scheme_benchmarks(SMOKE_SCHEME_CONFIG)
    comparison = report["workloads"]["scheme_comparison"]
    assert list(comparison["schemes"]) == [scheme.name for scheme in SCHEMES]

    for scheme in SCHEMES:
        entry = comparison["schemes"][scheme.name]
        assert entry["proves_completeness"] == scheme.proves_completeness
        points = entry["points"]
        assert len(points) == len(SMOKE_SCHEME_CONFIG.selectivities)
        for point in points:
            assert point["result_rows"] > 0
            assert point["vo_bytes"] > 0
            assert point["verify_ms"] > 0
        update = entry["update"]
        assert update["digests_recomputed"] >= 1
        assert update["best_ms"] > 0

    # The paper's Section 2.3 claim, also gated in CI by check_bench_floors:
    # the chain VO stays below the Devanbu VO at the lowest selectivity.
    assert comparison["chain_vo_below_devanbu"] is True

    # Section 6.3's update story: a chain update re-signs the three entries
    # of its window (an in-place modify); the VB-tree re-signs its whole
    # root path.
    schemes = comparison["schemes"]
    assert schemes["chain"]["update"]["signatures_recomputed"] == 3
    assert schemes["devanbu"]["update"]["signatures_recomputed"] == 2
    assert schemes["vbtree"]["update"]["signatures_recomputed"] >= 2
    assert schemes["naive"]["update"]["signatures_recomputed"] == 1


def test_seeded_comparison_cells_reproduce():
    """The owner key is seeded, so every byte and count cell of the table is
    the same in every run; only the timings move."""

    def cells():
        schemes = run_scheme_benchmarks(SMOKE_SCHEME_CONFIG)["workloads"][
            "scheme_comparison"
        ]["schemes"]
        return {
            name: (
                [(p["result_rows"], p["vo_bytes"]) for p in entry["points"]],
                entry["update"]["signatures_recomputed"],
                entry["update"]["digests_recomputed"],
            )
            for name, entry in schemes.items()
        }

    assert cells() == cells()
