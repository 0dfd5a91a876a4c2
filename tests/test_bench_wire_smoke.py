"""Tier-1 smoke mode of the wire/service benchmark (``benchmarks/bench_wire_service.py``).

Runs the serialized-VO-size sweep, the codec throughput loop and the live
client/server throughput workload at scaled-down sizes, so every ordinary
``pytest`` run re-checks that the harness works and that the Figure 9 trend
(the VO/result overhead ratio falls as selectivity rises) still holds.
"""

from test_bench_hot_paths_smoke import _load_benchmark_script

from repro.bench.wire import SMOKE_WIRE_CONFIG, run_wire_benchmarks


def test_wire_smoke_benchmark_report():
    report = run_wire_benchmarks(SMOKE_WIRE_CONFIG)
    workloads = report["workloads"]
    assert {
        "wire_vo_sizes",
        "wire_codec_throughput",
        "service_throughput",
    } <= set(workloads)

    sizes = workloads["wire_vo_sizes"]
    points = sizes["points"]
    assert len(points) == len(SMOKE_WIRE_CONFIG.selectivities)
    for point in points:
        assert point["vo_bytes"] > 0
        assert point["vo_analytic_bytes"] > 0
    # Figure 9 trend: larger results amortise the authentication traffic.
    assert points[-1]["overhead_ratio"] < points[0]["overhead_ratio"]

    codec = workloads["wire_codec_throughput"]
    assert codec["encode_ops_per_sec"] > 0
    assert codec["decode_ops_per_sec"] > 0

    service = workloads["service_throughput"]
    assert service["requests_per_sec_raw"] > 0
    assert service["requests_per_sec_verified"] > 0


def test_update_locality_counts():
    """The CLI's ``update_locality`` workload: exact counts, the same on every
    machine — an owner update stales the cached answers whose chain window it
    touched and no others."""
    cli = _load_benchmark_script("bench_wire_service.py")
    locality = cli.bench_update_locality()
    assert locality["reads"] == 896
    assert locality["publisher_answers"] == locality["window_invalidations"] > 0
    assert locality["answers_per_read"] <= cli.UPDATE_LOCALITY_ANSWERS_PER_READ_MAX
    assert locality["response_cache_hit_ratio"] >= cli.UPDATE_LOCALITY_HIT_RATIO_MIN
    assert locality["log_overruns"] == 0
