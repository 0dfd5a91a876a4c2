"""CI gate: fail when hot-path speedups regress below the stored floors.

Compares a freshly measured benchmark report (usually a ``--smoke`` run
produced in CI) against the speedup floors stored in the committed
``BENCH_hot_paths.json`` (its ``targets`` section).  Exits non-zero when any
measured speedup is below its floor, when a cold range or point read
performs other than its exact hash count or makes other than one store read,
when a bulk ``sign_batch`` stops scaling across the runner's cores, or — if
the fresh report carries the wire/service
workloads — when decoding fell below its floor against encoding or an owner
update stales more of a cached read pool than the chain window it touched.

Usage::

    PYTHONPATH=src python benchmarks/bench_hot_paths.py --smoke --output fresh.json
    python benchmarks/check_bench_floors.py fresh.json

    PYTHONPATH=src python benchmarks/bench_wire_service.py --smoke --output fresh.json
    python benchmarks/check_bench_floors.py fresh.json --wire

    PYTHONPATH=src python benchmarks/bench_scheme_comparison.py --smoke --output fresh.json
    python benchmarks/check_bench_floors.py fresh.json --schemes

    PYTHONPATH=src python benchmarks/bench_scale.py --smoke --output fresh.json
    python benchmarks/check_bench_floors.py fresh.json --scale

    PYTHONPATH=src python benchmarks/paper_sweep.py --smoke --output fresh.json
    python benchmarks/check_bench_floors.py fresh.json --sweep

``--sweep`` compares the Figure 9/10 sweep's exact counts, cell by cell,
against the committed ``benchmarks/results/paper_sweep.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_COMMITTED = os.path.join(_ROOT, "BENCH_hot_paths.json")
_SWEEP_RECORD = os.path.join(_ROOT, "benchmarks", "results", "paper_sweep.json")

#: The sweep's counts: exact, so a fresh cell must equal the committed one.
_SWEEP_EXACT = (
    "owner_hashes_per_row",
    "publisher_hashes_per_answer",
    "verifier_hashes_per_answer",
    "kernel_chain_hashes_per_answer",
    "vo_bytes_per_answer",
)

#: targets key in the committed report -> workload whose speedup it bounds
_FLOOR_WORKLOADS = {
    "crt_single_shot_signing_speedup_min": "crt_single_shot_signing",
    "batch_verify_speedup_min": "batch_verify",
    # For wal_ingest "speedup" is the fraction of storage-less in-RAM ingest
    # throughput retained over a durable root under fsync="batch" (< 1 by
    # construction) — the floor bounds the overhead of the log append plus
    # the relation-store commit, not a cache win.
    "wal_ingest_speedup_min": "wal_ingest",
}


def _check_hot_paths(floors: dict, fresh: dict, failures: list) -> None:
    workloads = fresh.get("workloads", {})
    for floor_key, workload in _FLOOR_WORKLOADS.items():
        floor = floors.get(floor_key)
        if floor is None:
            failures.append(f"committed report is missing floor {floor_key!r}")
            continue
        own_target = fresh.get("targets", {}).get(floor_key)
        if own_target is not None:
            floor = max(floor, own_target)
        entry = workloads.get(workload)
        if entry is None:
            failures.append(f"fresh report is missing workload {workload!r}")
            continue
        speedup = entry.get("speedup", 0.0)
        status = "ok" if speedup >= floor else "REGRESSION"
        print(f"{workload:28s} speedup {speedup:8.2f}x  floor {floor:5.2f}x  {status}")
        if speedup < floor:
            failures.append(
                f"{workload} speedup {speedup:.2f}x fell below the {floor:.2f}x floor"
            )
    # Exact and machine-independent: the hashes one first-touch 40-key range
    # answer, and one single-key answer, performs (a mean over fixed keys),
    # and read by read the cost model's kernel count for those keys.  It
    # moves when the server walks digit chains for rows whose roots it has
    # stored, or a chain it does not ship, or when a row read stops
    # re-checking its fingerprint.
    cold = fresh.get("cold_range")
    for section, target in (
        ("cold_range", "cold_range_hashes_per_read"),
        ("cold_point", "cold_point_hashes_per_read"),
    ):
        expected_hashes = floors.get(target)
        measured = fresh.get(section)
        if expected_hashes is None:
            failures.append(f"committed report is missing {target!r}")
        elif measured is None:
            failures.append(f"fresh report is missing section {section!r}")
        else:
            hashes = measured.get("hashes_per_read", float("inf"))
            status = "ok" if hashes == expected_hashes else "REGRESSION"
            print(
                f"{section:28s} {hashes:7.1f} hashes/read  exactly {expected_hashes}  "
                f"{status}  (hash-floor ratio "
                f"{measured.get('hash_floor_ratio', float('nan')):.2f}, ungated)"
            )
            if hashes != expected_hashes:
                failures.append(
                    f"a {section.replace('_', ' ')} read performs {hashes:g} hashes "
                    f"(it must perform {expected_hashes})"
                )
            if measured.get("hashes_match_model") is False:
                failures.append(
                    f"a {section.replace('_', ' ')} read hashes other than the "
                    "cost model's kernel count for its keys"
                )
    # Exact too: the store calls one such answer makes.  Its chain span is
    # one range scan; more means the relation went back to per-row loads.
    expected = floors.get("cold_range_store_reads_per_read")
    if expected is None:
        failures.append("committed report is missing 'cold_range_store_reads_per_read'")
    elif cold is not None:
        reads = cold.get("store_reads_per_read", float("inf"))
        status = "ok" if reads == expected else "REGRESSION"
        print(f"cold_range                   {reads:7.2f} store reads/read  exactly {expected}  {status}")
        if reads != expected:
            failures.append(
                f"a cold range read makes {reads:g} store reads (it must make {expected})"
            )
    _check_publish_sign(floors, fresh, failures)


def _check_publish_sign(floors: dict, fresh: dict, failures: list) -> None:
    """Gate a bulk ``sign_batch``'s scaling across the runner's cores.

    Machine-independent wherever there is more than one core to use: the
    batch's serial time over its time sharded across the runner's affinity
    mask, both measured by the run that produced the report.  On a one-CPU
    runner nothing is sharded and the figure (about 1.0) is printed ungated.
    """
    scaling_floor = floors.get("publish_sign_core_scaling_min")
    publish = fresh.get("publish_sign")
    if scaling_floor is None:
        failures.append("committed report is missing floor 'publish_sign_core_scaling_min'")
    elif publish is None:
        failures.append("fresh report is missing section 'publish_sign'")
    else:
        scaling = publish.get("core_scaling", 0.0)
        shards = publish.get("shards", 1)
        gated = shards >= 2
        status = "ungated" if not gated else "ok" if scaling >= scaling_floor else "REGRESSION"
        print(
            f"publish_sign                 core scaling {scaling:5.2f}x over {shards} shard(s)  "
            f"floor {scaling_floor:5.2f}x  {status}"
        )
        if publish.get("signatures_identical") is not True:
            failures.append("sharded and serial sign_batch signatures are no longer identical")
        if gated and scaling < scaling_floor:
            failures.append(
                f"a sharded publish signs only {scaling:.2f}x faster than a serial one "
                f"over {shards} shards (the floor is {scaling_floor:.2f}x)"
            )


def _check_wire(floors: dict, fresh: dict, failures: list) -> None:
    """Gates on the wire/service workloads (run with ``--wire``).

    Absolute requests/sec depend on the runner, so the CI gate leans on the
    machine-independent invariants: decode at
    least as fast as a conservative fraction of encode (the seed's decoder
    ran at ~0.36x of encode; the generated per-artifact reader over the
    strict primitives must stay at or above 0.55x even on a noisy runner), the freshness-attestation check costing
    at most 15% of verified throughput (one *memoized* signature verify plus
    the attestation's wire bytes per answer), and the replica group retaining at
    least half its healthy verified request rate through an abrupt
    single-replica kill — with zero unverified answers accepted.  One
    deliberately *very* conservative absolute floor backs them up:
    ``wire_verified_requests_per_sec_min`` catches order-of-magnitude
    collapses of the verified serving path without being sensitive to
    runner speed.
    """
    workloads = fresh.get("workloads", {})
    codec = workloads.get("wire_codec_throughput")
    if codec is None:
        failures.append("fresh report is missing workload 'wire_codec_throughput'")
    else:
        encode_rate = codec.get("encode_ops_per_sec", 0.0)
        decode_rate = codec.get("decode_ops_per_sec", 0.0)
        ratio = decode_rate / encode_rate if encode_rate else 0.0
        status = "ok" if ratio >= 0.55 else "REGRESSION"
        print(
            f"wire_codec_throughput        decode/encode {ratio:8.2f}   "
            f"floor  0.55   {status}"
        )
        if ratio < 0.55:
            failures.append(
                f"decode throughput fell to {ratio:.2f}x of encode "
                "(the generated decoder's floor is 0.55x)"
            )
    service = workloads.get("service_throughput")
    if service is None:
        failures.append("fresh report is missing workload 'service_throughput'")
    else:
        verified = service.get("requests_per_sec_verified", 0.0)
        verified_floor = floors.get("wire_verified_requests_per_sec_min")
        if verified_floor is None:
            failures.append(
                "committed report is missing floor "
                "'wire_verified_requests_per_sec_min'"
            )
        else:
            status = "ok" if verified >= verified_floor else "REGRESSION"
            print(
                f"service_throughput           verified {verified:8.2f} req/s "
                f"floor {verified_floor:5.2f}   {status}"
            )
            if verified < verified_floor:
                failures.append(
                    f"verified serving throughput {verified:.2f} req/s fell "
                    f"below the {verified_floor:.2f} req/s floor"
                )
        fresh_rate = service.get("requests_per_sec_verified_fresh")
        if fresh_rate is None:
            failures.append(
                "fresh report is missing 'requests_per_sec_verified_fresh' "
                "(freshness-enforcing service workload)"
            )
        else:
            # The freshness check is a memoized signature verify (the same
            # attestation rides every answer) plus the attestation's wire
            # bytes; at smoke sizes the answers themselves are cheap enough
            # that this fixed per-answer cost is legitimately ~10%, so the
            # floor is 0.85 (the committed full-size run measures ~1.0).
            ratio = fresh_rate / verified if verified else 0.0
            status = "ok" if ratio >= 0.85 else "REGRESSION"
            print(
                f"service_throughput           fresh/verified {ratio:7.2f}   "
                f"floor  0.85   {status}"
            )
            if ratio < 0.85:
                failures.append(
                    f"freshness-enforcing throughput fell to {ratio:.2f}x of "
                    "plain verified throughput (the attestation-check floor "
                    "is 0.85x)"
                )
    _check_update_locality(floors, workloads.get("update_locality"), failures)
    availability = workloads.get("replica_failover_availability")
    if availability is None:
        failures.append(
            "fresh report is missing workload 'replica_failover_availability'"
        )
    else:
        ratio = availability.get("availability_ratio", 0.0)
        status = "ok" if ratio >= 0.5 else "REGRESSION"
        print(
            f"replica_failover             avail ratio {ratio:9.2f}   "
            f"floor  0.50   {status}"
        )
        if ratio < 0.5:
            failures.append(
                f"verified availability through a single-replica kill fell to "
                f"{ratio:.2f}x of the healthy rate (the floor is 0.5x)"
            )
        unverified = availability.get("unverified_answers")
        if unverified != 0:
            failures.append(
                f"the failover workload accepted {unverified} unverified "
                "answer(s); every accepted answer must be verified"
            )


def _check_update_locality(floors: dict, locality, failures: list) -> None:
    """Exact and machine-independent: what a seeded stream of owner updates
    leaves of a cached read pool.  The publisher's answers per read rise, and
    the response cache's hit ratio falls, when an update goes back to
    invalidating more than the chain window it touched."""
    ceiling = floors.get("update_locality_answers_per_read_max")
    floor = floors.get("update_locality_hit_ratio_min")
    if ceiling is None or floor is None:
        failures.append("committed report is missing the 'update_locality_*' bounds")
        return
    if locality is None:
        failures.append("fresh report is missing workload 'update_locality'")
        return
    answers = locality.get("answers_per_read", float("inf"))
    ratio = locality.get("response_cache_hit_ratio", 0.0)
    status = "ok" if answers <= ceiling and ratio >= floor else "REGRESSION"
    print(
        f"update_locality              {answers:.4f} answers/read  ceiling {ceiling:4.2f}, "
        f"hit ratio {ratio:.4f}  floor {floor:4.2f}   {status}"
    )
    if answers > ceiling:
        failures.append(
            f"the publisher builds {answers:.4f} answers per pooled read under "
            f"updates (the ceiling is {ceiling:.2f})"
        )
    if ratio < floor:
        failures.append(
            f"the response cache's hit ratio under updates fell to {ratio:.4f} "
            f"(the floor is {floor:.2f})"
        )


def _check_schemes(fresh: dict, failures: list) -> None:
    """Gates on the scheme-comparison workload (run with ``--schemes``).

    The paper's comparative claim: at the sweep's lowest selectivity the
    chain scheme's serialized VO must stay below the Devanbu MHT's (which
    ships O(log n) digests plus whole boundary/result tuples).  Also checks
    that every scheme answered and verified at every selectivity point.
    """
    comparison = fresh.get("workloads", {}).get("scheme_comparison")
    if comparison is None:
        failures.append("fresh report is missing workload 'scheme_comparison'")
        return
    chain = comparison.get("chain_vo_bytes_low_selectivity", 0)
    devanbu = comparison.get("devanbu_vo_bytes_low_selectivity", 0)
    # Compared directly from the measured byte counts — the report's own
    # chain_vo_below_devanbu boolean is informational, not trusted.
    below = bool(chain) and bool(devanbu) and chain < devanbu
    status = "ok" if below else "REGRESSION"
    print(
        f"scheme_comparison            chain VO {chain}B < devanbu VO "
        f"{devanbu}B at selectivity {comparison.get('lowest_selectivity')}  {status}"
    )
    if not below:
        failures.append(
            f"chain-scheme VO ({chain} bytes) is no longer below the Devanbu "
            f"VO ({devanbu} bytes) at low selectivity"
        )
    schemes = comparison.get("schemes", {})
    for required in ("chain", "devanbu", "naive", "vbtree"):
        entry = schemes.get(required)
        if entry is None:
            failures.append(f"scheme {required!r} is missing from the comparison")
            continue
        if not entry.get("points"):
            failures.append(f"scheme {required!r} served no selectivity points")
        if any(p.get("verify_ms", 0) <= 0 for p in entry.get("points", [])):
            failures.append(f"scheme {required!r} reported a non-positive verify time")


#: targets key -> (operation class, latency field) for the scale ceilings
_SCALE_LATENCY_CEILINGS = {
    "scale_point_p99_ms_max": "point",
    "scale_range_p99_ms_max": "range",
    "scale_update_p99_ms_max": "update",
}


def _check_sweep(record: dict, fresh: dict, failures: list) -> None:
    """Gate the Figure 9/10 sweep: every count exact, and the shipped base its argmin.

    Per cell the fresh counts must equal the committed ones; per key domain
    and ``|Q|`` the verifier's hashes outside the chains (attribute roots,
    chain messages) must not depend on ``B``, i.e. the chain share is exactly
    what the cost model's kernel counts predict; and on the served 16,385-wide
    domain the shipped base must hash least for a 40-row answer.
    """
    cells = fresh.get("cells", {})
    committed = record.get("cells", {})
    if not cells:
        failures.append("fresh sweep report carries no cells")
    for name, cell in sorted(cells.items()):
        reference = committed.get(name)
        if reference is None:
            failures.append(f"sweep cell {name!r} is not in the committed record")
            continue
        moved = [
            f"{field} {reference[field]} -> {cell[field]}"
            for field in _SWEEP_EXACT
            if cell[field] != reference[field]
        ]
        print(f"{name:20s} verifier {cell['verifier_hashes_per_answer']:>9} hashes  "
              f"VO {cell['vo_bytes_per_answer']:>9} B  {'MOVED' if moved else 'ok'}")
        if moved:
            failures.append(f"sweep cell {name}: " + ", ".join(moved))
    overheads: dict = {}
    for name, cell in cells.items():
        overhead = cell["verifier_hashes_per_answer"] - cell["kernel_chain_hashes_per_answer"]
        overheads.setdefault((cell["domain"], cell["result_size"]), set()).add(overhead)
    for (domain, size), seen in sorted(overheads.items()):
        if len(seen) != 1:
            failures.append(
                f"sweep {domain} |Q|={size}: the verifier's chain hashes differ from the "
                f"kernel counts by a base-dependent amount ({sorted(seen)})"
            )
    shipped = fresh.get("default_base")
    served = {
        cell["base"]: cell["verifier_hashes_per_answer"]
        for cell in cells.values()
        if cell["domain"] == "16385" and cell["result_size"] == 40
    }
    if shipped not in served:
        failures.append("fresh sweep does not measure the shipped base on the served domain")
    elif min(served, key=served.get) != shipped:
        failures.append(
            f"the shipped base B={shipped} is not the measured argmin of the verifier's "
            f"hashes per 40-row answer on the served domain ({served})"
        )
    if fresh.get("kernel_optimal_base", {}).get("16385") != shipped:
        failures.append(f"the shipped base B={shipped} is not the cost model's argmin")


def _check_scale(floors: dict, fresh: dict, failures: list) -> None:
    """Gates on the zipfian scale workload (run with ``--scale``).

    Latency gates are *ceilings* measured at the committed 10^5-row tier, so
    a smoke run (fewer rows, same code paths) must also stay under them; the
    ingest gate is a conservative rows/second minimum.  Smaller tiers being
    faster is exactly the property that makes the smoke run a sound gate.
    """
    serving = fresh.get("workloads", {}).get("scale_serving")
    if serving is None:
        failures.append("fresh report is missing workload 'scale_serving'")
        return
    latency = serving.get("latency_ms", {})
    for floor_key, op_class in _SCALE_LATENCY_CEILINGS.items():
        ceiling = floors.get(floor_key)
        if ceiling is None:
            failures.append(f"committed report is missing ceiling {floor_key!r}")
            continue
        entry = latency.get(op_class)
        if entry is None or not entry.get("count"):
            failures.append(f"scale run served no {op_class!r} operations")
            continue
        p99 = entry.get("p99_ms", float("inf"))
        status = "ok" if p99 <= ceiling else "REGRESSION"
        print(
            f"scale {op_class:<6s} p99 {p99:10.2f} ms  ceiling {ceiling:8.2f} ms  "
            f"{status}"
        )
        if p99 > ceiling:
            failures.append(
                f"scale {op_class} p99 latency {p99:.2f} ms exceeded the "
                f"{ceiling:.2f} ms ceiling"
            )
    ingest_floor = floors.get("scale_ingest_rows_per_sec_min")
    ingest = serving.get("ingest", {})
    rate = ingest.get("rows_per_sec", 0.0)
    if ingest_floor is None:
        failures.append("committed report is missing floor 'scale_ingest_rows_per_sec_min'")
    else:
        status = "ok" if rate >= ingest_floor else "REGRESSION"
        print(
            f"scale ingest   {rate:10.2f} rows/s  floor {ingest_floor:8.2f}        "
            f"{status}"
        )
        if rate < ingest_floor:
            failures.append(
                f"scale ingest {rate:.2f} rows/s fell below the "
                f"{ingest_floor:.2f} rows/s floor"
            )
    if serving.get("recovery", {}).get("streams_rows") is not True:
        failures.append(
            "scale recovery materialised the relation's rows instead of "
            "streaming them from the store"
        )
    else:
        print("scale recovery streams rows from disk  ok")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("fresh", help="freshly measured benchmark JSON report")
    parser.add_argument(
        "--floors",
        default=_COMMITTED,
        help="committed report holding the speedup floors (targets section)",
    )
    parser.add_argument(
        "--wire",
        action="store_true",
        help="gate on the wire/service workloads instead of the hot paths",
    )
    parser.add_argument(
        "--schemes",
        action="store_true",
        help="gate on the scheme-comparison workload instead of the hot paths",
    )
    parser.add_argument(
        "--scale",
        action="store_true",
        help="gate on the zipfian scale workload instead of the hot paths",
    )
    parser.add_argument(
        "--sweep",
        action="store_true",
        help="gate on the Figure 9/10 sweep's exact counts (paper_sweep.py)",
    )
    args = parser.parse_args(argv)

    with open(args.floors, "r", encoding="utf-8") as handle:
        floors = json.load(handle).get("targets", {})
    with open(args.fresh, "r", encoding="utf-8") as handle:
        fresh = json.load(handle)

    failures: list = []
    if args.wire:
        _check_wire(floors, fresh, failures)
    elif args.schemes:
        _check_schemes(fresh, failures)
    elif args.scale:
        _check_scale(floors, fresh, failures)
    elif args.sweep:
        with open(_SWEEP_RECORD, "r", encoding="utf-8") as handle:
            _check_sweep(json.load(handle), fresh, failures)
    else:
        _check_hot_paths(floors, fresh, failures)

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("all gated benchmarks are at or above their stored floors")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
