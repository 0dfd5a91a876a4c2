"""Wire-format + publication-service benchmark.

Measures serialized VO sizes across a selectivity sweep (the Figure 9
traffic-overhead trend), codec throughput, and end-to-end requests/sec
against a live :class:`~repro.service.server.PublicationServer`.

Results are merged into ``BENCH_hot_paths.json`` (``wire`` section +
``workloads`` entries) and the VO-size table is written to
``benchmarks/results/figure9_serialized_vo_sizes.txt``.

One workload is a count, not a rate: ``update_locality`` — what a seeded
stream of owner updates leaves of a cached read pool — reads the same on
every machine and is gated by ``check_bench_floors.py --wire``.

Usage::

    PYTHONPATH=src python benchmarks/bench_wire_service.py            # full run
    PYTHONPATH=src python benchmarks/bench_wire_service.py --smoke    # quick run
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from unittest import mock

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.bench.scale import RELATION, _row_stream, metrics_schema  # noqa: E402
from repro.bench.wire import (  # noqa: E402
    SMOKE_WIRE_CONFIG,
    WireBenchConfig,
    run_wire_benchmarks,
)
from repro.core.publisher import Publisher  # noqa: E402
from repro.core.relational import SignedRelation  # noqa: E402
from repro.crypto.signature import rsa_scheme  # noqa: E402
from repro.db.query import Conjunction, Query, RangeCondition  # noqa: E402
from repro.db.relation import Relation  # noqa: E402
from repro.service.handler import RequestHandler  # noqa: E402
from repro.service.owner import build_update_request  # noqa: E402
from repro.service.protocol import QueryRequest  # noqa: E402
from repro.service.router import ShardRouter  # noqa: E402
from repro.wire import encode  # noqa: E402
from repro.wire.updates import RecordDelta  # noqa: E402

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_DEFAULT_OUTPUT = os.path.join(_ROOT, "BENCH_hot_paths.json")
_RESULTS_TXT = os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    "results",
    "figure9_serialized_vo_sizes.txt",
)


#: Gates on ``bench_update_locality``'s counts (0.1473 and 0.8527 measured; a
#: response cache that every rotation empties reads about 1.0 and 0.0).
UPDATE_LOCALITY_ANSWERS_PER_READ_MAX = 0.3
UPDATE_LOCALITY_HIT_RATIO_MIN = 0.7


def bench_update_locality(key_bits: int = 512) -> dict:
    """What a stream of owner updates leaves of a cached read pool, in exact counts.

    ``benchmarks/e2e``'s ``mixed_update`` at its smoke size, in-process and
    seeded: 1,024 dense-key rows, 32 point and 32 forty-key range queries,
    every eighth op an in-place update of a random row.  An update stales the
    cached answers whose chain window holds its key (43 of 1,024 keys for a
    range, 4 for a point) and no others.  The counts depend on the seed alone.
    """
    scheme = rsa_scheme(bits=key_bits)
    rows, rng = 1024, random.Random(7)
    relation = Relation.from_rows(metrics_schema(rows), _row_stream(rows))
    signed = SignedRelation(relation, scheme)
    publisher = Publisher({RELATION: signed})
    router = ShardRouter({"bench": publisher})
    handler = RequestHandler(router)
    lows = [rng.randint(1, rows - 39) for _ in range(64)]
    pool = [
        Query(RELATION, Conjunction((RangeCondition("metric_id", low, low + 39 * (i % 2)),)))
        for i, low in enumerate(lows)
    ]

    def serve(message) -> None:
        assert not handler.handle_frame(encode(message)).is_error

    for query in pool:  # fill the cache: the counts are steady-state
        serve(QueryRequest(router.current_id(RELATION), query))
    before = handler.cache_stats()["responses"]
    with mock.patch.object(publisher, "answer", wraps=publisher.answer) as answer:
        for index in range(1024):
            if index % 8 < 7:
                serve(QueryRequest(router.current_id(RELATION), rng.choice(pool)))
                continue
            old = signed.relation[rng.randrange(rows)].as_dict()
            delta = RecordDelta("update", dict(old, value=old["value"] + 1), old)
            serve(build_update_request(scheme, signed.manifest, (delta,)))
    after = handler.cache_stats()["responses"]
    hits, misses = (after[name] - before[name] for name in ("hits", "misses"))
    return {
        "reads": hits + misses,
        "publisher_answers": answer.call_count,
        "answers_per_read": round(answer.call_count / (hits + misses), 4),
        "response_cache_hit_ratio": round(hits / (hits + misses), 4),
        "window_invalidations": after["window_invalidations"],
        "log_overruns": after["log_overruns"],
    }


def _render_vo_table(sizes: dict) -> str:
    lines = [
        "Serialized VO size vs. query selectivity (Figure 9 traffic-overhead trend)",
        "",
        f"employees table: {sizes['table_rows']} rows, "
        f"{sizes['digest_bytes']}-byte digests, "
        f"{sizes['signature_bytes']}-byte signatures (512-bit demo keys)",
        "",
        "selectivity  rows  result_bytes  vo_bytes  vo_analytic_bytes  vo/result",
        "-----------  ----  ------------  --------  -----------------  ---------",
    ]
    for point in sizes["points"]:
        lines.append(
            f"{point['selectivity']:>11.2f}  {point['result_rows']:>4d}  "
            f"{point['result_bytes']:>12d}  {point['vo_bytes']:>8d}  "
            f"{point['vo_analytic_bytes']:>17d}  {point['overhead_ratio']:>9.3f}"
        )
    lines += [
        "",
        "Trend check (paper Fig. 9): authentication traffic grows with the number",
        "of result records only — per-record chain assists plus one condensed",
        "signature — so the VO/result overhead ratio falls as selectivity rises.",
        "vo_analytic_bytes is formula (4)'s digest/signature count model; the",
        "wire encoding adds framing, length prefixes and per-entry structure.",
    ]
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true", help="run the scaled-down smoke workloads"
    )
    parser.add_argument(
        "--output", default=_DEFAULT_OUTPUT, help="JSON report to merge into"
    )
    args = parser.parse_args(argv)

    config = SMOKE_WIRE_CONFIG if args.smoke else WireBenchConfig()
    fragment = run_wire_benchmarks(config)
    fragment["workloads"]["update_locality"] = bench_update_locality(config.key_bits)
    fragment["targets"].update(
        update_locality_answers_per_read_max=UPDATE_LOCALITY_ANSWERS_PER_READ_MAX,
        update_locality_hit_ratio_min=UPDATE_LOCALITY_HIT_RATIO_MIN,
    )

    # Merge into the hot-paths report so one file carries every perf number.
    report = {}
    if os.path.exists(args.output):
        with open(args.output, "r", encoding="utf-8") as handle:
            report = json.load(handle)
    report.setdefault("workloads", {}).update(fragment["workloads"])
    report.setdefault("targets", {}).update(fragment.get("targets", {}))
    report["wire_config"] = fragment["config"]
    report["crypto_backend"] = fragment["crypto_backend"]
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")

    if args.smoke:
        # Smoke numbers are for harness validation only; never overwrite the
        # committed full-run Figure 9 table with them.
        print(f"merged wire workloads into {args.output} (smoke: results table not written)")
    else:
        os.makedirs(os.path.dirname(_RESULTS_TXT), exist_ok=True)
        with open(_RESULTS_TXT, "w", encoding="utf-8") as handle:
            handle.write(_render_vo_table(fragment["workloads"]["wire_vo_sizes"]))
        print(f"merged wire workloads into {args.output}")
        print(f"wrote {_RESULTS_TXT}")
    codec = fragment["workloads"]["wire_codec_throughput"]
    service = fragment["workloads"]["service_throughput"]
    print(
        f"  codec: encode {codec['encode_ops_per_sec']:.0f}/s, "
        f"decode {codec['decode_ops_per_sec']:.0f}/s "
        f"({codec['vo_bytes']} bytes/VO)"
    )
    print(
        f"  service: {service['requests_per_sec_raw']:.0f} req/s raw, "
        f"{service['requests_per_sec_verified']:.0f} req/s verified "
        f"({service['clients']} clients)"
    )
    locality = fragment["workloads"]["update_locality"]
    print(
        f"  update locality: {locality['answers_per_read']:.4f} publisher answers "
        f"per pooled read, response-cache hit ratio {locality['response_cache_hit_ratio']:.4f}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
