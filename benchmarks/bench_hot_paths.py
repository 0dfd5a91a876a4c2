"""Perf-regression harness for the proof engine's hot paths.

Writes ``BENCH_hot_paths.json`` at the repository root (override with
``--output``): ops/sec for owner signing, signature verification, verifier
checking and durable ingest, each fast path vs. a faithful replica of the
path it replaced — and ``cold_range`` and ``cold_point`` sections where no
cache can help: first-touch 40-key range and single-key answers over a
stored relation re-attached the way recovery does it, reported as ms per
read and as ``hashes_per_read``, the exact number of hashes one such answer
performs.  The server hashes for the two boundary records (one chain proof
and the one chain digest it ships beside it, each) and the re-fingerprint of
the rows it reads — a matched row's representation-tree roots are read off
its stored row — so both counts are the same on any machine (and equal to
what ``repro.core.cost_model``'s kernel counts predict for the keys read)
and gated exactly (``cold_range_hashes_per_read``, ``cold_point_hashes_per_read``);
``store_reads_per_read``, the ``RelationStore.load_*`` calls one answer
makes, is exact too and must be 1 (``cold_range_store_reads_per_read``).
``hash_floor_ratio``, the read's time over what those hashes cost on this
runner, is printed beside them, ungated.
A ``publish_sign`` section does the like for bulk signing:
``core_scaling`` is a batch's serial time over its time sharded across this
runner's CPUs, floored (``publish_sign_core_scaling_min``) wherever the
affinity mask holds two or more.

Usage::

    PYTHONPATH=src python benchmarks/bench_hot_paths.py            # full run
    PYTHONPATH=src python benchmarks/bench_hot_paths.py --smoke    # quick run

The same workloads run (in smoke mode) inside tier-1 via
``tests/test_bench_hot_paths_smoke.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
import time

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.bench.hot_paths import (  # noqa: E402
    SMOKE_CONFIG,
    HotPathConfig,
    run_hot_path_benchmarks,
)
from repro.bench.scale import RELATION, _attach, _row_stream, metrics_schema  # noqa: E402
from repro.core import cost_model  # noqa: E402
from repro.core.publisher import Publisher  # noqa: E402
from repro.crypto import _shard  # noqa: E402
from repro.crypto.hashing import HASH_COUNTER, resolve_hash_constructor  # noqa: E402
from repro.crypto.signature import rsa_scheme  # noqa: E402
from repro.db.query import Conjunction, Query, RangeCondition  # noqa: E402
from repro.storage import load_keys  # noqa: E402
from repro.storage.relstore import RelationStore, build_stored_chain  # noqa: E402

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_DEFAULT_OUTPUT = os.path.join(_ROOT, "BENCH_hot_paths.json")
#: The committed TEST-ONLY 1024-bit owner key of ``benchmarks/e2e`` (``Msign``
#: of the paper's Table 1): what a publish signs under.
_BENCH_KEY = os.path.join(
    _ROOT, "benchmarks", "e2e", "fixtures", "owner_key_1024.test-only.json"
)


#: A first-touch range read: 40 consecutive keys out of a 42-key block, so the
#: two boundary records are the block's own and no read touches another's keys
#: (the shape of ``cold_read`` in ``benchmarks/e2e``).
COLD_RANGE_KEYS = 40
COLD_RANGE_BLOCK = COLD_RANGE_KEYS + 2
#: The key domain is that benchmark's 16,384-key one whatever the table size,
#: so a smoke run walks the same digit chains per commitment as a full one.
COLD_RANGE_DOMAIN_ROWS = 16_384
#: Reads per section, in every mode: a chain walk costs its exponent's digits,
#: so the mean per read is a fixed number only over a fixed set of blocks.
COLD_READS = 12
#: The row re-fingerprint a served row costs: its attribute tree's hashes.
FINGERPRINT_HASHES = 4
#: Exactly what one such answer hashes, as a mean over the ``COLD_READS``
#: blocks: per boundary record, a boundary proof (a full walk of one chain)
#: and the digest of the other chain, the one it ships (a canonical walk),
#: plus the fingerprint re-check of each of the 40 rows read.  At the
#: default base (3) a walk's count depends on the key's digits, so it is
#: pinned over fixed keys and checked read by read against the cost model
#: (``model_hashes_per_read``); one digit-chain walk per matched row
#: (~20 x 80 hashes) or of a chain nobody ships (~20) would move it.
COLD_RANGE_HASHES_PER_READ = 307.7
#: The same for a first-touch point read (the middle key of a block): two
#: boundary records and one row.
COLD_POINT_HASHES_PER_READ = 154.5
#: The store calls one such answer makes: the chain span it touches is one
#: range scan of the ``entries`` primary key.
COLD_RANGE_STORE_READS_PER_READ = 1


def _counted_reads(store: RelationStore) -> list:
    """Record every ``RelationStore.load_*`` call on ``store`` from now on (the
    reads ``benchmarks/e2e`` times as ``storage.relstore.read``)."""
    calls = []

    def counted(name):
        read = getattr(store, name)

        def counting(*args, **kwargs):
            calls.append(name)
            return read(*args, **kwargs)

        return counting

    for name in dir(RelationStore):
        if name.startswith("load_"):
            setattr(store, name, counted(name))
    return calls


def _hashlib_call_seconds(calls: int = 2_000) -> float:
    """What one ``hashlib`` call costs right now: construct, hash a digest, read it out."""
    new = resolve_hash_constructor("sha256")
    digest = new(b"hash-floor").digest()
    start = time.perf_counter()
    for _ in range(calls):
        digest = new(digest).digest()
    return (time.perf_counter() - start) / calls


def model_hashes(low: int, high: int, base: int, domain) -> int:
    """The kernel's exact count for the answer ``[low, high]`` (see :mod:`repro.core.cost_model`).

    The lower boundary record ``low - 1`` proves its upper chain and ships its
    lower one; the upper boundary record ``high + 1`` the reverse.
    """
    lower, upper, width = domain.lower, domain.upper, domain.width
    below, above = low - 1, high + 1
    return (
        cost_model.kernel_boundary_proof_hashes(upper - low, upper - low, base, width)
        + cost_model.kernel_canonical_walk_hashes(below - lower - 1, base, width) + 1
        + cost_model.kernel_boundary_proof_hashes(high - lower, high - lower, base, width)
        + cost_model.kernel_canonical_walk_hashes(upper - above - 1, base, width) + 1
        + FINGERPRINT_HASHES * (high - low + 1)
    )


def bench_cold_reads(reads: int, keys: int, key_bits: int = 512) -> dict:
    """First-touch ``keys``-key reads over a re-attached stored relation.

    One read per 42-key block, centred in it, so that its boundary records
    are the block's own.  Every row, root and signature is read from sqlite
    and every proof fragment built from nothing, so the time is proof
    construction.  Each read is set against the cost of the hashes it
    performed, calibrated with a burst of ``hashlib`` calls right after it —
    a shared box changes speed by the tenth of a second, and both sides of
    the ratio must see the same one.  Medians over the reads are reported.
    """
    scheme = rsa_scheme(bits=key_bits)
    schema = metrics_schema(COLD_RANGE_DOMAIN_ROWS)
    rows = reads * COLD_RANGE_BLOCK
    seconds, hashes, call_seconds, store_reads, modelled = [], [], [], [], []
    tmp = tempfile.mkdtemp(prefix="bench-cold-reads-")
    path = os.path.join(tmp, "relstore.db")
    try:
        store = RelationStore(path, fsync="off")
        try:
            build_stored_chain(store, RELATION, schema, _row_stream(rows), scheme)
        finally:
            store.close()
        store = RelationStore(path, fsync="off")
        try:
            signed = _attach(store, schema, scheme)
            publisher = Publisher({RELATION: signed})
            calls = _counted_reads(store)
            for block in range(1, rows, COLD_RANGE_BLOCK):
                low = block + (COLD_RANGE_BLOCK - keys) // 2
                bounds = RangeCondition(schema.key, low, low + keys - 1)
                query = Query(RELATION, Conjunction((bounds,)))
                hashes_before, calls_before = HASH_COUNTER.count, len(calls)
                start = time.perf_counter()
                result = publisher.answer(query)
                seconds.append(time.perf_counter() - start)
                hashes.append(HASH_COUNTER.count - hashes_before)
                modelled.append(model_hashes(low, low + keys - 1, signed.base, schema.key_domain))
                store_reads.append(len(calls) - calls_before)
                call_seconds.append(_hashlib_call_seconds())
                assert len(result.rows) == keys
        finally:
            store.close()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    ratios = [
        elapsed / (count * per_call)
        for elapsed, count, per_call in zip(seconds, hashes, call_seconds)
    ]
    return {
        "reads": reads,
        "table_rows": rows,
        "keys_per_read": keys,
        "ms_per_read": round(statistics.median(seconds) * 1e3, 3),
        "base": signed.base,
        "hashes_per_read": round(statistics.mean(hashes), 1),
        "model_hashes_per_read": round(statistics.mean(modelled), 1),
        "hashes_match_model": hashes == modelled,
        "store_reads_per_read": round(statistics.mean(store_reads), 2),
        "hashlib_call_us": round(statistics.median(call_seconds) * 1e6, 4),
        "hash_floor_ratio": round(statistics.median(ratios), 2),
    }


def bench_cold_range(reads: int, key_bits: int = 512) -> dict:
    """``bench_cold_reads`` of 40-key ranges: the ``cold_range`` section."""
    return bench_cold_reads(reads, COLD_RANGE_KEYS, key_bits)


def bench_cold_point(reads: int, key_bits: int = 512) -> dict:
    """``bench_cold_reads`` of single keys: the ``cold_point`` section."""
    return bench_cold_reads(reads, 1, key_bits)


PUBLISH_SIGN_CORE_SCALING_MIN = 1.3


def bench_publish_sign(messages: int, rounds: int) -> dict:
    """``sign_batch`` over fresh messages: serial time over sharded time.

    Each round signs the same batch twice under the 1024-bit bench key — once
    with the cut-over patched out of reach (the serial loop) and once as
    shipped — back to back, so both sides of the round's ratio see the same
    machine speed.  The median ratio
    is how many cores' worth of exponentiation a publish gets on this runner;
    ``shards`` says how many it could use (1: nothing to gate).
    """
    signer = next(iter(load_keys(_BENCH_KEY).values())).signer
    cut_over = _shard.MIN_SHARD_ITEMS
    serial_seconds, sharded_seconds, identical = [], [], True
    try:
        for round_index in range(rounds):
            batch = [b"publish-sign|%d|%08d" % (round_index, n) for n in range(messages)]
            outputs = []
            for seconds, minimum in ((serial_seconds, sys.maxsize), (sharded_seconds, cut_over)):
                _shard.MIN_SHARD_ITEMS = minimum
                start = time.perf_counter()
                outputs.append(signer.sign_batch(batch))
                seconds.append(time.perf_counter() - start)
            identical = identical and outputs[0] == outputs[1]
    finally:
        _shard.MIN_SHARD_ITEMS = cut_over
    return {
        "messages": messages,
        "rounds": rounds,
        "key_bits": signer.modulus.bit_length(),
        "shards": _shard.shard_count(messages),
        "signatures_identical": identical,
        "serial_ms_per_signature": round(statistics.median(serial_seconds) / messages * 1e3, 4),
        "sharded_ms_per_signature": round(statistics.median(sharded_seconds) / messages * 1e3, 4),
        "core_scaling": round(
            statistics.median(a / b for a, b in zip(serial_seconds, sharded_seconds)), 2
        ),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true", help="run the scaled-down smoke workloads"
    )
    parser.add_argument(
        "--output", default=_DEFAULT_OUTPUT, help="where to write the JSON report"
    )
    args = parser.parse_args(argv)

    config = SMOKE_CONFIG if args.smoke else HotPathConfig()
    report = run_hot_path_benchmarks(config)
    cold = report["cold_range"] = bench_cold_range(COLD_READS, key_bits=config.key_bits)
    point = report["cold_point"] = bench_cold_point(COLD_READS, key_bits=config.key_bits)
    report["targets"]["cold_range_hashes_per_read"] = COLD_RANGE_HASHES_PER_READ
    report["targets"]["cold_point_hashes_per_read"] = COLD_POINT_HASHES_PER_READ
    report["targets"]["cold_range_store_reads_per_read"] = COLD_RANGE_STORE_READS_PER_READ
    report["targets_met"]["cold_range"] = (
        cold["hashes_per_read"] == COLD_RANGE_HASHES_PER_READ
        and cold["store_reads_per_read"] == COLD_RANGE_STORE_READS_PER_READ
        and point["hashes_per_read"] == COLD_POINT_HASHES_PER_READ
        and cold["hashes_match_model"]
        and point["hashes_match_model"]
    )
    publish = report["publish_sign"] = bench_publish_sign(
        messages=512 if args.smoke else 2048, rounds=3
    )
    report["targets"]["publish_sign_core_scaling_min"] = PUBLISH_SIGN_CORE_SCALING_MIN
    report["targets_met"]["publish_sign"] = publish["signatures_identical"] and (
        publish["shards"] < 2 or publish["core_scaling"] >= PUBLISH_SIGN_CORE_SCALING_MIN
    )

    # The wire/scale benches merge their workloads and floors into the same
    # file; re-running the hot paths must refresh its own numbers without
    # discarding theirs (or the hand-tuned ceilings in ``targets``).
    if os.path.exists(args.output):
        with open(args.output, "r", encoding="utf-8") as handle:
            existing = json.load(handle)
        for key, value in existing.get("targets", {}).items():
            if key != "cold_range_hashes_per_read_max":  # now the exact target above
                report["targets"].setdefault(key, value)
        for name, entry in existing.get("workloads", {}).items():
            report["workloads"].setdefault(name, entry)
        for section in ("wire_config", "scale_config"):
            if section in existing:
                report[section] = existing[section]

    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")

    print(f"wrote {args.output}")
    for name, entry in report["workloads"].items():
        if "uncached_ops_per_sec" not in entry:
            continue  # merged wire/scale workloads report other metrics
        print(
            f"  {name:28s} uncached {entry['uncached_ops_per_sec']:>10.1f}/s"
            f"  cached {entry['cached_ops_per_sec']:>10.1f}/s"
            f"  speedup {entry['speedup']:>6.2f}x"
        )
    for name, section in (("cold_range", cold), ("cold_point", point)):
        print(
            f"  {name:28s} {section['ms_per_read']:.2f} ms/read, "
            f"{section['hashes_per_read']:g} hashes/read, "
            f"{section['store_reads_per_read']:g} store reads/read, "
            f"hash-floor ratio {section['hash_floor_ratio']:.2f}"
        )
    print(
        f"  publish_sign                 {publish['serial_ms_per_signature']:.3f} ms/signature serial, "
        f"{publish['sharded_ms_per_signature']:.3f} over {publish['shards']} shard(s), "
        f"core scaling {publish['core_scaling']:.2f}x"
    )
    print(f"  targets met: {report['targets_met']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
