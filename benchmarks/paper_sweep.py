"""Figures 9 and 10 of the paper, measured: what the base ``B`` costs the owner,
the publisher and the verifier, and how many VO bytes it ships.

Two in-process roots over the benchmark's dense-key ``metrics`` schema — the
16,385-wide key domain ``benchmarks/e2e`` serves (``metrics_schema(16384)``)
and the paper's 32-bit one (``2^32``) — are published at every ``B`` in 2..8
under the committed test-only 1024-bit key.  Each holds eight blocks of 102
consecutive keys spread evenly over its domain; an answer of ``|Q|`` rows is
the middle ``|Q|`` keys of a block, so its boundary records are the block's
own and every answer is a first touch.  Per ``(B, |Q|)`` it reports, as means
over the eight blocks:

* ``owner_hashes_per_row``: what publishing the root hashed, per row;
* ``publisher_hashes_per_answer``: what building the answer hashed (its two
  boundary proofs);
* ``verifier_hashes_per_answer``: what a memo-free
  :class:`~repro.core.verifier.ResultVerifier` hashed checking it, beside
  ``kernel_chain_hashes_per_answer`` (the chain share
  :func:`repro.core.cost_model.kernel_answer_chain_hashes` predicts) and
  formula (5)'s hash count;
* ``vo_bytes_per_answer``: the serialized VO (``repro.wire.encode`` of the
  proof), beside formula (4) at 256-bit digests and 1024-bit signatures;
* ``verifier_ms``: the median first-touch verification time, beside formula
  (5) with ``c_hash`` and ``c_sign`` calibrated on this machine.

Every count is exact and the same on any machine; only the two ``ms``
columns and the calibration move.  ``check_bench_floors.py --sweep`` gates a
fresh report's counts against ``benchmarks/results/paper_sweep.json``.

Usage::

    PYTHONPATH=src python benchmarks/paper_sweep.py          # full sweep, writes results/
    PYTHONPATH=src python benchmarks/paper_sweep.py --smoke --output /tmp/sweep.json
    python benchmarks/check_bench_floors.py /tmp/sweep.json --sweep
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.bench.scale import RELATION, _base_row, metrics_schema  # noqa: E402
from repro.core import cost_model  # noqa: E402
from repro.core.polynomial import DEFAULT_BASE  # noqa: E402
from repro.core.publisher import Publisher  # noqa: E402
from repro.core.relational import SignedRelation  # noqa: E402
from repro.core.verifier import ResultVerifier  # noqa: E402
from repro.crypto.backend import backend_stats  # noqa: E402
from repro.crypto.hashing import HASH_COUNTER, resolve_hash_constructor  # noqa: E402
from repro.db.query import Conjunction, Query, RangeCondition  # noqa: E402
from repro.db.relation import Relation  # noqa: E402
from repro.storage import load_keys  # noqa: E402
from repro.wire import encode  # noqa: E402

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_RESULTS = os.path.join(_ROOT, "benchmarks", "results")
RECORD_JSON = os.path.join(_RESULTS, "paper_sweep.json")
RECORD_TXT = os.path.join(_RESULTS, "paper_sweep.txt")
_KEY = os.path.join(_ROOT, "benchmarks", "e2e", "fixtures", "owner_key_1024.test-only.json")

#: The two roots: the served benchmark's key domain and the paper's.
DOMAINS = {"16385": metrics_schema(16_384), "2^32": metrics_schema(2**32 - 1)}
BASES = tuple(range(2, 9))
RESULT_SIZES = (1, 5, 10, 40, 100)
#: A smoke run measures a subset of the same cells, so its counts equal the
#: full run's: the gate compares them cell by cell.
SMOKE_BASES = (2, 3, 4)
SMOKE_RESULT_SIZES = (1, 40)
#: Eight blocks, so a mean over them is an exact binary fraction.
BLOCKS = 8
BLOCK_KEYS = max(RESULT_SIZES) + 2
#: Formula (4)'s sizes as served: SHA-256 digests and 1024-bit signatures.
DIGEST_BITS, SIGN_BITS = 256, 1024


def cell_name(domain: str, base: int, result_size: int) -> str:
    return f"{domain}/B={base}/Q={result_size}"


def block_starts(schema) -> list:
    """``BLOCKS`` block starts spread evenly over the open key domain."""
    domain = schema.key_domain
    first, last = domain.lower + 1, domain.upper - BLOCK_KEYS
    step = (last - first) // (BLOCKS - 1)
    return [first + index * step for index in range(BLOCKS)]


def _signer():
    return next(iter(load_keys(_KEY).values()))


def calibrate(signer, rounds: int = 5) -> dict:
    """``c_hash`` (one SHA-256 of two digests) and ``c_sign`` (one 1024-bit verify)."""
    new = resolve_hash_constructor("sha256")
    digest, hash_times = new(b"calibrate").digest(), []
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(2_000):
            digest = new(digest + digest).digest()
        hash_times.append((time.perf_counter() - start) / 2_000)
    messages = [b"calibrate|%d" % index for index in range(rounds * 20)]
    signatures = [signer.sign(message) for message in messages]
    verify_times = []
    for message, signature in zip(messages, signatures):
        start = time.perf_counter()
        assert signer.verifier.verify(message, signature)
        verify_times.append(time.perf_counter() - start)
    return {
        "c_hash_us": round(min(hash_times) * 1e6, 4),
        "c_sign_ms": round(statistics.median(verify_times) * 1e3, 4),
    }


def measure_root(domain: str, base: int, result_sizes, signer, calibration: dict) -> dict:
    """Publish one root at ``base`` and answer every block at every ``|Q|``."""
    schema = DOMAINS[domain]
    key_domain = schema.key_domain
    starts = block_starts(schema)
    rows = [_base_row(key) for start in starts for key in range(start, start + BLOCK_KEYS)]
    relation = Relation.from_rows(schema, rows)
    before = HASH_COUNTER.count
    signed = SignedRelation(relation, signer, base=base)
    owner_hashes = (HASH_COUNTER.count - before) / len(rows)
    publisher = Publisher({RELATION: signed})
    verifier = ResultVerifier({RELATION: signed.manifest}, memoize=False)
    parameters = cost_model.CostParameters(
        c_hash=calibration["c_hash_us"] * 1e-6,
        c_sign=calibration["c_sign_ms"] * 1e-3,
        m_digest_bits=DIGEST_BITS,
        m_sign_bits=SIGN_BITS,
    )
    width = key_domain.width
    cells = {}
    for size in result_sizes:
        published, verified, modelled, vo_bytes, seconds = [], [], [], [], []
        for start in starts:
            low = start + (BLOCK_KEYS - size) // 2
            high = low + size - 1
            query = Query(RELATION, Conjunction((RangeCondition(schema.key, low, high),)))
            before = HASH_COUNTER.count
            answer = publisher.answer(query)
            published.append(HASH_COUNTER.count - before)
            assert len(answer.rows) == size
            clock = time.perf_counter()
            report = verifier.verify(query, answer.rows, answer.proof)
            seconds.append(time.perf_counter() - clock)
            verified.append(report.hash_operations)
            modelled.append(
                cost_model.kernel_answer_chain_hashes(
                    low, high, base, key_domain.lower, key_domain.upper
                )
            )
            vo_bytes.append(len(encode(answer.proof)))
        cells[cell_name(domain, base, size)] = {
            "domain": domain,
            "base": base,
            "result_size": size,
            "owner_hashes_per_row": round(owner_hashes, 3),
            "publisher_hashes_per_answer": statistics.mean(published),
            "verifier_hashes_per_answer": statistics.mean(verified),
            "kernel_chain_hashes_per_answer": statistics.mean(modelled),
            "formula5_hashes": cost_model.user_computation_hashes(size, base, width),
            "vo_bytes_per_answer": statistics.mean(vo_bytes),
            "formula4_bytes": cost_model.user_traffic_bytes(size, base, width, parameters),
            "verifier_ms": round(statistics.median(seconds) * 1e3, 3),
            "formula5_ms": round(
                cost_model.user_computation_seconds(size, base, width, parameters) * 1e3, 3
            ),
        }
    return cells


def run_sweep(domains=tuple(DOMAINS), bases=BASES, result_sizes=RESULT_SIZES) -> dict:
    signer = _signer()
    calibration = calibrate(signer)
    cells = {}
    for domain in domains:
        for base in bases:
            cells.update(measure_root(domain, base, result_sizes, signer, calibration))
    return {
        "default_base": DEFAULT_BASE,
        "blocks": BLOCKS,
        "block_keys": BLOCK_KEYS,
        "crypto_backend": backend_stats(),
        "calibration": calibration,
        "kernel_optimal_base": {
            domain: cost_model.kernel_optimal_base(DOMAINS[domain].key_domain.width)
            for domain in domains
        },
        "cells": cells,
    }


def _table(report: dict, domain: str) -> list:
    columns = (
        ("B", "base", "{}"),
        ("|Q|", "result_size", "{}"),
        ("owner h/row", "owner_hashes_per_row", "{:.1f}"),
        ("publisher h", "publisher_hashes_per_answer", "{:.10g}"),
        ("verifier h", "verifier_hashes_per_answer", "{:.10g}"),
        ("kernel chain h", "kernel_chain_hashes_per_answer", "{:.10g}"),
        ("formula (5) h", "formula5_hashes", "{}"),
        ("verifier ms", "verifier_ms", "{:.3f}"),
        ("formula (5) ms", "formula5_ms", "{:.3f}"),
        ("VO bytes", "vo_bytes_per_answer", "{:.10g}"),
        ("formula (4) bytes", "formula4_bytes", "{:.10g}"),
    )
    rows = [
        [spec.format(cell[field]) for _, field, spec in columns]
        for cell in report["cells"].values()
        if cell["domain"] == domain
    ]
    widths = [max(len(title), *(len(row[i]) for row in rows)) for i, (title, _, _) in enumerate(columns)]
    lines = ["  ".join(title.rjust(w) for (title, _, _), w in zip(columns, widths))]
    lines.append("  ".join("-" * w for w in widths))
    lines.extend("  ".join(value.rjust(w) for value, w in zip(row, widths)) for row in rows)
    return lines


def render(report: dict) -> str:
    calibration = report["calibration"]
    paper = cost_model.section_6_2_worked_examples()
    lines = [
        "Figures 9 and 10, measured: cost of the polynomial base B (benchmarks/paper_sweep.py)",
        "",
        f"Shipped base: B={report['default_base']}.  Roots over the metrics schema, "
        f"{report['blocks']} blocks of {report['block_keys']} consecutive keys each,",
        "a |Q|-row answer is a block's middle |Q| keys; counts are means over the blocks",
        "(exact, machine-independent); ms columns are medians on this machine.",
        "",
        "Table 1, calibrated here (paper default -> measured): "
        f"c_hash 50 us -> {calibration['c_hash_us']} us, "
        f"c_sign 5 ms -> {calibration['c_sign_ms']} ms "
        f"({report['crypto_backend']['backend']} backend); "
        f"digests {DIGEST_BITS} bits, signatures {SIGN_BITS} bits.",
        "Section 6.2 worked examples, formula (5) at B=2 over 2^32 in paper units: "
        + ", ".join(
            f"|Q|={size} {seconds * 1e3:.1f} ms" for size, seconds in sorted(paper.items())
        )
        + " (the paper quotes 15.5 ms, 689 ms and 6.81 s).",
        "",
    ]
    for domain in sorted({cell["domain"] for cell in report["cells"].values()}):
        argmin = report["kernel_optimal_base"][domain]
        lines.append(
            f"Key domain width {domain}: the kernel's expected verifier chain hashes "
            f"per 40-row answer are least at B={argmin}."
        )
        lines.extend(_table(report, domain))
        lines.append("")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--smoke", action="store_true", help="bases 2-4 and |Q| in {1, 40} only")
    parser.add_argument("--output", default=RECORD_JSON, help="where to write the JSON report")
    args = parser.parse_args(argv)
    if args.smoke:
        report = run_sweep(bases=SMOKE_BASES, result_sizes=SMOKE_RESULT_SIZES)
    else:
        report = run_sweep()
    report["mode"] = "smoke" if args.smoke else "full"
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
        handle.write("\n")
    text = render(report)
    if not args.smoke:
        with open(RECORD_TXT, "w", encoding="utf-8") as handle:
            handle.write(text)
    print(text)
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
