"""Shared fixtures and reporting helpers for the benchmark harness.

Every ``bench_<experiment>.py`` module here reproduces one table or figure of
the paper, named in its own docstring.  Besides the pytest-benchmark timings,
each module writes the regenerated table — the same rows/series the paper
reports — to the tracked ``benchmarks/results/<experiment>.txt`` and prints
it; regenerate one with ``pytest benchmarks/bench_<experiment>.py -k report``.
"""

from __future__ import annotations

import os
import sys

import pytest

# Make the src/ layout importable when the package is not installed.
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.core.owner import DataOwner  # noqa: E402
from repro.crypto.signature import rsa_scheme  # noqa: E402

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")

#: 512-bit keys keep owner-side signing fast; all size accounting uses the
#: paper's Table 1 parameters (128-bit digests, 1024-bit signatures) instead of
#: the test key's actual sizes, so the reported numbers match the paper's units.
BENCH_KEY_BITS = 512


@pytest.fixture(scope="session")
def signature_scheme():
    return rsa_scheme(bits=BENCH_KEY_BITS)


@pytest.fixture(scope="session")
def owner(signature_scheme):
    return DataOwner(signature_scheme=signature_scheme, base=2)


def report(name: str, lines) -> None:
    """Print a regenerated table and persist it under ``benchmarks/results``."""
    text = "\n".join(lines)
    banner = f"\n===== {name} =====\n{text}\n"
    print(banner)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"{name}.txt"), "w", encoding="utf-8") as handle:
        handle.write(text + "\n")


def format_table(headers, rows) -> list:
    """Render a simple fixed-width text table."""
    widths = [
        max(len(str(header)), *(len(str(row[i])) for row in rows)) if rows else len(str(header))
        for i, header in enumerate(headers)
    ]
    lines = ["  ".join(str(h).rjust(w) for h, w in zip(headers, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(str(cell).rjust(w) for cell, w in zip(row, widths)))
    return lines
