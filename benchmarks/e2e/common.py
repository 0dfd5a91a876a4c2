"""Fixed parameters, dataset model and storage-root builder of the e2e benchmark.

Shared by the client process (``run.py``) and the server process
(``serve.py``).
"""

from __future__ import annotations

import hashlib
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(REPO_ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from repro.bench.scale import RELATION, metrics_schema  # noqa: E402
from repro.core.publisher import Publisher  # noqa: E402
from repro.core.relational import SignedRelation  # noqa: E402
from repro.db.relation import Relation  # noqa: E402
from repro.service.config import StorageConfig  # noqa: E402
from repro.service.router import ShardRouter  # noqa: E402
from repro.storage import load_keys, open_publication_storage  # noqa: E402

KEY_FIXTURE = os.path.join(HERE, "fixtures", "owner_key_1024.test-only.json")
#: Everything the benchmark writes lives here, inside the checkout.
BUILD_DIR = os.path.join(REPO_ROOT, ".bench_build", "e2e")
SHARD = "bench"

#: Dataset size: 390 blocks of ``RANGE_KEYS + 2`` keys, enough for one
#: ``cold_read`` section to read every key at most once (see ``FirstTouch``
#: in run.py), and 4x the relstore record cache (4,096 records).  It is also
#: the size of the publisher's VO-fragment cache (16,384 entries), which is
#: why ``cold_read`` reads first-touch keys and not uniform ones: uniform
#: reads would warm that cache up as the section went on.
DATASET_ROWS = 16_384
SMOKE_ROWS = 1_024
#: Keys covered by one range read.
RANGE_KEYS = 40
#: Queries in the hot pool (half point, half range).
POOL_QUERIES = 64
#: Client-side staleness bound, and the lifetime of the one attestation the
#: owner issues at set-up.
MAX_STALENESS_S = 3600.0


def storage_config(root: str) -> StorageConfig:
    """Durable sqlite root, fsync before every acknowledgement."""
    return StorageConfig(root=root, backend="sqlite", fsync="always")


def owner_scheme():
    """The committed test-only owner key, as a signature scheme."""
    return load_keys(KEY_FIXTURE)[RELATION]


def base_row(key: int) -> dict:
    """The genesis row of ``key``: the dense-key rows of ``repro.bench.scale``."""
    return {
        "metric_id": key,
        "value": (key * 2654435761) % 1_000_000,
        "label": f"m{key:07d}",
    }


def open_root(root: str, rows: int, timings: dict):
    """Open ``root``, publishing ``rows`` genesis rows into it when it is fresh.

    The bootstrap-or-recover call a durable server makes at start.  On a
    fresh root the relation is loaded and its chain digested and signed in
    RAM, dumped to sqlite, checkpointed and reopened through recovery; the
    load is timed into ``timings`` (the other phases are calls the tracer
    can wrap).
    """

    def build_router() -> ShardRouter:
        start = time.perf_counter()
        relation = Relation(metrics_schema(rows))
        for key in range(1, rows + 1):
            relation.insert(base_row(key))
        timings["load_s"] = time.perf_counter() - start
        signed = SignedRelation(relation=relation, signature_scheme=owner_scheme())
        return ShardRouter({SHARD: Publisher({RELATION: signed})})

    return open_publication_storage(root, build_router, config=storage_config(root))


def source_fingerprint() -> str:
    """Hash of every file under ``src/``: names a dataset built by this code."""
    digest = hashlib.sha256()
    for directory, subdirectories, files in os.walk(SRC):
        subdirectories.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    with open(KEY_FIXTURE, "rb") as handle:
        digest.update(handle.read())
    return digest.hexdigest()[:16]
