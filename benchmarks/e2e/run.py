"""End-to-end benchmark of the verified-publication stack (see README.md).

From the root of the checkout:

    python3 benchmarks/e2e/run.py --workload hot_read --seed 7 --seconds 15 --trace 0
        one workload, one pass -- the form the benchmark driver runs
        (BENCHMARK.json).

    python3 benchmarks/e2e/run.py [--smoke] [--repeat N] [--output results.json]
        every workload, untraced (N times) then traced, and a results file
        ``compare.py`` reads.

Every pass prints its metrics by name and unit, its stage tables, and last
one JSON object {"correct", "attempted", "failed", "metrics"}.  Exit code 0
means every check passed; any failed, refused or wrongly answered operation,
or a negative control that did not fire, makes it 1.
"""

from __future__ import annotations

import argparse
import atexit
import itertools
import json
import os
import platform
import random
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import replace

import common
import spans
from common import DATASET_ROWS, POOL_QUERIES, RANGE_KEYS, SMOKE_ROWS
from repro.bench.scale import RELATION, metrics_schema
from repro.core.errors import ReproError, VerificationError
from repro.crypto.backend import backend_stats
from repro.crypto.rsa import fdh_cache_stats
from repro.service import (
    FreshnessPolicy,
    OwnerClient,
    QueryResponse,
    QuerySpec,
    RecordDelta,
    StaleAnswerError,
    VerifyingClient,
)
from repro.service.config import ServerConfig
from repro.service.protocol import recv_frame
from repro.storage.relstore import RelationStore, build_stored_chain
from repro.wire import decode, encode

WORKLOADS = ("bulk_ingest", "cold_read", "hot_read", "mixed_update")
#: Ops per second of ``--seconds`` in a timed section: 600 cold reads,
#: 15,960 hot reads, 3,000 mixed ops and three publish rounds at 15 s, which
#: is about 15 s of work for each on the two-core box the benchmark was
#: defined on.
OPS_PER_SECOND = {"cold_read": 42, "hot_read": 16_000 / 15, "mixed_update": 200}
PUBLISH_ROUNDS_PER_SECOND = 3 / 15
#: A read section runs in this many slices, about a quarter of a second each.
#: Every timing metric is the best over the slices of the slice's own figure
#: (its median latency, its throughput, its CPU per op).  The box this runs
#: on is shared: a neighbour makes every instruction slower, never faster,
#: for tenths of a second at a time and through stretches of minutes, so the
#: slices the neighbour left alone are the ones that repeat from run to run,
#: while what the code itself costs shows in every slice, the best one too.
SLICES = 60
#: A traced section alternates untraced and traced slices, fewer and longer:
#: writing a slice's spans out disturbs the start of the next slice, which
#: one of a quarter of a second would feel.
TRACED_SLICES = 15
#: Ops per slice of ``bulk_ingest``'s spot reads and of the closing updates:
#: a tenth of a second and more of either.
SLICE_OPS = 10
#: ``mixed_update``: every eighth op is an owner update.
UPDATE_EVERY = 8
#: ``bulk_ingest``: first-touch reads of each class against every root it
#: publishes.
SPOT_READS = 40
#: Every run ends with this many owner updates, all of which must survive
#: the SIGKILL that follows.
CLOSING_UPDATES = 100
#: Server cache counters (paths into ``cache_stats()``) read around each slice.
CACHE_RATIOS = {
    "service.handler.response_cache_hit_ratio": ("responses",),
    "core.publisher.vo_cache_hit_ratio": ("shards", common.SHARD, "vo_fragments"),
}
KEY = "metric_id"
SERVE = os.path.join(common.HERE, "serve.py")

with open(os.path.join(common.REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)
END_TO_END = {metric["name"]: metric for metric in SPEC["end_to_end"]}
PER_LAYER = {metric["name"]: metric for metric in SPEC["per_layer"]}


class Sizes:
    """How much of everything one run does; ``--smoke`` shrinks all of it."""

    def __init__(self, smoke: bool) -> None:
        self.rows = SMOKE_ROWS if smoke else DATASET_ROWS
        #: Rows per publish round of ``bulk_ingest``.
        self.ingest_rows = self.rows // 4
        #: Set-ups per untraced run; ``setup_s`` is their median.
        self.setups = 1 if smoke else 3
        self.slices = 4 if smoke else SLICES
        self.traced_slices = 4 if smoke else TRACED_SLICES
        self.slice_ops = 2 if smoke else SLICE_OPS
        self.cold_warmup_ops = 8 if smoke else 50
        self.spot_reads = 3 if smoke else SPOT_READS
        self.closing_updates = 4 if smoke else CLOSING_UPDATES


# -- the server subprocess ---------------------------------------------------

_LIVE = []


class Server:
    """One ``serve.py`` process; the parent end of its command pipe."""

    def __init__(self, root, rows, trace_file=None, trace_open=False) -> None:
        command = [sys.executable, SERVE, "--root", root, "--rows", str(rows)]
        if trace_file:
            command += ["--trace-file", trace_file]
        if trace_open:
            command.append("--trace-open")
        spawned = time.perf_counter()
        self.process = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        _LIVE.append(self)
        self.ready = self._read("READY")
        self.start_s = time.perf_counter() - spawned
        self.port = self.ready["port"]

    def _read(self, word):
        line = self.process.stdout.readline()
        if not line.startswith(word):
            raise RuntimeError(f"server said {line!r}, expected {word}")
        payload = line[len(word) :].strip()
        return json.loads(payload) if payload.startswith("{") else payload

    def command(self, text, word):
        self.process.stdin.write(text + "\n")
        self.process.stdin.flush()
        return self._read(word)

    def stats(self):
        return self.command("stats", "STATS")

    def stop(self, kill=False) -> None:
        """Graceful stop, or SIGKILL; either way wait until the process is gone."""
        if self.process.poll() is None:
            if kill:
                self.process.kill()
            else:
                self.process.stdin.close()
        self.process.wait(timeout=30)
        self.process.stdout.close()
        if not self.process.stdin.closed:
            self.process.stdin.close()
        if self in _LIVE:
            _LIVE.remove(self)


def _reap() -> None:
    for server in list(_LIVE):
        server.stop(kill=True)


atexit.register(_reap)


def ensure_dataset(rows: int) -> str:
    """The pristine ``rows``-row root, built once per checkout and source tree.

    Building it is the same call ``bulk_ingest`` times; the read workloads
    copy it at every set-up.
    """
    path = os.path.join(common.BUILD_DIR, f"dataset-{rows}-{common.source_fingerprint()}")
    if not os.path.exists(path):
        partial = f"{path}.partial-{os.getpid()}"
        shutil.rmtree(partial, ignore_errors=True)
        os.makedirs(partial)
        subprocess.run(
            [sys.executable, SERVE, "--root", partial, "--rows", str(rows), "--build-only"],
            check=True,
        )
        try:
            os.rename(partial, path)
        except OSError:  # another run built it meanwhile
            shutil.rmtree(partial, ignore_errors=True)
    return path


# -- the adversary in the negative controls -----------------------------------


class TamperProxy(threading.Thread):
    """Forwards frames to the server, passing query answers through ``tamper``."""

    def __init__(self, port: int) -> None:
        super().__init__(daemon=True)
        self.upstream = ("127.0.0.1", port)
        self.tamper = lambda response: response
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.listener.settimeout(0.05)
        self.port = self.listener.getsockname()[1]
        self._stopping = threading.Event()

    @staticmethod
    def _frame(sock):
        try:
            return recv_frame(sock)
        except (OSError, ReproError):
            return None

    def run(self) -> None:
        while not self._stopping.is_set():
            try:
                conn, _ = self.listener.accept()
            except OSError:
                continue
            with conn, socket.create_connection(self.upstream, timeout=10) as upstream:
                conn.settimeout(10)
                while (frame := self._frame(conn)) is not None:
                    upstream.sendall(len(frame).to_bytes(4, "big") + frame)
                    answer = self._frame(upstream)
                    if answer is None:
                        break
                    message = decode(answer)
                    if isinstance(message, QueryResponse):
                        answer = encode(self.tamper(message))
                    conn.sendall(len(answer).to_bytes(4, "big") + answer)

    def stop(self) -> None:
        self._stopping.set()
        self.join(timeout=10)
        self.listener.close()


# -- one connected session ----------------------------------------------------


class Session:
    """A live server over one storage root, the two client connections, and
    the harness's own model of what the relation must contain."""

    def __init__(self, root, rows, model=None, trace_file=None, trace_open=False) -> None:
        self.root = root
        self.rows = rows
        #: key -> current row, for every key ever updated; others are genesis.
        #: A server restarted on the same root inherits it.
        self.model = {} if model is None else model
        self.acked = []
        self.attempted = 0
        self.failed = 0
        self.bumps = 0
        self.tracer = None
        self.server = Server(root, rows, trace_file, trace_open)
        self.policy = FreshnessPolicy(max_staleness=common.MAX_STALENESS_S)
        self.client = VerifyingClient("127.0.0.1", self.server.port, freshness=self.policy)
        self.owner = OwnerClient("127.0.0.1", self.server.port, common.owner_scheme())
        self.client.connect()
        self.owner.connect()
        self.client.fetch_manifest(RELATION)
        self.owner.attest(RELATION, lifetime=common.MAX_STALENESS_S)

    def row(self, key: int) -> dict:
        return self.model.get(key) or common.base_row(key)

    def _begin(self, kind: str) -> None:
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op = (self.attempted, kind)

    def read(self, low: int, high: int):
        """One verified read, checked against the model.

        Returns (latency seconds, client CPU seconds, result), or None when
        the read failed, was refused or answered wrongly.
        """
        self._begin("point" if low == high else "range")
        spec = QuerySpec.range(RELATION, KEY, low, high)
        cpu = time.process_time()
        start = time.perf_counter()
        try:
            result = self.client.execute(spec)
        except (ReproError, OSError) as error:
            return self._fail(f"read [{low}, {high}] raised {error!r}")
        elapsed = time.perf_counter() - start
        cpu = time.process_time() - cpu
        expected = [self.row(key) for key in range(low, high + 1)]
        if result.report is None or list(result.rows) != expected:
            return self._fail(f"read [{low}, {high}] returned rows the model does not hold")
        return elapsed, cpu, result

    def update(self, key: int):
        """One owner update of ``key``: sign, push, validated rotation."""
        self._begin("update")
        old = self.row(key)
        self.bumps += 1
        new = dict(old, value=(int(old["value"]) + 1_000_003 + self.bumps) % 10_000_000)
        delta = RecordDelta(kind="update", values=new, old_values=dict(old))
        start = time.perf_counter()
        try:
            self.owner.push(RELATION, (delta,))
        except (ReproError, OSError) as error:
            return self._fail(f"update of {key} raised {error!r}")
        elapsed = time.perf_counter() - start
        self.model[key] = new
        self.acked.append(key)
        return elapsed

    def _fail(self, why: str):
        self.failed += 1
        print(f"FAILED {why}", file=sys.stderr)
        return None

    def close(self, kill=False) -> None:
        self.client.close()
        self.owner.close()
        self.server.stop(kill=kill)

    # -- negative controls ---------------------------------------------------

    def negative_controls(self) -> None:
        """A dropped row, a modified row and a replayed pre-update answer must
        each be refused with a typed error; otherwise the run aborts."""
        low, high = control_range(self.rows)
        spec = QuerySpec.range(RELATION, KEY, low, high)
        captured = []

        def capture(response):
            captured.append(response)
            return response

        def drop_row(response):
            return replace(response, rows=response.rows[:-1])

        def modify_row(response):
            first = dict(response.rows[0], value=int(response.rows[0]["value"]) + 1)
            return replace(response, rows=(first,) + response.rows[1:])

        def replay(response):
            # The stale-snapshot attack: the captured answer, re-labelled
            # with the id the relation rotated to.
            return replace(captured[0], manifest_id=response.manifest_id)

        proxy = TamperProxy(self.server.port)
        proxy.start()
        try:
            for tamper, refusal in (
                (capture, None),
                (drop_row, VerificationError),
                (modify_row, VerificationError),
                (replay, StaleAnswerError),
            ):
                if tamper is replay and self.update(low) is None:
                    raise SystemExit("negative control: the rotating update failed")
                proxy.tamper = tamper
                with VerifyingClient("127.0.0.1", proxy.port, freshness=self.policy) as client:
                    try:
                        client.execute(spec)
                    except refusal or () as error:
                        print(
                            f"negative control {tamper.__name__}: "
                            f"refused, {type(error).__name__}"
                        )
                        continue
                if refusal is not None:
                    raise SystemExit(
                        f"negative control {tamper.__name__}: a tampered answer was ACCEPTED"
                    )
        finally:
            proxy.stop()


# -- operation streams --------------------------------------------------------


class FirstTouch:
    """Hands out reads that touch no key an earlier read of the server touched.

    The key space is cut into blocks of ``RANGE_KEYS + 2`` keys, shuffled by
    the seed.  A range read takes one block: its 40 keys, with the two
    boundary entries of its proof inside the same block.  A point read takes
    a key whose two neighbours no other read uses.  So every read faults its
    rows, digests and signatures from sqlite and builds every proof fragment:
    the latencies of a class come from one regime, not from a mix of cold
    and warmed-up reads that shifts with how far a run got.  The topmost
    block is left to the negative controls.
    """

    BLOCK = RANGE_KEYS + 2

    def __init__(self, rng, rows) -> None:
        blocks = list(range(rows // self.BLOCK - 1))
        rng.shuffle(blocks)
        for_points = max(1, len(blocks) // 10)
        self._free = {
            "point": [
                (key, key)
                for block in blocks[:for_points]
                for key in range(block * self.BLOCK + 2, (block + 1) * self.BLOCK, 3)
            ],
            "range": [
                (block * self.BLOCK + 2, block * self.BLOCK + 1 + RANGE_KEYS)
                for block in blocks[for_points:]
            ],
        }

    def take(self, kind):
        if not self._free[kind]:
            raise SystemExit(
                f"no untouched {kind} read left: the root holds fewer first-touch "
                "reads than --seconds asks for"
            )
        return self._free[kind].pop()

    def reads(self):
        """Range and point reads in turn, without end."""
        return (
            ("read", self.take("point" if count % 2 else "range"))
            for count in itertools.count()
        )


def control_range(rows):
    """The range the negative controls read: inside the topmost block."""
    low = (rows // FirstTouch.BLOCK - 1) * FirstTouch.BLOCK + 2
    return low, low + RANGE_KEYS - 1


def query_pool(rng, rows) -> dict:
    """The fixed queries of ``hot_read`` and ``mixed_update``, by kind."""
    pool = {"point": [], "range": []}
    for kind, queries in pool.items():
        for _ in range(POOL_QUERIES // 2):
            low = rng.randint(1, rows - RANGE_KEYS + 1)
            queries.append((low, low if kind == "point" else low + RANGE_KEYS - 1))
    return pool


def pool_operations(workload, rng, rows, pool):
    """The endless op sequence of ``hot_read`` and ``mixed_update``.

    Reads alternate point and range and ``mixed_update`` makes every eighth
    op an update, so every run of a workload has the same mix and only the
    keys differ.  With seven reads between updates, the read that first
    meets a rotation is a point and a range read in turn.
    """
    reads = 0
    for index in itertools.count():
        if workload == "mixed_update" and index % UPDATE_EVERY == UPDATE_EVERY - 1:
            yield "update", rng.randint(1, rows)
        else:
            reads += 1
            yield "read", rng.choice(pool["point" if reads % 2 else "range"])


class Samples:
    """Latencies per op class and client CPU over reads, slice by slice."""

    def __init__(self) -> None:
        self.latency = {"point": [], "range": [], "update": []}
        self.read_cpu = 0.0
        self.reads = 0
        self.rows_returned = 0
        self.range_results = []
        #: Per closed slice: where it ends in each latency list.
        self.cuts = []
        #: Per closed slice that read: client CPU seconds per read.
        self.cpu_per_read = []
        self._cut_at = (0.0, 0)

    def add_read(self, outcome) -> None:
        if outcome is None:
            return
        elapsed, cpu, result = outcome
        kind = "point" if len(result.rows) == 1 else "range"
        self.latency[kind].append(elapsed)
        self.read_cpu += cpu
        self.reads += 1
        self.rows_returned += len(result.rows)
        if kind == "range" and len(self.range_results) < 32:
            self.range_results.append(result)

    def add_update(self, elapsed) -> None:
        if elapsed is not None:
            self.latency["update"].append(elapsed)

    @property
    def ops(self) -> int:
        return sum(len(values) for values in self.latency.values())

    def cut(self) -> None:
        """End a slice: later samples belong to the next one."""
        self.cuts.append({kind: len(values) for kind, values in self.latency.items()})
        cpu, reads = self._cut_at
        if self.reads > reads:
            self.cpu_per_read.append((self.read_cpu - cpu) / (self.reads - reads))
        self._cut_at = (self.read_cpu, self.reads)

    def best_median(self, kind) -> float:
        """The lowest, over the slices, of a slice's median latency."""
        ends = [cut[kind] for cut in self.cuts]
        slices = [self.latency[kind][a:b] for a, b in zip([0] + ends, ends) if b > a]
        return min(statistics.median(part) for part in slices)


def drive(session, samples, stream, count) -> float:
    """Run ``count`` ops off ``stream`` in a closed loop; returns the seconds taken."""
    start = time.perf_counter()
    for kind, argument in itertools.islice(stream, count):
        if kind == "update":
            samples.add_update(session.update(argument))
        else:
            samples.add_read(session.read(*argument))
    return time.perf_counter() - start


# -- measuring ------------------------------------------------------------------


def percentile(values, fraction):
    ordered = sorted(values)
    return ordered[max(0, min(len(ordered) - 1, round(fraction * len(ordered)) - 1))]


def tree_bytes(root) -> int:
    return sum(
        os.path.getsize(os.path.join(directory, name))
        for directory, _, files in os.walk(root)
        for name in files
    )


def ratio(hits, misses):
    return hits / (hits + misses) if hits + misses else 0.0


class Run:
    """One invocation: set-up, the timed section, the closing checks."""

    def __init__(self, workload, seed, seconds, traced, sizes, trace_dir=None) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.sizes = sizes
        self.rng = random.Random(f"{workload}-{seed}")
        self.scratch = os.path.join(common.BUILD_DIR, f"run-{os.getpid()}")
        self.trace_dir = trace_dir or self.scratch
        #: A layer a workload never executes reports 0.
        self.metrics = (
            {name: {"value": 0.0, "unit": metric["unit"]} for name, metric in PER_LAYER.items()}
            if traced
            else {}
        )
        self.stage_table = {}
        self.attempted = 0
        self.failed = 0
        self._roots = 0

    def fresh_root(self, source=None) -> str:
        self._roots += 1
        root = os.path.join(self.scratch, f"root-{self._roots}")
        if source:
            shutil.copytree(source, root)
        else:
            os.makedirs(root)
        return root

    def trace_file(self, side):
        if not self.traced:
            return None
        os.makedirs(self.trace_dir, exist_ok=True)
        return os.path.join(self.trace_dir, f"{self.workload}.{side}.jsonl")

    def retire(self, session, kill=False) -> None:
        session.close(kill=kill)
        self.attempted += session.attempted
        self.failed += session.failed

    def execute(self) -> dict:
        shutil.rmtree(self.scratch, ignore_errors=True)
        os.makedirs(self.scratch)
        try:
            for side in ("client", "server"):
                if self.traced and os.path.exists(self.trace_file(side)):
                    os.remove(self.trace_file(side))
            self._execute()
        finally:
            _reap()
            shutil.rmtree(self.scratch, ignore_errors=True)
        self.layer("failed_ops_ratio", self.failed / self.attempted)
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics,
            "stage_table": self.stage_table,
        }

    # -- phases ------------------------------------------------------------------

    def set_up(self, pristine, pool):
        """Copy the dataset, start a server on it, connect, attest, run the
        negative controls and warm up -- everything before the first timed op."""
        start = time.perf_counter()
        session = Session(
            self.fresh_root(pristine), self.sizes.rows, trace_file=self.trace_file("server")
        )
        session.negative_controls()
        warm = time.perf_counter()
        touch = FirstTouch(self.rng, session.rows)
        if self.workload == "cold_read":
            for _, bounds in itertools.islice(touch.reads(), self.sizes.cold_warmup_ops):
                session.read(*bounds)
        elif self.workload != "bulk_ingest":
            for _ in range(2):
                for bounds in pool["point"] + pool["range"]:
                    session.read(*bounds)
        end = time.perf_counter()
        self.layer("service.server.start_s", session.server.start_s)
        self.layer("service.client.warmup_s", end - warm)
        return session, touch, end - start

    def _execute(self) -> None:
        sizes = self.sizes
        pristine = ensure_dataset(sizes.rows)
        pool = query_pool(self.rng, sizes.rows)
        setups = []
        session = None
        for _ in range(1 if self.traced else sizes.setups):
            if session is not None:
                self.retire(session)
            session, touch, seconds = self.set_up(pristine, pool)
            setups.append(seconds)
        self.end_to_end("setup_s", statistics.median(setups))

        #: Untraced operations: what the end-to-end metrics are made of.
        samples = Samples()
        if self.workload == "bulk_ingest":
            self.retire(session)
            session = self.publish_rounds(samples)
        elif self.workload == "cold_read":
            self.read_section(session, touch.reads(), samples)
        else:
            stream = pool_operations(self.workload, self.rng, sizes.rows, pool)
            self.read_section(session, stream, samples)
        self.closing_checks(session, samples)

    def read_section(self, session, stream, samples) -> None:
        """The timed section of a read workload, in equal slices.

        The op count, fixed by ``--seconds`` and the workload, ends it, not
        the clock: a run of a seed does the same work wherever it runs.
        """
        slices = self.sizes.traced_slices if self.traced else self.sizes.slices
        per_slice = max(2, 2 * round(OPS_PER_SECOND[self.workload] * self.seconds / slices / 2))
        server = session.server
        tracer = spans.Tracer()
        # In a traced run even slices go untraced and odd ones traced, into
        # their own sample set: whatever drifts over the section weighs on
        # both alike, and the ratio of their throughputs is the wrappers' cost.
        traced_samples = Samples()
        rates = {False: [], True: []}
        server_cpu = {False: [], True: []}
        cache = {name: [0, 0] for name in CACHE_RATIOS}
        fdh_first = fdh_cache_stats()
        for index in range(slices):
            tracing = self.traced and index % 2 == 1
            into = traced_samples if tracing else samples
            if tracing:
                tracer.reset()
                spans.install_client_hooks(tracer)
                server.command("trace on", "TRACE")
                session.tracer = tracer
            before = server.stats()
            ops = into.ops
            ran = drive(session, into, stream, per_slice)
            into.cut()
            after = server.stats()
            if tracing:
                session.tracer = None
                tracer.uninstall()
                tracer.dump(self.trace_file("client"))
                server.command("trace off", "TRACE")
                server.command("trace dump", "TRACE")
            ops = into.ops - ops
            rates[tracing].append(ops / ran)
            server_cpu[tracing].append((after["cpu_s"] - before["cpu_s"]) / ops * 1e3)
            for name, path in CACHE_RATIOS.items():
                old, new = before["cache"], after["cache"]
                for step in path:
                    old, new = old[step], new[step]
                cache[name][0] += new["hits"] - old["hits"]
                cache[name][1] += new["misses"] - old["misses"]
        self.end_to_end("ops_per_s", max(rates[False]))
        self.layer("server_cpu_ms_per_op", min(server_cpu[False]))
        if self.traced:
            self.layer(
                "trace.overhead_ratio",
                statistics.median(rates[False]) / statistics.median(rates[True]),
            )
            fdh_last = fdh_cache_stats()
            self.layer(
                "crypto.fdh_cache_hit_ratio",
                ratio(
                    fdh_last["hits"] - fdh_first["hits"],
                    fdh_last["misses"] - fdh_first["misses"],
                ),
            )
            for name, (hits, misses) in cache.items():
                self.layer(name, ratio(hits, misses))
            self.read_stage_table(traced_samples)

    def publish_rounds(self, samples):
        """``bulk_ingest``: publish into fresh roots, round after round.

        Each round starts a server on an empty root, which publishes
        ``ingest_rows`` genesis rows (load, digest, sign, dump, checkpoint,
        reopen through recovery) before it binds its port, and then reads
        ``spot_reads`` points and ranges of the new root for the first time.
        The last round's server stays up for the closing checks.
        """
        rows = self.sizes.ingest_rows
        # A traced run publishes twice: untraced, then traced from the start.
        rounds = 2 if self.traced else max(1, round(self.seconds * PUBLISH_ROUNDS_PER_SECOND))
        rates, cpu = [], []
        session = None
        for index in range(rounds):
            if session is not None:
                self.retire(session)
            tracing = self.traced and index == 1
            session = Session(
                self.fresh_root(), rows,
                trace_file=self.trace_file("server"), trace_open=tracing,
            )
            if tracing:
                session.server.command("trace off", "TRACE")
                session.server.command("trace dump", "TRACE")
            ready = session.server.ready
            if ready["origin"] != "bootstrapped":
                raise SystemExit("bulk_ingest: the server did not publish a fresh root")
            rates.append(rows / ready["open_s"])
            cpu.append(session.server.stats()["cpu_s"] / rows * 1e3)
            reads = FirstTouch(self.rng, rows).reads()
            for _ in range(2 * self.sizes.spot_reads // self.sizes.slice_ops):
                drive(session, samples, reads, self.sizes.slice_ops)
                samples.cut()
        self.attempted += rows * rounds
        self.end_to_end("ops_per_s", max(rates))
        self.layer("server_cpu_ms_per_op", cpu[0])
        self.layer("ingest_rows_per_s", rates[0])
        if self.traced:
            self.layer("trace.overhead_ratio", rates[0] / rates[1])
            self.publish_stage_table(session, rows)
        return session

    def closing_checks(self, session, samples) -> None:
        """Update, crash, recover and re-read; then the metrics of the run.

        Every acknowledged update is read back from a server that saw only
        what was on disk when the first one was killed.
        """
        rng, rows = self.rng, session.rows
        # ``mixed_update`` has timed its own updates, between reads; these,
        # back to back, are the update latencies of the other workloads only.
        into = Samples() if samples.latency["update"] else samples
        for index in range(1, self.sizes.closing_updates + 1):
            into.add_update(session.update(rng.randint(1, rows)))
            if index % self.sizes.slice_ops == 0:
                into.cut()
        for kind, values in samples.latency.items():
            self.end_to_end(f"{kind}_p50_ms", samples.best_median(kind) * 1e3)
            self.layer(f"{kind}_p90_ms", percentile(values, 0.90) * 1e3)
            self.layer(f"service.{kind}_p99_ms", percentile(values, 0.99) * 1e3)
        self.end_to_end("client_cpu_ms_per_read", min(samples.cpu_per_read) * 1e3)
        frames = sum(
            4 + len(encode(QueryResponse(r.rows, r.proof, r.manifest_id, r.attestation)))
            for r in samples.range_results
        )
        self.end_to_end(
            "vo_bytes_per_row", frames / sum(len(r.rows) for r in samples.range_results)
        )
        self.end_to_end("server_rss_mib", session.server.stats()["rss_kib"] / 1024)

        # Crash: SIGKILL, then a new server that has only the files.
        self.retire(session, kill=True)
        recovered = Session(session.root, rows, session.model)
        self.layer("storage.recover_s", recovered.server.ready["open_s"])
        lost = sum(recovered.read(key, key) is None for key in sorted(set(session.acked)))
        self.layer("storage.lost_acked_updates", lost)
        recovered.read(*control_range(rows))
        self.retire(recovered)
        self.end_to_end("stored_bytes_per_row", tree_bytes(session.root) / rows)

    # -- stage tables ------------------------------------------------------------

    def read_stage_table(self, samples) -> None:
        client_dumps = spans.load_dumps(self.trace_file("client"))
        server_dumps = spans.load_dumps(self.trace_file("server"))
        for dump in client_dumps + server_dumps:
            spans.check_nesting(dump)
        table = spans.stage_table(client_dumps, server_dumps)
        reads = spans.merge_rows(table[kind] for kind in ("point", "range") if kind in table)
        updates = table.get("update") or spans.empty_row()

        def per_op(row, field, layer, scale=1.0):
            return row[field][layer] / row["ops"] * scale if row["ops"] else 0.0

        for name, layer in (
            ("wire.encode_request_ms", "wire.encode_request"),
            ("service.transport_ms", "service.transport"),
            ("service.handler.self_ms", "service.handler"),
            ("wire.decode_request_ms", "wire.decode_request"),
            ("core.publisher.answer_self_ms", "core.publisher.answer"),
            ("storage.relstore.read_ms", "storage.relstore.read"),
            ("wire.encode_response_ms", "wire.encode_response"),
            ("wire.decode_response_ms", "wire.decode_response"),
            ("core.verifier.self_ms", "core.verifier"),
            ("crypto.fdh_ms", "crypto.fdh"),
            ("crypto.modexp_ms", "crypto.modexp"),
            ("service.client.self_ms", "service.client"),
        ):
            self.layer(name, per_op(reads, "layers", layer, 1e3))
        for name, layer in (
            ("service.owner.sign_ms", "service.owner.sign"),
            ("service.owner.validate_ms", "service.owner.validate"),
            ("storage.wal.append_ms", "storage.wal.append"),
            ("core.publisher.apply_ms", "core.publisher.apply"),
            ("crypto.sign_ms", "crypto.sign"),
            ("storage.relstore.commit_ms", "storage.relstore.commit"),
        ):
            self.layer(name, per_op(updates, "layers", layer, 1e3))
        self.layer("storage.relstore.reads_per_op", per_op(reads, "calls", "storage.relstore.read"))
        returned = samples.rows_returned
        self.layer(
            "storage.relstore.reads_per_row_returned",
            reads["calls"]["storage.relstore.read"] / returned if returned else 0.0,
        )
        self.layer("crypto.modexp_per_read", per_op(reads, "calls", "crypto.modexp"))
        self.layer(
            "service.client.manifest_refresh_per_read",
            per_op(reads, "calls", "service.client.refresh"),
        )
        if updates["ops"]:
            self.layer("service.handler.update_ms", updates["server_s"] / updates["ops"] * 1e3)
        self.layer("storage.wal.bytes_per_update", per_op(updates, "sizes", "storage.wal.append"))
        self.layer("storage.wal.fsyncs_per_update", per_op(updates, "calls", "storage.wal.fsync"))
        self.layer("crypto.signatures_per_update", per_op(updates, "sizes", "crypto.sign"))
        measured = sum(sum(values) for values in samples.latency.values())
        attributed = sum(sum(row["layers"].values()) for row in table.values())
        self.layer("trace.unattributed_ratio", abs(measured - attributed) / measured)
        self.stage_table = {
            kind: {
                "ops": row["ops"],
                "mean_ms": row["total_s"] / row["ops"] * 1e3,
                "layers_ms": {
                    layer: seconds / row["ops"] * 1e3
                    for layer, seconds in sorted(row["layers"].items())
                },
            }
            for kind, row in table.items()
            if row["ops"]
        }

    def publish_stage_table(self, session, rows) -> None:
        (dump,) = spans.load_dumps(self.trace_file("server"))
        spans.check_nesting(dump)
        layers = {}
        for span, seconds in zip(dump, spans.self_times(dump)):
            if span[spans.FRAME] < 0:  # before the first frame: the publish itself
                layers[span[spans.LAYER]] = layers.get(span[spans.LAYER], 0.0) + seconds
        ready = session.server.ready
        layers["db.relation.load"] = ready["load_s"]
        for name, layer in (
            ("db.relation.load_s", "db.relation.load"),
            ("core.relational.digest_s", "core.relational.digest"),
            ("crypto.sign_batch_s", "crypto.sign"),
            ("storage.relstore.dump_s", "storage.relstore.dump"),
            ("storage.checkpoint.write_s", "storage.checkpoint.write"),
        ):
            self.layer(name, layers.get(layer, 0.0))
        self.layer(
            "trace.unattributed_ratio",
            abs(ready["open_s"] - sum(layers.values())) / ready["open_s"],
        )
        self.stage_table = {
            "publish": {
                "ops": rows,
                "mean_ms": ready["open_s"] / rows * 1e3,
                "layers_ms": {
                    layer: seconds / rows * 1e3 for layer, seconds in sorted(layers.items())
                },
            }
        }
        # The streaming publish path (no RAM chain), for comparison.
        store = RelationStore(os.path.join(self.fresh_root(), "stream.db"), fsync="always")
        try:
            start = time.perf_counter()
            build_stored_chain(
                store, RELATION, metrics_schema(rows),
                (common.base_row(key) for key in range(1, rows + 1)),
                common.owner_scheme(),
            )
            self.layer("storage.stream_ingest_rows_per_s", rows / (time.perf_counter() - start))
        finally:
            store.close()

    # -- metric bookkeeping --------------------------------------------------------

    def end_to_end(self, name, value) -> None:
        if not self.traced:
            self.metrics[name] = {"value": value, "unit": END_TO_END[name]["unit"]}

    def layer(self, name, value) -> None:
        if self.traced:
            self.metrics[name] = {"value": value, "unit": PER_LAYER[name]["unit"]}


# -- reporting ----------------------------------------------------------------


def fixed_parameters(sizes) -> dict:
    """Everything a result depends on besides the code and the box."""
    return {
        "key_bits": 1024,
        "key_fixture": os.path.basename(common.KEY_FIXTURE),
        "relation": RELATION,
        "rows": sizes.rows,
        "ingest_rows": sizes.ingest_rows,
        "range_keys": RANGE_KEYS,
        "pool_queries": POOL_QUERIES,
        "update_every": UPDATE_EVERY,
        "slices": sizes.slices,
        "traced_slices": sizes.traced_slices,
        "slice_ops": sizes.slice_ops,
        "setups": sizes.setups,
        "spot_reads": sizes.spot_reads,
        "closing_updates": sizes.closing_updates,
        "ops_per_second": OPS_PER_SECOND,
        "storage": repr(common.storage_config("ROOT")),
        "server_config": repr(ServerConfig()),
        "max_staleness_s": common.MAX_STALENESS_S,
        "clients": "1 closed-loop reader + 1 owner connection, loopback TCP",
    }


def environment(seed, seconds, sizes) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=common.REPO_ROOT,
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown (not a git checkout)"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle if "model name" in line)
    except (OSError, StopIteration):
        pass
    return {
        "commit": commit,
        "python": platform.python_version(),
        "crypto_backend": backend_stats(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "seed": seed,
        "seconds": seconds,
        "parameters": fixed_parameters(sizes),
    }


def report(result, wanted) -> None:
    """Print one pass: metrics by name and unit, stage tables, the result line.

    Exits, naming them, if any wanted metric was not measured.
    """
    missing = [name for name in wanted if name not in result["metrics"]]
    if missing:
        raise SystemExit(f"metrics not measured: {missing}")
    result["metrics"] = {name: result["metrics"][name] for name in wanted}
    for name, metric in result["metrics"].items():
        print(f"  {name:<44} {metric['value']:>14.4f} {metric['unit']}")
    for kind, row in result["stage_table"].items():
        print(f"  stage table, {kind}: {row['ops']} ops, mean {row['mean_ms']:.4f} ms")
        for layer, value in row["layers_ms"].items():
            print(f"    {layer:<32} {value:>10.4f} ms  {value / row['mean_ms']:>6.1%}")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="default: all of them")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), help="default: an untraced pass, then a traced one"
    )
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--repeat", type=int, default=1, help="untraced passes per workload")
    parser.add_argument("--output", help="results file for compare.py")
    parser.add_argument("--trace-dir", help="keep the span logs (JSONL) here")
    args = parser.parse_args()
    sizes = Sizes(args.smoke)
    seconds = args.seconds or (0.5 if args.smoke else SPEC["run_seconds"])
    if seconds < 0.3:
        parser.error("--seconds must be at least 0.3: every slice has to hold some reads")
    results = {"environment": environment(args.seed, seconds, sizes), "workloads": {}}
    print(f"environment {json.dumps(results['environment'])}")

    correct = True
    for workload in [args.workload] if args.workload else WORKLOADS:
        entry = results["workloads"][workload] = {"runs": [], "failed": 0}
        for traced in (False, True) if args.trace is None else (bool(args.trace),):
            for repeat in range(1 if traced else args.repeat):
                print(f"{workload}, {'traced' if traced else f'untraced pass {repeat + 1}'}")
                result = Run(
                    workload, args.seed, seconds, traced, sizes, args.trace_dir
                ).execute()
                report(result, PER_LAYER if traced else END_TO_END)
                correct = correct and result["correct"]
                entry["failed"] += result["failed"]
                if traced:
                    entry["per_layer"] = result["metrics"]
                    entry["stage_table"] = result["stage_table"]
                else:
                    entry["runs"].append(result["metrics"])
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(results, handle, indent=1)
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
