"""Smoke test of the e2e benchmark: ``pytest benchmarks/e2e`` (not in tier-1).

Runs the whole benchmark once at ``--smoke`` size and checks what the
numbers rest on: every metric of BENCHMARK.json comes out with its unit,
nothing failed, the negative controls fired, the span logs parse and nest,
and no server process or scratch directory outlives a run -- not even an
interrupted one.
"""

import glob
import json
import os
import signal
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")
BUILD_DIR = os.path.join(REPO_ROOT, ".bench_build", "e2e")

with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


def leftovers():
    """Live serve.py processes and per-run scratch directories."""
    servers = []
    for path in glob.glob("/proc/[0-9]*/cmdline"):
        try:
            with open(path, "rb") as handle:
                command = handle.read().replace(b"\0", b" ").decode(errors="replace")
        except OSError:
            continue
        if os.path.join(HERE, "serve.py") in command:
            servers.append(command)
    return servers, glob.glob(os.path.join(BUILD_DIR, "run-*"))


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    directory = tmp_path_factory.mktemp("e2e")
    output = directory / "results.json"
    completed = subprocess.run(
        [sys.executable, RUN, "--smoke", "--output", str(output), "--trace-dir", str(directory)],
        capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    with open(output, encoding="utf-8") as handle:
        return completed.stdout, json.load(handle), directory


def test_every_metric_is_emitted_with_its_unit(smoke):
    _, report, _ = smoke
    assert sorted(report["workloads"]) == sorted(w["name"] for w in SPEC["workloads"])
    for entry in report["workloads"].values():
        for metrics, wanted in (
            (entry["runs"][0], SPEC["end_to_end"]),
            (entry["per_layer"], SPEC["per_layer"]),
        ):
            assert {name: m["unit"] for name, m in metrics.items()} == {
                m["name"]: m["unit"] for m in wanted
            }
        assert all(m["value"] > 0 for m in entry["runs"][0].values())


def test_nothing_failed_and_no_acknowledged_update_was_lost(smoke):
    _, report, _ = smoke
    for entry in report["workloads"].values():
        assert entry["failed"] == 0
        assert entry["per_layer"]["failed_ops_ratio"]["value"] == 0
        assert entry["per_layer"]["storage.lost_acked_updates"]["value"] == 0


def test_negative_controls_fire(smoke):
    stdout, _, _ = smoke
    for control in ("drop_row", "modify_row", "replay"):
        assert f"negative control {control}: refused" in stdout


def test_stage_tables_close(smoke):
    _, report, _ = smoke
    for entry in report["workloads"].values():
        assert entry["per_layer"]["trace.unattributed_ratio"]["value"] <= 0.05
        assert entry["stage_table"]


def test_span_logs_parse_and_nest(smoke):
    _, _, directory = smoke
    logs = sorted(directory.glob("*.jsonl"))
    assert len(logs) >= 2 * 3 + 1  # both sides of three read workloads, and the publish
    for log in logs:
        with open(log, encoding="utf-8") as handle:
            spans = [json.loads(line) for line in handle]
        assert spans
        by_id = {}
        for span in spans:
            if span["id"] == 0:
                by_id = {}  # a log can hold several dumps, each numbered from 0
            by_id[span["id"]] = span
            assert span["start"] <= span["end"]
            if span["parent"] >= 0:
                parent = by_id[span["parent"]]
                assert parent["start"] <= span["start"] and span["end"] <= parent["end"]


def test_nothing_is_left_behind(smoke):
    assert leftovers() == ([], [])


def test_an_interrupted_run_leaves_nothing_behind():
    process = subprocess.Popen(
        [sys.executable, RUN, "--smoke", "--workload", "hot_read", "--seconds", "30"],
        stdout=subprocess.PIPE, text=True,
    )
    try:
        for line in process.stdout:
            if "negative control replay" in line:  # a server is up from here on
                break
        servers, scratch = leftovers()
        assert servers and scratch
        process.send_signal(signal.SIGINT)
        process.stdout.read()
        assert process.wait(timeout=60) != 0
    finally:
        process.kill()
        process.stdout.close()
    assert leftovers() == ([], [])
