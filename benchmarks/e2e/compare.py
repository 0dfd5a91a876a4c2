"""Compare two results files of ``run.py --output``: ``compare.py BASE.json NEW.json``.

One row per (workload, end-to-end metric): the median of each file's runs,
their ratio, and a verdict against the metric's bound in BENCHMARK.json:

    worse       the new median is worse than the base by more than the bound
    unresolved  either file's own run-to-run spread (the distance between
                its quartiles over its median) is wider than the bound, so
                the files cannot tell
    same        neither

It never reports a gain: a gain is claimed from paired runs (README.md), not
from two files.  Files from different crypto backends, seeds, run lengths or
parameters are refused.  Exit code 1 when any row is worse.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def comparable(base: dict, new: dict) -> None:
    for what, pick in (
        ("crypto backend", lambda env: env["crypto_backend"]["backend"]),
        ("seed", lambda env: env["seed"]),
        ("run length", lambda env: env["seconds"]),
        ("parameters", lambda env: env["parameters"]),
    ):
        if pick(base["environment"]) != pick(new["environment"]):
            raise SystemExit(
                f"refusing to compare: {what} differs "
                f"({pick(base['environment'])!r} vs {pick(new['environment'])!r})"
            )


def spread(values) -> float:
    """Distance between the quartiles over the median; 0 for a single run."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def main(argv) -> int:
    if len(argv) != 3:
        raise SystemExit(__doc__)
    base, new = load(argv[1]), load(argv[2])
    comparable(base, new)
    spec = load(os.path.join(os.path.dirname(os.path.dirname(HERE)), "BENCHMARK.json"))
    worse = 0
    print(f"{'workload':<13} {'metric':<24} {'base':>12} {'new':>12} {'new/base':>9}  verdict")
    for workload, entry in base["workloads"].items():
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            old = [run[name]["value"] for run in entry["runs"]]
            now = [run[name]["value"] for run in new["workloads"][workload]["runs"]]
            ratio = statistics.median(now) / statistics.median(old)
            loss = ratio - 1 if metric["better"] == "lower" else 1 - ratio
            if max(spread(old), spread(now)) > bound:
                verdict = "unresolved"
            elif loss > bound:
                verdict = "worse"
                worse += 1
            else:
                verdict = "same"
            print(
                f"{workload:<13} {name:<24} {statistics.median(old):>12.4f} "
                f"{statistics.median(now):>12.4f} {ratio:>9.3f}  {verdict}"
            )
    return 1 if worse else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
