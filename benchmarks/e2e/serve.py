"""The benchmark's server process: one durable sqlite-backed PublicationServer.

``python -m repro.service`` only serves the demo database, so the benchmark
launches this instead.  It opens ``--root`` the way a durable server does at
start -- publishing ``--rows`` genesis rows into a fresh root, recovering an
existing one -- serves it with the default ``ServerConfig``, and then takes
commands from its parent, one per line on standard input, answering each
with one line on standard output:

    READY {...}        printed once, when the port is bound
    stats              -> STATS {cpu, peak rss, cache counters}
    trace on           -> TRACE on    (install the span wrappers)
    trace off          -> TRACE off   (remove them)
    trace dump         -> TRACE dump  (append the spans to --trace-file, count frames from 0)
    EOF                -> graceful stop and exit

EOF on standard input means the parent is gone, so a crashed benchmark
leaves no server behind.  With ``--build-only`` it exits once the root is
open, which is how the pristine dataset is built.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import common
import spans
from repro.service.config import ServerConfig
from repro.service.server import PublicationServer


def peak_rss_kib() -> int:
    """This process's own resident-set high-water mark, in KiB.

    ``VmHWM`` belongs to the address space, which ``exec`` replaces;
    ``getrusage``'s ``ru_maxrss`` does not do: the kernel carries it across
    fork and exec, so it starts at the peak of the process that spawned this
    one.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def reply(word: str, payload=None) -> None:
    print(word if payload is None else f"{word} {json.dumps(payload, default=str)}", flush=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--rows", type=int, required=True)
    parser.add_argument("--build-only", action="store_true")
    parser.add_argument("--trace-file")
    parser.add_argument(
        "--trace-open", action="store_true", help="trace from the start, until 'trace off'"
    )
    args = parser.parse_args()

    tracer = spans.Tracer()
    if args.trace_open:
        spans.install_server_hooks(tracer)
    timings = {}
    start = time.perf_counter()
    router, storage = common.open_root(args.root, args.rows, timings)
    timings["open_s"] = time.perf_counter() - start
    try:
        if args.build_only:
            return 0
        server = PublicationServer(router, storage=storage, config=ServerConfig())
        start = time.perf_counter()
        _, port = server.start()
        timings["start_s"] = time.perf_counter() - start
        try:
            reply("READY", {"port": port, "origin": storage.origin, **timings})
            for line in sys.stdin:
                command = line.strip()
                if command == "stats":
                    reply(
                        "STATS",
                        {
                            "cpu_s": time.process_time(),
                            "rss_kib": peak_rss_kib(),
                            "cache": server.cache_stats(),
                        },
                    )
                elif command == "trace on":
                    spans.install_server_hooks(tracer)
                    reply("TRACE on")
                elif command == "trace off":
                    tracer.uninstall()
                    reply("TRACE off")
                elif command == "trace dump":
                    tracer.dump(args.trace_file)
                    tracer.reset()
                    reply("TRACE dump")
        finally:
            server.stop()
    finally:
        storage.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
