"""Fork-and-pipe sharding of one big-integer function over a batch.

Bulk signing is pure CPU and deterministic, so a batch can be cut into
contiguous shards, one per CPU of the affinity mask the operator already
controls (there is no other setting), and stitched back positionally.  Shard 0
runs in the caller; every other shard runs in a forked child that writes
fixed-width big-endian results down a pipe and leaves through ``os._exit``: no
``atexit`` hooks, no flush of inherited stdio buffers.
"""

from __future__ import annotations

import contextlib
import logging
import os
import signal
import threading
import time
from typing import Callable, List, Sequence

logger = logging.getLogger("repro.crypto")

#: Shard only when every shard gets at least this many items.  Measured on the
#: 2-core reference box with the libcrypto backend: a 1024-bit signature costs
#: 0.16-0.25 ms, and a two-way split loses ~7 ms to fork + pipe + reap and to
#: two vCPUs overlapping imperfectly, about 16 signatures' worth.  A 64-signature
#: batch then runs 0.90-1.01x serial speed, 96 1.12-1.15x, 128 1.20-1.26x
#: (medians of 9 alternating pairs).  The pure backend (0.75 ms per signature)
#: would gain 1.55x at 64, but it is the fallback, not what is tuned for.
MIN_SHARD_ITEMS = 64


def shard_count(items: int) -> int:
    """How many processes to split ``items`` across; 1 means stay serial.

    Serial when the batch cannot give two shards :data:`MIN_SHARD_ITEMS` each,
    when the platform has no fork or no affinity mask, when the mask holds one
    CPU, and when another thread is alive: a forked child of a threaded process
    can inherit a held lock (and Python 3.12 warns).
    """
    forkable = hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
    if items < 2 * MIN_SHARD_ITEMS or threading.active_count() > 1 or not forkable:
        return 1
    return min(len(os.sched_getaffinity(0)), items // MIN_SHARD_ITEMS)


def split(items: Sequence, shards: int) -> List[Sequence]:
    """``items`` as ``shards`` contiguous slices, sizes differing by at most one."""
    size, extra = divmod(len(items), shards)
    bounds = [index * size + min(index, extra) for index in range(shards + 1)]
    return [items[low:high] for low, high in zip(bounds, bounds[1:])]


def _spread(index: int, cpus: Sequence[int]) -> None:
    """Move child ``index`` (1, 2, ...) off its parent's CPU now, without binding it.

    A forked child stays on its parent's CPU until the load balancer moves it:
    on the reference VM not within 200 ms, which left a 256-signature batch no
    faster than serial.  Narrowing the mask migrates at once, widening it again
    hands placement back; the parent is not moved.  A hint: refusals are ignored.
    """
    with contextlib.suppress(OSError, ValueError, IndexError):
        with open("/proc/self/stat", "rb") as stat:  # field 39: CPU last run on
            here = int(stat.read().rsplit(b")", 1)[1].split()[36])
        others = [cpu for cpu in cpus if cpu != here] or cpus
        os.sched_setaffinity(0, {others[(index - 1) % len(others)]})
        os.sched_setaffinity(0, cpus)


def map_sharded(
    function: Callable[[int], int], items: Sequence[int], width: int, accept: Callable[..., bool]
) -> List[int]:
    """``[function(item) for item in items]``, every shard but the first in a child.

    A child's shard is taken only if the child exited cleanly, wrote exactly
    ``width`` bytes per item and ``accept(offset of the shard, results)`` holds;
    otherwise it is recomputed here under one WARNING naming the reason.  Every
    pipe end is closed and every child reaped on every way out; on an exception
    (``KeyboardInterrupt`` included) the children are killed first.
    """
    count = shard_count(len(items))
    if count == 1:
        return [function(item) for item in items]
    shards = split(items, count)
    start = time.perf_counter()
    readers, unreaped = [], []
    cpus = sorted(os.sched_getaffinity(0))
    try:
        for index, shard in enumerate(shards[1:], 1):
            read_fd, write_fd = os.pipe()
            readers.append(open(read_fd, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    status = 1
                    try:
                        _spread(index, cpus)
                        data = b"".join(function(item).to_bytes(width, "big") for item in shard)
                        view = memoryview(data)
                        while view:
                            view = view[os.write(write_fd, view) :]
                        status = 0
                    finally:
                        os._exit(status)
            finally:
                os.close(write_fd)
            unreaped.append(pid)
        results = [function(item) for item in shards[0]]
        for index, (pid, reader) in enumerate(zip(list(unreaped), readers), 1):
            data = reader.read()
            status = os.waitpid(pid, 0)[1]
            unreaped.remove(pid)
            if status != 0:
                reason = "child-exit"
            elif len(data) != len(shards[index]) * width:
                reason = "short-read"
            else:
                chunks = (data[at : at + width] for at in range(0, len(data), width))
                output = [int.from_bytes(chunk, "big") for chunk in chunks]
                reason = None if accept(len(results), output) else "screening-failed"
            if reason:
                logger.warning(
                    "sign_batch: shard %d of %d re-signed serially: %s", index, len(shards), reason
                )
                output = [function(item) for item in shards[index]]
            results.extend(output)
    except BaseException:
        for pid in unreaped:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for reader in readers:
            reader.close()
        for pid in unreaped:
            os.waitpid(pid, 0)
    elapsed = time.perf_counter() - start
    logger.debug("sign_batch: %d messages in %d shards, %.3f s", len(results), len(shards), elapsed)
    return results
