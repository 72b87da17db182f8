"""A fixed reference workload, timed between operations.

Shared hosts change speed by 10-30 % within seconds to minutes, and raw
host times of runs made minutes apart differ by as much.  The benchmark
therefore times this fixed piece of work, which no change to ``src/``
can affect, before the first operation and after each one.  An
operation's time at reference speed is its host time multiplied by
``NOMINAL_S`` over the mean of the two reference times around it: what
the operation would have taken on a host where the reference takes
``NOMINAL_S``.  Both halves of the operations' work are represented:
interpreted Python (generators, a heap, dicts, small objects) and
library code (JSON, zlib, sha256).
"""

import hashlib
import heapq
import json
import time
import zlib

#: reference seconds that define "reference speed" (about what the
#: reference takes on a 2-vCPU cloud VM)
NOMINAL_S = 0.0125


def _process(pid, steps):
    for k in range(steps):
        yield (pid * 7 + k) % 5 + 1


def _interpreted() -> int:
    procs = {pid: _process(pid, 70) for pid in range(64)}
    heap = [(0, pid) for pid in procs]
    heapq.heapify(heap)
    totals = {}
    while heap:
        now, pid = heapq.heappop(heap)
        try:
            delay = next(procs[pid])
        except StopIteration:
            continue
        totals[pid] = totals.get(pid, 0) + delay
        heapq.heappush(heap, (now + delay, pid))
    return sum(totals.values())


def _library() -> int:
    records = [{"k": i, "v": [i * 3, i % 7, str(i)]} for i in range(1500)]
    blob = zlib.compress(json.dumps(records).encode("utf-8"))
    hashlib.sha256(blob).hexdigest()
    return len(json.loads(zlib.decompress(blob)))


def reference_s() -> float:
    """Host seconds the reference workload takes now."""
    start = time.perf_counter()
    _interpreted()
    _library()
    return time.perf_counter() - start
