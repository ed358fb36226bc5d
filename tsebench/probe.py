"""A CPU-speed probe: a fixed piece of pure-Python work, timed in thread
CPU time, that runs beside the server in its own process.

The machines this benchmark is meant for share their CPUs with other
tenants.  Round-trip times there grow whenever another process holds a
CPU, and even CPU time drifts: the same requests took 3.5 to 4.9 CPU ms
each in runs a few minutes apart (clock speed, and the other half of a
hyper-threaded core).  The probe measures that drift where the server runs.  Every
``PERIOD_S`` it does :func:`reference_work` once and records the thread
CPU time it took; a thread waiting for the interpreter lock uses no CPU,
so the server's traffic does not inflate the samples.  The benchmark
scales the server's CPU time, and its set-up time, by ``REFERENCE_S /
probe median``: time at the speed at which :func:`reference_work` takes
``REFERENCE_S``.  A change to TSE moves the scaled figure as much as the
raw one; the probe never calls TSE.

    python3 tsebench/probe.py      # prints the probe's time on this machine
"""

from __future__ import annotations

import json
import statistics
import threading
import time
from typing import List, Tuple

#: seconds between two probe samples; each sample holds the interpreter
#: lock for about a millisecond, so the probe takes ~2% of the server
PERIOD_S = 0.05
#: thread CPU seconds of one :func:`reference_work` on the machine the
#: benchmark was sized on (the median of ``python3 tsebench/probe.py``)
REFERENCE_S = 0.001

_ROWS = [{"oid": i, "name": f"n{i:04d}", "age": i % 90, "tags": ["a", "b"]} for i in range(240)]


def reference_work() -> int:
    """Work shaped like the server's: build dicts, encode and decode
    JSON, sort by a key, sum a generator.  It never changes, so its time
    measures only the CPU it runs on."""
    text = json.dumps(_ROWS)
    rows = json.loads(text)
    index = {row["oid"]: row for row in rows}
    ordered = sorted(index.values(), key=lambda row: (row["age"], row["name"]))
    return sum(row["age"] for row in ordered if row["tags"])


class Probe(threading.Thread):
    """Samples :func:`reference_work` every ``PERIOD_S`` until stopped."""

    def __init__(self) -> None:
        super().__init__(name="tsebench-probe", daemon=True)
        self.samples: List[float] = []
        self._stopped = threading.Event()

    def run(self) -> None:
        while not self._stopped.wait(PERIOD_S):
            started = time.thread_time()
            reference_work()
            self.samples.append(time.thread_time() - started)

    def stop(self) -> None:
        self._stopped.set()
        self.join()

    def window(self, since: int) -> Tuple[float, float]:
        """(median sample, summed samples) from sample ``since`` on."""
        window = self.samples[since:]
        if not window:  # a window shorter than one period
            started = time.thread_time()
            reference_work()
            window = [time.thread_time() - started]
        return statistics.median(window), sum(window)


if __name__ == "__main__":
    samples = []
    for _ in range(400):
        started = time.thread_time()
        reference_work()
        samples.append(time.thread_time() - started)
    print(f"reference_work: median {statistics.median(samples) * 1e3:.4f} ms "
          f"over {len(samples)} samples (REFERENCE_S = {REFERENCE_S * 1e3:.4f} ms)")
