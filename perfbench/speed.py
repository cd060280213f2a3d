"""Speed probe: how fast the CPU runs Python right now.

    python3 perfbench/speed.py

Every INTERVAL_S it times a fixed pure-Python loop (dict lookups through
Python-level __hash__/__eq__, small-integer arithmetic: the kind of work
hopfkit does) and keeps the fastest of three tries.  On SIGTERM it prints
the samples as JSON, [[perf_counter, seconds], ...].  The benchmark runs it
on the CPU its jobs run on, so the samples show the speed each job saw.
"""

from __future__ import annotations

import json
import signal
import sys
import time

INTERVAL_S = 0.02


class _Key:
    """A dict key with Python-level __hash__ and __eq__, as hopfkit's
    interned field elements are: most of hopfkit's time goes to calls like
    these, so the probe slows down the way hopfkit does."""

    __slots__ = ("a", "b", "_hash")

    def __init__(self, a: int, b: int):
        self.a, self.b, self._hash = a, b, hash((a, b))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        return self.a == other.a and self.b == other.b


_KEYS = [_Key(i % 13, i % 7) for i in range(91)]


def unit_of_work(n: int = 200) -> int:
    cache: dict = {}
    acc = 0
    for i in range(n):
        key = _KEYS[i % 91]
        v = cache.get(key)
        if v is None:
            cache[key] = v = key.a * key.b + 1
        acc += v % 7
    return acc


def timed_unit() -> float:
    t0 = time.perf_counter()
    unit_of_work()
    return time.perf_counter() - t0


def main() -> int:
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    samples = []
    while not stop:
        time.sleep(INTERVAL_S)
        # The fastest try drops the ones a job's time slice interrupted.
        best = min(timed_unit() for _ in range(3))
        samples.append((time.perf_counter(), best))
    json.dump(samples, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
