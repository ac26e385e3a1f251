"""Core-speed probe: converts wall time on a drifting shared core into
seconds at a fixed reference speed.

On a shared virtual machine a core's speed drifts by up to 2x over seconds
to minutes, as other tenants come and go, and process CPU time drifts with
it. The drift comes both from the core's own units, shared with other
tenants, and from the memory caches, and it hits each command differently.
So one probe sample is interpreter work of both kinds, about equal in time
at reference speed: an arithmetic loop that stays in the first-level cache,
then a walk over a Python list in random order through a working set
(about 32 MB) larger than a core's share of the last-level cache. On ten
repetitions of each sepdiff command of the workloads, on a busy 2-vCPU
Xeon KVM guest, the walk alone tracked some commands' drift and
over-corrected others, and the loop alone under-corrected most; the two
together left the least spread (IQR/median 0.02 to 0.06, against 0.14 to
0.37 for wall time).

A ``Probe`` runs one thread per core a command may use, pinned to that
core, that times a sample in its own CPU time every ``PERIOD_S``. Thread
CPU time counts only while the probe runs, so time the core spends on the
command does not enter the sample; the sample grows only when the core
itself is slower. A command of wall time ``w`` during which the samples
took ``p_1 .. p_n`` did ``w * mean(REF_SAMPLE_S / p_i)`` seconds of work
at reference speed: the probe's speed is taken as the command's, sampled
evenly over the interval. The probe takes about 2% of each core it
watches.
"""

from __future__ import annotations

import array
import os
import random
import threading
import time

#: iterations of the arithmetic loop per sample
LOOP = 32_000
#: list elements walked; their float objects take 24 bytes each
SIZE = 1 << 20
#: elements read per sample
STEP = 10_000
#: time of one sample at reference speed: a fixed scale, so that
#: normalised times of different runs and commits compare. It is about
#: the quickest sample seen on an idle core of the Xeon the benchmark
#: was written on, where loop and walk took about 1.9 and 2.0 ms.
REF_SAMPLE_S = 3.9e-3
#: seconds between the end of one sample and the start of the next
PERIOD_S = 0.2

_walk = None


def _walk_data():
    """The list and its random visiting order, built once per process
    with a fixed seed."""
    global _walk
    if _walk is None:
        rnd = random.Random(0)
        order = array.array("l", range(SIZE))
        rnd.shuffle(order)
        _walk = ([rnd.random() for _ in range(SIZE)], order)
    return _walk


class Probe:
    """Context manager sampling the speed of ``cpus`` while it is open."""

    def __init__(self, cpus):
        self.cpus = sorted(cpus)
        self.samples = []
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._threads = []

    def _run(self, cpu, start):
        os.sched_setaffinity(0, {cpu})
        data, order = _walk_data()
        k = start
        while True:
            t0 = time.thread_time()
            n = 0
            for i in range(LOOP):
                n += i * i % 7
            s = 0.0
            for i in order[k:k + STEP]:
                s += data[i]
            dt = time.thread_time() - t0
            with self._lock:
                self.samples.append(dt)
            k = (k + STEP) % (SIZE - STEP)
            if self._stop.wait(PERIOD_S):
                return

    def __enter__(self):
        _walk_data()
        self._threads = [
            threading.Thread(target=self._run, daemon=True,
                             args=(c, n * (SIZE // len(self.cpus)) % (SIZE - STEP)))
            for n, c in enumerate(self.cpus)]
        for th in self._threads:
            th.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        for th in self._threads:
            th.join()
        return False

    def factor(self):
        """Reference seconds per wall second over the probed interval."""
        return sum(REF_SAMPLE_S / p for p in self.samples) / len(self.samples)
