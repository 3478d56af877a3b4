"""CPU speed probe: rescales timed intervals to a reference CPU speed.

On a small shared VM one vCPU's speed swings by up to 2x within
seconds, as other guests load the host core and its caches under it,
and the share of slow time drifts over minutes.  Repeating a workload
does not average that away.  So a probe process, pinned to the CPU the
workload runs on, times a fixed probe every ``PERIOD_S`` seconds.  The
probe does the kinds of interpreter work the workloads do: ``LOOKUPS``
lookups in a dict of ``KEYS`` string keys, which miss the CPU caches
after the workload has run, as the workload's own lookups do, then
string building and small-object allocation.  An interval's *reference
time* is its wall time scaled by the mean speed the probe saw during
it: the time the same work would take on a CPU that runs the probe in
``REFERENCE_S``.

A probe that stays in the L1 cache (an arithmetic loop) sees only part
of the slow-down.  On 40 back-to-back runs of ``fuzz-corrupt`` whose
wall times varied by 20% (coefficient of variation), it left 7% and
dict lookups alone 3%.  On 40 runs each of ``invoke-wire`` and
``fuzz-corrupt`` at a noisier time (14% and 15%), this probe left 4.2%
and 4.7%, dict lookups alone 4.6% and 6.0%.  The probe costs the timed
process about 1.5% of its CPU.  It runs in a process of its own
because a child's peak RSS, as ``wait4`` reports it, is at least that
of the process that forked it, so the benchmark process stays small.

Run as a script it prints ``<start> <seconds>`` per probe, start on
``time.monotonic``, until it is terminated::

    python3 benchmarks/suite/speed.py [period]
"""

from __future__ import annotations

import bisect
import random
import subprocess
import sys
import threading
import time
from pathlib import Path

KEYS = 200_000
LOOKUPS = 1000
#: Seconds the probe takes on the reference CPU: about its time between
#: workload runs on a 2.0 GHz Xeon vCPU of a KVM guest at full speed,
#: Python 3.11.
REFERENCE_S = 550e-6
#: Seconds between two probes.
PERIOD_S = 0.05


def _start(sample):
    return sample[0]


class _Node:
    __slots__ = ("name", "value")

    def __init__(self, name, value):
        self.name = name
        self.value = value


def probe(table, order):
    """One probe: the work whose duration measures the CPU's speed."""
    total = 0
    for key in order:
        total += table[key]
    text = "".join([f"<e{i} a='{i * 3}'>{i}</e{i}>" for i in range(200)])
    total += len(text.split("<"))
    nodes = [_Node(f"n{i}", str(i)) for i in range(100)]
    return total + sum(len(node.name) + len(node.value) for node in nodes)


class SpeedProbe:
    """Samples the speed of this process's CPU while it is entered."""

    def __init__(self, period=PERIOD_S):
        self.period = period
        #: ``(start, seconds the probe took)``, in start order
        self.samples = []
        self._process = None
        self._reader = None

    def __enter__(self):
        self._process = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), str(self.period)],
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True)
        self._reader = threading.Thread(
            target=self._read, name="speed-probe", daemon=True)
        self._reader.start()
        return self

    def __exit__(self, *exc):
        self._process.terminate()
        self._process.wait()
        self._reader.join()
        self._process.stdout.close()

    def _read(self):
        for line in self._process.stdout:
            start, seconds = line.split()
            self.samples.append((float(start), float(seconds)))

    def speed(self, start, end):
        """Mean speed over ``[start, end]`` relative to the reference CPU.

        An interval too short to hold a sample takes the latest sample
        before its end; 1.0 when there is none.
        """
        samples = self.samples
        first = bisect.bisect_left(samples, start, key=_start)
        last = bisect.bisect_right(samples, end, key=_start)
        taken = samples[first:last] or samples[max(last - 1, 0):last]
        if not taken:
            return 1.0
        return sum(REFERENCE_S / seconds for _, seconds in taken) / len(taken)

    def reference_seconds(self, start, end):
        """``end - start`` rescaled to the reference CPU's speed."""
        return (end - start) * self.speed(start, end)


def main(period):
    rng = random.Random(0)
    keys = [f"key-{index}-{rng.random()}" for index in range(KEYS)]
    table = dict.fromkeys(keys, 1)
    order = [keys[rng.randrange(KEYS)] for _ in range(LOOKUPS)]
    try:
        while True:
            time.sleep(period)
            start = time.monotonic()
            probe(table, order)
            print(f"{start!r} {time.monotonic() - start!r}", flush=True)
    except (BrokenPipeError, KeyboardInterrupt):
        return


if __name__ == "__main__":
    main(float(sys.argv[1]) if len(sys.argv) > 1 else PERIOD_S)
