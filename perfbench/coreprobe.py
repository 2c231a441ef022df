"""Speed of the measured core, sampled while the benchmark runs on it.

On a shared host the speed of one core changes by up to 2× within
seconds (co-tenants on its sibling hyperthread): the same in-process
pass read 0.93–1.76 s within one minute, and an uncorrected run
measured mostly the host's load. So each timed phase runs on one core,
the fastest at its start (``fastest_cpu``), beside a probe process on
the same core, which times a fixed piece of pure-Python work in its own
CPU time (so being preempted by the pass does not count) every
``PERIOD_S``. A pass's wall time is then scaled by ``REFERENCE_S /
mean(probe samples during the pass)``: the time the pass would have
taken on a core where the probe's work takes ``REFERENCE_S``. A change
to the program moves the pass time and not the probe, so it shows in
full. The probe takes ~3% of the core.

The probe's work is the standard library's ``html.parser`` over a
fixed page, because contention slows it about as much as it slows the
program: over 108 in-process passes, log(pass time) against log(probe
time) had slope 0.98 for it, and 1.56 for an integer loop and 1.7 for
dict lookups, which would under-correct.

    python3 perfbench/coreprobe.py OUT_FILE     # the probe process
"""

from __future__ import annotations

import bisect
import os
import statistics
import subprocess
import sys
import time
from html.parser import HTMLParser
from pathlib import Path

PERIOD_S = 0.05        # sleep between samples
# the probe's sample time on an idle core of the 4-vCPU Xeon host the
# benchmark was tuned on
REFERENCE_S = 1.3e-3
# the probe's page: ~1.3 ms of parsing per sample
PAGE = "<html><body>" + "".join(
    f"<div class='c{i % 7}'><p>{' '.join(f'w{j}' for j in range(i, i + 10))}</p>"
    f"<a href='/x{i}'>link {i}</a></div>"
    for i in range(75)) + "</body></html>"


class _TextLength(HTMLParser):
    def __init__(self) -> None:
        super().__init__()
        self.chars = 0

    def handle_data(self, data: str) -> None:
        self.chars += len(data)


def sample() -> float:
    """CPU seconds of parsing ``PAGE`` once on this thread."""
    c0 = time.thread_time()
    parser = _TextLength()
    parser.feed(PAGE)
    parser.close()
    return time.thread_time() - c0


def probe(out: str) -> None:
    with open(out, "w", buffering=1) as f:
        while True:
            f.write(f"{time.monotonic()!r} {sample()!r}\n")
            time.sleep(PERIOD_S)


def start(out: Path) -> subprocess.Popen:
    """The probe process, on the CPUs of the caller (which pins itself)."""
    return subprocess.Popen([sys.executable, __file__, str(out)])


def fastest_cpu(cpus: set[int], samples: int = 7) -> int:
    """The CPU on which the calling thread runs ``sample`` fastest now
    (median of ``samples``); the thread's affinity is restored."""
    before = os.sched_getaffinity(0)
    speed = {}
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            speed[cpu] = statistics.median(sample() for _ in range(samples))
    finally:
        os.sched_setaffinity(0, before)
    return min(speed, key=speed.get)


class Samples:
    """The probe's samples, as ``(time.monotonic(), seconds)`` lines."""

    def __init__(self, path: Path) -> None:
        # what follows the last newline is a line cut off by the kill
        pairs = [ln.split() for ln in path.read_text().split("\n")[:-1]]
        self.times = [float(t) for t, _ in pairs]
        self.secs = [float(s) for _, s in pairs]

    def mean(self, t0: float, t1: float) -> float:
        """Mean sample over [t0, t1]; a window that holds no sample uses
        the first one after it (or the last one)."""
        lo = bisect.bisect_left(self.times, t0)
        hi = bisect.bisect_right(self.times, t1)
        if lo == hi:
            lo = min(lo, len(self.secs) - 1)
            hi = lo + 1
        return statistics.fmean(self.secs[lo:hi])

    def corrected(self, windows: list) -> list[float]:
        """Each ``(t0, t1)`` window's wall time at the reference speed."""
        return [(t1 - t0) * REFERENCE_S / self.mean(t0, t1) for t0, t1 in windows]


if __name__ == "__main__":
    probe(sys.argv[1])
