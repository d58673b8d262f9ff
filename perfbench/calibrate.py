"""A fixed reference kernel that measures how fast the machine is right now.

Shared machines drift: the same work can take 20-40 % longer for a few
minutes and then speed up again, for every program on the machine alike.
Without a correction, ten runs of one workload spread over such a swing.
So an in-process workload times this kernel (which uses no opticomb code)
every half second in its own thread, interrupting the library, takes the
time spent in the kernel out of every timed interval, and scales the
remaining times by ``REFERENCE_S / median kernel time``.  Those times read
as at the speed at which the kernel takes ``REFERENCE_S``; the output
prints the raw times and the factor next to them.  The kernel lives in the
benchmark, so a change to the library cannot move it.  A set-up process
times the kernel itself right after its inputs are ready, and its set-up
time is scaled by that.

The CLI workload's work runs in child processes, where this kernel, timed
in the parent, tracks their speed badly: a CLI run is mostly process
launch and ``import numpy``.  So after every CLI child the parent times a
child of its own, ``python3 perfbench/calibrate.py``, which launches,
imports numpy and runs the kernel once; each pass is scaled by
``REFERENCE_LAUNCH_S / median launch time`` of that pass.
"""
from __future__ import annotations

import contextlib
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

#: kernel time, in seconds, that reported times are scaled to
REFERENCE_S = 0.040

#: time between two kernel samples, in seconds
SAMPLE_EVERY_S = 0.5

#: launch-to-exit time of the reference child, in seconds, that CLI
#: times are scaled to
REFERENCE_LAUNCH_S = 0.250


def reference_kernel() -> int:
    """Fixed work in the library's idiom: frozensets of labelled tuples,
    dict lookups, small integer ``kron``/``dot``, and ``Fraction`` sums."""
    acc = 0
    seen: dict = {}
    a = np.arange(16).reshape(4, 4) % 3
    b = np.eye(2, dtype=np.int64)
    for i in range(4000):
        fs = frozenset(((i % 7, "phi"), (i % 5, "bang"), (i % 3, i % 11)))
        seen[fs] = seen.get(fs, 0) + 1
        acc += len(tuple(sorted(fs, key=repr)))
        if i % 8 == 0:
            k = np.kron(a, b)
            acc += int((k @ k.T).sum() > 0)
        if i % 16 == 0:
            acc += Fraction(i, 7) + Fraction(3, i + 1) > 1
    return acc


def kernel_seconds(repeats: int = 3) -> float:
    """Median time of a few kernel runs, after one that warms numpy up."""
    reference_kernel()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Speedometer:
    """The start and end of every kernel run of one run of the benchmark."""

    reference_s = REFERENCE_S

    def __init__(self) -> None:
        reference_kernel()  # the first call also pays numpy's lazy set-up
        self.runs: list[tuple[float, float]] = []

    def sample(self, *_signal_args) -> None:
        start = time.perf_counter()
        reference_kernel()
        self.runs.append((start, time.perf_counter()))

    def mark(self) -> int:
        """Take before starting a clock: kernel runs after it are listed
        from this index on."""
        return len(self.runs)

    def inside(self, mark: int, t0: float, t1: float) -> float:
        """Kernel time that fell inside [t0, t1], for runs since ``mark``.

        The timer can fire between any two steps of the caller, so the
        overlap is computed from the recorded times, not guessed."""
        return sum(max(0.0, min(end, t1) - max(start, t0))
                   for start, end in self.runs[mark:])

    @contextlib.contextmanager
    def sampling(self):
        """Sample on a timer, interrupting whatever the thread is running."""
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    def after_query(self) -> None:
        """Called between two queries, outside every timed interval."""

    def scale(self, runs: slice = slice(None)) -> float:
        """The factor that turns a raw time into a time at reference speed,
        from the median of the kernel runs selected (all by default)."""
        return self.reference_s / statistics.median(
            end - start for start, end in self.runs[runs])


class LaunchSpeedometer(Speedometer):
    """Launch-to-exit times of the reference child, one after every query."""

    reference_s = REFERENCE_LAUNCH_S

    def __init__(self) -> None:
        self.runs = []
        self.sample()  # the first launch also fills the file cache
        self.runs.clear()

    def sample(self, *_signal_args) -> None:
        start = time.perf_counter()
        subprocess.run([sys.executable, str(Path(__file__).resolve())], check=True,
                       stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        self.runs.append((start, time.perf_counter()))

    def after_query(self) -> None:
        self.sample()


if __name__ == "__main__":
    reference_kernel()
