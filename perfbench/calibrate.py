"""Host-speed calibration: a fixed pure-Python kernel timed beside each sample.

The benchmark's host is a few cores of a shared machine whose speed drifts
by tens of percent from one second to the next.  There is no steal time
and CPU time equals wall time, yet the same compile takes 1.5x longer in
one minute than in the next, because neighbours share the machine's caches
and memory bandwidth.  A kernel that never changes, timed just before an
operation, sees the same drift.  Every timed sample (a compile, a request,
a set-up) is converted to the reference speed before any statistic is
taken: ``seconds * REFERENCE_S / kernel_seconds``.  A median over a run of
such samples moves with the program and hardly with the host.  The raw
figures are printed beside them.

The kernel is the benchmark's own code and imports nothing from the
program, so a change to the program moves the measured times and not the
kernel.
"""

from __future__ import annotations

import statistics
import time

#: the kernel's time at the reference speed (one vCPU of an idle x86-64 VM)
REFERENCE_S = 0.002
#: longest wall time a kernel sample stands for
INTERVAL_S = 0.05


def kernel(rounds: int = 1500) -> int:
    """Integer bit work, dict and list traffic and small tuples, as in the compiler."""
    state = 0x2545F4914F6CDD1D
    mask = (1 << 40) - 1
    table: dict = {}
    rows: list = []
    acc = 0
    for i in range(rounds):
        state = (state * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
        x, z = state & mask, (state >> 24) & mask
        key = (x & 0xFFF, z & 0xFFF)
        table[key] = table.get(key, 0) + 1
        acc ^= (x & z).bit_count() + len(rows)
        rows.append((x ^ acc, z | i))
        if len(rows) > 48:
            rows.sort()
            del rows[:24]
    return acc + len(table)


def at_reference(seconds: float, kernel_s: float) -> float:
    """``seconds`` measured beside a kernel sample of ``kernel_s``, at reference speed."""
    return seconds * REFERENCE_S / kernel_s


class HostClock:
    """The kernel samples of one run."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._taken = float("-inf")

    def sample(self) -> float:
        """Time the kernel once; returns its seconds."""
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.samples.append(end - start)
        self._taken = end
        return self.samples[-1]

    def current(self) -> float:
        """The latest kernel seconds, sampled anew if older than :data:`INTERVAL_S`."""
        if time.perf_counter() - self._taken >= INTERVAL_S:
            return self.sample()
        return self.samples[-1]

    @property
    def last(self) -> float:
        """The latest kernel seconds, without sampling (another thread may be timed)."""
        return self.samples[-1]

    def factor(self) -> float:
        """The run's median kernel time over the reference (1.0 = reference speed)."""
        return statistics.median(self.samples) / REFERENCE_S if self.samples else 1.0
