"""The host's speed, read off fixed pure-Python kernels during a run.

The benchmark runs on shared virtual machines whose speed drifts by up
to 2× over minutes, and within a 30-second run by about ±15%: every
timing of a run moves with it.  So the runner times reference kernels
at regular points of a run, and reports each timed sample scaled to a
reference speed: multiplied by the kernel's reference time over its
time at the calibrations just before and just after the sample.

The drift does not slow all work alike.  Work on small inputs, which
stay in the CPU's caches, slowed about as much as a small compute
kernel.  Work at full size (serve's 10⁵-row chain, design's
146-element Match) slowed less, and as much as a kernel that reads rows
scattered over a large table.  So the own phase's timings follow the
memory kernel, and the companions' timings the compute kernel.  Neither
kernel calls engine code, so a change to the engine cannot move them.
"""

from __future__ import annotations

import bisect
import statistics
import time

#: Kernel runs per calibration; the calibration is their median.
REPEATS = 9
TABLE_ROWS = 100_000


def compute_kernel() -> int:
    """Build 3,000 dict rows, group them in a hash index, sort the
    groups and join 300 rows: cache-resident row work."""
    rows = [{"k": i % 97, "v": i, "s": f"r{i}"} for i in range(3000)]
    index: dict[int, list] = {}
    for row in rows:
        index.setdefault(row["k"], []).append(row)
    groups = sorted((len(members), key) for key, members in index.items())
    joined = [(a["v"], b["s"]) for a in rows[:300] for b in index[a["k"]][:5]]
    return len(groups) + len(joined)


def memory_table() -> dict[int, dict]:
    """10⁵ dict rows, about 40 MB."""
    return {i: {"k": i, "v": (i * 7) % 1000, "s": f"s{i}"}
            for i in range(TABLE_ROWS)}


def memory_kernel(table: dict[int, dict]) -> int:
    """Read 5,000 rows scattered over a table of 10⁵ dict rows: row work
    whose data misses the caches."""
    picked = []
    for i in range(5000):
        row = table[(i * 7919) % TABLE_ROWS]
        if row["v"] < 500:
            picked.append((row["k"], row["s"]))
    return len(picked)


#: Each kernel's time on the host the benchmark was tuned on, at that
#: host's usual speed, so that scaled times read close to wall times
#: there.
REFERENCE_MS = {"compute": 2.5, "memory": 6.0}
OWN_KERNEL, COMPANION_KERNEL = "memory", "compute"


class HostSpeed:
    """The calibrations of one run: when each was taken, and each
    kernel's time in milliseconds."""

    def __init__(self) -> None:
        table = memory_table()
        self.kernels = {"compute": compute_kernel,
                        "memory": lambda: memory_kernel(table)}
        self.times: list[float] = []
        self.kernel_ms: dict[str, list[float]] = {
            name: [] for name in REFERENCE_MS}

    def calibrate(self) -> None:
        for name, measured in self.kernel_ms.items():
            kernel = self.kernels[name]
            runs = []
            for _ in range(REPEATS):
                start = time.perf_counter()
                kernel()
                runs.append((time.perf_counter() - start) * 1000.0)
            measured.append(statistics.median(runs))
        self.times.append(time.perf_counter())

    def factor(self, kernel: str, at: float) -> float:
        """The kernel's reference time over its mean time at the
        calibrations just before and just after the moment ``at``."""
        index = bisect.bisect_left(self.times, at)
        around = self.kernel_ms[kernel][max(index - 1, 0):index + 1]
        return REFERENCE_MS[kernel] / statistics.fmean(around)

    def scale(self, values: list[float], marks: list[tuple]) -> list[float]:
        """Each value scaled by its mark: (when it was taken, kernel)."""
        return [value * self.factor(kernel, at)
                for value, (at, kernel) in zip(values, marks)]
