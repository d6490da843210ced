"""Machine-speed probes, so that timed operations can be scaled to one speed.

On a shared machine the speed this process gets drifts, by up to 2x, in
phases that last from half a second to more than a whole run.  Its CPU time
drifts with its wall time, so the work runs slower rather than waits.  A
fixed reference task, timed between a workload's operations, tells how fast
the machine ran them, provided the task slows as the workload does: an
interpreter loop with JSON parsing tracks the Python and numpy workloads,
and compiling and running a small C file tracks the native backend.

`Stopwatch` times a pass as chunks of operations with a probe before and
after each chunk.  A chunk's scaled time is its raw time divided by the
slowdown around it: the mean of its two probe times over the probe's
`reference_s`.  Raw times are kept beside the scaled ones.  `split_at`
also ends chunks inside a long operation, at calls the operation makes.
"""

from __future__ import annotations

import json
import os
import subprocess
import time

from tracing import swapped

REPEATS = 3


class Probe:
    """A fixed reference task; calling the probe gives its median time."""

    reference_s = 1.0    # the task's time at the speed scaled times refer to

    def task(self) -> None:
        raise NotImplementedError

    def __call__(self) -> float:
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            self.task()
            times.append(time.perf_counter() - t0)
        return sorted(times)[REPEATS // 2]


class PythonProbe(Probe):
    """An interpreter loop and JSON parsing, about half the time each."""

    # Fastest time on one vCPU of a 2-vCPU Intel Xeon VM, Python 3.11.
    reference_s = 0.0032
    _BLOB = json.dumps([[i * 0.5, i, [i * 0.25, -i]] for i in range(3000)])

    def task(self) -> None:
        s = 0
        for i in range(30_000):
            s += i * i % 7
        json.loads(self._BLOB)


class CompilerProbe(Probe):
    """Compile a small C file with the native backend's toolchain and flags,
    then run it: the steps that take nearly all of a native measurement."""

    # Fastest time on one vCPU of a 2-vCPU Intel Xeon VM, gcc 12.2 at -O1.
    reference_s = 0.030
    SOURCE = ("int main(void) {\n  volatile double s = 0;\n"
              "  for (int i = 0; i < 1000; i++) s += i * 0.5;\n  return 0;\n}\n")

    def __init__(self, cc: str, flags, work_dir: str):
        os.makedirs(work_dir, exist_ok=True)
        self.src = os.path.join(work_dir, "probe.c")
        self.exe = os.path.join(work_dir, "probe")
        with open(self.src, "w") as fh:
            fh.write(self.SOURCE)
        self.compile = [cc, *flags, self.src, "-o", self.exe]

    def task(self) -> None:
        subprocess.run(self.compile, check=True, capture_output=True, timeout=60)
        subprocess.run([self.exe], check=True, timeout=60)


class Stopwatch:
    """Raw and scaled seconds of a sequence of chunks of operations.

    With no probe (the traced passes) only raw time is kept."""

    def __init__(self, probe: Probe | None):
        self.probe = probe
        self.raw_s = 0.0
        self.scaled_s = 0.0
        self.slowdowns: list[float] = []
        self._last = probe() if probe else 0.0
        self._t0 = time.perf_counter()

    def split(self) -> float:
        """End the current chunk and start the next; returns the chunk's
        slowdown (1.0 without a probe), by which to divide its times."""
        raw = time.perf_counter() - self._t0
        slowdown = 1.0
        if self.probe:
            now = self.probe()
            slowdown = (self._last + now) / (2 * self.probe.reference_s)
            self.slowdowns.append(slowdown)
            self._last = now
        self.raw_s += raw
        self.scaled_s += raw / slowdown
        self._t0 = time.perf_counter()
        return slowdown

    def split_if_older(self, seconds: float) -> None:
        if time.perf_counter() - self._t0 >= seconds:
            self.split()


def split_at(watch: Stopwatch, points, every_s: float = 0.25):
    """Within the block, a call to any `(owner, attr)` in `points` first
    ends the current chunk if it is `every_s` old, so that a phase change
    inside a long operation is seen."""
    def wrap(fn):
        def probed(*args, **kwargs):
            watch.split_if_older(every_s)
            return fn(*args, **kwargs)
        return probed

    return swapped([(owner, attr, wrap) for owner, attr in points])
