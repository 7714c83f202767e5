"""Machine-speed reference for the end-to-end times.

The CPU this benchmark runs on speeds up and slows down by up to +-30% for
seconds to minutes at a time (other tenants of a shared host), and a run
lands in one such phase.  A helper interpreter, started once per run and
idle otherwise, times a fixed piece of work of the solver's kind -- small
numpy vectors, Python floats, dicts, sorting -- on request, while the
benchmark waits for it.  The helper never imports branchflow and its heap is
never touched by the program, so nothing a change to the program does can
move the reference.  A run's times are scaled by `NOMINAL_S / reference`,
with the reference the mean of the samples taken through the run.

    python3 perfbench/pb_speed.py    # serve: one timing per line read
"""
from __future__ import annotations

import gc
import math
import os
import subprocess
import sys
from time import perf_counter

import numpy as np

# Reference time the scaled figures are expressed at: about what the kernel
# takes on the 2-core Xeon the benchmark was defined on, so scaled times
# read close to real ones there.
NOMINAL_S = 0.015
_REPS = 250
_POINTS = np.random.Generator(np.random.PCG64(12345)).uniform(size=(64, 3))


def _kernel() -> float:
    pts = _POINTS
    acc = 0.0
    for r in range(_REPS):
        lengths = {}
        for i in range(0, 64, 4):
            v = pts[(i * 7 + r) % 64] - pts[i]
            length = float(np.sqrt(v @ v))
            lengths[i] = length ** 0.75 * (1.0 + math.cos(length))
        acc += sum(sorted(lengths.values())[:8])
    return acc


def reference_s() -> float:
    """Seconds the reference work takes now, garbage collector off."""
    gc.disable()
    try:
        t0 = perf_counter()
        _kernel()
        return perf_counter() - t0
    finally:
        gc.enable()


class Reference:
    """The helper interpreter; use as a context manager so it always ends."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._proc = subprocess.Popen([sys.executable, os.path.abspath(__file__)], stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE, text=True)

    def sample(self) -> float:
        """Time the reference work once in the helper; also kept in `samples`."""
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("speed reference helper ended")
        self.samples.append(float(line))
        return self.samples[-1]

    def scale(self, seconds: float, reference: float) -> float:
        """`seconds` at nominal speed, given the reference time they ran at."""
        return seconds * NOMINAL_S / reference

    def __enter__(self) -> Reference:
        return self

    def __exit__(self, *exc) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


def _serve() -> None:
    reference_s()  # warm-up
    for _ in sys.stdin:
        print(repr(reference_s()), flush=True)


if __name__ == "__main__":
    _serve()
