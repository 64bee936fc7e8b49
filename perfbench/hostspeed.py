"""Host-speed calibration, so timings compare across minutes on a shared host.

A virtual machine shared with other tenants runs the same Python code at
different speeds from one minute to the next (on the 2-vCPU host this
benchmark was built on, by up to 1.7x over a few minutes).  Raw wall
times then drift with the neighbours, not with the program.  The loop
below is a fixed, stdlib-only mix of the operations the simulator's hot
paths are made of (dict probes, attribute reads and writes on small
objects, method calls, short-lived tuples, integer arithmetic, random
accesses to a table larger than the caches).  Timing
it around each measurement gives the host's speed at that moment, and
:class:`Clock` rescales the measurement to what it would have taken at
the reference speed.  The loop does not touch the simulator,
so a change to the program moves the rescaled time exactly as much as the
raw one.
"""

from __future__ import annotations

import subprocess
import sys
import time
from array import array
from contextlib import contextmanager
from functools import cache
from pathlib import Path
from typing import Callable, Iterator, List, Tuple, TypeVar

T = TypeVar("T")

#: Seconds one :func:`calibration_loop` takes at the reference host speed
#: (about the fastest it ran on the 2-vCPU Xeon host the benchmark was
#: built on).  Only the scale of the reported times depends on it.
REFERENCE_LOOP_S = 0.025
_ITERATIONS = 30_000


class _Slot:
    __slots__ = ("tag", "stamp", "dirty")

    def __init__(self, tag: int) -> None:
        self.tag = tag
        self.stamp = 0
        self.dirty = False

    def touch(self, now: int, write: bool) -> int:
        self.stamp = now
        if write:
            self.dirty = True
        return self.tag & 7


#: A table larger than the host's caches, like the simulator's object
#: graph: one random read and write per iteration makes the loop feel
#: memory contention from neighbours as the simulator does.
_FAR_ENTRIES = 1 << 20


@cache
def _far_table() -> array:
    return array("q", bytes(8 * _FAR_ENTRIES))


def calibration_loop() -> int:
    """A fixed amount of interpreter work; returns a checksum."""
    far = _far_table()
    far_mask = _FAR_ENTRIES - 1
    table = {}
    ring = [_Slot(tag) for tag in range(64)]
    checksum = 0
    address = 12345
    for now in range(_ITERATIONS):
        address = (address * 1103515245 + 12345) & 0x7FFFFFFF
        line = address >> 6
        slot = table.get(line & 1023)
        if slot is None:
            slot = ring[now & 63]
            table[line & 1023] = slot
        checksum += slot.touch(now, now & 3 == 0) + far[address & far_mask]
        far[line & far_mask] = now
        pair = (line, now)
        if pair[0] & 1:
            checksum ^= pair[1]
    return checksum


def loop_seconds() -> float:
    """Duration of one calibration loop on the host as it is now."""
    start = time.perf_counter()
    calibration_loop()
    return time.perf_counter() - start


#: Seconds a helper may take to exit once told to stop.
_HELPER_EXIT_S = 5.0


def _helper_main() -> None:
    """Helper-process loop: one calibration loop per ``1`` line on stdin,
    its duration printed back; any other line or EOF ends it."""
    for line in sys.stdin:
        if line.strip() != "1":
            return
        print(repr(loop_seconds()), flush=True)


def _stop_helper(helper: subprocess.Popen) -> None:
    """Ask a helper to exit, kill it if it does not, and reap it.

    The stop line is sent explicitly rather than relying on EOF, because
    processes forked while the helper ran may still hold its stdin.
    """
    for step in (lambda: helper.stdin.write("0\n"), helper.stdin.close):
        try:
            step()
        except OSError:
            pass  # the helper has already exited
    try:
        helper.wait(timeout=_HELPER_EXIT_S)
    except subprocess.TimeoutExpired:
        helper.kill()
        helper.wait()
    helper.stdout.close()


class Clock:
    """Times work in reference-host seconds.

    Each measurement is bracketed by two calibration loops, and its raw
    duration is scaled by the reference loop time over their mean.
    Scaling each measurement by its own brackets follows the host's speed
    within a run; on the shared host this benchmark was built on it cut
    the spread of 30-second medians from about 0.22 to under 0.05.
    """

    def __init__(self) -> None:
        #: Reference seconds per raw second, one entry per measurement.
        self.factors: List[float] = []
        self._helpers: List[subprocess.Popen] = []

    @contextmanager
    def parallel(self, width: int) -> Iterator[None]:
        """Calibrate on ``width`` CPUs at once inside the block.

        Work that keeps several CPUs busy (the campaign's worker pool)
        slows with the load on all of them, so its calibration loops run
        concurrently here and in ``width - 1`` helper interpreters, which
        idle on a pipe in between.  The helpers are plain subprocesses,
        not ``multiprocessing`` ones, so no resource-tracker process is
        started that could outlive the run; every helper is reaped when
        the block ends, however it ends.
        """
        try:
            for _ in range(width - 1):
                self._helpers.append(subprocess.Popen(
                    [sys.executable, str(Path(__file__).resolve())],
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                    text=True, bufsize=1))
            yield
        finally:
            for helper in self._helpers:
                _stop_helper(helper)
            self._helpers = []

    def _loop_seconds(self) -> float:
        """One calibration loop, averaged over the calibrated CPUs."""
        for helper in self._helpers:
            helper.stdin.write("1\n")
            helper.stdin.flush()
        times = [loop_seconds()]
        times.extend(float(helper.stdout.readline())
                     for helper in self._helpers)
        return sum(times) / len(times)

    def time(self, function: Callable[[], T]) -> Tuple[T, float, float]:
        """``(result, reference seconds, factor)`` of ``function()``, where
        ``factor`` converts this measurement's raw seconds."""
        before = self._loop_seconds()
        start = time.perf_counter()
        result = function()
        elapsed = time.perf_counter() - start
        after = self._loop_seconds()
        factor = REFERENCE_LOOP_S * 2.0 / (before + after)
        self.factors.append(factor)
        return result, elapsed * factor, factor


if __name__ == "__main__":
    _helper_main()
