"""Machine-speed calibration for timings taken on a shared host.

On a host shared with other tenants the speed of one core swings by up to
half within seconds (measured on a 2-core x86-64 VM: a fixed pure-Python
loop took 19.5-31 ms from one 2 s window to the next), so raw wall times of
two runs of the same code differ by more than a useful regression bound.
Each timed operation is therefore bracketed by a short fixed calibration
run and reported at nominal speed:

    normalized = measured * NOMINAL_S / mean(calibration before, after)

The calibration runs on as many cores as the workload keeps busy (see
``Calibrator``).

A slowdown of the machine stretches the interval and the calibration alike
and cancels out; a slowdown of coopsim does not touch the calibration.
``NOMINAL_S`` is the loop's fast time on that host, so normalized seconds
are seconds on a core where the loop takes ``NOMINAL_S``. The raw figures
stay in the run record.

Stdlib only.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import random
import subprocess
import sys
from time import perf_counter

NOMINAL_S = 0.0068
_STEPS = 20_000
_PROBS = {0.0: 0.6, 1.0: 0.8}


class _Cell:
    __slots__ = ("index", "value")

    def __init__(self, index: int, value: float):
        self.index = index
        self.value = value


def calibration_seconds() -> float:
    """Time of a fixed loop shaped like a slot loop, the speed reference.

    Random draws, small-object allocation, dict lookups, float compares and
    list appends: a tight integer loop tracked the host's slowdowns of the
    simulator about half as well in a side-by-side test.
    """
    rng = random.Random(1)
    # A collection would scan the caller's heap, which a change to coopsim
    # may grow or shrink; the reference must not depend on it.
    gc.disable()
    try:
        start = perf_counter()
        acc = 0.0
        rows = []
        for i in range(_STEPS):
            cell = _Cell(i, rng.random())
            if cell.value < _PROBS[1.0 if i & 1 else 0.0]:
                acc += cell.value
            rows.append((i, acc))
        return perf_counter() - start
    finally:
        gc.enable()


class Calibrator:
    """The calibration loop on ``width`` cores at once.

    A pool of ``width`` processes that take tasks as they free up runs at the
    summed speed of its cores, which a loop on the measuring process's own
    core does not see: with a 2-process pool, normalizing by one core left
    the sweep's spread over 10 runs at 10 %, by both cores at 2-3 %. The
    loops run simultaneously,
    each pinned to its own core, and the reported time is the one at the
    cores' summed speed (the harmonic mean of their times). Helpers are
    spawned once and kept until ``close``.
    """

    def __init__(self, width: int):
        cpus = sorted(os.sched_getaffinity(0))
        self._cpu = cpus[0]
        self._conns = []
        self._procs = []
        ctx = multiprocessing.get_context("spawn")
        for cpu in cpus[1:width]:
            here, there = ctx.Pipe()
            proc = ctx.Process(target=_serve, args=(there, cpu), daemon=True)
            proc.start()
            self._conns.append(here)
            self._procs.append(proc)

    def seconds(self) -> float:
        if not self._conns:
            return calibration_seconds()
        allowed = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {self._cpu})
        try:
            for conn in self._conns:
                conn.send(True)
            times = [calibration_seconds()] + [conn.recv() for conn in self._conns]
            return len(times) / sum(1.0 / t for t in times)
        finally:
            os.sched_setaffinity(0, allowed)

    def close(self) -> None:
        for conn in self._conns:
            conn.send(False)
        for proc in self._procs:
            proc.join(timeout=30)
            if proc.is_alive():
                proc.kill()
                proc.join()


def _serve(conn, cpu: int) -> None:
    os.sched_setaffinity(0, {cpu})
    while conn.recv():
        conn.send(calibration_seconds())


def normalize(seconds: float, before: float, after: float, nominal: float = NOMINAL_S) -> float:
    return seconds * nominal / ((before + after) / 2)


# Set-up is process start-up and imports: file reads, page faults and
# dynamic loading, which the loop above does not track (normalizing by it
# left the spread of set-up times unchanged). Its reference is a fresh
# interpreter importing a fixed set of stdlib modules, several of them C
# extensions; that cut the spread of set-up medians between runs by half.
STARTUP_NOMINAL_S = 0.110
STARTUP_IMPORTS = (
    "import argparse, csv, dataclasses, decimal, email.parser, fractions, json, "
    "logging, xml.dom.minidom"
)


def startup_calibration_seconds() -> float:
    """Wall time of a fresh interpreter importing ``STARTUP_IMPORTS``."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", STARTUP_IMPORTS], check=True, timeout=60)
    return perf_counter() - start
