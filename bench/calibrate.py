"""Machine-speed calibration for the timings.

The shared machines this benchmark runs on change speed by up to a factor
of two, also in process CPU time, in spells that last from tens of
milliseconds to minutes; that drift dominates run-to-run spread.  So a
fixed kernel runs between every two operations, outside their timed
regions, and each operation's time is scaled by
reference / (mean of the kernel times just before and just after it).
Times then read as on a machine where the kernel takes its reference time.

A kernel is benchmark code only, so a change to the program never moves it.
Each workload has its own kernel that does the same kind of work as the
workload's hot path (a Python loop filling small complex matrices; CSV line
parsing; float formatting and JSON), because different kinds of code slow
down by different amounts when the machine is contended.

Imports run in fresh interpreters, which may land on another core, so they
are scaled by CHILD_KERNEL, which each such interpreter runs just before
and just after its import.
"""

from __future__ import annotations

import json
import math
from time import perf_counter

import numpy as np

_M = 12
_EIGVALSH = np.linalg.eigvalsh  # bound now, so a traced run does not span the kernel
_LINES = [f"{340.0 + 0.26 * i!r},{math.exp(-i / 900.0)!r}" for i in range(3000)]
_GRID = 400.0 + np.arange(401.0)
_CURVES = [10.0 + 3.0 * np.cos(_GRID / (40.0 + i)) for i in range(6)]


def _matrix_kernel() -> float:
    """Fill small Hermitian Toeplitz matrices element by element, check their
    diagonals and take the smallest eigenvalue, as the usd path does."""
    acc = 0.0
    for r in range(26):
        phases = np.arange(_M) * (0.37 + 0.01 * r) * np.pi / 6
        upper = np.exp(1.1 * (np.exp(1j * phases) - 1.0))
        e = np.empty((_M, _M), dtype=complex)
        for j in range(_M):
            for k in range(_M):
                d = k - j
                e[j, k] = upper[d] if d >= 0 else upper[-d].conjugate()
        for off in range(-_M + 1, _M):
            diag = np.diagonal(e, off)
            acc += float(np.max(np.abs(diag - diag[0])))
        acc += float(_EIGVALSH(e)[0])
    return acc


def _csv_kernel() -> float:
    """Parse wavelength,value lines into arrays, resample and format rows, as
    the losses path does."""
    rows = []
    for raw in _LINES:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        rows.append((float(parts[0]), float(parts[1])))
    rows.sort(key=lambda r: r[0])
    w = np.array([r[0] for r in rows])
    v = np.array([r[1] for r in rows])
    out = np.interp(_GRID, w, v)
    text = "\n".join(f"{float(a)!r},{float(b)!r},0" for a, b in zip(_GRID, out))
    return float(out.sum()) + len(text)


def _report_kernel() -> float:
    """Envelope-style array work, exact column sums, float lists through
    json.dumps and CSV text, as the chain path does."""
    stack = np.vstack(_CURVES)
    lo = stack[np.argmin(stack, axis=0), np.arange(_GRID.size)]
    sums = [math.fsum(col) for col in zip(*_CURVES)]
    doc = {"p": [float(x) for x in 40.0 - lo], "q": sums, "f": [bool(x > 11) for x in lo]}
    text = json.dumps(doc, indent=2, sort_keys=True)
    csv = "\n".join(",".join(str(c) for c in row) for row in zip(_GRID, lo, sums))
    return len(text) + len(csv)


def to_reference(reference_s: float, before: float, after: float) -> float:
    """Factor that brings a time measured between two kernel runs, taking
    `before` and `after` seconds, to reference speed."""
    return 2.0 * reference_s / (before + after)


# Source of kernel() for a fresh interpreter to run around its import, and
# that kernel's reference time.  It does an import's own work without
# importing anything: it unmarshals and executes the code of a module of
# functions, classes and constants.  On a 2-vCPU Xeon, import time over this
# kernel's time varied by 6% (interquartile range over 70 interpreters); over
# a pure-Python float loop, by 15%.
CHILD_KERNEL = r"""
import gc, marshal, sys, time
_SOURCE = "".join(
    f"def f{i}(a, b={i}, *c, **d):\n    return (a, b, c, d)\n"
    f"class C{i}:\n    x = {i}\n    y = ('a{i}', {i}.5, None)\n"
    f"    def m(self, z=None):\n        return self.x\n"
    f"T{i} = {{'k{i}': [{i}, {i} + 1], 'v': ({i}, 'x')}}\n"
    for i in range(150))
_CODE = marshal.dumps(compile(_SOURCE, "<kernel>", "exec"))
def kernel():
    start = time.perf_counter()
    for _ in range(4):
        exec(marshal.loads(_CODE), {"__name__": "kernel"})
    seconds = time.perf_counter() - start
    gc.collect()
    return seconds
"""
CHILD_KERNEL_REFERENCE_S = 0.007

# workload -> (kernel, reference seconds: about its time on an idle machine)
KERNELS = {
    "usd-sweep": (_matrix_kernel, 0.008),
    "chain-audit": (_report_kernel, 0.003),
    "losses-ingest": (_csv_kernel, 0.004),
}


class Calibration:
    def __init__(self, workload: str):
        self.kernel, self.reference_s = KERNELS[workload]

    def sample(self) -> float:
        """Seconds one run of the kernel takes now."""
        start = perf_counter()
        self.kernel()
        return perf_counter() - start

    def to_reference(self, before: float, after: float) -> float:
        return to_reference(self.reference_s, before, after)
