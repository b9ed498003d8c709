"""A fixed computation that times the machine, not starrep.

The machine the benchmark runs on is shared, and its speed changes by up to
2x from one run to the next. The runner therefore times this computation
between operations, in the same run, and reports the operations' times as
multiples of its time. starrep never runs here, so a change to starrep moves
only the operations' side of the ratio.

``in_process`` is small complex numpy work driven from Python (plane
rotations on a 12x12 matrix, about 1.6 ms), the kind of work starrep's own
operations do. ``child_process`` runs the same work in a fresh interpreter,
timed from start to exit as the cli workload times its commands, so it also
pays interpreter start and the numpy import.

    python3 bench/reference.py        # one in_process run; what child_process starts
"""

from __future__ import annotations

import subprocess
import sys
import time
from pathlib import Path

import numpy as np

_N = 12
_BASE = np.array([[np.cos(1.3 * i + 0.7 * j) + 1j * np.sin(0.11 * i * j) for j in range(_N)]
                  for i in range(_N)])
_BASE = _BASE + _BASE.conj().T
_C, _S = 0.8, 0.6


def work() -> float:
    """Two sweeps of fixed plane rotations over every pair of columns and rows."""
    a = _BASE.copy()
    for _ in range(2):
        for p in range(_N - 1):
            for q in range(p + 1, _N):
                col_p, col_q = a[:, p].copy(), a[:, q].copy()
                a[:, p] = _C * col_p - _S * col_q
                a[:, q] = _S * col_p + _C * col_q
                row_p, row_q = a[p, :].copy(), a[q, :].copy()
                a[p, :] = _C * row_p - _S * row_q
                a[q, :] = _S * row_p + _C * row_q
    return float(np.linalg.norm(a))


_NORM = work()  # rotations keep the Frobenius norm; every run must give it back


def in_process() -> float:
    """Seconds for one run of ``work`` in this process."""
    t0 = time.perf_counter()
    norm = work()
    seconds = time.perf_counter() - t0
    if abs(norm - _NORM) > 1e-9 * _NORM:
        raise RuntimeError(f"reference work gave norm {norm}, not {_NORM}")
    return seconds


def child_process() -> float:
    """Seconds for a fresh interpreter that imports numpy and runs ``in_process``."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, str(Path(__file__).resolve())], check=True,
                   capture_output=True, timeout=60)
    return time.perf_counter() - t0


if __name__ == "__main__":
    print(in_process())
