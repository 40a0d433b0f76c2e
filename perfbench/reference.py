"""A fixed reference computation that measures how fast the machine runs now.

Shared virtual machines change speed by up to 2x over seconds to minutes
when neighbours load the host, and single-threaded CPU time slows by the
same factor, so it is no way out. The benchmark therefore times this kernel
between commands and reports command time in units of it.

The kernel imitates the kinds of work meanrds does, because contention
slows them unequally: a tight float loop (the difference-vector walk) slows
least, interpreter-heavy code with calls, dict memos and JSON formatting
slows most, and numpy window sums lie between. Measured over 210 s of heavy
contention, dividing by this mix cut the spread of 30 s medians of
``estimate`` and ``classify`` command times from 35-51% to 2-5%. A kernel of
only the float loop and small numpy sums left 15-17%. The kernel shares no
code with meanrds, so a change to the program cannot change it.
"""

from __future__ import annotations

import json
import time

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

_LINE = np.random.default_rng(1).random(4096 + 256)
_OFFSETS = np.arange(0, 129 * 8, 8)
_ROWS = np.random.default_rng(0).random((64, 512))
_DOC = {
    "pairs": [
        {"x": [0.1 * i, 0.2],
         "estimates": {f"k{j}": {"value": j / 7, "schedule": list(range(12))} for j in range(8)}}
        for i in range(6)
    ]
}


class _Memo:
    __slots__ = ("x", "memo")

    def __init__(self):
        self.x = (0.1, 0.2)
        self.memo = {}

    def step(self, k):
        key = (k % 97, k % 13)
        hit = self.memo.get(key)
        if hit is None:
            hit = self.memo[key] = (self.x[0] * k % 1.0, self.x[1] + k)
        return hit


def _pairwise(arr):
    while arr.shape[1] > 1:
        arr = arr[:, 0::2] + arr[:, 1::2]
    return arr


def _kernel() -> float:
    a, b = 0.1234, 0.5678
    for _ in range(6000):
        a, b = (2 * a + b) % 1.0, (a + b) % 1.0
    memo = _Memo()
    for k in range(5000):
        a += memo.step(k)[0]
    for _ in range(6):
        a += len(json.loads(json.dumps(_DOC, sort_keys=True, indent=2)))
        a += float(_pairwise(sliding_window_view(_LINE, 256)[_OFFSETS]).max())
        a += float(_pairwise(_ROWS)[0, 0])
    return a


def reference_seconds() -> float:
    """Wall time of one run of the reference kernel."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0
