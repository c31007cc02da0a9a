"""A fixed probe that reads how fast the shared host runs right now.

The benchmark's host shares its cores with other machines, and its speed
changes in phases of seconds to minutes: a whole run can be 40 % slower
than the next, and every op in it slows alike.  ``run.py`` times this
probe before every op and reports op times as multiples of the run's
mean probe time, which cancels most of that shared slowdown.

The probe is the benchmark's own code and calls nothing in wiretapkit,
so a change to the program cannot move it.  Its two loops resemble what
the ops spend their time on: a depth-first GF(2) rank tally over Python
integers (the pure-Python kernels) and small numpy array arithmetic
(grids and codebooks).  Together they take about 10 ms.
"""

from __future__ import annotations

import time

import numpy as np

# Thirteen fixed 13-bit columns: the tally visits 2^13 subsets.
MASKS = (0x9A5, 0x3C1, 0x6F2, 0xB18, 0x4D7, 0x2E9, 0x71C, 0xC36, 0x58B, 0x1F4, 0xA6E, 0x1D3B, 0x0EC5)


def _rank_tally() -> list[int]:
    n = len(MASKS)
    basis: dict[int, int] = {}
    tally = [0] * (n + 1)

    def dfs(i: int, rank: int) -> None:
        if i == n:
            tally[rank] += 1
            return
        dfs(i + 1, rank)
        v = MASKS[i]
        p = -1
        while v:
            p = v.bit_length() - 1
            if p in basis:
                v ^= basis[p]
            else:
                break
        if v:
            basis[p] = v
            dfs(i + 1, rank + 1)
            del basis[p]
        else:
            dfs(i + 1, rank)

    dfs(0, 0)
    return tally


def _array_mix() -> int:
    s = 0
    for i in range(10000):
        s += i * i % 7
    a = np.arange(50000, dtype=np.int64)
    for _ in range(10):
        a = (a * 3 + 1) % 1009
    return s + int(a[-1])


def probe() -> float:
    """Seconds the two probe loops take now."""
    t0 = time.perf_counter()
    _rank_tally()
    _array_mix()
    return time.perf_counter() - t0
