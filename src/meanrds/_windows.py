"""Shared window machinery for the mean estimators and densities.

Window sums use a pairwise-doubling tree rather than numpy's built-in
accumulation: adding two equal floats is exact, so a window of 2^k identical
values sums to exactly 2^k times the value, and dividing by a power of two is
exact again. Constant separation profiles (isometric fibers) therefore
produce window means that equal the pointwise value bitwise, which several
equality tests rely on. Float addition is monotone, so pointwise-dominated
value arrays keep dominated window sums, bitwise, under the same tree.

Every scan reads its profile once, over one box of group elements. On the
line Z, where the box is a range, the tree is evaluated once per profile as
a dyadic table, S_2k[i] = S_k[i] + S_k[i+k], which holds every power-of-two
window sum at every start with the same additions, and therefore the same
bits, as the tree on each window (:func:`line_window_means`). On any other
group each translated window is taken from the box in row-major order and
summed by :func:`tree_mean_rows`.

Schedules are powers of two up to the element cap, plus the largest window
that still fits when the cap is not itself a power of two.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .groups import FolnerFamily


def window_schedule(folner: FolnerFamily, max_elements: int) -> tuple[int, ...]:
    """Window indices whose element count stays within max_elements."""
    if max_elements < 1:
        raise ValueError("max_elements must be positive")
    if folner.window_size(1) > max_elements:
        raise ValueError("even the first window exceeds max_elements")
    sched = []
    n = 1
    while folner.window_size(n) <= max_elements:
        sched.append(n)
        n *= 2
    # largest index that still fits (the cap itself on the line Z): window
    # sizes do not decrease and 2 * top is over the cap, so bisect for it,
    # after one probe that settles the common power-of-two cap
    fits = sched[-1]
    over = fits + 1 if folner.window_size(fits + 1) > max_elements else 2 * fits
    while over - fits > 1:
        mid = (fits + over) // 2
        if folner.window_size(mid) <= max_elements:
            fits = mid
        else:
            over = mid
    if fits != sched[-1]:
        sched.append(fits)
    return tuple(sched)


def tail_count(length: int, tail_fraction: float) -> int:
    if not 0 < tail_fraction <= 1:
        raise ValueError("tail_fraction must be in (0, 1]")
    return max(1, math.ceil(tail_fraction * length))


def tail_indices(schedule, tail_fraction: float) -> tuple[int, ...]:
    k = tail_count(len(schedule), tail_fraction)
    return tuple(range(len(schedule) - k, len(schedule)))


def tree_sum_rows(arr: np.ndarray) -> np.ndarray:
    """Rowwise sums by pairwise doubling; odd leftovers are peeled and added
    back at the end (only non-power-of-two widths have any)."""
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[None, :]
    carries = []
    while arr.shape[1] > 1:
        if arr.shape[1] % 2:
            carries.append(arr[:, -1].copy())
            arr = arr[:, :-1]
        arr = arr[:, 0::2] + arr[:, 1::2]
    total = arr[:, 0].copy()
    for c in carries:
        total += c
    return total


def tree_mean_rows(arr: np.ndarray) -> np.ndarray:
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[None, :]
    return tree_sum_rows(arr) / arr.shape[1]


def translated_means_line(values: np.ndarray, lo: int, offsets, m: int) -> np.ndarray:
    """Means over the windows [g, g+m) for each g in offsets.

    ``values`` holds the profile at times lo, lo+1, ...; every requested
    window must lie inside it.
    """
    if m < 1:
        raise ValueError("window length must be positive")
    offs = np.asarray(list(offsets), dtype=np.int64) - lo
    if offs.size == 0:
        raise ValueError("need at least one offset")
    if offs.min() < 0 or offs.max() + m > values.shape[0]:
        raise ValueError("window out of the computed range")
    rows = sliding_window_view(values, m)[offs]
    return tree_mean_rows(rows)


def line_window_means(values: np.ndarray, lo: int, offsets, schedule):
    """Yield (m, means over the windows [g, g+m) for each g in offsets) for
    each m of an increasing schedule.

    Power-of-two widths come from one dyadic table, S_2k[i] = S_k[i] +
    S_k[i+k] over every start i, built level by level as the schedule climbs.
    These are the additions :func:`tree_sum_rows` makes on each window, so
    the means are bitwise equal to :func:`translated_means_line`; any other
    width goes through that function.
    """
    values = np.asarray(values, dtype=np.float64)
    offs = np.asarray(list(offsets), dtype=np.int64) - lo
    if offs.size == 0:
        raise ValueError("need at least one offset")
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("schedule must be increasing")
    if offs.min() < 0 or offs.max() + schedule[-1] > values.shape[0]:
        raise ValueError("window out of the computed range")
    level, k = values, 1
    for m in schedule:
        if m & (m - 1):
            yield m, translated_means_line(values, lo, offsets, m)
            continue
        while k < m:
            level = level[:-k] + level[k:]
            k *= 2
        yield m, level[offs] / m


def mean_line(values: np.ndarray, lo: int, start: int, m: int) -> float:
    """Mean over the single window [start, start+m)."""
    a = start - lo
    if a < 0 or a + m > values.shape[0]:
        raise ValueError("window out of the computed range")
    return float(tree_mean_rows(values[a:a + m])[0])
