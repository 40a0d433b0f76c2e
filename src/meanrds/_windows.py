"""Shared window machinery for the mean estimators and densities.

Window sums use a pairwise-doubling tree rather than numpy's built-in
accumulation: adding two equal floats is exact, so a window of 2^k identical
values sums to exactly 2^k times the value, and dividing by a power of two is
exact again. Constant separation profiles (isometric fibers) therefore
produce window means that equal the pointwise value bitwise, which several
equality tests rely on. Float addition is monotone, so pointwise-dominated
value arrays keep dominated window sums, bitwise, under the same tree. A sum
that overflows is +-inf, the value the estimates then report; numpy is told
not to warn about it, nor about the NaN of a sum that adds +inf to -inf,
which the scans raise on.

Every scan reads its profile once, over one box of group elements, and takes
every window out of that box with :func:`window_means`, on Z and on every
other group alike. On a row-major window whose widths are all powers of two,
the tree first doubles along the last axis, then along each earlier axis in
turn. One separable dyadic table makes the same additions: the last axis's
levels S_2k[..., i] = S_k[..., i] + S_k[..., i+k] grow as the schedule
climbs, and each window doubles the earlier axes from them. The table holds
every such window sum at every start, with the bits of the tree on each
window. A first width W that is not a power of two (a bisected schedule top
on Z, or on the Z axis of Z x C2 and Z x C4) is read from the same table:
the tree on W rows peels the last block of each level with an odd number of
blocks, so its sum is the entry for the top bit of W plus, for each lower
set bit, ascending, the entry of that level at the peeled block. Later
widths B of a size L that is not a power of two (a C3 axis, or the bisected
top of Z^a for a >= 2) are read on Z: box[:, t:t+B] flattened row-major holds
the window of first width W at (s, t) in the tree's order, W * L from s * L.

Schedules are powers of two up to the element cap, plus the largest window
that still fits when the cap is not itself a power of two.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .groups import FolnerFamily, GroupSpecError


def window_schedule(folner: FolnerFamily, max_elements: int) -> tuple[int, ...]:
    """Window indices whose element count stays within max_elements.

    A group with no free factor is finite: its windows stop growing, so it
    has no schedule and raises :class:`GroupSpecError`."""
    if max_elements < 1:
        raise ValueError("max_elements must be positive")
    if folner.group.free_rank == 0:
        raise GroupSpecError(f"group {folner.group.spec} has no free factor, "
                             "so its windows never grow")
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


def tail_indices(schedule, tail_fraction: float) -> tuple[int, ...]:
    if not 0 < tail_fraction <= 1:
        raise ValueError("tail_fraction must be in (0, 1]")
    k = max(1, math.ceil(tail_fraction * len(schedule)))
    return tuple(range(len(schedule) - k, len(schedule)))


def tree_sum_rows(arr: np.ndarray) -> np.ndarray:
    """Rowwise sums by pairwise doubling; odd leftovers are peeled and added
    back at the end (only non-power-of-two widths have any)."""
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[None, :]
    carries = []
    with np.errstate(over="ignore"):  # an overflow is +-inf (module docstring)
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
    return tree_sum_rows(arr) / np.shape(arr)[-1]


def constant_mean_rows(c: np.ndarray, size: int) -> np.ndarray:
    """For each entry c, the :func:`tree_mean_rows` of a row of ``size``
    copies of c, in O(log size) steps: every level of the tree holds one
    value, so each level is one doubling, and each peeled leftover is that
    level's value. These are the bits :func:`window_means` gives on a
    constant box; on a power-of-two size the sum is c * size (or +-inf)."""
    level, width, carries = np.asarray(c, dtype=np.float64), size, []
    with np.errstate(over="ignore"):  # an overflow is +-inf (module docstring)
        while width > 1:
            if width % 2:
                carries.append(level)
                width -= 1
            level, width = level + level, width // 2
        for carry in carries:
            level = level + carry
    return level / size


def window_means(box: np.ndarray, starts, windows) -> list[np.ndarray]:
    """For each window shape of ``windows``, the means of ``box`` over the
    windows of that shape at the starts, in order.

    ``starts`` holds one index array per axis. Every window must lie inside
    the box (pad cyclic axes by wrap beforehand), else ValueError. A window
    whose widths after the first are powers of two is read from the dyadic
    table (module docstring), whose last-axis levels grow as the windows
    widen; its last-axis level may not fall below an earlier one's. A first
    width W that is not a power of two is summed as :func:`tree_sum_rows`
    sums a row of W blocks: the table's entry for the top bit of W, then the
    carry of each lower set bit 2^b, ascending, read from level 2^b at
    offset ((W >> b) - 1) << b while the doubling passes that level. Later
    widths of a size that is not a power of two are read last, as runs on
    Z (module docstring) of the blocks at their trailing starts laid end to
    end, about a box of them at a time. The means come as one list,
    so that numpy's error state is set once per call.
    """
    starts = tuple(starts)
    for s, w, n in zip(starts, map(max, zip(*windows)), box.shape):
        if s.min() < 0 or s.max() + w > n:
            raise ValueError("window out of the box")
    carries = {}  # window -> the carries of its first width, in the tree's order
    pending = {}  # width of a level -> (window, offset) of each carry read there

    def peel(i, width):
        for b in range((width & (width - 1)).bit_length()):  # the set bits below the top one
            if width >> b & 1:
                pending.setdefault(1 << b, []).append((i, ((width >> b) - 1) << b))

    def read(level, k):
        # the carries pending at width k, at the starts moved along axis 0
        for i, off in pending.pop(k, ()):
            carries.setdefault(i, []).append(level[(starts[0] + off,) + starts[1:]])

    earlier = range(box.ndim - 2, -1, -1)
    if not earlier:  # on Z axis 0 is the last axis, whose levels every window shares
        for i, (width,) in enumerate(windows):
            if width & (width - 1):
                peel(i, width)
    last, k = box, 1
    out = [None] * len(windows)
    runs = {}  # later widths whose product is not a power of two -> their windows
    # an overflow is +-inf, and +inf plus -inf is NaN, which the scans raise on
    with np.errstate(over="ignore", invalid="ignore"):
        for i, win in enumerate(windows):
            size = math.prod(win)
            later = size // win[0]  # a power of two when every later width is one
            if later & (later - 1):
                runs.setdefault(win[1:], []).append(i)
                continue
            while 2 * k <= win[-1]:
                if k in pending:
                    read(last, k)
                last = last[..., :-k] + last[..., k:]
                k *= 2
            if k > win[-1]:
                raise ValueError("window widths must not shrink along the last axis")
            table = last
            for axis in earlier:
                if axis == 0:
                    peel(i, win[0])
                head = (slice(None),) * axis
                j = 1
                while 2 * j <= win[axis]:
                    if j in pending:
                        read(table, j)
                    table = table[head + (slice(None, -j),)] + table[head + (slice(j, None),)]
                    j *= 2
            total = table[starts]
            for carry in carries.pop(i, ()):
                total += carry
            out[i] = total / size
    for trailing, idx in runs.items():  # runs of the flattened trailing blocks
        idx.sort(key=lambda i: windows[i][0])  # first widths may not shrink on Z
        last = table = None  # free the levels first
        size, tail = math.prod(trailing), tuple(n - w + 1 for n, w in zip(box.shape[1:], trailing))
        used, col = np.unique(np.ravel_multi_index(starts[1:], tail), return_inverse=True)
        # blocks[t, i, b] = box[i, t + b]: a chunk of t copies out as blocks end to end
        blocks = as_strided(box, tail + box.shape[:1] + trailing,
                            box.strides[1:] + box.strides[:1] + box.strides[1:], writeable=False)
        # ceil(all blocks / box) chunks of equally many blocks: about a box each
        step = math.ceil(len(used) / math.ceil(len(used) * box.shape[0] * size / box.size))
        for i in idx:
            out[i] = np.empty(len(col))
        for a in range(0, len(used), step):
            at = np.flatnonzero((col >= a) & (col < a + step))
            line = blocks[np.unravel_index(used[a:a + step], tail)].ravel()
            for i, means in zip(idx, window_means(
                    line, (((col[at] - a) * box.shape[0] + starts[0][at]) * size,),
                    [(windows[j][0] * size,) for j in idx])):
                out[i][at] = means
    return out
