"""Finitely generated amenable groups of the form Z^a x C_{k_1} x ... x C_{k_b}.

Elements are integer tuples of length ``free_rank + len(cyclic_orders)``;
free coordinates are unconstrained, cyclic coordinates live in ``[0, k_i)``.
Folner windows are the boxes ``[0, n)^a x prod_i [0, min(n, k_i))``, which
exhaust the group and have boundary-to-volume ratio 2/n in each free
direction.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np


class GroupSpecError(ValueError):
    """Raised when a group description or element is malformed."""


class BudgetError(RuntimeError):
    """Raised when a scan's box or a ball would exceed the element budget."""


_FREE_RE = re.compile(r"^Z(?:\^(\d+))?$")
_CYCLIC_RE = re.compile(r"^C(\d+)$")

MAX_FREE_RANK = 3
DEFAULT_ELEMENT_BUDGET = 2_000_000


@dataclass(frozen=True)
class AmenableGroup:
    """Direct product of a free abelian part and finite cyclic factors."""

    free_rank: int
    cyclic_orders: tuple[int, ...] = ()

    def __post_init__(self):
        if self.free_rank < 0 or self.free_rank > MAX_FREE_RANK:
            raise GroupSpecError(
                f"free rank must be between 0 and {MAX_FREE_RANK}, got {self.free_rank}"
            )
        for k in self.cyclic_orders:
            if k < 2:
                raise GroupSpecError(f"cyclic order must be at least 2, got {k}")
        if self.rank == 0:
            raise GroupSpecError("group needs at least one factor")

    @property
    def rank(self) -> int:
        return self.free_rank + len(self.cyclic_orders)

    @property
    def spec(self) -> str:
        """Canonical text form, e.g. ``Z^2 x C3``."""
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"C{k}" for k in self.cyclic_orders)
        return " x ".join(parts)

    def identity(self) -> tuple[int, ...]:
        return (0,) * self.rank

    def check_element(self, g) -> tuple[int, ...]:
        g = tuple(int(v) for v in g)
        if len(g) != self.rank:
            raise GroupSpecError(f"element {g} has wrong rank for {self.spec}")
        for i, k in enumerate(self.cyclic_orders):
            v = g[self.free_rank + i]
            if not 0 <= v < k:
                raise GroupSpecError(f"cyclic coordinate {v} out of range [0, {k})")
        return g

    def multiply(self, a, b) -> tuple[int, ...]:
        f = self.free_rank
        out = [a[i] + b[i] for i in range(f)]
        for i, k in enumerate(self.cyclic_orders):
            out.append((a[f + i] + b[f + i]) % k)
        return tuple(out)

    def generator_orders(self) -> tuple[int | None, ...]:
        """None for free generators, the order for cyclic ones."""
        return (None,) * self.free_rank + self.cyclic_orders


def parse_group(text: str) -> AmenableGroup:
    """Parse descriptions like ``"Z"``, ``"Z^2"``, ``"Z x C2"``, ``"Z^3 x C2 x C3"``."""
    if not isinstance(text, str):
        raise GroupSpecError(f"group description {text!r} is not a string")
    cleaned = text.replace("×", "x").replace("*", "x")
    tokens = [t.strip() for t in cleaned.split("x") if t.strip()]
    if not tokens:
        raise GroupSpecError(f"empty group description: {text!r}")
    free = 0
    cyclic: list[int] = []
    for tok in tokens:
        m = _FREE_RE.match(tok)
        if m:
            if cyclic:
                raise GroupSpecError("free factors must precede cyclic ones")
            free += int(m.group(1)) if m.group(1) else 1
            continue
        m = _CYCLIC_RE.match(tok)
        if m:
            cyclic.append(int(m.group(1)))
            continue
        raise GroupSpecError(f"unrecognized factor {tok!r} in {text!r}")
    return AmenableGroup(free, tuple(cyclic))


class FolnerFamily:
    """The box windows F_n = [0, n)^a x prod_i [0, min(n, k_i))."""

    def __init__(self, group: AmenableGroup):
        self.group = group

    def widths(self, n: int) -> tuple[int, ...]:
        """The side lengths of F_n, one per coordinate."""
        if n < 1:
            raise GroupSpecError(f"window index must be positive, got {n}")
        return (n,) * self.group.free_rank + tuple(min(n, k) for k in self.group.cyclic_orders)

    def window_size(self, n: int) -> int:
        return math.prod(self.widths(n))


def search_ball(
    group: AmenableGroup, radius: int, element_budget: int = DEFAULT_ELEMENT_BUDGET
) -> tuple[tuple[int, ...], ...]:
    """All elements of word length <= radius, lexicographically sorted.

    The ball is counted first, from the word-length distribution of each
    factor, and a ``BudgetError`` raised before anything is built. Then each
    coordinate in turn extends the elements of the leading coordinates
    whose length is still within the radius; extending sorted prefixes by
    ascending values keeps the lexicographic order."""
    if radius < 0:
        raise GroupSpecError(f"radius must be nonnegative, got {radius}")
    over = BudgetError(f"ball of radius {radius} exceeds budget {element_budget}")
    axes = []
    counts = np.ones(1)  # the ball of the factors so far, by word length
    for k in group.generator_orders():
        # the ball is no smaller than its part on this axis or than the ball
        # of the factors so far, so each is checked before it is built
        if min(2 * radius + 1, k or math.inf) > element_budget:
            raise over
        if k is None:
            values = np.arange(-radius, radius + 1)
        elif 2 * radius + 1 >= k:
            values = np.arange(k)
        else:
            values = np.r_[0:radius + 1, k - radius:k]
        lengths = np.abs(values) if k is None else np.minimum(values, k - values)
        shells = np.bincount(lengths)
        within = np.cumsum(shells)[np.minimum(radius - np.arange(len(counts)), len(shells) - 1)]
        if counts @ within > element_budget:
            raise over
        counts = np.convolve(counts, shells)[:radius + 1]
        axes.append((values, lengths))
    coords, length = np.zeros((1, 0), dtype=np.int64), np.zeros(1, dtype=np.int64)
    for values, lengths in axes:
        total = (length[:, None] + lengths).ravel()
        keep = total <= radius
        coords = np.column_stack((np.repeat(coords, len(values), axis=0),
                                  np.tile(values, len(coords))))[keep]
        length = total[keep]
    return tuple(map(tuple, coords.tolist()))
