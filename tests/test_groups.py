"""Group arithmetic, Folner windows, defects, and balls."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from meanrds.groups import (
    DEFAULT_ELEMENT_BUDGET,
    BudgetError,
    FolnerFamily,
    GroupSpecError,
    parse_group,
    search_ball,
)
from meanrds.pseudometrics import _scan_plan


def test_parse_group_forms():
    assert parse_group("Z").spec == "Z"
    assert parse_group("Z^2").spec == "Z^2"
    assert parse_group("Z x C2").spec == "Z x C2"
    assert parse_group("Z^3 x C2 x C3").spec == "Z^3 x C2 x C3"
    assert parse_group("Z × C4").spec == "Z x C4"


def test_parse_group_rejects_junk():
    for bad in ("", "Q", "Z^4", "Z^0 ", "C1", "C2 x Z", "Z^2 x Z^2"):
        with pytest.raises(GroupSpecError):
            # Z^2 x Z^2 would exceed free rank 3? it's rank 4
            parse_group(bad)


def test_multiply_inverse_identity():
    g = parse_group("Z^2 x C3")
    a = (2, -1, 2)
    b = (-5, 4, 2)
    assert g.multiply(a, b) == (-3, 3, 1)
    assert g.multiply(a, (-2, 1, 1)) == g.identity()
    assert g.check_element((0, 0, 1)) == (0, 0, 1)
    with pytest.raises(GroupSpecError):
        g.check_element((0, 0, 3))
    with pytest.raises(GroupSpecError):
        g.check_element((0, 0))


def _word_length(group, g):
    """Word length in the standard generators (cyclic ones walk both ways)."""
    f = group.free_rank
    total = sum(abs(g[i]) for i in range(f))
    for i, k in enumerate(group.cyclic_orders):
        v = g[f + i] % k
        total += min(v, k - v)
    return total


def test_word_length_cyclic_wraps():
    g = parse_group("Z x C5")
    # distance 2 backwards is shorter than 3 forwards
    assert _word_length(g, (0, 3)) == 2
    assert _word_length(g, (-4, 1)) == 5
    assert _word_length(g, g.identity()) == 0


def _box(widths):
    """Every element of the box window with these side lengths."""
    return set(itertools.product(*map(range, widths)))


def _defect(group, widths, g):
    """|gF symm-diff F| / |F| of the box F with these widths, by brute force."""
    box = _box(widths)
    moved = {group.multiply(g, h) for h in box}
    return Fraction(len(box ^ moved), len(box))


def _generator_defects(group, widths):
    """The defect of F under each standard generator (one unit vector per
    factor)."""
    return [_defect(group, widths, tuple(int(j == i) for j in range(group.rank)))
            for i in range(group.rank)]


def _scanned_windows(group, cap):
    """(n, widths of F_n) for each window a scan of cap elements takes."""
    plan = _scan_plan(group, cap, None, 2, DEFAULT_ELEMENT_BUDGET)
    assert plan.windows == tuple(map(FolnerFamily(group).widths, plan.scanned))
    return tuple(zip(plan.scanned, plan.windows))


def test_window_sizes_and_elements():
    g = parse_group("Z x C2")
    fam = FolnerFamily(g)
    assert fam.widths(1) == (1, 1)
    # 3 free values times min(3, 2) cyclic values
    assert fam.widths(3) == (3, 2)
    assert fam.window_size(3) == 6 == len(_box(fam.widths(3)))
    assert FolnerFamily(parse_group("Z^2 x C3 x C5")).widths(4) == (4, 4, 3, 4)
    with pytest.raises(GroupSpecError):
        fam.widths(0)
    windows = _scanned_windows(g, 1000)
    assert [n for n, _ in windows] == [1, 2, 4, 8, 16, 32, 64, 128, 256, 500]
    assert windows[-1] == (500, (500, 2))


def test_folner_defect_exact_on_line():
    g = parse_group("Z")
    fam = FolnerFamily(g)
    for n in (1, 2, 16, 100):
        assert _defect(g, fam.widths(n), (1,)) == Fraction(2, n)
    # moving by 3 displaces 3 points on each side
    assert _defect(g, fam.widths(100), (3,)) == Fraction(6, 100)


def test_folner_defect_matches_brute_force():
    """Along the windows a scan takes, each free generator moves F_n by 2/n
    and a cyclic generator by 0 once its axis is saturated (n >= order)."""
    for spec, cap in (("Z", 100), ("Z^2", 256), ("Z^2 x C2", 64)):
        g = parse_group(spec)
        for n, widths in _scanned_windows(g, cap):
            want = [Fraction(2, n)] * g.free_rank + [
                Fraction(2, n) if n < k else 0 for k in g.cyclic_orders]
            assert _generator_defects(g, widths) == want, (spec, n)
    g = parse_group("Z^2 x C2")
    # a mixed mover displaces no more than its steps along each generator
    assert _defect(g, FolnerFamily(g).widths(4), (2, -1, 1)) <= Fraction(6, 4)


def test_defect_shrinks_along_window_sequence():
    g = parse_group("Z^2")
    prev = None
    for n, widths in _scanned_windows(g, 256):
        worst = max(_generator_defects(g, widths))
        assert worst == Fraction(2, n)
        if prev is not None:
            assert worst < prev
        prev = worst


def test_search_ball_line():
    g = parse_group("Z")
    ball = search_ball(g, 3)
    assert ball == tuple((k,) for k in range(-3, 4))
    assert search_ball(g, 0) == ((0,),)


def test_search_ball_counts_z2():
    g = parse_group("Z^2")
    # |{|a|+|b| <= r}| = 2r^2 + 2r + 1
    for r in (1, 2, 5):
        assert len(search_ball(g, r)) == 2 * r * r + 2 * r + 1


def test_search_ball_cyclic_distance():
    g = parse_group("C5")
    assert len(search_ball(g, 1)) == 3  # 0, 1, and 4 (distance 1 backwards)
    assert len(search_ball(g, 2)) == 5


def test_search_ball_budget():
    g = parse_group("Z^3")
    with pytest.raises(BudgetError):
        search_ball(g, 40, element_budget=100)


def _filtered_cube(group, radius):
    """Reference ball: every element of the (2r+1)^a x prod k cube, filtered
    by word length, sorted."""
    cube = itertools.product(*[range(-radius, radius + 1)] * group.free_rank,
                             *[range(k) for k in group.cyclic_orders])
    return tuple(sorted(g for g in cube if _word_length(group, g) <= radius))


@pytest.mark.parametrize("spec", ["Z", "Z^2", "Z^3", "Z x C3"])
def test_search_ball_matches_the_filtered_cube(spec):
    g = parse_group(spec)
    for r in (0, 1, 2, 3, 5, 8):
        ball = search_ball(g, r)
        assert ball == _filtered_cube(g, r)
        assert {type(v) for e in ball for v in e} == {int}  # translates go into JSON


@pytest.mark.parametrize("spec,radius,budget", [
    ("Z^3", 40, 88_640),  # the ball has 88 641 elements
    ("Z", 10, 20),
    ("Z x C1000001", 999_999, 2_000_000),  # fits on each axis, not as a ball
])
def test_search_ball_over_budget_raises_before_building(spec, radius, budget, monkeypatch):
    monkeypatch.setattr(np, "column_stack", lambda *a: pytest.fail("the ball was built"))
    with pytest.raises(BudgetError, match=f"ball of radius {radius} exceeds budget {budget}"):
        search_ball(parse_group(spec), radius, budget)
