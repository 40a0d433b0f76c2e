"""Group arithmetic, Folner windows, defects, and balls."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from meanrds.groups import (
    AmenableGroup,
    BudgetError,
    FolnerFamily,
    GroupSpecError,
    folner_defect,
    parse_group,
    search_ball,
    translate,
)


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
    assert g.multiply(a, g.inverse(a)) == g.identity()
    assert g.check_element((0, 0, 1)) == (0, 0, 1)
    with pytest.raises(GroupSpecError):
        g.check_element((0, 0, 3))
    with pytest.raises(GroupSpecError):
        g.check_element((0, 0))


def test_word_length_cyclic_wraps():
    g = parse_group("Z x C5")
    # distance 2 backwards is shorter than 3 forwards
    assert g.word_length((0, 3)) == 2
    assert g.word_length((-4, 1)) == 5
    assert g.word_length(g.identity()) == 0


def test_window_sizes_and_elements():
    g = parse_group("Z x C2")
    fam = FolnerFamily(g)
    w1 = fam.window(1)
    assert w1.elements == ((0, 0),)
    w3 = fam.window(3)
    # 3 free values times min(3, 2) cyclic values
    assert w3.size == 6
    assert set(w3.elements) == set(itertools.product(range(3), range(2)))


def test_window_budget():
    g = parse_group("Z^3")
    fam = FolnerFamily(g, element_budget=1000)
    fam.window(10)
    with pytest.raises(BudgetError):
        fam.window(11)


def test_folner_defect_exact_on_line():
    g = parse_group("Z")
    fam = FolnerFamily(g)
    for n in (1, 2, 16, 100):
        w = fam.window(n)
        assert folner_defect(w, (1,)) == Fraction(2, n)
    # moving by 3 displaces 3 points on each side
    assert folner_defect(fam.window(100), (3,)) == Fraction(6, 100)


def test_folner_defect_matches_brute_force():
    g = parse_group("Z^2 x C2")
    fam = FolnerFamily(g)
    w = fam.window(4)
    for mover in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (2, -1, 1)):
        base = set(w.elements)
        moved = {g.multiply(mover, h) for h in w.elements}
        expected = Fraction(len(base ^ moved), len(base))
        assert folner_defect(w, mover) == expected
    # the cyclic factor is saturated at n >= 2, so its generator costs nothing
    assert folner_defect(w, (0, 0, 1)) == 0


def test_defect_shrinks_along_window_sequence():
    g = parse_group("Z^2")
    fam = FolnerFamily(g)
    gens = g.generators()
    prev = None
    for n in (2, 4, 8, 16):
        worst = max(folner_defect(fam.window(n), s) for s in gens)
        assert worst == Fraction(2, n)
        if prev is not None:
            assert worst < prev
        prev = worst


def test_translate_keeps_index_and_moves_elements():
    g = parse_group("Z")
    fam = FolnerFamily(g)
    w = fam.window(4)
    t = translate(w, (10,))
    assert t.index == 4
    assert t.elements == tuple((10 + k,) for k in range(4))


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
    return tuple(sorted(g for g in cube if group.word_length(g) <= radius))


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
