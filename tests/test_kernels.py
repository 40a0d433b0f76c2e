"""Differential tests of the fast kernels against step-by-step references.

Both sides of every comparison run on the same machine with correctly
rounded IEEE operations, so the comparisons are bitwise and do not depend on
the platform.
"""

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from grid_fixtures import ROT3, Z2_CAT, ZXC2_CAT2, ZXC2_ROT, ZXC3_ORDER3, _FlatNormals
from numpy.lib.stride_tricks import sliding_window_view

from meanrds import _windows, catalog, pseudometrics, rds
from meanrds._windows import tree_mean_rows, window_means, window_schedule
from meanrds.classify import _row_norms, _sample_pairs
from meanrds.density import banach_upper_density, separation_set
from meanrds.groups import (
    DEFAULT_ELEMENT_BUDGET,
    BudgetError,
    FolnerFamily,
    parse_group,
    search_ball,
)
from meanrds.pseudometrics import (
    EstimatorConfig,
    ValueSource,
    _scan_plan,
    pair_source,
    pair_summary,
    synthetic_source,
)
from meanrds.rds import (
    BaseSpace,
    FiberMap,
    FiberSpace,
    RandomDynamicalSystem,
    _fold_norm_rows,
    _walk_axis,
    fold_norm,
    torus_delta,
)

LO, HI = -70, 1100


def _dim3_system():
    # the determinant -1 swap from test_rds, next to a hyperbolic matrix
    # whose rows have three nonzero entries, so the summation order shows
    swap = FiberMap(((0, 1, 0), (1, 0, 0), (0, 0, 1)), (0.1, 0.2, 0.3))
    hyper = FiberMap(((2, 1, 1), (1, 1, 1), (1, 1, 2)), (0.0, 0.5, 0.25))
    return RandomDynamicalSystem(
        name="dim3",
        group=parse_group("Z"),
        base=BaseSpace(("w0", "w1"), (0.5, 0.5), ((1, 0),)),
        dim=3,
        fibers=(FiberSpace.full(3), FiberSpace.full(3)),
        maps=((swap, hyper),),
    )


# a rotation fiber swapped with a cat fiber: the rotation fiber's cycle holds
# the cat matrix, so both fibers walk
ROT_CAT_SWAP = {
    "name": "rot-cat-swap",
    "group": "Z",
    "dim": 2,
    "base": {"labels": ["w0", "w1"], "weights": [0.5, 0.5], "perms": [[1, 0]]},
    "maps": [[{"matrix": [[1, 0], [0, 1]], "shift": [0.25, 0.5]},
              {"matrix": [[2, 1], [1, 1]]}]],
}
# Z^2 with the identity on generator 0 and the cat matrix on generator 1:
# the fiber is not constant, so a box walks its first axis through the
# identity and its later axis through the cat matrix
Z2_ID_CAT = {
    "name": "z2-id-cat",
    "group": "Z^2",
    "dim": 2,
    "base": {"labels": ["w0"], "weights": [1.0], "perms": [[0], [0]]},
    "maps": [[{"matrix": [[1, 0], [0, 1]]}], [{"matrix": [[2, 1], [1, 1]]}]],
}

# Z x C2 with a rotation on generator 0 and on generator 1 the order-2
# shear [[1, 0], [1, -1]], which fixes the rotation's shift, so the cocycle
# is valid: the generator-0 cycle is the identity, yet the C2 axis moves the
# difference vector, so the fiber is not flagged constant. Not in SYSTEMS.
ZXC2_SHEAR = {
    "name": "zxc2-shear",
    "group": "Z x C2",
    "dim": 2,
    "base": {"labels": ["w0"], "weights": [1.0], "perms": [[0], [0]]},
    "maps": [[{"matrix": [[1, 0], [0, 1]], "shift": [2 * (math.sqrt(2) - 1), math.sqrt(2) - 1]}],
             [{"matrix": [[1, 0], [1, -1]]}]],
}

SYSTEMS = ([catalog.load(n) for n in catalog.names()] + [_dim3_system()]
           + [catalog.build_system(spec) for spec in (ROT3, ROT_CAT_SWAP)])
# per system, the fibers whose generator-0 cycle carries only identities;
# on Z these are the constant fibers
IDENTITY_CYCLES = {"rot2": (True, True), "rot1-trivial": (True,), "cat-trivial": (False,),
                   "cat2": (False, False), "mixed": (True, False), "dim3": (False, False),
                   "rot3": (True, True), "rot-cat-swap": (False, False)}


def _row_step(mat, d):
    out = []
    for row in mat:
        s = row[0] * d[0]
        for a, c in zip(row[1:], d[1:]):
            s = s + a * c
        out.append(s % 1.0)
    return tuple(out)


def _reference_walk(system, omega, delta, lo, hi):
    """fold_norm of the difference vector at t = lo..hi-1, one step at a
    time from the FiberMap matrices."""
    vals = {0: fold_norm(delta)}
    w, d = omega, delta
    for t in range(1, hi):
        d = _row_step(system.maps[0][w].matrix, d)
        w = system.base.act_generator(0, w, 1)
        vals[t] = fold_norm(d)
    w, d = omega, delta
    for t in range(-1, lo - 1, -1):
        w = system.base.act_generator(0, w, -1)
        d = _row_step(rds._mat_inverse(system.maps[0][w].matrix), d)
        vals[t] = fold_norm(d)
    return np.asarray([vals[t] for t in range(lo, hi)], dtype=np.float64)


@pytest.mark.parametrize("system", SYSTEMS, ids=lambda s: s.name)
def test_line_walk_matches_reference_walk(system):
    rng = np.random.default_rng(17)
    for _ in range(3):
        x = system.fibers[0].sample(rng)
        y = system.fibers[0].sample(rng)
        engine = rds.PairEngine(system, x, y)
        refs = {i: _reference_walk(system, i, engine.delta0, LO, HI)
                for i in range(system.base.size)}
        # a short request first, so the long one extends a grown walk
        assert engine.fiber_range(0, (-3,), (5,)).tobytes() == refs[0][-3 - LO:5 - LO].tobytes()
        for i, ref in refs.items():
            assert engine.fiber_range(i, (LO,), (HI,)).tobytes() == ref.tobytes()
        want = np.maximum.reduce([refs[i] for i in engine.admissible])
        assert engine.dtilde_range((LO,), (HI,)).tobytes() == want.tobytes()
        for t in (LO, -1, 0, 1, HI - 1):
            assert engine.fiber_range(0, (t,), (t + 1,))[0] == refs[0][t - LO]


# ranges on both sides of 0 and not containing it
WALK_RANGES = [(-40, 40), (3, 9), (-9, -3), (0, 1), (-1, 0), (5, 6)]
# a dimension-1 fiber whose step is not the identity: x -> -x
FLIP1 = {"name": "flip1", "group": "Z", "dim": 1,
         "base": {"labels": ["w0"], "weights": [1.0], "perms": [[0]]},
         "maps": [[{"matrix": [[-1]], "shift": [0.25]}]]}


@pytest.mark.parametrize("system", SYSTEMS + [catalog.build_system(FLIP1)],
                         ids=lambda s: s.name)
def test_element_path_matches_line_walk(system):
    """The batched axis step that walks a box's later axes, started from
    every base point at once along generator 0, takes the steps of the
    scalar kernel that grows each fiber's first-axis line, in dimensions
    1-3; the positions between 0 and a range are walked, not kept."""
    rng = np.random.default_rng(5)
    engine = rds.PairEngine(system, system.fibers[0].sample(rng),
                            system.fibers[0].sample(rng))
    size = system.base.size
    for lo, hi in WALK_RANGES:
        w, d = _walk_axis(np.arange(size), np.asarray([engine.delta0] * size),
                          system._steps[0], system.base._powers[0], lo, hi)
        stepped = _fold_norm_rows(d).reshape(size, hi - lo)
        for i in range(size):
            assert stepped[i].tobytes() == engine.fiber_range(i, (lo,), (hi,)).tobytes()
            assert w[(hi - lo) * i:(hi - lo) * (i + 1)].tolist() == [
                system.base.act_generator(0, i, t) for t in range(lo, hi)]


# config systems for the batched line walk beside the catalog and grid ones:
# a unimodular shear of the 3-torus, and a full cat fiber next to a sliced
# fiber whose shear keeps its slice x0 = 0.25, so a pair drawn on w1 lies in
# both fibers and one drawn on w0 in w0 only
SHEAR3 = {"name": "shear3", "group": "Z", "dim": 3,
          "base": {"labels": ["w0"], "weights": [1.0], "perms": [[0]]},
          "maps": [[{"matrix": [[1, 1, 0], [0, 1, 1], [0, 0, 1]], "shift": [0.125, 0.25, 0.5]}]]}
SLICED_SHEAR = {"name": "sliced-shear", "group": "Z", "dim": 2,
                "base": {"labels": ["w0", "w1"], "weights": [0.5, 0.5], "perms": [[0, 1]]},
                "fibers": ["full", {"slices": [[[0, 0.25]]]}],
                "maps": [[{"matrix": [[2, 1], [1, 1]]},
                          {"matrix": [[1, 0], [1, 1]], "shift": [0.0, 0.375]}]]}
LINE_SYSTEMS = [catalog.build_system(spec) for spec in (FLIP1, SHEAR3, SLICED_SHEAR, Z2_CAT,
                                                        ZXC2_CAT2, ZXC3_ORDER3)]
LINE_SYSTEMS += [_dim3_system(), catalog.load("cat2"), catalog.load("mixed")]
# (lo, hi) of the first axis: around 0, wholly positive, ending at 0 and
# wholly negative, the one element 0, and a box that Z folds in 3 blocks
LINE_RANGES = [(-6, 9), (3, 11), (-7, 0), (-7, -2), (0, 1), (-70, 200)]


def _line_pairs(system, count):
    return list(itertools.islice(_sample_pairs(system, 0.05, np.random.default_rng(3), count),
                                 count))


def _walked_fibers(engine):
    return [i for i in engine.admissible if not engine.sys._constant[i]]


# a 3-cycle of distinct cat-like matrices beside a fixed fiber with its
# own hyperbolic matrix: a pass holds columns of periods 3 and 1
CYCLE3 = {"name": "cycle3", "group": "Z", "dim": 2,
          "base": {"labels": ["w0", "w1", "w2", "w3"], "weights": [0.25] * 4,
                   "perms": [[1, 2, 0, 3]]},
          "maps": [[{"matrix": [[2, 1], [1, 1]], "shift": [0.125, 0.0]},
                    {"matrix": [[1, 1], [1, 2]]},
                    {"matrix": [[3, 2], [1, 1]], "shift": [0.0, 0.25]},
                    {"matrix": [[1, 1], [1, 0]], "shift": [0.5, 0.5]}]]}
# lines of 127, 128, 129 and 130 positions (one direction stepping 126 to
# 129 times, about the fold's 128-position block), of 257 (128 steps each
# way), one that ends at 0 and one wholly negative, each at the default
# budget and at budgets of 3 and 10 lines, whose passes split the 28
# columns of 7 pairs in the middle of a pair's 4 fibers
CYCLE_RANGES = [(0, 127), (0, 128), (0, 129), (0, 130), (-128, 129), (-129, 0), (-300, -40)]

# batches of 7 pairs over every range, and of one pair around 0
LINE_CASES = [pytest.param(s, lo, hi, 7, None, id=f"{s.name}-{lo}-{hi}")
              for s in LINE_SYSTEMS for lo, hi in LINE_RANGES] + [
    pytest.param(s, -6, 9, 1, None, id=f"{s.name}-one-pair") for s in LINE_SYSTEMS] + [
    pytest.param(catalog.build_system(CYCLE3), lo, hi, 7, lines,
                 id=f"cycle3-{lo}-{hi}-{lines or 'default'}")
    for lo, hi in CYCLE_RANGES for lines in (None, 3, 10)]


def _no_scalar_walk(m):
    for dim in rds._WALKS:
        m.setitem(rds._WALKS, dim, lambda *args: pytest.fail("a scalar walk"))


@pytest.mark.parametrize("system,lo,hi,count,lines", LINE_CASES)
def test_seeded_lines_are_the_scalar_lines(system, lo, hi, count, lines, monkeypatch):
    """The batched line walk seeds each engine with the scalar kernel's
    values, bitwise, in dimensions 1-3, on Z, Z^2, Z x C2 and Z x C3, for a
    batch of one pair and of pairs whose admissible fibers differ. On Z each
    engine keeps its folded box lo <= t < hi and no raw line; on the other
    groups it keeps its raw generator-0 line, with the vectors of a fresh
    engine's. Either way the seeded box reads with no scalar walk, and a
    grown box (lo - 5, hi + 6) and a box over every axis (the later ones
    walked per pair, as before) read as on a fresh engine. A constant
    fiber, or one without both points, gets neither. A budget of ``lines``
    whole lines splits the columns into passes of that many."""
    pairs = _line_pairs(system, count)
    seeded = [rds.PairEngine(system, x, y) for x, y in pairs]
    fresh = [rds.PairEngine(system, x, y) for x, y in pairs]
    if system.name == "sliced-shear" and count > 1:
        assert len({e.admissible for e in seeded}) == 2
    length = max(hi, 1) - min(lo, 0)
    rds._seed_lines(seeded, lo, hi, DEFAULT_ELEMENT_BUDGET if lines is None else lines * length)
    rank1 = system.group.rank == 1
    for engine in seeded:
        kept, raw = (engine._boxes, engine._lines) if rank1 else (engine._lines, engine._boxes)
        assert sorted(kept) == _walked_fibers(engine) and not raw
    later = [(0, k) if k else (-2, 3) for k in system.group.generator_orders()[1:]]
    lo_later, hi_later = tuple(c for c, _ in later), tuple(c for _, c in later)
    for a, b in zip(seeded, fresh):
        for i in _walked_fibers(a):
            box = ((lo,) + lo_later, (hi,) + hi_later)
            with monkeypatch.context() as m:
                _no_scalar_walk(m)
                got = a.fiber_range(i, *box)
                if not rank1:
                    line = a._first_axis(i, lo, hi)
            assert got.tobytes() == b.fiber_range(i, *box).tobytes()
            if not rank1:
                assert line.tobytes() == b._first_axis(i, lo, hi).tobytes()
                assert line.shape == (hi - lo, system.dim)
            for box in (((lo - 5,) + lo_later, (hi + 6,) + hi_later),
                        ((lo - 2,) + lo_later, (hi + 3,) + hi_later)):
                assert a.fiber_range(i, *box).tobytes() == b.fiber_range(i, *box).tobytes()


def test_seeded_lines_chunk_to_the_element_budget(monkeypatch):
    """A pass of the batched walk holds at most ``budget`` line elements
    (columns, one per pair and fiber, times line length): above it the 18
    columns of 9 pairs on cat2's two fibers are walked in chunks that cross
    from one fiber to the next, with the same seeded boxes bitwise, read
    with no scalar walk."""
    system = catalog.load("cat2")
    pairs = _line_pairs(system, 9)
    lo, hi = -6, 9
    walk_line, sizes = rds._walk_line, []

    def spy(w, d, steps, powers, first, stop, fold=False):
        sizes.append(d.shape[1] * (stop - first))
        return walk_line(w, d, steps, powers, first, stop, fold)

    monkeypatch.setattr(rds, "_walk_line", spy)
    _no_scalar_walk(monkeypatch)
    boxes = {}
    for budget in (DEFAULT_ELEMENT_BUDGET, 15, 29, 45, 130):
        sizes.clear()
        engines = [rds.PairEngine(system, x, y) for x, y in pairs]
        rds._seed_lines(engines, lo, hi, budget)
        assert max(sizes) <= max(budget, hi - lo) and sum(sizes) == 18 * (hi - lo)
        assert len(sizes) == -(-18 // max(1, budget // (hi - lo)))
        boxes[budget] = [e.fiber_range(i, (lo,), (hi,)).tobytes() for e in engines for i in (0, 1)]
    assert all(got == boxes[DEFAULT_ELEMENT_BUDGET] for got in boxes.values())


def _reference_element(system, omega, delta, g):
    """fold_norm of the difference vector after g, one step at a time from
    the FiberMap matrices along the canonical path: coordinate 0 first,
    negative free coordinates through the inverse map of the predecessor."""
    w, d = omega, delta
    for i, steps in enumerate(g):
        for _ in range(abs(steps)):
            if steps > 0:
                d = _row_step(system.maps[i][w].matrix, d)
                w = system.base.act_generator(i, w, 1)
            else:
                w = system.base.act_generator(i, w, -1)
                d = _row_step(rds._mat_inverse(system.maps[i][w].matrix), d)
    return fold_norm(d)


# (system, x, y, box corners lo, hi): free coordinates on both sides of 0,
# first axes wholly positive and wholly negative, a one-element box, whole
# and partial cyclic axes
BOXES = [
    (Z2_CAT, (0.1, 0.2), (0.1004, 0.2002), (-4, -3), (3, 5)),
    (Z2_CAT, (0.3, 0.7), (0.9, 0.05), (-2, 1), (6, 4)),
    (Z2_CAT, (0.3, 0.7), (0.9, 0.05), (3, -2), (7, 2)),
    (Z2_CAT, (0.3, 0.7), (0.9, 0.05), (-6, -1), (0, 3)),
    (Z2_CAT, (0.1, 0.2), (0.1004, 0.2002), (-3, 2), (-2, 3)),
    (ZXC3_ORDER3, (0.1, 0.2), (0.13, 0.21), (-5, 0), (4, 3)),
    (ZXC3_ORDER3, (0.1, 0.2), (0.13, 0.21), (-1, 1), (7, 3)),
    (ZXC2_ROT, (0.1,), (0.35,), (-6, 0), (5, 2)),
    (ZXC2_CAT2, (0.1, 0.2), (0.1004, 0.2002), (-5, 0), (6, 2)),
    (Z2_ID_CAT, (0.1, 0.2), (0.1004, 0.2002), (-4, -3), (3, 5)),
    (Z2_ID_CAT, (0.3, 0.7), (0.9, 0.05), (3, -2), (7, 2)),
    (ZXC2_SHEAR, (0.1, 0.2), (0.13, 0.21), (-5, 0), (6, 2)),
]


@pytest.mark.parametrize("spec,x,y,lo,hi", BOXES,
                         ids=[f"{b[0]['name']}-{b[3]}-{b[4]}" for b in BOXES])
def test_box_walk_matches_reference_elements(spec, x, y, lo, hi):
    system = catalog.build_system(spec)
    engine = rds.PairEngine(system, x, y)
    box = list(itertools.product(*(range(a, b) for a, b in zip(lo, hi))))
    for omega in range(system.base.size):
        want = np.asarray([_reference_element(system, omega, engine.delta0, g) for g in box])
        assert engine.fiber_range(omega, lo, hi).tobytes() == want.tobytes()
        assert [engine.fiber_range(omega, g, [v + 1 for v in g])[0]
                for g in box[::7]] == want[::7].tolist()
    sup = np.maximum.reduce([engine.fiber_range(i, lo, hi) for i in engine.admissible])
    assert engine.dtilde_range(lo, hi).tobytes() == sup.tobytes()


# (system, x, y, box reads in order, the reads that walk): a hull, boxes
# inside it, a box that straddles it, a repeat of the hull and one-element
# boxes inside a kept box or outside every one
KEPT_BOX_READS = [
    (Z2_CAT, (0.3, 0.7), (0.9, 0.05),
     [((-3, -4), (5, 6)), ((0, 0), (5, 6)), ((-3, -2), (1, 2)), ((2, 3), (7, 9)),
      ((-3, -4), (5, 6)), ((4, 5), (5, 6)), ((6, -6), (7, -5))], (0, 3, 6)),
    (ZXC2_CAT2, (0.1, 0.2), (0.1004, 0.2002),
     [((-5, 0), (6, 2)), ((-2, 0), (3, 2)), ((0, 1), (4, 2)), ((3, 0), (9, 2)),
      ((-5, 0), (6, 2)), ((8, 1), (9, 2)), ((-1, 1), (0, 2))], (0, 3)),
    (ZXC3_ORDER3, (0.1, 0.2), (0.13, 0.21),
     [((-5, 0), (4, 3)), ((-1, 1), (2, 3)), ((0, 0), (4, 1)), ((2, 0), (7, 3)),
      ((-5, 0), (4, 3)), ((-6, 2), (-5, 3)), ((3, 2), (4, 3))], (0, 3, 5)),
]


@pytest.mark.parametrize("spec,x,y,reads,walked", KEPT_BOX_READS,
                         ids=[b[0]["name"] for b in KEPT_BOX_READS])
def test_kept_box_reads_match_reference_elements(spec, x, y, reads, walked, monkeypatch):
    """Boxes read out of order from one engine, each inside a kept box, equal
    to one or straddling it, are bitwise the reference elements; only a
    box outside every kept one walks, and every read is read-only."""
    system = catalog.build_system(spec)
    engine = rds.PairEngine(system, x, y)
    walk_axis, walks = rds._walk_axis, []

    def counting(w, d, steps, powers, lo, hi):
        walks.append((lo, hi))
        return walk_axis(w, d, steps, powers, lo, hi)

    monkeypatch.setattr(rds, "_walk_axis", counting)
    hulls = {}
    for k, (lo, hi) in enumerate(reads):
        box = list(itertools.product(*(range(a, b) for a, b in zip(lo, hi))))
        for omega in range(system.base.size):
            vals = engine.fiber_range(omega, lo, hi)
            want = [_reference_element(system, omega, engine.delta0, g) for g in box]
            assert vals.tobytes() == np.asarray(want).tobytes(), (lo, hi, omega)
            assert not vals.flags.writeable
            if k == 0:
                hulls[omega] = vals
        if (lo, hi) == reads[0]:
            assert all(engine.fiber_range(i, lo, hi) is v for i, v in hulls.items())
    # a walked box walks its later axis once in each fiber
    assert walks == [(reads[k][0][1], reads[k][1][1]) for k in walked
                     for _ in range(system.base.size)]


def test_pair_summary_walks_each_fiber_once(monkeypatch):
    """One engine serves a whole pair summary: each fiber's first axis is
    stepped once per direction, as far as the boxes read reach, however many
    estimators and boxes read it. On cat2 at the default caps that is 4095
    steps forward (the n_max windows) and 64 back (the search radius); off
    Z, on a grid fixture, the boxes of different scans share one line."""
    kernel = rds._WALKS[2]
    calls, boxes = [], []
    fiber_box = rds.PairEngine._fiber_box

    def counting(w, d, count, nxt, rows):
        calls.append((nxt, count))
        return kernel(w, d, count, nxt, rows)

    def recording(engine, omega_idx, lo, hi):
        boxes.append((engine.sys, omega_idx, lo[0], hi[0]))
        return fiber_box(engine, omega_idx, lo, hi)

    monkeypatch.setitem(rds._WALKS, 2, counting)
    monkeypatch.setattr(rds.PairEngine, "_fiber_box", recording)
    x, y = (0.1, 0.2), (0.1004, 0.2002)
    cases = [(catalog.load("cat2"), EstimatorConfig()),
             (catalog.build_system(ZXC2_CAT2), EstimatorConfig(n_max=512, m_max=128))]
    for system, cfg in cases:
        out = pair_summary(system, x, y, cfg)
        assert "integral-besicovitch" in out and system.admissible_fibers(x, y) == (0, 1)
        steps = {sign: sum(n for nxt, n in calls if nxt is system._steps[0][sign][0])
                 for sign in (1, -1)}
        reads = [(i, lo, hi) for s, i, lo, hi in boxes if s is system]
        assert len({(lo, hi) for _, lo, hi in reads}) > 1
        assert steps == {
            1: sum(max(hi for j, _, hi in reads if j == i) - 1 for i in (0, 1)),
            -1: sum(max(-lo for j, lo, _ in reads if j == i) for i in (0, 1))}
        if system.group.rank == 1:
            assert steps == {1: 2 * 4095, -1: 2 * 64}


def test_pair_summary_walks_one_hull_and_reads_each_profile_once_per_plan(monkeypatch):
    """On Z^2 at radius 8 the tail box (0, 0)-(64, 64) and the banach box
    (-8, -8)-(40, 40) come out of one walk of their hull, one axis step
    call over 72 rows. z2-cat's one fiber is also its sup profile, and its
    one-point support of weight 1.0 makes the integral that fiber too, so
    the sup is read once per plan and nothing else is read; so is
    cat-trivial's on Z. On zxc2-cat2 each fiber walks once, and the sup,
    integral and fiber profiles are each read once per plan they are
    scanned with."""
    walk_axis, window_means = rds._walk_axis, _windows.window_means
    read = pseudometrics._EngineSource.range_values
    walks, reads, tables = [], [], []

    def walking(w, d, steps, powers, lo, hi):
        walks.append((len(w), lo, hi))
        return walk_axis(w, d, steps, powers, lo, hi)

    def reading(source, lo, hi):
        reads.append((source.label, lo, hi))
        return read(source, lo, hi)

    def tabling(box, starts, windows):
        tables.append(box.shape)
        return window_means(box, starts, windows)

    monkeypatch.setattr(rds, "_walk_axis", walking)
    monkeypatch.setattr(pseudometrics._EngineSource, "range_values", reading)
    monkeypatch.setattr(_windows, "window_means", tabling)
    x, y = (0.1, 0.2), (0.1004, 0.2002)
    pair_summary(catalog.build_system(Z2_CAT), x, y, EstimatorConfig(search_radius=8))
    assert walks == [(72, -8, 64)]
    tail, full = ((0, 0), (64, 64)), ((-8, -8), (40, 40))
    assert reads == [("sup", *tail), ("sup", *full)]
    assert tables == [(64, 64), (48, 48)]
    for log in (walks, reads, tables):
        log.clear()
    pair_summary(catalog.load("cat-trivial"), x, y,
                 EstimatorConfig(n_max=512, m_max=128, search_radius=8))
    assert reads == [("sup", (0,), (512,)), ("sup", (-8,), (136,))]
    assert len(tables) == 2
    for log in (walks, reads, tables):
        log.clear()
    pair_summary(catalog.build_system(ZXC2_CAT2), x, y,
                 EstimatorConfig(n_max=512, m_max=128, search_radius=8))
    assert walks == [(264, 0, 2)] * 2
    tail, full = ((0, 0), (256, 2)), ((-8, 0), (72, 2))
    assert reads == [("sup", *tail), ("sup", *full), ("integral", *tail),
                     ("fiber[w0]", *tail), ("fiber[w0]", *full),
                     ("fiber[w1]", *tail), ("fiber[w1]", *full)]
    assert len(tables) == 7


# (x, y) coordinate pairs whose differences are 0.0, a subnormal, 1 - 2**-53,
# 1 - 2**-52, 0.5 and 0.2, and two whose difference Python's % rounds to 1.0
EDGE_PAIRS = [(0.0, 0.0), (5e-324, 0.0), (0.0, 5e-324), (1 - 2**-53, 0.0),
              (0.0, 2**-52), (0.3, 0.3 + 2**-54), (0.75, 0.25), (0.1, 0.9)]


@pytest.mark.parametrize("system,omega", [
    (s, i) for s in SYSTEMS for i, const in enumerate(s._constant) if const],
    ids=lambda v: getattr(v, "name", str(v)))
def test_identity_cycle_line_is_the_walked_line(system, omega, monkeypatch):
    """A constant fiber's box is read without a kernel call, read-only and
    bitwise the folded line the walk kernel gives, in dimensions 1-3."""
    walk = rds._WALKS[system.dim]
    monkeypatch.setattr(rds, "_WALKS", {})  # a kernel call raises KeyError
    lo, hi = -20, 30
    for pair in itertools.product(EDGE_PAIRS, repeat=system.dim):
        x, y = zip(*pair)
        engine = rds.PairEngine(system, x, y)
        right = walk(omega, engine.delta0, hi - 1, *system._steps[0][1])[2]
        left = walk(omega, engine.delta0, -lo, *system._steps[0][-1])[2]
        walked = np.concatenate((np.reshape(left, (-lo, -1))[::-1], [engine.delta0],
                                 np.reshape(right, (hi - 1, -1))))
        vals = engine.fiber_range(omega, (lo,), (hi,))
        assert not vals.flags.writeable
        assert vals.tobytes() == _fold_norm_rows(walked).tobytes()


@pytest.mark.parametrize("system", SYSTEMS, ids=lambda s: s.name)
def test_walk_kernel_skips_only_identity_cycles(system, monkeypatch):
    """Each fiber's first axis calls the kernel once per direction, from
    the fiber itself, unless the fiber is constant; on rot-cat-swap the
    rotation fiber shares its cycle with a cat fiber, so it walks."""
    kernel = rds._WALKS[system.dim]
    starts = []

    def counting(w, d, count, nxt, rows):
        starts.append(w)
        return kernel(w, d, count, nxt, rows)

    monkeypatch.setitem(rds._WALKS, system.dim, counting)
    engine = rds.PairEngine(system, (0.1,) * system.dim, (0.35,) * system.dim)
    for omega, ident in enumerate(IDENTITY_CYCLES[system.name]):
        starts.clear()
        engine.fiber_range(omega, (-5,), (9,))
        assert starts == ([] if ident else [omega, omega])


def test_constant_fibers_need_identities_on_every_generator():
    """A fiber's profile is constant only when every generator's matrix on
    its orbit is the identity. On Z that is the identity cycle; on
    zxc2-shear the identity cycle holds but the C2 shear moves the vector,
    so every estimate is the C2 average, not fold_norm(delta0) = 0.0316."""
    for system in SYSTEMS:
        assert system._constant == IDENTITY_CYCLES[system.name], system.name
    assert catalog.build_system(Z2_ID_CAT)._constant == (False,)
    assert catalog.build_system(ZXC2_ROT)._constant == (True, True)
    system = catalog.build_system(ZXC2_SHEAR)
    assert rds.validate(system).ok
    assert system._constant == (False,)
    x, y = (0.1, 0.2), (0.13, 0.21)
    engine = rds.PairEngine(system, x, y)
    assert engine.fiber_constant(0) is engine.dtilde_constant() is None
    assert engine.norm0 == 0.03162277660168382
    out = pair_summary(system, x, y, EstimatorConfig(search_radius=8))
    assert len(out) == 7
    assert {est.value for est in out.values()} == {0.033839144678161875}


def _profiles():
    rng = np.random.default_rng(3)
    n = 64 + 10000 + 64
    scale = 10.0 ** rng.uniform(-3, 3, size=n)
    squares = synthetic_source("squares").range_values((-64,), (10000 + 64,))
    return {"random": rng.random(n) * scale, "squares": squares}


def _gathered_line_means(vals, offsets, m):
    """Reference: each window [g, g+m) of a profile that starts at time 0,
    taken out on its own and summed by the tree."""
    return tree_mean_rows(sliding_window_view(vals, m)[np.asarray(offsets)])


@pytest.mark.parametrize("name", ["random", "squares"])
def test_dyadic_table_matches_translated_means(name):
    vals = _profiles()[name]
    offsets = np.arange(129)
    schedule = tuple(2 ** k for k in range(13))  # 1 .. 4096
    got = window_means(vals, (offsets,), [(m,) for m in schedule])
    for m, means in zip(schedule, got, strict=True):
        assert means.tobytes() == _gathered_line_means(vals, offsets, m).tobytes(), m


@pytest.mark.parametrize("name", ["random", "squares"])
def test_non_power_of_two_top_entry_matches(name):
    vals = _profiles()[name]
    schedule = window_schedule(FolnerFamily(parse_group("Z")), 10000)
    assert schedule[-1] == 10000 and schedule[-2] == 8192
    windows = [(m,) for m in schedule]
    offsets = np.arange(129)
    for m, means in zip(schedule, window_means(vals, (offsets,), windows)):
        assert means.tobytes() == _gathered_line_means(vals, offsets, m).tobytes()
    for m, means in zip(schedule, window_means(vals, (offsets[:1],), windows)):
        assert float(means[0]) == float(tree_mean_rows(vals[:m])[0])


def _line_caps():
    rng = np.random.default_rng(20)
    return list(range(1, 301)) + sorted(rng.integers(301, 20001, size=12).tolist())


def _line_profile(rng, n, kind):
    """Values over 1e-3..1e3, or over 1e-300..1e300 with one in four near
    the largest float, so that window sums overflow to inf (to -inf when
    the kind is negated)."""
    if kind == "mixed":
        return rng.random(n) * 10.0 ** rng.uniform(-3, 3, size=n)
    huge = rng.random(n) < 0.25
    exponent = np.where(huge, rng.uniform(307, 308.25, size=n), rng.uniform(-300, 300, size=n))
    return (-1.0 if kind == "-overflow" else 1.0) * 10.0 ** exponent


@pytest.mark.parametrize("kind", ["mixed", "overflow", "-overflow"])
def test_line_windows_read_from_the_table_at_every_cap(kind):
    """On Z every schedule, whatever its cap, is read from the table: a top
    that is not a power of two is the top bit's entry plus the carries of
    its lower bits, with the bits of summing each window on its own, at
    starts away from 0 and through overflow."""
    rng = np.random.default_rng(21)
    folner = FolnerFamily(parse_group("Z"))
    for cap in _line_caps():
        schedule = window_schedule(folner, cap)
        offsets = np.sort(rng.integers(0, 64, size=17))
        vals = _line_profile(rng, int(offsets.max()) + cap + rng.integers(0, 3), kind)
        got = window_means(vals, (offsets,), [(m,) for m in schedule])
        for m, means in zip(schedule, got, strict=True):
            assert means.tobytes() == _gathered_line_means(vals, offsets, m).tobytes(), (cap, m)


def test_line_carries_read_for_any_later_window():
    """Windows of one call that share a top bit, or whose lower bits were
    passed by an earlier window's doubling, still get every carry."""
    rng = np.random.default_rng(22)
    vals = _line_profile(rng, 200, "mixed")
    offsets = np.asarray([0, 5, 70])
    widths = [(1,), (3,), (12,), (9,), (15,), (8,), (100,), (127,), (64,)]
    for m, means in zip(widths, window_means(vals, (offsets,), widths), strict=True):
        assert means.tobytes() == _gathered_line_means(vals, offsets, m[0]).tobytes(), m


class _CoordinateSource(ValueSource):
    """A profile that varies along every axis, cyclic ones included, over
    several orders of magnitude, so a wrong addition order moves bits."""

    def __init__(self, spec):
        self.group = parse_group(spec)
        self.label = spec

    @staticmethod
    def _mixed(lo, hi):
        """The box's elements in row-major order, and a mix of each one's
        coordinates."""
        g = np.stack(np.meshgrid(*(np.arange(a, b) for a, b in zip(lo, hi)), indexing="ij"),
                     axis=-1).reshape(-1, len(lo))
        return g, g @ np.asarray([7919, 104729, 1299709][:len(lo)])

    def range_values(self, lo, hi):
        g, mix = self._mixed(lo, hi)
        return (mix % 997 + 1) * 10.0 ** ((g @ np.arange(1, len(lo) + 1)) % 7 - 3)


def _gathered_means(source, schedule, ball):
    """Reference: every translated window gathered out of the box, padded by
    wrap on cyclic axes for that window alone, and summed by the tree."""
    grp = source.group
    free = grp.free_rank
    starts = np.asarray(ball)
    lo = [int(starts[:, i].min()) for i in range(free)] + [0] * len(grp.cyclic_orders)
    hi = [int(starts[:, i].max()) + schedule[-1] for i in range(free)] + list(grp.cyclic_orders)
    box = source.range_values(tuple(lo), tuple(hi)).reshape([b - a for a, b in zip(lo, hi)])
    starts = starts - lo
    for n in schedule:
        win = [n] * free + [min(n, k) for k in grp.cyclic_orders]
        wrapped = np.pad(box, [(0, w - 1 if i >= free else 0) for i, w in enumerate(win)],
                         mode="wrap")
        rows = sliding_window_view(wrapped, win)[tuple(starts.T)]
        yield n, tree_mean_rows(rows.reshape(len(ball), -1))


class _OverflowSource(_CoordinateSource):
    """A profile of :func:`_line_profile` values of one ``kind``, picked from
    a pool by each element's coordinates, so that window sums overflow to
    +-inf."""

    def __init__(self, spec, kind):
        super().__init__(spec)
        self.label = f"{spec} {kind}"
        self.pool = _line_profile(np.random.default_rng(23), 4099, kind)

    def range_values(self, lo, hi):
        return self.pool[self._mixed(lo, hi)[1] % len(self.pool)]


TABLE_CASES = [  # (group, m_max, radius, the profile's kind)
    ("Z", 4096, 64, None),
    ("Z^2", 1024, 6, None),
    ("Z x C2", 1024, 6, None),
    ("Z x C4", 12, 3, None),        # n < 4: a partial cyclic axis
    ("Z x C4", 1024, 5, None),
    ("Z^2 x C2", 512, 4, None),
    ("Z x C3", 256, 4, None),       # width 3 once n >= 3: runs of the flattened block
    ("Z^2", 48, 4, None),           # a bisected top (6, 6)
    ("Z x C2", 1000, 6, None),      # a bisected top (500, 2)
    ("Z x C4", 1000, 5, None),      # a bisected top (250, 4)
    ("Z^2 x C3", 300, 3, None),     # two trailing axes, (n, 3), up to the top (10, 10, 3)
    ("Z^2", 60, 20, None),          # a bisected top (7, 7) over 841 translates
    ("Z x C3", 200, 4, "overflow"),
    ("Z x C3", 200, 4, "-overflow"),
]


@pytest.mark.parametrize("spec,m_max,radius,kind", TABLE_CASES,
                         ids=[f"{c[0]}-{c[1]}" + (f"-{c[3]}" if c[3] else "")
                              for c in TABLE_CASES])
def test_dyadic_table_matches_the_gather(spec, m_max, radius, kind):
    """The table against the gather, bitwise, for translated and untranslated
    windows, through overflow to +-inf on the ``kind`` profiles."""
    src = _CoordinateSource(spec) if kind is None else _OverflowSource(spec, kind)
    schedule = window_schedule(FolnerFamily(src.group), m_max)
    wants = []
    for r in (radius, 0):
        plan = _scan_plan(src.group, m_max, None, r, EstimatorConfig().element_budget)
        got = list(zip(plan.scanned, window_means(src._box(plan), plan.starts, plan.windows)))
        want = list(_gathered_means(src, schedule, plan.ball))
        assert [n for n, _ in got] == list(schedule)
        for (n, means), (_, ref) in zip(got, want):
            assert means.tobytes() == ref.tobytes(), n
        wants.append(want)
    if kind is not None:
        assert any(np.isinf(ref).any() for _, ref in wants[0])
    # mean_curves reads the untranslated means at the identity of the ball
    _, untranslated, translated_max = pseudometrics.mean_curves(
        src, EstimatorConfig(m_max=m_max, search_radius=radius))
    assert untranslated == [float(ref[0]) for _, ref in wants[1]]
    assert translated_max == [float(ref.max()) for _, ref in wants[0]]


@pytest.mark.parametrize("spec,x,y", [(ZXC2_CAT2, (0.1, 0.2), (0.1004, 0.2002)),
                                      (ZXC3_ORDER3, (0.1, 0.2), (0.13, 0.21))],
                         ids=["zxc2-cat2", "zxc3-order3"])
def test_dyadic_table_matches_the_gather_on_systems(spec, x, y):
    system = catalog.build_system(spec)
    plan = _scan_plan(system.group, 256, None, 5, EstimatorConfig().element_budget)
    for mode in ("sup", "integral"):
        src = pair_source(system, x, y, mode)
        got = zip(plan.scanned, window_means(src._box(plan), plan.starts, plan.windows))
        for (n, means), (_, ref) in zip(got, _gathered_means(src, plan.schedule, plan.ball),
                                        strict=True):
            assert means.tobytes() == ref.tobytes(), (mode, n)


def _probed_schedule(folner, cap):
    """The schedule with its top found one width at a time."""
    sched = [1]
    while folner.window_size(2 * sched[-1]) <= cap:
        sched.append(2 * sched[-1])
    probe = sched[-1]
    while folner.window_size(probe + 1) <= cap:
        probe += 1
    return tuple(sched) + ((probe,) if probe != sched[-1] else ())


@pytest.mark.parametrize("spec", ["Z", "Z^2", "Z x C2", "Z x C3", "Z^3"])
def test_bisected_schedule_top_matches_probing(spec):
    folner = FolnerFamily(parse_group(spec))
    for cap in (1, 2, 3, 1000, 1024, 4096, 10000, DEFAULT_ELEMENT_BUDGET):
        assert window_schedule(folner, cap) == _probed_schedule(folner, cap), cap


def test_runs_of_flattened_blocks_in_any_order():
    """Windows whose later widths multiply to a number that is not a power of
    two, given in any order and mixed with table windows, each against the
    window gathered on its own."""
    rng = np.random.default_rng(24)
    box = _line_profile(rng, 20 * 9 * 8, "mixed").reshape(20, 9, 8)
    starts = tuple(rng.integers(0, 4, size=(3, 30)))
    windows = [(8, 3, 2), (2, 2, 2), (5, 3, 2), (3, 6, 3), (1, 3, 2), (16, 4, 4), (6, 5, 5)]
    for win, means in zip(windows, window_means(box, starts, windows), strict=True):
        rows = sliding_window_view(box, win)[starts].reshape(len(starts[0]), -1)
        assert means.tobytes() == tree_mean_rows(rows).tobytes(), win


def test_runs_keep_within_a_few_boxes_of_memory():
    """The flattened blocks of a bisected Z^2 top come a chunk at a time, so
    the peak allocation stays within a few boxes; all 21 blocks of the top
    (100, 100) at once would take 17.5 boxes."""
    group = parse_group("Z^2")
    plan = _scan_plan(group, 10000, None, 10, EstimatorConfig().element_budget)
    assert plan.windows[-1] == (100, 100)
    assert len(set(plan.starts[1].tolist())) == 21
    box = np.random.default_rng(25).random(plan.shape)
    tracemalloc.start()
    try:
        window_means(box, plan.starts, plan.windows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * box.nbytes


def test_dyadic_table_rejects_bad_requests():
    vals = np.arange(16, dtype=np.float64)
    with pytest.raises(ValueError, match="shrink"):
        list(window_means(vals, (np.asarray([0]),), [(4,), (2,)]))
    with pytest.raises(ValueError, match="out of the box"):
        list(window_means(vals, (np.asarray([1]),), [(16,)]))
    with pytest.raises(ValueError, match="out of the box"):
        list(window_means(vals, (np.asarray([-1]),), [(2,)]))
    with pytest.raises(ValueError, match="out of the box"):
        list(window_means(vals, (np.asarray([4]),), [(2,), (13,)]))


# (group, m_max, radius, whether a window is read as runs of flattened
# blocks): dyadic plans, bisected tops on Z and Z^2, and C3's runs
STACK_CASES = [("Z", 1024, 16, False), ("Z", 1000, 8, False), ("Z^2", 256, 4, False),
               ("Z x C2", 256, 4, False), ("Z^2", 48, 4, True), ("Z x C3", 256, 4, True)]


@pytest.mark.parametrize("spec,m_max,radius,runs", STACK_CASES,
                         ids=[f"{c[0]}-{c[1]}" for c in STACK_CASES])
def test_a_stack_of_boxes_gives_each_box_its_own_means(spec, m_max, radius, runs):
    """window_means over a (2, 3) stack of boxes gives each box the bits of
    its own call, with +inf, -inf and +inf + -inf (NaN) entries. The runs of
    flattened blocks (C3, a bisected Z^2 top) take stacks too. A window out
    of the stacked boxes still raises."""
    plan = _scan_plan(parse_group(spec), m_max, None, radius, DEFAULT_ELEMENT_BUDGET)
    assert runs == any(size // win[0] & (size // win[0] - 1)
                       for size, win in zip(plan.sizes, plan.windows))
    boxes = np.random.default_rng(26).random((2, 3) + plan.shape)
    mid = math.prod(plan.shape) // 2  # mid-box, which the largest windows reach
    boxes[0, 1].flat[mid], boxes[1, 0].flat[mid] = np.inf, -np.inf
    boxes[1, 2].flat[mid], boxes[1, 2].flat[mid + 1] = np.inf, -np.inf
    if plan.pad:
        boxes = np.pad(boxes, ((0, 0), (0, 0)) + plan.pad, mode="wrap")
    got = window_means(boxes, plan.starts, plan.windows)
    for b in np.ndindex(2, 3):
        own = window_means(boxes[b], plan.starts, plan.windows)
        assert [means[b].tobytes() for means in got] == [means.tobytes() for means in own]
    assert np.isposinf(got[-1][0, 1]).any() and np.isneginf(got[-1][1, 0]).any()
    assert np.isnan(got[-1][1, 2]).any()
    with pytest.raises(ValueError, match="out of the box"):
        window_means(boxes[..., :-1], plan.starts, plan.windows)


def test_floor_step_is_the_remainder_bitwise():
    """The batched walks' mod-1 step x - floor(x) gives the bits of
    np.remainder(x, 1.0) and of Python's x % 1.0 on edge values (signed
    zeros, a tiny negative that rounds to 1.0, integers from 2^52 up,
    subnormals, huge values) and on floats spanning exponents -30..30."""
    one_below = math.nextafter(1.0, 0.0)
    edges = [0.0, -0.0, -1e-17, one_below, -one_below, 2.0 ** 52, -2.0 ** 52,
             2.0 ** 53 + 2, -(2.0 ** 53 + 2), 5e-324, -5e-324, 1e308, -1e308]
    rng = np.random.default_rng(27)
    spread = rng.uniform(-1.0, 1.0, 200_000) * 2.0 ** rng.integers(-30, 31, 200_000)
    x = np.concatenate((edges, spread))
    got = x - np.floor(x)
    assert got.tobytes() == np.remainder(x, 1.0).tobytes()
    assert got.tobytes() == np.asarray([v % 1.0 for v in x.tolist()]).tobytes()
    assert got[2] == 1.0 and math.copysign(1.0, got[1]) == 1.0

# ---------------------------------------------------------------------------
# the row sampler of the modulus probes against one pair at a time

def test_cube_root_is_correctly_rounded():
    """Each root is within half an ulp of the true one, checked in exact
    rationals: the cube of the midpoint to each neighbouring float lies on
    the far side of u. Draws, exact cubes, binade ends and subnormals; the
    integer root of 18802 * 2^-1074 ends in a midpoint, so only its nonzero
    remainder rounds it up."""
    rng = np.random.default_rng(26)
    sample = rng.random(3000).tolist() + [
        0.125, 27.0, 1.0, 0.5, 2.0 ** -53, 1.0 - 2.0 ** -53, 5e-324, 1e-310, 1e300,
        18802 * 5e-324]
    for u in sample:
        r = rds._cube_root(u)
        below = (Fraction(r) + Fraction(math.nextafter(r, 0.0))) / 2
        above = (Fraction(r) + Fraction(math.nextafter(r, math.inf))) / 2
        assert below ** 3 < Fraction(u) < above ** 3, u
    assert [rds._cube_root(u) for u in (0.0, 0.125, 27.0)] == [0.0, 0.5, 3.0]


def _reference_sample_near(fs, x, delta, rng):
    # the near step of one pair in Python floats, one draw after another
    if fs.slices is None:
        free = list(range(fs.dim))
    else:
        sl = next(s for s in fs.slices
                  if all(rds._fold((x[ax] - val) % 1.0) <= rds.MEMBERSHIP_TOL for ax, val in s))
        free = [ax for ax in range(fs.dim) if ax not in {ax for ax, _ in sl}]
        x = list(x)
        for ax, val in sl:
            x[ax] = val
    if not free:
        return tuple(x)
    vec = rng.standard_normal(len(free)).tolist()
    s = 0.0
    for c in vec:
        s += c * c
    norm = math.sqrt(s)
    if norm == 0.0:
        return tuple(x)
    u = rng.random()
    radius = delta * (u if len(free) == 1 else math.sqrt(u) if len(free) == 2
                      else rds._cube_root(u))
    out = list(x)
    for ax, comp in zip(free, vec):
        out[ax] = (out[ax] + radius * comp / norm) % 1.0
    return tuple(out)


def _reference_pair(system, delta, rng):
    support = system.base.support
    p = np.asarray([system.base.weights[i] for i in support])
    idx = support[int(rng.choice(len(support), p=p / p.sum()))]
    fs = system.fibers[idx]
    x = [float(v) for v in rng.random(fs.dim)]
    if fs.slices is not None:
        for ax, val in fs.slices[int(rng.integers(len(fs.slices)))]:
            x[ax] = val
    return tuple(x), _reference_sample_near(fs, tuple(x), delta, rng)


def _sampling_system(dim, weights, slices):
    # one fiber per base point: "full" or a list of slices
    n = len(weights)
    eye = [[int(i == j) for j in range(dim)] for i in range(dim)]
    return catalog.build_system({
        "group": "Z", "dim": dim,
        "base": {"labels": [f"w{i}" for i in range(n)], "weights": list(weights),
                 "perms": [list(range(n))]},
        "fibers": [s if s == "full" else {"slices": s} for s in slices],
        "maps": [[{"matrix": eye}] * n],
    })


# per dimension, beside a full fiber: a fiber whose slices leave 0 to dim
# free axes, one slice inside another up to the membership tolerance (its
# points step from the first slice, on its free axes and fixed values); and
# a one-point fiber
SLICED_FIBERS = {
    1: [[[[0, 0.3]], []], [[[0, 0.75]]]],
    2: [[[[0, 0.25]], [[0, 0.25 + 5e-10], [1, 0.5]], [[1, 0.75]], []],
        [[[0, 0.625], [1, 0.125]]]],
    3: [[[[0, 0.5]], [[0, 0.5 - 5e-10], [2, 0.25]], [[1, 0.125], [2, 0.875]], []],
        [[[0, 0.3], [1, 0.4], [2, 0.5]]]],
}


def _pair_bits(pair):
    x, y = pair
    return [v.hex() for v in x], [v.hex() for v in y]


# weights for systems whose fibers are slices at distinct values, so a
# pair's x shows the fiber drawn: a weight of 0 is never drawn
SUPPORT_WEIGHTS = [(0.5, 0.5), (1.0,), (0.2, 0.3, 0.5), (0.25, 0.0, 0.75)]


class _Philox(np.random.Generator):
    """A plain generator on the Philox bit generator, seeded as the bit
    generator it is given."""

    def __init__(self, bit_generator):
        super().__init__(np.random.Philox(bit_generator.seed_seq))


@pytest.mark.parametrize("generator", [np.random.Generator, _FlatNormals, _Philox])
@pytest.mark.parametrize("delta", [1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
@pytest.mark.parametrize("sliced", [False, True], ids=["full", "sliced"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_row_sampler_matches_single_draws(dim, sliced, delta, generator):
    """The row sampler's pairs are those of single draws, bitwise, with the
    fiber of each drawn as rng.choice draws it by weight, on PCG64 and on
    Philox."""
    if sliced:
        systems = [_sampling_system(dim, (0.25, 0.5, 0.25), ["full", *SLICED_FIBERS[dim]])]
        systems += [_sampling_system(dim, w, [[[[0, (i + 1) / 8]]] for i in range(len(w))])
                    for w in SUPPORT_WEIGHTS]
    else:
        systems = [_sampling_system(dim, (0.5, 0.5), ["full", "full"])]
    for system in systems:
        for seed in range(4):
            for n in (1, 2, 40):
                ref = generator(np.random.PCG64(seed))
                new = generator(np.random.PCG64(seed))
                expected = [_reference_pair(system, delta, ref) for _ in range(n)]
                got = _sample_pairs(system, delta, new, n)
                assert list(map(_pair_bits, got)) == list(map(_pair_bits, expected))
                # repr: Philox's state holds arrays
                assert repr(new.bit_generator.state) == repr(ref.bit_generator.state)


class _TinyUniforms(np.random.Generator):
    """A generator a quarter of whose uniforms are below 2.5e-29: a point
    coordinate so near 0 that a step of delta 1e-20 down from it is a tiny
    negative number, which mod 1 rounds to 1.0."""

    def random(self, size=None, dtype=np.float64, out=None):
        z = super().random(size, dtype, out)
        z[z < 0.25] *= 1e-28
        return z


@pytest.mark.parametrize("generator", [np.random.Generator, _FlatNormals, _TinyUniforms])
@pytest.mark.parametrize("sliced", [False, True], ids=["full", "sliced"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_row_norms_match_the_sampled_pairs(dim, sliced, generator):
    """The one-pass norms of a row are fold_norm(torus_delta(x, y)) of the
    row sampler's pairs, bitwise, from the same draws: on 0 to dim free
    axes, zero-norm directions, overlapping slices and steps that wrap to
    1.0."""
    if sliced:
        system = _sampling_system(dim, (0.25, 0.5, 0.25), ["full", *SLICED_FIBERS[dim]])
    else:
        system = _sampling_system(dim, (0.5, 0.5), ["full", "full"])
    for delta in (1e-1, 1e-4, 1e-6, 1e-20):
        for seed in range(3):
            ref = generator(np.random.PCG64(seed))
            new = generator(np.random.PCG64(seed))
            want = [fold_norm(torus_delta(x, y)) for x, y in _sample_pairs(system, delta, ref, 40)]
            got = _row_norms(system, delta, new, 40).tolist()
            assert list(map(float.hex, got)) == list(map(float.hex, want))
            assert new.bit_generator.state == ref.bit_generator.state


class _ZeroDirection(np.random.Generator):
    """A generator that zeroes each Gaussian direction whose first value is
    ``target``, so the direction drawn at one place in the stream has norm
    0 however often that place is drawn; it records every direction's first
    value as drawn, and counts the zeroed ones."""

    def __init__(self, bit_generator, target=None):
        super().__init__(bit_generator)
        self.target, self.firsts, self.zeroed = target, [], 0

    def standard_normal(self, size=None, dtype=np.float64, out=None):
        z = super().standard_normal(size, dtype, out)
        self.firsts.append(float(z[0]))
        if z[0] == self.target:
            z[:] = 0.0
            self.zeroed += 1
        return z


@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("sliced", [False, True], ids=["full", "sliced"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_a_zero_norm_row_equals_single_draws(dim, sliced, where):
    """A row with a zero-norm direction at its first, a middle or its last
    direction gives the pairs, norms and generator state of single draws,
    bitwise. With every support fiber full the row is drawn twice: the
    zero norm is met, the state restored, and the row drawn pair by pair."""
    if sliced:
        system = _sampling_system(dim, (0.25, 0.5, 0.25), ["full", *SLICED_FIBERS[dim]])
    else:
        system = _sampling_system(dim, (0.5, 0.5), ["full", "full"])
    n, delta = 40, 1e-2
    for seed in range(3):
        probe = _ZeroDirection(np.random.PCG64(seed))
        for _ in range(n):
            _reference_pair(system, delta, probe)
        target = probe.firsts[{"first": 0, "middle": len(probe.firsts) // 2, "last": -1}[where]]

        def generator():
            return _ZeroDirection(np.random.PCG64(seed), target)

        ref = generator()
        expected = [_reference_pair(system, delta, ref) for _ in range(n)]
        assert ref.zeroed == 1
        new = generator()
        got = list(_sample_pairs(system, delta, new, n))
        assert list(map(_pair_bits, got)) == list(map(_pair_bits, expected))
        assert new.bit_generator.state == ref.bit_generator.state
        assert new.zeroed == (1 if sliced else 2)
        new = generator()
        want = [fold_norm(torus_delta(x, y)) for x, y in expected]
        got = _row_norms(system, delta, new, n).tolist()
        assert list(map(float.hex, got)) == list(map(float.hex, want))
        assert new.bit_generator.state == ref.bit_generator.state


CONSTANTS = (0.0, -0.0, 5e-324, 0.1, 1 / 3, 0.3125, math.sqrt(0.75), 1e308, -1e308,
             math.inf, -math.inf)


@pytest.mark.parametrize("size", [*range(1, 40), 127, 128, 129, 1000, 1023, 4097])
def test_constant_mean_rows_is_the_tree_on_constant_rows(size):
    """The O(log size) mean of a constant row has the bits of the tree over
    the whole row, through signed zero, a subnormal, overflow and
    infinities, in an array of constants and on each value alone."""
    c = np.asarray(CONSTANTS)
    want = tree_mean_rows(np.repeat(c[:, None], size, axis=1)).tolist()
    got = _windows.constant_mean_rows(c, size).tolist()
    assert list(map(float.hex, got)) == list(map(float.hex, want))
    singles = [float(_windows.constant_mean_rows(v, size)) for v in CONSTANTS]
    assert list(map(float.hex, singles)) == list(map(float.hex, want))


def test_scan_plan_is_cached_but_budget_errors_are_not(monkeypatch):
    """Every scan takes its schedule, ball and box from one cached plan: the
    Banach scans of three pairs and of one separation set build the ball
    once. An over-budget plan raises on every call."""
    built = []

    def counting(*args):
        built.append(args)
        return search_ball(*args)

    monkeypatch.setattr(pseudometrics, "search_ball", counting)
    pseudometrics._cached_plan.cache_clear()
    system = catalog.build_system(Z2_CAT)
    cfg = EstimatorConfig(m_max=64, search_radius=6)
    for x, y in [((0.1, 0.2), (0.1004, 0.2002)), ((0.3, 0.4), (0.31, 0.4)),
                 ((0.5, 0.5), (0.5, 0.52))]:
        pseudometrics.banach_mean(pair_source(system, x, y), cfg)
    src = pair_source(system, (0.1, 0.2), (0.2, 0.3))
    banach_upper_density(separation_set(src, 0.05), cfg)
    assert built == [(system.group, 6, cfg.element_budget)]
    for _ in range(2):
        with pytest.raises(BudgetError, match="box"):
            _scan_plan(system.group, 64, None, 30, 100)
    assert len(built) == 1
