"""Fiber maps, fiber domains, the skew action, separation walks, validate."""

import copy
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from grid_fixtures import Z2_CAT, Z_SLICED, ZXC2_ROT
from test_catalog import GRID_SPECS, SLICED
from test_pseudometrics import GATE_SECONDS
from meanrds import rds
from meanrds.groups import GroupSpecError, parse_group
from meanrds.rds import (
    BaseSpace,
    DomainError,
    FiberMap,
    FiberSpace,
    PairEngine,
    RandomDynamicalSystem,
    SystemSpecError,
    fold_norm,
    reduce_point,
    torus_delta,
    torus_distance,
    validate,
)
from meanrds import catalog

CAT = ((2, 1), (1, 1))


def test_torus_distance_folds():
    assert torus_distance((0.1,), (0.9,)) == pytest.approx(0.2, abs=1e-15)
    assert torus_distance((0.0, 0.0), (0.5, 0.75)) == pytest.approx(
        math.hypot(0.5, 0.25), abs=1e-15
    )
    assert torus_distance((0.3, 0.3), (0.3, 0.3)) == 0.0


def test_torus_delta_and_reduce():
    assert reduce_point((1.25, -0.25)) == (0.25, 0.75)
    d = torus_delta((0.1,), (0.9,))
    assert d == ((0.1 - 0.9) % 1.0,)
    assert fold_norm(d) == min(d[0], 1 - d[0])


def test_mod_one_never_returns_one():
    """Python's % rounds 1 - tiny up to 1.0; every reduction maps that to
    the torus point 0.0, so coordinates and differences lie in [0, 1)."""
    assert (-1e-20) % 1.0 == 1.0
    assert reduce_point([-1e-20]) == (0.0,)
    assert reduce_point([-5e-324, 1.0, -1.0]) == (0.0, 0.0, 0.0)
    assert torus_delta([0.3], [0.3 + 2**-54]) == (0.0,)
    assert torus_delta([0.0], [5e-324]) == (0.0,)
    assert torus_delta([1 - 2**-53], [0.0]) == (1 - 2**-53,)
    assert FiberMap(((1,),), (-1e-20,)).shift == (0.0,)
    assert FiberSpace(1, (((0, -1e-20),),)).slices == (((0, 0.0),),)
    assert rds._near_point((0.0,), (0,), [-1.0], 1.0, 1.0, 1e-20) == (0.0,)
    # on rot1-trivial the walked line from that pair is 0.0 throughout, as
    # the identity-cycle shortcut gives it
    eng = PairEngine(catalog.load("rot1-trivial"), (0.3,), (0.3 + 2**-54,))
    assert eng.delta0 == (0.0,)
    assert eng.fiber_range(0, (-3,), (4,)).tolist() == [0.0] * 7


def test_fiber_map_requires_unimodular():
    FiberMap(CAT, (0.0, 0.0))
    with pytest.raises(SystemSpecError):
        FiberMap(((2, 0), (0, 1)), (0.0, 0.0))
    with pytest.raises(SystemSpecError):
        FiberMap(((1, 0.5), (0, 1)), (0.0, 0.0))


def _exact_image(mat, x, c):
    """Mx + c mod 1 in Fractions, correctly rounded to floats by float(),
    with 1.0 taken to the torus point 0.0."""
    out = []
    for row, ci in zip(mat, c):
        r = float((sum(a * Fraction(v) for a, v in zip(row, x)) + Fraction(ci)) % 1)
        out.append(0.0 if r == 1.0 else r)
    return tuple(out)


def _one_point_system(fm):
    """Z acting on one base point, whose full-torus fiber the generator
    maps by fm."""
    return RandomDynamicalSystem(
        name="one-point",
        group=parse_group("Z"),
        base=BaseSpace(("w0",), (1.0,), ((0,),)),
        dim=fm.dim,
        fibers=(FiberSpace.full(fm.dim),),
        maps=((fm,),),
    )


@pytest.mark.parametrize("matrix", [
    CAT,
    ((1, 1), (0, 1)),
    ((0, 1, 0), (1, 0, 0), (0, 0, 1)),
    ((1, 1, 0), (1, 2, 1), (0, 1, 2)),
], ids=["cat", "shear", "swap3", "hyperbolic3"])
def test_fiber_map_arithmetic_is_exact_then_rounded_once(matrix):
    """The system's apply, at the generator and at its inverse, gives the
    exact image rounded once, as a Fraction oracle computes it, on random
    points and shifts and on ones whose image rounds to 1.0."""
    n = len(matrix)
    inv = rds._mat_inverse(matrix)
    assert rds._mat_mul(inv, matrix) == rds._identity_matrix(n)
    rng = np.random.default_rng(3)
    draws = [tuple(rng.random(n).tolist()) for _ in range(40)]
    draws += [tuple(rng.uniform(-1e6, 1e6, n).tolist()) for _ in range(10)]
    draws += [(1 - 2**-53,) * n, (2**-54 + 2**-60,) * n, (5e-324,) * n, (0.0,) * n]
    for c, x in zip(draws, draws[1:] + draws[:1]):
        system = _one_point_system(FiberMap(matrix, c))
        shift = system.maps[0][0].shift  # c mod 1
        assert system.apply((1,), "w0", x) == _exact_image(matrix, x, shift)
        back = [Fraction(v) - Fraction(s) for v, s in zip(x, shift)]
        assert system.apply((-1,), "w0", x) == _exact_image(inv, back, (0,) * n)
    # 1 - 2^-54 + 2^-60 lies above the midpoint of 1 - 2^-53 and 1.0, so it
    # rounds to 1.0, the point 0.0
    rotation = _one_point_system(FiberMap.rotation((1 - 2**-53,)))
    assert rotation.apply((1,), "w0", (2**-54 + 2**-60,)) == (0.0,)


def test_fiber_space_slices():
    fs = FiberSpace(2, (((0, 0.25),), ((1, 0.5),)))
    assert fs.contains((0.25, 0.9))
    assert fs.contains((0.7, 0.5))
    assert not fs.contains((0.3, 0.3))
    assert fs.membership_residual((0.3, 0.3)) == pytest.approx(0.05)
    rng = np.random.default_rng(0)
    for _ in range(20):
        assert fs.contains(fs.sample(rng))
    x = (0.25, 0.4)
    for _ in range(20):
        y = fs.sample_near(x, 0.05, rng)
        assert fs.contains(y)
        assert torus_distance(x, y) < 0.05


def test_fiber_space_grid():
    full = FiberSpace.full(1)
    assert full.grid(8) == tuple((k / 8,) for k in range(8))
    sliced = FiberSpace(2, (((0, 0.5),),))
    pts = sliced.grid(4)
    assert len(pts) == 4
    assert all(p[0] == 0.5 for p in pts)


def test_sample_near_stays_strictly_inside_ball():
    fs = FiberSpace.full(3)
    rng = np.random.default_rng(5)
    x = fs.sample(rng)
    for delta in (0.3, 1e-4):
        for _ in range(50):
            assert torus_distance(x, fs.sample_near(x, delta, rng)) < delta


def _act(base, g, omega_idx):
    """The base point that the group element g moves omega_idx to, one
    generator's power at a time."""
    for i, steps in enumerate(g):
        omega_idx = base.act_generator(i, omega_idx, steps)
    return omega_idx


def test_base_space_checks():
    with pytest.raises(SystemSpecError):
        BaseSpace(("a", "b"), (0.5, 0.5), ((0, 0),))  # not a bijection
    with pytest.raises(SystemSpecError):
        BaseSpace(("a",), (-1.0,), ((0,),))
    base = BaseSpace(("a", "b", "c"), (0.2, 0.3, 0.5), ((1, 2, 0),))
    assert base.act_generator(0, 0, 1) == 1
    assert base.act_generator(0, 0, 3) == 0
    assert base.act_generator(0, 0, -1) == 2
    assert _act(base, (5,), 0) == 2
    assert base.support == (0, 1, 2)


def test_base_space_support_is_one_read_only_snapshot():
    base = BaseSpace(("a", "b", "c"), (0.25, 0.0, 0.75), ((0, 1, 2),))
    assert base.support is base.support == (0, 2)
    assert len(base.support_cdf) == len(base.support)
    with pytest.raises(AttributeError):
        base.support = (0, 1, 2)


def _two_fiber_example():
    """One fiber applies the identity, the other the cat matrix."""
    base = BaseSpace(("w0", "w1"), (0.5, 0.5), ((1, 0),))
    return RandomDynamicalSystem(
        name="example",
        group=parse_group("Z"),
        base=base,
        dim=2,
        fibers=(FiberSpace.full(2), FiberSpace.full(2)),
        maps=((FiberMap.identity(2), FiberMap(CAT, (0.0, 0.0))),),
    )


def test_dtilde_two_fiber_example():
    sys_ = _two_fiber_example()
    x = (0.0, 0.0)
    y = (0.25, 0.0)
    # at t=1: the identity fiber keeps distance 0.25, the cat fiber sends
    # (0.25, 0) to (0.5, 0.25)
    expected = math.hypot(0.5, 0.25)
    vals = PairEngine(sys_, x, y).dtilde_range((0,), (2,))
    assert vals[1] == pytest.approx(expected, abs=1e-15)
    assert vals[0] == pytest.approx(0.25, abs=1e-15)


def test_dtilde_no_common_fiber_is_infinite():
    base = BaseSpace(("w0", "w1"), (0.5, 0.5), ((0, 1),))
    sys_ = RandomDynamicalSystem(
        name="disjoint",
        group=parse_group("Z"),
        base=base,
        dim=2,
        fibers=(
            FiberSpace(2, (((0, 0.0),),)),
            FiberSpace(2, (((0, 0.5),),)),
        ),
        maps=((FiberMap.identity(2), FiberMap.identity(2)),),
    )
    x = (0.0, 0.3)
    y = (0.5, 0.3)
    assert sys_.admissible_fibers(x, y) == ()
    assert PairEngine(sys_, x, y).dtilde_range((3,), (4,))[0] == math.inf
    # points sharing the first slice are fine
    shared = PairEngine(sys_, (0.0, 0.1), (0.0, 0.4))
    assert shared.dtilde_range((3,), (4,))[0] == pytest.approx(0.3)


def test_apply_composes_rotations():
    sys_ = catalog.load("rot2")
    a0, a1 = catalog.ROT2_ANGLES
    out = sys_.apply((2,), "w0", (0.0,))
    assert out[0] == pytest.approx((a0 + a1) % 1.0, abs=1e-15)
    back = sys_.apply((-2,), "w0", out)
    assert torus_distance(back, (0.0,)) <= 1e-15


def test_pair_engine_matches_apply():
    """The difference walk must agree with applying the cocycle to both
    points and measuring the distance."""
    for name in ("rot2", "cat2", "mixed"):
        sys_ = catalog.load(name)
        rng = np.random.default_rng(11)
        x = tuple(rng.random(sys_.dim))
        y = tuple(rng.random(sys_.dim))
        eng = PairEngine(sys_, x, y)
        for w in range(sys_.base.size):
            for t in (-7, -1, 0, 1, 2, 13):
                via_walk = eng.fiber_range(w, (t,), (t + 1,))[0]
                fx = sys_.apply((t,), w, x)
                fy = sys_.apply((t,), w, y)
                assert via_walk == pytest.approx(torus_distance(fx, fy), abs=1e-9)


@pytest.mark.parametrize("system,pairs", [
    (catalog.load("mixed"), [((1.25, -0.5), (-1e-18, 0.75)), ((0.1, 0.2), (3.0, -2.5))]),
    (catalog.build_system(SLICED), [((1.25, 1.5), (-0.5, -0.5)), ((-1e-18, 0.5), (0.3, 2.5)),
                                   ((1.25, 1.5), (0.3, 0.4))]),
], ids=["mixed", "sliced"])
def test_pair_engine_reduces_each_point_once(system, pairs, monkeypatch):
    """An engine folds each point into [0, 1) once, and its admissible
    fibers are those of the unreduced points."""
    calls = []
    monkeypatch.setattr(rds, "reduce_point", lambda x: calls.append(x) or reduce_point(x))
    for x, y in pairs:
        calls.clear()
        engine = PairEngine(system, x, y)
        assert calls == [x, y]
        assert engine.admissible == system.admissible_fibers(x, y)
    if system.name == "custom":  # (0.3, 0.4) is off the slice y = 1/2
        assert [system.admissible_fibers(x, y) for x, y in pairs] == [(0,), (0,), ()]


def test_pair_engine_ranges_match_pointwise():
    sys_ = catalog.load("cat2")
    eng = PairEngine(sys_, (0.1, 0.2), (0.15, 0.9))
    vals = eng.fiber_range("w1", (-5,), (9,))
    assert vals.shape == (14,)
    fresh = PairEngine(sys_, (0.1, 0.2), (0.15, 0.9))
    for k, t in enumerate(range(-5, 9)):
        assert vals[k] == fresh.fiber_range("w1", (t,), (t + 1,))[0]
    sup = eng.dtilde_range((-5,), (9,))
    assert np.all(sup >= vals)
    mix = eng.integral_range((-5,), (9,))
    assert np.all(mix <= sup + 1e-12)


def test_box_reads_take_tuple_corners_only():
    """A box read keeps its box read-only and returns it again for equal
    corners; an int corner (Python or numpy) is rejected on Z too, and a
    corner of the wrong rank on any group."""
    eng = PairEngine(catalog.load("cat2"), (0.1, 0.2), (0.15, 0.9))
    kept = eng.fiber_range("w1", (-5,), (9,))
    assert not kept.flags.writeable
    assert eng.fiber_range("w1", [-5], (9,)) is kept
    for read in (eng.dtilde_range, eng.integral_range,
                 lambda lo, hi: eng.fiber_range("w1", lo, hi)):
        for lo, hi in ((-5, 9), (np.int64(-5), np.int64(9)), ((-5,), 9)):
            with pytest.raises(TypeError):
                read(lo, hi)
    grid = PairEngine(catalog.build_system(Z2_CAT), (0.1, 0.2), (0.15, 0.9))
    with pytest.raises(GroupSpecError, match="wrong rank"):
        grid.fiber_range(0, (-5,), (9,))


def test_integral_requires_membership_everywhere():
    base = BaseSpace(("w0", "w1"), (0.5, 0.5), ((0, 1),))
    sys_ = RandomDynamicalSystem(
        name="halfslice",
        group=parse_group("Z"),
        base=base,
        dim=1,
        fibers=(FiberSpace.full(1), FiberSpace(1, (((0, 0.5),),))),
        maps=((FiberMap.rotation((0.0,)), FiberMap.identity(1)),),
    )
    eng = PairEngine(sys_, (0.1,), (0.2,))
    assert eng.admissible == (0,) != sys_.base.support
    with pytest.raises(DomainError):
        eng.integral_range((0,), (4,))


WALK_SPECS = {**GRID_SPECS, Z_SLICED["name"]: Z_SLICED}


@pytest.mark.parametrize("name", [*catalog.names(), *WALK_SPECS])
def test_element_walk_is_a_cocycle(name):
    """On seeded g1, g2, w and x the walk of g2 g1 from w is the walk of g1
    from w, then of g2 from its end, on exact numerators; the identity
    element walks nowhere. Both follow from the relators, which validate
    checks: this is the oracle of the walk."""
    sys_ = catalog.build_system(WALK_SPECS[name]) if name in WALK_SPECS else catalog.load(name)
    grp = sys_.group
    rng = np.random.default_rng(11)
    ident = rds._identity_matrix(sys_.dim)

    def draw():
        return tuple(int(rng.integers(-3, 4)) if k is None else int(rng.integers(0, k))
                     for k in grp.generator_orders())

    for _ in range(16):
        g1, g2 = draw(), draw()
        w = int(rng.integers(sys_.base.size))
        x = rds._numerators(sys_.fibers[w].sample(rng))
        w1, m1, mid = sys_._element_walk(g1, w, x)
        w2, m2, end = sys_._element_walk(g2, w1, mid)
        assert sys_._element_walk(grp.multiply(g2, g1), w, x) == (w2, rds._mat_mul(m2, m1), end)
        assert sys_._element_walk(grp.identity(), w, x) == (w, ident, x)


def test_validate_needs_words_of_two_letters():
    """A relator is a word of two letters or more: Z has none, Z^2 has the
    commutator [s0, s1], and Z x C2 adds s1^2. relation-words checks
    exactly those, on every system."""
    for sys_, names in ((catalog.load("rot2"), []),
                        (catalog.build_system(Z2_CAT), ["[s0, s1]"]),
                        (catalog.build_system(ZXC2_ROT), ["[s0, s1]", "s1^2"])):
        relators = rds._relators(sys_.group)
        assert [name for name, _ in relators] == names
        assert all(len(word) >= 2 for _, word in relators)
        (words,) = [c for c in validate(sys_).checks if c.name == "relation-words"]
        assert words.passed and words.detail == f"{len(names)} relators checked exactly"


def test_validate_takes_bounded_time_at_any_word_length():
    """validate checks the relators, not words up to some length, and takes
    no length to bound: rot2 and z2-cat pass within the gate."""
    start = time.perf_counter()
    assert validate(catalog.load("rot2")).ok
    assert validate(catalog.build_system(Z2_CAT)).ok
    assert time.perf_counter() - start < GATE_SECONDS
    with pytest.raises(TypeError, match="max_word_length"):
        validate(catalog.load("rot2"), max_word_length=24)


def test_sliced_fixture_fails_only_its_domain_coverage():
    """Generator s0 at w1 carries the slice {y = 0.75} onto {y = 0}, which
    lies in no slice of w1: 0.25 from {y = 0.75}."""
    rep = validate(catalog.build_system(Z_SLICED))
    (row,) = [c for c in rep.checks if not c.passed]
    assert row.name == "fiber-domain-coverage"
    assert row.residual == 0.25 and row.detail == "generator s0 at w1"


def _one_sliced_fiber(matrix):
    """Z acting on one base point whose fiber is the circle {y = 1/2} of
    T^2, by x -> matrix x."""
    return RandomDynamicalSystem(
        name="one-slice",
        group=parse_group("Z"),
        base=BaseSpace(("w0",), (1.0,), ((0,),)),
        dim=2,
        fibers=(FiberSpace(2, (((1, 0.5),),)),),
        maps=((FiberMap(matrix, (0.0, 0.0)),),),
    )


@pytest.mark.parametrize("matrix,residual", [
    (((1, 1), (0, 1)), 0.0),
    (((1, 0), (1, 1)), math.inf),
], ids=["row-1-zero-on-x", "row-1-moves-y"])
def test_domain_coverage_is_exact_on_a_shear(matrix, residual):
    """{y = 1/2} is carried into itself when row 1 of the matrix is 0 on the
    free axis x, and swept over the whole torus when it is not."""
    rep = validate(_one_sliced_fiber(matrix))
    row = {c.name: c for c in rep.checks}["fiber-domain-coverage"]
    assert row.residual == residual and row.passed is (residual == 0.0)
    assert row.detail == ("" if row.passed else "generator s0 at w0")


def test_domain_coverage_sees_a_rounding_defect():
    """Z swaps the slices y = 0.3 and y = 0.4 by the shifts 0.1 and 0.9.
    Up to rounding each lands on the other (the float sum 0.3 + 0.1 is
    0.4), but exactly 0.3 + 0.1 misses 0.4 by 2^-55 and 0.4 + 0.9 - 1
    misses 0.3 by 2^-54: coverage fails by the worse, at b."""
    spec = {
        "group": "Z",
        "dim": 2,
        "base": {"labels": ["a", "b"], "weights": [0.5, 0.5], "perms": [[1, 0]]},
        "fibers": [{"slices": [[[1, 0.3]]]}, {"slices": [[[1, 0.4]]]}],
        "maps": [[{"matrix": [[1, 0], [0, 1]], "shift": [0.0, 0.1]},
                  {"matrix": [[1, 0], [0, 1]], "shift": [0.0, 0.9]}]],
    }
    rep = validate(catalog.build_system(spec))
    (row,) = [c for c in rep.checks if not c.passed]
    assert Fraction(0.3) + Fraction(0.1) - Fraction(0.4) == -Fraction(1, 2**55)
    assert Fraction(0.4) + Fraction(0.9) - 1 - Fraction(0.3) == Fraction(1, 2**54)
    assert row.name == "fiber-domain-coverage" and row.residual == 2**-54
    assert row.detail == "generator s0 at b"


@pytest.mark.parametrize("defect", [0.5, 0.25, 2**-40])
def test_validate_catches_commutator_defects_exactly(defect):
    """On zxc2-rot, moving the Z generator's shift at w1 by defect breaks
    [s0, s1] by exactly defect, and only that relator."""
    spec = copy.deepcopy(ZXC2_ROT)
    spec["maps"][0][1]["shift"] = [0.625 + defect]
    rep = validate(catalog.build_system(spec))
    row = {c.name: c for c in rep.checks}["relation-words"]
    assert not row.passed and row.residual == defect
    assert row.detail == "relator [s0, s1] at base point w0 leaves a shift"


@pytest.mark.parametrize("make", [
    lambda: FiberMap.rotation((math.nan,)),
    lambda: FiberMap(CAT, (0.0, math.inf)),
    lambda: FiberSpace(2, (((0, math.nan),),)),
    lambda: BaseSpace(("a", "b"), (math.nan, 1.0), ((0, 1),)),
    lambda: BaseSpace(("a", "b"), (math.inf, 1.0), ((0, 1),)),
], ids=["shift-nan", "shift-inf", "slice-nan", "weight-nan", "weight-inf"])
def test_non_finite_system_numbers_are_rejected(make):
    with pytest.raises(SystemSpecError, match="not finite"):
        make()


def test_validate_passes_on_z2_commuting_rotations():
    grp = parse_group("Z^2")
    base = BaseSpace(("w0",), (1.0,), ((0,), (0,)))
    sys_ = RandomDynamicalSystem(
        name="torus-translation",
        group=grp,
        base=base,
        dim=1,
        fibers=(FiberSpace.full(1),),
        maps=(
            (FiberMap.rotation((math.sqrt(2) - 1,)),),
            (FiberMap.rotation((math.sqrt(3) - 1,)),),
        ),
    )
    rep = validate(sys_)
    assert rep.ok
    assert rep.worst_residual < 1e-12


def test_validate_catches_noncommuting_matrices():
    """Two hyperbolic generators over a one-point base only commute if the
    matrices do; the commutator relator must spot the failure."""
    grp = parse_group("Z^2")
    base = BaseSpace(("w0",), (1.0,), ((0,), (0,)))
    sys_ = RandomDynamicalSystem(
        name="broken",
        group=grp,
        base=base,
        dim=2,
        fibers=(FiberSpace.full(2), ),
        maps=(
            (FiberMap(CAT, (0.0, 0.0)),),
            (FiberMap(((1, 1), (0, 1)), (0.0, 0.0)),),
        ),
    )
    rep = validate(sys_)
    row = {c.name: c for c in rep.checks}["relation-words"]
    assert not row.passed and row.residual == math.inf
    assert row.detail.startswith("relator [s0, s1] at base point w0 composes to matrix")
    assert not rep.ok


def test_validate_catches_wrong_cyclic_order():
    grp = parse_group("Z x C2")
    # the C2 generator acts as a 3-cycle: order violated
    base = BaseSpace(("a", "b", "c"), (0.4, 0.3, 0.3), ((0, 1, 2), (1, 2, 0)))
    sys_ = RandomDynamicalSystem(
        name="badorder",
        group=grp,
        base=base,
        dim=1,
        fibers=(FiberSpace.full(1),) * 3,
        maps=(
            (FiberMap.identity(1),) * 3,
            (FiberMap.identity(1),) * 3,
        ),
    )
    rep = validate(sys_)
    names = {c.name: c for c in rep.checks}
    assert not names["base-action-relations"].passed


def test_validate_catches_fiber_domain_escape():
    base = BaseSpace(("w0", "w1"), (0.5, 0.5), ((1, 0),))
    sys_ = RandomDynamicalSystem(
        name="escape",
        group=parse_group("Z"),
        base=base,
        dim=2,
        # the generator maps w0 onto w1 but the slice values do not match
        fibers=(FiberSpace(2, (((0, 0.0),),)), FiberSpace(2, (((0, 0.25),),))),
        maps=((FiberMap.identity(2), FiberMap.identity(2)),),
    )
    rep = validate(sys_)
    names = {c.name: c for c in rep.checks}
    assert not names["fiber-domain-coverage"].passed
    assert names["fiber-domain-coverage"].residual == 0.25


def test_validate_zxc2_swap_system():
    """Both generators swap the two fibers. Over a non-free base action the
    generator angles must satisfy a matching equation; these dyadic choices
    do (the differences across fibers agree and the C2 angles sum to 1)."""
    grp = parse_group("Z x C2")
    base = BaseSpace(("w0", "w1"), (0.5, 0.5), ((1, 0), (1, 0)))
    sys_ = RandomDynamicalSystem(
        name="zxc2",
        group=grp,
        base=base,
        dim=1,
        fibers=(FiberSpace.full(1), FiberSpace.full(1)),
        maps=(
            (FiberMap.rotation((0.125,)), FiberMap.rotation((0.625,))),
            (FiberMap.rotation((0.25,)), FiberMap.rotation((0.75,))),
        ),
    )
    rep = validate(sys_)
    assert rep.ok, rep.to_text()
    assert rep.worst_residual < 1e-12
    # breaking the matching equation must be caught
    broken = RandomDynamicalSystem(
        name="zxc2-bad",
        group=grp,
        base=base,
        dim=1,
        fibers=sys_.fibers,
        maps=(
            (FiberMap.rotation((0.125,)), FiberMap.rotation((0.6,))),
            sys_.maps[1],
        ),
    )
    bad = validate(broken)
    names = {c.name: c for c in bad.checks}
    assert not names["relation-words"].passed


def test_validation_report_serializes():
    rep = validate(catalog.load("rot2"))
    d = rep.to_dict()
    assert d["ok"] is True
    assert isinstance(d["checks"], list)
    assert "worst residual" in rep.to_text()
