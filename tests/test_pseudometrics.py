"""Window machinery and the four mean-separation estimators."""

import json
import math
import re
import time

import numpy as np
import pytest

from grid_fixtures import Z2_CAT, Z_SLICED, ZXC2_CAT2, ZXC2_ROT, ZXC3_ORDER3
from meanrds import catalog, pseudometrics, rds
from meanrds import _windows
from meanrds._windows import (
    tail_indices,
    tree_mean_rows,
    tree_sum_rows,
    window_means,
    window_schedule,
)
from meanrds.density import banach_upper_density, density_summary, separation_set, subset_indicator
from meanrds.groups import BudgetError, FolnerFamily, GroupSpecError, parse_group, search_ball
from meanrds.pseudometrics import (
    EstimatorConfig,
    banach_mean,
    banach_separation,
    besicovitch_mean,
    besicovitch_separation,
    fiber_besicovitch,
    fiber_weyl,
    integral_besicovitch,
    mean_curves,
    pair_source,
    pair_summary,
    sup_fiber_weyl,
    synthetic_source,
    translated_besicovitch_scan,
    weyl_mean,
    weyl_separation,
)
from meanrds.rds import (
    BaseSpace,
    DomainError,
    FiberMap,
    FiberSpace,
    RandomDynamicalSystem,
    torus_distance,
)


# ---------------------------------------------------------------------------
# summation tree

def test_tree_sum_constant_power_of_two_is_exact():
    v = 0.1  # not a dyadic rational
    for k in range(11):
        arr = np.full(2 ** k, v)
        total = float(tree_sum_rows(arr)[0])
        # doubling equal floats is exact, so the sum is v scaled by 2^k
        assert total == v * 2 ** k
        assert float(tree_mean_rows(arr)[0]) == v


def test_tree_sum_matches_fsum_on_ragged_rows():
    rng = np.random.default_rng(5)
    for width in (1, 2, 3, 7, 12, 33, 100, 257):
        rows = rng.random((4, width))
        got = tree_sum_rows(rows)
        want = [math.fsum(r) for r in rows]
        assert np.allclose(got, want, rtol=0, atol=1e-12)


def test_tree_sum_monotone_under_domination():
    rng = np.random.default_rng(6)
    a = rng.random((8, 96))
    b = a + rng.random((8, 96))  # pointwise >= a
    assert np.all(tree_sum_rows(a) <= tree_sum_rows(b))


def test_tree_sum_one_dimensional_input():
    assert float(tree_sum_rows(np.asarray([1.0, 2.0, 3.0]))[0]) == 6.0


# ---------------------------------------------------------------------------
# schedules and line windows

def test_window_schedule_on_the_line():
    folner = FolnerFamily(parse_group("Z"))
    assert window_schedule(folner, 4096) == tuple(2 ** k for k in range(13))
    # a cap that is not a power of two keeps the largest fitting index
    assert window_schedule(folner, 1000)[-2:] == (512, 1000)


def test_window_schedule_counts_elements_not_indices():
    folner = FolnerFamily(parse_group("Z^2"))
    sched = window_schedule(folner, 1000)
    assert sched == (1, 2, 4, 8, 16, 31)  # 31^2 = 961 still fits
    assert all(folner.window_size(n) <= 1000 for n in sched)
    with pytest.raises(ValueError):
        window_schedule(folner, 0)


def test_tail_indices():
    assert tail_indices(range(13), 0.5) == tuple(range(6, 13))
    assert tail_indices(range(4), 1e-9) == (3,)
    assert tail_indices(range(4), 1.0) == (0, 1, 2, 3)


def test_line_window_means_bounds_checked():
    vals = np.arange(10, dtype=np.float64)
    (got,) = window_means(vals, (np.asarray([2]),), [(4,)])
    assert got[0] == (2 + 3 + 4 + 5) / 4
    with pytest.raises(ValueError):
        list(window_means(vals, (np.asarray([8]),), [(4,)]))
    (got,) = window_means(vals, (np.asarray([0, 3]),), [(3,)])
    assert got.tolist() == [1.0, 4.0]  # starts index the box
    with pytest.raises(ValueError):
        list(window_means(vals, (np.asarray([9]),), [(3,)]))


class _ConstantSource(pseudometrics.ValueSource):
    def __init__(self, group):
        self.group = group
        self.label = group.spec

    def range_values(self, lo, hi):
        return np.ones(math.prod(b - a for a, b in zip(lo, hi)))


@pytest.mark.parametrize("spec", ["C3", "C2 x C2"])
def test_finite_groups_have_no_schedule(spec):
    """A group with no free factor is finite: its windows stop growing, so
    the schedule raises instead of doubling forever."""
    group = parse_group(spec)
    with pytest.raises(GroupSpecError, match="no free factor"):
        window_schedule(FolnerFamily(group), 16)
    src = _ConstantSource(group)
    for scan in (besicovitch_mean, banach_mean, mean_curves):
        with pytest.raises(GroupSpecError):
            scan(src, EstimatorConfig(n_max=16, m_max=16, search_radius=1))


# ---------------------------------------------------------------------------
# synthetic profiles

def _at(source, t):
    """The profile's value at time t: a one-element box read."""
    return float(source.range_values((t,), (t + 1,))[0])


def test_synthetic_registry():
    ev = synthetic_source("evens")
    assert _at(ev, 4) == 1.0 and _at(ev, 7) == 0.0
    sq = synthetic_source("squares")
    hits = [t for t in range(30) if _at(sq, t) == 1.0]
    assert hits == [0, 1, 4, 9, 16, 25]
    dy = synthetic_source("dyadic-blocks")
    hits = [t for t in range(40) if _at(dy, t) == 1.0]
    assert hits == [1, 4, 5, 6, 7, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31]
    with pytest.raises(ValueError):
        synthetic_source("nope")
    with pytest.raises(ValueError):
        synthetic_source("periodic:")
    for spec in ("constant:nan", "periodic:0,nan,1"):
        with pytest.raises(ValueError, match="NaN"):
            synthetic_source(spec)
    assert _at(synthetic_source("constant:inf"), 3) == math.inf


def test_constant_profile_all_estimators_exact():
    src = synthetic_source("constant:0.3125")
    cfg = EstimatorConfig(n_max=256, m_max=64, search_radius=8)
    for fn in (besicovitch_mean, banach_mean, weyl_mean, translated_besicovitch_scan):
        assert fn(src, cfg).value == 0.3125


def test_evens_all_estimators_exactly_half():
    src = synthetic_source("evens")
    cfg = EstimatorConfig(n_max=4096, m_max=1024, search_radius=64)
    for fn in (besicovitch_mean, banach_mean, weyl_mean, translated_besicovitch_scan):
        assert fn(src, cfg).value == 0.5


def test_dyadic_blocks_fixture_values():
    """The density of [4^k, 2*4^k) blocks never settles: untranslated windows
    oscillate, and translating far into a block pushes local means to 1."""
    src = synthetic_source("dyadic-blocks")
    cfg = EstimatorConfig(n_max=2048, m_max=1024, search_radius=64)
    bes = besicovitch_mean(src, cfg)
    assert bes.value == 1365 / 2048
    assert bes.window_index == 2048
    scan = translated_besicovitch_scan(src, cfg)
    assert scan.value == 1.0  # the window [64, 128) is entirely inside a block
    ban = banach_mean(src, cfg)
    assert ban.value == 0.375
    assert ban.value <= bes.value <= scan.value


def test_mod3_window_means_are_exact_counts():
    src = synthetic_source("periodic:1,0,0")
    cfg = EstimatorConfig(n_max=4096, m_max=1024, search_radius=64)
    bes = besicovitch_mean(src, cfg)
    # the tail max lands on the smallest tail window, where 22 of 64 hit
    assert bes.value == 22 / 64
    assert bes.window_index == 64
    assert banach_mean(src, cfg).value == 342 / 1024


def test_squares_banach_vanishes():
    src = synthetic_source("squares")
    cfg = EstimatorConfig(n_max=10_000, m_max=10_000, search_radius=64)
    assert banach_mean(src, cfg).value == 100 / 10_000
    assert besicovitch_mean(src, cfg).value <= 0.1


def test_weyl_reports_through_the_banach_scan():
    src = synthetic_source("squares")
    cfg = EstimatorConfig(n_max=512, m_max=512, search_radius=16)
    w = weyl_mean(src, cfg)
    b = banach_mean(src, cfg)
    assert w.value == b.value
    assert w.kind == "weyl"
    assert w.window_index == b.window_index and w.translate == b.translate
    assert "min-max" in w.truncation_note


def test_mean_curves_translated_dominates_untranslated():
    cfg = EstimatorConfig(n_max=512, m_max=512, search_radius=16)
    for spec in ("squares", "dyadic-blocks", "periodic:0.7,0.1,0.4,0.9,0.2"):
        sched, untrans, trans = mean_curves(synthetic_source(spec), cfg)
        assert len(sched) == len(untrans) == len(trans)
        # the identity translate goes through the same summation tree
        assert all(s >= a for a, s in zip(untrans, trans))


def test_estimate_metadata_and_serialization():
    src = synthetic_source("evens")
    cfg = EstimatorConfig(n_max=64, m_max=16, search_radius=4)
    est = banach_mean(src, cfg)
    assert est.window_index in est.schedule
    assert est.translate is not None and abs(est.translate[0]) <= 4
    assert "m_max=16" in est.truncation_note and "radius=4" in est.truncation_note
    blob = json.loads(json.dumps(est.to_dict()))
    assert blob["kind"] == "banach"
    assert blob["value"] == 0.5
    assert blob["source"] == "evens"
    bes = besicovitch_mean(src, cfg)
    assert bes.tail_start == bes.schedule[tail_indices(bes.schedule, cfg.tail_fraction)[0]]


def test_estimator_config_rejects_bad_values():
    with pytest.raises(ValueError):
        EstimatorConfig(n_max=0)
    with pytest.raises(ValueError):
        EstimatorConfig(tail_fraction=0.0)
    with pytest.raises(ValueError):
        EstimatorConfig(search_radius=-1)
    with pytest.raises(ValueError):
        EstimatorConfig(tolerance=0.0)


# ---------------------------------------------------------------------------
# profiles from systems

CFG = EstimatorConfig(n_max=4096, m_max=1024, search_radius=64)


def test_isometric_pair_estimates_equal_starting_distance():
    sys_ = catalog.load("rot2")
    rng = np.random.default_rng(11)
    for _ in range(5):
        x = (float(rng.random()),)
        y = (float(rng.random()),)
        d = torus_distance(x, y)
        assert besicovitch_separation(sys_, x, y, CFG).value == d
        assert banach_separation(sys_, x, y, CFG).value == d
        assert weyl_separation(sys_, x, y, CFG).value == d
        assert translated_besicovitch_scan(pair_source(sys_, x, y), CFG).value == d


def test_hyperbolic_pair_orders_and_domination():
    sys_ = catalog.load("cat-trivial")
    x = (0.2, 0.7)
    y = (0.2 + 1e-4, 0.7)
    bes = besicovitch_separation(sys_, x, y, CFG)
    ban = banach_separation(sys_, x, y, CFG)
    scan = translated_besicovitch_scan(pair_source(sys_, x, y), CFG)
    assert ban.value <= scan.value + CFG.tolerance
    assert bes.value <= scan.value + CFG.tolerance
    # nearby points still separate in the mean
    assert ban.value > 0.1
    fw = fiber_weyl(sys_, x, y, "w0", CFG)
    assert fw.kind == "fiber-weyl"
    # one fiber over a one-point base carries the whole sup
    assert fw.value == ban.value


def test_mean_curves_domination_on_system_profile():
    sys_ = catalog.load("cat2")
    src = pair_source(sys_, (0.11, 0.47), (0.11, 0.4701))
    sched, untrans, trans = mean_curves(src, EstimatorConfig(n_max=512, m_max=512, search_radius=16))
    assert all(s >= a for a, s in zip(untrans, trans))


def test_integral_mode_weighted_average():
    sys_ = catalog.load("rot2")
    x, y = (0.15,), (0.4,)
    d = torus_distance(x, y)
    est = integral_besicovitch(sys_, x, y, CFG)
    assert est.kind == "integral-besicovitch"
    # both fibers are isometric, so the weighted average is the distance
    assert est.value == pytest.approx(d, abs=1e-12)


def test_pair_summary_keys():
    sys_ = catalog.load("rot2")
    out = pair_summary(sys_, (0.1,), (0.3,), EstimatorConfig(n_max=256, m_max=64, search_radius=8))
    assert {"besicovitch", "banach", "weyl", "integral-besicovitch", "sup-fiber-weyl"} <= set(out)
    assert "fiber-weyl[w0]" in out and "fiber-weyl[w1]" in out
    assert out["weyl"].value == out["banach"].value


SUMMARY_SYSTEMS = [catalog.load(n) for n in catalog.names()] + [
    catalog.build_system(spec) for spec in (Z2_CAT, ZXC2_ROT, ZXC3_ORDER3, ZXC2_CAT2)]


@pytest.mark.parametrize("system", SUMMARY_SYSTEMS, ids=lambda s: s.name)
def test_pair_summary_equals_the_standalone_estimators(system):
    """One pair summary gives, bitwise, what each estimator gives on its own."""
    if system.group.rank == 1:
        cfg = EstimatorConfig(n_max=1024, m_max=256, search_radius=16)
    else:
        cfg = EstimatorConfig(n_max=64, m_max=16, search_radius=2)
    rng = np.random.default_rng(23)
    fs = system.fibers[system.base.support[0]]
    x = fs.sample(rng)
    for y in (fs.sample_near(x, 1e-3, rng), fs.sample(rng)):
        out = {k: json.dumps(est.to_dict()) for k, est in pair_summary(system, x, y, cfg).items()}
        want = {
            "besicovitch": besicovitch_separation(system, x, y, cfg),
            "banach": banach_separation(system, x, y, cfg),
            "weyl": weyl_separation(system, x, y, cfg),
            "sup-fiber-weyl": sup_fiber_weyl(system, x, y, cfg),
        }
        try:
            want["integral-besicovitch"] = integral_besicovitch(system, x, y, cfg)
        except DomainError:
            assert "integral-besicovitch" not in out
        for i in system.admissible_fibers(x, y):
            label = system.base.labels[i]
            want[f"fiber-besicovitch[{label}]"] = fiber_besicovitch(system, x, y, i, cfg)
            want[f"fiber-weyl[{label}]"] = fiber_weyl(system, x, y, i, cfg)
        assert out == {k: json.dumps(est.to_dict()) for k, est in want.items()}


def _sliced_system():
    # two one-point fiber domains at different heights, identity dynamics
    base = BaseSpace(("w0", "w1"), (0.5, 0.5), ((0, 1),))
    ident = FiberMap.identity(1)
    return RandomDynamicalSystem(
        name="sliced",
        group=parse_group("Z"),
        base=base,
        dim=1,
        fibers=(FiberSpace(1, (((0, 0.25),),)), FiberSpace(1, (((0, 0.5),),))),
        maps=((ident, ident),),
    )


def test_sliced_system_domain_errors_and_empty_sup():
    sys_ = _sliced_system()
    cfg = EstimatorConfig(n_max=64, m_max=16, search_radius=4)
    with pytest.raises(DomainError):
        pair_source(sys_, (0.25,), (0.5,), "integral")
    with pytest.raises(DomainError):
        pair_source(sys_, (0.25,), (0.5,), "fiber", "w0")
    with pytest.raises(ValueError):
        pair_source(sys_, (0.25,), (0.5,), "no-such-mode")
    est = sup_fiber_weyl(sys_, (0.25,), (0.5,), cfg)
    assert est.value == 0.0
    assert "no common fiber" in est.truncation_note
    # points sharing the w0 slice do get a fiber estimate
    est2 = sup_fiber_weyl(sys_, (0.25,), (0.25,), cfg)
    assert est2.kind == "sup-fiber-weyl"
    assert est2.value == 0.0  # identical points


VALUE_SYSTEMS = [catalog.load(n) for n in catalog.names()] + [
    catalog.build_system(spec) for spec in (ZXC2_CAT2, Z2_CAT, Z_SLICED)]


@pytest.mark.parametrize("system", VALUE_SYSTEMS, ids=lambda s: s.name)
def test_value_picks_equal_their_records(system):
    """The values the classify probes read, each from its own engine, equal
    by repr those of the records one pair summary builds from one engine,
    and each separation-set density the mean-L probe reads keeps the chain
    eps * density <= banach that it checks. The summary's fiber and
    integral records, which it relabels from the sup scans when one fiber
    is admissible or the support is one point of weight 1.0, equal by repr
    the public estimators' own scans; on z-sliced the pair lies only in the
    full fiber w0 of three support fibers."""
    if system.group.rank == 1:
        cfg = EstimatorConfig(n_max=1024, m_max=256, search_radius=16)
    else:
        cfg = EstimatorConfig(n_max=64, m_max=16, search_radius=2)
    rng = np.random.default_rng(31)
    fs = system.fibers[system.base.support[0]]
    x = fs.sample(rng)
    for y in (fs.sample_near(x, 1e-3, rng), fs.sample(rng)):
        summary = pair_summary(system, x, y, cfg)
        ban = banach_mean(pair_source(system, x, y), cfg).value
        assert repr(ban) == repr(summary["banach"].value)
        assert 0.0 < ban < math.inf
        for eps in (ban / 2, ban, 2 * ban):
            density = banach_upper_density(separation_set(pair_source(system, x, y), eps), cfg)
            assert eps * density.value <= ban + cfg.tolerance
        assert repr(sup_fiber_weyl(system, x, y, cfg)) == repr(summary["sup-fiber-weyl"])
        admissible = system.admissible_fibers(x, y)
        if system.name == "z-sliced":
            assert admissible == (0,)
        for omega in (system.base.labels[i] for i in admissible):
            assert repr(fiber_besicovitch(system, x, y, omega, cfg)) == repr(
                summary[f"fiber-besicovitch[{omega}]"])
            assert repr(fiber_weyl(system, x, y, omega, cfg)) == repr(
                summary[f"fiber-weyl[{omega}]"])
        if admissible == system.base.support:
            assert repr(integral_besicovitch(system, x, y, cfg)) == repr(
                summary["integral-besicovitch"])
        else:
            assert "integral-besicovitch" not in summary


def test_value_pick_cases_include_read_profiles():
    """The value-pick cases cover the window loop as well as the closed
    form: the hyperbolic systems' profiles are read."""
    constant = {s.name: pair_source(s, (0.1,) * s.dim, (0.2,) * s.dim).constant is not None
                for s in VALUE_SYSTEMS}
    assert constant == {"rot2": True, "rot1-trivial": True, "cat-trivial": False,
                        "cat2": False, "mixed": False, "zxc2-cat2": False, "z2-cat": False,
                        "z-sliced": True}


def test_sup_fiber_value_with_no_common_fiber_is_zero():
    """With no fiber holding both points, sup_fiber_weyl reports the empty
    sup, 0.0, with the record pair_summary gives it."""
    sys_ = _sliced_system()
    cfg = EstimatorConfig(n_max=64, m_max=16, search_radius=4)
    assert sys_.admissible_fibers((0.25,), (0.5,)) == ()
    est = sup_fiber_weyl(sys_, (0.25,), (0.5,), cfg)
    assert repr(est.value) == "0.0"
    assert repr(est) == repr(pair_summary(sys_, (0.25,), (0.5,), cfg)["sup-fiber-weyl"])


def _disjoint_system():
    # the two fibers are disjoint slices, so (0, 0.3) and (0.5, 0.3) share none
    base = BaseSpace(("w0", "w1"), (0.5, 0.5), ((0, 1),))
    return RandomDynamicalSystem(
        name="disjoint",
        group=parse_group("Z"),
        base=base,
        dim=2,
        fibers=(FiberSpace(2, (((0, 0.0),),)), FiberSpace(2, (((0, 0.5),),))),
        maps=((FiberMap.identity(2), FiberMap.identity(2)),),
    )


def test_scan_start_rule_on_an_all_inf_profile():
    """No window mean beats the scan's starting +-inf, so the first scanned
    window is reported with no translate."""
    sys_ = _disjoint_system()
    cfg = EstimatorConfig(n_max=64, m_max=16, search_radius=2)
    x, y = (0.0, 0.3), (0.5, 0.3)
    src = pair_source(sys_, x, y)
    ban = banach_mean(src, cfg)
    assert (ban.value, ban.window_index, ban.translate) == (math.inf, 1, None)
    bes = besicovitch_mean(src, cfg)
    assert (bes.value, bes.window_index, bes.translate) == (math.inf, 8, None)
    assert bes.tail_start == 8
    out = pair_summary(sys_, x, y, cfg)
    assert list(out) == ["besicovitch", "banach", "weyl", "sup-fiber-weyl"]
    sup = out["sup-fiber-weyl"]
    assert sup.value == 0.0
    assert sup.truncation_note == "no common fiber; empty sup reported as 0"


def _z2_rotation_system():
    base = BaseSpace(("w0",), (1.0,), ((0,), (0,)))
    return RandomDynamicalSystem(
        name="z2rot",
        group=parse_group("Z^2"),
        base=base,
        dim=1,
        fibers=(FiberSpace.full(1),),
        maps=((FiberMap.rotation((0.125,)),), (FiberMap.rotation((0.375,)),)),
    )


def test_generic_group_path_isometric_equality():
    """Off the line the estimators walk a box; the constant profile of an
    isometric system still averages to the starting distance exactly."""
    sys_ = _z2_rotation_system()
    cfg = EstimatorConfig(n_max=16, m_max=16, search_radius=2)
    x, y = (0.1,), (0.55,)
    d = torus_distance(x, y)
    assert besicovitch_separation(sys_, x, y, cfg).value == d
    ban = banach_separation(sys_, x, y, cfg)
    assert ban.value == d
    assert len(ban.translate) == 2
    assert translated_besicovitch_scan(pair_source(sys_, x, y), cfg).value == d


def test_box_over_the_element_budget_raises_before_walking():
    """Off Z the box covering every translated window is capped: the ball
    (145 elements) and the top window (64) fit in 500, the 24 x 24 box not."""
    system = catalog.build_system(Z2_CAT)
    cfg = EstimatorConfig(n_max=64, m_max=64, search_radius=8, element_budget=500)
    assert len(search_ball(system.group, 8)) == 145
    src = pair_source(system, (0.1, 0.2), (0.1004, 0.2002))
    src.range_values = lambda lo, hi: pytest.fail("the box was walked")
    with pytest.raises(BudgetError, match="576 elements"):
        banach_mean(src, cfg)


@pytest.mark.parametrize("scan,side", [(banach_mean, 138), (mean_curves, 138),
                                       (translated_besicovitch_scan, 144)])
def test_box_over_the_element_budget_raises_before_the_ball(scan, side, monkeypatch):
    """The box bound has a closed form, 2r + top on each free axis and each
    cyclic axis whole, so it is checked before the ball is built: Z^3 at the
    default radius and caps would build a 357 889-element ball first."""
    monkeypatch.setattr(pseudometrics, "search_ball",
                        lambda *a: pytest.fail("the ball was built"))
    with pytest.raises(BudgetError, match=rf"box \[{side}, {side}, {side}\]"):
        scan(_ConstantSource(parse_group("Z^3")), EstimatorConfig())


# The slowest case, Z^2 x C2 at the default caps with its profile read,
# takes 0.17 s on a 2 vCPU Xeon (Python 3.11, numpy 2.4); the bound gives
# it about nine times that.
GATE_SECONDS = 1.5
GATE_CFGS = [EstimatorConfig(n_max=64, m_max=16, search_radius=4), EstimatorConfig()]
GATE_GROUPS = ["Z", "Z^2", "Z^3", "Z x C2", "Z x C3", "Z^2 x C2", "C3"]


def _gate(spec, cfg, free_matrix):
    """One pair summary on a one-point system over the group, with
    ``free_matrix`` on each free generator, either ends within GATE_SECONDS
    or raises BudgetError or GroupSpecError; it never silently runs for
    minutes."""
    group = parse_group(spec)
    system = catalog.build_system({
        "name": f"gate-{spec}",
        "group": spec,
        "dim": 1,
        "base": {"labels": ["w0"], "weights": [1.0], "perms": [[0]] * group.rank},
        "maps": [[{"matrix": free_matrix, "shift": [0.125]} if k is None
                  else {"matrix": [[1]], "shift": [0.0]}] for k in group.generator_orders()],
    })
    start = time.perf_counter()
    try:
        pair_summary(system, (0.1,), (0.35,), cfg)
    except (BudgetError, GroupSpecError):
        pass
    assert time.perf_counter() - start < GATE_SECONDS


@pytest.mark.parametrize("cfg", GATE_CFGS, ids=["small-caps", "default-caps"])
@pytest.mark.parametrize("spec", GATE_GROUPS)
def test_every_group_finishes_in_bounded_time_or_raises(spec, cfg):
    """The gate on rotations, whose constant profiles are scanned unread."""
    _gate(spec, cfg, [[1]])


@pytest.mark.parametrize("cfg", GATE_CFGS, ids=["small-caps", "default-caps"])
@pytest.mark.parametrize("spec", GATE_GROUPS)
def test_every_group_reads_in_bounded_time_or_raises(spec, cfg):
    """The gate with -1 on the free generators: the profiles are not known
    to be constant, so every scan reads its box and builds its table."""
    _gate(spec, cfg, [[-1]])


# ---------------------------------------------------------------------------
# constant profiles in closed form

class _Hidden(pseudometrics.ValueSource):
    """A source with its constant hidden, so every scan reads the profile
    and takes its window means from the table."""

    def __init__(self, source):
        self.source = source
        self.group = source.group
        self.label = source.label

    def range_values(self, lo, hi):
        return self.source.range_values(lo, hi)


_SCANS = (besicovitch_mean, banach_mean, translated_besicovitch_scan, density_summary)


def _assert_closed_form_is_the_table_read(src, cfg):
    """Every scan of a constant source, and its mean curves, bitwise the
    scans of the same source read through the table."""
    assert src.constant is not None, src.label
    hidden = _Hidden(src)
    for scan in _SCANS:
        assert repr(scan(src, cfg)) == repr(scan(hidden, cfg)), (src.label, scan)
    sched, untranslated, translated = mean_curves(src, cfg)
    assert repr(mean_curves(hidden, cfg)) == repr((sched, untranslated, translated))
    plan = pseudometrics._scan_plan(src.group, cfg.m_max, None, cfg.search_radius,
                                    cfg.element_budget)
    want = [float(_windows.constant_mean_rows(src.constant, math.prod(w))) for w in plan.windows]
    assert repr(untranslated) == repr(translated) == repr(want)


# Z x C3 with identity matrices and weights that are not dyadic: every
# fiber is isometric, and the integral's weighted sum rounds
ZXC3_ROT = {
    "name": "zxc3-rot",
    "group": "Z x C3",
    "dim": 2,
    "base": {"labels": ["w0", "w1"], "weights": [0.3, 0.7], "perms": [[1, 0], [0, 1]]},
    "maps": [[{"matrix": [[1, 0], [0, 1]], "shift": [math.sqrt(2) - 1, 0.125]},
              {"matrix": [[1, 0], [0, 1]], "shift": [0.5, math.sqrt(3) - 1]}],
             [{"matrix": [[1, 0], [0, 1]]}, {"matrix": [[1, 0], [0, 1]]}]],
}

# (system, x, y, the constant profiles of the pair)
CONSTANT_PAIRS = [
    (catalog.load("rot2"), (0.1,), (0.7321,), ("sup", "integral", "w0", "w1")),
    (catalog.load("rot1-trivial"), (0.05,), (0.95,), ("sup", "integral", "w0")),
    (catalog.load("mixed"), (0.1, 0.2), (0.1004, 0.2002), ("w0",)),
    (catalog.build_system(ZXC2_ROT), (0.1,), (0.35,), ("sup", "integral", "w0", "w1")),
    (catalog.build_system(ZXC3_ROT), (0.3, 0.4), (0.7, 0.1), ("sup", "integral", "w0", "w1")),
    (_disjoint_system(), (0.0, 0.3), (0.5, 0.3), ("sup",)),  # no common fiber: inf
]
CLOSED_FORM_CFGS = [EstimatorConfig(), EstimatorConfig(n_max=3000, m_max=1000),
                    EstimatorConfig(n_max=256, m_max=96, search_radius=8)]


@pytest.mark.parametrize("cfg", CLOSED_FORM_CFGS, ids=["default", "1000-3000", "96-256"])
@pytest.mark.parametrize("system,x,y,profiles", CONSTANT_PAIRS,
                         ids=[p[0].name for p in CONSTANT_PAIRS])
def test_constant_profiles_scan_in_closed_form(system, x, y, profiles, cfg):
    """A pair's constant profiles (the sup, the weighted integral, each
    isometric fiber) and their separation sets at an eps below and above
    the constant give, in closed form, the estimates of the table read,
    whole and bitwise; a profile that is not constant says so."""
    engine = rds.PairEngine(system, x, y)
    sources = {"sup": pseudometrics._engine_source(engine, "sup")}
    if engine.admissible == system.base.support:
        sources["integral"] = pseudometrics._engine_source(engine, "integral")
    for i in engine.admissible:
        sources[system.base.labels[i]] = pseudometrics._fiber_source(engine, i)
    assert {k for k, s in sources.items() if s.constant is not None} == set(profiles)
    for key in profiles:
        src = sources[key]
        _assert_closed_form_is_the_table_read(src, cfg)
        c = src.constant
        below_and_above = (c / 2, c, math.nextafter(c, math.inf)) if c < math.inf else (0.25,)
        for eps in below_and_above:
            ind = separation_set(src, eps)
            assert ind.constant == float(c >= eps)
            _assert_closed_form_is_the_table_read(ind, cfg)
    if system.name == "zxc3-rot":
        # 0.3 c + 0.7 c rounds below c here, so the weights' order shows
        assert sources["integral"].constant < engine.norm0


# (besicovitch, banach) at the default caps, as the table read gives them
SYNTHETIC_CONSTANTS = {
    "constant:1e308": (math.inf, 1e308),  # the tail windows overflow
    "constant:-inf": (-math.inf, -math.inf),
    "constant:inf": (math.inf, math.inf),
    "constant:5e-324": (5e-324, 5e-324),
    "constant:0.3125": (0.3125, 0.3125),
}


@pytest.mark.parametrize("spec", SYNTHETIC_CONSTANTS)
def test_synthetic_constants_scan_in_closed_form(spec):
    src = synthetic_source(spec)
    cfg = EstimatorConfig()
    assert (besicovitch_mean(src, cfg).value, banach_mean(src, cfg).value) == \
        SYNTHETIC_CONSTANTS[spec]
    for c in CLOSED_FORM_CFGS:
        _assert_closed_form_is_the_table_read(src, c)


# the windows of the first NaN mean the besicovitch and banach scans pick at
# the default caps (a sum adds +inf to -inf from width 2 on one, from width
# 4 on the other), and the banach value at m_max 1, whose one window has none
NAN_WINDOWS = {"periodic:-inf,inf": (64, 2, math.inf),
               "periodic:1e308,1e308,-1e308,-1e308": (64, 4, 1e308)}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("spec", NAN_WINDOWS)
def test_nan_window_means_raise(spec):
    """A scan that picks a NaN window mean raises, naming the profile and
    the window, with no numpy warning; a scan of earlier windows does not."""
    src = synthetic_source(spec)
    *windows, first = NAN_WINDOWS[spec]
    for scan, window in zip((besicovitch_mean, banach_mean), windows):
        with pytest.raises(ValueError, match=(
                f"^profile '{re.escape(spec)}' has a NaN mean over window {window}: ")):
            scan(src, EstimatorConfig())
    assert banach_mean(src, EstimatorConfig(m_max=1)).value == first


class _Constant(pseudometrics.ValueSource):
    """The profile c at every element of a group, known to be constant."""

    def __init__(self, spec, c):
        self.group = parse_group(spec)
        self.label = f"{spec}: {c!r}"
        self.constant = c

    def range_values(self, lo, hi):
        return np.full(math.prod(b - a for a, b in zip(lo, hi)), self.constant)


EDGE_CONSTANTS = (-0.0, 5e-324, 0.3125, 1e308, -1e308, math.inf, -math.inf)


@pytest.mark.parametrize("spec,cfg", [
    ("Z", EstimatorConfig()),
    ("Z", EstimatorConfig(n_max=3000, m_max=1000)),
    ("Z x C3", EstimatorConfig()),  # windows of n * min(n, 3) elements
], ids=["default", "1000-3000", "zxc3"])
@pytest.mark.parametrize("c", EDGE_CONSTANTS, ids=map(repr, EDGE_CONSTANTS))
def test_edge_constants_scan_in_closed_form(spec, cfg, c, monkeypatch):
    """Signed zero, a subnormal, overflow and infinities, on power-of-two and
    other windows: the closed form is the table read, bitwise. Only a plan
    whose sizes are all powers of two, with c * top finite, skips
    ``constant_mean_rows``."""
    src = _Constant(spec, c)
    _assert_closed_form_is_the_table_read(src, cfg)
    sizes = []
    real = _windows.constant_mean_rows
    monkeypatch.setattr(_windows, "constant_mean_rows",
                        lambda c, size: sizes.append(size) or real(c, size))
    for scan in _SCANS:
        scan(src, cfg)
    mean_curves(src, cfg)
    closed = spec == "Z" and cfg.n_max == 4096 and math.isfinite(c * 4096)
    assert (sizes == []) == closed, sizes


@pytest.mark.parametrize("spec,cfg", [
    ("Z", EstimatorConfig()),
    ("Z", EstimatorConfig(n_max=3000, m_max=1000)),
    ("Z x C3", EstimatorConfig()),
], ids=["default", "1000-3000", "zxc3"])
def test_constant_banach_values_are_the_scans(spec, cfg):
    """The Banach values of an array of constants, in one pass, are those of
    one scan per constant, bitwise, with or without an overflowing entry in
    the array."""
    for consts in ((0.0, 0.1, 0.3125, math.sqrt(0.75)), EDGE_CONSTANTS):
        got = pseudometrics._constant_banach_values(parse_group(spec), np.asarray(consts), cfg)
        want = [banach_mean(_Constant(spec, c), cfg).value for c in consts]
        assert list(map(float.hex, got.tolist())) == list(map(float.hex, want))


@pytest.mark.parametrize("spec,c", [("all", 1.0), ("empty", 0.0)])
def test_constant_subsets_scan_in_closed_form(spec, c):
    ind = subset_indicator(spec)
    assert ind.constant == c
    for cfg in CLOSED_FORM_CFGS:
        _assert_closed_form_is_the_table_read(ind, cfg)


def _hexed(picks):
    values, at = picks
    return [v.hex() for v in values], at


def test_kept_means_are_keyed_by_the_float_eps():
    """Picks kept for a separation set at one eps serve only that eps: a
    probe at an eps whose label is the same ({eps:g}) re-reads the profile
    and gets the record of an unseeded engine, and the kept picks still
    serve their own eps afterwards, once, from no read."""
    system = catalog.load("cat2")
    cfg = EstimatorConfig(n_max=256, m_max=64, search_radius=16)
    plan = pseudometrics._scan_plan(system.group, cfg.m_max, None, cfg.search_radius,
                                    cfg.element_budget)
    x, y = (0.1, 0.2), (0.1004, 0.2002)
    engine = rds.PairEngine(system, x, y)
    sup = pseudometrics._engine_source(engine, "sup")
    values = sup.range_values(plan.lo, plan.hi)
    kept = float(values[5])  # the size-1 window at a translate: >= kept counts it
    near = math.nextafter(kept, 1.0)  # the same label; the value no longer counts
    assert separation_set(sup, kept).label == separation_set(sup, near).label
    pseudometrics._keep_means([separation_set(sup, kept)], plan, cfg.element_budget)

    def fresh(eps):
        return separation_set(pair_source(system, x, y), eps)

    assert fresh(near)._picks(plan, max) != fresh(kept)._picks(plan, max)
    reads = []
    read = sup.read
    sup.read = lambda lo, hi: reads.append(lo) or read(lo, hi)
    assert repr(banach_upper_density(separation_set(sup, near), cfg)) == repr(
        banach_upper_density(fresh(near), cfg))
    assert len(reads) == 1
    got = separation_set(sup, kept)._picks(plan, max)
    assert len(reads) == 1 and not engine._picks
    assert _hexed(got) == _hexed(fresh(kept)._picks(plan, max))
    assert _hexed(separation_set(sup, kept)._picks(plan, max)) == _hexed(got)
    assert len(reads) == 2


class _KeptProfile(pseudometrics.SyntheticSource):
    """A synthetic profile that keeps its picks in a store of its own, as
    an engine's profile keeps them on its engine."""

    def __init__(self, spec):
        super().__init__(synthetic_source(spec).fn, spec)
        self.store = {}

    def _slot(self):
        return self.store, (self.label, None)


# a tie at every window, +inf and -inf entries (every translate of a wide
# window ties at +-inf), and a window that adds +inf to -inf from width 2
KEPT_SPECS = ("periodic:1,0,1,1", "periodic:0.5,inf,0.25,0.5", "periodic:0.5,-inf,0.25,0.5",
              "periodic:-inf,inf")


def _scanned(scan, src, cfg):
    try:
        return repr(scan(src, cfg))
    except ValueError as err:
        return f"ValueError: {err}"


@pytest.mark.parametrize("kind", ["sup", "set", "fiber", "synthetic"])
def test_kept_picks_are_a_fresh_scans_picks(kind):
    """The picks that a stacked window-means call keeps, for each kind of
    stacked source, are those of a fresh read, bitwise: each window's
    greatest mean and the first translate holding it (a tie's first, a
    +-inf entry's, and a NaN's). Each is served once, to an inner-max scan,
    which reports what a fresh scan reports, the ValueError of a window
    that adds +inf to -inf included; an inner-min scan reads afresh."""
    cfg = EstimatorConfig(n_max=256, m_max=64, search_radius=16)
    if kind == "synthetic":
        group = parse_group("Z")
        kept = [_KeptProfile(spec) for spec in KEPT_SPECS]
        fresh = [synthetic_source(spec) for spec in KEPT_SPECS]
    else:
        system = catalog.load("mixed")
        group = system.group
        pairs = [((0.1, 0.2), (0.1004, 0.2002)), ((0.3, 0.6), (0.31, 0.6)),
                 ((0.7, 0.1), (0.2, 0.9))]

        def sources(engine):
            sup = pseudometrics._engine_source(engine, "sup")
            return {"sup": [sup], "set": [separation_set(sup, 0.01)],
                    "fiber": [pseudometrics._fiber_source(engine, 1)]}[kind]

        engines = [rds.PairEngine(system, x, y) for x, y in pairs]
        kept = [src for engine in engines for src in sources(engine)]
        fresh = [src for x, y in pairs for src in sources(rds.PairEngine(system, x, y))]
    plan = pseudometrics._scan_plan(group, cfg.m_max, None, cfg.search_radius,
                                    cfg.element_budget)
    pseudometrics._keep_means(kept, plan, cfg.element_budget)
    scan = banach_upper_density if kind == "set" else banach_mean
    for src, ref in zip(kept, fresh, strict=True):
        store, key = src._slot()
        values, at = ref._picks(plan, max)
        assert store[key][0] is plan and _hexed(store[key][1]) == _hexed((values, at))
        means = window_means(ref._box(plan), plan.starts, plan.windows).tolist()
        if not any(map(math.isnan, values)):
            assert at == [row.index(max(row)) for row in means]
        assert _hexed(src._picks(plan, min)) == _hexed(ref._picks(plan, min))
        assert key in store
        assert _scanned(scan, src, cfg) == _scanned(scan, ref, cfg)
        assert key not in store
    if kind == "synthetic":
        assert _scanned(banach_mean, fresh[-1], cfg).startswith(
            "ValueError: profile 'periodic:-inf,inf' has a NaN mean over window 2: ")
        assert math.inf in fresh[1]._picks(plan, max)[0]
        assert -math.inf in fresh[2]._picks(plan, max)[0]
    else:
        assert not any(engine._picks for engine in engines)
