"""Dichotomy probes: modulus search, density stability, sensitivity."""

import copy
import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from grid_fixtures import ROT3, Z_SLICED, ZXC2_ROT, _FlatNormals
from test_golden import REPORT_GOLDEN, SMALL_CLASSIFIER, WIDE_CLASSIFIER, WIDE_GOLDEN
from meanrds import catalog, classify, pseudometrics, rds
from meanrds.classify import (
    ClassifierConfig,
    _row_norms,
    dichotomy_report,
    equicontinuity_region,
    equicontinuous_point_set,
    mean_l_stable_test,
    openness_violations,
    sensitivity_test,
    wme_test,
)
from meanrds.pseudometrics import EstimatorConfig, pair_summary, sup_fiber_weyl

CFG = EstimatorConfig(n_max=1024, m_max=256, search_radius=16)
CCFG = ClassifierConfig(
    eps_list=(0.2, 0.05),
    delta_grid=(1e-1, 1e-2, 1e-3),
    pair_budget=6,
    point_budget=2,
    candidate_budget=4,
    delta0=0.05,
    eps_sequence=(0.1, 1e-2, 1e-3),
    grid_resolution=8,
)


def test_classifier_config_validation():
    with pytest.raises(ValueError):
        ClassifierConfig(delta_grid=(1e-3, 1e-2))  # must decrease
    with pytest.raises(ValueError):
        ClassifierConfig(eps_sequence=(0.1, 0.1))
    with pytest.raises(ValueError):
        ClassifierConfig(eps_list=())
    with pytest.raises(ValueError):
        ClassifierConfig(delta0=0.0)
    with pytest.raises(ValueError):
        ClassifierConfig(pair_budget=0)


def test_wme_modulus_found_on_isometric_system():
    res = wme_test(catalog.load("rot2"), CFG, CCFG, np.random.default_rng(3))
    assert res.passed
    by_eps = {r.eps: r for r in res.rows}
    # partners within 0.1 keep separation below 0.2, within 0.01 below 0.05
    assert by_eps[0.2].delta == 0.1
    assert by_eps[0.05].delta == 0.01
    assert all(r.worst_value < r.eps for r in res.rows)


def test_wme_fails_on_hyperbolic_system():
    res = wme_test(catalog.load("cat-trivial"), CFG, CCFG, np.random.default_rng(3))
    assert not res.passed
    for r in res.rows:
        assert r.delta is None
        assert r.worst_value > 0.3  # nearby pairs separate to the plateau


def test_stability_probe_agrees_and_chain_holds():
    rng = np.random.default_rng(3)
    stable = mean_l_stable_test(catalog.load("rot2"), CFG, CCFG, rng)
    assert stable.passed and stable.chain_ok
    unstable = mean_l_stable_test(
        catalog.load("cat-trivial"), CFG, CCFG, np.random.default_rng(3)
    )
    assert not unstable.passed
    assert unstable.chain_ok, unstable.chain_detail


def test_sensitivity_witnesses_on_hyperbolic_system():
    res = sensitivity_test(catalog.load("cat-trivial"), CFG, CCFG, np.random.default_rng(3))
    assert res.passed
    for p in res.points:
        assert p.robust
        for rec in p.records:
            assert rec.witness is not None
            assert rec.value > CCFG.delta0


def test_sensitivity_fails_on_isometric_system():
    """Once eps drops below delta0 an isometric pair can never witness:
    its separation stays at the starting distance."""
    res = sensitivity_test(catalog.load("rot2"), CFG, CCFG, np.random.default_rng(3))
    assert not res.passed
    for p in res.points:
        assert not p.robust
        assert p.records[-1].witness is None


def test_equicontinuity_region_on_isometric_fiber():
    reg = equicontinuity_region(
        catalog.load("rot2"), "w0", 0.2, CFG, CCFG, np.random.default_rng(4)
    )
    assert len(reg.members) == 8 and not reg.non_members
    assert all(delta == 0.1 for _, delta in reg.members)
    assert openness_violations(reg) == []
    assert len(reg.member_points) == 8


def test_equicontinuity_region_empty_on_hyperbolic_fiber():
    reg = equicontinuity_region(
        catalog.load("cat-trivial"), "w0", 0.2, CFG, CCFG, np.random.default_rng(4)
    )
    assert not reg.members
    assert len(reg.non_members) == 64
    assert openness_violations(reg) == []


def test_region_resolution_floor():
    with pytest.raises(ValueError):
        equicontinuity_region(
            catalog.load("rot2"), "w0", 0.2, CFG, CCFG,
            np.random.default_rng(4), resolution=4,
        )


def test_equicontinuous_point_set_depth_separates_the_catalog():
    rng = np.random.default_rng(5)
    pts = equicontinuous_point_set(catalog.load("rot2"), 3, CFG, CCFG, rng, resolution=8)
    assert len(pts) == 8
    # the plateau value exceeds 1/3, so depth 3 empties the hyperbolic set
    pts2 = equicontinuous_point_set(
        catalog.load("cat-trivial"), 3, CFG, CCFG, np.random.default_rng(5), resolution=8
    )
    assert pts2 == frozenset()
    with pytest.raises(ValueError):
        equicontinuous_point_set(catalog.load("rot2"), 0, CFG, CCFG, rng)


def test_dichotomy_verdicts_and_crosschecks():
    rep = dichotomy_report(catalog.load("cat-trivial"), CFG, CCFG, seed=9)
    assert rep.verdict == "sensitive-evidence"
    assert rep.suggestion is None
    assert all(rep.crosschecks.values())
    rep2 = dichotomy_report(catalog.load("rot2"), CFG, CCFG, seed=9)
    assert rep2.verdict == "wme-evidence"
    assert all(rep2.crosschecks.values())


def test_classify_walks_only_non_identity_fibers(monkeypatch):
    """The rotation systems never call a walk kernel, scalar or batched;
    mixed calls each only from its hyperbolic fiber w1, which its base
    action fixes: the scalar kernel for wme's first eps, measured pair by
    pair, and the batched kernel, whose columns each start at a base point
    of an array, for the pairs drawn ahead."""
    scalar, batched = set(), set()
    for dim, kernel in list(rds._WALKS.items()):
        def counting(w, d, count, nxt, rows, kernel=kernel):
            scalar.add(w)
            return kernel(w, d, count, nxt, rows)
        monkeypatch.setitem(rds._WALKS, dim, counting)
    walk_line = rds._walk_line

    def counting_line(w, d, steps, powers, first, stop, fold=False):
        batched.update(w.tolist())
        return walk_line(w, d, steps, powers, first, stop, fold)

    monkeypatch.setattr(rds, "_walk_line", counting_line)
    walked = {}
    for name in ("rot2", "rot1-trivial", "mixed"):
        scalar.clear()
        batched.clear()
        dichotomy_report(catalog.load(name), CFG, CCFG, seed=9)
        walked[name] = (set(scalar), set(batched))
    assert walked == {"rot2": (set(), set()), "rot1-trivial": (set(), set()),
                      "mixed": ({1}, {1})}


def test_classify_reads_no_constant_profile(monkeypatch):
    """Every separation profile of a rotation system is constant, so a
    default-config report reads no profile and folds no box; mixed still
    reads its sup profile (rotation max cat) and its cat fiber w1, never
    its rotation fiber w0 alone."""
    reads, folds = set(), []
    read, fold = pseudometrics._EngineSource.range_values, rds.PairEngine._fiber_box

    def reading(source, lo, hi):
        reads.add(source.label)
        return read(source, lo, hi)

    def folding(engine, omega_idx, lo, hi):
        folds.append(omega_idx)
        return fold(engine, omega_idx, lo, hi)

    monkeypatch.setattr(pseudometrics._EngineSource, "range_values", reading)
    monkeypatch.setattr(rds.PairEngine, "_fiber_box", folding)
    seen = {}
    for name in ("rot2", "rot1-trivial", "mixed"):
        reads.clear()
        folds.clear()
        dichotomy_report(catalog.load(name), seed=7)
        seen[name] = (set(reads), bool(folds))
    assert seen == {"rot2": (set(), False), "rot1-trivial": (set(), False),
                    "mixed": ({"sup", "fiber[w1]"}, True)}


CONSTANT_SYSTEMS = [catalog.load("rot2"), catalog.load("rot1-trivial")] + [
    catalog.build_system(spec) for spec in (ZXC2_ROT, Z_SLICED, ROT3)]


def _per_pair(system):
    """A copy of a constant system that measures its rows pair by pair,
    through pair_source: the reference of the one-pass rows."""
    ref = copy.copy(system)
    ref._all_constant = False
    return ref


def _modulus_probes(system, cfg, ccfg, rng):
    wme = wme_test(system, cfg, ccfg, rng)
    after_wme = rng.bit_generator.state
    stability = mean_l_stable_test(system, cfg, ccfg, rng)
    return repr(wme), after_wme, repr(stability), rng.bit_generator.state


@pytest.mark.parametrize("generator", [np.random.Generator, _FlatNormals])
@pytest.mark.parametrize("m_max", [256, 30, 1000])
@pytest.mark.parametrize("pair_budget", [8, 200])
@pytest.mark.parametrize("system", CONSTANT_SYSTEMS, ids=lambda s: s.name)
def test_constant_rows_equal_the_pair_loop(system, pair_budget, m_max, generator):
    """On every system whose support fibers are all constant (on Z and Z x
    C2, sliced fibers, three free axes, zero-norm directions), both modulus
    probes give the rows, chain check and generator state of the per-pair
    path, bit for bit, on dyadic and other plans."""
    assert system._all_constant
    cfg = EstimatorConfig(m_max=m_max, search_radius=8)
    ccfg = ClassifierConfig(pair_budget=pair_budget)
    for seed in range(2):
        got = _modulus_probes(system, cfg, ccfg, generator(np.random.PCG64(seed)))
        want = _modulus_probes(_per_pair(system), cfg, ccfg, generator(np.random.PCG64(seed)))
        assert got == want


@pytest.mark.parametrize("generator", [np.random.Generator, _FlatNormals])
@pytest.mark.parametrize("m_max", [256, 1000])
@pytest.mark.parametrize("delta0", [0.05, 1e-3])
@pytest.mark.parametrize("system", CONSTANT_SYSTEMS, ids=lambda s: s.name)
def test_constant_sensitivity_equals_the_pair_loop(system, delta0, m_max, generator,
                                                   monkeypatch):
    """On every constant system the sensitivity probe answers each candidate
    from its pair's norm, with no engine, and gives the report and generator
    state of the per-pair path, early stops included, on dyadic and other
    plans."""
    cfg = EstimatorConfig(m_max=m_max, search_radius=8)
    ccfg = ClassifierConfig(delta0=delta0)
    for seed in range(2):
        want_rng = generator(np.random.PCG64(seed))
        want = sensitivity_test(_per_pair(system), cfg, ccfg, want_rng)
        rng = generator(np.random.PCG64(seed))
        with monkeypatch.context() as m:
            m.setattr(rds.PairEngine, "__init__", lambda *a: pytest.fail("an engine was built"))
            got = sensitivity_test(system, cfg, ccfg, rng)
        assert repr(got) == repr(want)
        assert rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("m_max", [256, 1000])
def test_constant_rows_at_an_eps_a_pair_reaches(m_max):
    """With eps the first pair's norm c, a dyadic plan gives that pair the
    value eps itself, which stops the row. On a plan that is not dyadic the
    mean of c over a window can round below c, and then, with a tolerance
    of one subnormal, the pair breaks the chain eps * density <= banach.
    Both probes give the rows and report of the per-pair path."""
    system = catalog.load("rot1-trivial")
    cfg = EstimatorConfig(m_max=m_max, search_radius=8, tolerance=5e-324)
    reached = violations = 0
    for seed in range(40):
        c = _row_norms(system, 0.1, np.random.default_rng(seed), 1)
        ccfg = ClassifierConfig(eps_list=(float(c[0]),), delta_grid=(0.1,), pair_budget=8)
        got = _modulus_probes(system, cfg, ccfg, np.random.default_rng(seed))
        want = _modulus_probes(_per_pair(system), cfg, ccfg, np.random.default_rng(seed))
        assert got == want
        wme = wme_test(system, cfg, ccfg, np.random.default_rng(seed))
        stability = mean_l_stable_test(system, cfg, ccfg, np.random.default_rng(seed))
        reached += wme.rows[0].pairs_tested == 1 and wme.rows[0].worst_value == c[0]
        violations += not stability.chain_ok
    assert reached if m_max == 256 else violations


def test_constant_modulus_rows_build_no_engine(monkeypatch):
    """The modulus probes of the rotation systems build no PairEngine; those
    of mixed, whose cat fiber is not constant, still do."""
    built = []
    init = rds.PairEngine.__init__

    def counting(engine, system, x, y):
        built.append(system.name)
        init(engine, system, x, y)

    monkeypatch.setattr(rds.PairEngine, "__init__", counting)
    for name in ("rot2", "rot1-trivial", "mixed"):
        system = catalog.load(name)
        wme_test(system, CFG, CCFG, np.random.default_rng(5))
        mean_l_stable_test(system, CFG, CCFG, np.random.default_rng(5))
    assert set(built) == {"mixed"}


@pytest.mark.parametrize("name,scans", [("rot2", 1), ("mixed", 2)])
def test_sup_fiber_value_scans_constant_fibers_once(name, scans, monkeypatch):
    """Constant fibers share norm0 and the plan, so sup_fiber_weyl scans
    one of rot2's two fibers; it scans both of mixed's. The estimate is the
    one pair_summary picks from the scans of every fiber, bitwise."""
    system = catalog.load(name)
    picks = []
    scan = pseudometrics._scan
    monkeypatch.setattr(pseudometrics, "_scan", lambda *a, **k: picks.append(1) or scan(*a, **k))
    for x, y in (((0.1,) * system.dim, (0.13,) * system.dim),
                 ((0.9,) * system.dim, (0.2,) * system.dim)):
        picks.clear()
        est = sup_fiber_weyl(system, x, y, CFG)
        assert len(picks) == scans
        assert repr(est) == repr(pair_summary(system, x, y, CFG)["sup-fiber-weyl"])


def test_report_tables_equal_asdict():
    """The report builds its table rows directly, with the keys, key order,
    number types and values of dataclasses.asdict."""
    for name in ("rot2", "cat-trivial"):
        rep = dichotomy_report(catalog.load(name), CFG, CCFG, seed=9)
        blob = rep.to_dict()
        for key, rows in (("modulus_table", rep.wme.rows),
                          ("stability_table", rep.stability.rows)):
            got = [[(k, type(v), v) for k, v in row.items()] for row in blob[key]]
            want = [[(k, type(v), v) for k, v in dataclasses.asdict(r).items()] for r in rows]
            assert got == want


def test_dichotomy_inconclusive_when_both_probes_fail():
    """delta0 above the torus diameter makes witnesses impossible while the
    modulus search still fails, so neither side of the dichotomy holds."""
    ccfg = ClassifierConfig(
        eps_list=(0.2, 0.05),
        delta_grid=(1e-1, 1e-2),
        pair_budget=4,
        point_budget=2,
        candidate_budget=3,
        delta0=2.0,
        eps_sequence=(0.1, 1e-2),
        grid_resolution=8,
    )
    rep = dichotomy_report(catalog.load("cat-trivial"), CFG, ccfg, seed=9)
    assert rep.verdict == "inconclusive"
    assert rep.suggestion is not None
    assert rep.crosschecks["verdicts_exclusive"]
    assert not rep.crosschecks["dichotomy_consistent"]


def test_report_serialization_and_text():
    rep = dichotomy_report(catalog.load("rot2"), CFG, CCFG, seed=9)
    blob = json.loads(json.dumps(rep.to_dict()))
    assert blob["verdict"] == "wme-evidence"
    assert blob["seed"] == 9
    assert len(blob["modulus_table"]) == len(CCFG.eps_list)
    assert blob["sensitivity"]["points"]
    text = rep.to_text()
    assert "verdict: wme-evidence" in text
    assert "modulus table" in text
    assert "crosscheck quantitative_chain: ok" in text


def test_report_is_reproducible_for_a_seed():
    a = dichotomy_report(catalog.load("cat2"), CFG, CCFG, seed=21)
    b = dichotomy_report(catalog.load("cat2"), CFG, CCFG, seed=21)
    assert a.to_dict() == b.to_dict()


def _report_and_generator(system, cfg, ccfg, seed, monkeypatch):
    """dichotomy_report, and the generator it drew from, as it leaves it."""
    made = []
    default_rng = np.random.default_rng
    with monkeypatch.context() as m:
        m.setattr(np.random, "default_rng", lambda s: made.append(default_rng(s)) or made[-1])
        report = dichotomy_report(system, cfg, ccfg, seed)
    return report, made[0]


# every path of the draw-ahead at small caps (see REPORT_GOLDEN and
# WIDE_GOLDEN), a constant system, and an expanding system at the default
# caps, where every prediction holds
SEQUENCE_CASES = [pytest.param(*p.values[:3], SMALL_CLASSIFIER, id=p.id)
                  for p in REPORT_GOLDEN] + [
    pytest.param(*p.values[:3], WIDE_CLASSIFIER, id=p.id) for p in WIDE_GOLDEN] + [
    pytest.param("rot2", None, 4, CCFG, id="rot2"),
    pytest.param("cat-trivial", None, 1, ClassifierConfig(), id="cat-trivial-default"),
]


@pytest.mark.parametrize("spec,caps,seed,ccfg", SEQUENCE_CASES)
def test_public_probes_in_sequence_give_the_report(spec, caps, seed, ccfg, monkeypatch):
    """wme_test, mean_l_stable_test and sensitivity_test called in sequence
    on one generator give the rows and records of dichotomy_report, bitwise,
    and leave that generator where the report leaves its own, whether the
    report drew its pairs ahead, fell back from a wrong prediction or drew
    nothing ahead."""
    system = catalog.load(spec) if isinstance(spec, str) else catalog.build_system(spec)
    cfg = EstimatorConfig() if caps is None else EstimatorConfig(
        n_max=caps[0], m_max=caps[1], search_radius=caps[2])
    report, report_rng = _report_and_generator(system, cfg, ccfg, seed, monkeypatch)
    rng = np.random.default_rng(seed)
    probes = (wme_test(system, cfg, ccfg, rng), mean_l_stable_test(system, cfg, ccfg, rng),
              sensitivity_test(system, cfg, ccfg, rng))
    assert repr(probes) == repr((report.wme, report.stability, report.sensitivity))
    assert rng.bit_generator.state == report_rng.bit_generator.state


def test_a_default_report_holds_no_raw_line():
    """A default-config cat2 report at seed 7 peaks below 3.5 MB of traced
    allocations (2.9 MB on numpy 2.4.6): its pass over the pairs drawn
    ahead folds each block of positions as it steps, and a stack keeps only
    each profile's picks. A pass that held its raw (positions, dim, n)
    states, or stacks that kept every profile's window means, reached
    4.2 MB. The report runs once first, so that cached plans are not
    counted."""
    system = catalog.load("cat2")
    dichotomy_report(system, seed=7)
    tracemalloc.start()
    try:
        dichotomy_report(system, seed=7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5e6


def test_a_chunked_report_is_the_report(monkeypatch):
    """The batched walk takes every line of the drawn-ahead pairs, on both
    fibers, in one pass at the default budget, and three lines a pass with
    an element budget that holds three; the report is the same, byte for
    byte, but for the budget it prints."""
    system = catalog.load("cat2")
    walk_line, sizes = rds._walk_line, []

    def spy(w, d, steps, powers, first, stop, fold=False):
        sizes.append((d.shape[1], stop - first))
        return walk_line(w, d, steps, powers, first, stop, fold)

    monkeypatch.setattr(rds, "_walk_line", spy)
    docs, passes = [], []
    for budget in (72, pseudometrics.DEFAULT_ELEMENT_BUDGET):
        sizes.clear()
        cfg = EstimatorConfig(n_max=64, m_max=8, search_radius=8, element_budget=budget)
        doc = dichotomy_report(system, cfg, SMALL_CLASSIFIER, seed=7).to_dict()
        assert doc.pop("estimator")["element_budget"] == budget
        docs.append(json.dumps(doc))
        passes.append(list(sizes))
    # every line is the box's first axis, [-8, 16); on each of the two
    # fibers, 9 predicted rows and 12 predicted candidates: 42 columns
    assert {length for _, length in passes[0] + passes[1]} == {24}
    assert [n for n, _ in passes[0]] == [3] * 14
    assert [n for n, _ in passes[1]] == [42]
    assert docs[0] == docs[1]


@pytest.mark.parametrize("name,walks", [("z2-cat", False), ("zxc3-order3", False),
                                        ("cat2", False), ("cat2-64-8-8", True)])
def test_only_a_first_eps_that_stops_at_first_pairs_draws_ahead(name, walks, monkeypatch):
    """A report draws pairs ahead, and seeds their boxes, only when every
    row of wme's first eps stopped at its first pair: z2-cat and cat2 at
    (64, 16, 2) and zxc3-order3 pass a row of that eps and seed nothing;
    cat2 at (64, 8, 8) holds every prediction."""
    spec, caps, seed, _ = next(p.values for p in REPORT_GOLDEN if p.id == name)
    system = catalog.load(spec) if isinstance(spec, str) else catalog.build_system(spec)
    cfg = EstimatorConfig(n_max=caps[0], m_max=caps[1], search_radius=caps[2])
    seed_boxes, passes = classify._seed_boxes, []
    monkeypatch.setattr(classify, "_seed_boxes", lambda *a: passes.append(1) or seed_boxes(*a))
    dichotomy_report(system, cfg, SMALL_CLASSIFIER, seed=seed)
    assert bool(passes) == walks
