"""Dichotomy probes: modulus search, density stability, sensitivity."""

import json

import numpy as np
import pytest

from meanrds import catalog, pseudometrics, rds
from meanrds.classify import (
    ClassifierConfig,
    dichotomy_report,
    equicontinuity_region,
    equicontinuous_point_set,
    mean_l_stable_test,
    openness_violations,
    sensitivity_test,
    wme_test,
)
from meanrds.pseudometrics import EstimatorConfig

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
    """The rotation systems never call the walk kernel; mixed calls it only
    from its hyperbolic fiber w1, which its base action fixes."""
    starts = set()
    for dim, kernel in list(rds._WALKS.items()):
        def counting(w, d, count, nxt, rows, kernel=kernel):
            starts.add(w)
            return kernel(w, d, count, nxt, rows)
        monkeypatch.setitem(rds._WALKS, dim, counting)
    walked = {}
    for name in ("rot2", "rot1-trivial", "mixed"):
        starts.clear()
        dichotomy_report(catalog.load(name), CFG, CCFG, seed=9)
        walked[name] = set(starts)
    assert walked == {"rot2": set(), "rot1-trivial": set(), "mixed": {1}}


def test_classify_reads_no_constant_profile(monkeypatch):
    """Every separation profile of a rotation system is constant, so a
    default-config report reads no profile and folds no box; mixed still
    reads its sup profile (rotation max cat) and its cat fiber w1, never
    its rotation fiber w0 alone."""
    reads, folds = set(), []
    read, fold = pseudometrics._EngineSource.range_values, rds._fold_norm_rows

    def reading(source, lo, hi):
        reads.add(source.label)
        return read(source, lo, hi)

    def folding(coords):
        folds.append(len(coords))
        return fold(coords)

    monkeypatch.setattr(pseudometrics._EngineSource, "range_values", reading)
    monkeypatch.setattr(rds, "_fold_norm_rows", folding)
    seen = {}
    for name in ("rot2", "rot1-trivial", "mixed"):
        reads.clear()
        folds.clear()
        dichotomy_report(catalog.load(name), seed=7)
        seen[name] = (set(reads), bool(folds))
    assert seen == {"rot2": (set(), False), "rot1-trivial": (set(), False),
                    "mixed": ({"sup", "fiber[w1]"}, True)}


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
