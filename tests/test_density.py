"""Window densities of subsets of Z and of separation sets."""

import numpy as np
import pytest

from meanrds import catalog
from meanrds.density import (
    banach_lower_density,
    banach_upper_density,
    density_summary,
    lower_density,
    separation_set,
    subset_indicator,
    upper_density,
)
from meanrds.pseudometrics import (
    EstimatorConfig,
    SyntheticSource,
    pair_source,
    synthetic_source,
)
from meanrds.rds import torus_distance

CFG = EstimatorConfig(n_max=4096, m_max=1024, search_radius=64)


def _at(source, t):
    """The profile's value at time t: a one-element box read."""
    return float(source.range_values((t,), (t + 1,))[0])


def test_subset_registry():
    assert _at(subset_indicator("all"), 17) == 1.0
    assert _at(subset_indicator("empty"), 17) == 0.0
    m = subset_indicator("mod:3:0")
    assert [_at(m, t) for t in range(6)] == [1.0, 0.0, 0.0, 1.0, 0.0, 0.0]
    m2 = subset_indicator("mod:5:1,3")
    assert [_at(m2, t) for t in range(5)] == [0.0, 1.0, 0.0, 1.0, 0.0]
    with pytest.raises(ValueError):
        subset_indicator("mod:3")
    with pytest.raises(ValueError):
        subset_indicator("mod:0:1")
    with pytest.raises(ValueError):
        subset_indicator("wat")


def test_trivial_sets():
    for spec, want in (("all", 1.0), ("empty", 0.0)):
        out = density_summary(subset_indicator(spec), CFG)
        assert all(est.value == want for est in out.values())


def test_evens_every_density_exactly_half():
    out = density_summary(subset_indicator("evens"), CFG)
    assert set(out) == {
        "banach-lower-density",
        "lower-density",
        "upper-density",
        "banach-upper-density",
    }
    for kind, est in out.items():
        assert est.kind == kind
        assert est.value == 0.5


def test_dyadic_periodic_sets_chain_with_equality():
    """For sets with period a power of two every window of the tail counts
    the set exactly, so all four proxies agree."""
    for spec, want in (("mod:4:0", 0.25), ("mod:8:1,2,5", 3 / 8), ("odds", 0.5)):
        out = density_summary(subset_indicator(spec), CFG)
        vals = [
            out["banach-lower-density"].value,
            out["lower-density"].value,
            out["upper-density"].value,
            out["banach-upper-density"].value,
        ]
        assert vals[0] <= vals[1] <= vals[2] <= vals[3]
        assert vals == [want] * 4


def test_mod3_finite_chain_violation_is_real():
    """Period 3 against power-of-two windows: the 64-window ratio 22/64
    overshoots every translated 1024-window ratio, so the finite upper proxy
    exceeds the finite banach-upper proxy. The docs flag this caveat."""
    out = density_summary(subset_indicator("mod:3:0"), CFG)
    assert out["upper-density"].value == 22 / 64
    assert out["banach-upper-density"].value == 342 / 1024
    assert out["upper-density"].value > out["banach-upper-density"].value


def test_squares_densities():
    cfg = EstimatorConfig(n_max=10_000, m_max=10_000, search_radius=64)
    ind = subset_indicator("squares")
    assert banach_upper_density(ind, cfg).value == 100 / 10_000
    assert lower_density(ind, cfg).value == 100 / 10_000
    assert upper_density(ind, cfg).value <= 0.1
    # the truncated ball keeps every translate near 0, where squares are
    # still dense, so the banach-lower proxy overshoots the true value 0
    assert banach_lower_density(ind, cfg).value == 6 / 128


def test_complement_swaps_upper_and_lower_exactly():
    pairs = (("evens", "odds"), ("mod:4:0", "mod:4:1,2,3"))
    for a, b in pairs:
        da = density_summary(subset_indicator(a), CFG)
        db = density_summary(subset_indicator(b), CFG)
        # window widths are powers of two, so both ratios are exact dyadics
        assert da["upper-density"].value == 1.0 - db["lower-density"].value
        assert da["banach-upper-density"].value == 1.0 - db["banach-lower-density"].value


def test_dyadic_blocks_pinned_values():
    """Regression pins for a set whose window ratios never settle. No
    ordering between the four finite proxies is asserted: truncating the
    translate ball breaks every chain inequality here (the limits still obey
    banach-lower <= lower <= upper <= banach-upper)."""
    out = density_summary(subset_indicator("dyadic-blocks"), CFG)
    assert out["upper-density"].value == 1365 / 2048
    assert out["lower-density"].value == 21 / 64
    assert out["banach-upper-density"].value == 384 / 1024
    assert out["banach-lower-density"].value == 277 / 512


def test_separation_set_thresholding():
    src = synthetic_source("periodic:0.8,0.2,0.5")
    ss = separation_set(src, 0.5)
    assert [_at(ss, t) for t in range(6)] == [1.0, 0.0, 1.0, 1.0, 0.0, 1.0]
    got = ss.range_values((0,), (6,))
    assert np.array_equal(got, [1.0, 0.0, 1.0, 1.0, 0.0, 1.0])
    assert "periodic" in ss.label and ">= 0.5" in ss.label
    with pytest.raises(ValueError):
        separation_set(src, 0.0)


def test_separation_set_counts_infinite_values():
    src = SyntheticSource(
        lambda t: np.where(t % 2 == 0, np.inf, 0.0), "inf-on-evens"
    )
    ss = separation_set(src, 1e-3)
    assert _at(ss, 0) == 1.0 and _at(ss, 1) == 0.0
    assert upper_density(ss, CFG).value == 0.5


def test_separation_set_of_isometric_pair():
    sys_ = catalog.load("rot2")
    x, y = (0.1,), (0.45,)
    d = torus_distance(x, y)
    src = pair_source(sys_, x, y)
    below = density_summary(separation_set(src, d / 2), CFG)
    assert all(est.value == 1.0 for est in below.values())
    above = density_summary(separation_set(src, 2 * d), CFG)
    assert all(est.value == 0.0 for est in above.values())


def test_separation_set_of_hyperbolic_pair_has_positive_banach_density():
    sys_ = catalog.load("cat-trivial")
    src = pair_source(sys_, (0.3, 0.3), (0.3, 0.3 + 1e-5))
    out = density_summary(separation_set(src, 0.2), CFG)
    assert out["banach-upper-density"].value > 0.3
    for est in out.values():
        assert 0.0 <= est.value <= 1.0
    # a threshold above the torus diameter empties the set
    far = density_summary(separation_set(src, 1.0), CFG)
    assert all(est.value == 0.0 for est in far.values())


def test_banach_densities_keep_the_first_tie():
    # every window and translate ties, so the first of each is reported
    src = synthetic_source("constant:0.3125")
    for fn in (banach_upper_density, banach_lower_density):
        est = fn(src, CFG)
        assert (est.value, est.window_index, est.translate) == (0.3125, 1, (-64,))
