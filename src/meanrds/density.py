"""Upper, lower, and Banach densities of subsets of the group.

A subset is described by an indicator profile (values 0 or 1). The four
densities are finite window proxies, each one call of the min-max window
scan of :mod:`meanrds.pseudometrics`, with its tie and start rules (first
window and translate on ties; first scanned window and translate None when
nothing beats the starting +-inf):

* upper / lower: max / min of the ratios |E n F_n| / |F_n| over the tail of
  the window schedule (untranslated windows);
* banach upper: min over the schedule of the max over ball translates of the
  window ratio;
* banach lower: max over the schedule of the min over ball translates.

The ordering chain banach-lower <= lower <= upper <= banach-upper is a fact
about the limits. Finite proxies can break it for sets with remainder
effects (a period-3 set against power-of-two windows overshoots on small
tails), so the bundled chain fixtures are dyadic-periodic, where every proxy
is exact. See docs/formats.md for the caveat.

Separation sets {g : separation(g) >= eps} of a pair plug in through
:func:`separation_set`, sharing the pair's profile arrays.
"""

from __future__ import annotations

import numpy as np

from .pseudometrics import (
    EstimatorConfig,
    PseudometricEstimate,
    SyntheticSource,
    ValueSource,
    _scan,
)

DensityEstimate = PseudometricEstimate

UPPER_NOTE = "tail max of window ratios; truncation bias unknown"
LOWER_NOTE = "tail min of window ratios; truncation bias unknown"
BANACH_UPPER_NOTE = "min over windows of max over translates (m_max={m}, radius={r})"
BANACH_LOWER_NOTE = "max over windows of min over translates (m_max={m}, radius={r})"


def _mod_mask(period: int, residues: tuple[int, ...]):
    table = np.zeros(period, dtype=np.float64)
    for r in residues:
        table[r % period] = 1.0
    return lambda t: table[t % period]


def subset_indicator(spec: str) -> SyntheticSource:
    """Named subsets of Z as 0/1 profiles.

    ``all``, ``empty``, ``evens``, ``odds``, ``squares``, ``dyadic-blocks``,
    and ``mod:<period>:<r1,r2,...>``.
    """
    from .pseudometrics import synthetic_source

    if spec in ("evens", "odds", "squares", "dyadic-blocks"):
        return synthetic_source(spec)
    if spec == "all":
        return SyntheticSource.of_constant(1.0, spec)
    if spec == "empty":
        return SyntheticSource.of_constant(0.0, spec)
    if spec.startswith("mod:"):
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError(f"expected mod:<period>:<residues>, got {spec!r}")
        period = int(parts[1])
        if period < 1:
            raise ValueError("period must be positive")
        residues = tuple(int(r) for r in parts[2].split(",") if r != "")
        return SyntheticSource(_mod_mask(period, residues), spec)
    raise ValueError(f"unknown subset {spec!r}")


class SeparationSet(ValueSource):
    """Indicator of {g : separation(g) >= eps}; +inf separations count."""

    def __init__(self, source: ValueSource, eps: float):
        if eps <= 0:
            raise ValueError("eps must be positive")
        self.source = source
        self.eps = eps
        self.group = source.group
        self.label = f"[{source.label} >= {eps:g}]"
        if source.constant is not None:
            self.constant = float(source.constant >= eps)

    def range_values(self, lo, hi):
        return (self.source.range_values(lo, hi) >= self.eps).astype(np.float64)

    def _slot(self):
        """Its source's store, keyed by the source's profile and this eps;
        none over a profile that is itself keyed by an eps."""
        slot = self.source._slot()
        if slot is None or slot[1][1] is not None:
            return None
        return slot[0], (slot[1][0], self.eps)


def upper_density(ind: ValueSource, cfg: EstimatorConfig) -> DensityEstimate:
    return _scan(ind, cfg, "upper-density", UPPER_NOTE, outer=max, tail=True)


def lower_density(ind: ValueSource, cfg: EstimatorConfig) -> DensityEstimate:
    return _scan(ind, cfg, "lower-density", LOWER_NOTE, outer=min, tail=True)


def banach_upper_density(ind: ValueSource, cfg: EstimatorConfig) -> DensityEstimate:
    note = BANACH_UPPER_NOTE.format(m=cfg.m_max, r=cfg.search_radius)
    return _scan(ind, cfg, "banach-upper-density", note, outer=min, inner=max)


def banach_lower_density(ind: ValueSource, cfg: EstimatorConfig) -> DensityEstimate:
    note = BANACH_LOWER_NOTE.format(m=cfg.m_max, r=cfg.search_radius)
    return _scan(ind, cfg, "banach-lower-density", note, outer=max, inner=min)


def density_summary(ind: ValueSource, cfg: EstimatorConfig) -> dict[str, DensityEstimate]:
    return {
        "banach-lower-density": banach_lower_density(ind, cfg),
        "lower-density": lower_density(ind, cfg),
        "upper-density": upper_density(ind, cfg),
        "banach-upper-density": banach_upper_density(ind, cfg),
    }


def separation_set(source: ValueSource, eps: float) -> SeparationSet:
    return SeparationSet(source, eps)
