"""Besicovitch, Weyl, and Banach mean-separation estimators.

All estimators average a separation profile over Folner windows:

* ``besicovitch_mean``: window means over the untranslated windows, then the
  max over the tail of the schedule (finite stand-in for a limsup).
* ``banach_mean``: min over the schedule of the max over all translated
  windows within the search radius (finite stand-in for the inf-sup form).
* ``weyl_mean``: reported through ``banach_mean``; the sup over translated
  window averages and the inf-sup agree in the limit, and the min-max scan is
  the stable finite proxy for both.
* ``translated_besicovitch_scan``: max over translates of the tail-max of
  translated window means; a lower bound for the sup over translates, kept as
  a diagnostic because its tail never settles on expanding systems.

Profiles come either from a pair of points in a system (sup over admissible
fibers, a single fiber, or the weighted fiber average) or from synthetic
profiles on the group Z used by the worked examples and tests.

Estimates carry their schedule, the attained window and translate, and a
truncation note; the Banach-style scans are heuristic two-sided truncations
and are labeled as such.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import _windows
from .groups import AmenableGroup, FolnerFamily, parse_group, search_ball
from .rds import DomainError, PairEngine, RandomDynamicalSystem

BANACH_NOTE = "heuristic two-sided truncation (m_max={m}, radius={r})"
BESICOVITCH_NOTE = "tail max over untranslated windows; truncation bias unknown"
SCAN_NOTE = "translated tail scan; lower bound of the sup over translates"
WEYL_NOTE = " (reported via the min-max identity over translated windows)"


@dataclass(frozen=True)
class EstimatorConfig:
    """Truncation parameters shared by every estimator.

    n_max / m_max cap the element count of besicovitch / banach windows,
    search_radius bounds the word length of translates, tail_fraction sets
    which part of the schedule counts as the tail.
    """

    n_max: int = 4096
    m_max: int = 1024
    search_radius: int = 64
    tail_fraction: float = 0.5
    tolerance: float = 1e-9
    element_budget: int = 2_000_000

    def __post_init__(self):
        if self.n_max < 1 or self.m_max < 1:
            raise ValueError("window caps must be positive")
        if self.search_radius < 0:
            raise ValueError("search radius must be nonnegative")
        if not 0 < self.tail_fraction <= 1:
            raise ValueError("tail_fraction must be in (0, 1]")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class PseudometricEstimate:
    kind: str
    value: float
    window_index: int | None
    translate: tuple[int, ...] | None
    schedule: tuple[int, ...]
    tail_start: int | None
    truncation_note: str
    source_label: str

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "value": self.value,
            "window_index": self.window_index,
            "translate": list(self.translate) if self.translate is not None else None,
            "schedule": list(self.schedule),
            "tail_start": self.tail_start,
            "truncation_note": self.truncation_note,
            "source": self.source_label,
        }


# ---------------------------------------------------------------------------
# value sources

class ValueSource:
    """A separation profile indexed by group elements."""

    group: AmenableGroup
    label: str

    def value(self, g) -> float:
        raise NotImplementedError

    def range_values(self, lo: int, hi: int) -> np.ndarray | None:
        """Contiguous values on Z, or None when unsupported."""
        return None


class _EngineSource(ValueSource):
    def __init__(self, engine: PairEngine, mode: str, omega_idx: int | None = None):
        self.engine = engine
        self.group = engine.sys.group
        self.mode = mode
        self.omega_idx = omega_idx
        if mode == "fiber":
            self.label = f"fiber[{engine.sys.base.labels[omega_idx]}]"
        else:
            self.label = mode

    def value(self, g) -> float:
        if self.mode == "sup":
            return self.engine.dtilde_at(g)
        if self.mode == "fiber":
            return self.engine.fiber_at(g, self.omega_idx)
        return self.engine.integral_at(g)

    def range_values(self, lo: int, hi: int):
        if not self.group.is_line:
            return None
        if self.mode == "sup":
            return self.engine.dtilde_range(lo, hi)
        if self.mode == "fiber":
            return self.engine.fiber_range(self.omega_idx, lo, hi)
        return self.engine.integral_range(lo, hi)


class SyntheticSource(ValueSource):
    """Profile on Z given by a vectorized function of the time index."""

    def __init__(self, fn, label: str):
        self.fn = fn
        self.label = label
        self.group = parse_group("Z")

    def value(self, g) -> float:
        return float(self.fn(np.asarray([int(g[0])], dtype=np.int64))[0])

    def range_values(self, lo: int, hi: int):
        return np.asarray(self.fn(np.arange(lo, hi, dtype=np.int64)), dtype=np.float64)


def _squares_mask(t: np.ndarray) -> np.ndarray:
    r = np.floor(np.sqrt(np.maximum(t, 0).astype(np.float64) + 0.5)).astype(np.int64)
    return ((t >= 0) & (r * r == t)).astype(np.float64)


def _dyadic_blocks_mask(t: np.ndarray) -> np.ndarray:
    # membership in [4^k, 2*4^k) means the binary exponent is odd
    _, e = np.frexp(np.maximum(t, 1).astype(np.float64))
    return ((t >= 1) & (e % 2 == 1)).astype(np.float64)


def synthetic_source(spec: str) -> SyntheticSource:
    """Named separation profiles on Z.

    ``constant:<c>``, ``evens``, ``odds``, ``squares``, ``dyadic-blocks``,
    and ``periodic:<v0,v1,...>``.
    """
    if spec == "evens":
        return SyntheticSource(lambda t: (t % 2 == 0).astype(np.float64), spec)
    if spec == "odds":
        return SyntheticSource(lambda t: (t % 2 != 0).astype(np.float64), spec)
    if spec == "squares":
        return SyntheticSource(_squares_mask, spec)
    if spec == "dyadic-blocks":
        return SyntheticSource(_dyadic_blocks_mask, spec)
    if spec.startswith("constant:"):
        c = float(spec.split(":", 1)[1])
        return SyntheticSource(lambda t: np.full(t.shape, c, dtype=np.float64), spec)
    if spec.startswith("periodic:"):
        vals = np.asarray([float(v) for v in spec.split(":", 1)[1].split(",")], dtype=np.float64)
        if vals.size == 0:
            raise ValueError("periodic profile needs at least one value")
        return SyntheticSource(lambda t: vals[t % vals.size], spec)
    raise ValueError(f"unknown synthetic profile {spec!r}")


def pair_source(
    system: RandomDynamicalSystem,
    x,
    y,
    mode: str = "sup",
    omega=None,
) -> ValueSource:
    """Separation profile of a pair: ``sup`` over admissible fibers,
    a single ``fiber``, or the weighted ``integral`` over the support."""
    engine = system.pair_engine(x, y)
    if mode == "sup":
        return _EngineSource(engine, "sup")
    if mode == "fiber":
        idx = system.base.index_of(omega)
        fs = system.fibers[idx]
        if not (fs.contains(engine.x) and fs.contains(engine.y)):
            raise DomainError("both points must lie in the chosen fiber domain")
        return _EngineSource(engine, "fiber", idx)
    if mode == "integral":
        for i in system.base.support:
            if not (system.fibers[i].contains(engine.x) and system.fibers[i].contains(engine.y)):
                raise DomainError("integral mode needs both points in every support fiber")
        return _EngineSource(engine, "integral")
    raise ValueError(f"unknown pair mode {mode!r}")


# ---------------------------------------------------------------------------
# window mean engines

def _window_means_untranslated(source: ValueSource, schedule, cfg: EstimatorConfig):
    """Mean of the profile over each untranslated window of the schedule."""
    folner = FolnerFamily(source.group, cfg.element_budget)
    if source.group.is_line:
        vals = source.range_values(0, schedule[-1])
        return [float(means[0]) for _, means in
                _windows.line_window_means(vals, 0, (0,), schedule)]
    means = []
    for n in schedule:
        win = folner.window(n)
        row = np.asarray([source.value(h) for h in win.elements], dtype=np.float64)
        means.append(float(_windows.tree_mean_rows(row)[0]))
    return means


def _translated_window_means(source: ValueSource, schedule, cfg: EstimatorConfig):
    """For each scheduled window, the means over all its ball translates.

    Yields (window index, means array, ball elements)."""
    ball = search_ball(source.group, cfg.search_radius, cfg.element_budget)
    folner = FolnerFamily(source.group, cfg.element_budget)
    if source.group.is_line:
        offsets = [g[0] for g in ball]
        lo = min(offsets)
        hi = max(offsets) + schedule[-1]
        vals = source.range_values(lo, hi)
        for n, means in _windows.line_window_means(vals, lo, offsets, schedule):
            yield n, means, ball
        return
    grp = source.group
    for n in schedule:
        win = folner.window(n)
        rows = np.empty((len(ball), win.size), dtype=np.float64)
        for bi, g in enumerate(ball):
            for hj, h in enumerate(win.elements):
                rows[bi, hj] = source.value(grp.multiply(g, h))
        yield n, _windows.tree_mean_rows(rows), ball


def besicovitch_mean(source: ValueSource, cfg: EstimatorConfig) -> PseudometricEstimate:
    """Tail max of untranslated window means."""
    folner = FolnerFamily(source.group, cfg.element_budget)
    schedule = _windows.window_schedule(folner, cfg.n_max)
    means = _window_means_untranslated(source, schedule, cfg)
    tail = _windows.tail_indices(schedule, cfg.tail_fraction)
    best = max(tail, key=lambda i: means[i])
    return PseudometricEstimate(
        kind="besicovitch",
        value=float(means[best]),
        window_index=schedule[best],
        translate=None,
        schedule=schedule,
        tail_start=schedule[tail[0]],
        truncation_note=BESICOVITCH_NOTE,
        source_label=source.label,
    )


def banach_mean(source: ValueSource, cfg: EstimatorConfig) -> PseudometricEstimate:
    """Min over the schedule of the max over ball-translated window means."""
    folner = FolnerFamily(source.group, cfg.element_budget)
    schedule = _windows.window_schedule(folner, cfg.m_max)
    best_value = math.inf
    best_m = schedule[0]
    best_g = None
    for n, means, ball in _translated_window_means(source, schedule, cfg):
        k = int(np.argmax(means))
        s_m = float(means[k])
        if s_m < best_value:
            best_value = s_m
            best_m = n
            best_g = ball[k]
    return PseudometricEstimate(
        kind="banach",
        value=best_value,
        window_index=best_m,
        translate=best_g,
        schedule=schedule,
        tail_start=None,
        truncation_note=BANACH_NOTE.format(m=cfg.m_max, r=cfg.search_radius),
        source_label=source.label,
    )


def weyl_mean(source: ValueSource, cfg: EstimatorConfig) -> PseudometricEstimate:
    """Weyl mean separation, reported through the Banach min-max scan."""
    est = banach_mean(source, cfg)
    return dataclasses.replace(
        est, kind="weyl", truncation_note=est.truncation_note + WEYL_NOTE
    )


def translated_besicovitch_scan(source: ValueSource, cfg: EstimatorConfig) -> PseudometricEstimate:
    """Max over ball translates of the tail max of translated window means."""
    folner = FolnerFamily(source.group, cfg.element_budget)
    schedule = _windows.window_schedule(folner, cfg.n_max)
    tail = set(_windows.tail_indices(schedule, cfg.tail_fraction))
    tail_sched = [n for i, n in enumerate(schedule) if i in tail]
    best_value = -math.inf
    best_n = tail_sched[0]
    best_g = None
    for n, means, ball in _translated_window_means(source, tail_sched, cfg):
        k = int(np.argmax(means))
        if float(means[k]) > best_value:
            best_value = float(means[k])
            best_n = n
            best_g = ball[k]
    return PseudometricEstimate(
        kind="translated-besicovitch-scan",
        value=best_value,
        window_index=best_n,
        translate=best_g,
        schedule=schedule,
        tail_start=tail_sched[0],
        truncation_note=SCAN_NOTE,
        source_label=source.label,
    )


def mean_curves(source: ValueSource, cfg: EstimatorConfig):
    """Diagnostic curves on the banach schedule: for each window size m the
    untranslated mean A_m and the max over ball translates S_m.

    The identity translate is part of the ball, computed through the same
    summation tree, so S_m >= A_m holds bitwise."""
    folner = FolnerFamily(source.group, cfg.element_budget)
    schedule = _windows.window_schedule(folner, cfg.m_max)
    untranslated = _window_means_untranslated(source, schedule, cfg)
    translated_max = [
        float(np.max(means)) for _, means, _ in
        _translated_window_means(source, schedule, cfg)
    ]
    return schedule, untranslated, translated_max


# ---------------------------------------------------------------------------
# system-level conveniences

def besicovitch_separation(system, x, y, cfg) -> PseudometricEstimate:
    return besicovitch_mean(pair_source(system, x, y, "sup"), cfg)


def banach_separation(system, x, y, cfg) -> PseudometricEstimate:
    return banach_mean(pair_source(system, x, y, "sup"), cfg)


def weyl_separation(system, x, y, cfg) -> PseudometricEstimate:
    return weyl_mean(pair_source(system, x, y, "sup"), cfg)


def integral_besicovitch(system, x, y, cfg) -> PseudometricEstimate:
    est = besicovitch_mean(pair_source(system, x, y, "integral"), cfg)
    return dataclasses.replace(est, kind="integral-besicovitch")


def fiber_besicovitch(system, x, y, omega, cfg) -> PseudometricEstimate:
    est = besicovitch_mean(pair_source(system, x, y, "fiber", omega), cfg)
    return dataclasses.replace(est, kind="fiber-besicovitch")


def fiber_weyl(system, x, y, omega, cfg) -> PseudometricEstimate:
    """Weyl mean separation within one fiber, via the same min-max scan."""
    est = banach_mean(pair_source(system, x, y, "fiber", omega), cfg)
    return dataclasses.replace(
        est, kind="fiber-weyl", truncation_note=est.truncation_note + WEYL_NOTE
    )


def sup_fiber_weyl(system, x, y, cfg) -> PseudometricEstimate:
    """Max of the fiber Weyl estimates over support fibers holding both
    points; a conservative 0 with a note when no fiber holds both."""
    best = None
    for i in system.base.support:
        fs = system.fibers[i]
        eng_x, eng_y = x, y
        if not (fs.contains(tuple(float(v) % 1.0 for v in eng_x))
                and fs.contains(tuple(float(v) % 1.0 for v in eng_y))):
            continue
        est = fiber_weyl(system, x, y, i, cfg)
        if best is None or est.value > best.value:
            best = est
    if best is None:
        return PseudometricEstimate(
            kind="sup-fiber-weyl",
            value=0.0,
            window_index=None,
            translate=None,
            schedule=(),
            tail_start=None,
            truncation_note="no common fiber; empty sup reported as 0",
            source_label="sup-fiber",
        )
    return dataclasses.replace(best, kind="sup-fiber-weyl")


def pair_summary(system, x, y, cfg) -> dict[str, PseudometricEstimate]:
    """All headline estimates for one pair, keyed by kind."""
    out: dict[str, PseudometricEstimate] = {}
    out["besicovitch"] = besicovitch_separation(system, x, y, cfg)
    out["banach"] = banach_separation(system, x, y, cfg)
    out["weyl"] = weyl_separation(system, x, y, cfg)
    try:
        out["integral-besicovitch"] = integral_besicovitch(system, x, y, cfg)
    except DomainError:
        pass
    out["sup-fiber-weyl"] = sup_fiber_weyl(system, x, y, cfg)
    engine_adm = system.admissible_fibers(x, y)
    for i in engine_adm:
        label = system.base.labels[i]
        out[f"fiber-besicovitch[{label}]"] = fiber_besicovitch(system, x, y, i, cfg)
        out[f"fiber-weyl[{label}]"] = fiber_weyl(system, x, y, i, cfg)
    return out
