"""Besicovitch, Weyl, and Banach mean-separation estimators.

Every estimator here and in :mod:`meanrds.density` is one min-max scan of
Folner-window means (``_scan``). For each scheduled window it takes the means
over the window's translates by the search ball, picks over the translates
(inner max or min), and picks over the windows (outer max or min):

* ``besicovitch_mean``: untranslated windows on the tail of the n_max
  schedule, outer max (finite stand-in for a limsup).
* ``banach_mean``: the whole m_max schedule, inner max over the ball, outer
  min (finite stand-in for the inf-sup form).
* ``weyl_mean``: reported through ``banach_mean``; the sup over translated
  window averages and the inf-sup agree in the limit, and the min-max scan is
  the stable finite proxy for both.
* ``translated_besicovitch_scan``: the tail of the n_max schedule, inner and
  outer max; a lower bound for the sup over translates, kept as a diagnostic
  because its tail never settles on expanding systems.

Ties keep the first window and the first translate (ball order). The scan
starts from -inf (outer max) or +inf (outer min) at the first scanned window
with no translate, so when no mean beats that start (every mean +inf under an
outer min, as for a pair with no common fiber) the estimate reports the first
scanned window and translate None. Untranslated scans report translate None.
A window whose sum adds +inf to -inf has a NaN mean, which no pick can
order, so a scan that reads one raises ValueError.

Profiles come either from a pair of points in a system (sup over admissible
fibers, a single fiber, or the weighted fiber average) or from synthetic
profiles on the group Z used by the worked examples and tests. A profile is
read only over boxes with tuple corners (``ValueSource.range_values``), and
a scan reads it once, over the box holding every translated window; on Z
that box is a range of times. Each scan's schedule, ball and box come from
one cached ``_scan_plan``, which checks the box against the element budget
before it builds the ball. A pair's profile is one of the box reads of
its :class:`PairEngine`, chosen once, with its domain check, by
``_engine_source``. The profiles of one pair share one engine, which walks
each fiber once: ``pair_summary`` and ``sup_fiber_weyl`` read all their
estimates from one engine, and ``pair_summary`` scans no values twice.
A scan reads each window's inner pick, the first extreme mean over the
translates and that translate (``_picks``), from one array of window
means. The pairs a classify report draws ahead take the window means of
their profiles in stacks, one ``_windows.window_means`` call each
(``_keep_means``); the engine keeps only each profile's inner-max picks,
which its source serves to its next inner-max scan on that plan, with the
bits of its own read.

A source that knows its profile to be one value c (``constant``) is never
read; the engine reports it for a fiber whose every generator matrix on
its base orbit is the identity, for the sup and weighted average over such
fibers, and for the sup of a pair with no common fiber (+inf). The scan
still takes its plan, so budget and group errors are those of a read, then
answers from the plan's window sizes, before the window loop: when every
size is a power of two and c times the largest does not overflow, every
window mean is c, the bits the table gives on a constant box; otherwise
(an overflow, a cap that is not a power of two, a cyclic factor such as C3)
each mean comes from :func:`_windows.constant_mean_rows`. Every translate
ties, so the first of the ball is picked, and the first extreme mean, taken
strictly against the start, picks the window the tie and start rules pick.

Estimates carry their schedule, the attained window and translate, and a
truncation note; the Banach-style scans are heuristic two-sided truncations
and are labeled as such. The one scan, ``_scan``, builds each estimate with
its final kind and note; only ``weyl`` relabels a ``banach`` scan it reuses,
and ``sup-fiber-weyl`` the fiber estimate it picks. The classify probes read
the ``value`` of these same estimates, except that a row of constant
profiles takes its values from ``_constant_banach_values`` in one pass.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

from . import _windows
from .groups import (DEFAULT_ELEMENT_BUDGET, AmenableGroup, BudgetError, FolnerFamily,
                     parse_group, search_ball)
from .rds import DomainError, PairEngine, RandomDynamicalSystem, _is_number

BANACH_NOTE = "heuristic two-sided truncation (m_max={m}, radius={r})"
BESICOVITCH_NOTE = "tail max over untranslated windows; truncation bias unknown"
SCAN_NOTE = "translated tail scan; lower bound of the sup over translates"
WEYL_NOTE = " (reported via the min-max identity over translated windows)"

# most elements one stacked window-means call sums (``_keep_means``): a
# stack of about 28 boxes of the default Z plan, whose doubling levels stay
# in cache. On the stacks of three default classifies (2 vCPU x86-64 VM,
# numpy 2.4.6) 32-box stacks took 5.7 ms, one call per stack 9.1 ms and
# one call per box 37 ms, and they peak at a third of the memory of
# 128-box stacks.
STACK_ELEMENTS = 1 << 15


def _check_field_types(cfg) -> None:
    """Raise ValueError for a config value of the wrong kind: an int field
    takes an integer, a float field a finite real number and a tuple field a
    list of finite real numbers; a bool is none of these."""
    for f in dataclasses.fields(cfg):
        val = getattr(cfg, f.name)
        if isinstance(f.default, tuple):
            vals, kind, text = val, numbers.Real, "a list of finite real numbers"
        elif isinstance(f.default, int):
            vals, kind, text = (val,), numbers.Integral, "an integer"
        else:
            vals, kind, text = (val,), numbers.Real, "a finite real number"
        # only a float can be NaN or infinite (isfinite would overflow on a huge int)
        if not isinstance(vals, (tuple, list)) or not all(
                _is_number(v, kind) and (not isinstance(v, float) or math.isfinite(v))
                for v in vals):
            raise ValueError(f"{f.name} must be {text}, got {val!r}")


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
    element_budget: int = DEFAULT_ELEMENT_BUDGET

    def __post_init__(self):
        _check_field_types(self)
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
    """A separation profile indexed by group elements.

    ``constant`` is the profile's value at every element when the source
    knows it to be constant, else None; a scan then never reads the profile
    (module docstring)."""

    group: AmenableGroup
    label: str
    constant: float | None = None

    def range_values(self, lo, hi) -> np.ndarray:
        """Values over the box lo <= g < hi (corner tuples), flattened in
        row-major order, coordinate 0 slowest."""
        raise NotImplementedError

    def _box(self, plan) -> np.ndarray:
        """The profile over the plan's box, each cyclic axis whole and then
        padded by wrap, so that translates wrap mod k."""
        box = self.range_values(plan.lo, plan.hi).reshape(plan.shape)
        return np.pad(box, plan.pad, mode="wrap") if plan.pad else box

    def _slot(self):
        """(store, key) where :func:`_keep_means` keeps this profile's
        picks, or None when it keeps none."""
        return None

    def _picks(self, plan, inner) -> tuple[list, list]:
        """For each scanned window of the plan, the ``inner`` pick (max or
        min) over the means of the profile over its translates by the
        plan's ball: :func:`_picked` of the means, as lists.

        Inner-max picks that :func:`_keep_means` kept for this profile on
        this plan are served once; otherwise the profile is read once, over
        the plan's box (:meth:`_box`), and :func:`_windows.window_means`
        reads every window from its dyadic table."""
        slot = self._slot()
        if slot is not None and inner is max:
            store, key = slot
            if key in store and store[key][0] is plan:
                return store.pop(key)[1]
        values, at = _picked(_windows.window_means(self._box(plan), plan.starts, plan.windows),
                             inner)
        return values.tolist(), at.tolist()


class _EngineSource(ValueSource):
    """One profile of an engine's pair: ``read`` is the engine's box read,
    and ``profile`` names it on the engine ("sup", "integral" or a fiber
    index)."""

    def __init__(self, engine: PairEngine, read, profile, label: str, constant: float | None):
        self.group = engine.sys.group
        self.engine = engine
        self.read = read
        self.profile = profile
        self.label = label
        self.constant = constant

    def range_values(self, lo, hi):
        return self.read(lo, hi)

    def _slot(self):
        return self.engine._picks, (self.profile, None)


class SyntheticSource(ValueSource):
    """Profile on Z given by a vectorized function of the time index."""

    def __init__(self, fn, label: str):
        self.fn = fn
        self.label = label
        self.group = parse_group("Z")

    @classmethod
    def of_constant(cls, c: float, label: str) -> "SyntheticSource":
        """The profile c at every time, known to be constant."""
        src = cls(lambda t: np.full(t.shape, c, dtype=np.float64), label)
        src.constant = c
        return src

    def range_values(self, lo, hi):
        t = np.arange(lo[0], hi[0], dtype=np.int64)
        return np.asarray(self.fn(t), dtype=np.float64)


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
    and ``periodic:<v0,v1,...>``. A NaN value is rejected; ``inf`` is allowed
    (the separation of a pair with no common fiber).
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
        if math.isnan(c):
            raise ValueError(f"synthetic profile {spec!r} has a NaN value")
        return SyntheticSource.of_constant(c, spec)
    if spec.startswith("periodic:"):
        vals = np.asarray([float(v) for v in spec.split(":", 1)[1].split(",")], dtype=np.float64)
        if np.isnan(vals).any():
            raise ValueError(f"synthetic profile {spec!r} has a NaN value")
        return SyntheticSource(lambda t: vals[t % vals.size], spec)
    raise ValueError(f"unknown synthetic profile {spec!r}")


def _fiber_source(engine: PairEngine, idx: int) -> ValueSource:
    """The profile of the engine's pair in fiber idx, unchecked."""
    return _EngineSource(engine, functools.partial(engine.fiber_range, idx), idx,
                         f"fiber[{engine.sys.base.labels[idx]}]", engine.fiber_constant(idx))


def _engine_source(engine: PairEngine, mode: str, omega=None) -> ValueSource:
    """The ``mode`` profile of the engine's pair, after its domain check."""
    system = engine.sys
    if mode == "sup":
        return _EngineSource(engine, engine.dtilde_range, "sup", "sup", engine.dtilde_constant())
    if mode == "fiber":
        idx = system.base.index_of(omega)
        fs = system.fibers[idx]
        if not (fs.contains(engine.x) and fs.contains(engine.y)):
            raise DomainError("both points must lie in the chosen fiber domain")
        return _fiber_source(engine, idx)
    if mode == "integral":
        if engine.admissible != system.base.support:
            raise DomainError("integral mode needs both points in every support fiber")
        return _EngineSource(engine, engine.integral_range, "integral", "integral",
                             engine.integral_constant())
    raise ValueError(f"unknown pair mode {mode!r}")


def pair_source(
    system: RandomDynamicalSystem,
    x,
    y,
    mode: str = "sup",
    omega=None,
) -> ValueSource:
    """Separation profile of a pair: ``sup`` over admissible fibers,
    a single ``fiber``, or the weighted ``integral`` over the support."""
    return _engine_source(PairEngine(system, x, y), mode, omega)


# ---------------------------------------------------------------------------
# the window scan

_ScanPlan = collections.namedtuple(
    "_ScanPlan", "schedule scanned ball lo hi shape pad windows sizes dyadic starts")


def _scan_plan(group: AmenableGroup, cap: int, tail_fraction: float | None,
               radius: int, budget: int) -> _ScanPlan:
    """Everything a scan decides before it reads its profile: the
    ``schedule`` of windows of at most ``cap`` elements, the ``scanned`` part
    (its tail, or all of it when ``tail_fraction`` is None), the ``ball`` of
    translates of word length <= ``radius``, and the box holding every
    translated window: corners ``lo`` and ``hi``, ``shape``, the wrap
    ``pad`` of the cyclic axes (None on Z^a), each scanned window's widths
    (``windows``) and element count (``sizes``), whether every size is a
    power of two (``dyadic``), and the ball's ``starts`` in the box, one
    read-only index array per axis.

    The box is [-r, r + top) on each free axis, since the ball reaches
    exactly +-r there, and each cyclic axis whole; it is checked against
    ``budget`` before the ball is built. A finite group raises
    :class:`GroupSpecError` from its schedule first. Plans are cached, since
    scans repeat their parameters; an error is not cached. The cache is keyed
    on the group's factors, not the group object: every command builds its
    own equal group, and a key of ints compares without Python calls."""
    return _cached_plan(group.free_rank, group.cyclic_orders, cap, tail_fraction,
                        radius, budget)


@functools.lru_cache(maxsize=64)
def _cached_plan(free: int, orders: tuple[int, ...], cap: int, tail_fraction: float | None,
                 radius: int, budget: int) -> _ScanPlan:
    group = AmenableGroup(free, orders)
    folner = FolnerFamily(group)
    schedule = _windows.window_schedule(folner, cap)
    scanned = schedule
    if tail_fraction is not None:
        scanned = schedule[_windows.tail_indices(schedule, tail_fraction)[0]:]
    top = scanned[-1]
    lo = (-radius,) * free + (0,) * len(orders)
    hi = (radius + top,) * free + orders
    shape = tuple(b - a for a, b in zip(lo, hi))
    if math.prod(shape) > budget:
        raise BudgetError(f"box {list(shape)} over the windows and translates has "
                          f"{math.prod(shape)} elements, over budget {budget}")
    ball = search_ball(group, radius, budget)
    starts = np.asarray(ball, dtype=np.int64) - lo
    starts = tuple(np.ascontiguousarray(axis) for axis in starts.T)
    for axis in starts:
        axis.flags.writeable = False
    windows = tuple(map(folner.widths, scanned))
    pad = ((0, 0),) * free + tuple((0, w - 1) for w in windows[-1][free:]) if orders else None
    sizes = tuple(map(math.prod, windows))
    dyadic = not any(size & (size - 1) for size in sizes)
    return _ScanPlan(schedule, scanned, ball, lo, hi, shape, pad, windows, sizes, dyadic, starts)


def _picked(means: np.ndarray, inner) -> tuple[np.ndarray, np.ndarray]:
    """The ``inner`` pick over the last (translate) axis of window means:
    each row's extreme mean and the first translate holding it. argmax and
    argmin take the first NaN of a row, so a window with one picks a NaN."""
    at = means.argmax(axis=-1) if inner is max else means.argmin(axis=-1)
    rows = means.reshape(-1, means.shape[-1])
    return rows[np.arange(at.size), at.ravel()].reshape(at.shape), at


def _keep_means(sources, plan: _ScanPlan, budget: int) -> None:
    """Take the inner-max picks of each source on the plan, as
    :meth:`ValueSource._picks` takes them, and keep them where the source
    serves them from on its next inner-max scan on that plan: each source
    is an engine's profile or a separation set of one, not constant.

    The profiles are read one by one (``range_values``) and stacked in
    equal chunks of at most ``min(budget, STACK_ELEMENTS)`` elements (or
    one box), and each stack takes one :func:`_windows.window_means` call,
    which gives each box the bits of its own call; only each box's picks
    are kept, not its means. Kept picks are keyed by the profile, the
    float eps of a separation set (or None) and the plan itself, never by
    a label."""
    if not sources:
        return
    shape = [n + sum(p) for n, p in zip(plan.shape, plan.pad)] if plan.pad else plan.shape
    per = max(1, min(budget, STACK_ELEMENTS) // math.prod(shape))
    count = math.ceil(len(sources) / math.ceil(len(sources) / per))
    for a in range(0, len(sources), count):
        part = sources[a:a + count]
        values, at = _picked(_windows.window_means(np.stack([src._box(plan) for src in part]),
                                                   plan.starts, plan.windows), max)
        for b, src in enumerate(part):
            store, key = src._slot()
            store[key] = plan, (values[:, b].tolist(), at[:, b].tolist())


def _constant_means(c: float, plan: _ScanPlan) -> list[float]:
    """The mean of the constant profile c over each scanned window of the
    plan, in closed form; every translate of a window has it.

    On a plan whose sizes are all powers of two, each mean is (c * size) /
    size, which is c itself unless c * size overflows: scaling by 2^k and
    back is exact. The largest size overflows first, so one check covers
    the plan. Any other plan, or an overflow, takes each mean from
    :func:`_windows.constant_mean_rows`."""
    if plan.dyadic and math.isfinite(c * plan.sizes[-1]):
        return [c] * len(plan.sizes)
    return [float(_windows.constant_mean_rows(c, size)) for size in plan.sizes]


def _scan(source: ValueSource, cfg: EstimatorConfig, kind: str, note: str, *,
          outer, inner=None, tail: bool = False) -> PseudometricEstimate:
    """The one min-max window scan behind every estimator and density, as
    an estimate of the given kind and truncation note.

    Scans the tail of the n_max schedule when ``tail`` is set, else the whole
    m_max schedule. ``inner`` (max or min) picks over the ball translates of
    each window, or None scans the untranslated windows (the ball of radius
    0); ``outer`` (max or min) picks over the windows. The schedule, ball and
    box come from one cached :func:`_scan_plan`. The tie and start rules are
    in the module docstring. A constant source is answered before the window
    loop, from the plan's sizes. Otherwise the loop walks each window's
    inner pick (:meth:`ValueSource._picks`). A picked mean that is NaN, a
    window sum that adds +inf to -inf, raises ValueError: argmax and argmin
    pick the first NaN of the means, so no window holding one is passed
    over.
    """
    plan = _scan_plan(source.group, cfg.n_max if tail else cfg.m_max,
                      cfg.tail_fraction if tail else None,
                      0 if inner is None else cfg.search_radius, cfg.element_budget)
    better = operator.gt if outer is max else operator.lt
    value, window, translate = (-math.inf if outer is max else math.inf), plan.scanned[0], None
    if source.constant is not None:
        means = _constant_means(source.constant, plan)
        k = means.index(outer(means))
        if better(means[k], value):
            value, window = means[k], plan.scanned[k]
            translate = None if inner is None else plan.ball[0]
    else:
        for n, mean, k in zip(plan.scanned, *source._picks(plan, inner)):
            if math.isnan(mean):
                raise ValueError(f"profile {source.label!r} has a NaN mean over window {n}: "
                                 "its sum adds +inf to -inf")
            if better(mean, value):
                value, window = mean, n
                translate = None if inner is None else plan.ball[k]
    return PseudometricEstimate(
        kind=kind,
        value=value,
        window_index=window,
        translate=translate,
        schedule=plan.schedule,
        tail_start=plan.scanned[0] if tail else None,
        truncation_note=note,
        source_label=source.label,
    )


def _constant_banach_values(group: AmenableGroup, c: np.ndarray,
                            cfg: EstimatorConfig) -> np.ndarray:
    """For each entry c of the array, the ``banach_mean`` value of a source
    on ``group`` known to be the constant c, with the same bits: the least of
    its :func:`_constant_means`, which is c itself on a dyadic plan unless a
    finite c times the largest size overflows."""
    plan = _scan_plan(group, cfg.m_max, None, cfg.search_radius, cfg.element_budget)
    with np.errstate(over="ignore"):
        if plan.dyadic and np.isfinite(c * plan.sizes[-1])[np.isfinite(c)].all():
            return c
    return np.minimum.reduce([_windows.constant_mean_rows(c, size) for size in plan.sizes])


def _as_weyl(est: PseudometricEstimate, kind: str) -> PseudometricEstimate:
    return dataclasses.replace(est, kind=kind, truncation_note=est.truncation_note + WEYL_NOTE)


def _besicovitch(source: ValueSource, cfg: EstimatorConfig, kind: str) -> PseudometricEstimate:
    return _scan(source, cfg, kind, BESICOVITCH_NOTE, outer=max, tail=True)


def besicovitch_mean(source: ValueSource, cfg: EstimatorConfig) -> PseudometricEstimate:
    """Tail max of untranslated window means."""
    return _besicovitch(source, cfg, "besicovitch")


def banach_mean(source: ValueSource, cfg: EstimatorConfig) -> PseudometricEstimate:
    """Min over the schedule of the max over ball-translated window means."""
    note = BANACH_NOTE.format(m=cfg.m_max, r=cfg.search_radius)
    return _scan(source, cfg, "banach", note, outer=min, inner=max)


def weyl_mean(source: ValueSource, cfg: EstimatorConfig) -> PseudometricEstimate:
    """Weyl mean separation, reported through the Banach min-max scan."""
    return _as_weyl(banach_mean(source, cfg), "weyl")


def translated_besicovitch_scan(source: ValueSource, cfg: EstimatorConfig) -> PseudometricEstimate:
    """Max over ball translates of the tail max of translated window means."""
    return _scan(source, cfg, "translated-besicovitch-scan", SCAN_NOTE,
                 outer=max, inner=max, tail=True)


def mean_curves(source: ValueSource, cfg: EstimatorConfig):
    """Diagnostic curves on the banach schedule: for each window size m the
    untranslated mean A_m and the max over ball translates S_m.

    A_m is the mean at the identity translate, which is part of the ball, so
    S_m >= A_m holds bitwise."""
    plan = _scan_plan(source.group, cfg.m_max, None, cfg.search_radius, cfg.element_budget)
    if source.constant is not None:
        curve = _constant_means(source.constant, plan)
        return plan.schedule, curve, list(curve)
    at = plan.ball.index(source.group.identity())
    means = _windows.window_means(source._box(plan), plan.starts, plan.windows)
    return plan.schedule, means[:, at].tolist(), [float(np.max(row)) for row in means]


# ---------------------------------------------------------------------------
# system-level conveniences

def besicovitch_separation(system, x, y, cfg) -> PseudometricEstimate:
    return besicovitch_mean(pair_source(system, x, y, "sup"), cfg)


def banach_separation(system, x, y, cfg) -> PseudometricEstimate:
    return banach_mean(pair_source(system, x, y, "sup"), cfg)


def weyl_separation(system, x, y, cfg) -> PseudometricEstimate:
    return weyl_mean(pair_source(system, x, y, "sup"), cfg)


def _fiber_weyl(source: ValueSource, cfg) -> PseudometricEstimate:
    note = BANACH_NOTE.format(m=cfg.m_max, r=cfg.search_radius) + WEYL_NOTE
    return _scan(source, cfg, "fiber-weyl", note, outer=min, inner=max)


def integral_besicovitch(system, x, y, cfg) -> PseudometricEstimate:
    return _besicovitch(pair_source(system, x, y, "integral"), cfg, "integral-besicovitch")


def fiber_besicovitch(system, x, y, omega, cfg) -> PseudometricEstimate:
    return _besicovitch(pair_source(system, x, y, "fiber", omega), cfg, "fiber-besicovitch")


def fiber_weyl(system, x, y, omega, cfg) -> PseudometricEstimate:
    """Weyl mean separation within one fiber, via the same min-max scan."""
    return _fiber_weyl(pair_source(system, x, y, "fiber", omega), cfg)


def _sup_of_fiber_weyls(estimates) -> PseudometricEstimate:
    best = max(estimates, key=lambda est: est.value, default=None)
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


def sup_fiber_weyl(system, x, y, cfg) -> PseudometricEstimate:
    """First maximum of the fiber Weyl estimates over support fibers holding
    both points, all read from one engine; a conservative 0 with a note when
    no fiber holds both. When every fiber holding both is constant, each has
    the profile ``norm0`` and the same plan, hence the same value, so the
    first one's scan, the first maximum, answers for all."""
    return _engine_sup_fiber_weyl(PairEngine(system, x, y), cfg)


def _engine_sup_fiber_weyl(engine: PairEngine, cfg) -> PseudometricEstimate:
    """:func:`sup_fiber_weyl` of the engine's pair, read from the engine."""
    fibers = engine.admissible
    if engine.dtilde_constant() is not None:
        fibers = fibers[:1]
    return _sup_of_fiber_weyls(_fiber_weyl(_fiber_source(engine, i), cfg) for i in fibers)


def _relabel(est: PseudometricEstimate, kind: str, source: ValueSource) -> PseudometricEstimate:
    """``est`` as the estimate of ``source``, whose values it scanned bitwise."""
    return dataclasses.replace(est, kind=kind, source_label=source.label)


def pair_summary(system, x, y, cfg) -> dict[str, PseudometricEstimate]:
    """All headline estimates for one pair, keyed by kind.

    Every estimate reads one engine. Its scans take two plans, the n_max
    tail and the m_max plan over the search radius, so before any scan it
    reads each fiber that the scans will read over the hull of the two
    plans' boxes, when that fits the element budget: each fiber is then
    walked once, and every scan's box is a slice of the hull. No values
    are scanned twice with one plan: ``weyl`` and ``sup-fiber-weyl`` reuse
    the ``banach`` and ``fiber-weyl`` scans, and the sup's scans, relabelled,
    answer for the one admissible fiber, whose profile is the sup's
    bitwise, and for the integral over a one-point support of weight 1.0,
    since 0.0 + 1.0 * v == v for every fold value (none is -0.0)."""
    engine = PairEngine(system, x, y)
    tail = _scan_plan(system.group, cfg.n_max, cfg.tail_fraction, 0, cfg.element_budget)
    full = _scan_plan(system.group, cfg.m_max, None, cfg.search_radius, cfg.element_budget)
    lo, hi = tuple(map(min, tail.lo, full.lo)), tuple(map(max, tail.hi, full.hi))
    if math.prod(b - a for a, b in zip(lo, hi)) <= cfg.element_budget:
        for i in engine.admissible:
            if engine.fiber_constant(i) is None:
                engine.fiber_range(i, lo, hi)
    sup = _engine_source(engine, "sup")
    out: dict[str, PseudometricEstimate] = {}
    out["besicovitch"] = besicovitch_mean(sup, cfg)
    out["banach"] = banach_mean(sup, cfg)
    out["weyl"] = _as_weyl(out["banach"], "weyl")
    one = len(engine.admissible) == 1
    if engine.admissible == system.base.support:
        integral = _engine_source(engine, "integral")
        if one and system.base.weights[engine.admissible[0]] == 1.0:
            out["integral-besicovitch"] = _relabel(out["besicovitch"], "integral-besicovitch",
                                                   integral)
        else:
            out["integral-besicovitch"] = _besicovitch(integral, cfg, "integral-besicovitch")
    fibers = []
    for i in engine.admissible:
        src = _fiber_source(engine, i)
        if one:
            fb = _relabel(out["besicovitch"], "fiber-besicovitch", src)
            fw = _relabel(out["weyl"], "fiber-weyl", src)
        else:
            fb, fw = _besicovitch(src, cfg, "fiber-besicovitch"), _fiber_weyl(src, cfg)
        fibers.append((system.base.labels[i], fb, fw))
    out["sup-fiber-weyl"] = _sup_of_fiber_weyls(fw for _, _, fw in fibers)
    for label, fb, fw in fibers:
        out[f"fiber-besicovitch[{label}]"] = fb
        out[f"fiber-weyl[{label}]"] = fw
    return out
