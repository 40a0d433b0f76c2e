"""Mean-equicontinuity versus mean-sensitivity classification.

Three seeded probes feed one report:

* ``wme_test``: for each eps, descend a delta grid until every sampled pair
  within delta keeps its Banach mean separation below eps; the found deltas
  form a modulus table.
* ``mean_l_stable_test``: same descent, but the criterion is that the Banach
  upper density of the separation set {g : separation(g) >= eps} stays below
  eps. The two tests agree in the limit; their per-eps agreement and the
  pointwise chain eps * density <= banach are reported as crosschecks.
* ``sensitivity_test``: for every sampled base point and every eps in a
  decreasing sequence, search a shrinking ball for a witness whose fiber
  Weyl separation exceeds delta0. A point is robust when every eps yields a
  witness; the probe passes when all sampled points are robust.

The two modulus probes run through one delta descent, ``_modulus_search``:
per delta it draws every pair before measuring any and stops at the first
pair that reaches eps, so a delta's draws do not depend on how many of its
pairs are measured. A row's draws, ``_draw_row``, take the random stream
of n single pair draws. With every support fiber full they are two
generator calls per pair into the row's arrays; a row with a zero-norm
direction is drawn again pair by pair from the saved generator state, as
every row is on a system with a sliced support fiber.

A report on a system with a non-constant support fiber draws pairs ahead
(``_Draws``). It measures wme's first eps pair by pair. If each of those
rows stopped at its first pair, the outcome on expanding systems, it draws
in stream order the first pair of every later row of both modulus probes,
the sensitivity points and every point's first candidate at each eps,
assuming that outcome holds on (each row stops at its first pair, each
first candidate is a witness), and saves the generator state before each
row and candidate. The engines of those pairs have the generator-0 lines
of all their non-constant fibers walked together, in one batched pass
(``rds._seed_lines``, chunked to the element budget), which on Z folds
each block of positions into the engines' boxes as it steps. Then every
profile those pairs will be measured by is window-summed on the Banach
plan in stacks, one ``_windows.window_means`` call a stack
(``pseudometrics._keep_means``), kind by kind: the sup profile of each
row, the separation set of each mean-L row at its eps, and each
candidate's non-constant fiber profiles. Each engine keeps only the
picks the probes' scans read of those means, each window's greatest mean
and its first translate, and the scans read them through the usual
sources, with the bits of the pair's own read. The probes take the draws
and engines in order. A row whose first pair stays below eps is drawn
again from its saved state for its other pairs, the generator then put
back, and the draws ahead still line up with the stream. They stop lining
up when a row passes before the last delta (its eps takes fewer rows) or
a first candidate is no witness (its point and eps take another): the
draws not yet taken are dropped, the generator goes back to its state
before them, and the probes draw and measure pair by pair, as the public
probes always do. So rows, records and the generator state after each
probe are those of the public probes called in sequence on one generator.
The pass over a report's ~80 predicted pairs costs about as much as
measuring 11 pairs one at a time (4.1 ms against 0.38 ms a pair on
cat-trivial at the default caps, on a 2 vCPU x86-64 VM), so the first
eps is measured before anything is drawn ahead: a report whose first rows
do not stop at their first pair (a small search radius, a finite cocycle)
draws nothing ahead and walks nothing it does not read.

Every probe, and the region search, reads the ``value`` of the estimates
that reports print: ``banach_mean``, ``banach_upper_density``,
``fiber_weyl`` and ``sup_fiber_weyl``. A modulus-probe pair gets its
profile from ``pair_source`` (a pair drawn ahead, from its seeded engine),
except on a system whose support fibers are all constant (isometric):
there every sup profile is the pair's constant
``fold_norm(torus_delta(x, y))``, and a whole row of pairs is measured in
one numpy pass from the same draws (``_row_norms``,
``pseudometrics._constant_banach_values``), with the bits, stop, counts and
chain check of the pair loop. There a sensitivity candidate's value is the
least window mean of its pair's norm, with no engine.

The verdict is "wme-evidence" or "sensitive-evidence" only when exactly one
side holds; anything else is "inconclusive" with an escalation suggestion.
Regions of eps-equicontinuity points and their finite-depth intersections
are provided for the openness diagnostics.
"""

from __future__ import annotations

import bisect
import collections
import dataclasses
from dataclasses import dataclass

import numpy as np

from .density import banach_upper_density, separation_set
from .pseudometrics import (
    EstimatorConfig,
    _check_field_types,
    _constant_banach_values,
    _constant_means,
    _engine_source,
    _engine_sup_fiber_weyl,
    _fiber_source,
    _keep_means,
    _scan_plan,
    banach_mean,
    fiber_weyl,
    pair_source,
    sup_fiber_weyl,
)
from .rds import (
    DTILDE_CONVENTION,
    PairEngine,
    RandomDynamicalSystem,
    _cube_root,
    _direction_norm,
    _fold_norm_rows,
    _near_point,
    _seed_lines,
    torus_distance,
)


@dataclass(frozen=True)
class ClassifierConfig:
    eps_list: tuple[float, ...] = (0.2, 0.1, 0.05)
    delta_grid: tuple[float, ...] = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
    pair_budget: int = 200
    point_budget: int = 4
    candidate_budget: int = 6
    delta0: float = 0.05
    eps_sequence: tuple[float, ...] = (0.1, 0.01, 1e-3, 1e-4, 1e-5, 1e-6)
    grid_resolution: int = 16

    def __post_init__(self):
        _check_field_types(self)
        for name in ("eps_list", "delta_grid", "eps_sequence"):
            vals = getattr(self, name)
            if not vals or any(v <= 0 for v in vals):
                raise ValueError(f"{name} must be nonempty and positive")
        if any(b >= a for a, b in zip(self.delta_grid, self.delta_grid[1:])):
            raise ValueError("delta_grid must be strictly decreasing")
        if any(b >= a for a, b in zip(self.eps_sequence, self.eps_sequence[1:])):
            raise ValueError("eps_sequence must be strictly decreasing")
        if self.delta0 <= 0:
            raise ValueError("delta0 must be positive")
        for name in ("pair_budget", "point_budget", "candidate_budget", "grid_resolution"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class ModulusRow:
    eps: float
    delta: float | None
    pairs_tested: int
    worst_value: float
    passed: bool


@dataclass(frozen=True)
class WmeResult:
    rows: tuple[ModulusRow, ...]
    passed: bool


@dataclass(frozen=True)
class StabilityRow:
    eps: float
    delta: float | None
    pairs_tested: int
    worst_density: float
    passed: bool


@dataclass(frozen=True)
class StabilityResult:
    rows: tuple[StabilityRow, ...]
    passed: bool
    chain_ok: bool
    chain_detail: str


@dataclass(frozen=True)
class WitnessRecord:
    eps: float
    witness: tuple[float, ...] | None
    value: float | None
    candidates_tried: int


@dataclass(frozen=True)
class SensitivityPoint:
    omega_label: str
    point: tuple[float, ...]
    records: tuple[WitnessRecord, ...]
    robust: bool


@dataclass(frozen=True)
class SensitivityResult:
    delta0: float
    eps_sequence: tuple[float, ...]
    points: tuple[SensitivityPoint, ...]
    passed: bool


@dataclass(frozen=True)
class RegionResult:
    omega_label: str
    eps: float
    resolution: int
    delta_grid: tuple[float, ...]
    members: tuple[tuple[tuple[float, ...], float], ...]
    non_members: tuple[tuple[float, ...], ...]

    @property
    def member_points(self) -> frozenset:
        return frozenset(pt for pt, _ in self.members)


def _draw_row(system, rng, n):
    """Every draw of n pairs (x, y within delta of x), each on a support
    fiber drawn by weight, as (stream, at, dirs, norms, sliced).

    Each pair takes the draws of a support draw by weight, then
    ``FiberSpace.sample`` and ``FiberSpace.sample_near`` on that fiber, in
    that order: the support uniform and the point's uniforms, the slice index
    on a sliced fiber, the Gaussian direction over the free axes and, unless
    there is no free axis or the direction's norm is 0, the radius uniform.
    ``stream`` holds the uniforms in order and ``at`` where each pair's
    uniforms start; ``dirs`` holds each pair's direction (0.0 on a fixed
    axis), ``norms`` its :func:`_direction_norm` (0.0 when it draws no
    radius), and ``sliced`` maps each pair on a sliced fiber to its x, the
    start of its near step and its free axes. The draws do not depend on
    delta.

    With every support fiber full, pair i's uniforms start at i * (2 + dim),
    and the row takes two generator calls per pair, filled in place: the
    direction, then the radius uniform with the next pair's support and
    point. A zero norm draws no radius and so shifts every later draw: the
    row is then drawn again pair by pair, from the generator state saved
    before it. A row with a sliced support fiber is always drawn pair by
    pair, as a slice index comes between its pair's uniforms, on the fiber
    the support uniform picks. The fills are the routines of single draws,
    so the stream, and the generator state after the row, are those of n
    single draws."""
    d = system.dim
    random, normal = rng.random, rng.standard_normal
    stream = np.empty(n * (2 + d))
    dirs = np.zeros((n, d))
    if system._all_full:
        state = rng.bit_generator.state
        random(out=stream[:1 + d])
        for a, direction in zip(range(1 + d, n * (2 + d), 2 + d), dirs):
            normal(out=direction)
            random(out=stream[a:a + 2 + d])
        norms = _direction_norms(dirs)
        if norms.all():
            return stream, np.arange(0, n * (2 + d), 2 + d), dirs, norms, {}
        rng.bit_generator.state = state
    fibers = [system.fibers[i] for i in system.base.support]
    # only a sliced fiber needs its pair's support index before the next draw
    cdf = None if system._all_full else system.base.support_cdf.tolist()
    at = np.empty(n, dtype=np.intp)
    sliced = {}  # pair -> (x, start of its near step, free axes)
    random(out=stream[:1 + d])
    a = 0
    for i in range(n):
        at[i] = a
        free = range(d)
        if cdf is not None:
            fs = fibers[bisect.bisect_right(cdf, float(stream[a]))]
            if fs.slices is not None:
                x = stream[a + 1:a + 1 + d].tolist()
                for ax, val in fs.slices[int(rng.integers(len(fs.slices)))]:
                    x[ax] = val
                origin, free = fs._near_base(x)
                sliced[i] = (tuple(x), origin, free)
        drawn = False
        if free:
            direction = normal(len(free))
            dirs[i, list(free)] = direction
            drawn = _direction_norm(direction.tolist()) > 0.0
        # this pair's radius uniform and the next pair's support and point
        a += 1 + d
        count = drawn + (1 + d if i < n - 1 else 0)
        if count:
            random(out=stream[a:a + count])
        a += drawn
    return stream, at, dirs, _direction_norms(dirs), sliced


def _direction_norms(dirs: np.ndarray) -> np.ndarray:
    """:func:`_direction_norm` of each row, with the same bits: a fixed
    axis's 0.0 adds 0.0, and 0.0 + c * c is c * c."""
    s = dirs[:, 0] * dirs[:, 0]
    for j in range(1, dirs.shape[1]):
        s += dirs[:, j] * dirs[:, j]
    return np.sqrt(s)


def _sample_pairs(system, delta, rng, n):
    """n pairs (x, y within delta of x), from the draws of :func:`_draw_row`.
    The draws are made for the whole row before this returns; the returned
    iterator builds each pair, with ``sample_near``'s step, when it is
    reached."""
    stream, at, dirs, norms, sliced = _draw_row(system, rng, n)
    d = system.dim
    all_axes = tuple(range(d))

    def pairs():
        for i, a in enumerate(at.tolist()):
            x = origin = tuple(stream[a + 1:a + 1 + d].tolist())
            free = all_axes
            if i in sliced:
                x, origin, free = sliced[i]
            norm = float(norms[i])
            if norm == 0.0:
                yield x, origin
            else:
                direction = dirs[i, list(free)].tolist()
                yield x, _near_point(origin, free, direction, norm, float(stream[a + 1 + d]), delta)

    return pairs()


def _row_norms(system, delta, rng, n) -> np.ndarray:
    """``fold_norm(torus_delta(x, y))`` of each of the n pairs that
    :func:`_sample_pairs` gives for the same draws, with the same bits.

    On a system whose support fibers are all constant, this is each pair's
    sup profile, ``PairEngine.dtilde_constant``: a pair lies in the fiber it
    was drawn from (x on a slice, y stepped from the slice holding x, on its
    free axes), so some fiber holds both points.

    The row's y come in one numpy pass with ``_near_point``'s correctly
    rounded operations in its order: x + (radius * c) / norm on the free
    axes, then mod 1 with 1.0 taken to 0.0. A fixed axis of a sliced pair
    adds (radius * 0.0) / norm = 0.0, which leaves it as it is. The radius's
    u^(1/3) for three free axes is ``_cube_root``, pair by pair."""
    stream, at, dirs, norms, sliced = _draw_row(system, rng, n)
    d = system.dim
    origin = stream[np.add.outer(at, np.arange(1, 1 + d))]
    x = origin.copy()
    k = np.full(n, d)  # free axes per pair
    for i, (xi, oi, axes) in sliced.items():
        x[i], origin[i], k[i] = xi, oi, len(axes)
    y = origin.copy()
    step = norms > 0.0  # the pairs that draw a radius
    u, k = stream[at[step] + 1 + d], k[step]
    root = np.where(k == 1, u, np.sqrt(u))
    root[k == 3] = [_cube_root(v) for v in u[k == 3].tolist()]
    moved = (origin[step] + (delta * root)[:, None] * dirs[step] / norms[step, None]) % 1.0
    moved[moved == 1.0] = 0.0
    y[step] = moved
    diff = (x - y) % 1.0
    diff[diff == 1.0] = 0.0
    return _fold_norm_rows(diff)


def _sample_points(system, ccfg: ClassifierConfig, rng) -> list[tuple]:
    """The sensitivity probe's base points: ``point_budget`` draws on each
    support fiber, in support order, as (fiber, point)."""
    return [(idx, system.fibers[idx].sample(rng))
            for idx in system.base.support for _ in range(ccfg.point_budget)]


class _Draws:
    """The draws of the probes in stream order, from ``rng``: each row, the
    sensitivity points and each near candidate as a probe reaches it, or
    from what was drawn ahead (module docstring). A first pair or candidate
    drawn ahead comes with its engine, whose lines are seeded; every other
    pair comes with None.

    Draws are made ahead only with ``cfg`` given, as a report gives it on a
    system with a non-constant support fiber, and only when every row of
    wme's first eps stopped at its first pair (``held``). Each is kept with
    what it was drawn for (a row's delta, the points, a candidate) and the
    generator state before it, and serves only a request for the same."""

    def __init__(self, system: RandomDynamicalSystem, ccfg: ClassifierConfig, rng,
                 cfg: EstimatorConfig | None = None):
        self.system = system
        self.ccfg = ccfg
        self.rng = rng
        self.cfg = cfg
        self.held = cfg is not None
        self.taken = 0  # modulus rows taken
        self.ahead = collections.deque()  # (drawn for, draws, generator state before them)

    def _predict(self) -> None:
        """Draw ahead the rest of the probes, assuming that each modulus
        row stops at its first pair, as every row of wme's first eps did,
        and that each point's first candidate is a witness; seed the
        predicted pairs' lines over the first axis of the box that every
        probe reads, in one pass; then take the window means of every
        profile the predicted pairs will be measured by, in stacks of one
        kind, and keep their picks (``_keep_means``): each row's sup
        profile, each mean-L row's separation set at its eps, and each
        candidate's fiber profiles."""
        system, rng, ccfg, cfg = self.system, self.rng, self.ccfg, self.cfg
        ahead, rows, near = self.ahead, [], []
        # wme's later eps, then every eps of mean-L
        for eps in ccfg.eps_list[1:] + ccfg.eps_list:
            for delta in ccfg.delta_grid:
                state = rng.bit_generator.state
                x, y = next(_sample_pairs(system, delta, rng, ccfg.pair_budget))
                rows.append((eps, PairEngine(system, x, y)))
                ahead.append((delta, self._row(x, y, rows[-1][1], state, delta), state))
        state = rng.bit_generator.state
        points = _sample_points(system, ccfg, rng)
        ahead.append(("points", points, state))
        for idx, x in points:
            for eps in ccfg.eps_sequence:
                state = rng.bit_generator.state
                y = system.fibers[idx].sample_near(x, eps, rng)
                near.append(PairEngine(system, x, y))
                ahead.append(("near", (y, near[-1]), state))
        plan = _scan_plan(system.group, cfg.m_max, None, cfg.search_radius, cfg.element_budget)
        _seed_lines([e for _, e in rows] + near, plan.lo[0], plan.hi[0], cfg.element_budget)
        sups = [(eps, _engine_source(e, "sup")) for eps, e in rows]
        meanl = len(ccfg.eps_list[1:]) * len(ccfg.delta_grid)  # the first mean-L row
        for stack in ([src for _, src in sups if src.constant is None],
                      [separation_set(src, eps) for eps, src in sups[meanl:]
                       if src.constant is None],
                      [_fiber_source(e, i) for e in near for i in e.admissible
                       if e.fiber_constant(i) is None]):
            _keep_means(stack, plan, cfg.element_budget)

    def _row(self, x, y, engine, state, delta: float):
        """A row drawn ahead: its first pair and, if the probe goes on past
        it, the rest of the row drawn again from the generator state before
        it, the generator then put back where it was."""
        yield x, y, engine
        rng = self.rng
        now, rng.bit_generator.state = rng.bit_generator.state, state
        pairs = _sample_pairs(self.system, delta, rng, self.ccfg.pair_budget)
        rng.bit_generator.state = now
        next(pairs)
        for x, y in pairs:
            yield x, y, None

    def _fresh_row(self, delta: float):
        """A row drawn now; a probe that goes on past its first pair ends
        the predictions."""
        pairs = _sample_pairs(self.system, delta, self.rng, self.ccfg.pair_budget)
        x, y = next(pairs)
        yield x, y, None
        self.held = False
        for x, y in pairs:
            yield x, y, None

    def _take(self, drawn_for):
        """The next draws ahead if they were drawn for ``drawn_for``, else
        None after :meth:`drop`: a row passed before the last delta, so its
        eps takes fewer rows than were drawn."""
        if self.ahead and self.ahead[0][0] == drawn_for:
            return self.ahead.popleft()[1]
        self.drop()
        return None

    def row(self, delta: float):
        """The next row of ``pair_budget`` pairs within delta, as (x, y,
        engine)."""
        if self.held and self.taken == len(self.ccfg.delta_grid):
            self._predict()
        self.taken += 1
        return self._take(delta) or self._fresh_row(delta)

    def points(self) -> list[tuple]:
        return self._take("points") or _sample_points(self.system, self.ccfg, self.rng)

    def near(self, fs, x, eps: float):
        """The next candidate near x, as (y, engine)."""
        return self._take("near") or (fs.sample_near(x, eps, self.rng), None)

    def drop(self) -> None:
        """Drop the draws ahead, which no longer line up with the stream, and
        put the generator back to its state before the first of them; the
        sensitivity probe calls it when a candidate is no witness, since its
        point and eps then take another."""
        if self.ahead:
            self.rng.bit_generator.state = self.ahead[0][2]
            self.ahead.clear()


def _measured(values: np.ndarray, eps: float) -> np.ndarray:
    """The values a per-pair row measures: up to the first that reaches eps."""
    hit = np.flatnonzero(values >= eps)
    return values[:hit[0] + 1] if hit.size else values


def _modulus_search(system, ccfg: ClassifierConfig, draws: _Draws, measure,
                    measure_row) -> list[tuple]:
    """The delta descent of both modulus probes.

    For each eps, walk down ``ccfg.delta_grid``. At each delta, draw all
    ``pair_budget`` pairs within delta before measuring any, then measure
    them in order, stopping at the first whose value ``measure(src, eps)``
    of its sup profile reaches eps. The first delta whose measured pairs
    all stay below eps is the modulus. Returns one (eps, delta or None,
    pairs measured, worst value, passed) row per eps; the counts are those
    of the last delta tried.

    On a system whose support fibers are all constant, each pair's value
    depends only on its sup profile, the constant :func:`_row_norms`, and
    the cached scan plan, so a row is measured in one numpy pass from the
    same draws: ``measure_row(c, eps)`` takes the row's constants and
    returns the list of values the pair loop would measure, with the same
    bits. No pair source or engine is built."""
    rows = []
    for eps in ccfg.eps_list:
        found = None
        for delta in ccfg.delta_grid:
            if system._all_constant:
                values = measure_row(_row_norms(system, delta, draws.rng, ccfg.pair_budget), eps)
            else:
                values = []
                for x, y, engine in draws.row(delta):
                    src = (pair_source(system, x, y, "sup") if engine is None
                           else _engine_source(engine, "sup"))
                    values.append(measure(src, eps))
                    if values[-1] >= eps:
                        break
            worst = max(values)
            if worst < eps:
                found = delta
                break
        rows.append((eps, found, len(values), worst, found is not None))
    return rows


def wme_test(
    system: RandomDynamicalSystem,
    cfg: EstimatorConfig,
    ccfg: ClassifierConfig,
    rng,
    *,
    _draws: _Draws | None = None,
) -> WmeResult:
    """Modulus search: largest grid delta keeping all pair separations < eps.

    ``_draws`` is the report's :class:`_Draws`; without it the probe draws
    from ``rng``."""

    def measure(src, eps):
        return banach_mean(src, cfg).value

    def measure_row(c, eps):
        return _measured(_constant_banach_values(system.group, c, cfg), eps).tolist()

    draws = _draws or _Draws(system, ccfg, rng)
    rows = tuple(ModulusRow(*r)
                 for r in _modulus_search(system, ccfg, draws, measure, measure_row))
    return WmeResult(rows, all(r.passed for r in rows))


def mean_l_stable_test(
    system: RandomDynamicalSystem,
    cfg: EstimatorConfig,
    ccfg: ClassifierConfig,
    rng,
    *,
    _draws: _Draws | None = None,
) -> StabilityResult:
    """Like the modulus search, with the separation-set density as criterion.

    Also verifies the pointwise chain eps * density <= banach + tolerance on
    every measured pair; the first violation is reported."""
    first_violation = []

    def check(eps, bd, ban):
        if eps * bd > ban + cfg.tolerance and not first_violation:
            first_violation.append(
                f"eps={eps:g}: eps*density {eps * bd:.6g} exceeds banach {ban:.6g}"
            )

    def measure(src, eps):
        bd = banach_upper_density(separation_set(src, eps), cfg).value
        check(eps, bd, banach_mean(src, cfg).value)
        return bd

    def measure_row(c, eps):
        # the separation set of a constant c is the constant float(c >= eps)
        bd = _measured(_constant_banach_values(system.group, (c >= eps).astype(float), cfg), eps)
        ban = _constant_banach_values(system.group, c[:len(bd)], cfg)
        if not first_violation:
            for b, a in zip(bd.tolist(), ban.tolist()):
                check(eps, b, a)
        return bd.tolist()

    draws = _draws or _Draws(system, ccfg, rng)
    rows = tuple(StabilityRow(*r)
                 for r in _modulus_search(system, ccfg, draws, measure, measure_row))
    return StabilityResult(
        rows, all(r.passed for r in rows), not first_violation, "".join(first_violation)
    )


def sensitivity_test(
    system: RandomDynamicalSystem,
    cfg: EstimatorConfig,
    ccfg: ClassifierConfig,
    rng,
    *,
    _draws: _Draws | None = None,
) -> SensitivityResult:
    """Search shrinking balls for separation witnesses above delta0.

    On a system whose support fibers are all constant, a candidate's value
    is the least of the :func:`_constant_means` of its pair's norm on the
    Banach plan: the pair lies in the fiber it was drawn from, and each
    fiber holding it has that constant profile. No engine is built."""
    draws = _draws or _Draws(system, ccfg, rng)
    plan = None
    if system._all_constant:
        plan = _scan_plan(system.group, cfg.m_max, None, cfg.search_radius, cfg.element_budget)
    points = draws.points()
    results = []
    for idx, x in points:
        fs = system.fibers[idx]
        records = []
        robust = True
        for eps in ccfg.eps_sequence:
            found_y = None
            found_v = None
            tried = 0
            for _ in range(ccfg.candidate_budget):
                tried += 1
                if plan is None:
                    y, engine = draws.near(fs, x, eps)
                    v = (sup_fiber_weyl(system, x, y, cfg) if engine is None
                         else _engine_sup_fiber_weyl(engine, cfg)).value
                else:
                    y = fs.sample_near(x, eps, draws.rng)
                    v = min(_constant_means(torus_distance(x, y), plan))
                if v > ccfg.delta0:
                    found_y, found_v = y, v
                    break
                if plan is None:  # only a system with a non-constant fiber draws ahead
                    draws.drop()
            records.append(WitnessRecord(eps, found_y, found_v, tried))
            if found_y is None:
                robust = False
        results.append(
            SensitivityPoint(system.base.labels[idx], x, tuple(records), robust)
        )
    return SensitivityResult(
        ccfg.delta0,
        ccfg.eps_sequence,
        tuple(results),
        all(p.robust for p in results),
    )


def equicontinuity_region(
    system: RandomDynamicalSystem,
    omega,
    eps: float,
    cfg: EstimatorConfig,
    ccfg: ClassifierConfig,
    rng,
    resolution: int | None = None,
) -> RegionResult:
    """Grid points of the fiber domain with a certified modulus delta:
    sampled partners within delta keep the fiber Weyl separation below eps."""
    idx = system.base.index_of(omega)
    fs = system.fibers[idx]
    res = resolution if resolution is not None else ccfg.grid_resolution
    if res < 8:
        raise ValueError("grid resolution below 8 is too coarse to certify anything")
    members = []
    non_members = []
    for x in fs.grid(res):
        found = None
        for delta in ccfg.delta_grid:
            ok = True
            for _ in range(ccfg.candidate_budget):
                y = fs.sample_near(x, delta, rng)
                if fiber_weyl(system, x, y, idx, cfg).value >= eps:
                    ok = False
                    break
            if ok:
                found = delta
                break
        if found is None:
            non_members.append(x)
        else:
            members.append((x, found))
    return RegionResult(
        system.base.labels[idx], eps, res, ccfg.delta_grid,
        tuple(members), tuple(non_members),
    )


def openness_violations(region: RegionResult) -> list[tuple]:
    """Members whose delta/2-neighborhood on the grid leaves the region.

    Openness of the region predicts zero violations; each entry is
    (member point, offending neighbor)."""
    member_set = region.member_points
    all_points = [pt for pt, _ in region.members] + list(region.non_members)
    bad = []
    for pt, delta in region.members:
        for other in all_points:
            if other == pt:
                continue
            if torus_distance(pt, other) < delta / 2 and other not in member_set:
                bad.append((pt, other))
    return bad


def equicontinuous_point_set(
    system: RandomDynamicalSystem,
    max_depth: int,
    cfg: EstimatorConfig,
    ccfg: ClassifierConfig,
    rng,
    resolution: int | None = None,
) -> frozenset:
    """Finite-depth proxy of the equicontinuity points: grid points lying,
    for every m <= max_depth, in some support fiber's 1/m-region."""
    if max_depth < 1:
        raise ValueError("max_depth must be at least 1")
    result: frozenset | None = None
    for m in range(1, max_depth + 1):
        level = frozenset()
        for idx in system.base.support:
            region = equicontinuity_region(
                system, idx, 1.0 / m, cfg, ccfg, rng, resolution
            )
            level = level | region.member_points
        result = level if result is None else (result & level)
    return result if result is not None else frozenset()


# ---------------------------------------------------------------------------
# the dichotomy report

@dataclass(frozen=True)
class ClassificationReport:
    system: str
    verdict: str
    wme: WmeResult
    stability: StabilityResult
    sensitivity: SensitivityResult
    crosschecks: dict
    estimator: dict
    classifier: dict
    seed: int
    conventions: tuple[str, ...]
    suggestion: str | None

    def to_dict(self) -> dict:
        return {
            "system": self.system,
            "verdict": self.verdict,
            "seed": self.seed,
            "estimator": self.estimator,
            "classifier": self.classifier,
            "conventions": list(self.conventions),
            "suggestion": self.suggestion,
            "crosschecks": dict(self.crosschecks),
            "modulus_table": [
                {"eps": r.eps, "delta": r.delta, "pairs_tested": r.pairs_tested,
                 "worst_value": r.worst_value, "passed": r.passed}
                for r in self.wme.rows
            ],
            "wme_passed": self.wme.passed,
            "stability_table": [
                {"eps": r.eps, "delta": r.delta, "pairs_tested": r.pairs_tested,
                 "worst_density": r.worst_density, "passed": r.passed}
                for r in self.stability.rows
            ],
            "stability_passed": self.stability.passed,
            "chain_ok": self.stability.chain_ok,
            "chain_detail": self.stability.chain_detail,
            "sensitivity": {
                "delta0": self.sensitivity.delta0,
                "eps_sequence": list(self.sensitivity.eps_sequence),
                "passed": self.sensitivity.passed,
                "points": [
                    {
                        "omega": p.omega_label,
                        "point": list(p.point),
                        "robust": p.robust,
                        "records": [
                            {
                                "eps": r.eps,
                                "witness": list(r.witness) if r.witness else None,
                                "value": r.value,
                                "candidates_tried": r.candidates_tried,
                            }
                            for r in p.records
                        ],
                    }
                    for p in self.sensitivity.points
                ],
            },
        }

    def to_text(self) -> str:
        lines = [f"classification of {self.system}", f"verdict: {self.verdict}"]
        lines.append(
            "modulus table (all sampled pairs within delta keep banach separation < eps):"
        )
        for r in self.wme.rows:
            if r.delta is not None:
                lines.append(
                    f"  eps={r.eps:g}: delta={r.delta:g} "
                    f"({r.pairs_tested} pairs, worst {r.worst_value:.6g})"
                )
            else:
                lines.append(
                    f"  eps={r.eps:g}: no delta on the grid works "
                    f"(worst {r.worst_value:.6g})"
                )
        lines.append("separation-set density table (banach upper density < eps):")
        for r in self.stability.rows:
            if r.delta is not None:
                lines.append(
                    f"  eps={r.eps:g}: delta={r.delta:g} "
                    f"({r.pairs_tested} pairs, worst density {r.worst_density:.6g})"
                )
            else:
                lines.append(
                    f"  eps={r.eps:g}: no delta on the grid works "
                    f"(worst density {r.worst_density:.6g})"
                )
        robust = sum(1 for p in self.sensitivity.points if p.robust)
        lines.append(
            f"sensitivity (delta0={self.sensitivity.delta0:g}): "
            f"{robust}/{len(self.sensitivity.points)} sampled points have witnesses "
            f"at every eps down to {self.sensitivity.eps_sequence[-1]:g}"
        )
        for key, val in sorted(self.crosschecks.items()):
            lines.append(f"crosscheck {key}: {'ok' if val else 'FAILED'}")
        if self.suggestion:
            lines.append(f"suggestion: {self.suggestion}")
        return "\n".join(lines)


def dichotomy_report(
    system: RandomDynamicalSystem,
    cfg: EstimatorConfig | None = None,
    ccfg: ClassifierConfig | None = None,
    seed: int = 0,
) -> ClassificationReport:
    """Run all three probes and assemble the verdict. On a system with a
    non-constant support fiber the probes' pairs may be drawn ahead (module
    docstring), with the rows and records of the probes run in sequence."""
    cfg = cfg or EstimatorConfig()
    ccfg = ccfg or ClassifierConfig()
    rng = np.random.default_rng(seed)
    draws = _Draws(system, ccfg, rng, None if system._all_constant else cfg)
    wme = wme_test(system, cfg, ccfg, rng, _draws=draws)
    stability = mean_l_stable_test(system, cfg, ccfg, rng, _draws=draws)
    sensitivity = sensitivity_test(system, cfg, ccfg, rng, _draws=draws)

    if wme.passed and not sensitivity.passed:
        verdict = "wme-evidence"
    elif sensitivity.passed and not wme.passed:
        verdict = "sensitive-evidence"
    else:
        verdict = "inconclusive"

    crosschecks = {
        "wme_meanL_agree": all(
            w.passed == s.passed for w, s in zip(wme.rows, stability.rows)
        ),
        "quantitative_chain": stability.chain_ok,
        "verdicts_exclusive": not (wme.passed and sensitivity.passed),
        "dichotomy_consistent": wme.passed != sensitivity.passed,
    }
    suggestion = None
    if verdict == "inconclusive":
        suggestion = (
            "escalate the truncation: double n_max, m_max, and search_radius, "
            "and raise pair_budget; rerun with the same seed"
        )
    return ClassificationReport(
        system=system.name,
        verdict=verdict,
        wme=wme,
        stability=stability,
        sensitivity=sensitivity,
        crosschecks=crosschecks,
        estimator=cfg.to_dict(),
        classifier=ccfg.to_dict(),
        seed=seed,
        conventions=(DTILDE_CONVENTION,),
        suggestion=suggestion,
    )
