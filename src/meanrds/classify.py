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
pairs are measured. A row's draws are made in one pass, ``_draw_row``,
which takes the random stream of n single pair draws.

Every probe, and the region search, reads the ``value`` of the estimates
that reports print: ``banach_mean``, ``banach_upper_density``,
``fiber_weyl`` and ``sup_fiber_weyl``. A modulus-probe pair gets its
profile from ``pair_source``, except on a system whose support fibers are
all constant (isometric): there every sup profile is the pair's constant
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
import dataclasses
import itertools
from dataclasses import dataclass

import numpy as np

from .density import banach_upper_density, separation_set
from .pseudometrics import (
    EstimatorConfig,
    _check_field_types,
    _constant_banach_values,
    _constant_means,
    _scan_plan,
    banach_mean,
    fiber_weyl,
    pair_source,
    sup_fiber_weyl,
)
from .rds import (
    DTILDE_CONVENTION,
    RandomDynamicalSystem,
    _cube_root,
    _direction_norm,
    _fold_norm_rows,
    _near_point,
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
    fiber drawn by weight, made in one pass, as (stream, at, steps, sliced).

    Each pair takes the draws of a support draw by weight, then
    ``FiberSpace.sample`` and ``FiberSpace.sample_near`` on that fiber, in
    that order: the support uniform and the point's uniforms, the slice index
    on a sliced fiber, the Gaussian direction over the free axes and, unless
    there is no free axis or the direction's norm is 0, the radius uniform.
    Adjacent uniforms are drawn in one call, so the stream, and the generator
    state after the row, are those of n single draws. ``stream`` holds the
    uniforms in order and ``at`` where each pair's uniforms start; ``steps`` holds
    each pair's direction and norm, or None when it draws no radius; and
    ``sliced`` maps each pair on a sliced fiber to its x, the start of its
    near step and its free axes. The draws do not depend on delta."""
    base, d = system.base, system.dim
    fibers = [system.fibers[i] for i in base.support]
    # only a sliced fiber needs its pair's support index before the next draw
    cdf = base.support_cdf.tolist() if any(fs.slices is not None for fs in fibers) else None
    random, normal = rng.random, rng.standard_normal
    chunks = [random(1 + d)]  # the uniforms, in stream order
    steps = []  # per pair: its direction and norm, or None when no u is drawn
    sliced = {}  # pair -> (x, start of its near step, free axes)
    for i in range(n):
        free = d
        if cdf is not None:
            fs = fibers[bisect.bisect_right(cdf, float(chunks[-1][-1 - d]))]
            if fs.slices is not None:
                x = chunks[-1][-d:].tolist()
                for ax, val in fs.slices[int(rng.integers(len(fs.slices)))]:
                    x[ax] = val
                origin, axes = fs._near_base(x)
                sliced[i] = (tuple(x), origin, axes)
                free = len(axes)
        step = None
        if free:
            direction = normal(free).tolist()
            norm = _direction_norm(direction)
            if norm > 0.0:
                step = (direction, norm)
        steps.append(step)
        # this pair's radius uniform and the next pair's support and point
        count = (step is not None) + (1 + d if i < n - 1 else 0)
        if count:
            chunks.append(random(count))
    stream = np.concatenate(chunks)
    # where each pair's uniforms start in the stream
    at = list(itertools.accumulate((2 + d if step else 1 + d for step in steps[:-1]), initial=0))
    return stream, at, steps, sliced


def _sample_pairs(system, delta, rng, n):
    """n pairs (x, y within delta of x), from the draws of :func:`_draw_row`.
    The points are read for the whole row before this returns; the returned
    iterator computes each y, with ``sample_near``'s step, when its pair is
    reached."""
    stream, at, steps, sliced = _draw_row(system, rng, n)
    d = system.dim
    uniforms = stream.tolist()
    all_axes = tuple(range(d))

    def pairs():
        for i, (a, step) in enumerate(zip(at, steps)):
            x = origin = tuple(uniforms[a + 1:a + 1 + d])
            free = all_axes
            if i in sliced:
                x, origin, free = sliced[i]
            if step is None:
                yield x, origin
            else:
                yield x, _near_point(origin, free, *step, uniforms[a + 1 + d], delta)

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
    stream, at, steps, sliced = _draw_row(system, rng, n)
    d = system.dim
    origin = stream[np.add.outer(at, np.arange(1, 1 + d))]
    x = origin.copy()
    for i, (xi, oi, _) in sliced.items():
        x[i], origin[i] = xi, oi
    y = origin.copy()
    stepped = [i for i, step in enumerate(steps) if step is not None]
    if stepped:
        norm = np.asarray([steps[i][1] for i in stepped])
        if sliced:
            free = [sliced[i][2] if i in sliced else range(d) for i in stepped]
            direction = np.zeros((len(stepped), d))
            for row, axes, i in zip(direction, free, stepped):
                row[list(axes)] = steps[i][0]
            k = np.asarray([len(axes) for axes in free])
        else:
            direction = np.asarray([steps[i][0] for i in stepped])
            k = np.full(len(stepped), d)
        u = stream[np.asarray(at)[stepped] + 1 + d]
        root = np.where(k == 1, u, np.sqrt(u))
        root[k == 3] = [_cube_root(v) for v in u[k == 3].tolist()]
        moved = (origin[stepped] + (delta * root)[:, None] * direction / norm[:, None]) % 1.0
        moved[moved == 1.0] = 0.0
        y[stepped] = moved
    diff = (x - y) % 1.0
    diff[diff == 1.0] = 0.0
    return _fold_norm_rows(diff)


def _measured(values: np.ndarray, eps: float) -> np.ndarray:
    """The values a per-pair row measures: up to the first that reaches eps."""
    hit = np.flatnonzero(values >= eps)
    return values[:hit[0] + 1] if hit.size else values


def _modulus_search(system, ccfg: ClassifierConfig, rng, measure, measure_row) -> list[tuple]:
    """The delta descent of both modulus probes.

    For each eps, walk down ``ccfg.delta_grid``. At each delta, draw all
    ``pair_budget`` pairs within delta before measuring any, then measure
    them in order, stopping at the first whose value ``measure(x, y, eps)``
    reaches eps. The first delta whose measured pairs all stay below eps is
    the modulus. Returns one (eps, delta or None, pairs measured, worst
    value, passed) row per eps; the counts are those of the last delta
    tried.

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
                values = measure_row(_row_norms(system, delta, rng, ccfg.pair_budget), eps)
            else:
                values = []
                for x, y in _sample_pairs(system, delta, rng, ccfg.pair_budget):
                    values.append(measure(x, y, eps))
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
) -> WmeResult:
    """Modulus search: largest grid delta keeping all pair separations < eps."""

    def measure(x, y, eps):
        return banach_mean(pair_source(system, x, y, "sup"), cfg).value

    def measure_row(c, eps):
        return _measured(_constant_banach_values(system.group, c, cfg), eps).tolist()

    rows = tuple(ModulusRow(*r) for r in _modulus_search(system, ccfg, rng, measure, measure_row))
    return WmeResult(rows, all(r.passed for r in rows))


def mean_l_stable_test(
    system: RandomDynamicalSystem,
    cfg: EstimatorConfig,
    ccfg: ClassifierConfig,
    rng,
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

    def measure(x, y, eps):
        src = pair_source(system, x, y, "sup")
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

    rows = tuple(StabilityRow(*r)
                 for r in _modulus_search(system, ccfg, rng, measure, measure_row))
    return StabilityResult(
        rows, all(r.passed for r in rows), not first_violation, "".join(first_violation)
    )


def sensitivity_test(
    system: RandomDynamicalSystem,
    cfg: EstimatorConfig,
    ccfg: ClassifierConfig,
    rng,
) -> SensitivityResult:
    """Search shrinking balls for separation witnesses above delta0.

    On a system whose support fibers are all constant, a candidate's value
    is the least of the :func:`_constant_means` of its pair's norm on the
    Banach plan: the pair lies in the fiber it was drawn from, and each
    fiber holding it has that constant profile. No engine is built."""
    plan = None
    if system._all_constant:
        plan = _scan_plan(system.group, cfg.m_max, None, cfg.search_radius, cfg.element_budget)
    points = []
    for idx in system.base.support:
        fs = system.fibers[idx]
        for _ in range(ccfg.point_budget):
            points.append((idx, fs.sample(rng)))
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
                y = fs.sample_near(x, eps, rng)
                if plan is None:
                    v = sup_fiber_weyl(system, x, y, cfg).value
                else:
                    v = min(_constant_means(torus_distance(x, y), plan))
                if v > ccfg.delta0:
                    found_y, found_v = y, v
                    break
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
    """Run all three probes and assemble the verdict."""
    cfg = cfg or EstimatorConfig()
    ccfg = ccfg or ClassifierConfig()
    rng = np.random.default_rng(seed)
    wme = wme_test(system, cfg, ccfg, rng)
    stability = mean_l_stable_test(system, cfg, ccfg, rng)
    sensitivity = sensitivity_test(system, cfg, ccfg, rng)

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
