"""Random dynamical systems with affine torus fibers over a finite base.

A system consists of a finite base space (labels, probability weights, and a
permutation action of the group generators), a fiber dimension d <= 3, one
fiber domain per base point (the full torus or a finite union of coordinate
slices), and one affine torus map x -> Mx + c (mod 1) per generator and base
point, with M an integer matrix of determinant +-1.

The pairwise separation of two points x, y under the cocycle depends only on
the difference vector A(x - y) mod 1, because shifts cancel. All estimators
therefore walk a single difference vector along the base orbit instead of two
points; isometric fibers keep that vector constant bitwise, which is what the
exactness tests lean on. ``torus_distance`` and the walkers share one folding
kernel so their outputs agree bitwise on identical inputs.

A pair's values are read only over boxes of group elements, given by tuple
corners, from one :class:`PairEngine` per pair, which walks each fiber once
for every reader of that pair, on Z (the rank-1 case) as on every other
group. A box walk follows the canonical coordinate path: the first axis out
of one line of states per fiber, grown on demand in the scalar kernel, each
later axis with every state reached stepping at once in numpy; the engine
keeps each box it has walked. Both take the same left-to-right matrix step.
A fiber whose every generator matrix on its base orbit is the identity has
a constant profile, fold_norm(delta0); the engine reports that value, and
the scans then read nothing (see :mod:`meanrds.pseudometrics`); a box read
of it is that value repeated, without a walk.
Outside the walks, maps and points compose in exact arithmetic: every float
is an integer multiple of 2^-1074, so a coordinate mod 1 is held as an int
numerator over 2^1074, and matrix entries are Python ints. One exact walk
of a group word, ``_walk_word``, serves the system's ``apply``, which
rounds its result once, correctly, and :func:`validate`, which compares
numerators, so its checks of the cocycle and the fiber domains are exact.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from numbers import Integral, Real

import numpy as np

from .groups import AmenableGroup, BudgetError

DTILDE_CONVENTION = (
    "pair separation takes the sup over support fibers containing both points; "
    "+inf when the points share no fiber"
)

MEMBERSHIP_TOL = 1e-9

# most points a fiber grid may hold
GRID_BUDGET = 200_000


class SystemSpecError(ValueError):
    """Raised when a system description is structurally malformed."""


class DomainError(ValueError):
    """Raised when a point violates a fiber-membership precondition."""


def _is_number(v, kind) -> bool:
    """Whether v is a number of ``kind`` (Integral or Real); a bool is not."""
    # plain int and float first: an abstract-class check costs 20x more, and
    # every CLI command builds four configs
    if type(v) is int or (type(v) is float and kind is Real):
        return True
    return isinstance(v, kind) and not isinstance(v, bool)


def _finite(v, what: str) -> float:
    """v as a float; SystemSpecError if it is not a real number (a string or
    a bool is not) or is NaN or infinite."""
    if not _is_number(v, Real):
        raise SystemSpecError(f"{what} {v!r} is not a real number")
    f = float(v)
    if not math.isfinite(f):
        raise SystemSpecError(f"{what} {v!r} is not finite")
    return f


def _sequence(v, what: str):
    """v if it is a list or tuple; SystemSpecError otherwise."""
    if not isinstance(v, (list, tuple)):
        raise SystemSpecError(f"{what} {v!r} is not a list")
    return v


# ---------------------------------------------------------------------------
# torus geometry

def _mod1(v: float) -> float:
    """v mod 1 in [0, 1). Python's ``%`` rounds 1 - tiny up to 1.0 for a tiny
    negative v; that 1.0 is the torus point 0.0."""
    r = v % 1.0
    return 0.0 if r == 1.0 else r


def reduce_point(x) -> tuple[float, ...]:
    """Fold coordinates into [0, 1): :func:`_mod1`, inlined, since every
    pair engine folds its points."""
    out = []
    for v in x:
        r = float(v) % 1.0
        out.append(0.0 if r == 1.0 else r)
    return tuple(out)


def torus_delta(x, y) -> tuple[float, ...]:
    """Coordinatewise difference x - y mod 1, in [0, 1): :func:`_mod1`,
    inlined, since every pair engine takes one."""
    out = []
    for a, b in zip(x, y):
        r = (float(a) - float(b)) % 1.0
        out.append(0.0 if r == 1.0 else r)
    return tuple(out)


def _fold(c: float) -> float:
    # distance of c in [0, 1) to the nearest integer
    return c if c <= 0.5 else 1.0 - c


def fold_norm(delta) -> float:
    """Euclidean norm of the shortest lift of a difference vector.

    Canonical kernel: fold each coordinate, square it as ``f*f``, add the
    squares left to right and take a correctly rounded square root. Every
    step is a correctly rounded IEEE operation, so the value does not depend
    on the libm, and the vectorised fold of the walkers agrees bitwise."""
    if len(delta) == 1:
        return _fold(delta[0] % 1.0)
    s = 0.0
    for c in delta:
        f = _fold(c % 1.0)
        s += f * f
    return math.sqrt(s)


def torus_distance(x, y) -> float:
    """Flat metric on the d-torus: fold each coordinate, then take the norm."""
    return fold_norm(torus_delta(x, y))


# ---------------------------------------------------------------------------
# integer matrices (d <= 3)

def _mat_det(m) -> int:
    n = len(m)
    if n == 1:
        return m[0][0]
    if n == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    if n == 3:
        return (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        )
    raise SystemSpecError(f"fiber dimension {n} not supported (need 1..3)")


def _mat_adjugate(m):
    n = len(m)
    if n == 1:
        return ((1,),)
    if n == 2:
        return ((m[1][1], -m[0][1]), (-m[1][0], m[0][0]))
    if n == 3:
        def cof(i, j):
            r = [k for k in range(3) if k != i]
            c = [k for k in range(3) if k != j]
            minor = m[r[0]][c[0]] * m[r[1]][c[1]] - m[r[0]][c[1]] * m[r[1]][c[0]]
            return (-1) ** (i + j) * minor

        # adjugate = transpose of the cofactor matrix
        return tuple(tuple(cof(j, i) for j in range(3)) for i in range(3))
    raise SystemSpecError(f"fiber dimension {n} not supported (need 1..3)")


def _mat_mul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def _mat_inverse(m):
    det = _mat_det(m)
    return tuple(tuple(det * v for v in row) for row in _mat_adjugate(m))  # 1/det == det here


def _identity_matrix(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


# ---------------------------------------------------------------------------
# exact torus arithmetic: a coordinate mod 1 as an int numerator over 2^1074

_ONE = 1 << 1074


def _numerators(v) -> tuple[int, ...]:
    """Each coordinate of v mod 1, exactly: every float is p/q with q a
    power of two no larger than 2^1074."""
    return tuple(p * (_ONE // q) % _ONE for p, q in (float(c).as_integer_ratio() for c in v))


def _rounded(v) -> tuple[float, ...]:
    """The float nearest each numerator's value, correctly rounded by int
    division; 1.0, the rounding of a value just below 1, is the point 0.0."""
    return tuple(0.0 if r == 1.0 else r for r in (n / _ONE for n in v))


def _affine(mat, x, c) -> tuple[int, ...]:
    """M x + c mod 1 on numerators, exactly."""
    return tuple((sum(a * b for a, b in zip(row, x)) + ci) % _ONE for row, ci in zip(mat, c))


def _distance(x, y) -> float:
    """The largest coordinate distance between numerators x and y on the
    torus, rounded once: 0.0 exactly when x == y."""
    gaps = ((a - b) % _ONE for a, b in zip(x, y))
    return max((min(g, _ONE - g) for g in gaps), default=0) / _ONE


@dataclass(frozen=True)
class FiberMap:
    """Affine torus map x -> Mx + c (mod 1); M integer with det +-1."""

    matrix: tuple[tuple[int, ...], ...]
    shift: tuple[float, ...]

    def __post_init__(self):
        n = len(_sequence(self.matrix, "matrix"))
        for row in self.matrix:
            for v in _sequence(row, "matrix row"):
                # a float is an integer when integral, never when NaN or infinite
                if not (_is_number(v, Integral) or isinstance(v, float) and v.is_integer()):
                    raise SystemSpecError(f"matrix entry {v!r} is not an integer")
            if len(row) != n:
                raise SystemSpecError("matrix must be square")
        mat = tuple(tuple(int(v) for v in row) for row in self.matrix)
        if len(_sequence(self.shift, "shift")) != n:
            raise SystemSpecError("shift length must match matrix size")
        det = _mat_det(mat)
        if det not in (1, -1):
            raise SystemSpecError(f"matrix determinant must be +-1, got {det}")
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "shift", tuple(_mod1(_finite(s, "shift")) for s in self.shift))

    @classmethod
    def identity(cls, dim: int) -> "FiberMap":
        return cls(_identity_matrix(dim), (0.0,) * dim)

    @classmethod
    def rotation(cls, angles) -> "FiberMap":
        angles = tuple(float(a) for a in angles)
        return cls(_identity_matrix(len(angles)), angles)

    @property
    def dim(self) -> int:
        return len(self.matrix)


# ---------------------------------------------------------------------------
# near steps

def _direction_norm(direction) -> float:
    """Norm of a Gaussian direction (floats over the free axes): squares
    added left to right, then a correctly rounded square root. A radius
    uniform is drawn only when it is not 0."""
    s = 0.0
    for c in direction:
        s += c * c
    return math.sqrt(s)


def _cube_root(u: float) -> float:
    """The correctly rounded cube root of a float u >= 0. With u = n / 2^p,
    n scaled by 2^(3e - p), e = ceil(p / 3) + 60, has an integer cube root r
    (Newton from above) of 60 bits or more, so no rounding boundary lies in
    (r, r + 1): r + 1/2 stands for an inexact root, rounded by one division."""
    n, den = u.as_integer_ratio()
    e = 60 - (1 - den.bit_length()) // 3
    n <<= 3 * e + 1 - den.bit_length()
    r = 1 << -(-n.bit_length() // 3)  # at least the root
    while r and (step := (2 * r + n // (r * r)) // 3) < r:
        r = step
    return (2 * r + (r ** 3 != n)) / (2 << e)


def _near_point(origin, free, direction, norm, u, delta) -> tuple[float, ...]:
    """The point at ``radius * direction / norm`` from origin on the free
    axes, mod 1, for a radius of delta times u^(1/k) with k free axes, the
    root correctly rounded (u, sqrt(u) or :func:`_cube_root`)."""
    k = len(free)
    radius = delta * (u if k == 1 else math.sqrt(u) if k == 2 else _cube_root(u))
    out = list(origin)
    for ax, c in zip(free, direction):
        out[ax] = _mod1(out[ax] + radius * c / norm)
    return tuple(out)


# ---------------------------------------------------------------------------
# fiber domains

@dataclass(frozen=True)
class FiberSpace:
    """Either the whole torus or a finite union of coordinate slices.

    A slice fixes some coordinates to constants; the remaining ones are free.
    ``slices=None`` means the full torus.
    """

    dim: int
    slices: tuple[tuple[tuple[int, float], ...], ...] | None = None

    def __post_init__(self):
        if self.slices is not None:
            norm = []
            for sl in _sequence(self.slices, "slices"):
                fixed = []
                for pair in _sequence(sl, "slice"):
                    if len(_sequence(pair, "slice entry")) != 2:
                        raise SystemSpecError(f"slice entry {pair!r} is not an [axis, value] pair")
                    ax, val = pair
                    if not _is_number(ax, Integral):
                        raise SystemSpecError(f"slice axis {ax!r} is not an integer")
                    fixed.append((int(ax), _mod1(_finite(val, "slice value"))))
                fixed = tuple(sorted(fixed))
                for ax, _ in fixed:
                    if not 0 <= ax < self.dim:
                        raise SystemSpecError(f"slice axis {ax} out of range")
                if len({ax for ax, _ in fixed}) != len(fixed):
                    raise SystemSpecError("slice fixes an axis twice")
                norm.append(fixed)
            if not norm:
                raise SystemSpecError("slice list must be nonempty")
            object.__setattr__(self, "slices", tuple(norm))

    @classmethod
    def full(cls, dim: int) -> "FiberSpace":
        return cls(dim, None)

    def membership_residual(self, x) -> float:
        """0 for members; otherwise the worst fixed-coordinate defect of the
        nearest slice."""
        if self.slices is None:
            return 0.0
        best = math.inf
        for sl in self.slices:
            worst = 0.0
            for ax, val in sl:
                worst = max(worst, _fold((x[ax] - val) % 1.0))
            best = min(best, worst)
        return best

    def contains(self, x) -> bool:
        return self.membership_residual(x) <= MEMBERSHIP_TOL

    def sample(self, rng) -> tuple[float, ...]:
        pt = [float(v) for v in rng.random(self.dim)]
        if self.slices is not None:
            sl = self.slices[int(rng.integers(len(self.slices)))]
            for ax, val in sl:
                pt[ax] = val
        return tuple(pt)

    def _near_base(self, x) -> tuple[tuple[float, ...], tuple[int, ...]]:
        """The start of a near step from member x: x with the fixed
        coordinates of the first slice containing it set exactly, and that
        slice's free axes (every axis on the full torus)."""
        if self.slices is None:
            return tuple(x), tuple(range(self.dim))
        sl = next(s for s in self.slices
                  if all(_fold((x[ax] - val) % 1.0) <= MEMBERSHIP_TOL for ax, val in s))
        out = list(x)
        for ax, val in sl:
            out[ax] = val
        fixed_axes = {ax for ax, _ in sl}
        return tuple(out), tuple(ax for ax in range(self.dim) if ax not in fixed_axes)

    def sample_near(self, x, delta: float, rng) -> tuple[float, ...]:
        """A member point within torus distance < delta of x (x must belong).

        Draws a Gaussian direction over the free axes of :meth:`_near_base`
        and, unless its norm is 0, the radius uniform of :func:`_near_point`.
        With no free axis or a zero direction the start point comes back."""
        if delta <= 0:
            raise ValueError("delta must be positive")
        if not self.contains(x):
            raise DomainError("base point is not in the fiber domain")
        x, free = self._near_base(x)
        if not free:
            return x
        direction = rng.standard_normal(len(free)).tolist()
        norm = _direction_norm(direction)
        if norm == 0.0:
            return x
        return _near_point(x, free, direction, norm, rng.random(), delta)

    def grid(self, resolution: int) -> tuple[tuple[float, ...], ...]:
        """Deterministic grid of member points (resolution per free axis), at
        most ``GRID_BUDGET`` of them, else BudgetError."""
        if resolution < 1:
            raise ValueError("resolution must be positive")
        axis = [i / resolution for i in range(resolution)]
        points: list[tuple[float, ...]] = []
        if self.slices is None:
            if resolution ** self.dim > GRID_BUDGET:
                raise BudgetError("grid over budget")
            points.extend(itertools.product(*([axis] * self.dim)))
        else:
            for sl in self.slices:
                fixed = dict(sl)
                free = [ax for ax in range(self.dim) if ax not in fixed]
                if resolution ** len(free) * len(self.slices) > GRID_BUDGET:
                    raise BudgetError("grid over budget")
                for combo in itertools.product(*([axis] * len(free))):
                    pt = [0.0] * self.dim
                    for ax, val in fixed.items():
                        pt[ax] = val
                    for ax, v in zip(free, combo):
                        pt[ax] = v
                    points.append(tuple(pt))
        return tuple(points)


# ---------------------------------------------------------------------------
# base space

class _PermPowers:
    """O(1) powers of a permutation via its cycle decomposition."""

    def __init__(self, perm):
        n = len(perm)
        if sorted(perm) != list(range(n)):
            raise SystemSpecError(f"not a permutation of 0..{n - 1}: {perm}")
        self.cycle_of = [0] * n
        self.pos_in_cycle = [0] * n
        self.cycles = []
        seen = [False] * n
        for start in range(n):
            if seen[start]:
                continue
            cyc = []
            i = start
            while not seen[i]:
                seen[i] = True
                self.cycle_of[i] = len(self.cycles)
                self.pos_in_cycle[i] = len(cyc)
                cyc.append(i)
                i = perm[i]
            self.cycles.append(cyc)

    def apply(self, i: int, k: int) -> int:
        cyc = self.cycles[self.cycle_of[i]]
        return cyc[(self.pos_in_cycle[i] + k) % len(cyc)]


@dataclass
class BaseSpace:
    """Finite base: labels, probability weights, one permutation per generator."""

    labels: tuple[str, ...]
    weights: tuple[float, ...]
    generator_perms: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        self.labels = tuple(_sequence(self.labels, "labels"))
        for label in self.labels:
            if not isinstance(label, str):
                raise SystemSpecError(f"label {label!r} is not a string")
        self.weights = tuple(_finite(w, "weight") for w in _sequence(self.weights, "weights"))
        if not self.labels:
            raise SystemSpecError("base space needs at least one point")
        if len(set(self.labels)) != len(self.labels):
            raise SystemSpecError("base labels must be distinct")
        if len(self.weights) != len(self.labels):
            raise SystemSpecError("one weight per base point required")
        for w in self.weights:
            if w < 0:
                raise SystemSpecError(f"weights must be nonnegative, got {w}")
        if not any(w > 0 for w in self.weights):
            raise SystemSpecError("support must be nonempty")
        for p in _sequence(self.generator_perms, "perms"):
            for i in _sequence(p, "permutation"):
                if not _is_number(i, Integral):
                    raise SystemSpecError(f"permutation entry {i!r} is not an integer")
        self.generator_perms = tuple(tuple(int(i) for i in p) for p in self.generator_perms)
        self._powers = []
        for p in self.generator_perms:
            if len(p) != len(self.labels):
                raise SystemSpecError("permutation length must match base size")
            self._powers.append(_PermPowers(p))
        # the support, and its cumulative weights built as numpy's
        # Generator.choice builds them, so sampling with it gives the draws of
        # rng.choice; both are snapshots of the weights given here
        self._support = tuple(i for i, w in enumerate(self.weights) if w > 0)
        w = np.asarray([self.weights[i] for i in self._support], dtype=np.float64)
        self.support_cdf = (w / w.sum()).cumsum()
        self.support_cdf /= self.support_cdf[-1]

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def support(self) -> tuple[int, ...]:
        return self._support

    def index_of(self, omega) -> int:
        if isinstance(omega, str):
            try:
                return self.labels.index(omega)
            except ValueError:
                raise SystemSpecError(f"unknown base label {omega!r}") from None
        i = int(omega)
        if not 0 <= i < self.size:
            raise SystemSpecError(f"base index {i} out of range")
        return i

    def act_generator(self, gen: int, omega_idx: int, steps: int = 1) -> int:
        return self._powers[gen].apply(omega_idx, steps)


# ---------------------------------------------------------------------------
# the system

@dataclass
class RandomDynamicalSystem:
    """Group action on a finite base with affine torus cocycle maps.

    ``maps[i][w]`` is the fiber map attached to generator i at base point w;
    the identity element acts as the identity on every fiber.
    """

    name: str
    group: AmenableGroup
    base: BaseSpace
    dim: int
    fibers: tuple[FiberSpace, ...]
    maps: tuple[tuple[FiberMap, ...], ...]
    declared: dict = field(default_factory=dict)

    def __post_init__(self):
        gens = self.group.rank
        if len(self.maps) != gens:
            raise SystemSpecError(f"need one map row per generator ({gens})")
        if len(self.fibers) != self.base.size:
            raise SystemSpecError("need one fiber domain per base point")
        for fs in self.fibers:
            if fs.dim != self.dim:
                raise SystemSpecError("fiber domain dimension mismatch")
        if len(self.base.generator_perms) != gens:
            raise SystemSpecError("need one base permutation per generator")
        for row in self.maps:
            if len(row) != self.base.size:
                raise SystemSpecError("need one fiber map per base point")
            for fm in row:
                if fm.dim != self.dim:
                    raise SystemSpecError("fiber map dimension mismatch")
        self._inv_matrices = tuple(
            tuple(_mat_inverse(fm.matrix) for fm in row) for row in self.maps
        )
        # walk-kernel tables per generator and direction: the next base point
        # and the float matrix applied when stepping from each base point
        self._steps = []
        for i in range(gens):
            succ = [self.base.act_generator(i, w, 1) for w in range(self.base.size)]
            pred = [self.base.act_generator(i, w, -1) for w in range(self.base.size)]
            self._steps.append({
                1: (succ, [_float_rows(fm.matrix) for fm in self.maps[i]]),
                -1: (pred, [_float_rows(self._inv_matrices[i][p]) for p in pred]),
            })
        # per fiber: whether every generator's matrix on its orbit under all
        # generators is the identity (then so are the inverses), in which
        # case its whole profile is the one value fold_norm(delta0)
        self._constant = self._identity_orbits()
        # with every support fiber constant, every sup profile is constant
        self._all_constant = all(self._constant[i] for i in self.base.support)
        # with no sliced support fiber, every pair is admissible in all of them
        self._all_full = all(self.fibers[i].slices is None for i in self.base.support)

    def _identity_orbits(self) -> tuple[bool, ...]:
        """Per base point, whether the matrix of every generator is the
        identity at every point of its orbit."""
        gens = range(self.group.rank)
        ident = _identity_matrix(self.dim)
        flags = [None] * self.base.size
        for start in range(self.base.size):
            if flags[start] is not None:
                continue
            orbit, todo = {start}, [start]
            while todo:
                w = todo.pop()
                for i in gens:
                    v = self.base.generator_perms[i][w]
                    if v not in orbit:
                        orbit.add(v)
                        todo.append(v)
            ok = all(self.maps[i][v].matrix == ident for i in gens for v in orbit)
            for v in orbit:
                flags[v] = ok
        return tuple(flags)

    # -- basic action ------------------------------------------------------

    def _walk_word(self, w, word, mat, x):
        """(w, mat, x) carried along word, exactly: a letter (i, 1) at base
        point w applies F = maps[i][w], taking mat to M mat and the
        numerators x to Mx + c; a letter (i, -1) moves to the point p before
        w and applies the inverse of F = maps[i][p], x -> M^-1 (x - c)."""
        zero = (0,) * self.dim
        for i, sign in word:
            if sign == 1:
                fm = self.maps[i][w]
                mat, x = _mat_mul(fm.matrix, mat), _affine(fm.matrix, x, _numerators(fm.shift))
                w = self.base.act_generator(i, w, 1)
            else:
                w = self.base.act_generator(i, w, -1)
                inv = self._inv_matrices[i][w]
                c = _numerators(self.maps[i][w].shift)
                mat, x = _mat_mul(inv, mat), _affine(inv, [a - b for a, b in zip(x, c)], zero)
        return w, mat, x

    def _element_walk(self, g, omega_idx: int, x):
        """(g w, matrix of F_{g, w}, numerators of F_{g, w} x) for numerators
        x: g's letters along the canonical coordinate path."""
        g = self.group.check_element(g)
        word = [(i, 1 if s > 0 else -1) for i, s in enumerate(g) for _ in range(abs(s))]
        return self._walk_word(omega_idx, word, _identity_matrix(self.dim), x)

    def apply(self, g, omega, x) -> tuple[float, ...]:
        """Fiber image F_{g, w} x, rounded once."""
        idx = self.base.index_of(omega)
        return _rounded(self._element_walk(g, idx, _numerators(x))[2])

    # -- separation --------------------------------------------------------

    def admissible_fibers(self, x, y) -> tuple[int, ...]:
        """The support fibers holding both points, in support order."""
        return self._admissible(reduce_point(x), reduce_point(y))

    def _admissible(self, x, y) -> tuple[int, ...]:
        """``admissible_fibers`` of points already folded into [0, 1)."""
        if self._all_full:
            return self.base.support
        return tuple(
            i for i in self.base.support
            if self.fibers[i].contains(x) and self.fibers[i].contains(y)
        )


# ---------------------------------------------------------------------------
# difference-vector walks
#
# One kernel per fiber dimension walks the raw difference vector ``count``
# steps in a local-variable loop. ``nxt[w]`` is the base point after one step
# from w and ``rows[w]`` the float matrix applied there (a float in dimension
# 1, the row-major entries otherwise). Each row's products are added left to
# right and reduced mod 1: the canonical matrix step. The kernel returns the
# final base point and vector and the flat coordinates after every step.

def _walk_1d(w, d, count, nxt, rows):
    (x,) = d
    out = [0.0] * count
    for k in range(count):
        x = (rows[w] * x) % 1.0
        w = nxt[w]
        out[k] = x
    return w, (x,), out


def _walk_2d(w, d, count, nxt, rows):
    x, y = d
    out = []
    app = out.append
    for _ in range(count):
        a, b, c, e = rows[w]
        x, y = (a * x + b * y) % 1.0, (c * x + e * y) % 1.0
        w = nxt[w]
        app(x)
        app(y)
    return w, (x, y), out


def _walk_3d(w, d, count, nxt, rows):
    x, y, z = d
    out = []
    app = out.append
    for _ in range(count):
        a, b, c, e, f, g, h, i, j = rows[w]
        x, y, z = ((a * x + b * y + c * z) % 1.0,
                   (e * x + f * y + g * z) % 1.0,
                   (h * x + i * y + j * z) % 1.0)
        w = nxt[w]
        app(x)
        app(y)
        app(z)
    return w, (x, y, z), out


_WALKS = {1: _walk_1d, 2: _walk_2d, 3: _walk_3d}


def _float_rows(mat):
    flat = tuple(float(v) for row in mat for v in row)
    return flat[0] if len(flat) == 1 else flat


def _fold_norm_rows(coords: np.ndarray) -> np.ndarray:
    """:func:`fold_norm` of each row of coordinates in [0, 1], with the same
    correctly rounded operations in the same order, hence the same bits."""
    f = np.where(coords <= 0.5, coords, 1.0 - coords)
    if f.shape[1] == 1:
        return f[:, 0]
    s = f[:, 0] * f[:, 0]
    for j in range(1, f.shape[1]):
        s += f[:, j] * f[:, j]
    return np.sqrt(s)


def _step_rows(w, d, nxt, rows):
    """One canonical matrix step of every state at once: the left-to-right
    row sums and mod-1 reduction of the walk kernels, on numpy columns."""
    m = rows[w]
    dim = d.shape[1]
    out = np.empty_like(d)
    for r in range(dim):
        s = m[:, r * dim] * d[:, 0]
        for c in range(1, dim):
            s = s + m[:, r * dim + c] * d[:, c]
        out[:, r] = s % 1.0
    return nxt[w], out


def _walk_axis(w, d, steps, lo: int, hi: int):
    """States at positions lo..hi-1 along one generator from each state
    (w, d) at 0, as (base points, vectors) with the position varying
    fastest; ``steps`` maps 1 and -1 to the kernel tables. Every state takes
    its step at once, as numpy columns."""
    states = {0: (w, d)}
    for sign, stop in ((1, hi), (-1, lo - 1)):
        nxt, rows = steps[sign]
        nxt = np.asarray(nxt)
        rows = np.asarray(rows, dtype=np.float64).reshape(len(nxt), -1)
        cur = (w, d)
        for t in range(sign, stop, sign):
            cur = states[t] = _step_rows(*cur, nxt, rows)
    kept = [states[t] for t in range(lo, hi)]
    return (np.stack([s[0] for s in kept], axis=1).reshape(-1),
            np.stack([s[1] for s in kept], axis=1).reshape(-1, d.shape[1]))


class PairEngine:
    """Separation values of one pair (x, y) over boxes lo <= g < hi of group
    elements, flattened in row-major order (coordinate 0 slowest).

    Build one engine per pair and read every profile of the pair from it:
    each fiber is then walked once, however many scans read it. Each fiber
    has one line of raw difference vectors along generator 0, grown on
    demand in the scalar kernel. A box takes its first axis from that line,
    and :func:`_walk_axis` walks each later axis along the canonical path
    (cyclic ones forward), so values are bitwise those of the scalar
    kernels. A constant fiber's box is ``norm0`` repeated, with no walk.
    Corners are tuples on every group; Z is the rank-1 case, whose boxes are
    ranges of times. Each box is folded and kept, read-only, keyed by
    (fiber, lo, hi), for as long as the engine lives.

    ``admissible`` holds the support fibers containing both points. The
    weighted ``integral_range`` needs every support fiber, that is
    ``admissible == sys.base.support``, and raises DomainError otherwise.

    ``fiber_constant``, ``dtilde_constant`` and ``integral_constant`` give
    the value of the matching box read at every element when that read is
    constant, computed as the read computes it, else None.
    """

    def __init__(self, system: RandomDynamicalSystem, x, y):
        self.sys = system
        self.x = reduce_point(x)
        self.y = reduce_point(y)
        if len(self.x) != system.dim or len(self.y) != system.dim:
            raise DomainError("point dimension does not match the system")
        self.delta0 = torus_delta(self.x, self.y)
        # every value of a constant fiber's profile; the same bits as
        # _fold_norm_rows of delta0
        self.norm0 = fold_norm(self.delta0)
        self.admissible = system._admissible(self.x, self.y)
        self._lines: dict[int, dict] = {}
        self._boxes: dict[tuple, np.ndarray] = {}

    def _box(self, lo, hi):
        """The corner tuples, checked against the group, and the box size."""
        grp = self.sys.group
        lo = grp.check_element(lo)
        grp.check_element([b - 1 for b in hi])
        return lo, tuple(hi), math.prod(b - a for a, b in zip(lo, hi))

    def _first_axis(self, omega_idx: int, lo: int, hi: int) -> np.ndarray:
        """Raw difference vectors at t = lo..hi-1 along generator 0 from
        fiber omega_idx, out of the fiber's line: for each direction the
        vectors at t = 0, 1, ... (or -1, -2, ...) and the (base point,
        vector) at the outer end, from which the scalar kernel grows it."""
        line = self._lines.get(omega_idx)
        if line is None:
            start = (omega_idx, self.delta0)
            line = self._lines[omega_idx] = {
                1: (np.asarray([self.delta0], dtype=np.float64), start),
                -1: (np.empty((0, self.sys.dim)), start)}
        for sign, need in ((1, hi), (-1, -lo)):
            vecs, (w, d) = line[sign]
            count = need - len(vecs)
            if count > 0:
                w, d, raw = _WALKS[self.sys.dim](w, d, count, *self.sys._steps[0][sign])
                raw = np.asarray(raw, dtype=np.float64).reshape(count, -1)
                line[sign] = np.concatenate((vecs, raw)), (w, d)
        right, left = line[1][0], line[-1][0]
        return np.concatenate((left[max(-hi, 0):max(-lo, 0)][::-1], right[max(lo, 0):max(hi, 0)]))

    def _fiber_box(self, omega_idx: int, lo, hi) -> np.ndarray:
        vals = self._boxes.get((omega_idx, lo, hi))
        if vals is None:
            if self.sys._constant[omega_idx]:
                vals = np.full(math.prod(b - a for a, b in zip(lo, hi)), self.norm0)
            else:
                d = self._first_axis(omega_idx, lo[0], hi[0])
                if len(lo) > 1:
                    powers = self.sys.base._powers[0]
                    cycle = np.asarray(powers.cycles[powers.cycle_of[omega_idx]])
                    w = cycle[(powers.pos_in_cycle[omega_idx]
                               + np.arange(lo[0], hi[0])) % len(cycle)]
                    for steps, a, b in zip(self.sys._steps[1:], lo[1:], hi[1:]):
                        w, d = _walk_axis(w, d, steps, a, b)
                vals = _fold_norm_rows(d)
            vals.flags.writeable = False
            self._boxes[omega_idx, lo, hi] = vals
        return vals

    def fiber_range(self, omega, lo, hi) -> np.ndarray:
        """Separation values in fiber omega over the box lo <= g < hi."""
        lo, hi, _ = self._box(lo, hi)
        return self._fiber_box(self.sys.base.index_of(omega), lo, hi)

    def dtilde_range(self, lo, hi) -> np.ndarray:
        lo, hi, size = self._box(lo, hi)
        if not self.admissible:
            return np.full(size, math.inf)
        return np.maximum.reduce([self._fiber_box(i, lo, hi) for i in self.admissible])

    def integral_range(self, lo, hi) -> np.ndarray:
        if self.admissible != self.sys.base.support:
            raise DomainError("integral separation needs both points in every support fiber")
        lo, hi, size = self._box(lo, hi)
        out = np.zeros(size)
        for i in self.sys.base.support:
            out += self.sys.base.weights[i] * self._fiber_box(i, lo, hi)
        return out

    def fiber_constant(self, omega_idx: int) -> float | None:
        return self.norm0 if self.sys._constant[omega_idx] else None

    def dtilde_constant(self) -> float | None:
        if not self.admissible:
            return math.inf
        return self.norm0 if all(self.sys._constant[i] for i in self.admissible) else None

    def integral_constant(self) -> float | None:
        """On every support fiber; the caller checks the domain."""
        support = self.sys.base.support
        if not all(self.sys._constant[i] for i in support):
            return None
        out = 0.0
        for i in support:
            out += self.sys.base.weights[i] * self.norm0
        return out


# ---------------------------------------------------------------------------
# validation

@dataclass
class CheckResult:
    name: str
    passed: bool
    residual: float
    detail: str = ""


@dataclass
class ValidationReport:
    system: str
    checks: list[CheckResult]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def worst_residual(self) -> float:
        return max((c.residual for c in self.checks), default=0.0)

    def to_dict(self) -> dict:
        return {
            "system": self.system,
            "ok": self.ok,
            "worst_residual": self.worst_residual,
            "checks": [
                {
                    "name": c.name,
                    "passed": c.passed,
                    "residual": c.residual,
                    "detail": c.detail,
                }
                for c in self.checks
            ],
        }

    def to_text(self) -> str:
        lines = [f"validation of {self.system} (relators checked exactly)"]
        for c in self.checks:
            tag = "PASS" if c.passed else "FAIL"
            line = f"  [{tag}] {c.name}: residual={c.residual:.3e}"
            if c.detail:
                line += f" ({c.detail})"
            lines.append(line)
        lines.append(f"  worst residual: {self.worst_residual:.3e}")
        return "\n".join(lines)


def _relators(grp: AmenableGroup) -> list[tuple[str, tuple]]:
    """The defining relators of G = Z^a x C_k1 x ..., as (name, word):
    [s_i, s_j] = s_i s_j s_i^-1 s_j^-1 for i < j, and s_i^k for each cyclic
    generator of order k."""
    out = [(f"[s{i}, s{j}]", ((i, 1), (j, 1), (i, -1), (j, -1)))
           for i in range(grp.rank) for j in range(i + 1, grp.rank)]
    for i, k in enumerate(grp.generator_orders()):
        if k is not None:
            out.append((f"s{i}^{k}", ((i, 1),) * k))
    return out


def _coverage_residual(fm: FiberMap, source: FiberSpace, target: FiberSpace) -> float:
    """How far fm carries source off target, exactly: 0.0 when it maps
    every source slice into one target slice (the full torus is one slice
    fixing no axis). A slice's image is a coset of a subtorus, which lies in
    a finite union of closed slices only if it lies in one of them, and lies
    in slice T when the rows of M on T's fixed axes are 0 on the source's
    free axes and the image of the slice's point with free coordinates 0
    has T's values. The residual is the worst source slice's distance to
    its nearest target slice over T's fixed axes, inf where no T fits."""
    shift = _numerators(fm.shift)
    worst = 0.0
    for sl in source.slices or ((),):
        fixed = dict(sl)
        free = [j for j in range(fm.dim) if j not in fixed]
        image = _affine(fm.matrix, _numerators([fixed.get(j, 0.0) for j in range(fm.dim)]), shift)
        best = math.inf
        for tl in target.slices or ((),):
            if all(fm.matrix[ax][j] == 0 for ax, _ in tl for j in free):
                best = min(best, _distance([image[ax] for ax, _ in tl],
                                           _numerators([val for _, val in tl])))
        worst = max(worst, best)
    return worst


def validate(system: RandomDynamicalSystem) -> ValidationReport:
    """Check the cocycle axioms and structural invariants.

    Covers: base weights form a probability vector, base permutations
    commute and each cyclic generator's k-th power is the identity on the
    base, as an action of C_k needs; every relator of the group's
    presentation acts as the identity from every base point; and each
    generator carries every fiber domain into the next one. The free
    group's action on base and fibers factors through the group exactly
    when each relator acts as the identity, so the relator check proves the
    cocycle identity for every element.

    Matrices, shifts and slice values are compared exactly (see the module
    notes), and a residual is the largest coordinate distance, 0.0 exactly
    when the check holds; the weight sum is checked within 1e-12.
    """
    grp = system.group
    base = system.base
    size = base.size
    ident = _identity_matrix(system.dim)
    zero = (0,) * system.dim
    checks: list[CheckResult] = []

    # base weights
    wsum = math.fsum(base.weights)
    res = abs(wsum - 1.0)
    checks.append(CheckResult("base-weights-sum", res <= 1e-12, res))

    # base action relations: commutation and cyclic orders, exact
    perm_ok = True
    detail = ""
    for i in range(grp.rank):
        for j in range(i + 1, grp.rank):
            for w in range(size):
                a = base.act_generator(j, base.act_generator(i, w, 1), 1)
                b = base.act_generator(i, base.act_generator(j, w, 1), 1)
                if a != b:
                    perm_ok = False
                    detail = f"generators s{i}, s{j} do not commute on the base"
    for i, k in enumerate(grp.generator_orders()):
        if k is None:
            continue
        for w in range(size):
            if base.act_generator(i, w, k) != w:
                perm_ok = False
                detail = f"generator s{i} does not have order {k} on the base"
    checks.append(CheckResult("base-action-relations", perm_ok, 0.0 if perm_ok else 1.0, detail))

    # each relator, walked from each base point, is the identity map
    relators = _relators(grp)
    worst = 0.0
    detail = f"{len(relators)} relators checked exactly"
    for name, word in relators:
        for w in range(size):
            end, mat, shift = system._walk_word(w, word, ident, zero)
            at = f"relator {name} at base point {base.labels[w]}"
            if end != w:
                res, why = math.inf, f"{at} ends at {base.labels[end]}"
            elif mat != ident:
                res, why = math.inf, f"{at} composes to matrix {mat}"
            else:
                res, why = _distance(shift, zero), f"{at} leaves a shift"
            if res > worst:
                worst, detail = res, why
    checks.append(CheckResult("relation-words", worst == 0.0, worst, detail))

    # fiber domains are carried into fiber domains
    worst = 0.0
    detail = ""
    for i in range(grp.rank):
        for w in range(size):
            target = system.fibers[base.act_generator(i, w, 1)]
            res = _coverage_residual(system.maps[i][w], system.fibers[w], target)
            if res > worst:
                worst, detail = res, f"generator s{i} at {base.labels[w]}"
    checks.append(CheckResult("fiber-domain-coverage", worst == 0.0, worst, detail))

    return ValidationReport(system.name, checks)
