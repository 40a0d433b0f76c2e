"""Worked example systems over the group Z.

Five fixtures spanning both sides of the dichotomy:

* ``rot2``: two fibers swapped by the generator, each fiber a circle
  rotation by an irrational angle. Isometric, so every mean separation
  equals the starting distance; the base action on two points is minimal.
* ``rot1-trivial``: one fiber, golden-ratio rotation. The skew product is
  the rotation itself.
* ``cat-trivial``: one fiber, the hyperbolic automorphism [[2,1],[1,1]] of
  the 2-torus. Nearby pairs separate and equidistribute.
* ``cat2``: two swapped fibers with different hyperbolic matrices.
* ``mixed``: two fibers fixed by the base action, one a rotation on the
  2-torus and one hyperbolic; the hyperbolic fiber drives the sup
  separation while the rotation fiber alone would be mean-equicontinuous.

Each is a plain dict in the config-file ``system`` shape, and :func:`load`
builds it with :func:`build_system`, as a config file's system is built.
Angles are irrational in exact arithmetic; as floats they are rationals of
astronomical period, far beyond every window used here.
"""

from __future__ import annotations

import math
from numbers import Integral

from .groups import parse_group
from .rds import (
    BaseSpace,
    FiberMap,
    FiberSpace,
    RandomDynamicalSystem,
    SystemSpecError,
    _is_number,
    _sequence,
)

CAT_MATRIX = ((2, 1), (1, 1))
CAT_MATRIX_B = ((3, 2), (1, 1))

ROT2_ANGLES = (math.sqrt(2.0) - 1.0, math.sqrt(3.0) - 1.0)
GOLDEN_ANGLE = (math.sqrt(5.0) - 1.0) / 2.0
MIXED_ANGLES = (math.sqrt(2.0) - 1.0, (math.sqrt(5.0) - 1.0) / 2.0)

# the bundled systems in the config-file ``system`` shape of build_system
_SPECS = {
    "rot2": {
        "group": "Z",
        "dim": 1,
        "base": {"labels": ["w0", "w1"], "weights": [0.5, 0.5], "perms": [[1, 0]]},
        "maps": [[
            {"matrix": [[1]], "shift": [ROT2_ANGLES[0]]},
            {"matrix": [[1]], "shift": [ROT2_ANGLES[1]]},
        ]],
        "declared": {
            "expected": "wme-evidence",
            "minimal_base": True,
            "notes": "isometric fibers; separation profiles are constant",
        },
    },
    "rot1-trivial": {
        "group": "Z",
        "dim": 1,
        "base": {"labels": ["w0"], "weights": [1.0], "perms": [[0]]},
        "maps": [[{"matrix": [[1]], "shift": [GOLDEN_ANGLE]}]],
        "declared": {
            "expected": "wme-evidence",
            "minimal_base": True,
            "notes": "one-point base; the skew product is a circle rotation",
        },
    },
    "cat-trivial": {
        "group": "Z",
        "dim": 2,
        "base": {"labels": ["w0"], "weights": [1.0], "perms": [[0]]},
        "maps": [[{"matrix": CAT_MATRIX}]],
        "declared": {
            "expected": "sensitive-evidence",
            "minimal_base": True,
            "notes": "hyperbolic torus automorphism; difference orbits equidistribute",
        },
    },
    "cat2": {
        "group": "Z",
        "dim": 2,
        "base": {"labels": ["w0", "w1"], "weights": [0.5, 0.5], "perms": [[1, 0]]},
        "maps": [[{"matrix": CAT_MATRIX}, {"matrix": CAT_MATRIX_B}]],
        "declared": {
            "expected": "sensitive-evidence",
            "minimal_base": True,
            "notes": "alternating hyperbolic matrices",
        },
    },
    "mixed": {
        "group": "Z",
        "dim": 2,
        "base": {"labels": ["w0", "w1"], "weights": [0.5, 0.5], "perms": [[0, 1]]},
        "maps": [[
            {"matrix": [[1, 0], [0, 1]], "shift": list(MIXED_ANGLES)},
            {"matrix": CAT_MATRIX},
        ]],
        "declared": {
            "expected": "sensitive-evidence",
            "minimal_base": False,
            "notes": "base action fixes both fibers; the hyperbolic fiber drives the sup",
        },
    },
}


def names() -> tuple[str, ...]:
    return tuple(_SPECS)


def load(name: str) -> RandomDynamicalSystem:
    try:
        spec = _SPECS[name]
    except KeyError:
        raise KeyError(
            f"unknown system {name!r}; available: {', '.join(_SPECS)}"
        ) from None
    return build_system({"name": name, **spec})


def _spec_object(value, what: str, key: str) -> dict:
    if not isinstance(value, dict) or key not in value:
        raise SystemSpecError(f"{what} {value!r} is not an object with a {key!r}")
    return value


def _fiber_map(entry, dim: int) -> FiberMap:
    entry = _spec_object(entry, "map entry", "matrix")
    return FiberMap(entry["matrix"], entry.get("shift", [0.0] * dim))


def _fiber_space(entry, dim: int) -> FiberSpace:
    if entry == "full":
        return FiberSpace.full(dim)
    return FiberSpace(dim, _spec_object(entry, "fibers entry", "slices")["slices"])


def build_system(spec: dict) -> RandomDynamicalSystem:
    """Build a system from a plain dict (the JSON config shape).

    Expected keys: ``group`` (text form), ``dim``, ``base`` with ``labels``,
    ``weights``, and ``perms`` (one permutation per generator), ``maps`` as a
    list per generator of per-base-point ``{"matrix": ..., "shift": ...}``,
    and optionally ``fibers`` (``"full"`` or ``{"slices": [[[axis, value],
    ...], ...]}`` per base point), ``name``, ``declared``. The base, fiber
    and map classes convert and check the values themselves.
    """
    group = parse_group(spec["group"])
    base_spec = _spec_object(spec["base"], "base", "labels")
    base = BaseSpace(base_spec["labels"], base_spec["weights"], base_spec["perms"])
    dim = spec["dim"]
    if not _is_number(dim, Integral):
        raise SystemSpecError(f"dim {dim!r} is not an integer")
    fibers_spec = spec.get("fibers")
    if fibers_spec is None:
        fibers_spec = ["full"] * base.size
    elif len(_sequence(fibers_spec, "fibers")) != base.size:
        raise SystemSpecError(
            f"need one fibers entry per base point ({base.size}), got {len(fibers_spec)}"
        )
    declared = spec.get("declared", {})
    if not isinstance(declared, dict):
        raise SystemSpecError(f"declared {declared!r} is not an object")
    return RandomDynamicalSystem(
        name=str(spec.get("name", "custom")),
        group=group,
        base=base,
        dim=dim,
        fibers=tuple(_fiber_space(fs, dim) for fs in fibers_spec),
        maps=tuple(tuple(_fiber_map(m, dim) for m in _sequence(row, "maps row"))
                   for row in _sequence(spec["maps"], "maps")),
        declared=dict(declared),
    )


def summary() -> list[dict]:
    rows = []
    for name in names():
        sys_ = load(name)
        rows.append(
            {
                "name": name,
                "group": sys_.group.spec,
                "dim": sys_.dim,
                "base_size": sys_.base.size,
                "expected": sys_.declared.get("expected", ""),
                "notes": sys_.declared.get("notes", ""),
            }
        )
    return rows
