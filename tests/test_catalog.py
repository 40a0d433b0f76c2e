"""Bundled example systems and the config-dict builder."""

import json

import pytest

from grid_fixtures import ROT3, Z2_CAT, ZXC2_CAT2, ZXC2_ROT, ZXC3_ORDER3
from meanrds import catalog
from meanrds.cli import main
from meanrds.rds import FiberSpace, validate


def test_names_are_stable():
    assert catalog.names() == ("rot2", "rot1-trivial", "cat-trivial", "cat2", "mixed")


# the grid fixtures validate too, except Z_SLICED, whose domain coverage
# fails by design
GRID_SPECS = {spec["name"]: spec for spec in (Z2_CAT, ZXC2_ROT, ZXC3_ORDER3, ZXC2_CAT2, ROT3)}


@pytest.mark.parametrize("name", [*catalog.names(), *GRID_SPECS])
def test_every_system_validates(name):
    sys_ = catalog.build_system(GRID_SPECS[name]) if name in GRID_SPECS else catalog.load(name)
    rep = validate(sys_)
    assert rep.ok, rep.to_text()
    assert rep.worst_residual == 0.0


@pytest.mark.parametrize("name", catalog.names())
def test_declared_fields_present(name):
    sys_ = catalog.load(name)
    assert sys_.declared["expected"] in ("wme-evidence", "sensitive-evidence")
    assert "minimal_base" in sys_.declared
    assert sys_.declared["notes"]


def _acts_transitively_on_support(system) -> bool:
    """Whether the generators' permutation orbit of one support point is the
    whole support (a finite orbit is closed under the forward steps)."""
    support = set(system.base.support)
    orbit, todo = set(), [min(support)]
    while todo:
        w = todo.pop()
        if w not in orbit:
            orbit.add(w)
            todo.extend(p[w] for p in system.base.generator_perms)
    return orbit == support


@pytest.mark.parametrize("name", catalog.names())
def test_declared_minimal_base_matches_the_orbits(name):
    sys_ = catalog.load(name)
    assert sys_.declared["minimal_base"] is _acts_transitively_on_support(sys_)


@pytest.mark.parametrize("name", catalog.names())
def test_bundled_spec_is_a_config_file(name, tmp_path, capsys):
    """A bundled spec written as a config file's system gives the bytes of
    the bundled system itself."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"system": {"name": name, **catalog._SPECS[name]}}))
    argv = ["estimate", "--system", name, "--pairs", "3", "--seed", "7", "--json"]
    assert main(argv) == 0
    bundled = capsys.readouterr().out
    assert main(argv + ["--config", str(cfg)]) == 0
    assert capsys.readouterr().out == bundled


def test_load_unknown_name():
    with pytest.raises(KeyError, match="rot2"):
        catalog.load("does-not-exist")


def test_summary_rows():
    rows = catalog.summary()
    assert [r["name"] for r in rows] == list(catalog.names())
    byname = {r["name"]: r for r in rows}
    assert byname["cat2"]["dim"] == 2
    assert byname["cat2"]["base_size"] == 2
    assert byname["rot2"]["group"] == "Z"


def test_build_system_from_dict():
    spec = {
        "name": "two-rotations",
        "group": "Z",
        "dim": 1,
        "base": {
            "labels": ["a", "b"],
            "weights": [0.5, 0.5],
            "perms": [[1, 0]],
        },
        "maps": [
            [
                {"matrix": [[1]], "shift": [0.25]},
                {"matrix": [[1]], "shift": [0.75]},
            ]
        ],
        "declared": {"expected": "wme-evidence"},
    }
    sys_ = catalog.build_system(spec)
    assert sys_.name == "two-rotations"
    assert sys_.base.labels == ("a", "b")
    assert sys_.maps[0][1].shift == (0.75,)
    assert sys_.fibers[0] == FiberSpace.full(1)
    assert validate(sys_).ok
    assert sys_.declared["expected"] == "wme-evidence"


# one fiber, the circle y = 1/2 of T^2
SLICED = {
    "group": "Z",
    "dim": 2,
    "base": {"labels": ["a"], "weights": [1.0], "perms": [[0]]},
    "fibers": [{"slices": [[[1, 0.5]]]}],
    "maps": [[{"matrix": [[1, 0], [0, 1]], "shift": [0.1, 0.0]}]],
}


def test_build_system_with_sliced_fibers():
    sys_ = catalog.build_system(SLICED)
    assert sys_.name == "custom"
    assert sys_.fibers[0].contains((0.3, 0.5))
    assert not sys_.fibers[0].contains((0.3, 0.4))
    assert validate(sys_).ok


def test_build_system_shift_defaults_to_zero():
    spec = {
        "group": "Z",
        "dim": 1,
        "base": {"labels": ["a"], "weights": [1.0], "perms": [[0]]},
        "maps": [[{"matrix": [[1]]}]],
    }
    sys_ = catalog.build_system(spec)
    assert sys_.maps[0][0].shift == (0.0,)


def test_build_system_missing_key():
    with pytest.raises(KeyError):
        catalog.build_system({"group": "Z", "dim": 1})


def test_expected_verdicts_split_both_ways():
    expected = {n: catalog.load(n).declared["expected"] for n in catalog.names()}
    assert set(expected.values()) == {"wme-evidence", "sensitive-evidence"}
