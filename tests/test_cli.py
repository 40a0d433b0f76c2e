"""Command line behavior: exit codes, JSON envelopes, file outputs."""

import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from grid_fixtures import Z2_CAT, Z_SLICED, ZXC2_ROT
import meanrds
from meanrds import cli
from meanrds.cli import main

# ``python -m`` puts its working directory first on sys.path, so a child run
# from the directory holding the package finds it without PYTHONPATH
PACKAGE_ROOT = os.path.dirname(os.path.dirname(meanrds.__file__))

SMALL = {
    "estimator": {"n_max": 512, "m_max": 128, "search_radius": 8},
    "classifier": {
        "eps_list": [0.2, 0.05],
        "delta_grid": [0.1, 0.01, 0.001],
        "pair_budget": 4,
        "point_budget": 2,
        "candidate_budget": 3,
        "delta0": 0.05,
        "eps_sequence": [0.1, 0.01, 0.001],
        "grid_resolution": 8,
    },
}

TWO_ROT = {
    "name": "two-rot",
    "group": "Z",
    "dim": 1,
    "base": {"labels": ["a", "b"], "weights": [0.5, 0.5], "perms": [[1, 0]]},
    "maps": [[{"matrix": [[1]], "shift": [0.25]}, {"matrix": [[1]], "shift": [0.75]}]],
}


def _cfg_file(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_catalog_text(capsys):
    assert main(["catalog"]) == 0
    out = capsys.readouterr().out
    assert "bundled systems:" in out
    for name in ("rot2", "rot1-trivial", "cat-trivial", "cat2", "mixed"):
        assert name in out


def test_catalog_json_envelope(capsys):
    assert main(["catalog", "--json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["schema_version"] == "1"
    assert blob["command"] == "catalog"
    assert len(blob["config_hash"]) == 64
    assert int(blob["config_hash"], 16) >= 0
    assert blob["seed"] == 0
    assert len(blob["systems"]) == 5


def test_usage_errors_exit_one(capsys):
    assert main([]) == 1
    assert main(["no-such-command"]) == 1
    assert main(["validate"]) == 1  # --system is required
    capsys.readouterr()


def test_unknown_system_exits_one(capsys):
    assert main(["validate", "--system", "nope"]) == 1
    assert "error" in capsys.readouterr().err


def test_nan_synthetic_profile_exits_one(capsys):
    assert main(["estimate", "--system", "synthetic:constant:nan"]) == 1
    assert "NaN" in capsys.readouterr().err
    # an infinite profile is the separation of a pair with no common fiber
    assert main(["estimate", "--system", "synthetic:constant:inf"]) == 0


def test_bad_flag_value_exits_one(capsys):
    code = main(["estimate", "--system", "synthetic:evens", "--tail-fraction", "2.0"])
    assert code == 1
    assert "tail_fraction" in capsys.readouterr().err


def test_validate_catalog_system(capsys):
    assert main(["validate", "--system", "rot2"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out
    assert "worst residual" in out


def test_validate_broken_system_exits_two(tmp_path, capsys):
    spec = {
        "name": "shear-pair",
        "group": "Z^2",
        "dim": 2,
        "base": {"labels": ["w"], "weights": [1.0], "perms": [[0], [0]]},
        "maps": [
            [{"matrix": [[1, 1], [0, 1]], "shift": [0.0, 0.0]}],
            [{"matrix": [[1, 0], [1, 1]], "shift": [0.0, 0.0]}],
        ],
    }
    cfg = _cfg_file(tmp_path, {"system": spec})
    # the two shears do not commute, so the commutator word is not identity
    assert main(["validate", "--system", "config", "--config", cfg]) == 2
    out = capsys.readouterr().out
    assert "relation-words" in out


@pytest.mark.parametrize("spec,gen,point,shift,residual", [
    (ZXC2_ROT, 1, 1, [0.75 + 2**-50], 2**-50),
    (Z2_CAT, 1, 0, [2**-50, 0.0], 5 * 2**-50),
], ids=["zxc2-rot", "z2-cat"])
def test_validate_exits_two_on_a_shift_off_by_2_to_the_minus_50(spec, gen, point, shift,
                                                               residual, tmp_path, capsys):
    """On zxc2-rot the defect breaks s1^2 = 1 and [s0, s1] by 2^-50; on
    z2-cat it breaks [s0, s1] by A^-2 (A^-1 - I) (2^-50, 0) = (3, -5) 2^-50.
    Both residuals come out exactly."""
    spec = json.loads(json.dumps(spec))
    spec["maps"][gen][point]["shift"] = shift
    cfg = _cfg_file(tmp_path, {"system": spec})
    assert main(["validate", "--system", "config", "--config", cfg, "--json"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema_version"] == "2"
    checks = {c["name"]: c for c in doc["report"]["checks"]}
    assert not checks["relation-words"]["passed"]
    assert checks["relation-words"]["residual"] == residual
    assert checks["relation-words"]["detail"] == "relator [s0, s1] at base point w0 leaves a shift"


def test_estimate_synthetic_profile(capsys):
    assert main(["estimate", "--system", "synthetic:evens", "--json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    kinds = {e["kind"]: e["value"] for e in blob["estimates"]}
    assert kinds == {
        "besicovitch": 0.5,
        "banach": 0.5,
        "weyl": 0.5,
        "translated-besicovitch-scan": 0.5,
    }


def test_estimate_explicit_pair(capsys):
    code = main([
        "estimate", "--system", "rot2", "--pair", "0.1|0.3",
        "--n-max", "512", "--m-max", "128", "--radius", "8", "--json",
    ])
    assert code == 0
    blob = json.loads(capsys.readouterr().out)
    ests = blob["pairs"][0]["estimates"]
    for key in ("besicovitch", "banach", "weyl"):
        assert abs(ests[key]["value"] - 0.2) < 1e-12
    assert "fiber-weyl[w0]" in ests


def test_estimate_malformed_pair(capsys):
    assert main(["estimate", "--system", "rot2", "--pair", "0.1;0.3"]) == 1
    assert "malformed pair" in capsys.readouterr().err
    assert main(["estimate", "--system", "rot2", "--pair", "0.1|0.2,0.3"]) == 1
    assert "mixes dimensions" in capsys.readouterr().err


def test_estimate_seeded_pairs_reproducible(capsys):
    argv = ["estimate", "--system", "cat2", "--pairs", "2", "--seed", "5",
            "--n-max", "256", "--m-max", "64", "--radius", "4", "--json"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_global_flags_work_on_either_side(capsys):
    before = ["--seed", "5", "--json", "estimate", "--system", "synthetic:odds"]
    after = ["estimate", "--system", "synthetic:odds", "--seed", "5", "--json"]
    assert main(before) == 0
    out_a = capsys.readouterr().out
    assert main(after) == 0
    assert capsys.readouterr().out == out_a
    assert json.loads(out_a)["seed"] == 5


def test_shared_parser_keeps_no_state_between_calls(tmp_path, capsys, monkeypatch):
    """main() parses every call with one parser; a sequence of commands in
    one process gives the bytes of a fresh parser per command."""
    cfg = _cfg_file(tmp_path, {"estimator": {"m_max": 64, "search_radius": 4}, "seed": 3})
    estimate = ["estimate", "--system", "rot1-trivial", "--pairs", "1"]
    commands = [
        ["estimate", "--system", "rot2", "--pair", "0.1|0.3", "--pair", "0.5|0.51"],
        ["estimate", "--system", "rot2", "--pairs", "1"],   # no --pair: the list must not leak
        ["--json", *estimate],
        [*estimate, "--json"],
        estimate,
        ["--config", cfg, *estimate],
        estimate,
        ["estimate", "--no-such-flag"],
        ["--help"],
    ]

    def run_all():
        results = []
        for argv in commands:
            code = main(list(argv))
            out, err = capsys.readouterr()
            results.append((code, out, err))
        return results

    assert cli._shared_parser() is cli._shared_parser()
    shared = run_all()
    monkeypatch.setattr(cli, "_shared_parser", cli.build_parser)
    assert run_all() == shared
    assert [code for code, _, _ in shared] == [0, 0, 0, 0, 0, 0, 0, 1, 0]
    # each command that a leak would change differs from the one before it
    outs = [out for _, out, _ in shared]
    assert outs[0] != outs[1] and outs[3] != outs[4] and outs[5] != outs[6]
    assert outs[2] == outs[3] and outs[4] == outs[6]
    assert outs[8].startswith("usage: meanrds")


def test_config_field_dicts_equal_asdict(tmp_path):
    """The field dicts that the hash and the outputs use are the configs'
    ``dataclasses.asdict``, key order included, with a config file and flags."""
    cfg = _cfg_file(tmp_path, {**SMALL, "estimator": {"tolerance": 1, "m_max": 64}})
    for argv in (["catalog"], ["--config", cfg, "catalog", "--radius", "3", "--seed", "4"]):
        settings = cli._effective_settings(cli.build_parser().parse_args(argv))
        for name in ("estimator", "classifier"):
            fields = settings[f"{name}_fields"]
            assert json.dumps(fields) == json.dumps(dataclasses.asdict(settings[name]))
            assert fields == dataclasses.asdict(settings[name])


def test_density_default_sets(capsys):
    assert main(["density", "--n-max", "1024", "--m-max", "256", "--radius", "16"]) == 0
    out = capsys.readouterr().out
    for spec in ("evens", "squares", "dyadic-blocks", "mod:3:0"):
        assert spec in out


def test_density_single_set_json(capsys):
    assert main(["density", "--set", "mod:4:0", "--json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    (entry,) = blob["sets"]
    assert entry["set"] == "mod:4:0"
    for est in entry["densities"].values():
        assert est["value"] == 0.25


def test_density_unknown_set(capsys):
    assert main(["density", "--set", "bogus"]) == 1
    assert "unknown subset" in capsys.readouterr().err


# Z^2 x C2 in dimension 1: rotations on the free generators and x -> -x on
# C2, which does not commute with the rotation by 0.25, so the relator
# [s1, s2] leaves a shift of 1/2
Z2C2_ROT = {
    "name": "z2c2-rot",
    "group": "Z^2 x C2",
    "dim": 1,
    "base": {"labels": ["w0"], "weights": [1.0], "perms": [[0], [0], [0]]},
    "maps": [[{"matrix": [[1]], "shift": [0.41421356237309515]}],
             [{"matrix": [[1]], "shift": [0.25]}],
             [{"matrix": [[-1]], "shift": [0.0]}]],
}


@pytest.mark.parametrize("spec,failed", [
    (Z2C2_ROT, "relation-words (relator [s1, s2] at base point w0 leaves a shift)"),
    (Z_SLICED, "fiber-domain-coverage (generator s0 at w1)"),
    ({**TWO_ROT, "base": {**TWO_ROT["base"], "weights": [0.5, 0.6]}},
     "base-weights-sum (residual 1.000e-01)"),
], ids=["z2c2-rot", "z-sliced", "weights-1.1"])
def test_estimate_and_classify_refuse_a_system_that_fails_validation(spec, failed, tmp_path,
                                                                     capsys):
    """A config-file system off the cocycle axioms, one whose map carries
    a sliced fiber off itself, or one whose weights do not sum to 1 gets no
    estimate and no classification: exit 2, nothing on stdout, one stderr
    line naming the first failing check and its detail, or its residual
    where the check has none. ``validate`` still prints its report."""
    cfg = _cfg_file(tmp_path, {"system": spec, **SMALL})
    name = spec["name"]
    for argv in (["estimate"], ["estimate", "--json"], ["classify"]):
        assert main(argv + ["--system", name, "--config", cfg]) == 2
        assert capsys.readouterr() == (
            "", f"meanrds: error: system '{name}' fails validation: {failed}\n")
    assert main(["validate", "--system", name, "--config", cfg]) == 2
    out = capsys.readouterr().out
    assert out.startswith(f"validation of {name}") and f"[FAIL] {failed.split()[0]}" in out


@pytest.mark.parametrize("path", sorted(
    (Path(__file__).resolve().parents[1] / "perfbench" / "fixtures").glob("*.json")),
    ids=lambda p: p.stem)
def test_benchmark_fixtures_pass_validation(path, capsys):
    """The gate on config-file systems never refuses a benchmark input:
    each fixture's system passes every check."""
    cfg = str(path)
    name = json.loads(path.read_text())["system"]["name"]
    assert main(["validate", "--system", name, "--config", cfg]) == 0
    assert "[FAIL]" not in capsys.readouterr().out


def test_classify_exit_codes(tmp_path, capsys):
    cfg = _cfg_file(tmp_path, SMALL)
    assert main(["classify", "--system", "rot2", "--config", cfg]) == 0
    assert "verdict: wme-evidence" in capsys.readouterr().out
    assert main(["classify", "--system", "cat-trivial", "--config", cfg]) == 0
    assert "verdict: sensitive-evidence" in capsys.readouterr().out
    # delta0 above the torus diameter fails both probes
    stuck = json.loads(json.dumps(SMALL))
    stuck["classifier"]["delta0"] = 2.0
    cfg2 = _cfg_file(tmp_path, stuck, "stuck.json")
    assert main(["classify", "--system", "cat-trivial", "--config", cfg2]) == 3
    out = capsys.readouterr().out
    assert "verdict: inconclusive" in out
    assert "suggestion:" in out


def test_scans_on_a_finite_group_exit_one(tmp_path, capsys):
    """C3 has no free factor, so it has no window schedule: every scan
    raises at once instead of doubling its window forever."""
    spec = {
        "name": "c3-order3",
        "group": "C3",
        "dim": 2,
        "base": {"labels": ["w0"], "weights": [1.0], "perms": [[0]]},
        "maps": [[{"matrix": [[0, -1], [1, -1]], "shift": [0.0, 0.0]}]],
    }
    cfg = _cfg_file(tmp_path, {"system": spec, **SMALL})
    assert main(["validate", "--system", "config", "--config", cfg]) == 0
    capsys.readouterr()
    for argv in (["estimate", "--pair", "0.1,0.2|0.3,0.1"], ["classify"]):
        assert main(argv + ["--system", "config", "--config", cfg]) == 1
        assert "no free factor" in capsys.readouterr().err


def test_removed_workers_flag_exits_one(capsys):
    assert main(["classify", "--system", "cat2", "--workers", "1"]) == 1
    assert "--workers" in capsys.readouterr().err


def test_out_directory_files(tmp_path, capsys):
    """Each command's ``<command>.json`` holds the bytes of its ``--json``
    stdout: the document and a newline."""
    out_dir = tmp_path / "results"
    code = main(["estimate", "--system", "synthetic:squares",
                 "--out", str(out_dir), "--json"])
    assert code == 0
    assert (out_dir / "estimate.json").read_bytes() == capsys.readouterr().out.encode()
    with open(out_dir / "estimate.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:6] == ["system", "pair", "x", "y", "kind", "value"]
    assert len(rows) == 1 + 4  # header plus one row per estimator
    cfg = _cfg_file(tmp_path, SMALL)
    for argv in (["estimate", "--system", "mixed", "--config", cfg, "--pairs", "2"],
                 ["density", "--set", "evens", "--set", "squares", "--config", cfg],
                 ["classify", "--system", "rot2", "--config", cfg],
                 ["validate", "--system", "cat2"],
                 ["catalog"]):
        assert main(argv + ["--out", str(out_dir), "--json"]) == 0
        stdout = capsys.readouterr().out
        assert (out_dir / f"{argv[0]}.json").read_bytes() == stdout.encode(), argv
        assert stdout == json.dumps(json.loads(stdout), sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("c", ["inf", "-inf"])
def test_infinities_keep_their_sign_in_text_and_csv(tmp_path, capsys, c):
    """An infinite estimate prints as ``inf`` or ``-inf`` on stdout and in
    ``estimate.csv``, as its JSON holds ``Infinity`` or ``-Infinity``."""
    spec = f"synthetic:constant:{c}"
    assert main(["estimate", "--system", spec, "--out", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:] == [f"  {kind} = {c} (window {n})" for kind, n in
                         (("besicovitch", 64), ("banach", 1), ("weyl", 1),
                          ("translated-besicovitch-scan", 64))]
    with open(tmp_path / "estimate.csv", newline="") as fh:
        assert [row[5] for row in csv.reader(fh)] == ["value"] + [c] * 4
    blob = json.loads((tmp_path / "estimate.json").read_text())
    assert [e["value"] for e in blob["estimates"]] == [float(c)] * 4


def test_out_directory_classify_csv(tmp_path, capsys):
    cfg = _cfg_file(tmp_path, SMALL)
    out_dir = tmp_path / "cls"
    assert main(["classify", "--system", "rot2", "--config", cfg,
                 "--out", str(out_dir)]) == 0
    capsys.readouterr()
    with open(out_dir / "cls.csv".replace("cls", "classify"), newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["criterion", "eps", "delta", "pairs_tested", "worst", "passed"]
    kinds = {r[0] for r in rows[1:]}
    assert kinds == {"separation", "density"}


def test_config_file_errors(tmp_path, capsys):
    assert main(["catalog", "--config", str(tmp_path / "missing.json")]) == 1
    capsys.readouterr()
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    assert main(["catalog", "--config", str(bad)]) == 1
    assert "JSON object" in capsys.readouterr().err


BAD_CONFIGS = [
    pytest.param({"classifier": {"pair_budget": 2.5}}, "pair_budget", id="float-pair-budget"),
    pytest.param({"estimator": {"n_max": "64"}}, "n_max", id="string-n-max"),
    pytest.param({"estimator": {"search_radius": 4.0}}, "search_radius", id="float-radius"),
    pytest.param({"estimator": {"tolerance": True}}, "tolerance", id="bool-tolerance"),
    pytest.param({"classifier": {"eps_list": 0.2}}, "eps_list", id="scalar-eps-list"),
    pytest.param({"estimator": {"n_maxx": 64}}, "n_maxx", id="unknown-key"),
    pytest.param({"estimator": [64]}, "estimator", id="section-not-object"),
    pytest.param({"system": {**TWO_ROT, "fibers": ["full"]}}, "fibers", id="one-fiber-two-points"),
    pytest.param({"system": {**TWO_ROT, "maps": [[[[1]], {"matrix": [[1]]}]]}}, "matrix",
                 id="map-entry-not-object"),
    pytest.param({"system": {**TWO_ROT, "maps": [[{"matrix": [[1.5]]}, {"matrix": [[1]]}]]}},
                 "matrix entry", id="float-matrix-entry"),
    pytest.param({"system": {**TWO_ROT, "fibers": ["full", 1]}}, "slices",
                 id="fibers-entry-not-object"),
    pytest.param({"system": {**TWO_ROT, "base": [["a", "b"]]}}, "base", id="base-not-object"),
    pytest.param({"system": [TWO_ROT]}, "system", id="system-not-object"),
    pytest.param({"seed": 2.5}, "seed", id="float-seed"),
    pytest.param({"seed": 2.0}, "seed", id="integral-float-seed"),
    pytest.param({"seed": True}, "seed", id="bool-seed"),
    pytest.param({"system": {**TWO_ROT, "dim": 1.5}}, "dim", id="float-dim"),
    pytest.param({"system": {**TWO_ROT, "base": {**TWO_ROT["base"], "perms": [[1, 0.7]]}}},
                 "permutation entry", id="float-perm-entry"),
    pytest.param({"system": {**TWO_ROT, "group": 1}}, "group", id="int-group"),
    pytest.param({"system": {**TWO_ROT, "base": {**TWO_ROT["base"], "labels": 5}}}, "labels",
                 id="int-labels"),
    pytest.param({"system": {**TWO_ROT, "base": {**TWO_ROT["base"], "labels": "ab"}}},
                 "labels", id="string-labels"),
    pytest.param({"system": {**TWO_ROT, "base": {**TWO_ROT["base"], "labels": [1, None]}}},
                 "label", id="int-label"),
    pytest.param({"system": {**TWO_ROT, "base": {**TWO_ROT["base"], "weights": 5}}},
                 "weights", id="int-weights"),
    pytest.param({"system": {**TWO_ROT, "base": {**TWO_ROT["base"], "perms": 3}}}, "perms",
                 id="int-perms"),
    pytest.param({"system": {**TWO_ROT, "base": {**TWO_ROT["base"], "perms": [3]}}},
                 "permutation", id="int-permutation"),
    pytest.param({"system": {**TWO_ROT, "maps": 5}}, "maps", id="int-maps"),
    pytest.param({"system": {**TWO_ROT, "maps": [[{"matrix": [[1]], "shift": 0.1},
                                                  {"matrix": [[1]]}]]}},
                 "shift", id="scalar-shift"),
    pytest.param({"system": {**TWO_ROT, "maps": [[{"matrix": 1}, {"matrix": [[1]]}]]}},
                 "matrix", id="int-matrix"),
    pytest.param({"system": {**TWO_ROT, "fibers": [{"slices": 3}, "full"]}}, "slices",
                 id="int-slices"),
    pytest.param({"system": {**TWO_ROT, "fibers": [{"slices": [[[0]]]}, "full"]}},
                 "slice entry", id="slice-entry-without-value"),
    pytest.param({"system": {**TWO_ROT, "fibers": 5}}, "fibers", id="int-fibers"),
    pytest.param({"system": {**TWO_ROT, "declared": [1]}}, "declared", id="list-declared"),
    pytest.param({"system": {**TWO_ROT, "base": {**TWO_ROT["base"], "weights": ["0.5", 0.5]}}},
                 "weight", id="string-weight"),
    pytest.param({"system": {**TWO_ROT, "maps": [[{"matrix": [[1]], "shift": ["0.5"]},
                                                  {"matrix": [[1]]}]]}},
                 "shift", id="string-shift"),
    pytest.param({"system": {**TWO_ROT, "maps": [[{"matrix": [[1]], "shift": [True]},
                                                  {"matrix": [[1]]}]]}},
                 "shift", id="bool-shift"),
    pytest.param({"system": {**TWO_ROT, "fibers": [{"slices": [[[0.7, 0.5]]]}, "full"]}},
                 "slice axis", id="float-slice-axis"),
    pytest.param({"system": {**TWO_ROT, "fibers": [{"slices": [[[0, "0.5"]]]}, "full"]}},
                 "slice value", id="string-slice-value"),
]


@pytest.mark.parametrize("data,names", BAD_CONFIGS)
def test_bad_config_input_exits_one_without_traceback(tmp_path, capsys, data, names):
    cfg = _cfg_file(tmp_path, {"system": TWO_ROT, **data})
    assert main(["validate", "--system", "two-rot", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("meanrds: error:")
    assert names in err
    assert "Traceback" not in err


NAN, INF = float("nan"), float("inf")
VALIDATE_TWO_ROT = ["validate", "--system", "two-rot"]

NON_FINITE_INPUTS = [
    pytest.param(["estimate", "--system", "rot2", "--pair", "nan|0.1"], {}, "not finite",
                 id="pair-nan"),
    pytest.param(["estimate", "--system", "rot2", "--pair", "0.2|inf"], {}, "not finite",
                 id="pair-inf"),
    pytest.param(["estimate", "--system", "synthetic:evens", "--tolerance", "nan"], {},
                 "tolerance", id="flag-tolerance-nan"),
    pytest.param(VALIDATE_TWO_ROT, {"estimator": {"tolerance": INF}}, "tolerance",
                 id="config-tolerance-inf"),
    pytest.param(VALIDATE_TWO_ROT, {"classifier": {"eps_list": [0.2, NAN]}}, "eps_list",
                 id="config-eps-list-nan"),
    pytest.param(VALIDATE_TWO_ROT, {"classifier": {"delta0": NAN}}, "delta0",
                 id="config-delta0-nan"),
    pytest.param(VALIDATE_TWO_ROT,
                 {"system": {**TWO_ROT, "maps": [[{"matrix": [[1]], "shift": [NAN]},
                                                  {"matrix": [[1]]}]]}},
                 "shift", id="system-shift-nan"),
    pytest.param(VALIDATE_TWO_ROT,
                 {"system": {**TWO_ROT, "maps": [[{"matrix": [[1]], "shift": [INF]},
                                                  {"matrix": [[1]]}]]}},
                 "shift", id="system-shift-inf"),
    pytest.param(VALIDATE_TWO_ROT,
                 {"system": {**TWO_ROT, "maps": [[{"matrix": [[INF]]}, {"matrix": [[1]]}]]}},
                 "matrix entry", id="system-matrix-inf"),
    pytest.param(VALIDATE_TWO_ROT,
                 {"system": {**TWO_ROT, "maps": [[{"matrix": [[NAN]]}, {"matrix": [[1]]}]]}},
                 "matrix entry", id="system-matrix-nan"),
    pytest.param(VALIDATE_TWO_ROT,
                 {"system": {**TWO_ROT, "fibers": [{"slices": [[[0, NAN]]]}, "full"]}},
                 "slice value", id="system-slice-nan"),
    pytest.param(VALIDATE_TWO_ROT,
                 {"system": {**TWO_ROT, "base": {**TWO_ROT["base"], "weights": [NAN, 0.5]}}},
                 "weight", id="system-weight-nan"),
]


@pytest.mark.parametrize("argv,data,text", NON_FINITE_INPUTS)
def test_non_finite_input_exits_one(tmp_path, capsys, argv, data, text):
    """A NaN or infinite number is rejected where it enters: a pair
    coordinate, a flag, a config value, or a shift, slice value or weight
    of a system."""
    cfg = _cfg_file(tmp_path, {"system": TWO_ROT, **data})
    assert main(argv + ["--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("meanrds: error:")
    assert text in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["validate", "--system", "rot2", "--max-word-length", "8"],
    ["estimate", "--system", "rot2", "--pairs", "-2"],
    ["estimate", "--system", "rot2", "--pairs", "0"],
], ids=["word-length-unknown", "pairs-negative", "pairs-zero"])
def test_counts_that_check_nothing_exit_one(argv, capsys):
    """A count below what checks anything, or the word-length count that
    validate no longer takes (an unknown option, reported under the usage
    line)."""
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines()[-1].startswith("meanrds: error:") and captured.out == ""


def test_shortest_counts_still_run(capsys):
    assert main(["estimate", "--system", "rot2", "--pairs", "1"]) == 0
    assert "pair 0:" in capsys.readouterr().out


def test_config_system_resolved_by_name(tmp_path, capsys):
    cfg = _cfg_file(tmp_path, {"system": TWO_ROT})
    assert main(["validate", "--system", "two-rot", "--config", cfg]) == 0
    assert "two-rot" in capsys.readouterr().out


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "meanrds", "catalog"],
        capture_output=True, text=True, cwd=PACKAGE_ROOT,
    )
    assert proc.returncode == 0
    assert "rot2" in proc.stdout


OVERFLOW_ESTIMATES = """estimates for {spec}:
  besicovitch = inf (window 64)
  banach = 1e+308 (window 1)
  weyl = 1e+308 (window 1)
  translated-besicovitch-scan = inf (window 64)
"""


@pytest.mark.parametrize("spec,caps", [
    ("constant:1e308", ["--m-max", "1000", "--n-max", "3000"]),
    ("periodic:1e308,1e308", []),
    ("periodic:1e308,1e308", ["--m-max", "1000"]),
])
def test_overflowing_window_sums_are_silent(spec, caps):
    """A window sum that overflows is inf on stdout, with nothing on stderr:
    through the table, through a gathered window and in closed form."""
    proc = subprocess.run(
        [sys.executable, "-m", "meanrds", "estimate", "--system", f"synthetic:{spec}", *caps],
        capture_output=True, text=True, cwd=PACKAGE_ROOT,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == OVERFLOW_ESTIMATES.format(spec=f"synthetic:{spec}")


@pytest.mark.parametrize("spec,window", [
    ("periodic:-inf,inf", 2),
    ("periodic:1e308,1e308,-1e308,-1e308", 4),
])
def test_nan_window_means_exit_one(spec, window):
    """A window sum that adds +inf to -inf is an error naming the profile
    and the window, exit 1, with nothing on stdout and no numpy warning."""
    proc = subprocess.run(
        [sys.executable, "-m", "meanrds", "estimate", "--system", f"synthetic:{spec}"],
        capture_output=True, text=True, cwd=PACKAGE_ROOT,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == (f"meanrds: error: profile '{spec}' has a NaN mean over window "
                           f"{window}: its sum adds +inf to -inf\n")
