"""Golden outputs: sha256 of the exact bytes of estimate, density, classify
and validate runs.

Refactors of the walks and window scans must leave every byte of these
outputs unchanged. ``classify`` samples near pairs with only correctly
rounded operations, so its bytes do not depend on the libm either.
"""

import dataclasses
import hashlib
import json

import pytest

from meanrds import catalog
from meanrds.classify import ClassifierConfig, dichotomy_report
from meanrds.cli import main
from meanrds.pseudometrics import EstimatorConfig, pair_summary

from grid_fixtures import ROT3, Z2_CAT, Z_SLICED, ZXC2_CAT2, ZXC2_ROT, ZXC3_ORDER3

BIG = ["--n-max", "10000", "--m-max", "10000"]

CLI_GOLDEN = [
    (["estimate", "--system", "rot2", "--json", "--pairs", "3", "--seed", "7"],
     "c38433161a70af8b2ed867f7be68454339b9d2ff9d4a4a89e2c0b9351c04c6d1"),
    (["estimate", "--system", "rot1-trivial", "--json", "--pairs", "3", "--seed", "7"],
     "8c0791dc4bb6f4fcb99d3d42c6328bedca7cf402248d77aa835799dbfc8b3cd9"),
    (["estimate", "--system", "cat-trivial", "--json", "--pairs", "3", "--seed", "7"],
     "40a61fdbe761e076139127b8d0d8ad8c7c1224dd3da65309dba7b2b1985b24ca"),
    (["estimate", "--system", "cat2", "--json", "--pairs", "3", "--seed", "7"],
     "5ef3be83e066d49595dad749eaaa82bf8688347ef67478d964467d1599741d3e"),
    (["estimate", "--system", "mixed", "--json", "--pairs", "3", "--seed", "7"],
     "06ac2f0832ec140ceb3125efde5d1e4947d92fca6a7d42b600aaf5fa2f377ece"),
    (["estimate", "--system", "synthetic:dyadic-blocks", "--json"] + BIG,
     "7e21eb784e3b20e16aef3dc77c8be44be52fd2bfbcdb049374084e039669893e"),
    (["estimate", "--system", "synthetic:squares", "--json"] + BIG,
     "72ce6f89abd6904000a9cb7f605b8646ff47bdba3515fc9083e044d70c7c8a3c"),
    (["density", "--json"],
     "a9fdca15a9323a46d8072ac026ca1342548855e87c803b515c348f0de97cedd4"),
    (["density", "--json", "--set", "squares", "--set", "evens"] + BIG,
     "5774bcc0c7f70e7f743caffd0991e295c86e2a6c5d21a76ca161406d9cbbcb16"),
    (["classify", "--system", "rot2", "--json", "--seed", "7"],
     "a519d3815493385dcae74759a4b0d8303fe1948686340019c28994ec26f42ccd"),
    (["classify", "--system", "rot1-trivial", "--json", "--seed", "7"],
     "73d1e7e7e3fa586a6cdf282e0c33644d397132624f31afbc1d80deeda0145236"),
    (["classify", "--system", "cat-trivial", "--json", "--seed", "7"],
     "4a1c5e27ae4fab1b4a55d10c033bbacd3c3c58008694684aded58976fc586a15"),
    (["classify", "--system", "cat2", "--json", "--seed", "7"],
     "810c09f5c5a33442f1d46a019dc2d53649c95dfbe84ef51673550e2da7a2d377"),
    (["classify", "--system", "mixed", "--json", "--seed", "7"],
     "d4e24cf786397b98a96b70fc23e7929f2ae6966c66feaf55d18123768b2fe222"),
]


@pytest.mark.parametrize("argv,digest", CLI_GOLDEN, ids=[" ".join(a) for a, _ in CLI_GOLDEN])
def test_cli_stdout_is_golden(argv, digest, capsys):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# (system name, config-file system or None for a catalog system, exit code,
# digest of ``validate --json``, schema 2): every check exact, so z2-cat
# passes too
VALIDATE_GOLDEN = [
    ("rot2", None, 0, "ab420d97b499c650d3dbab9f4c7852f697c591e56b637bbd5d6e7e4c0af2d51b"),
    ("rot1-trivial", None, 0, "d5477eb3e626a1f04e0221cbcded5a466c1ec02dccd228367f40a526fea9150b"),
    ("cat-trivial", None, 0, "2f794c9bdd6a81589a9267f6fa987d6289434c5e96a3b0c02ac7c30a5c517f86"),
    ("cat2", None, 0, "1ac3b5481387fc086be50165c637360b4f6596430ce2020d0b71b005381d2fbb"),
    ("mixed", None, 0, "bca7787b60719e83786ca616d0263733bddcabd90bcfeb4b20d29d5056d90f35"),
    ("z2-cat", Z2_CAT, 0, "ac623290e877647a447885a8e485359280af26dc6d75dbaf31b4df37b8d89aff"),
    ("zxc2-rot", ZXC2_ROT, 0, "d90331e33c3917f46317e076c65df150726dbaeea938f4dda2e8e524868761e9"),
    ("zxc3-order3", ZXC3_ORDER3, 0,
     "5245fb251ecc01c211b29b16773260c8cf8cfa45119792294a4b1f4b7d90a5d2"),
    ("zxc2-cat2", ZXC2_CAT2, 0,
     "21e0496330b4c37e43ec7c4deca1180bb289426390ea89fb0957f11d9a33da73"),
]


@pytest.mark.parametrize("name,spec,code,digest", VALIDATE_GOLDEN,
                         ids=[v[0] for v in VALIDATE_GOLDEN])
def test_validate_stdout_is_golden(name, spec, code, digest, tmp_path, capsys):
    argv = ["validate", "--system", name, "--json"]
    if spec is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"system": spec}))
        argv += ["--config", str(path)]
    assert main(argv) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# (system, x, y, (n_max, m_max, search_radius), digest): cyclic widths of 3
# take the odd-width tree, translates wrap mod 3, 5, 10, 33 are
# non-power-of-two schedule tops, and zxc2-cat2's two fibers differ
PAIR_GOLDEN = [
    pytest.param(Z2_CAT, (0.1, 0.2), (0.1004, 0.2002), (64, 16, 2),
                 "84719a5795c6da99ee9e3ee0d4f8ef78b4a43b0ef9fd69d88ffeef4fadaac227",
                 id="z2-cat"),
    pytest.param(Z2_CAT, (0.1, 0.2), (0.1004, 0.2002), (256, 64, 4),
                 "db8e36b0c8ec606f0c73635a225e04f9dbef9f76888c6dc15e3597ebf9648b18",
                 id="z2-cat-256-64-4"),
    pytest.param(ZXC2_ROT, (0.1,), (0.35,), (64, 16, 2),
                 "946da4dae353b763d3053bd49257b69361fe047090b2b17915fdad3730aafff0",
                 id="zxc2-rot"),
    pytest.param(ZXC3_ORDER3, (0.1, 0.2), (0.13, 0.21), (64, 16, 2),
                 "68b0ce6f891dd7d60fd9c78b99984cee1ecd1cd97fdd91854ceb43725b30f70a",
                 id="zxc3-order3"),
    pytest.param(ZXC3_ORDER3, (0.1, 0.2), (0.13, 0.21), (100, 30, 3),
                 "7173afb21cb9653024765766b2dd6cfb3cd196deeb2516a9a9590f1cbe044010",
                 id="zxc3-order3-100-30-3"),
    pytest.param(ZXC2_CAT2, (0.1, 0.2), (0.1004, 0.2002), (64, 16, 2),
                 "8a9d8e6c2f99eb9c03ea24d9dea6d2a9a8b01c9feb3a92ec56139311f9dc4262",
                 id="zxc2-cat2"),
    pytest.param(ZXC2_CAT2, (0.1, 0.2), (0.1004, 0.2002), (256, 64, 4),
                 "8c37c1199de8204ae1a9a484313d7e27fafe07a128d5dcec32853ffba421f8e2",
                 id="zxc2-cat2-256-64-4"),
]


@pytest.mark.parametrize("spec,x,y,caps,digest", PAIR_GOLDEN)
def test_pair_summary_on_generic_groups_is_golden(spec, x, y, caps, digest):
    system = catalog.build_system(spec)
    n_max, m_max, radius = caps
    cfg = EstimatorConfig(n_max=n_max, m_max=m_max, search_radius=radius)
    summary = pair_summary(system, x, y, cfg)
    # a list of pairs, so the key order is pinned too
    blob = json.dumps([(key, est.to_dict()) for key, est in summary.items()])
    assert hashlib.sha256(blob.encode()).hexdigest() == digest


# classify at small caps, off Z and on sliced fibers: the wme and mean-L
# probes read one engine per pair, the sensitivity probe goes through
# sup_fiber_weyl; the pins after rot3 reach each path of the draw-ahead
SMALL_CLASSIFIER = ClassifierConfig(
    eps_list=(0.2, 0.1), delta_grid=(1e-1, 1e-2, 1e-3), pair_budget=8,
    point_budget=2, candidate_budget=3, eps_sequence=(0.1, 0.01, 1e-3))

REPORT_GOLDEN = [
    pytest.param(Z2_CAT, (64, 16, 2), 7,
                 "88b3bfc4ae57785d85965fccd201a1b1ccb9513ce549155bf99b50db02a7dc29",
                 id="z2-cat"),
    pytest.param(Z2_CAT, (256, 64, 4), 7,
                 "289b0f761e300ef1efdf0f0c28a3c384f065236740d4c5c6ec2150ed00636b79",
                 id="z2-cat-256-64-4"),
    pytest.param(ZXC2_ROT, (64, 16, 2), 7,
                 "d342c879beb12b2c87d769e0e60ff83353c3c98c59f0a0c1b95a2d3e6ac83f16",
                 id="zxc2-rot"),
    pytest.param(ZXC2_ROT, (256, 64, 4), 7,
                 "9e6f0a7dfc22ea7082aadeeb440839dcc3c3e53aa0e49b81fcd0905f4becad89",
                 id="zxc2-rot-256-64-4"),
    pytest.param(Z_SLICED, (64, 16, 2), 7,
                 "0296ba1d8caa7e68b48e6c010f9130404a141b636c08139b5da57e9b0900dc2d",
                 id="z-sliced"),
    # windows whose widths after the first multiply to a number that is not
    # a power of two: width 3 on C3 from n = 3 up, and the bisected top 6 of Z^2
    pytest.param(ZXC3_ORDER3, (64, 16, 2), 7,
                 "97dc9a5e986a5529316ee3bd5c7f4ca2e27f5c4409f5eaab42cd7f2b1ac3a4a1",
                 id="zxc3-order3"),
    pytest.param(ZXC3_ORDER3, (256, 64, 4), 7,
                 "d691e1f5fd19c59bdb2ca48573b72999a1d79286a437a764f504d09b293ac2c4",
                 id="zxc3-order3-256-64-4"),
    pytest.param(Z2_CAT, (256, 48, 4), 7,
                 "87cb0073d18bd32b24b506428746fc5baaa94e47d6d537c829c978a1ec600e32",
                 id="z2-cat-256-48-4"),
    # three free axes on every pair: each radius is a correctly rounded cube root
    pytest.param(ROT3, (64, 16, 2), 7,
                 "cc4995215de8dad7186f52fa6fcba69a576c879dbc8c688048d91447ee659b06",
                 id="rot3"),
    # the draw-ahead of a report on a system with a non-constant fiber: above,
    # z2-cat at (64, 16, 2) and zxc3-order3 pass a row of wme's first eps, so
    # nothing is drawn ahead, and z2-cat at (256, 64, 4) holds every
    # prediction; here the first pair of a row drawn ahead stays below eps,
    # so the row is drawn again for its other pairs (wme: mixed, seed 7;
    # mean-L: mixed, seed 2), a mean-L row passes at the last delta after
    # every wme prediction held, which leaves the draws ahead in line with the
    # stream (z2-cat, seed 283), a first candidate is no witness partway
    # through the sequence, which drops them (z2-cat at candidate 3 of 6,
    # cat2 at candidate 9 of 12), cat2 passes a row of wme's first eps on Z,
    # and at (64, 8, 8) every prediction holds; WIDE_GOLDEN below drops the
    # draws ahead at a row
    pytest.param("mixed", (64, 8, 6), 7,
                 "964f6e5a90f5316e83fc2b0b28209c62d5c650dbc6c567339db6af1bcffb4ec6",
                 id="mixed-64-8-6-seed-7"),
    pytest.param(Z2_CAT, (64, 8, 3), 283,
                 "b8ff9ed46767b0005b1e3898cdc728536ab3bcc5b8cd7de91e7751389b35a737",
                 id="z2-cat-64-8-3-seed-283"),
    pytest.param(Z2_CAT, (64, 8, 3), 244,
                 "4a0e9b9b738de89a131fbea4b529ed23931b51a4467b33dc6265790827c20e53",
                 id="z2-cat-64-8-3-seed-244"),
    pytest.param("mixed", (64, 8, 6), 2,
                 "67904fa128318f7abeb80c54543e3d409465871a62f62536e248021c61656c59",
                 id="mixed-64-8-6-seed-2"),
    pytest.param("cat2", (64, 8, 6), 52,
                 "1d5d39ea5f4edf60a7b6fb3d4a18f10a8d1c0df88ae20ed93733af9a66f5e627",
                 id="cat2-64-8-6-seed-52"),
    pytest.param("cat2", (64, 16, 2), 7,
                 "180a7c087022ceeccfb40c1970b735555ef75ff9d428eaa21b734755fe8b2d50",
                 id="cat2"),
    pytest.param("cat2", (64, 8, 8), 7,
                 "94ae5fe2691b9fec76299d8432f05d9120526e5000c13751647e7faf9a4f2749",
                 id="cat2-64-8-8"),
]


# a second eps of 0.6, above every Banach mean these caps give, passes wme's
# row at its first delta after every row of the first eps stopped at its
# first pair: the rows drawn ahead for its later deltas no longer line up
# with the stream, and every draw ahead is dropped
WIDE_CLASSIFIER = dataclasses.replace(SMALL_CLASSIFIER, eps_list=(0.2, 0.6))
WIDE_GOLDEN = [
    pytest.param("cat2", (64, 16, 8), 0,
                 "148bea1500f334ff854fc0bfa19cd225dbcef676d75abebf5c123c58ae5f9189",
                 id="cat2-64-16-8-wide"),
]


def _report_digest(spec, caps, seed, ccfg):
    n_max, m_max, radius = caps
    cfg = EstimatorConfig(n_max=n_max, m_max=m_max, search_radius=radius)
    system = catalog.load(spec) if isinstance(spec, str) else catalog.build_system(spec)
    report = dichotomy_report(system, cfg, ccfg, seed=seed)
    return hashlib.sha256(json.dumps(report.to_dict()).encode()).hexdigest()


@pytest.mark.parametrize("spec,caps,seed,digest", REPORT_GOLDEN)
def test_dichotomy_report_on_generic_groups_is_golden(spec, caps, seed, digest):
    assert _report_digest(spec, caps, seed, SMALL_CLASSIFIER) == digest


@pytest.mark.parametrize("spec,caps,seed,digest", WIDE_GOLDEN)
def test_dichotomy_report_with_a_wide_eps_list_is_golden(spec, caps, seed, digest):
    assert _report_digest(spec, caps, seed, WIDE_CLASSIFIER) == digest
