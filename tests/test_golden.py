"""Golden outputs: sha256 of the exact bytes of estimate and density runs.

Refactors of the window scans must leave every byte of these outputs
unchanged. ``classify`` is left out on purpose: ``FiberSpace.sample_near``
still draws through libm ``**`` and ``np.dot``, whose last bits may vary
between platforms.
"""

import hashlib
import json

import pytest

from meanrds import catalog
from meanrds.cli import main
from meanrds.pseudometrics import EstimatorConfig, pair_summary

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
]


@pytest.mark.parametrize("argv,digest", CLI_GOLDEN, ids=[" ".join(a) for a, _ in CLI_GOLDEN])
def test_cli_stdout_is_golden(argv, digest, capsys):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# Z^2 with the commuting hyperbolic pair A, A^2 (A the cat matrix), and
# Z x C2 with dyadic rotations that swap the two fibers: both run the
# per-element window path of the estimators.
Z2_CAT = {
    "name": "z2-cat",
    "group": "Z^2",
    "dim": 2,
    "base": {"labels": ["w0"], "weights": [1.0], "perms": [[0], [0]]},
    "maps": [
        [{"matrix": [[2, 1], [1, 1]], "shift": [0.0, 0.0]}],
        [{"matrix": [[5, 3], [3, 2]], "shift": [0.0, 0.0]}],
    ],
}
ZXC2_ROT = {
    "name": "zxc2-rot",
    "group": "Z x C2",
    "dim": 1,
    "base": {"labels": ["w0", "w1"], "weights": [0.5, 0.5], "perms": [[1, 0], [1, 0]]},
    "maps": [
        [{"matrix": [[1]], "shift": [0.125]}, {"matrix": [[1]], "shift": [0.625]}],
        [{"matrix": [[1]], "shift": [0.25]}, {"matrix": [[1]], "shift": [0.75]}],
    ],
}

PAIR_GOLDEN = [
    (Z2_CAT, (0.1, 0.2), (0.1004, 0.2002),
     "84719a5795c6da99ee9e3ee0d4f8ef78b4a43b0ef9fd69d88ffeef4fadaac227"),
    (ZXC2_ROT, (0.1,), (0.35,),
     "946da4dae353b763d3053bd49257b69361fe047090b2b17915fdad3730aafff0"),
]


@pytest.mark.parametrize("spec,x,y,digest", PAIR_GOLDEN, ids=[s["name"] for s, *_ in PAIR_GOLDEN])
def test_pair_summary_on_generic_groups_is_golden(spec, x, y, digest):
    system = catalog.build_system(spec)
    cfg = EstimatorConfig(n_max=64, m_max=16, search_radius=2)
    summary = pair_summary(system, x, y, cfg)
    # a list of pairs, so the key order is pinned too
    blob = json.dumps([(key, est.to_dict()) for key, est in summary.items()])
    assert hashlib.sha256(blob.encode()).hexdigest() == digest
