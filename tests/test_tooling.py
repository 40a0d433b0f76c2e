"""The benchmark's tracer against the current package.

``perfbench/layers.py`` looks up names of meanrds when it is imported and
when it installs its wrappers, so deleting or renaming one of them shows
here rather than as a failed benchmark run."""

import importlib.util
from pathlib import Path

from meanrds import cli, rds

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def test_tracer_installs_and_uninstalls():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    main, fiber_range = cli.main, rds.PairEngine.fiber_range
    tracer = layers.Tracer()
    tracer.install()
    try:
        assert cli.main is not main and rds.PairEngine.fiber_range is not fiber_range
        # classify.pair_evals counts the probes' calls of this name
        assert "meanrds.classify.pair_source" not in tracer.missing
        # the probes' scans are timed through the estimators they call
        for name in ("banach_mean", "banach_upper_density", "sup_fiber_weyl", "fiber_weyl"):
            assert f"meanrds.classify.{name}" not in tracer.missing
    finally:
        tracer.uninstall()
    assert cli.main is main and rds.PairEngine.fiber_range is fiber_range
