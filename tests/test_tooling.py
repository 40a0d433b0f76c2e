"""The benchmark's tracer against the current package.

``perfbench/layers.py`` looks up names of meanrds when it is imported and
when it installs its wrappers, so deleting or renaming one of them shows
here rather than as a failed benchmark run."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from meanrds import catalog, classify, cli, rds
from meanrds.pseudometrics import EstimatorConfig

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers.Tracer()


def test_tracer_installs_and_uninstalls():
    main, fiber_range = cli.main, rds.PairEngine.fiber_range
    tracer = _tracer()
    tracer.install()
    try:
        assert cli.main is not main and rds.PairEngine.fiber_range is not fiber_range
        # classify.pair_evals counts the probes' calls of this name
        assert "meanrds.classify.pair_source" not in tracer.missing
        # the probes' scans are timed through the estimators they call
        for name in ("banach_mean", "banach_upper_density", "sup_fiber_weyl", "fiber_weyl"):
            assert f"meanrds.classify.{name}" not in tracer.missing
        # rds.range times the engine's box reads, the walks included
        for name in ("fiber_range", "dtilde_range", "integral_range"):
            assert f"PairEngine.{name}" not in tracer.missing
    finally:
        tracer.uninstall()
    assert cli.main is main and rds.PairEngine.fiber_range is fiber_range


@pytest.mark.parametrize("name", ["rot2", "cat-trivial"])
def test_report_calls_each_probe_through_the_classify_module(name):
    """The tracer's classify.wme, classify.meanl and classify.sensitivity
    spans wrap the names wme_test, mean_l_stable_test and sensitivity_test
    of the classify module, so a report, with its pairs drawn ahead or not,
    calls each of them once, by those names."""
    tracer = _tracer()
    tracer.install()
    try:
        classify.dichotomy_report(catalog.load(name),
                                  EstimatorConfig(n_max=256, m_max=64, search_radius=16), seed=3)
    finally:
        tracer.uninstall()
    assert {span: tracer.calls[span] for span in (
        "classify.report", "classify.wme", "classify.meanl", "classify.sensitivity")} == {
        "classify.report": 1, "classify.wme": 1, "classify.meanl": 1, "classify.sensitivity": 1}


def test_stacked_reads_go_through_the_traced_engine_reads(monkeypatch):
    """A cat-trivial report takes the window means of its pairs drawn ahead
    in stacks, and still reads each profile it scans through
    ``PairEngine.dtilde_range`` and ``fiber_range``, which the tracer's
    rds.range wraps: as many calls, and values, as the public probes called
    in sequence, which draw and read pair by pair."""
    system = catalog.load("cat-trivial")
    cfg = EstimatorConfig(n_max=256, m_max=64, search_radius=16)
    stacks, keep = [], classify._keep_means

    def counting(sources, plan, budget):
        stacks.append(len(sources))
        return keep(sources, plan, budget)

    monkeypatch.setattr(classify, "_keep_means", counting)

    def report():
        classify.dichotomy_report(system, cfg, seed=3)

    def probes():
        rng = np.random.default_rng(3)
        for probe in (classify.wme_test, classify.mean_l_stable_test, classify.sensitivity_test):
            probe(system, cfg, classify.ClassifierConfig(), rng)

    counts = []
    for run in (report, probes):
        tracer = _tracer()
        tracer.install()
        try:
            run()
        finally:
            tracer.uninstall()
        counts.append((tracer.calls["rds.range"], tracer.work["rds.range.values"]))
    assert len(stacks) == 3 and all(stacks)
    assert counts[0] == counts[1] and counts[0][0] > 0
