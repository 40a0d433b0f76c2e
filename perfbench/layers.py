"""Per-layer tracing for the benchmark, done from outside the package.

The tracer swaps public functions of meanrds for timing wrappers at every
place they are looked up (module attributes, names imported into other
modules, and methods on classes), and puts the originals back on
``uninstall``. Spans are kept in memory as tuples and written out once at
the end of a run.

Two kinds of wrapper exist:

* span wrappers record (id, parent id, name, start, end) per call, and
  charge their duration to the enclosing span, so that each span's self time
  is its duration minus the time of the spans it directly caused;
* counter wrappers (for ``PairEngine.*_at``, called about 2e5 times per
  ``banach_mean`` on non-Z groups) record no span; they only add a count and
  a duration, which is still charged to the enclosing span.

Only the outermost call of a nested family counts (``dtilde_at`` calls
``fiber_at``; ``translated_means_line`` calls ``tree_mean_rows``), so
``calls`` and work counts are not doubled.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict

from meanrds import _windows, catalog, classify, cli, density, groups, pseudometrics, rds

# (span name, attribute, places where the attribute is looked up)
SPAN_POINTS = [
    ("cli", "main", [cli]),
    ("catalog", "load", [catalog]),
    ("catalog", "build_system", [catalog]),
    ("rds.validate", "validate", [rds, cli]),
    ("classify.report", "dichotomy_report", [classify, cli]),
    ("classify.wme", "wme_test", [classify]),
    ("classify.meanl", "mean_l_stable_test", [classify]),
    ("classify.sensitivity", "sensitivity_test", [classify]),
    ("pseudometrics.pair_summary", "pair_summary", [pseudometrics, cli]),
    ("pseudometrics.pair_source", "pair_source", [pseudometrics, classify]),
    ("pseudometrics.banach_mean", "banach_mean", [pseudometrics, classify, cli]),
    ("pseudometrics.besicovitch_mean", "besicovitch_mean", [pseudometrics, cli]),
    ("pseudometrics.fiber_weyl", "fiber_weyl", [pseudometrics, classify]),
    ("pseudometrics.sup_fiber_weyl", "sup_fiber_weyl", [pseudometrics, classify]),
    ("density.density_summary", "density_summary", [density, cli]),
    ("density.banach_upper_density", "banach_upper_density", [density, classify]),
    ("rds.range", "fiber_range", [rds.PairEngine]),
    ("rds.range", "dtilde_range", [rds.PairEngine]),
    ("rds.range", "integral_range", [rds.PairEngine]),
    ("windows", "translated_means_line", [_windows]),
    ("windows", "mean_line", [_windows]),
    ("windows", "tree_mean_rows", [_windows]),
    ("groups.search_ball", "search_ball", [groups, pseudometrics]),
    ("groups.window", "window", [groups.FolnerFamily]),
]

COUNTER_POINTS = [
    ("rds.point", "fiber_at", [rds.PairEngine]),
    ("rds.point", "dtilde_at", [rds.PairEngine]),
    ("rds.point", "integral_at", [rds.PairEngine]),
]

# names whose nested calls are folded into the outermost one
_FOLDED = {"windows", "rds.point", "rds.range"}
_PAIR_PROBES = ("classify.wme", "classify.meanl")


def _window_cells(attr, args):
    if attr == "translated_means_line":
        return len(list(args[2])) * int(args[3])
    if attr == "mean_line":
        return int(args[3])
    return int(getattr(args[0], "size", 0))


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.stack: list[list] = []      # open spans: [id, name, child seconds]
        self.open: Counter = Counter()   # open span names, for nested counts
        self.calls: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.work: Counter = Counter()
        self.missing: set[str] = set()
        self._saved: list[tuple] = []
        self._next_id = 0

    # -- bookkeeping -------------------------------------------------------

    def _count_work(self, name, attr, args, result):
        if name == "rds.range":
            self.work["rds.range.values"] += len(result)
        elif name == "windows":
            self.work["windows.cells"] += _window_cells(attr, args)
        elif name == "groups.window":
            self.work["groups.window.elements"] += result.size
        elif name == "pseudometrics.pair_source" and any(self.open[p] for p in _PAIR_PROBES):
            self.work["classify.pair_evals"] += 1
        if name in ("pseudometrics.banach_mean", "pseudometrics.fiber_weyl") and \
                self.open["pseudometrics.pair_summary"]:
            self.work["pseudometrics.pair_summary.scans"] += 1

    def _span_wrapper(self, name, attr, fn):
        tracer = self
        folded = name in _FOLDED

        def wrapper(*args, **kwargs):
            if folded and tracer.open[name]:
                return fn(*args, **kwargs)
            tracer._next_id += 1
            frame = [tracer._next_id, name, 0.0]
            parent = tracer.stack[-1] if tracer.stack else None
            tracer.stack.append(frame)
            tracer.open[name] += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer.open[name] -= 1
                tracer.stack.pop()
                dur = t1 - t0
                tracer.spans.append((frame[0], parent[0] if parent else 0, name, t0, t1))
                tracer.calls[name] += 1
                tracer.total_s[name] += dur
                tracer.self_s[name] += dur - frame[2]
                if parent is not None:
                    parent[2] += dur
            tracer._count_work(name, attr, args, result)
            return result

        return wrapper

    def _counter_wrapper(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.open[name]:
                return fn(*args, **kwargs)
            tracer.open[name] += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                tracer.open[name] -= 1
                tracer.calls[name] += 1
                tracer.total_s[name] += dur
                if tracer.stack:
                    tracer.stack[-1][2] += dur

        return wrapper

    def _sample_wrapper(self, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if any(tracer.open[p] for p in _PAIR_PROBES):
                tracer.work["classify.pairs_sampled"] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ----------------------------------------------------------

    def _patch(self, attr, places, make):
        wrappers = {}
        for place in places:
            fn = place.__dict__.get(attr)
            if fn is None:
                self.missing.add(f"{getattr(place, '__name__', place)}.{attr}")
                continue
            if id(fn) not in wrappers:
                wrappers[id(fn)] = make(fn)
            self._saved.append((place, attr, fn))
            setattr(place, attr, wrappers[id(fn)])

    def install(self):
        for name, attr, places in SPAN_POINTS:
            self._patch(attr, places, lambda fn, n=name, a=attr: self._span_wrapper(n, a, fn))
        for name, attr, places in COUNTER_POINTS:
            self._patch(attr, places, lambda fn, n=name: self._counter_wrapper(n, fn))
        self._patch("sample_near", [rds.FiberSpace], self._sample_wrapper)

    def uninstall(self):
        for place, attr, fn in reversed(self._saved):
            setattr(place, attr, fn)
        self._saved.clear()

    # -- results -----------------------------------------------------------

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer totals divided by the number of traced rounds."""
        c, tot, slf, w = self.calls, self.total_s, self.self_s, self.work
        classify_names = ("classify.report", "classify.wme", "classify.meanl",
                          "classify.sensitivity")
        density_names = ("density.density_summary", "density.banach_upper_density")
        raw = {
            "cli.calls": c["cli"],
            "cli.self_s": slf["cli"],
            "catalog.calls": c["catalog"],
            "catalog.self_s": slf["catalog"],
            "classify.calls": c["classify.report"],
            "classify.self_s": sum(slf[n] for n in classify_names),
            "classify.wme_s": tot["classify.wme"],
            "classify.meanl_s": tot["classify.meanl"],
            "classify.sensitivity_s": tot["classify.sensitivity"],
            "classify.pairs_sampled": w["classify.pairs_sampled"],
            "classify.pair_evals": w["classify.pair_evals"],
            "pseudometrics.pair_summary.calls": c["pseudometrics.pair_summary"],
            "pseudometrics.pair_source.calls": c["pseudometrics.pair_source"],
            "pseudometrics.banach_mean.calls": c["pseudometrics.banach_mean"],
            "pseudometrics.banach_mean.self_s": slf["pseudometrics.banach_mean"],
            "pseudometrics.besicovitch_mean.calls": c["pseudometrics.besicovitch_mean"],
            "pseudometrics.besicovitch_mean.self_s": slf["pseudometrics.besicovitch_mean"],
            "pseudometrics.fiber_weyl.calls": c["pseudometrics.fiber_weyl"],
            "density.density_summary.calls": c["density.density_summary"],
            "density.banach_upper_density.calls": c["density.banach_upper_density"],
            "density.banach_upper_density.self_s": slf["density.banach_upper_density"],
            "density.self_s": sum(slf[n] for n in density_names),
            "rds.range.calls": c["rds.range"],
            "rds.range.values": w["rds.range.values"],
            "rds.range_s": tot["rds.range"],
            "rds.point.calls": c["rds.point"],
            "rds.point_s": tot["rds.point"],
            "rds.validate.calls": c["rds.validate"],
            "windows.calls": c["windows"],
            "windows.cells": w["windows.cells"],
            "windows.bytes_computed": 8 * w["windows.cells"],
            "windows.self_s": slf["windows"],
            "groups.search_ball.calls": c["groups.search_ball"],
            "groups.search_ball_s": tot["groups.search_ball"],
            "groups.window.calls": c["groups.window"],
            "groups.window.elements": w["groups.window.elements"],
            "groups.window_s": tot["groups.window"],
        }
        out = {k: v / rounds for k, v in raw.items()}
        evals, sampled = w["classify.pair_evals"], w["classify.pairs_sampled"]
        out["classify.eval_ratio"] = evals / sampled if sampled else 0.0
        summaries = c["pseudometrics.pair_summary"]
        out["pseudometrics.scans_per_pair"] = (
            w["pseudometrics.pair_summary.scans"] / summaries if summaries else 0.0
        )
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": t0, "end": t1}) + "\n")
