"""Command line front end.

Subcommands: ``catalog`` (list fixtures), ``validate`` (axiom checks),
``estimate`` (mean separations of pairs, or of synthetic profiles),
``density`` (subset densities), ``classify`` (the dichotomy report).

Configuration merges three layers: built-in defaults, an optional JSON
config file (``--config``), and individual flags. Every output embeds the
sha256 hash of the effective configuration, the seed, and the truncation
parameters, and contains no timestamps, so identical invocations produce
identical bytes.

Exit codes: 0 success, 1 usage or configuration error, 2 validation
failure (``validate``, or ``estimate`` and ``classify`` refusing a
config-file system that fails it), 3 inconclusive classification.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import hashlib
import json
import math
import os
import sys
from numbers import Integral

import numpy as np

from . import catalog
from .classify import ClassifierConfig, dichotomy_report
from .density import density_summary, subset_indicator
from .groups import BudgetError, GroupSpecError
from .pseudometrics import (
    EstimatorConfig,
    _as_weyl,
    banach_mean,
    besicovitch_mean,
    pair_summary,
    synthetic_source,
    translated_besicovitch_scan,
)
from .rds import DTILDE_CONVENTION, DomainError, SystemSpecError, _is_number, validate

# the layout version of each command's document, bumped on a breaking change
SCHEMA_VERSIONS = {"catalog": "1", "validate": "2", "estimate": "1", "density": "1",
                   "classify": "1"}

_DEFAULT_DENSITY_SETS = ("evens", "odds", "squares", "dyadic-blocks", "mod:3:0")

# the field dicts of the default configs, which every command starts from
_ESTIMATOR_DEFAULTS = dataclasses.asdict(EstimatorConfig())
_CLASSIFIER_DEFAULTS = dataclasses.asdict(ClassifierConfig())


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_common(p: argparse.ArgumentParser, suppress: bool):
    """Shared flags, accepted both before and after the subcommand.

    The subcommand copies default to SUPPRESS so they never clobber values
    already parsed at the top level."""
    d = argparse.SUPPRESS if suppress else None
    p.add_argument("--config", default=d, help="JSON config file merged under the flags")
    p.add_argument("--seed", type=int, default=d)
    p.add_argument("--out", default=d, help="directory for JSON/CSV outputs")
    p.add_argument("--json", action="store_true",
                   default=argparse.SUPPRESS if suppress else False,
                   help="machine-readable stdout")
    p.add_argument("--n-max", type=int, default=d, dest="n_max")
    p.add_argument("--m-max", type=int, default=d, dest="m_max")
    p.add_argument("--radius", type=int, default=d)
    p.add_argument("--tail-fraction", type=float, default=d, dest="tail_fraction")
    p.add_argument("--tolerance", type=float, default=d)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="meanrds", description="mean separation toolkit for random dynamical systems")
    _add_common(p, suppress=False)

    sub = p.add_subparsers(dest="command", required=True)

    def command(name, help_text):
        sp = sub.add_parser(name, help=help_text)
        _add_common(sp, suppress=True)
        return sp

    command("catalog", "list the bundled example systems")

    v = command("validate", "check the cocycle axioms of a system")
    v.add_argument("--system", required=True)

    e = command("estimate", "mean separations of pairs or profiles")
    e.add_argument("--system", required=True,
                   help="catalog name, or synthetic:<profile> for a profile on Z")
    e.add_argument("--pair", action="append", default=None,
                   help="pair as 'x|y' with comma-separated coordinates; repeatable")
    e.add_argument("--pairs", type=int, default=3,
                   help="number of seeded random pairs when --pair is absent")

    d = command("density", "densities of subsets of Z")
    d.add_argument("--set", action="append", default=None, dest="sets",
                   help="subset spec (all, empty, evens, odds, squares, "
                        "dyadic-blocks, mod:<k>:<r,...>); repeatable")

    c = command("classify", "dichotomy report for a system")
    c.add_argument("--system", required=True)
    return p


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built on first use. Parsing leaves no
    state in a parser (each parse fills a fresh namespace, and an appended
    list starts from a copy), so one parser serves every call."""
    return build_parser()


# ---------------------------------------------------------------------------
# configuration assembly

def _load_config_file(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    return data


def _effective_settings(args) -> dict:
    """The configs, seed and system spec of a command. ``estimator_fields``
    and ``classifier_fields`` are the configs' field dicts, equal to their
    ``dataclasses.asdict``, built once for the hash and the outputs."""
    est = dict(_ESTIMATOR_DEFAULTS)
    cls = dict(_CLASSIFIER_DEFAULTS)
    file_cfg = _load_config_file(args.config) if args.config else {}
    for section, fields in (("estimator", est), ("classifier", cls)):
        given = file_cfg.get(section, {})
        if not isinstance(given, dict):
            raise ValueError(f"config {section!r} must be a JSON object")
        unknown = sorted(set(given) - set(fields))
        if unknown:
            raise ValueError(f"unknown {section} key(s) in config: {', '.join(unknown)}")
        fields.update(given)
    seed = file_cfg.get("seed", 0)
    if not _is_number(seed, Integral):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    flag_map = {
        "n_max": "n_max",
        "m_max": "m_max",
        "radius": "search_radius",
        "tail_fraction": "tail_fraction",
        "tolerance": "tolerance",
    }
    for flag, field in flag_map.items():
        val = getattr(args, flag)
        if val is not None:
            est[field] = val
    if args.seed is not None:
        seed = args.seed
    for key in ("eps_list", "delta_grid", "eps_sequence"):
        if isinstance(cls[key], list):
            cls[key] = tuple(cls[key])
    system_spec = file_cfg.get("system")
    if system_spec is not None and not isinstance(system_spec, dict):
        raise ValueError("config 'system' must be a JSON object")
    return {
        "estimator": EstimatorConfig(**est),
        "classifier": ClassifierConfig(**cls),
        "estimator_fields": est,
        "classifier_fields": cls,
        "seed": seed,
        "system_spec": system_spec,
    }


def _config_hash(command: str, settings: dict, extra: dict) -> str:
    payload = {
        "command": command,
        "estimator": settings["estimator_fields"],
        "classifier": settings["classifier_fields"],
        "seed": settings["seed"],
        **extra,
    }
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


class _InvalidSystem(ValueError):
    """A config-file system that fails :func:`validate`; exit code 2."""


def _resolve_system(name: str, settings: dict, checked: bool = True):
    """The named system. A config-file system is built from its spec and,
    when ``checked``, refused if it fails :func:`validate`: off the cocycle
    axioms its profiles describe no system. Catalog systems are known
    valid and are not checked."""
    spec = settings.get("system_spec")
    if spec is None or name not in ("config", spec.get("name", "custom")):
        return catalog.load(name)
    system = catalog.build_system(spec)
    failed = [c for c in validate(system).checks if not c.passed] if checked else []
    if failed:
        why = failed[0].detail or f"residual {failed[0].residual:.3e}"
        raise _InvalidSystem(f"system {system.name!r} fails validation: {failed[0].name} ({why})")
    return system


def _envelope(command: str, settings: dict, extra_hash: dict, payload: dict) -> dict:
    out = {
        "schema_version": SCHEMA_VERSIONS[command],
        "command": command,
        "config_hash": _config_hash(command, settings, extra_hash),
        "seed": settings["seed"],
        "estimator": settings["estimator_fields"],
        "conventions": [DTILDE_CONVENTION],
    }
    out.update(payload)
    return out


def _emit(args, envelope: dict, text, csv_rows=None, csv_name=None, csv_header=None):
    """Print the JSON document or the text, and with ``--out`` write the
    document and the CSV rows. The document is rendered once; ``text`` and
    ``csv_rows`` are zero-argument callables, called only when their
    output is printed or written."""
    doc = json.dumps(envelope, sort_keys=True, indent=2) if args.json or args.out else None
    print(doc if args.json else text())
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        base = f"{envelope['command']}"
        with open(os.path.join(args.out, base + ".json"), "w", encoding="utf-8", newline="\n") as fh:
            fh.write(doc + "\n")
        if csv_rows is not None:
            with open(os.path.join(args.out, csv_name), "w", encoding="utf-8", newline="") as fh:
                w = csv.writer(fh, lineterminator="\n")
                w.writerow(csv_header)
                w.writerows(csv_rows())


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _point_str(pt) -> str:
    return ";".join(f"{c:.12g}" for c in pt)


# ---------------------------------------------------------------------------
# commands

def _cmd_catalog(args, settings) -> int:
    rows = catalog.summary()
    env = _envelope("catalog", settings, {}, {"systems": rows})
    _emit(args, env, lambda: "\n".join(["bundled systems:"] + [
        f"  {r['name']}: group {r['group']}, dim {r['dim']}, "
        f"base size {r['base_size']}, expected {r['expected']}" for r in rows]))
    return 0


def _cmd_validate(args, settings) -> int:
    report = validate(_resolve_system(args.system, settings, checked=False))
    env = _envelope("validate", settings, {"system": args.system}, {"report": report.to_dict()})
    _emit(args, env, report.to_text)
    return 0 if report.ok else 2


def _parse_pair(text: str):
    try:
        xs, ys = text.split("|")
        x = tuple(float(v) for v in xs.split(","))
        y = tuple(float(v) for v in ys.split(","))
    except ValueError:
        raise ValueError(f"malformed pair {text!r}; expected 'x1,x2|y1,y2'") from None
    if len(x) != len(y):
        raise ValueError(f"pair {text!r} mixes dimensions")
    if not all(map(math.isfinite, x + y)):
        raise ValueError(f"pair {text!r} has a coordinate that is not finite")
    return x, y


_ESTIMATE_HEADER = (
    "system", "pair", "x", "y", "kind", "value", "window_index", "translate",
    "tail_start", "truncation_note", "source",
)


def _estimate_cells(est) -> tuple:
    """The CSV cells of an estimate from its value to its truncation note."""
    return (_fmt(est.value), _fmt(est.window_index),
            _point_str(est.translate) if est.translate else "", _fmt(est.tail_start),
            est.truncation_note)


def _cmd_estimate(args, settings) -> int:
    cfg = settings["estimator"]
    if args.system.startswith("synthetic:"):
        src = synthetic_source(args.system.split(":", 1)[1])
        banach = banach_mean(src, cfg)
        # weyl is the banach scan relabelled, as in pair_summary
        ests = [
            besicovitch_mean(src, cfg),
            banach,
            _as_weyl(banach, "weyl"),
            translated_besicovitch_scan(src, cfg),
        ]
        env = _envelope(
            "estimate", settings, {"system": args.system},
            {"system": args.system, "estimates": [e.to_dict() for e in ests]},
        )
        _emit(args, env,
              lambda: "\n".join([f"estimates for {args.system}:"] + [
                  f"  {e.kind} = {_fmt(e.value)} (window {e.window_index})" for e in ests]),
              lambda: [(args.system, "", "", "", e.kind, *_estimate_cells(e), e.source_label)
                       for e in ests],
              "estimate.csv", _ESTIMATE_HEADER)
        return 0

    system = _resolve_system(args.system, settings)
    if args.pair:
        pairs = [_parse_pair(t) for t in args.pair]
    else:
        if args.pairs < 1:
            raise ValueError(f"--pairs must be at least 1, got {args.pairs}")
        rng = np.random.default_rng(settings["seed"])
        pairs = []
        support = system.base.support
        for _ in range(args.pairs):
            idx = support[int(rng.integers(len(support)))]
            fs = system.fibers[idx]
            pairs.append((fs.sample(rng), fs.sample(rng)))
    summaries = [pair_summary(system, x, y, cfg) for x, y in pairs]

    def text():
        lines = [f"estimates for {args.system}:"]
        for k, ((x, y), summary) in enumerate(zip(pairs, summaries)):
            lines.append(f"  pair {k}: x=({_point_str(x)}) y=({_point_str(y)})")
            lines += [f"    {key} = {_fmt(est.value)}" for key, est in summary.items()]
        return "\n".join(lines)

    def rows():
        return [(args.system, k, _point_str(x), _point_str(y), key, *_estimate_cells(est),
                 est.source_label)
                for k, ((x, y), summary) in enumerate(zip(pairs, summaries))
                for key, est in summary.items()]

    env = _envelope(
        "estimate", settings,
        {"system": args.system, "pairs": [[list(x), list(y)] for x, y in pairs]},
        {"system": args.system, "pairs": [
            {"x": list(x), "y": list(y),
             "estimates": {key: est.to_dict() for key, est in summary.items()}}
            for (x, y), summary in zip(pairs, summaries)]},
    )
    _emit(args, env, text, rows, "estimate.csv", _ESTIMATE_HEADER)
    return 0


_DENSITY_KINDS = ("banach-lower-density", "lower-density", "upper-density",
                  "banach-upper-density")

_DENSITY_HEADER = (
    "set", "kind", "value", "window_index", "translate", "tail_start",
    "truncation_note",
)


def _cmd_density(args, settings) -> int:
    cfg = settings["estimator"]
    sets = args.sets or list(_DEFAULT_DENSITY_SETS)
    summaries = [density_summary(subset_indicator(spec), cfg) for spec in sets]

    def text():
        lines = ["densities:"]
        for spec, summary in zip(sets, summaries):
            lines.append(f"  {spec}:")
            lines += [f"    {key} = {_fmt(summary[key].value)}" for key in _DENSITY_KINDS]
        return "\n".join(lines)

    env = _envelope("density", settings, {"sets": list(sets)}, {"sets": [
        {"set": spec, "densities": {key: summary[key].to_dict() for key in _DENSITY_KINDS}}
        for spec, summary in zip(sets, summaries)]})
    _emit(args, env, text,
          lambda: [(spec, key, *_estimate_cells(summary[key]))
                   for spec, summary in zip(sets, summaries) for key in _DENSITY_KINDS],
          "density.csv", _DENSITY_HEADER)
    return 0


_CLASSIFY_HEADER = (
    "criterion", "eps", "delta", "pairs_tested", "worst", "passed",
)


def _cmd_classify(args, settings) -> int:
    system = _resolve_system(args.system, settings)
    report = dichotomy_report(
        system,
        cfg=settings["estimator"],
        ccfg=settings["classifier"],
        seed=settings["seed"],
    )
    env = _envelope(
        "classify", settings, {"system": args.system},
        {"classifier": settings["classifier_fields"],
         "report": report.to_dict()},
    )
    _emit(args, env, report.to_text, lambda: [
        ("separation", r.eps, _fmt(r.delta), r.pairs_tested, _fmt(r.worst_value), r.passed)
        for r in report.wme.rows
    ] + [
        ("density", r.eps, _fmt(r.delta), r.pairs_tested, _fmt(r.worst_density), r.passed)
        for r in report.stability.rows
    ], "classify.csv", _CLASSIFY_HEADER)
    return 3 if report.verdict == "inconclusive" else 0


def main(argv=None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code else 0
    try:
        settings = _effective_settings(args)
        handler = {
            "catalog": _cmd_catalog,
            "validate": _cmd_validate,
            "estimate": _cmd_estimate,
            "density": _cmd_density,
            "classify": _cmd_classify,
        }[args.command]
        return handler(args, settings)
    except (KeyError, ValueError, GroupSpecError, SystemSpecError, DomainError,
            BudgetError, OSError) as exc:
        msg = exc.args[0] if exc.args else exc
        print(f"meanrds: error: {msg}", file=sys.stderr)
        return 2 if isinstance(exc, _InvalidSystem) else 1


if __name__ == "__main__":
    sys.exit(main())
