#!/usr/bin/env python3
"""meanrds benchmark: four CLI workloads, checked outputs, per-layer trace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``. One single-threaded process per workload drives the CLI in-process
through ``meanrds.cli.main(argv)``, one command at a time (a closed loop with
one caller). Every input (classify seeds, ``--pair`` values, validate seeds)
is generated from ``--seed``; the same seed gives the same commands.

A run repeats whole rounds of its workload's command list while the next
round should still end within ``--seconds`` (at least one round). Round r
takes its inputs from (seed, r). Every command's JSON
output is checked by the independent oracles in ``oracles.py``; a wrong exit
code or value counts in ``failed``.

With ``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json.
Command times are reported in units of the reference kernel in
``reference.py``, timed before each round and after each command, because
the machine's own speed drifts by up to 2x (see README.md).
With ``--trace 1`` it alternates an untraced and a traced copy of each round
and reports the per-layer metrics, per traced round, from the wrappers in
``layers.py``; spans go to ``perfbench/out/<workload>.trace.jsonl``.

The line before the result holds the run's details: environment, raw
seconds, sample counts, and the sha256 of every command's stdout (reported, never checked:
a kernel change may change the bytes on purpose).
"""

import os

# pinned before numpy is imported anywhere in this process or its children
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
if not (SRC / "meanrds" / "cli.py").is_file():
    sys.exit(f"perfbench: no meanrds sources under {SRC}; run from a source checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import meanrds  # noqa: E402
from meanrds import catalog, cli  # noqa: E402

import oracles  # noqa: E402
from layers import Tracer  # noqa: E402
from reference import reference_seconds  # noqa: E402

if not Path(meanrds.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"perfbench: meanrds imported from {meanrds.__file__}, not from {SRC}")

FIXTURES = HERE / "fixtures"
OUT_DIR = HERE / "out"

SETUP_SAMPLES = 9
GRID_RADIUS = 8
DENSITY_SETS = ("evens", "odds", "squares", "dyadic-blocks", "mod:3:0")  # the CLI's defaults
DENSITY_DEFAULT = (4096, 1024, 64, 0.5)     # n_max, m_max, radius, tail_fraction
DENSITY_WIDE = (10000, 10000, 64, 0.5)       # not powers of two: peel-and-carry path
ISOMETRIC = {"rot2", "rot1-trivial", "zxc2-rot"}
GRID_SYSTEMS = ("z2-cat", "zxc2-rot")


@dataclass
class Command:
    argv: list
    kind: str                    # classify | estimate | density | validate
    check: Callable              # (doc, exit code) -> None or failure reason
    units: int = 1               # tasks in the command: estimated pairs, else 1


# ---------------------------------------------------------------------------
# workloads

def _derived_seed(rng) -> int:
    return int(rng.integers(2**31))


def _point(rng, dim):
    return tuple(float(v) for v in rng.random(dim))


def _near(rng, x):
    step = 10.0 ** rng.uniform(-6.0, -1.0)
    direction = rng.standard_normal(len(x))
    direction /= float(np.sqrt(direction @ direction))
    return tuple(float(v) % 1.0 for v in np.asarray(x) + step * direction)


def _pair_arg(x, y) -> str:
    return ",".join(repr(v) for v in x) + "|" + ",".join(repr(v) for v in y)


def _estimate(system, name, pairs, extra=()):
    argv = ["estimate", "--system", name, *extra, "--json"]
    for x, y in pairs:
        argv += ["--pair", _pair_arg(x, y)]
    iso = name in ISOMETRIC
    return Command(argv, "estimate",
                   lambda doc, code: oracles.check_estimate(doc, code, pairs, iso, system.dim),
                   units=len(pairs))


def _classify_round(names, rng):
    cmds = []
    for name in names:
        expected = catalog.load(name).declared["expected"]
        argv = ["classify", "--system", name, "--seed", str(_derived_seed(rng)), "--json"]
        cmds.append(Command(argv, "classify",
                            lambda doc, code, e=expected: oracles.check_classify(doc, code, e)))
    return cmds


def _density(sets, params):
    n_max, m_max, radius, tail = params
    argv = ["density", *[a for s in sets for a in ("--set", s)],
            "--n-max", str(n_max), "--m-max", str(m_max), "--radius", str(radius),
            "--tail-fraction", repr(tail), "--json"]
    return Command(argv, "density",
                   lambda doc, code: oracles.check_density(doc, code, sets, params))


def classify_isometric(rng):
    return _classify_round(("rot2", "rot1-trivial"), rng)


def classify_hyperbolic(rng):
    return _classify_round(("cat-trivial", "cat2", "mixed"), rng)


def estimate_catalog(rng):
    cmds = []
    for name in catalog.names():
        system = catalog.load(name)
        x0, x1 = _point(rng, system.dim), _point(rng, system.dim)
        pairs = [(x0, _point(rng, system.dim)), (x1, _near(rng, x1))]
        cmds.append(_estimate(system, name, pairs))
    cmds.append(_density(DENSITY_SETS, DENSITY_DEFAULT))
    cmds.append(_density(("squares", "evens"), DENSITY_WIDE))
    for name in catalog.names():
        argv = ["validate", "--system", name, "--seed", str(_derived_seed(rng)), "--json"]
        cmds.append(Command(argv, "validate", oracles.check_validate))
    return cmds


def grid_z2(rng):
    cmds = []
    for name in GRID_SYSTEMS:
        system = _grid_system(name)
        pair = (_point(rng, system.dim), _point(rng, system.dim))
        extra = ["--config", str(FIXTURES / f"{name}.json"), "--radius", str(GRID_RADIUS)]
        cmds.append(_estimate(system, name, [pair], extra))
    return cmds


def _grid_system(name):
    with open(FIXTURES / f"{name}.json", encoding="utf-8") as fh:
        return catalog.build_system(json.load(fh)["system"])


# name -> (function making a round's commands, the command kind that makes up
#          task_ref, systems to set up)
WORKLOADS = {
    "classify-isometric": (classify_isometric, "classify", "catalog:rot2,rot1-trivial"),
    "classify-hyperbolic": (classify_hyperbolic, "classify", "catalog:cat-trivial,cat2,mixed"),
    "estimate-catalog": (estimate_catalog, "estimate", "catalog:*"),
    "grid-z2": (grid_z2, "estimate", "fixtures:" + ",".join(GRID_SYSTEMS)),
}


# ---------------------------------------------------------------------------
# running

SETUP_CODE = """
import json, sys
import numpy
import meanrds.cli
from meanrds import catalog
kind, names = sys.argv[1].split(":")
if kind == "catalog":
    for n in (catalog.names() if names == "*" else names.split(",")):
        catalog.load(n)
else:
    for n in names.split(","):
        with open(sys.argv[2] + "/" + n + ".json") as fh:
            catalog.build_system(json.load(fh)["system"])
print("ready", flush=True)
"""


def setup_sample(systems: str) -> float:
    """One fresh interpreter, timed from spawn until the first command is
    ready: numpy and meanrds imported, the workload's systems loaded."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", SETUP_CODE, systems, str(FIXTURES)],
                          stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True) as proc:
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.stdout.read()
        if proc.wait(timeout=60) != 0 or line.strip() != "ready":
            raise RuntimeError("set-up child failed")
    return t1 - t0


def run_command(cmd: Command):
    """Run one CLI command in-process; returns (seconds, stdout, failure)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(cmd.argv))
    except Exception as exc:  # the CLI let an exception escape: count it, go on
        return time.perf_counter() - t0, out.getvalue(), f"raised {exc!r}"
    dt = time.perf_counter() - t0
    try:
        doc = json.loads(out.getvalue())
    except ValueError:
        return dt, out.getvalue(), f"exit code {code}, stdout not JSON: {err.getvalue()[:200]}"
    return dt, out.getvalue(), cmd.check(doc, code)


class Run:
    def __init__(self, build, task_kind, seed):
        self.build = build
        self.task_kind = task_kind
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.task_s = []         # per round: task command time / task units
        self.ref_s = []          # per round: median reference-kernel time
        self.hashes = []

    def round(self, r: int, tracer=None) -> float:
        """Run round r, traced when a tracer is given; returns the summed
        wall time of its commands."""
        cmds = self.build(np.random.default_rng([self.seed, r]))
        refs = [reference_seconds()]
        results = []
        for cmd in cmds:
            if tracer is not None:
                tracer.install()
            try:
                results.append(run_command(cmd))
            finally:
                if tracer is not None:
                    tracer.uninstall()
            refs.append(reference_seconds())
        self.ref_s.append(statistics.median(refs))
        total = task = units = 0.0
        for cmd, (dt, stdout, failure) in zip(cmds, results):
            total += dt
            if cmd.kind == self.task_kind:
                task += dt
                units += cmd.units
            self.attempted += 1
            self.hashes.append([r, " ".join(cmd.argv[:3]),
                                hashlib.sha256(stdout.encode("utf-8")).hexdigest()])
            if failure:
                self.failed += 1
                print(f"FAILED round {r}: {' '.join(cmd.argv)}: {failure}", file=sys.stderr)
        self.task_s.append(task / units)
        return total


def environment() -> dict:
    head = ROOT / ".git" / "HEAD"
    commit = "not a git checkout"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": commit,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "meanrds": str(Path(meanrds.__file__).resolve().relative_to(ROOT)),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    build, task_kind, systems = WORKLOADS[args.workload]
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["catalog", "--json"])     # warm-up: argparse, json, catalog

    details = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "environment": environment()}
    if args.workload == "grid-z2":
        details["grid_radius"] = GRID_RADIUS
    run = Run(build, task_kind, args.seed)
    rounds = []
    start = time.perf_counter()

    def more(step_s):
        """Whole steps only: go on while the next one should still end in time."""
        return not rounds or time.perf_counter() - start + step_s <= args.seconds

    if args.trace:
        tracer = Tracer()
        overheads = []
        step = 0.0
        while more(step):
            t0 = time.perf_counter()
            plain = run.round(len(rounds))
            traced = run.round(len(rounds), tracer)
            rounds.append(traced)
            overheads.append(traced - plain)
            step = time.perf_counter() - t0
        values = tracer.layer_metrics(len(rounds))
        values["trace.overhead_s"] = statistics.median(overheads)
        details["unpatched"] = sorted(tracer.missing)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write_spans(OUT_DIR / f"{args.workload}.trace.jsonl")
    else:
        # set-up samples are spread between rounds, so that they see the
        # same machine as the rounds do
        setup = []
        step = 0.0
        while more(step):
            t0 = time.perf_counter()
            rounds.append(run.round(len(rounds)))
            if len(setup) < SETUP_SAMPLES:
                setup.append(setup_sample(systems))
            step = time.perf_counter() - t0
        while len(setup) < SETUP_SAMPLES:
            setup.append(setup_sample(systems))
        values = {
            "setup_s": statistics.median(setup),
            "wall_ref": statistics.median(w / ref for w, ref in zip(rounds, run.ref_s)),
            "task_ref": statistics.median(t / ref for t, ref in zip(run.task_s, run.ref_s)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        details["setup_samples_s"] = setup
        details["wall_s_median"] = statistics.median(rounds)
        details["task_s_median"] = statistics.median(run.task_s)
        details["task_s"] = run.task_s
    details["rounds"] = len(rounds)
    details["round_s"] = rounds
    details["reference_s"] = run.ref_s
    details["outputs_sha256"] = run.hashes
    print(json.dumps({"details": details}))

    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 2
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
