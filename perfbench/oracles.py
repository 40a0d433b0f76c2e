"""Independent checks of the CLI's JSON outputs.

Each check returns None when the output is right and a short reason when it
is not. The oracles recompute what they compare against from the inputs the
benchmark generated, with code that shares nothing with meanrds.
"""

from __future__ import annotations

import math

import numpy as np

HYPERBOLIC_SLACK = 1e-9


def fold_distance_1d(x: float, y: float) -> float:
    """Flat circle distance: fold (x - y) mod 1 onto [0, 1/2]."""
    d = (x % 1.0 - y % 1.0) % 1.0
    return min(d, 1.0 - d)


def check_classify(doc, code, expected):
    report = doc.get("report", {})
    if code != 0:
        return f"exit code {code}"
    if report.get("verdict") != expected:
        return f"verdict {report.get('verdict')!r}, expected {expected!r}"
    failed = [k for k, ok in report.get("crosschecks", {}).items() if not ok]
    if failed or not report.get("crosschecks"):
        return f"crosschecks failed: {failed}"
    return None


def check_estimate(doc, code, pairs, isometric: bool, dim: int):
    if code != 0:
        return f"exit code {code}"
    entries = doc.get("pairs", [])
    if len(entries) != len(pairs):
        return f"{len(entries)} pair entries for {len(pairs)} pairs"
    diameter = math.sqrt(dim) / 2.0
    for (x, y), entry in zip(pairs, entries):
        if entry["x"] != list(x) or entry["y"] != list(y):
            return f"pair echoed as {entry['x']}|{entry['y']}"
        ests = {k: e["value"] for k, e in entry["estimates"].items()}
        for kind, v in ests.items():
            if not (0.0 <= v <= diameter):
                return f"{kind} = {v!r} outside [0, {diameter}]"
        if isometric:
            want = fold_distance_1d(x[0], y[0])
            wrong = {k: v for k, v in ests.items() if v != want}
            if wrong:
                return f"isometric pair {x}|{y}: {wrong} != {want!r}"
        else:
            bound = ests["banach"] + HYPERBOLIC_SLACK
            over = {k: v for k, v in ests.items()
                    if (k.startswith("fiber-weyl[") or k == "sup-fiber-weyl") and v > bound}
            if over:
                return f"pair {x}|{y}: {over} above banach {ests['banach']!r}"
    return None


def check_validate(doc, code):
    if code != 0 or not doc.get("report", {}).get("ok"):
        return f"exit code {code}, report ok={doc.get('report', {}).get('ok')}"
    return None


# ---------------------------------------------------------------------------
# densities by cumulative sums

def _indicator(spec: str, t: np.ndarray) -> np.ndarray:
    if spec == "evens":
        return t % 2 == 0
    if spec == "odds":
        return t % 2 == 1
    if spec == "squares":
        return np.array([v >= 0 and math.isqrt(v) ** 2 == v for v in t.tolist()])
    if spec == "dyadic-blocks":  # [4^k, 2 * 4^k)
        return np.array([v >= 1 and (v.bit_length() - 1) % 2 == 0 for v in t.tolist()])
    if spec.startswith("mod:"):
        _, period, residues = spec.split(":")
        rs = {int(r) % int(period) for r in residues.split(",")}
        return np.isin(t % int(period), list(rs))
    raise ValueError(f"no oracle for set {spec!r}")


def _schedule(cap: int) -> list[int]:
    sched = [1 << k for k in range(cap.bit_length()) if 1 << k <= cap]
    if sched[-1] != cap:
        sched.append(cap)
    return sched


def density_oracle(spec, n_max, m_max, radius, tail_fraction) -> dict[str, float]:
    lo = -radius
    t = np.arange(lo, radius + max(n_max, m_max) + 1, dtype=np.int64)
    csum = np.concatenate(([0], np.cumsum(_indicator(spec, t), dtype=np.int64)))

    def ratio(start, m):
        return int(csum[start - lo + m] - csum[start - lo]) / m

    n_sched = _schedule(n_max)
    tail = n_sched[len(n_sched) - max(1, math.ceil(tail_fraction * len(n_sched))):]
    plain = [ratio(0, n) for n in tail]
    translated = [[ratio(g, m) for g in range(-radius, radius + 1)] for m in _schedule(m_max)]
    return {
        "banach-lower-density": max(min(row) for row in translated),
        "lower-density": min(plain),
        "upper-density": max(plain),
        "banach-upper-density": min(max(row) for row in translated),
    }


def check_density(doc, code, sets, params):
    """``params`` is (n_max, m_max, radius, tail_fraction) as passed."""
    if code != 0:
        return f"exit code {code}"
    got_sets = [entry["set"] for entry in doc.get("sets", [])]
    if got_sets != list(sets):
        return f"sets {got_sets} reported for {list(sets)}"
    for entry in doc.get("sets", []):
        got = {k: e["value"] for k, e in entry["densities"].items()}
        want = density_oracle(entry["set"], *params)
        if got != want:
            return f"set {entry['set']}: {got} != oracle {want}"
        if entry["set"] == "evens" and got["banach-upper-density"] != 0.5:
            return f"evens banach-upper {got['banach-upper-density']!r} != 0.5"
    return None
