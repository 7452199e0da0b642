"""The three workloads: the operations of one round and their checks.

A round is a list of (name, thunk) operations. The benchmark seed only
shuffles their order, so every seed does the same work and meets the
same faults. Every operation uses the package's default seed 0 and 64
starts. ``check_*`` turns the results of a round into failure messages
per operation name (see checks.py); only the names in KNOWN_FAULTS may
fail without making the run incorrect.
"""

from __future__ import annotations

import contextlib
import csv
import importlib.util
import io
import json
import random
from pathlib import Path

import numpy as np

import checks

ROOT = Path(__file__).resolve().parents[1]

# cabello sweep --eps-min 0 --eps-max 0.15 --steps 4 --level 2
SWEEP_GRID = [float(e) for e in np.linspace(0.0, 0.15, 4)]


def row_name(eps: float) -> str:
    return f"row eps={eps:.12g}"


SWEEP_LEVEL = "2"
SMALL_EPS = 1e-6
NPA_GRID = {"2": (0.0, 0.05, 0.15, 0.2, 0.3, 0.4), "3": (0.0, 0.05, 0.15, 0.3)}
SELFTEST_WEIGHTS = {"1": "1", "0.5,0.5": "0.5,0.5", "0.3,0.7": "0.3,0.7",
                    "8 blocks": ",".join(["0.125"] * 8),
                    "64 blocks": ",".join(["0.015625"] * 64)}
LOCAL_GRID = [k / 100 for k in range(51)]
VERIFY_SAMPLES = 5000

# Faults of the program that fail on every seed. They count as failed
# operations, and the run stays correct, until the program is fixed.
FAULT_A = "npa.solve reports the objective of an approximate ADMM iterate"
FAULT_B = "optimize_nonideal collapses to a negative score as eps -> 0+"
KNOWN_FAULTS = {
    ("sweep", "row eps=0"): FAULT_A,
    ("sweep", "row eps=0.05"): FAULT_A,
    ("sweep", f"nonideal eps={SMALL_EPS!r}"): FAULT_B,
    ("npa-upper", "level 2 eps=0.0"): FAULT_A,
}


def load_oracles():
    """The frozen reference values of the test suite (tests/oracles.py)."""
    spec = importlib.util.spec_from_file_location("oracles", ROOT / "tests" / "oracles.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _reference(table: dict, eps: float):
    return next((v for k, v in table.items() if abs(k - eps) < 1e-12), None)


def _npa_reference(oracles, level: str, eps: float):
    if eps == 0.0:
        return oracles.NPA_EPS0.get(level)
    return _reference(oracles.NPA_LEVEL2, eps) if level == "2" else None


# -- sweep --------------------------------------------------------------

def sweep_ops(results: dict):
    from cabello import cli, optimize

    ops = [(row_name(e), lambda e=e: optimize.sweep_epsilon([e], level=SWEEP_LEVEL)[0])
           for e in SWEEP_GRID]
    ops.append((f"nonideal eps={SMALL_EPS!r}", lambda: optimize.optimize_nonideal(SMALL_EPS)))
    # the CSV renders the rows in grid order, so it runs last
    tail = [("csv", lambda: cli.sweep_to_csv(
        [results[row_name(e)] for e in SWEEP_GRID]))]
    return ops, tail


def check_sweep(results: dict, oracles) -> dict:
    opt = oracles.OPT_SCORE
    out = {}
    for e in SWEEP_GRID:
        name = row_name(e)
        if name not in results:
            continue
        r = results[name]
        local, lower, upper = float(r.local_bound), float(r.quantum_lower), float(r.quantum_upper)
        f = [] if r.status == "ok" else [f"status {r.status!r}"]
        f += checks.check_local(local, e)
        f += checks.check_strategy(checks.ansatz_stats(r.params), e, lower)
        f += checks.check_lower(lower, e, opt)
        f += checks.check_upper(upper, e, opt, _npa_reference(oracles, SWEEP_LEVEL, e))
        f += checks.check_order(lower, upper)
        out[name] = f
    name = f"nonideal eps={SMALL_EPS!r}"
    if name in results:
        r = results[name]
        out[name] = (checks.check_strategy(checks.ansatz_stats(r.params), SMALL_EPS, r.score)
                     + checks.check_lower(r.score, SMALL_EPS, opt))
    if "csv" in results:
        out["csv"] = _check_csv(results["csv"], [results[row_name(e)] for e in SWEEP_GRID])
    return out


def _check_csv(text: str, records) -> list[str]:
    rows = list(csv.reader(io.StringIO(text)))
    header = ["eps", "local_bound", "quantum_lower", "quantum_upper", "level", "status"]
    if rows[:1] != [header] or len(rows) != len(records) + 1:
        return [f"CSV has header {rows[:1]} and {len(rows) - 1} rows"]
    out = []
    for row, r in zip(rows[1:], records):
        want = (r.eps, r.local_bound, r.quantum_lower, r.quantum_upper)
        got = tuple(float(v) for v in row[:4])
        if any(abs(g - w) > 1e-11 * max(1.0, abs(w)) for g, w in zip(got, want)) \
                or row[4:] != [r.level, r.status]:
            out.append(f"CSV row {row} does not match {want}")
    return out


# -- npa-upper ----------------------------------------------------------

def npa_ops(results: dict):
    from cabello import npa

    ops = [(f"level {lv} eps={e!r}", lambda lv=lv, e=e: npa.solve(npa.build_problem(lv, e)))
           for lv, grid in NPA_GRID.items() for e in grid]
    return ops, []


def check_npa(results: dict, oracles) -> dict:
    out = {}
    for lv, grid in NPA_GRID.items():
        for e in grid:
            name = f"level {lv} eps={e!r}"
            if name not in results:
                continue
            s = results[name]
            f = [] if s.status == "Converged" else [f"status {s.status!r}"]
            f += checks.check_upper(s.value, e, oracles.OPT_SCORE, _npa_reference(oracles, lv, e))
            other = results.get(f"level 2 eps={e!r}")
            if lv == "3" and other is not None:
                f += checks.check_levels(s.value, other.value)
            out[name] = f
    return out


# -- headline -----------------------------------------------------------

def _cli(argv):
    from cabello import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def headline_ops(results: dict):
    ops = [("optimize ideal", lambda: _cli(["optimize", "--mode", "ideal"])),
           ("hardy", lambda: _cli(["hardy"])),
           ("verify-formula", lambda: _cli(["verify-formula", "--samples", str(VERIFY_SAMPLES)]))]
    ops += [(f"selftest {k}", lambda w=w: _cli(["selftest", "--weights", w]))
            for k, w in SELFTEST_WEIGHTS.items()]
    ops += [(f"local-bound eps={e!r}", lambda e=e: _cli(["local-bound", "--eps", repr(e)]))
            for e in LOCAL_GRID]
    return ops, []


def check_headline(results: dict, oracles) -> dict:
    out = {}
    for name, (rc, stdout, stderr) in results.items():
        if rc != 0:
            out[name] = [f"exit code {rc}: {stderr.strip()}"]
            continue
        if name.startswith("local-bound"):
            eps = float(name.split("=")[1])
            out[name] = checks.check_local(float(stdout), eps)
            continue
        doc = json.loads(stdout)
        if name == "optimize ideal":
            st = checks.constrained_stats(doc["params"])
            f = checks.check_optimum(doc["score"], oracles.OPT_SCORE, "ideal")
            f += checks.check_strategy(st, 0.0, doc["score"])
        elif name == "hardy":
            st = checks.constrained_stats(doc["params"], hardy=True)
            f = checks.check_optimum(doc["score"], checks.HARDY_SCORE, "Hardy")
            f += checks.check_strategy(st, 0.0, doc["score"])
        elif name == "verify-formula":
            f = [] if doc["samples"] == VERIFY_SAMPLES else [f"samples {doc['samples']}"]
            if not doc["max_score_deviation"] < 1e-10:
                f.append(f"closed form deviates by {doc['max_score_deviation']!r}")
        else:
            f = checks.check_fidelity(doc["fidelity"])
            nblocks = len(SELFTEST_WEIGHTS[name[len("selftest "):]].split(","))
            if len(doc["blocks"]) != nblocks or doc["junk_dims"] != [2 * nblocks] * 2:
                f.append(f"{len(doc['blocks'])} blocks, junk dims {doc['junk_dims']}")
        out[name] = f
    return out


WORKLOADS = {
    "sweep": (sweep_ops, check_sweep),
    "npa-upper": (npa_ops, check_npa),
    "headline": (headline_ops, check_headline),
}


def round_ops(workload: str, seed: int, results: dict):
    """The operations of one round, in the order the seed gives."""
    ops, tail = WORKLOADS[workload][0](results)
    random.Random(seed).shuffle(ops)
    return ops + tail
