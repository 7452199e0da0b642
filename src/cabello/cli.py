"""Command-line front end.

Verbs: verify-formula, optimize, local-bound, npa, sweep, selftest,
hardy. Data goes to --out (default standard output), diagnostics to
standard error. Exit codes: 0 success, 1 numerical failure, 2 usage
error or an --out that cannot be written. Every search starts from a
fixed grid and the draws of verify-formula flow from its --seed, so
identical command lines give byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import random
import sys

import numpy as np

from . import npa, optimize, qubit, scenario, selftest

CSV_HEADER = ["eps", "local_bound", "quantum_lower", "quantum_upper", "level", "status"]

_FID_THRESHOLD = 1 - 1e-9
_EQUIV_THRESHOLD = 1e-10

# Samples per batched call of verify-formula (closed form, constrained
# state, Born rule); it bounds the verb's memory, which would otherwise
# grow with --samples.
_VERIFY_CHUNK = 256


def _fmt(x: float) -> str:
    """Floats at 12 significant digits everywhere in CSV and scalar output."""
    return "%.12g" % x


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cabello",
        description="Classical, qubit, and device-independent bounds for the "
                    "Cabello nonlocality argument.",
    )
    sub = ap.add_subparsers(dest="verb", required=True)

    def add_out(p):
        p.add_argument("--out", default=None, metavar="PATH",
                       help="write data to PATH instead of standard output")

    p = sub.add_parser("verify-formula",
                       help="closed-form score vs Born-rule simulation over random draws")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0,
                   help="seed (>= 0) of the draws, from the standard library's "
                        "Mersenne Twister random.Random (default 0)")
    add_out(p)

    p = sub.add_parser("optimize", help="multistart score maximization")
    p.add_argument("--mode", choices=["ideal", "nonideal"], default="ideal")
    p.add_argument("--eps", type=float,
                   help="constraint level for --mode nonideal (default 0)")
    add_out(p)

    p = sub.add_parser("local-bound", help="eps-constrained local polytope LP")
    p.add_argument("--eps", type=float, required=True)
    add_out(p)

    p = sub.add_parser("npa", help="moment-matrix upper bound")
    p.add_argument("--level", choices=list(npa.LEVELS), default="2")
    p.add_argument("--eps", type=float, default=0.0)
    add_out(p)

    p = sub.add_parser("sweep", help="local/lower/upper bounds over an eps grid (CSV)")
    p.add_argument("--eps-min", type=float, default=0.0)
    p.add_argument("--eps-max", type=float, default=0.5)
    p.add_argument("--steps", type=int, default=51)
    p.add_argument("--level", choices=list(npa.LEVELS), default="2")
    add_out(p)

    p = sub.add_parser("selftest", help="extraction-isometry fidelity of a direct sum")
    p.add_argument("--weights", default="1",
                   help="comma-separated block weights, e.g. 0.5,0.5")
    p.add_argument("--phi", type=float, default=0.0)
    p.add_argument("--xi", type=float, default=0.0)
    add_out(p)

    p = sub.add_parser("hardy", help="maximum success with the extra zero constraint")
    add_out(p)

    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of this process, built on first use."""
    return build_parser()


def parse(argv) -> argparse.Namespace:
    """Validate argv into argparse's namespace (the verb, its options and
    --out); exits with code 2 on usage errors."""
    return _parser().parse_args(argv)


def _uniform(u, low, high):
    """Map draws u in [0, 1) as ``random.uniform(low, high)`` does."""
    return low + (high - low) * u


def _random(rng: random.Random, n: int):
    """n × 6 draws equal, bit for bit and in stream order, to 6n calls of
    ``rng.random()``: each takes two 32-bit words, keeps their top 27 and
    26 bits and scales the 53-bit integer by 2**-53, as CPython does. Each
    pair of words is read as one little-endian 64-bit integer x, whose low
    half is the first word and high half the second."""
    x = np.frombuffer(rng.randbytes(48 * n), "<u8").reshape(n, 6)
    return ((x & 0xFFFFFFFF) >> 5 << 26 | x >> 38) * 2.0 ** -53


def _run_verify_formula(o, out) -> int:
    if o["samples"] < 1:
        raise ValueError(f"--samples must be >= 1, got {o['samples']}")
    if o["seed"] < 0:
        # random.Random seeds from |seed|: -7 and 7 would share one stream
        raise ValueError(f"--seed must be >= 0, got {o['seed']}")
    rng = random.Random(o["seed"])
    worst_dev = 0.0
    worst_leak = 0.0
    for start in range(0, o["samples"], _VERIFY_CHUNK):
        # per sample, in stream order: alpha, beta, c, delta, phi, xi
        u = _random(rng, min(_VERIFY_CHUNK, o["samples"] - start))
        a, b = _uniform(u[:, :2], 0.05, np.pi - 0.05).T
        cmax = 1.0 / np.sqrt(qubit.norm_factor(a, b))
        c = _uniform(u[:, 2], 0.0, 0.999) * cmax
        d, ph, xi = _uniform(u[:, 3:], 0.0, 2 * np.pi).T
        p = qubit.ConstrainedStateParams(
            c=c, delta=d, meas=qubit.MeasurementParams(alpha=a, beta=b, phi=ph, xi=xi))
        closed = qubit.closed_form_score(p)
        beh = scenario.behavior_from_quantum(
            qubit.constrained_state(p), qubit.measurements(a, ph), qubit.measurements(b, xi))
        st = scenario.cabello_stats(beh)
        worst_dev = max(worst_dev, float(np.abs(st.score - closed).max()))
        worst_leak = max(worst_leak, float(st.e10.max()), float(st.e01.max()))
    out.write(json.dumps({"samples": o["samples"],
                          "max_score_deviation": worst_dev,
                          "max_constraint_probability": worst_leak}) + "\n")
    if worst_dev >= _EQUIV_THRESHOLD or worst_leak >= 1e-12:
        print(f"equivalence check failed: deviation {worst_dev:.3e}, "
              f"leak {worst_leak:.3e}", file=sys.stderr)
        return 1
    return 0


def _run_optimize(o, out) -> int:
    if o["mode"] == "ideal":
        if o["eps"] is not None:
            raise ValueError("--mode ideal takes no --eps")
        res = optimize.optimize_ideal()
    else:
        res = optimize.optimize_nonideal(o["eps"] or 0.0)
    out.write(res.to_json() + "\n")
    return 0


def _run_local_bound(o, out) -> int:
    out.write(_fmt(scenario.local_max_score(o["eps"])) + "\n")
    return 0


def _run_npa(o, out) -> int:
    sol = npa.solve(npa.build_problem(o["level"], o["eps"]))
    print(f"level={o['level']} eps={_fmt(o['eps'])} status={sol.status} "
          f"iterations={sol.iterations} primal={sol.primal_residual:.3e} "
          f"dual={sol.dual_residual:.3e} gap={sol.gap:.3e}", file=sys.stderr)
    out.write(_fmt(sol.value) + "\n")
    return 0 if sol.status == "Converged" else 1


def sweep_to_csv(records) -> str:
    """Render SweepRecord rows as the fixed-header CSV artifact."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(CSV_HEADER)
    for r in records:
        w.writerow([_fmt(r.eps), _fmt(r.local_bound), _fmt(r.quantum_lower),
                    _fmt(r.quantum_upper), r.level, r.status])
    return buf.getvalue()


def _run_sweep(o, out) -> int:
    steps = o["steps"]
    if steps < 1:
        raise ValueError("--steps must be >= 1")
    lo, hi = o["eps_min"], o["eps_max"]
    grid = np.linspace(lo, hi, steps) if steps > 1 else np.array([lo])
    records = optimize.sweep_epsilon(grid, level=o["level"])
    out.write(sweep_to_csv(records))
    bad = [r for r in records if r.status != "ok"]
    for r in bad:
        print(f"sweep point eps={_fmt(r.eps)}: {r.status}", file=sys.stderr)
    return 1 if bad else 0


def _run_selftest(o, out) -> int:
    weights = [float(x) for x in str(o["weights"]).split(",") if x != ""]
    state = selftest.assemble_direct_sum(weights, phases=(o["phi"], o["xi"]))
    rep = selftest.verify_selftest(state)
    out.write(rep.to_json() + "\n")
    if rep.fidelity < _FID_THRESHOLD:
        print(f"fidelity {rep.fidelity:.12f} below {_FID_THRESHOLD}", file=sys.stderr)
        return 1
    return 0


def _run_hardy(o, out) -> int:
    res = optimize.optimize_hardy()
    out.write(res.to_json() + "\n")
    return 0


_DISPATCH = {
    "verify-formula": _run_verify_formula,
    "optimize": _run_optimize,
    "local-bound": _run_local_bound,
    "npa": _run_npa,
    "sweep": _run_sweep,
    "selftest": _run_selftest,
    "hardy": _run_hardy,
}


def execute(ns: argparse.Namespace) -> int:
    """Dispatch a parsed namespace; returns the process exit code. The verb
    reads the options left after popping the verb and --out. --out is
    opened before the verb runs: an unwritable path fails before any work,
    and a verb that fails after the open leaves the file empty."""
    options = vars(ns).copy()
    verb, path = options.pop("verb"), options.pop("out")
    try:
        if path is None:
            return _DISPATCH[verb](options, sys.stdout)
        with open(path, "w") as out:
            return _DISPATCH[verb](options, out)
    except (ValueError, OSError) as exc:
        print(f"{verb}: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    return execute(parse(sys.argv[1:] if argv is None else argv))


if __name__ == "__main__":
    raise SystemExit(main())
