"""Command-line front end.

Verbs: verify-formula, optimize, local-bound, npa, sweep, selftest,
hardy. Data goes to --out (default standard output), diagnostics to
standard error. Exit codes: 0 success, 1 numerical failure, 2 usage
error. The random starts of the ideal and Hardy searches and the draws
of verify-formula flow from --seed; identical command lines give
byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import npa, optimize, qubit, scenario, selftest

CSV_HEADER = ["eps", "local_bound", "quantum_lower", "quantum_upper", "level", "status"]

_FID_THRESHOLD = 1 - 1e-9
_EQUIV_THRESHOLD = 1e-10

# Samples per batched Born-rule call of verify-formula; it bounds the
# verb's memory, which would otherwise grow with --samples.
_VERIFY_CHUNK = 256


@dataclass(frozen=True)
class Command:
    """A parsed verb with its validated options and output target."""

    verb: str
    options: dict
    out: str | None


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
    p.add_argument("--seed", type=int, default=0)
    add_out(p)

    # unset options stay out of the namespace, so that _run_optimize can
    # reject the ones the mode does not use
    p = sub.add_parser("optimize", help="multistart score maximization",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--mode", choices=["ideal", "nonideal"], default="ideal")
    p.add_argument("--eps", type=float,
                   help="constraint level for --mode nonideal (default 0)")
    p.add_argument("--starts", type=int, help="random starts for --mode ideal")
    p.add_argument("--seed", type=int, help="master seed for --mode ideal")
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
    p.add_argument("--starts", type=int, default=optimize.DEFAULT_STARTS)
    p.add_argument("--seed", type=int, default=optimize.DEFAULT_SEED)
    add_out(p)

    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of this process, built on first use."""
    return build_parser()


def parse(argv) -> Command:
    """Validate argv into a Command; exits with code 2 on usage errors."""
    ns = _parser().parse_args(argv)
    opts = vars(ns).copy()
    verb = opts.pop("verb")
    out = opts.pop("out", None)
    return Command(verb=verb, options=opts, out=out)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _uniform(u, low, high):
    """Map draws u in [0, 1) as ``Generator.uniform(low, high)`` does."""
    return low + (high - low) * u


def _run_verify_formula(o, out) -> int:
    if o["samples"] < 1:
        raise ValueError(f"--samples must be >= 1, got {o['samples']}")
    rng = np.random.default_rng(o["seed"])
    worst_dev = 0.0
    worst_leak = 0.0
    for start in range(0, o["samples"], _VERIFY_CHUNK):
        # per sample, in stream order: alpha, beta, c, delta, phi, xi
        u = rng.random((min(_VERIFY_CHUNK, o["samples"] - start), 6))
        a, b = _uniform(u[:, :2], 0.05, np.pi - 0.05).T
        cmax = 1.0 / np.sqrt(1 + np.tan(a / 2) ** 2 + np.tan(b / 2) ** 2)
        c = _uniform(u[:, 2], 0.0, 0.999) * cmax
        d, ph, xi = _uniform(u[:, 3:], 0.0, 2 * np.pi).T
        params = [qubit.ConstrainedStateParams(
                      c=ck, delta=dk,
                      meas=qubit.MeasurementParams(alpha=ak, beta=bk, phi=phk, xi=xik))
                  for ak, bk, ck, dk, phk, xik in zip(a, b, c, d, ph, xi)]
        closed = np.array([qubit.closed_form_score(p) for p in params])
        beh = scenario.behavior_from_quantum(
            np.array([qubit.constrained_state(p) for p in params]),
            qubit.measurements(a, ph), qubit.measurements(b, xi))
        st = scenario.cabello_stats(beh)
        worst_dev = max(worst_dev, float(np.abs(st.score - closed).max()))
        worst_leak = max(worst_leak, float(st.e10.max()), float(st.e01.max()))
    _emit(json.dumps({"samples": o["samples"],
                      "max_score_deviation": worst_dev,
                      "max_constraint_probability": worst_leak}) + "\n", out)
    if worst_dev >= _EQUIV_THRESHOLD or worst_leak >= 1e-12:
        print(f"equivalence check failed: deviation {worst_dev:.3e}, "
              f"leak {worst_leak:.3e}", file=sys.stderr)
        return 1
    return 0


def _run_optimize(o, out) -> int:
    unused = ("eps",) if o["mode"] == "ideal" else ("starts", "seed")
    given = [f"--{k}" for k in unused if k in o]
    if given:
        raise ValueError(f"--mode {o['mode']} takes no {', '.join(given)}")
    if o["mode"] == "ideal":
        res = optimize.optimize_ideal(**{k: o[k] for k in ("starts", "seed") if k in o})
    else:
        res = optimize.optimize_nonideal(o.get("eps", 0.0))
    _emit(res.to_json() + "\n", out)
    return 0


def _run_local_bound(o, out) -> int:
    _emit(_fmt(scenario.local_max_score(o["eps"])) + "\n", out)
    return 0


def _run_npa(o, out) -> int:
    sol = npa.solve(npa.build_problem(o["level"], o["eps"]))
    print(f"level={o['level']} eps={_fmt(o['eps'])} status={sol.status} "
          f"iterations={sol.iterations} primal={sol.primal_residual:.3e} "
          f"dual={sol.dual_residual:.3e} gap={sol.gap:.3e}", file=sys.stderr)
    _emit(_fmt(sol.value) + "\n", out)
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
    _emit(sweep_to_csv(records), out)
    bad = [r for r in records if r.status != "ok"]
    for r in bad:
        print(f"sweep point eps={_fmt(r.eps)}: {r.status}", file=sys.stderr)
    return 1 if bad else 0


def _run_selftest(o, out) -> int:
    weights = [float(x) for x in str(o["weights"]).split(",") if x != ""]
    state = selftest.assemble_direct_sum(weights, phases=(o["phi"], o["xi"]))
    rep = selftest.verify_selftest(state)
    _emit(rep.to_json() + "\n", out)
    if rep.fidelity < _FID_THRESHOLD:
        print(f"fidelity {rep.fidelity:.12f} below {_FID_THRESHOLD}", file=sys.stderr)
        return 1
    return 0


def _run_hardy(o, out) -> int:
    res = optimize.optimize_hardy(starts=o["starts"], seed=o["seed"])
    _emit(res.to_json() + "\n", out)
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


def execute(cmd: Command) -> int:
    """Dispatch a parsed command; returns the process exit code."""
    try:
        return _DISPATCH[cmd.verb](cmd.options, cmd.out)
    except ValueError as exc:
        print(f"{cmd.verb}: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    return execute(parse(sys.argv[1:] if argv is None else argv))


if __name__ == "__main__":
    raise SystemExit(main())
