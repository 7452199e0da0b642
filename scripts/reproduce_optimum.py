"""Reproduce the ideal-test numbers end to end.

Prints the closed-form optimum, the ideal search result, the
moment-relaxation upper bounds, the Hardy special case, and the
self-test fidelity for a lumpy direct sum, each with the deviation
from its reference.

Usage: python3 scripts/reproduce_optimum.py
"""

import argparse
import time

import numpy as np

from cabello.npa import npa_upper_bound
from cabello.optimize import optimize_hardy, optimize_ideal
from cabello.qubit import (
    ConstrainedStateParams,
    MeasurementParams,
    analytic_optimum,
    constrained_state,
)
from cabello.selftest import assemble_direct_sum, verify_selftest


def main() -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()

    opt = analytic_optimum()
    print(f"closed-form score      {opt.score:.15f}")
    print(f"closed-form alpha=beta {opt.alpha:.15f}")
    print(f"closed-form c          {opt.c:.15f}")

    t0 = time.perf_counter()
    res = optimize_ideal()
    dt = time.perf_counter() - t0
    print(f"ideal search score     {res.score:.15f}"
          f"   (err {res.score - opt.score:+.2e}, {dt:.2f} s,"
          f" {res.starts_used} grid points)")

    m = MeasurementParams(alpha=opt.alpha, beta=opt.beta, phi=0.0, xi=0.0)
    state = constrained_state(
        ConstrainedStateParams(c=opt.c, delta=np.pi, meas=m))
    amps = " ".join(f"{a.real:+.10f}" for a in state)
    print(f"optimal amplitudes     {amps}")

    for level in ("2", "3"):
        t0 = time.perf_counter()
        ub = npa_upper_bound(level, eps=0.0)
        dt = time.perf_counter() - t0
        print(f"upper bound level {level}    {ub:.15f}"
              f"   (gap {ub - opt.score:+.2e}, {dt:.2f} s)")

    hardy = optimize_hardy()
    print(f"hardy maximum          {hardy.score:.15f}"
          f"   (expected {(5 * np.sqrt(5) - 11) / 2:.15f})")

    rep = verify_selftest(assemble_direct_sum([0.3, 0.7]))
    print(f"selftest fidelity      {rep.fidelity:.15f}   (weights 0.3/0.7)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
