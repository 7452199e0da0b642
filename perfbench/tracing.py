"""Per-layer spans, recorded from outside the package.

``Tracer.install`` replaces the module attributes through which callers
reach each layer with wrappers that time the call. A layer's self time
is its span minus the time of the spans nested in it. Only the traced
round installs the wrappers; untraced rounds run the package as is.
"""

from __future__ import annotations

import functools
import time
from collections import Counter


def _count_minimize(res, counts):
    counts["mathcore.minimize.nevals"] += res.nevals
    counts["mathcore.minimize.converged"] += bool(res.converged)


def _count_solve(sol, counts):
    counts["npa.solve.iterations"] += sol.iterations
    counts["npa.solve.maxiter"] += sol.status != "Converged"


# (module, attribute, span name, counter); callers reach each layer
# through these attributes, e.g. optimize calls ``minimize`` by the name
# it imported from mathcore, so that binding is the one wrapped.
SPANS = [
    ("cli", "main", "cli", None),
    ("cli", "sweep_to_csv", "cli", None),
    ("optimize", "sweep_epsilon", "optimize.sweep_epsilon", None),
    ("optimize", "optimize_nonideal", "optimize.optimize_nonideal", None),
    ("optimize", "optimize_ideal", "optimize.optimize_ideal", None),
    ("optimize", "optimize_hardy", "optimize.optimize_hardy", None),
    ("optimize", "minimize", "mathcore.minimize", _count_minimize),
    ("scenario", "solve_lp", "mathcore.solve_lp", None),
    ("npa", "build_problem", "npa.build_problem", None),
    ("npa", "solve", "npa.solve", _count_solve),
    ("scenario", "behavior_from_quantum", "scenario.behavior_from_quantum", None),
    ("qubit", "projectors", "qubit", None),
    ("qubit", "constrained_state", "qubit", None),
    ("qubit", "closed_form_score", "qubit", None),
    ("selftest", "assemble_direct_sum", "selftest.assemble_direct_sum", None),
    ("selftest", "verify_selftest", "selftest.verify_selftest", None),
]


class Tracer:
    """Self time and calls per span name, plus the work counters."""

    def __init__(self):
        self.self_s = Counter()
        self.calls = Counter()
        self.counts = Counter()
        self.top_s = 0.0      # time inside outermost spans
        self._child_s = []    # per open span, time of its finished children

    def install(self, package):
        for module, attr, name, count in SPANS:
            mod = getattr(package, module)
            setattr(mod, attr, self._wrap(getattr(mod, attr), name, count))

    def _wrap(self, fn, name, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._child_s.append(0.0)
            t0 = time.perf_counter()
            try:
                res = fn(*args, **kwargs)
            finally:
                span = time.perf_counter() - t0
                self.self_s[name] += span - self._child_s.pop()
                self.calls[name] += 1
                if self._child_s:
                    self._child_s[-1] += span
                else:
                    self.top_s += span
            if count is not None:
                count(res, self.counts)
            return res
        return traced

    def metrics(self, wall_s: float) -> dict:
        """Per-layer figures of one traced round of ``wall_s`` seconds."""
        s, n = self.self_s, self.calls
        searches = ("optimize.sweep_epsilon", "optimize.optimize_nonideal",
                    "optimize.optimize_ideal", "optimize.optimize_hardy")
        out = {f"{k}.s": s[k] for k in searches}
        out["optimize.calls"] = sum(n[k] for k in searches)
        out["mathcore.minimize.s"] = s["mathcore.minimize"]
        out["mathcore.minimize.calls"] = n["mathcore.minimize"]
        out["mathcore.minimize.nevals"] = self.counts["mathcore.minimize.nevals"]
        out["mathcore.minimize.converged"] = self.counts["mathcore.minimize.converged"]
        out["mathcore.minimize.converged_share"] = (
            out["mathcore.minimize.converged"] / n["mathcore.minimize"]
            if n["mathcore.minimize"] else 0.0)
        for k in ("mathcore.solve_lp", "scenario.behavior_from_quantum", "cli", "qubit"):
            out[f"{k}.s"] = s[k]
            out[f"{k}.calls"] = n[k]
        out["npa.build_problem.s"] = s["npa.build_problem"]
        out["npa.solve.s"] = s["npa.solve"]
        out["npa.solve.calls"] = n["npa.solve"]
        out["npa.solve.iterations"] = self.counts["npa.solve.iterations"]
        out["npa.solve.maxiter"] = self.counts["npa.solve.maxiter"]
        out["selftest.verify_selftest.s"] = s["selftest.verify_selftest"]
        out["selftest.assemble_direct_sum.s"] = s["selftest.assemble_direct_sum"]
        # the benchmark's own loop and the calls it makes outside any span
        out["bench.unattributed.s"] = wall_s - self.top_s
        return out
