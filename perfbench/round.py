"""One round of a workload in a fresh interpreter.

    python3 perfbench/round.py --workload sweep --seed 0 [--traced]
    python3 perfbench/round.py --ready

The process imports cabello, then runs every operation of the round
with the clock on, and only after that checks the outputs. So the
per-process first-use costs (such as the per-level NPA factorization)
fall inside the round's time, as they do in every cabello invocation.
It prints one JSON line: the monotonic clock when cabello.cli was
imported, the round's wall time, the peak resident memory of this
process, the failed operations and, with --traced, the per-layer
figures. With --ready it imports cabello.cli and prints only that
clock reading. run.py times set-up from these readings.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_round(workload: str, seed: int, traced: bool, ready: float) -> dict:
    import cabello
    import workloads

    oracles = workloads.load_oracles()
    tracer = None
    if traced:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(cabello)
    results, errors = {}, {}
    ops = workloads.round_ops(workload, seed, results)
    t0 = time.perf_counter()
    for name, op in ops:
        try:
            results[name] = op()
        except Exception as exc:  # a failing operation must not end the round
            errors[name] = [f"raised {exc!r}"]
    wall_s = time.perf_counter() - t0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failures = workloads.WORKLOADS[workload][1](results, oracles)
    failures.update(errors)
    failed = {k: v for k, v in failures.items() if v}
    known = {k: workloads.KNOWN_FAULTS[workload, k] for k in failed
             if (workload, k) in workloads.KNOWN_FAULTS}
    out = {"ready": ready, "wall_s": wall_s, "rss_peak_mb": rss_mb, "attempted": len(ops),
           "failed": failed, "known": known, "unexpected": sorted(set(failed) - set(known)),
           "order": [name for name, _ in ops]}
    if tracer is not None:
        out["layers"] = tracer.metrics(wall_s)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--ready", action="store_true")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import cabello.cli  # noqa: F401  (imports every layer)

    ready = time.monotonic()
    if args.ready:
        print(repr(ready))
        return 0
    print(json.dumps(run_round(args.workload, args.seed, args.traced, ready)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
