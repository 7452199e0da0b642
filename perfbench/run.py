"""Benchmark of the cabello three-bound calculator.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 10 --trace 0

Workloads: sweep, npa-upper, headline (see workloads.py and README.md).
With --trace 0 the run times set-up (fresh interpreters importing
cabello.cli), then runs whole rounds of the workload, each in a fresh
interpreter, as many as come nearest to --seconds, and reports the
end-to-end metrics wall_s, setup_s and rss_peak_mb as medians. Every
round's interpreter also gives one more set-up sample. With --trace 1
it runs pairs of one untraced and one traced round instead and reports
the per-layer metrics and the tracing overhead. The last line of
standard output is one JSON object: correct, attempted, failed and
metrics. Details of every round go to perfbench/out/.

Run from the root of a cabello checkout; without src/cabello and
tests/oracles.py the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ROUND = Path(__file__).resolve().parent / "round.py"
OUT = Path(__file__).resolve().parent / "out"
WORKLOADS = ("sweep", "npa-upper", "headline")
SETUP_STARTS = 3        # timed fresh starts, after one untimed start warms the file cache
CHILD_TIMEOUT_S = 170


def _child(*args) -> str:
    proc = subprocess.run([sys.executable, str(ROUND), *args], cwd=ROOT, text=True,
                          capture_output=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"round.py {' '.join(args)} exited with {proc.returncode}:\n"
                           f"{proc.stderr}")
    return proc.stdout.strip().splitlines()[-1]


def setup_seconds() -> list[float]:
    """Seconds from spawning a fresh interpreter to cabello.cli imported."""
    _child("--ready")
    samples = []
    for _ in range(SETUP_STARTS):
        t0 = time.monotonic()
        samples.append(float(_child("--ready")) - t0)
    return samples


def run_round(workload: str, seed: int, traced: bool) -> dict:
    args = ["--workload", workload, "--seed", str(seed)]
    t0 = time.monotonic()
    r = json.loads(_child(*args, *(["--traced"] if traced else [])))
    r["setup_s"] = r["ready"] - t0
    return r


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    missing = [p for p in ("src/cabello/__init__.py", "tests/oracles.py")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"not a cabello checkout: missing {', '.join(missing)} under {ROOT}",
              file=sys.stderr)
        return 2

    setup = [] if args.trace else setup_seconds()
    plain, traced = [], []
    start = time.monotonic()
    while True:
        lap_start = time.monotonic()
        plain.append(run_round(args.workload, args.seed, False))
        if args.trace:
            traced.append(run_round(args.workload, args.seed, True))
        now = time.monotonic()
        # stop at the whole number of rounds nearest to --seconds
        if now - start + (now - lap_start) / 2 >= args.seconds:
            break
    rounds = plain + traced
    if not args.trace:
        setup += [r["setup_s"] for r in plain]

    wall = statistics.median(r["wall_s"] for r in plain)
    if args.trace:
        layers = {k: _median([r["layers"][k] for r in traced]) for k in traced[0]["layers"]}
        traced_wall = statistics.median(r["wall_s"] for r in traced)
        layers["trace.wall_s"] = traced_wall
        layers["trace.overhead_s"] = traced_wall - wall
        metrics = {k: {"value": v, "unit": _unit(k)} for k, v in layers.items()}
    else:
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "rss_peak_mb": {"value": statistics.median(r["rss_peak_mb"] for r in plain),
                            "unit": "MiB"},
        }
    unexpected = sorted({k for r in rounds for k in r["unexpected"]})
    for r in rounds:
        for name, msgs in r["failed"].items():
            known = f" [known fault: {r['known'][name]}]" if name in r["known"] else ""
            print(f"{args.workload}/{name}: {'; '.join(msgs)}{known}", file=sys.stderr)
    result = {"correct": not unexpected,
              "attempted": sum(r["attempted"] for r in rounds),
              "failed": sum(len(r["failed"]) for r in rounds),
              "metrics": metrics}

    OUT.mkdir(exist_ok=True)
    detail = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail.write_text(json.dumps({"args": vars(args), "setup_s": setup, "rounds": rounds,
                                  "unexpected": unexpected, "result": result}, indent=1))
    print(json.dumps(result))
    return 0


def _median(values: list):
    """Median; counts, which repeat exactly from round to round, stay whole."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def _unit(name: str) -> str:
    if name.endswith("converged_share"):
        return "ratio"
    return "s" if name.endswith(".s") or name.endswith("_s") else "count"


if __name__ == "__main__":
    raise SystemExit(main())
