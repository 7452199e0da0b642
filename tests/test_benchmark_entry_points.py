"""The benchmark's traced rounds wrap package attributes by name
(``SPANS`` in perfbench/tracing.py); each must exist, or a traced run
fails at install time. Each workload's round must also pass the
benchmark's output checks with no failed operation. The benchmark
files are executed from their source text, so nothing is written into
the benchmark directory."""

import importlib.util
import sys
from pathlib import Path

import pytest

import cabello
import cabello.cli  # noqa: F401  (imports every layer module)

import oracles

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKLOAD_NAMES = ("sweep", "npa-upper", "headline")


def _exec_source(name, path):
    # executed from its source text, so nothing is written next to it
    mod = importlib.util.module_from_spec(importlib.util.spec_from_loader(name, loader=None))
    mod.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), mod.__dict__)
    return mod


def test_every_traced_span_resolves():
    spans = _exec_source("perfbench_tracing", PERFBENCH / "tracing.py").SPANS
    assert spans
    for module, attr, _, _ in spans:
        assert callable(getattr(getattr(cabello, module), attr)), (module, attr)


def _counting(calls, name, inner):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return inner(*args, **kwargs)
    return wrapper


def test_layers_call_the_traced_kernels_by_module_attribute(monkeypatch):
    # a wrapped attribute counts only if the layer looks it up at call
    # time; a local alias would leave the span resolvable but untraced
    calls = {"minimize": 0, "solve_lp": 0}
    for module, name in ((cabello.optimize, "minimize"), (cabello.scenario, "solve_lp")):
        monkeypatch.setattr(module, name, _counting(calls, name, getattr(module, name)))
    cabello.optimize.optimize_nonideal(0.1)
    assert calls["minimize"] > 0
    # the local bound is in closed form: no CLI path reaches the LP
    cabello.scenario.local_max_score(0.1)
    assert calls["solve_lp"] == 0


# -- the benchmark's gate, in process ------------------------------------

@pytest.fixture
def workloads(monkeypatch):
    # workloads.py imports its sibling checks.py by name
    monkeypatch.setitem(sys.modules, "checks", _exec_source("checks", PERFBENCH / "checks.py"))
    return _exec_source("perfbench_workloads", PERFBENCH / "workloads.py")


def test_gate_covers_every_workload(workloads):
    assert sorted(workloads.WORKLOADS) == sorted(WORKLOAD_NAMES)


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_benchmark_round_has_no_failed_operation(workload, workloads):
    # the benchmark's own checks on one round, with no fault forgiven:
    # a name in KNOWN_FAULTS fails here like any other
    results = {}
    ops = workloads.round_ops(workload, 0, results)
    for name, op in ops:
        results[name] = op()
    failures = workloads.WORKLOADS[workload][1](results, oracles)
    assert set(failures) == {name for name, _ in ops}
    assert {k: v for k, v in failures.items() if v} == {}
