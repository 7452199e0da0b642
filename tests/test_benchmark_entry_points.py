"""The benchmark's traced rounds wrap package attributes by name
(``SPANS`` in perfbench/tracing.py); each must exist, or a traced run
fails at install time. The benchmark directory lies outside the tier-1
collection, so this test reads its span list from here."""

import importlib.util
from pathlib import Path

import cabello
import cabello.cli  # noqa: F401  (imports every layer module)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _spans():
    # executed from its source text, so nothing is written next to it
    mod = importlib.util.module_from_spec(
        importlib.util.spec_from_loader("perfbench_tracing", loader=None))
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), mod.__dict__)
    return mod.SPANS


def test_every_traced_span_resolves():
    spans = _spans()
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
    cabello.optimize.optimize_nonideal(0.1, starts=2)
    assert calls["minimize"] > 0
    cabello.scenario.local_max_score(0.1)
    assert calls["solve_lp"] == 1
