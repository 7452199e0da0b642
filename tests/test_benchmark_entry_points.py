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
