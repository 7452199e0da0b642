"""Each output check of the benchmark accepts a right value and rejects
an injected wrong one.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import math
from types import SimpleNamespace

import pytest

import checks
import workloads

ORACLES = workloads.load_oracles()
OPT = ORACLES.OPT_SCORE


def optimum_ansatz(**changes) -> dict:
    """The ideal optimum in ansatz coordinates (feasible at every eps)."""
    params = {"s00": ORACLES.OPT_K00, "s01": ORACLES.OPT_K01, "s11": ORACLES.OPT_K11,
              "alpha": ORACLES.OPT_ALPHA, "beta": ORACLES.OPT_ALPHA, "phi": 0.0, "xi": 0.0}
    params.update(changes)
    return params


def tilted_ansatz(eps: float) -> dict:
    """The optimum with s11 lowered and s00 renormalized: e10 = e01 > eps."""
    p = optimum_ansatz(s11=ORACLES.OPT_K11 - 2 * math.sqrt(eps))
    p["s00"] = -math.sqrt(1 - 2 * p["s01"] ** 2 - p["s11"] ** 2)
    return p


def test_rebuilt_optimum_scores_the_frozen_constant():
    st = checks.ansatz_stats(optimum_ansatz())
    assert abs(st["score"] - OPT) < 1e-12
    assert checks.check_strategy(st, 0.0, OPT) == []


def test_strategy_with_e10_above_eps_is_rejected():
    eps = 0.01
    st = checks.ansatz_stats(tilted_ansatz(eps))
    assert st["e10"] > eps
    msgs = checks.check_strategy(st, eps, st["score"])
    assert any("e10" in m for m in msgs)


def test_strategy_with_misreported_score_is_rejected():
    st = checks.ansatz_stats(optimum_ansatz())
    assert checks.check_strategy(st, 0.0, OPT + 1e-9) != []


def test_upper_nudged_below_the_optimum_is_rejected():
    assert checks.check_upper(OPT + 1e-9, 0.0, OPT, None) == []
    assert checks.check_upper(OPT - 1e-9, 0.0, OPT, None) != []


def test_upper_below_the_local_bound_is_rejected():
    assert checks.check_upper(0.99999999272, 0.5, OPT, None) != []


def test_upper_far_from_its_reference_is_rejected():
    ref = ORACLES.NPA_LEVEL2[0.05]
    assert checks.check_upper(ref, 0.05, OPT, ref) == []
    assert checks.check_upper(ref + 1e-5, 0.05, OPT, ref) != []


def test_collapsed_lower_bound_is_rejected():
    assert checks.check_lower(OPT, 1e-6, OPT) == []
    assert checks.check_lower(-0.1236, 1e-6, OPT) != []


def test_inverted_and_loose_bounds_are_rejected():
    assert checks.check_order(0.3, 0.3) == []
    assert checks.check_order(0.3038071225, 0.3038071051) != []
    assert checks.check_levels(0.70588, 0.70645) == []
    assert checks.check_levels(0.70645 + 2e-6, 0.70645) != []


def test_local_bound_off_the_closed_form_is_rejected():
    assert checks.check_local(0.2, 0.1) == []
    assert checks.check_local(0.1, 0.1) != []
    assert checks.check_local(1.0, 0.5) == []


@pytest.mark.parametrize("fidelity", [float("nan"), 0.99, -math.inf])
def test_bad_fidelity_is_rejected(fidelity):
    assert checks.check_fidelity(1.0) == []
    assert checks.check_fidelity(fidelity) != []


def test_hardy_optimum_is_rebuilt_with_its_zero():
    a = 2 * math.atan(math.sqrt((1 + math.sqrt(5)) / 2))  # tan^2(a/2) = golden ratio
    params = {"alpha": a, "beta": a, "delta": 0.0, "phi": 0.0, "xi": 0.0,
              "c": 1 / math.sqrt(1 + 2 * math.tan(a / 2) ** 2)}
    st = checks.constrained_stats(params, hardy=True)
    assert st["q"] == 0.0
    assert checks.check_strategy(st, 0.0, checks.HARDY_SCORE) == []
    assert checks.check_optimum(st["score"], checks.HARDY_SCORE, "Hardy") == []
    assert checks.check_optimum(st["score"] - 1e-8, checks.HARDY_SCORE, "Hardy") != []
    params["c"] *= 1 - 1e-9  # off the ceiling: the pinned state is not normalized
    st = checks.constrained_stats(params, hardy=True)
    assert any("norm" in m for m in checks.check_strategy(st, 0.0, st["score"]))


# -- the per-workload checks fail the operation that holds the bad value


def test_npa_check_fails_the_operation_with_a_low_upper():
    good = SimpleNamespace(value=OPT + 1e-8, status="Converged")
    bad = SimpleNamespace(value=OPT - 1e-8, status="Converged")
    out = workloads.check_npa({"level 2 eps=0.0": good, "level 3 eps=0.0": bad}, ORACLES)
    assert out["level 2 eps=0.0"] == []
    assert out["level 3 eps=0.0"] != []


def test_sweep_check_fails_a_row_whose_strategy_breaks_eps():
    eps = workloads.SWEEP_GRID[1]
    params = tilted_ansatz(eps)
    lower = checks.ansatz_stats(params)["score"]
    row = SimpleNamespace(eps=eps, local_bound=2 * eps, quantum_lower=lower,
                          quantum_upper=lower + 1e-3, level="2", status="ok", params=params)
    name = workloads.row_name(eps)
    out = workloads.check_sweep({name: row}, ORACLES)
    assert any("e10" in m for m in out[name])


def test_headline_check_fails_a_nan_fidelity():
    doc = {"fidelity": float("nan"), "junk_dims": [2, 2], "blocks": [{}]}
    out = workloads.check_headline({"selftest 1": (0, json.dumps(doc), "")}, ORACLES)
    assert out["selftest 1"] != []
    doc["fidelity"] = 1.0
    out = workloads.check_headline({"selftest 1": (0, json.dumps(doc), "")}, ORACLES)
    assert out["selftest 1"] == []
