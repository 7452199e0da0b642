"""Tests for the BFGS minimizer, the multistart searches and the
epsilon sweep."""

import dataclasses
import functools
import json
import math

import numpy as np
import pytest

from cabello import npa
from cabello import optimize
from cabello.npa import npa_upper_bound
from cabello.optimize import (
    OptResult,
    SweepRecord,
    ansatz_stats,
    minimize,
    optimize_hardy,
    optimize_ideal,
    optimize_nonideal,
    sweep_epsilon,
)
from cabello.qubit import (
    AnsatzParams,
    ConstrainedStateParams,
    MeasurementParams,
    analytic_optimum,
    ansatz_state,
    closed_form_score,
    constrained_state,
    projectors,
)
from cabello.scenario import behavior_from_quantum, cabello_stats, local_max_score

import oracles


def test_minimize_quadratic_bowl():
    r = minimize(lambda x: (x[0] ** 2 + x[1] ** 2, [2 * x[0], 2 * x[1]]), [1.0, 1.0])
    assert r.fun <= 1e-12
    assert max(abs(v) for v in r.x) < 1e-6
    assert r.converged


def test_minimize_shifted_parabola():
    r = minimize(lambda x: ((x[0] - 3.0) ** 2, [2 * (x[0] - 3.0)]), [0.0])
    assert abs(r.x[0] - 3.0) < 1e-6
    assert r.fun <= 1e-12
    assert r.converged


def test_minimize_iteration_cap_flag(monkeypatch):
    # Rosenbrock needs far more than two BFGS iterations from (-1.2, 1)
    monkeypatch.setattr(optimize, "BFGS_MAX_ITER", 2)

    def rosenbrock(x):
        a, b = x
        return (100 * (b - a * a) ** 2 + (1 - a) ** 2,
                [-400 * a * (b - a * a) - 2 * (1 - a), 200 * (b - a * a)])

    r = minimize(rosenbrock, [-1.2, 1.0])
    assert not r.converged
    assert r.nit == 2
    assert r.nevals > 0


def test_minimize_bitwise_deterministic():
    def f(x):
        a, b = x
        return ((a - 1.2) ** 2 + (b + 0.7) ** 4 + math.cos(a * b),
                [2 * (a - 1.2) - b * math.sin(a * b),
                 4 * (b + 0.7) ** 3 - a * math.sin(a * b)])

    a = minimize(f, [0.1, 0.9])
    b = minimize(f, [0.1, 0.9])
    assert a.x == b.x
    assert a.fun == b.fun
    assert a.nevals == b.nevals


def test_every_slice_descent_converges(monkeypatch):
    # every descent of the slice search ends by the stopping test, none by
    # running out of descent or by the iteration cap
    runs = []

    def recording(*args, **kwargs):
        runs.append(minimize(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(optimize, "minimize", recording)
    for eps in (1e-12, 1e-9, 1e-6, 1e-3, 0.05, 0.1, 0.15, 0.3, 0.45, 0.5):
        runs.clear()
        r = optimize_nonideal(eps)
        assert len(runs) == r.starts_used == 12
        assert all(run.converged for run in runs), eps


@pytest.mark.parametrize("eps", sorted(oracles.NONIDEAL_SCORES))
def test_nonideal_reaches_the_frozen_scores(eps):
    # the scores of the four-variable search over both angles, which the
    # slice search replaced; 2e-15 is about ten ulp of the score
    r = optimize_nonideal(eps)
    assert abs(r.score - oracles.NONIDEAL_SCORES[eps]) <= 2e-15
    assert r.e10 <= eps and r.e01 <= eps


@pytest.fixture(scope="module")
def ideal():
    return optimize_ideal()


@pytest.fixture(scope="module")
def nonideal_01():
    return optimize_nonideal(0.1)


def _split(proj):
    return (proj[0], proj[1]), (proj[2], proj[3])


def _stats_from_constrained(params: dict):
    m = MeasurementParams(alpha=params["alpha"], beta=params["beta"],
                          phi=params["phi"], xi=params["xi"])
    p = ConstrainedStateParams(c=params["c"], delta=params["delta"], meas=m)
    b = behavior_from_quantum(constrained_state(p), *_split(projectors(m)))
    return cabello_stats(b)


def _stats_from_ansatz(params: dict):
    m = MeasurementParams(alpha=params["alpha"], beta=params["beta"],
                          phi=params["phi"], xi=params["xi"])
    a = AnsatzParams(s00=params["s00"], s01=params["s01"], s11=params["s11"],
                     phi=params["phi"], xi=params["xi"])
    b = behavior_from_quantum(ansatz_state(a), *_split(projectors(m)))
    return cabello_stats(b)


def test_ideal_reaches_analytic_optimum(ideal):
    opt = analytic_optimum()
    assert abs(ideal.score - opt.score) < 1e-7
    assert abs(ideal.params["alpha"] - ideal.params["beta"]) < 1e-6
    assert abs(ideal.params["alpha"] - opt.alpha) < 1e-6
    assert abs(ideal.params["c"] - opt.c) < 1e-6
    assert ideal.starts_used == 64
    assert ideal.converged


def test_ideal_score_consistent_with_simulation(ideal):
    stats = _stats_from_constrained(ideal.params)
    assert abs(stats.score - ideal.score) < 1e-9
    assert stats.e10 < 1e-12 and stats.e01 < 1e-12


def test_ideal_optimum_is_stationary():
    # random small perturbations around the analytic point gain nothing
    opt = analytic_optimum()
    rng = np.random.default_rng(99)
    for _ in range(200):
        da, db, dc, dd = rng.normal(scale=1e-5, size=4)
        m = MeasurementParams(alpha=opt.alpha + da, beta=opt.beta + db,
                              phi=0.0, xi=0.0)
        p = ConstrainedStateParams(c=opt.c + dc, delta=np.pi + dd, meas=m)
        assert closed_form_score(p) <= opt.score + 1e-10


def test_ideal_deterministic():
    a = optimize_ideal(starts=8, seed=3)
    b = optimize_ideal(starts=8, seed=3)
    assert a == b
    c = optimize_ideal(starts=8, seed=4)
    assert c.params != a.params


def test_ideal_rejects_bad_starts():
    with pytest.raises(ValueError):
        optimize_ideal(starts=0)


def test_nonideal_feasible_and_consistent(nonideal_01):
    r = nonideal_01
    assert r.e10 <= 0.1 + 1e-9
    assert r.e01 <= 0.1 + 1e-9
    stats = _stats_from_ansatz(r.params)
    assert abs(stats.score - r.score) < 1e-9
    assert abs(stats.e10 - r.e10) < 1e-9
    assert abs(stats.e01 - r.e01) < 1e-9
    # the optimum rides the constraint boundary
    assert r.e10 > 0.09
    norm = r.params["s00"] ** 2 + 2 * r.params["s01"] ** 2 + r.params["s11"] ** 2
    assert abs(norm - 1.0) < 1e-10


def test_nonideal_matches_frozen_curve(nonideal_01):
    assert abs(nonideal_01.score - oracles.NPA_LEVEL2[0.1]) < 1e-6
    r05 = optimize_nonideal(0.05)
    assert abs(r05.score - oracles.NPA_LEVEL2[0.05]) < 1e-6


def test_nonideal_meets_upper_bound(nonideal_01):
    ub = npa_upper_bound("2", eps=0.1)
    assert nonideal_01.score <= ub + 1e-6
    assert abs(nonideal_01.score - ub) < 1e-5


def test_nonideal_eps_zero_embeds_ideal(ideal):
    r = optimize_nonideal(0.0)
    assert abs(r.score - ideal.score) < 1e-6
    assert r.e10 <= 1e-9 and r.e01 <= 1e-9


@pytest.mark.parametrize("eps", [1e-12, 1e-9, 1e-6, 1e-3])
def test_nonideal_never_below_ideal_as_eps_vanishes(eps):
    r = optimize_nonideal(eps)
    assert r.score >= oracles.OPT_SCORE - 1e-12
    assert r.e10 <= eps and r.e01 <= eps
    stats = _stats_from_ansatz(r.params)
    assert abs(stats.score - r.score) < 1e-12


def test_nonideal_gains_over_ideal_as_eps_vanishes():
    # the optimum grows like sqrt(eps) above the eps = 0 optimum, so the
    # search must leave the eps = 0 seed even at eps = 1e-12
    for eps, gain in ((1e-9, 1e-5), (1e-12, 3e-7)):
        r = optimize_nonideal(eps)
        assert r.score >= oracles.OPT_SCORE + gain
        assert r.converged
        assert r.e10 <= eps and r.e01 <= eps
        # the Born rule sums O(1) terms, so it resolves e10 and e01 to
        # about 1e-16 absolute; the closed forms above hold them <= eps
        stats = _stats_from_ansatz(r.params)
        assert stats.e10 <= eps + 1e-15 and stats.e01 <= eps + 1e-15
        assert abs(stats.score - r.score) < 1e-12


def _central_jac(f, x, h=1e-6):
    """Central differences of f, scalar or vector valued, at the list x;
    one column per coordinate."""
    cols = []
    for i in range(len(x)):
        up, down = list(x), list(x)
        up[i] += h
        down[i] -= h
        cols.append((np.asarray(f(up)) - np.asarray(f(down))) / (2 * h))
    return np.array(cols).T


def test_analytic_gradients_match_central_differences():
    # the value-and-gradient callables in their chart coordinates, which
    # take every real (the slice chart is (u_a, theta) stretched tenfold);
    # the slice search on both planes m = +-sqrt(eps) for eps in (0, 0.5]
    rng = np.random.default_rng(21)
    eps_draws = np.concatenate([[0.5, 1e-12], rng.uniform(0.0, 0.5, size=48)])
    for eps in eps_draws:
        x = list(rng.uniform(-20 * np.pi, 20 * np.pi, size=4))
        fused = [("ideal", optimize._ideal_neg, 4), ("hardy", optimize._hardy_neg, 2)]
        fused += [(f"slice {sigma} eps={eps!r}",
                   functools.partial(optimize._slice_neg, float(eps), sigma), 2)
                  for sigma in (1.0, -1.0)]
        for name, fun, n in fused:
            err = np.abs(_central_jac(lambda y: fun(y)[0], x[:n]) - fun(x[:n])[1]).max()
            assert err <= 1e-7, (name, x[:n], err)


@pytest.mark.parametrize("sigma", [1.0, -1.0])
def test_slice_gradient_finite_where_the_radius_vanishes(sigma):
    # at eps = 1/2 the circle shrinks toward a point as alpha -> 0, which
    # u_a = 0 reaches up to _EDGE; the radius and its partial stay finite
    for theta in np.linspace(-np.pi, np.pi, 9):
        value, grad = optimize._slice_neg(0.5, sigma, [0.0, float(theta)])
        assert np.isfinite(value) and np.all(np.isfinite(grad)), theta


def test_charts_keep_the_box_and_invert_the_seeded_draws():
    # every real u, multiples of pi included, maps into [_EDGE, pi - _EDGE],
    # so MeasurementParams accepts every candidate of every search
    rng = np.random.default_rng(5)
    us = ([k * np.pi for k in range(-8, 9)] + [1e-300, -1e-300, 1e6, -1e300, 1e300]
          + list(rng.uniform(-50.0, 50.0, 500)))
    for u in us:
        a = optimize._angle(float(u))
        assert optimize._EDGE <= a <= np.pi - optimize._EDGE, u
        MeasurementParams(alpha=a, beta=a)
    # each start's seeded angle draws map into the chart through acos and back
    for k in range(64):
        rng = np.random.default_rng([0, k])
        for _ in range(2):
            a = rng.uniform(0.2, np.pi - 0.2)
            assert abs(optimize._angle(optimize._angle_inverse(a)) - a) <= 1e-15


def test_nonideal_monotone_in_eps():
    lo = optimize_nonideal(0.3)
    hi = optimize_nonideal(0.5)
    assert hi.score >= lo.score - 1e-9
    assert hi.score <= 1.0 + 1e-12


def test_nonideal_deterministic():
    a = optimize_nonideal(0.07)
    b = optimize_nonideal(0.07)
    assert a == b


def test_nonideal_rejects_out_of_range_eps():
    with pytest.raises(ValueError):
        optimize_nonideal(-0.01)
    with pytest.raises(ValueError):
        optimize_nonideal(0.51)


def test_ansatz_stats_closed_forms():
    rng = np.random.default_rng(4)
    for _ in range(200):
        a = float(rng.uniform(0.1, np.pi - 0.1))
        b = float(rng.uniform(0.1, np.pi - 0.1))
        t1, t2 = rng.uniform(0, np.pi, size=2)
        s01 = float(np.sin(t1) * np.cos(t2) / np.sqrt(2.0))
        s00 = float(np.cos(t1))
        s11 = float(np.sin(t1) * np.sin(t2))
        q, p, e10, e01 = ansatz_stats(a, b, s00, s01, s11)
        st = _stats_from_ansatz({"alpha": a, "beta": b, "phi": 0.0, "xi": 0.0,
                                 "s00": s00, "s01": s01, "s11": s11})
        assert abs(q - st.q) < 1e-12
        assert abs(p - st.p) < 1e-12
        assert abs(e10 - st.e10) < 1e-12
        assert abs(e01 - st.e01) < 1e-12


def test_sweep_single_ideal_point():
    recs = sweep_epsilon([0.0])
    assert len(recs) == 1
    r = recs[0]
    assert r.status == "ok"
    assert abs(r.local_bound) < 1e-9
    assert abs(r.quantum_lower - 0.1078127177489364) < 1e-6
    assert abs(r.quantum_upper - 0.1078127177489364) < 1e-4
    assert r.quantum_lower <= r.quantum_upper + 1e-6
    assert r.level == "2"


def test_sweep_grid_coincidence_and_monotonicity():
    grid = [0.0, 0.05, 0.10, 0.15]
    recs = sweep_epsilon(grid)
    lows = [r.quantum_lower for r in recs]
    for r in recs:
        assert r.status == "ok"
        assert abs(r.quantum_lower - r.quantum_upper) < 1e-5
        assert r.quantum_lower <= r.quantum_upper + 1e-6
        assert abs(r.local_bound - local_max_score(r.eps)) < 1e-12
    assert all(b >= a - 1e-9 for a, b in zip(lows, lows[1:]))


def test_sweep_rows_keep_bound_order_on_benchmark_grid():
    # the grid of the benchmark's sweep workload; the certified upper bound needs no slack against the lower bound
    for r in sweep_epsilon([0.0, 0.05, 0.1, 0.15]):
        assert r.status == "ok"
        assert r.local_bound <= r.quantum_lower <= r.quantum_upper


def test_sweep_flags_unconverged_and_inverted_upper(monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(npa, "IPM_MAX_ITER", 2)
        (r,) = sweep_epsilon([0.1])
    assert r.status == "error: npa MaxIter"
    assert r.quantum_upper >= r.quantum_lower  # still a certified bound
    solve = npa.solve  # with the real step cap again
    monkeypatch.setattr(npa, "solve", lambda p: dataclasses.replace(
        solve(p), value=0.0))
    (r,) = sweep_epsilon([0.1])
    assert r.status == "error: quantum_upper below quantum_lower"


def test_sweep_flags_lower_below_local():
    # the ansatz optimum falls below min(2 eps, 1) for eps above ~0.37
    (r,) = sweep_epsilon([0.45])
    assert r.quantum_lower < r.local_bound
    assert r.status == "error: quantum_lower below local_bound"


def test_sweep_rejects_bad_grid():
    with pytest.raises(ValueError):
        sweep_epsilon([0.2, 0.1])
    with pytest.raises(ValueError):
        sweep_epsilon([-0.1, 0.2])
    with pytest.raises(ValueError):
        sweep_epsilon([0.0, 0.6])


def test_hardy_matches_grid_oracle():
    r = optimize_hardy()
    assert abs(r.score - oracles.hardy_grid_oracle()) < 1e-6
    assert abs(r.score - oracles.HARDY_MAX) < 1e-8


def test_hardy_constraints_hold_exactly():
    r = optimize_hardy(starts=8)
    stats = _stats_from_constrained(r.params)
    assert stats.q < 1e-10
    assert stats.e10 < 1e-12 and stats.e01 < 1e-12
    assert abs(stats.p - r.score) < 1e-9


def test_hardy_state_has_exactly_zero_00_amplitude():
    # c is rounded up to the normalizability ceiling, so the |00> amplitude
    # is 0 and the Born rule reproduces the reported score
    for seed in range(30):
        r = optimize_hardy(starts=8, seed=seed)
        stats = _stats_from_constrained(r.params)
        assert stats.q <= 1e-12
        assert abs(stats.p - r.score) <= 1e-12


def test_hardy_strictly_below_cabello_optimum():
    r = optimize_hardy(starts=8)
    assert r.score < analytic_optimum().score - 1e-3


def test_optresult_json_shape(ideal):
    d = json.loads(ideal.to_json())
    assert list(d.keys()) == ["score", "params", "e10", "e01",
                              "starts_used", "converged"]
    assert isinstance(d["params"], dict)
