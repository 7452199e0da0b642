"""Tests for the grid-and-golden minimizer, the closed-form ideal and
Hardy optima, the nonideal slice search and the epsilon sweep."""

import dataclasses
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
    # the bracket closes when its trial points meet in floating point, so
    # a minimum at 0, where floats are dense, would run into the step cap
    r = minimize(lambda x: (x - 0.5) * (x - 0.5), -1.0, 1.0)
    assert r.fun <= 1e-15
    assert abs(r.x - 0.5) < 1e-7
    assert r.converged


def test_minimize_shifted_parabola():
    # a minimum off the grid, and one at the box end
    r = minimize(lambda x: (x - 3.0) ** 2, 0.0, 5.0)
    assert abs(r.x - 3.0) < 1e-7
    assert r.fun <= 1e-15
    assert r.converged
    r = minimize(lambda x: (x - 3.0) ** 2, 0.0, 2.0)
    assert r.x == 2.0 and r.converged


def test_minimize_refines_every_local_minimum_of_the_grid():
    # cos 3x + x/10 has three local minima on [0, 2 pi], each in its own
    # grid bracket; every bracket is refined, and the lowest wins
    f = lambda x: math.cos(3.0 * x) + 0.1 * x
    r = minimize(f, 0.0, 2 * math.pi)
    best = min(f(x) for x in np.linspace(0.0, 2 * math.pi, 200001))
    assert r.fun <= best and abs(r.x - 1.0360843806) < 1e-7
    assert r.nevals > optimize.GRID_POINTS + 3 * 60


def test_minimize_iteration_cap_flag(monkeypatch):
    # a golden-section bracket needs about 70 steps to close in floating
    # point; two steps per bracket do not
    monkeypatch.setattr(optimize, "GOLDEN_MAX_ITER", 2)
    r = minimize(lambda x: (x - 0.3) ** 2, 0.0, 1.0)
    assert not r.converged
    assert r.nit == 2
    assert r.nevals == optimize.GRID_POINTS + 2 + 2


def test_minimize_bitwise_deterministic():
    def f(x):
        return (x - 1.2) ** 2 + math.cos(3.0 * x)

    a = minimize(f, -2.0, 3.0)
    b = minimize(f, -2.0, 3.0)
    assert a == b


def _recording(monkeypatch):
    """Calls of ``optimize.minimize`` from here on, each with its result."""
    runs = []

    def recording(*args, **kwargs):
        runs.append(minimize(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(optimize, "minimize", recording)
    return runs


def test_every_slice_descent_converges(monkeypatch):
    # one grid-and-golden search per eps, every bracket closed by the
    # stopping test and none by the step cap
    runs = _recording(monkeypatch)
    for eps in (1e-12, 1e-9, 1e-6, 1e-3, 0.05, 0.1, 0.15, 0.3, 0.45, 0.5):
        runs.clear()
        r = optimize_nonideal(eps)
        assert len(runs) == 1 and r.starts_used == optimize.GRID_POINTS
        assert runs[0].converged and r.converged, eps
        assert runs[0].nevals <= 90, eps


def test_ideal_and_hardy_run_no_search(monkeypatch):
    # both optima come from closed forms, even in a fresh process
    optimize._ideal_candidate.cache_clear()
    runs = _recording(monkeypatch)
    for verb in (optimize_ideal, optimize_hardy):
        r = verb()
        assert r.starts_used == 0 and r.converged, verb.__name__
    assert runs == []


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


def test_ideal_angles_are_the_radicals_at_delta_pi(ideal):
    # alpha = beta is the closed form's float, bitwise; c and delta
    # maximize the score in closed form at those angles
    assert ideal.params["alpha"] == ideal.params["beta"] == analytic_optimum().alpha
    assert ideal.params["delta"] == np.pi
    assert abs(ideal.score - oracles.OPT_SCORE) <= 4.5e-16


def test_ideal_and_nonideal_share_one_eps_zero_candidate(monkeypatch):
    # the ideal verb reports the nonideal search's eps = 0 candidate, and
    # the nonideal search is the one search of the process
    optimize._ideal_candidate.cache_clear()
    runs = _recording(monkeypatch)
    r = optimize_ideal()
    optimize_nonideal(0.1)
    assert len(runs) == 1
    _, (_, _, s11, a, b) = optimize._ideal_candidate()
    assert (r.params["c"], r.params["alpha"], r.params["beta"]) == (s11, a, b)


def test_ideal_value_is_the_envelope_over_c_and_delta(ideal):
    # for fixed angles, the top eigenvalue is the family score maximized
    # over c up to the normalizability ceiling and over delta, and the
    # (c, pi) that the ideal verb reports attains it at its angles
    rng = np.random.default_rng(8)
    cs = np.linspace(0.0, 1.0, 41)
    deltas = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
    for a, b in rng.uniform(0.1, np.pi - 0.1, size=(200, 2)):
        env = oracles.family_envelope(a, b)
        c, d = np.meshgrid(cs / np.sqrt(1 + np.tan(a / 2) ** 2 + np.tan(b / 2) ** 2),
                           deltas)
        grid = closed_form_score(ConstrainedStateParams(
            c=c, delta=d, meas=MeasurementParams(alpha=np.full_like(c, a),
                                                 beta=np.full_like(c, b))))
        assert env >= grid.max(), (a, b)
    a, c = ideal.params["alpha"], ideal.params["c"]
    assert abs(ideal.score - oracles.family_envelope(a, a)) <= 1e-14
    assert ideal.score == closed_form_score(ConstrainedStateParams(
        c=c, delta=np.pi, meas=MeasurementParams(alpha=a, beta=a)))


def test_slice_point_at_eps_zero_is_the_envelope():
    # at equal angles the slice's closed form in theta at eps = 0 is the
    # same maximum over c and delta, with both constraints at zero, and
    # its |11> amplitude at delta = pi attains it in the family's chart
    for h in np.random.default_rng(3).uniform(0.05, np.pi / 2 - 0.05, size=200):
        a = 2 * float(h)
        value, amps = optimize._slice_point(0.0, float(h))
        assert abs(value - oracles.family_envelope(a, a)) <= 1e-14, h
        _, _, e10, e01 = ansatz_stats(a, a, *amps)
        assert e10 <= 1e-30 and e01 <= 1e-30
        assert abs(amps[0] ** 2 + 2 * amps[1] ** 2 + amps[2] ** 2 - 1.0) <= 1e-15
        score = closed_form_score(ConstrainedStateParams(
            c=abs(amps[2]), delta=np.pi, meas=MeasurementParams(alpha=a, beta=a)))
        assert abs(score - value) <= 1e-14, h


def test_slice_point_is_the_maximum_over_its_circle():
    # the secular equation's point against a dense scan of theta on the
    # circle of the tight slice
    rng = np.random.default_rng(17)
    th = np.linspace(0.0, 2 * np.pi, 20001)
    for eps, h in zip(rng.uniform(0.0, 0.5, size=50), rng.uniform(0.05, 1.5, size=50)):
        value, amps = optimize._slice_point(float(eps), float(h))
        ch, sh = np.cos(h), np.sin(h)
        n2 = 1 + sh * sh
        r, R = np.sqrt(eps), np.sqrt(1 - 2 * eps / n2)
        k = R * np.sin(th) / np.sqrt(n2)
        s00, s01, s11 = R * np.cos(th), r * ch / n2 + k * sh, 2 * r * sh / n2 - k * ch
        scan = ((ch * ch * s00 + 2 * ch * sh * s01 + sh * sh * s11) ** 2 - s00 ** 2).max()
        assert scan <= value + 1e-13, (eps, h)
        assert value - scan <= 1e-6, (eps, h)
        _, _, e10, _ = ansatz_stats(2 * h, 2 * h, *amps)
        assert abs(e10 - eps) <= 1e-15, (eps, h)


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
    assert optimize_ideal() == optimize_ideal()


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
    # the eps = 0 candidate is rounded so that its closed forms vanish
    r = optimize_nonideal(0.0)
    assert abs(r.score - ideal.score) < 1e-6
    assert r.e10 == 0.0 and r.e01 == 0.0


@pytest.mark.parametrize("eps", [5e-324, 1e-300, 1e-40, 1e-33, 1e-29, 1.2e-28, 1e-20,
                                 1e-12, 1e-9, 1e-6, 1e-3])
def test_nonideal_never_below_ideal_as_eps_vanishes(eps):
    # below about 1e-32 the polish cannot bring the slice point inside
    # the constraints, and the ideal score comes from the eps = 0
    # optimum, rounded so that its closed-form e10 = e01 is 0.0 exactly
    # (optimize._ideal_candidate): feasible at every eps by construction
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


@pytest.mark.parametrize("sigma", [1.0, -1.0])
def test_slice_gradient_finite_where_the_radius_vanishes(sigma):
    # at eps = 1/2 the circle shrinks toward a point as h -> 0, which the
    # search reaches up to _EDGE / 2; the value, the amplitudes and the
    # difference quotient in h stay finite there. The plane
    # m = -sqrt(eps) is the mirror image amps -> -amps of m = +sqrt(eps)
    # and gives the same p - q
    for h in (optimize._H_BOX[0], 1e-8, 1e-6, 1e-3, 0.1):
        value, amps = optimize._slice_point(0.5, h)
        assert np.isfinite(value) and np.all(np.isfinite(amps)), h
        step = h * 1e-3
        slope = (optimize._slice_point(0.5, h + step)[0] - value) / step
        assert np.isfinite(slope), h
        s00, s01, s11 = (sigma * s for s in amps)
        q, p, _, _ = ansatz_stats(2 * h, 2 * h, s00, s01, s11)
        assert abs((p - q) - value) <= 1e-15, h
        m = math.cos(h) * s01 + math.sin(h) * s11
        assert abs(m - sigma * math.sqrt(0.5)) <= 1e-12, h


def test_every_reported_angle_lies_in_the_open_box():
    # the half-angle box keeps alpha = 2h off 0 and pi, so MeasurementParams
    # accepts every point of every search, the box ends included
    for h in optimize._H_BOX:
        assert 0.0 < 2 * h < np.pi
        MeasurementParams(alpha=2 * h, beta=2 * h)
    results = [optimize_nonideal(eps) for eps in (0.0, 1e-30, 1e-6, 0.1, 0.45, 0.5)]
    for r in results + [optimize_ideal(), optimize_hardy()]:
        assert 0.0 < r.params["alpha"] == r.params["beta"] < np.pi


def test_nonideal_lower_column_does_not_dip_in_eps():
    # the lower column must not fall as eps grows; on log-spaced eps down
    # to 1e-40, where the slice polish and the exact-zero eps = 0
    # candidate hand over, it may fall only by rounding
    grid = np.logspace(-40, -1, 400)
    scores = [optimize_nonideal(float(e)).score for e in grid]
    drops = [(a - b, e) for a, b, e in zip(scores, scores[1:], grid[1:])]
    assert max(drops)[0] <= 1e-15, max(drops)


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


def test_hardy_angle_is_the_golden_ratio():
    # tan^2 h = phi maximizes p = s^2 (1 - s) / (1 + s), s = sin^2 h, at
    # (5 sqrt 5 - 11) / 2
    r = optimize_hardy()
    phi = (1 + math.sqrt(5)) / 2
    assert abs(math.tan(r.params["alpha"] / 2) ** 2 - phi) <= 1e-15
    assert abs(r.score - (5 * math.sqrt(5) - 11) / 2) <= 5e-16


def test_hardy_constraints_hold_exactly():
    r = optimize_hardy()
    stats = _stats_from_constrained(r.params)
    assert stats.q < 1e-10
    assert stats.e10 < 1e-12 and stats.e01 < 1e-12
    assert abs(stats.p - r.score) < 1e-9


def test_hardy_state_has_exactly_zero_00_amplitude():
    # c is rounded up to the normalizability ceiling, so the |00> amplitude
    # is 0 and the Born rule reproduces the reported p, at whatever
    # angles the search ends
    rng = np.random.default_rng(30)
    for a, b in rng.uniform(0.01, np.pi - 0.01, size=(30, 2)):
        p, (a, b, c) = optimize._hardy_point(a, b)
        stats = _stats_from_constrained({"alpha": a, "beta": b, "c": c,
                                         "delta": 0.0, "phi": 0.0, "xi": 0.0})
        assert stats.q <= 1e-12
        assert abs(stats.p - p) <= 1e-12


def test_hardy_zero_00_amplitude_holds_at_every_end_point():
    # c is rounded up by the radicand that constrained_state forms, so
    # the |00> amplitude is exactly 0 at any angles
    for a, b in np.random.default_rng(30).uniform(0.0, np.pi, size=(2000, 2)):
        _, (a, b, c) = optimize._hardy_point(a, b)
        state = constrained_state(ConstrainedStateParams(
            c=c, delta=0.0, meas=MeasurementParams(alpha=a, beta=b)))
        assert state[0] == 0, (a, b)


def test_hardy_strictly_below_cabello_optimum():
    r = optimize_hardy()
    assert r.score < analytic_optimum().score - 1e-3


def test_optresult_json_shape(ideal):
    d = json.loads(ideal.to_json())
    assert list(d.keys()) == ["score", "params", "e10", "e01",
                              "starts_used", "converged"]
    assert isinstance(d["params"], dict)
