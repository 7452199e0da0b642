"""Acceptance gate: one test per headline criterion, named so that the
verbose pytest report reads as a pass/fail line per criterion.

Each test also asserts its runtime budget, measured around the
expensive call it owns (shared fixtures charge their cost to the
criterion that mandates them).
"""

import time

import numpy as np
import pytest

from cabello.npa import npa_upper_bound
from cabello.optimize import (
    optimize_hardy,
    optimize_ideal,
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
from cabello.selftest import (
    assemble_direct_sum,
    block_extended_measurements,
    verify_selftest,
)

import oracles


def _split(proj):
    return (proj[0], proj[1]), (proj[2], proj[3])


def _stats(p: ConstrainedStateParams):
    b = behavior_from_quantum(constrained_state(p), *_split(projectors(p.meas)))
    return cabello_stats(b)


@pytest.fixture(scope="module")
def ideal_run():
    t0 = time.perf_counter()
    res = optimize_ideal()
    return res, time.perf_counter() - t0


@pytest.fixture(scope="module")
def sweep_run():
    grid = [0.0, 0.025, 0.05, 0.075, 0.1, 0.125, 0.15]
    t0 = time.perf_counter()
    recs = sweep_epsilon(grid, level="2")
    return recs, time.perf_counter() - t0


def test_criterion_01_example_point_3_80():
    t0 = time.perf_counter()
    m = MeasurementParams(alpha=np.pi / 3, beta=np.pi / 3,
                          phi=np.pi / 2, xi=np.pi / 2)
    p = ConstrainedStateParams(c=np.sqrt(9.0 / 15.0), delta=0.0, meas=m)
    score = _stats(p).score
    assert abs(score - 3.0 / 80.0) < 1e-12
    assert time.perf_counter() - t0 < 1.0


def test_criterion_02_qubit_optimum_via_multistart(ideal_run):
    res, elapsed = ideal_run
    opt = analytic_optimum()
    assert abs(res.score - opt.score) < 1e-7
    assert abs(res.params["alpha"] - res.params["beta"]) < 1e-6
    assert abs(res.params["alpha"] - opt.alpha) < 1e-6
    assert abs(res.params["c"] - opt.c) < 1e-6
    assert elapsed < 5.0


def test_criterion_03_optimal_state_reconstruction():
    t0 = time.perf_counter()
    opt = analytic_optimum()
    m = MeasurementParams(alpha=opt.alpha, beta=opt.beta, phi=0.0, xi=0.0)
    state = constrained_state(
        ConstrainedStateParams(c=opt.c, delta=np.pi, meas=m))
    mags = np.abs(state)
    kappas = np.abs([opt.kappa00, opt.kappa01, opt.kappa01, opt.kappa11])
    assert np.abs(mags - kappas).max() < 1e-6
    # four-decimal printed approximations
    assert np.abs(mags - [0.1573, 0.5781, 0.5781, 0.5539]).max() < 1e-4
    # resolved signs: amplitudes at delta = pi are real with kappa signs
    assert np.abs(state.real - [opt.kappa00, opt.kappa01, opt.kappa01,
                                opt.kappa11]).max() < 1e-10
    assert np.abs(state.imag).max() < 1e-12
    assert time.perf_counter() - t0 < 1.0


def test_criterion_04_formula_simulation_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = 0.0
    worst_constraint = 0.0
    for _ in range(1000):
        m = MeasurementParams(alpha=float(rng.uniform(0.05, np.pi - 0.05)),
                              beta=float(rng.uniform(0.05, np.pi - 0.05)),
                              phi=float(rng.uniform(0, 2 * np.pi)),
                              xi=float(rng.uniform(0, 2 * np.pi)))
        cmax = 1.0 / np.sqrt(1.0 + np.tan(m.alpha / 2) ** 2
                             + np.tan(m.beta / 2) ** 2)
        p = ConstrainedStateParams(c=float(rng.uniform(0.0, 0.999) * cmax),
                                   delta=float(rng.uniform(0, 2 * np.pi)),
                                   meas=m)
        st = _stats(p)
        worst = max(worst, abs(closed_form_score(p) - st.score))
        worst_constraint = max(worst_constraint, st.e10, st.e01)
    assert worst < 1e-10
    assert worst_constraint < 1e-12
    assert time.perf_counter() - t0 < 5.0


def test_criterion_05_local_bound_lp():
    t0 = time.perf_counter()
    for eps in (0.0, 0.05, 0.1, 0.25):
        assert abs(local_max_score(eps) - 2.0 * eps) < 1e-9
    for eps in np.linspace(0.0, 0.5, 51):
        assert local_max_score(float(eps)) <= 2.0 * eps + 1e-9
    assert time.perf_counter() - t0 < 1.0


def test_criterion_06_device_independent_sandwich(ideal_run):
    res, _ = ideal_run
    t0 = time.perf_counter()
    upper2 = npa_upper_bound("2", eps=0.0)
    level2_time = time.perf_counter() - t0
    assert upper2 >= res.score - 1e-6
    assert level2_time < 30.0
    gap = upper2 - res.score
    if gap > 1e-4:
        t0 = time.perf_counter()
        upper3 = npa_upper_bound("3", eps=0.0)
        assert time.perf_counter() - t0 < 600.0
        assert upper3 >= res.score - 1e-6
        assert upper3 - res.score <= 1e-6


def test_criterion_07_nonideal_curve_reproduction(sweep_run):
    recs, elapsed = sweep_run
    assert [r.eps for r in recs] == [0.0, 0.025, 0.05, 0.075, 0.1, 0.125, 0.15]
    lows = [r.quantum_lower for r in recs]
    for r in recs:
        assert r.status == "ok"
        assert abs(r.quantum_lower - r.quantum_upper) < 1e-4
        assert r.local_bound == local_max_score(r.eps)
    assert all(b >= a - 1e-9 for a, b in zip(lows, lows[1:]))
    assert elapsed < 900.0


def test_criterion_08_selftest_fidelity_and_additivity():
    t0 = time.perf_counter()
    for weights in ([1.0], [0.5, 0.5], [0.3, 0.7],
                    [0.1, 0.2, 0.3, 0.4]):  # last one: local dims 8
        rep = verify_selftest(assemble_direct_sum(weights))
        assert rep.fidelity >= 1.0 - 1e-9
    opt_score = analytic_optimum().score
    for mu in ([0.3, 0.7], np.array([[0.2, 0.3], [0.1, 0.4]])):
        s = assemble_direct_sum(mu)
        na, nb = s.mu.shape
        pa, pb = block_extended_measurements(na, nb)
        stats = cabello_stats(behavior_from_quantum(s.vector(), pa, pb))
        weighted = float(np.asarray(s.mu).sum()) * opt_score
        assert abs(stats.score - weighted) < 1e-10
    assert time.perf_counter() - t0 < 5.0


def test_criterion_09_hardy_regression():
    t0 = time.perf_counter()
    res = optimize_hardy()
    oracle = oracles.hardy_grid_oracle()
    assert abs(res.score - oracle) < 1e-6
    assert analytic_optimum().score > res.score
    assert time.perf_counter() - t0 < 10.0


def test_criterion_10_property_suites_condensed():
    # seeded spot versions of the randomized invariants; the full
    # versions run in the per-module test files within the same session
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)

    # behavior normalization and no-signalling
    for _ in range(50):
        m = MeasurementParams(alpha=float(rng.uniform(0.1, np.pi - 0.1)),
                              beta=float(rng.uniform(0.1, np.pi - 0.1)),
                              phi=float(rng.uniform(0, 2 * np.pi)),
                              xi=float(rng.uniform(0, 2 * np.pi)))
        cmax = 1.0 / np.sqrt(1.0 + np.tan(m.alpha / 2) ** 2
                             + np.tan(m.beta / 2) ** 2)
        p = ConstrainedStateParams(c=float(rng.uniform(0, 0.99) * cmax),
                                   delta=float(rng.uniform(0, 2 * np.pi)), meas=m)
        b = behavior_from_quantum(constrained_state(p), *_split(projectors(m)))
        for x in range(2):
            for y in range(2):
                assert abs(b.p[x, y].sum() - 1.0) < 1e-9
        for x in range(2):
            assert np.abs(b.p[x, 0].sum(axis=1) - b.p[x, 1].sum(axis=1)).max() < 1e-9
        for y in range(2):
            assert np.abs(b.p[0, y].sum(axis=0) - b.p[1, y].sum(axis=0)).max() < 1e-9

    # unitary invariance of the statistics
    m = MeasurementParams(alpha=1.3, beta=0.9, phi=0.2, xi=3.3)
    p = ConstrainedStateParams(c=0.35, delta=1.0, meas=m)
    state = constrained_state(p)
    pa, pb = _split(projectors(m))
    base = behavior_from_quantum(state, pa, pb)
    for _ in range(20):
        ua = oracles.random_local_unitary(rng, 2)
        ub = oracles.random_local_unitary(rng, 2)
        pa2 = tuple((ua @ e0 @ ua.conj().T, ua @ e1 @ ua.conj().T)
                    for e0, e1 in pa)
        pb2 = tuple((ub @ e0 @ ub.conj().T, ub @ e1 @ ub.conj().T)
                    for e0, e1 in pb)
        b2 = behavior_from_quantum(np.kron(ua, ub) @ state, pa2, pb2)
        assert np.abs(b2.p - base.p).max() < 1e-10

    # NPA level and eps monotonicity
    assert npa_upper_bound("1+AB", eps=0.0) <= npa_upper_bound("1", eps=0.0) + 1e-6
    assert npa_upper_bound("1", eps=0.1) >= npa_upper_bound("1", eps=0.0) - 1e-6

    assert time.perf_counter() - t0 < 120.0
