"""Tests for the constrained two-qubit family, the closed-form score,
the analytic optimum, the ansatz family and the projective
measurements."""

import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cabello.qubit import (
    AnsatzParams,
    ConstrainedStateParams,
    MeasurementParams,
    NotNormalizableError,
    NotNormalizedError,
    OutOfRangeError,
    analytic_optimum,
    ansatz_state,
    closed_form_score,
    constrained_state,
    projectors,
)
from cabello.scenario import behavior_from_quantum, cabello_stats

import oracles


def _split(proj):
    return (proj[0], proj[1]), (proj[2], proj[3])


def _simulated_stats(p: ConstrainedStateParams):
    proj = projectors(p.meas)
    b = behavior_from_quantum(constrained_state(p), *_split(proj))
    return cabello_stats(b)


def _random_params(rng, margin=0.05):
    m = MeasurementParams(alpha=float(rng.uniform(margin, np.pi - margin)),
                          beta=float(rng.uniform(margin, np.pi - margin)),
                          phi=float(rng.uniform(0.0, 2 * np.pi)),
                          xi=float(rng.uniform(0.0, 2 * np.pi)))
    cmax = 1.0 / np.sqrt(1.0 + np.tan(m.alpha / 2) ** 2 + np.tan(m.beta / 2) ** 2)
    return ConstrainedStateParams(c=float(rng.uniform(0.0, 0.999) * cmax),
                                  delta=float(rng.uniform(0.0, 2 * np.pi)),
                                  meas=m)


def test_projectors_hadamard_limit():
    m = MeasurementParams(alpha=np.pi / 2, beta=1.0, phi=0.0, xi=0.0)
    a1_plus = projectors(m)[1][0]
    v = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    assert_allclose(a1_plus, np.outer(v, v.conj()), atol=1e-13)


def test_projectors_complete_and_idempotent():
    rng = np.random.default_rng(9)
    for _ in range(100):
        m = MeasurementParams(alpha=float(rng.uniform(0.01, np.pi - 0.01)),
                              beta=float(rng.uniform(0.01, np.pi - 0.01)),
                              phi=float(rng.uniform(0, 2 * np.pi)),
                              xi=float(rng.uniform(0, 2 * np.pi)))
        for plus, minus in projectors(m):
            assert_allclose(plus + minus, np.eye(2), atol=1e-12)
            assert_allclose(plus @ plus, plus, atol=1e-12)
            assert_allclose(minus @ minus, minus, atol=1e-12)


def test_projectors_at_optimal_angle():
    opt = analytic_optimum()
    m = MeasurementParams(alpha=opt.alpha, beta=opt.alpha, phi=0.3, xi=4.0)
    for plus, minus in projectors(m):
        assert_allclose(plus + minus, np.eye(2), atol=1e-12)


def test_measurement_params_range_checks():
    with pytest.raises(OutOfRangeError):
        MeasurementParams(alpha=0.0, beta=1.0, phi=0.0, xi=0.0)
    with pytest.raises(OutOfRangeError):
        MeasurementParams(alpha=1.0, beta=np.pi, phi=0.0, xi=0.0)
    with pytest.raises(OutOfRangeError):
        MeasurementParams(alpha=1.0, beta=1.0, phi=-0.1, xi=0.0)
    with pytest.raises(OutOfRangeError):
        MeasurementParams(alpha=1.0, beta=1.0, phi=0.0, xi=2 * np.pi)


def test_constrained_state_c_zero_is_product():
    m = MeasurementParams(alpha=1.0, beta=2.0, phi=0.5, xi=1.5)
    p = ConstrainedStateParams(c=0.0, delta=0.8, meas=m)
    state = constrained_state(p)
    expect = np.zeros(4, dtype=complex)
    expect[0] = np.exp(1j * 0.8)
    assert_allclose(state, expect, atol=1e-14)
    assert abs(closed_form_score(p)) < 1e-12 or closed_form_score(p) <= 0.0


def test_constrained_state_normalized_and_orthogonal():
    rng = np.random.default_rng(31)
    for _ in range(200):
        p = _random_params(rng)
        state = constrained_state(p)
        assert abs(np.vdot(state, state).real - 1.0) < 1e-12
        # the two zero-probability conditions, checked against raw kets
        proj = projectors(p.meas)
        a1_plus = proj[1][0]
        b1_plus = proj[3][0]
        ket1 = np.array([0.0, 1.0], dtype=complex)
        e10 = state.conj() @ np.kron(a1_plus, np.outer(ket1, ket1.conj())) @ state
        e01 = state.conj() @ np.kron(np.outer(ket1, ket1.conj()), b1_plus) @ state
        assert abs(e10) < 1e-12
        assert abs(e01) < 1e-12


def test_constrained_state_rejects_oversized_c():
    m = MeasurementParams(alpha=2.5, beta=2.5, phi=0.0, xi=0.0)
    with pytest.raises(NotNormalizableError):
        constrained_state(ConstrainedStateParams(c=0.9, delta=0.0, meas=m))


def test_score_3_80_example():
    m = MeasurementParams(alpha=np.pi / 3, beta=np.pi / 3,
                          phi=np.pi / 2, xi=np.pi / 2)
    p = ConstrainedStateParams(c=np.sqrt(9.0 / 15.0), delta=0.0, meas=m)
    assert abs(closed_form_score(p) - 3.0 / 80.0) < 1e-12
    assert abs(_simulated_stats(p).score - 3.0 / 80.0) < 1e-12


def test_score_c_zero_closed_form():
    rng = np.random.default_rng(77)
    for _ in range(50):
        a = float(rng.uniform(0.1, np.pi - 0.1))
        b = float(rng.uniform(0.1, np.pi - 0.1))
        m = MeasurementParams(alpha=a, beta=b, phi=0.0, xi=0.0)
        p = ConstrainedStateParams(c=0.0, delta=0.0, meas=m)
        expect = (np.cos(a) * np.cos(b) + np.cos(a) + np.cos(b) - 3.0) / 4.0
        assert abs(closed_form_score(p) - expect) < 1e-12
        assert expect <= 0.0


def test_score_formula_matches_simulation():
    rng = np.random.default_rng(123)
    worst = 0.0
    worst_constraint = 0.0
    for _ in range(1000):
        p = _random_params(rng)
        stats = _simulated_stats(p)
        worst = max(worst, abs(closed_form_score(p) - stats.score))
        worst_constraint = max(worst_constraint, stats.e10, stats.e01)
    assert worst < 1e-10
    assert worst_constraint < 1e-12


_FIELDS = ("alpha", "beta", "phi", "xi", "c", "delta")


def _columns(params):
    """The fields of scalar params as strided columns of one array, the
    layout verify-formula draws its batches in."""
    rows = np.array([[p.meas.alpha, p.meas.beta, p.meas.phi, p.meas.xi, p.c, p.delta]
                     for p in params])
    return dict(zip(_FIELDS, rows.T))


def _batch(cols):
    return ConstrainedStateParams(
        c=cols["c"], delta=cols["delta"],
        meas=MeasurementParams(alpha=cols["alpha"], beta=cols["beta"],
                               phi=cols["phi"], xi=cols["xi"]))


def test_batch_equals_the_scalar_calls_bitwise():
    rng = np.random.default_rng(77)
    params = [_random_params(rng) for _ in range(1000)]
    batch = _batch(_columns(params))
    score, state = closed_form_score(batch), constrained_state(batch)
    assert score.shape == (1000,) and state.shape == (1000, 4)
    assert score.tobytes() == np.array([closed_form_score(p) for p in params]).tobytes()
    assert state.tobytes() == np.array([constrained_state(p) for p in params]).tobytes()
    assert type(closed_form_score(params[0])) is float


@pytest.mark.parametrize("field, value, error", [
    ("alpha", np.nan, OutOfRangeError),
    ("alpha", 0.0, OutOfRangeError),
    ("delta", 2 * np.pi, OutOfRangeError),
    ("c", 1.0, NotNormalizableError),    # oversized for any angles
])
def test_one_bad_sample_fails_the_batch(field, value, error):
    rng = np.random.default_rng(78)
    cols = _columns([_random_params(rng) for _ in range(50)])
    cols[field][17] = value
    for fn in (closed_form_score, constrained_state):
        # the message cites the bad sample, not the whole batch
        with pytest.raises(error, match=re.escape(str(value))):
            fn(_batch(cols))


def test_score_depends_on_phase_sum_only():
    rng = np.random.default_rng(55)
    for _ in range(100):
        p = _random_params(rng)
        t = float(rng.uniform(-3.0, 3.0))
        m = p.meas
        m2 = MeasurementParams(alpha=m.alpha, beta=m.beta,
                               phi=(m.phi - t) % (2 * np.pi), xi=m.xi)
        p2 = ConstrainedStateParams(c=p.c, delta=(p.delta + t) % (2 * np.pi),
                                    meas=m2)
        assert abs(closed_form_score(p) - closed_form_score(p2)) < 1e-12


def test_optimum_matches_frozen_radicals():
    opt = analytic_optimum()
    assert abs(opt.score - oracles.OPT_SCORE) < 1e-14
    assert abs(opt.alpha - oracles.OPT_ALPHA) < 1e-14
    assert abs(opt.beta - opt.alpha) == 0.0
    assert abs(opt.c - oracles.OPT_C) < 1e-14
    assert abs(opt.kappa00 - oracles.OPT_K00) < 1e-11  # cancellation-limited
    assert abs(opt.kappa01 - oracles.OPT_K01) < 1e-12
    assert opt.kappa11 == opt.c


def test_optimum_matches_printed_approximations():
    opt = analytic_optimum()
    assert abs(opt.score - 0.1078) < 5e-5
    assert abs(opt.alpha - 1.6136) < 5e-5
    assert abs(opt.c - 0.5539) < 5e-5
    assert abs(opt.kappa00 - (-0.1573)) < 5e-5
    assert abs(opt.kappa01 - (-0.5781)) < 5e-5


def test_optimum_score_agrees_with_closed_form_at_optimal_point():
    opt = analytic_optimum()
    m = MeasurementParams(alpha=opt.alpha, beta=opt.beta, phi=0.0, xi=0.0)
    # the optimizing phase relation: delta + phi + xi = pi
    p = ConstrainedStateParams(c=opt.c, delta=np.pi, meas=m)
    assert abs(closed_form_score(p) - opt.score) < 1e-12
    assert abs(_simulated_stats(p).score - opt.score) < 1e-12


def test_optimum_kappas_match_family_state():
    # the kappa radicals must reproduce the constrained-family amplitudes
    # at the optimal parameters, including signs
    opt = analytic_optimum()
    m = MeasurementParams(alpha=opt.alpha, beta=opt.beta, phi=0.0, xi=0.0)
    p = ConstrainedStateParams(c=opt.c, delta=np.pi, meas=m)
    state = constrained_state(p)
    # delta = pi makes the leading amplitude real negative
    assert abs(state[0].real - opt.kappa00) < 1e-11
    assert abs(state[0].imag) < 1e-12
    assert abs(state[1].real - opt.kappa01) < 1e-12
    assert abs(state[2].real - opt.kappa01) < 1e-12
    assert abs(state[3].real - opt.kappa11) < 1e-12


def test_optimum_is_a_local_maximum_of_the_score():
    opt = analytic_optimum()
    base = opt.score
    for da, dc in ((1e-4, 0.0), (-1e-4, 0.0), (0.0, 1e-4), (0.0, -1e-4)):
        m = MeasurementParams(alpha=opt.alpha + da, beta=opt.beta + da,
                              phi=0.0, xi=0.0)
        p = ConstrainedStateParams(c=opt.c + dc, delta=np.pi, meas=m)
        assert closed_form_score(p) <= base + 1e-9


def test_ansatz_basic_states():
    p = AnsatzParams(s00=1.0, s01=0.0, s11=0.0, phi=0.0, xi=0.0)
    assert_allclose(ansatz_state(p), [1, 0, 0, 0], atol=1e-14)
    with pytest.raises(NotNormalizedError):
        ansatz_state(AnsatzParams(s00=1.0, s01=0.5, s11=0.0, phi=0.0, xi=0.0))


def test_ansatz_reproduces_optimal_state():
    opt = analytic_optimum()
    p = AnsatzParams(s00=opt.kappa00, s01=opt.kappa01, s11=opt.kappa11,
                     phi=0.0, xi=0.0)
    assert p.norm_defect() < 1e-10
    state = ansatz_state(p)
    expect = np.array([opt.kappa00, opt.kappa01, opt.kappa01, opt.kappa11])
    assert_allclose(state.real, expect, atol=1e-10)
    assert np.abs(state.imag).max() < 1e-14


def test_ansatz_swap_symmetric_when_phases_equal():
    p = AnsatzParams(s00=0.5, s01=np.sqrt(0.25), s11=np.sqrt(0.25),
                     phi=1.2, xi=1.2)
    state = ansatz_state(p)
    swapped = state.reshape(2, 2).T.reshape(4)
    assert_allclose(state, swapped, atol=1e-14)


def test_ansatz_phases_enter_as_stated():
    p = AnsatzParams(s00=0.6, s01=0.4, s11=np.sqrt(1 - 0.36 - 2 * 0.16),
                     phi=0.7, xi=2.1)
    state = ansatz_state(p)
    assert_allclose(state[0], 0.6 * np.exp(-1j * (0.7 + 2.1)), atol=1e-14)
    assert_allclose(state[1], 0.4 * np.exp(-1j * 0.7), atol=1e-14)
    assert_allclose(state[2], 0.4 * np.exp(-1j * 2.1), atol=1e-14)
    assert_allclose(state[3], p.s11, atol=1e-14)
