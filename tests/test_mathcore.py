"""Tests for the LP solver and the gradient-based minimizer."""

import numpy as np
import pytest

from cabello import mathcore
from cabello.mathcore import (
    InfeasibleError,
    LPProblem,
    UnboundedError,
    minimize,
    solve_lp,
)

from oracles import lp_vertex_oracle


def test_solve_lp_single_variable():
    p = LPProblem(c=np.array([1.0]), A=np.array([[1.0]]), b=np.array([1.0]),
                  nonneg=np.array([True]))
    value, x = solve_lp(p)
    assert abs(value - 1.0) < 1e-9
    assert abs(x[0] - 1.0) < 1e-9


def test_solve_lp_degenerate_face():
    p = LPProblem(c=np.array([1.0, 1.0]), A=np.array([[1.0, 1.0]]),
                  b=np.array([1.0]), nonneg=np.array([True, True]))
    value, x = solve_lp(p)
    assert abs(value - 1.0) < 1e-9
    assert x.min() >= -1e-9


def test_solve_lp_infeasible():
    # x <= -1 with x >= 0
    p = LPProblem(c=np.array([1.0]), A=np.array([[1.0]]), b=np.array([-1.0]),
                  nonneg=np.array([True]))
    with pytest.raises(InfeasibleError):
        solve_lp(p)


def test_solve_lp_unbounded():
    # maximize x with only x >= 0
    p = LPProblem(c=np.array([1.0]), A=np.zeros((1, 1)), b=np.array([1.0]),
                  nonneg=np.array([True]))
    with pytest.raises(UnboundedError):
        solve_lp(p)


def test_solve_lp_dimension_mismatch():
    with pytest.raises(ValueError):
        LPProblem(c=np.array([1.0, 2.0]), A=np.array([[1.0]]),
                  b=np.array([1.0]), nonneg=np.array([True]))


def test_solve_lp_matches_vertex_enumeration():
    rng = np.random.default_rng(41)
    for _ in range(100):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(1, 5))
        A = rng.uniform(-0.5, 1.5, size=(m, n))
        A = np.vstack([A, np.ones((1, n))])  # keeps the region bounded
        b = np.concatenate([rng.uniform(0.2, 2.0, size=m), [rng.uniform(0.5, 3.0)]])
        c = rng.uniform(-1.0, 1.0, size=n)
        p = LPProblem(c=c, A=A, b=b, nonneg=np.ones(n, dtype=bool))
        value, x = solve_lp(p)
        ref = lp_vertex_oracle(c, A, b)
        assert ref is not None
        assert abs(value - ref) < 1e-8
        assert x.min() >= -1e-9
        assert (A @ x - b).max() < 1e-9


def test_minimize_quadratic_bowl():
    r = minimize(lambda x: float(x @ x), lambda x: 2 * x, np.array([1.0, 1.0]),
                 [(None, None)] * 2)
    assert r.fun <= 1e-12
    assert np.abs(r.x).max() < 1e-6
    assert r.converged


def test_minimize_shifted_parabola():
    r = minimize(lambda x: float((x[0] - 3.0) ** 2),
                 lambda x: np.array([2 * (x[0] - 3.0)]), np.array([0.0]),
                 [(-10.0, 10.0)])
    assert abs(r.x[0] - 3.0) < 1e-6
    assert r.fun <= 1e-12
    assert r.converged


def test_minimize_active_inequality():
    # min x^2 subject to x >= 1: the constraint is active at the optimum
    r = minimize(lambda x: float(x[0] ** 2), lambda x: 2 * x, np.array([3.0]),
                 [(None, None)], ineq=lambda x: np.array([x[0] - 1.0]),
                 ineq_jac=lambda x: np.array([[1.0]]))
    assert abs(r.x[0] - 1.0) < 1e-9
    assert abs(r.fun - 1.0) < 1e-9
    assert r.converged


def test_minimize_iteration_cap_flag(monkeypatch):
    # Rosenbrock needs far more than two SLSQP iterations from (-1.2, 1)
    monkeypatch.setattr(mathcore, "SLSQP_MAX_ITER", 2)
    f = lambda x: float(100 * (x[1] - x[0] ** 2) ** 2 + (1 - x[0]) ** 2)
    g = lambda x: np.array([-400 * x[0] * (x[1] - x[0] ** 2) - 2 * (1 - x[0]),
                            200 * (x[1] - x[0] ** 2)])
    r = minimize(f, g, np.array([-1.2, 1.0]), [(None, None)] * 2)
    assert not r.converged
    assert r.nevals > 0


def test_minimize_bitwise_deterministic():
    f = lambda x: float((x[0] - 1.2) ** 2 + (x[1] + 0.7) ** 4 + np.cos(x[0] * x[1]))
    g = lambda x: np.array([2 * (x[0] - 1.2) - x[1] * np.sin(x[0] * x[1]),
                            4 * (x[1] + 0.7) ** 3 - x[0] * np.sin(x[0] * x[1])])
    x0 = np.array([0.1, 0.9])
    bounds = [(-2.0, 2.0)] * 2
    a = minimize(f, g, x0, bounds)
    b = minimize(f, g, x0.copy(), bounds)
    assert np.array_equal(a.x, b.x)
    assert a.fun == b.fun
    assert a.nevals == b.nevals
