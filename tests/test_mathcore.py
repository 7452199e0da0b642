"""Tests for the dense linear-algebra and optimization kernels."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cabello import mathcore
from cabello.mathcore import (
    EIG_TOL,
    HermEig,
    InfeasibleError,
    LPProblem,
    NoConvergenceError,
    NotHermitianError,
    UnboundedError,
    dagger,
    frob,
    herm_eig,
    minimize,
    project_psd,
    solve_lp,
)

from oracles import lp_vertex_oracle, random_hermitian


def test_herm_eig_identity():
    r = herm_eig(np.eye(3, dtype=complex))
    assert_allclose(r.eigenvalues, [1.0, 1.0, 1.0], atol=1e-14)
    assert_allclose(r.eigenvectors @ dagger(r.eigenvectors), np.eye(3), atol=1e-13)


def test_herm_eig_diagonal_sorts_ascending():
    r = herm_eig(np.diag([2.0, -1.0]).astype(complex))
    assert_allclose(r.eigenvalues, [-1.0, 2.0], atol=1e-14)
    # basis vectors permuted to match the sorted eigenvalues
    assert abs(abs(r.eigenvectors[1, 0]) - 1.0) < 1e-14
    assert abs(abs(r.eigenvectors[0, 1]) - 1.0) < 1e-14


def test_herm_eig_pauli_x():
    h = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    r = herm_eig(h)
    assert_allclose(r.eigenvalues, [-1.0, 1.0], atol=1e-14)
    s = 1.0 / np.sqrt(2.0)
    for k, expect in enumerate((np.array([s, -s]), np.array([s, s]))):
        v = r.eigenvectors[:, k]
        overlap = abs(np.vdot(expect, v))
        assert abs(overlap - 1.0) < 1e-12


def test_herm_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitianError):
        herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


def test_herm_eig_rejects_non_square():
    with pytest.raises(ValueError):
        herm_eig(np.zeros((2, 3), dtype=complex))


def test_herm_eig_reconstruction_random():
    rng = np.random.default_rng(11)
    worst_rec = 0.0
    worst_orth = 0.0
    for _ in range(1000):
        h = random_hermitian(rng, 4)
        h *= min(1.0, 10.0 / max(frob(h), 1e-12))  # norm <= 10 as contracted
        r = herm_eig(h)
        rec = r.eigenvectors @ np.diag(r.eigenvalues) @ dagger(r.eigenvectors)
        worst_rec = max(worst_rec, frob(rec - h))
        worst_orth = max(worst_orth, frob(dagger(r.eigenvectors) @ r.eigenvectors - np.eye(4)))
        assert np.all(np.diff(r.eigenvalues) >= -1e-14)
    assert worst_rec < 1e-11
    assert worst_orth < 1e-11


def test_herm_eig_deterministic():
    rng = np.random.default_rng(5)
    h = random_hermitian(rng, 6)
    a = herm_eig(h)
    b = herm_eig(h.copy())
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.eigenvectors, b.eigenvectors)


def test_project_psd_already_psd():
    h = np.diag([3.0, 5.0]).astype(complex)
    assert_allclose(project_psd(h), h, atol=1e-13)


def test_project_psd_clips_negative_eigenvalue():
    assert_allclose(project_psd(np.diag([-1.0, 2.0]).astype(complex)),
                    np.diag([0.0, 2.0]), atol=1e-13)


def test_project_psd_offdiagonal():
    h = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    assert_allclose(project_psd(h), np.full((2, 2), 0.5), atol=1e-13)


def test_project_psd_idempotent_and_psd():
    rng = np.random.default_rng(23)
    for _ in range(200):
        h = random_hermitian(rng, 5)
        p = project_psd(h)
        assert herm_eig(p).eigenvalues.min() >= -1e-10
        assert frob(project_psd(p) - p) < 1e-10


def test_project_psd_is_frobenius_nearest():
    # nearest-PSD property: distance to the projection never exceeds the
    # distance to other PSD matrices sampled nearby
    rng = np.random.default_rng(3)
    h = random_hermitian(rng, 4)
    p = project_psd(h)
    d0 = frob(h - p)
    for _ in range(50):
        q = project_psd(p + random_hermitian(rng, 4, scale=0.1))
        assert frob(h - q) >= d0 - 1e-12


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
