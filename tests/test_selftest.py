"""Tests for direct-sum assembly and the self-testing verification:
the ancilla extraction's index map against the permutation-matrix
isometries of the reference, fidelities, weights and the JSON report."""

import json
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cabello import selftest
from cabello.qubit import analytic_optimum
from cabello.scenario import behavior_from_quantum, cabello_stats
from cabello.selftest import (
    BadWeightsError,
    BasisMismatchError,
    DirectSumState,
    assemble_direct_sum,
    block_extended_measurements,
    optimal_block_state,
    verify_selftest,
)

import oracles

OPT = analytic_optimum()


def test_assemble_single_weight_is_optimal_state():
    s = assemble_direct_sum([1.0])
    assert s.dims == (2, 2)
    assert_allclose(s.vector(), optimal_block_state(), atol=1e-14)
    kappas = np.array([OPT.kappa00, OPT.kappa01, OPT.kappa01, OPT.kappa11])
    assert np.abs(s.vector().real - kappas).max() < 1e-11


def test_assemble_scores_weighted_blocks():
    for weights in ([1.0], [0.5, 0.5], [0.3, 0.7]):
        s = assemble_direct_sum(weights)
        na, nb = s.mu.shape
        pa, pb = block_extended_measurements(na, nb)
        stats = cabello_stats(behavior_from_quantum(s.vector(), pa, pb))
        # per-block score is the optimum, so the weighted sum is too
        expect = sum(w * OPT.score for w in weights)
        assert abs(stats.score - expect) < 1e-10
        assert stats.e10 < 1e-12 and stats.e01 < 1e-12


def test_assemble_matrix_weights_and_norm():
    mu = np.array([[0.2, 0.3], [0.1, 0.4]])
    s = assemble_direct_sum(mu)
    assert s.dims == (4, 4)
    v = s.vector()
    assert abs(np.vdot(v, v).real - 1.0) < 1e-12
    # block occupancies reproduce the weights
    chi = v.reshape(4, 4)
    for i in range(2):
        for j in range(2):
            blk = chi[2 * i:2 * i + 2, 2 * j:2 * j + 2]
            assert abs(np.linalg.norm(blk) ** 2 - mu[i, j]) < 1e-12


def test_vector_places_each_weighted_block():
    # the array form of vector() against one block at a time; empty
    # cells (weight <= 1e-12, negative within tolerance, or a NaN
    # placeholder state) stay +0
    rng = np.random.default_rng(5)
    for na, nb in ((2, 3), (3, 4), (4, 2)):
        mu = rng.uniform(0.1, 1.0, size=(na, nb))
        mu.flat[::3] = (0.0, 1e-320, -1e-13, 0.0)[:len(mu.flat[::3])]
        mu /= mu.sum()
        bs = rng.normal(size=(na, nb, 4)) + 1j * rng.normal(size=(na, nb, 4))
        bs /= np.linalg.norm(bs, axis=2, keepdims=True)
        bs[mu <= 1e-12] = np.nan
        want = np.zeros((2 * na, 2 * nb), dtype=complex)
        for i, j in np.ndindex(na, nb):
            if mu[i, j] > 1e-12:
                want[2 * i:2 * i + 2, 2 * j:2 * j + 2] = (
                    np.sqrt(mu[i, j]) * bs[i, j].reshape(2, 2))
        got = DirectSumState(mu=mu, block_states=bs).vector()
        assert got.tobytes() == want.reshape(-1).tobytes(), (na, nb)


def test_inf_placeholder_in_an_empty_cell_builds_without_warning():
    # only occupied cells are normed, so an inf placeholder in a
    # zero-weight cell raises no RuntimeWarning and is never read
    good = optimal_block_state()
    bs = np.stack([good, np.full(4, np.inf, dtype=complex)]).reshape(2, 1, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = DirectSumState(mu=[[1.0], [0.0]], block_states=bs).vector()
    bs[1, 0] = 0.0
    want = DirectSumState(mu=[[1.0], [0.0]], block_states=bs).vector()
    assert got.tobytes() == want.tobytes()


def test_a_cell_at_or_below_1e_12_is_neither_checked_nor_read():
    # the validation, the ancilla pair and the report share one rule for
    # an occupied cell, so a placeholder under a weight of at most 1e-12,
    # inf or unnormalized, is never read
    good = optimal_block_state()
    want = verify_selftest(DirectSumState(mu=[[1.0], [0.0]],
                                          block_states=np.stack([good, good])[:, None]))
    for weight in (1e-12, 1e-13, 1e-200):
        for junk in (np.full(4, np.inf, dtype=complex), 2 * good):
            bs = np.stack([good, junk]).reshape(2, 1, 4)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                state = DirectSumState(mu=[[1.0 - weight], [weight]], block_states=bs)
                rep = verify_selftest(state)
                vec = state.vector()
            assert np.isfinite(vec).all() and not vec[4:].any(), (weight, junk)
            assert abs(rep.fidelity - want.fidelity) <= 1e-11, (weight, junk)
            assert [b["i"] for b in rep.blocks] == [0], (weight, junk)


def test_assemble_rejects_bad_weights():
    with pytest.raises(BadWeightsError):
        assemble_direct_sum([0.5, 0.4])
    with pytest.raises(BadWeightsError):
        assemble_direct_sum([1.5, -0.5])
    with pytest.raises(BadWeightsError):
        assemble_direct_sum([])


def test_extraction_isometry_qubit_action():
    phi_a, _ = oracles.extraction_isometry(2, 2)
    # basis order (system, ancilla): |0,0>, |0,1>, |1,0>, |1,1>
    e = np.eye(4)
    assert_allclose(phi_a @ e[0], e[0], atol=1e-14)   # |0,0> -> |0,0>
    assert_allclose(phi_a @ e[2], e[1], atol=1e-14)   # |1,0> -> |0,1>


def test_extraction_isometry_is_isometric():
    for d in (2, 4, 6):
        for m in oracles.extraction_isometry(d, d):
            assert m.shape == (2 * d, 2 * d)
            assert np.abs(m.conj().T @ m - np.eye(2 * d)).max() < 1e-12


def test_index_map_equals_the_isometry_matrices():
    # the ancilla pair of verify_selftest against pushing the state and
    # |00> through the permutation matrices of the reference; random
    # block states and weights on every block pair, nonzero phases
    rng = np.random.default_rng(17)
    for na, nb in ((1, 1), (1, 3), (2, 2), (3, 2), (4, 1), (3, 5)):
        mu = rng.uniform(0.1, 1.0, size=(na, nb))
        mu /= mu.sum()
        bs = rng.normal(size=(na, nb, 4)) + 1j * rng.normal(size=(na, nb, 4))
        bs /= np.linalg.norm(bs, axis=2, keepdims=True)
        phi, xi = rng.uniform(0.1, 2 * np.pi, size=2)
        state = DirectSumState(mu=mu, block_states=bs, phi=phi, xi=xi)
        da, db = state.dims
        phi_a, phi_b = oracles.extraction_isometry(da, db)
        full = np.zeros((da, 2, db, 2), dtype=complex)
        full[:, 0, :, 0] = state.vector().reshape(da, db)
        out = phi_a @ full.reshape(2 * da, 2 * db) @ phi_b.T
        anc = out.reshape(da, 2, db, 2).transpose(1, 3, 0, 2).reshape(4, da * db)
        want = anc @ anc.conj().T
        assert np.abs(selftest._ancilla_pair(state) - want).max() <= 1e-15, (na, nb)


def _ancilla_pair_via_vector(state):
    """The ancilla pair from the global vector, permuted back into
    (ancilla pair, junk) order: the reference for the blockwise read."""
    na, nb = state.mu.shape
    anc = state.vector().reshape(na, 2, nb, 2).transpose(1, 3, 0, 2).reshape(4, na * nb)
    return anc @ anc.conj().T


def test_ancilla_pair_equals_the_global_vector_route_bitwise():
    # the empty cell holds an inf placeholder, which must read as +0
    bs = np.broadcast_to(optimal_block_state(0.4, 1.1), (2, 2, 4)).copy()
    bs[0, 1] = np.inf
    states = [assemble_direct_sum([1.0]),
              assemble_direct_sum([0.3, 0.7], phases=(1.0, 2.0)),
              assemble_direct_sum([1 / 8] * 8),
              assemble_direct_sum([1 / 64] * 64),
              assemble_direct_sum([[0.1, 0.2], [0.3, 0.4]]),
              DirectSumState(mu=[[0.5, 0.0], [0.25, 0.25]], block_states=bs, phi=0.4, xi=1.1)]
    for state in states:
        got, want = selftest._ancilla_pair(state), _ancilla_pair_via_vector(state)
        assert np.isfinite(want).all()
        assert got.shape == want.shape == (4, 4)
        assert got.tobytes() == want.tobytes(), state.mu.shape


def test_verify_trivial_direct_sum():
    rep = verify_selftest(assemble_direct_sum([1.0]))
    assert abs(rep.fidelity - 1.0) < 1e-12
    assert rep.junk_dims == (2, 2)  # ambient local dims


def test_verify_even_split():
    rep = verify_selftest(assemble_direct_sum([0.5, 0.5]))
    assert rep.fidelity >= 1.0 - 1e-9
    assert rep.junk_dims == (4, 4)


def test_verify_uneven_split():
    rep = verify_selftest(assemble_direct_sum([0.3, 0.7]))
    assert rep.fidelity >= 1.0 - 1e-9


def test_verify_with_phases():
    rep = verify_selftest(assemble_direct_sum([0.4, 0.6], phases=(0.7, 2.1)))
    assert rep.fidelity >= 1.0 - 1e-9


def test_verify_random_weight_vectors():
    rng = np.random.default_rng(20)
    for _ in range(50):
        n = int(rng.integers(1, 5))  # ambient dims up to 8
        w = rng.uniform(0.05, 1.0, size=n)
        w /= w.sum()
        rep = verify_selftest(assemble_direct_sum(w.tolist()))
        assert rep.fidelity >= 1.0 - 1e-9
        assert -1e-12 <= rep.fidelity <= 1.0 + 1e-12
        assert rep.junk_dims == (2 * n, 2 * n)


def test_verify_score_additivity():
    # the assembled state's score equals the mu-weighted block sum
    rng = np.random.default_rng(44)
    for _ in range(10):
        mu = rng.uniform(0.1, 1.0, size=(2, 2))
        mu /= mu.sum()
        s = assemble_direct_sum(mu)
        pa, pb = block_extended_measurements(2, 2)
        stats = cabello_stats(behavior_from_quantum(s.vector(), pa, pb))
        assert abs(stats.score - mu.sum() * OPT.score) < 1e-10


def _rotated_block_state(theta: float) -> np.ndarray:
    psi = optimal_block_state()
    e0 = np.zeros(4, dtype=complex)
    e0[0] = 1.0
    orth = e0 - np.vdot(psi, e0) * psi
    orth /= np.linalg.norm(orth)
    return np.cos(theta) * psi + np.sin(theta) * orth


def test_verify_perturbed_block_fidelity():
    base = assemble_direct_sum([0.5, 0.5])
    fids = []
    for theta in (0.05, 0.1, 0.2):
        bs = base.block_states.copy()
        bs[1, 1] = _rotated_block_state(theta)
        s = DirectSumState(mu=base.mu, block_states=bs)
        rep = verify_selftest(s)
        # analytic oracle: half the weight keeps overlap 1, the other
        # half contributes cos^2(theta)
        expect = 0.5 + 0.5 * np.cos(theta) ** 2
        assert abs(rep.fidelity - expect) < 1e-9
        assert rep.fidelity < 1.0
        fids.append(rep.fidelity)
    assert fids[0] > fids[1] > fids[2]


def test_direct_sum_state_validation():
    with pytest.raises(BasisMismatchError):
        DirectSumState(mu=np.array([[1.0]]), block_states=np.zeros((2, 2, 4)))
    bad = np.zeros((1, 1, 4), dtype=complex)
    bad[0, 0, 0] = 2.0  # unnormalized occupied block
    with pytest.raises(BasisMismatchError):
        DirectSumState(mu=np.array([[1.0]]), block_states=bad)


def test_direct_sum_state_rejects_nan():
    good = optimal_block_state().reshape(1, 1, 4)
    for mu in ([[np.nan]], [[np.inf]], [[0.5, np.nan]], [[np.inf, -np.inf]]):
        with pytest.raises(BadWeightsError):
            DirectSumState(mu=mu, block_states=np.broadcast_to(good, np.shape(mu) + (4,)))
    with pytest.raises(BasisMismatchError):
        DirectSumState(mu=[[1.0]], block_states=np.full((1, 1, 4), np.nan))


def test_report_json_shape():
    rep = verify_selftest(assemble_direct_sum([0.5, 0.5]))
    d = json.loads(rep.to_json())
    assert set(d.keys()) == {"fidelity", "junk_dims", "blocks"}
    assert d["junk_dims"] == [4, 4]
    assert len(d["blocks"]) >= 1
