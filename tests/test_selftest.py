"""Tests for direct-sum assembly and the extraction isometry behind the
self-testing verification."""

import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cabello.qubit import analytic_optimum
from cabello.scenario import behavior_from_quantum, cabello_stats
from cabello.selftest import (
    BadWeightsError,
    BasisMismatchError,
    DirectSumState,
    OddDimensionError,
    assemble_direct_sum,
    block_extended_measurements,
    extraction_isometry,
    optimal_block_state,
    verify_selftest,
)

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


def test_assemble_rejects_bad_weights():
    with pytest.raises(BadWeightsError):
        assemble_direct_sum([0.5, 0.4])
    with pytest.raises(BadWeightsError):
        assemble_direct_sum([1.5, -0.5])
    with pytest.raises(BadWeightsError):
        assemble_direct_sum([])


def test_extraction_isometry_qubit_action():
    iso = extraction_isometry(2, 2)
    # basis order (system, ancilla): |0,0>, |0,1>, |1,0>, |1,1>
    e = np.eye(4)
    assert_allclose(iso.phi_a @ e[0], e[0], atol=1e-14)   # |0,0> -> |0,0>
    assert_allclose(iso.phi_a @ e[2], e[1], atol=1e-14)   # |1,0> -> |0,1>


def test_extraction_isometry_is_isometric():
    for d in (2, 4, 6):
        iso = extraction_isometry(d, d)
        for m in (iso.phi_a, iso.phi_b):
            assert m.shape == (2 * d, 2 * d)
            assert np.abs(m.conj().T @ m - np.eye(2 * d)).max() < 1e-12


def test_extraction_isometry_rejects_odd_dims():
    with pytest.raises(OddDimensionError):
        extraction_isometry(3, 2)
    with pytest.raises(OddDimensionError):
        extraction_isometry(2, 5)


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
