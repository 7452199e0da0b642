"""Tests for behaviors, statistics, the LP solver and the constrained
local bound."""

import sys

import numpy as np
import pytest

from cabello import cli, scenario
from cabello.qubit import (
    ConstrainedStateParams,
    MeasurementParams,
    constrained_state,
    projectors,
)
from cabello.scenario import (
    Behavior,
    CabelloStats,
    InfeasibleError,
    InvalidMeasurementError,
    InvalidStateError,
    behavior_from_quantum,
    cabello_stats,
    local_max_score,
    solve_lp,
)

import oracles
from oracles import local_bound_oracle, lp_vertex_oracle, random_local_unitary

COMP = (np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex))


def _split(proj):
    """Regroup the flat 4-tuple of projector pairs by party."""
    return (proj[0], proj[1]), (proj[2], proj[3])


def _example_3_80():
    """Parameter point whose score works out to exactly 3/80."""
    m = MeasurementParams(alpha=np.pi / 3, beta=np.pi / 3,
                          phi=np.pi / 2, xi=np.pi / 2)
    p = ConstrainedStateParams(c=np.sqrt(9.0 / 15.0), delta=0.0, meas=m)
    return behavior_from_quantum(constrained_state(p), *_split(projectors(m)))


def test_product_state_computational_basis():
    state = np.zeros(4, dtype=complex)
    state[0] = 1.0
    b = behavior_from_quantum(state, (COMP, COMP), (COMP, COMP))
    for x in range(2):
        for y in range(2):
            assert abs(b.p[x, y, 0, 0] - 1.0) < 1e-12


def test_score_3_80():
    stats = cabello_stats(_example_3_80())
    assert abs(stats.score - 3.0 / 80.0) < 1e-12
    assert stats.e10 < 1e-12 and stats.e01 < 1e-12


def test_maximally_entangled_identical_settings_correlate():
    state = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)
    m = MeasurementParams(alpha=0.7, beta=1.9, phi=0.0, xi=0.0)
    pa, _ = _split(projectors(m))
    # conjugate B's projectors so both sides measure the same real basis
    pb = tuple(tuple(np.conj(e) for e in eff) for eff in pa)
    b = behavior_from_quantum(state, pa, pb)
    for x in range(2):
        anti = b.p[x, x, 0, 1] + b.p[x, x, 1, 0]
        assert anti < 1e-12


def test_behavior_entries_normalized_and_no_signalling():
    b = _example_3_80()
    assert b.p.min() >= -1e-12 and b.p.max() <= 1.0 + 1e-12
    for x in range(2):
        for y in range(2):
            assert abs(b.p[x, y].sum() - 1.0) < 1e-9
    # marginal of a must not depend on y, and vice versa
    for x in range(2):
        for a in range(2):
            assert abs(b.p[x, 0, a].sum() - b.p[x, 1, a].sum()) < 1e-9
    for y in range(2):
        for bb in range(2):
            assert abs(b.p[0, y, :, bb].sum() - b.p[1, y, :, bb].sum()) < 1e-9


def test_behavior_rejects_bad_normalization():
    p = np.full((2, 2, 2, 2), 0.3)
    with pytest.raises(ValueError):
        Behavior(p=p)
    batch = np.full((3, 2, 2, 2, 2), 0.25)
    batch[1] = p
    with pytest.raises(ValueError):
        Behavior(p=batch)


def test_rejects_unnormalized_state():
    state = np.array([1.0, 1.0, 0.0, 0.0], dtype=complex)
    with pytest.raises(InvalidStateError):
        behavior_from_quantum(state, (COMP, COMP), (COMP, COMP))


def test_rejects_non_projective_measurement():
    bad = (np.full((2, 2), 0.5, dtype=complex) * 1.2,
           np.eye(2, dtype=complex) - np.full((2, 2), 0.5) * 1.2)
    state = np.zeros(4, dtype=complex)
    state[0] = 1.0
    with pytest.raises(InvalidMeasurementError):
        behavior_from_quantum(state, ((COMP), bad), (COMP, COMP))


def test_rejects_incomplete_measurement():
    proj0 = np.diag([1.0, 0.0]).astype(complex)
    bad = (proj0, proj0)  # sums to diag(2, 0), not identity
    state = np.zeros(4, dtype=complex)
    state[0] = 1.0
    with pytest.raises(InvalidMeasurementError):
        behavior_from_quantum(state, (bad, COMP), (COMP, COMP))


def _kron_reference(state, projA, projB):
    """p(a,b|x,y) one Kronecker product at a time."""
    p = np.empty((2, 2, 2, 2))
    for x, y, a, b in np.ndindex(2, 2, 2, 2):
        op = np.kron(projA[x][a], projB[y][b])
        p[x, y, a, b] = np.real(np.vdot(state, op @ state))
    return p


def _random_pair(rng, d):
    """Projector onto a random half of C^d and its complement."""
    u = random_local_unitary(rng, d)
    half = u[:, : d // 2] @ u[:, : d // 2].conj().T
    return half, np.eye(d) - half


def _random_draw(rng, d, dB=None):
    """A random normalized state on C^d (x) C^dB (dB = d by default) and
    two random binary measurements per party."""
    dB = d if dB is None else dB
    projA = [_random_pair(rng, d) for _ in range(2)]
    projB = [_random_pair(rng, dB) for _ in range(2)]
    state = rng.normal(size=d * dB) + 1j * rng.normal(size=d * dB)
    state /= np.linalg.norm(state)
    return state, projA, projB


def _stack(draws):
    """Draws as one batch: states (n, d*d) and projector stacks (n, 2, 2, d, d)."""
    return tuple(np.array(z) for z in zip(*draws))


def test_behavior_matches_kron_reference():
    # unequal local dimensions catch a transposed (dB, dA) block that
    # dA = dB would not
    rng = np.random.default_rng(8)
    for dA, dB in ((2, 2), (4, 4), (2, 3), (3, 2), (4, 2)):
        draws = [_random_draw(rng, dA, dB) for _ in range(20)]
        for state, projA, projB in draws:
            got = behavior_from_quantum(state, projA, projB).p
            assert np.abs(got - _kron_reference(state, projA, projB)).max() <= 1e-14
        batch = behavior_from_quantum(*_stack(draws))
        assert batch.p.shape == (20, 2, 2, 2, 2)
        stats = cabello_stats(batch)
        for k, (state, projA, projB) in enumerate(draws):
            assert np.abs(batch.p[k] - _kron_reference(state, projA, projB)).max() <= 1e-14
            assert stats.score[k] == cabello_stats(Behavior(p=batch.p[k])).score


def test_projector_errors_equal_the_linalg_norms():
    # the broadcast products and float-view norms measure exactly what
    # np.linalg.norm of P - P^H, P @ P - P and the pair sum minus I do
    rng = np.random.default_rng(11)
    for case in range(200):
        d, n = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        P = np.array([[_random_pair(rng, d) for _ in range(2)] for _ in range(n)],
                     dtype=complex)
        if case % 2:
            scale = 10.0 ** rng.uniform(-12, 0)
            P += scale * (rng.normal(size=P.shape) + 1j * rng.normal(size=P.shape))
        want = (np.linalg.norm(P - np.conj(P).swapaxes(-1, -2), axis=(-2, -1)),
                np.linalg.norm(P @ P - P, axis=(-2, -1)),
                np.linalg.norm(P.sum(axis=2) - np.eye(d), axis=(-2, -1)))
        for got, ref in zip(scenario._projector_errors(P), want):
            assert got.shape == ref.shape
            assert np.abs(got - ref).max() <= 1e-14, (case, d)


def _oblique_pair():
    """Idempotent and complete, but not Hermitian."""
    P = np.array([[1.0, 0.5], [0.0, 0.0]], dtype=complex)
    return P, np.eye(2) - P


@pytest.mark.parametrize("k", [0, 3])
@pytest.mark.parametrize("party, x, pair, what", [
    ("Alice", 1, _oblique_pair(), "projector not Hermitian"),
    ("Bob", 0, (COMP[0], COMP[0]), "projectors do not sum to identity"),
    ("Bob", 1, (np.array([[1.0, np.inf], [0.0, 0.0]]), COMP[1]),
     "projector not Hermitian"),
])
def test_batch_check_fails_in_order_at_the_first_sample(k, party, x, pair, what):
    # each check fails on its own; inf entries fail without a warning
    rng = np.random.default_rng(12)
    states, stackA, stackB = _stack([_random_draw(rng, 2) for _ in range(5)])
    stack = stackA if party == "Alice" else stackB
    for bad in (k, 4):
        stack[bad, x] = pair
    with pytest.raises(InvalidMeasurementError,
                       match=f"^sample {k}: {party} setting {x}: {what}$"):
        behavior_from_quantum(states, stackA, stackB)


@pytest.mark.parametrize("k", [0, 3])
def test_batch_error_names_first_failing_sample(k):
    rng = np.random.default_rng(9)
    states, stackA, stackB = _stack([_random_draw(rng, 2) for _ in range(5)])
    # samples k and 4 are broken; the error must name k, the first
    for bad in (k, 4):
        stackA[bad, 1, 0] *= 1.2  # Hermitian, but no longer idempotent
    with pytest.raises(InvalidMeasurementError,
                       match=f"^sample {k}: Alice setting 1: projector not idempotent"):
        behavior_from_quantum(states, stackA, stackB)
    states[[k, 4]] *= 1.1
    with pytest.raises(InvalidStateError, match=f"^sample {k}: state norm"):
        behavior_from_quantum(states, stackA, stackB)


@pytest.mark.parametrize("entry", [np.inf, 1e200, np.nan])
def test_rejects_non_finite_or_huge_state_without_a_warning(entry):
    # the norm check runs under errstate, so the run's warnings-as-errors
    # do not turn an inf, overflowing or NaN state into a RuntimeWarning
    state = np.array([entry, 0.0, 0.0, 0.0], dtype=complex)
    with pytest.raises(InvalidStateError, match="^state norm"):
        behavior_from_quantum(state, (COMP, COMP), (COMP, COMP))
    rng = np.random.default_rng(13)
    states, stackA, stackB = _stack([_random_draw(rng, 2) for _ in range(3)])
    states[1] = 0.0
    states[1, 0] = entry
    with pytest.raises(InvalidStateError, match="^sample 1: state norm"):
        behavior_from_quantum(states, stackA, stackB)


def test_rejects_nan_state_projector_and_behavior():
    state = np.zeros(4, dtype=complex)
    state[0] = 1.0
    with pytest.raises(InvalidStateError):
        behavior_from_quantum(np.full(4, np.nan), (COMP, COMP), (COMP, COMP))
    bad = (np.full((2, 2), np.nan, dtype=complex), np.eye(2, dtype=complex))
    with pytest.raises(InvalidMeasurementError):
        behavior_from_quantum(state, (COMP, bad), (COMP, COMP))
    with pytest.raises(ValueError):
        Behavior(p=np.full((2, 2, 2, 2), np.nan))


@pytest.mark.parametrize("party", ["Alice", "Bob"])
@pytest.mark.parametrize("bad", [[], [COMP[0]], np.eye(2)], ids=["empty", "one", "bare"])
def test_a_projector_list_of_the_wrong_shape_raises_before_dimensions_are_read(party, bad):
    # the local dimensions come from the checked stack, so a list that is
    # too short or a bare matrix is a shape error, not an IndexError
    state = np.zeros(4, dtype=complex)
    state[0] = 1.0
    projA, projB = (bad, (COMP, COMP)) if party == "Alice" else ((COMP, COMP), bad)
    with pytest.raises(InvalidMeasurementError, match=f"^{party}: projector stack shape"):
        behavior_from_quantum(state, projA, projB)


def test_behavior_array_is_c_contiguous():
    # Behavior's range and normalization checks then run unstrided
    rng = np.random.default_rng(22)
    draws = [_random_draw(rng, 2) for _ in range(3)]
    for beh in (behavior_from_quantum(*draws[0]), behavior_from_quantum(*_stack(draws))):
        assert beh.p.flags.c_contiguous


def test_rejects_misshapen_projector():
    state = np.zeros(4, dtype=complex)
    state[0] = 1.0
    with pytest.raises(InvalidMeasurementError):
        behavior_from_quantum(state, (COMP, (COMP[0], np.eye(3))), (COMP, COMP))


def test_a_third_setting_is_rejected_in_a_single_call_as_in_a_batch():
    # a single call is the batch of one, so the whole projector list is
    # stacked and checked, not its first two settings
    rng = np.random.default_rng(21)
    state, projA, projB = _random_draw(rng, 2)
    extra = [*projA, projA[0]]
    shape = r"^Alice: projector stack shape \(1, 3, 2, 2, 2\) != \(1, 2, 2, 2, 2\)$"
    with pytest.raises(InvalidMeasurementError, match=shape):
        behavior_from_quantum(state, extra, projB)
    with pytest.raises(InvalidMeasurementError, match=shape):
        behavior_from_quantum(state[None], np.asarray([extra]), np.asarray([projB]))
    with pytest.raises(InvalidMeasurementError, match=r"^Bob: projector stack shape"):
        behavior_from_quantum(state, projA, [*projB, projB[1]])


def test_uniform_behavior_stats():
    stats = cabello_stats(Behavior(p=np.full((2, 2, 2, 2), 0.25)))
    assert stats.q == 0.25 and stats.p == 0.25
    assert stats.score == 0.0


def test_all_plus_strategy_stats():
    p = np.zeros((2, 2, 2, 2))
    p[:, :, 0, 0] = 1.0  # "+" for every setting pair
    stats = cabello_stats(Behavior(p=p))
    assert stats.q == 1.0 and stats.p == 1.0 and stats.score == 0.0
    assert stats.e10 == 0.0 and stats.e01 == 0.0


def test_vertex_rows_equal_np_unique_bitwise():
    want = np.unique(np.array(oracles._vertex_table()), axis=0)
    assert scenario._VERTICES.shape == want.shape == (7, 3)
    assert scenario._VERTICES.tobytes() == want.tobytes()


def test_no_deterministic_strategy_wins_the_ideal_game():
    # any strategy with positive score must violate one of the zero
    # constraints; that is the whole nonlocality argument
    for score, e10, e01 in oracles._vertex_table():
        assert score <= 0.0 or e10 > 0.0 or e01 > 0.0


def _local_columns():
    """(score, e10, e01) of the 16 deterministic strategies, in the
    product order of (a0, a1, b0, b1)."""
    return np.array(oracles._vertex_table())


def test_solve_lp_single_variable():
    value, w = solve_lp(np.array([[0.5, 0.1, 0.2]]), 0.2)
    assert value == 0.5
    assert w.tolist() == [1.0]


def test_solve_lp_degenerate_face():
    # two identical columns: every split is optimal, the first support wins
    value, w = solve_lp(np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]), 0.0)
    assert value == 1.0
    assert w.tolist() == [1.0, 0.0]


def test_solve_lp_infeasible():
    with pytest.raises(InfeasibleError):
        solve_lp(np.array([[1.0, 0.5, 0.0], [0.0, 0.2, 0.3]]), 0.1)


def test_solve_lp_dimension_mismatch():
    for cols in (np.zeros(3), np.zeros((2, 2)), np.zeros((0, 3)), np.array([[np.nan, 0.0, 0.0]])):
        with pytest.raises(ValueError):
            solve_lp(cols, 0.1)


def test_solve_lp_matches_vertex_enumeration():
    rng = np.random.default_rng(41)
    infeasible = 0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        eps = float(rng.uniform(0.0, 0.6))
        cols = np.column_stack((rng.uniform(-1.0, 1.0, n), rng.uniform(0.0, 1.0, (n, 2))))
        ones = np.ones(n)
        ref = lp_vertex_oracle(cols[:, 0], np.vstack([ones, -ones, cols[:, 1], cols[:, 2]]),
                               np.array([1.0, -1.0, eps, eps]))
        if ref is None:
            infeasible += 1
            with pytest.raises(InfeasibleError):
                solve_lp(cols, eps)
            continue
        value, w = solve_lp(cols, eps)
        assert abs(value - ref) < 1e-12
        assert w.min() >= 0.0 and np.count_nonzero(w) <= 3
        assert abs(w.sum() - 1.0) < 1e-12
        assert (w @ cols[:, 1:]).max() <= eps + 1e-12
    assert 0 < infeasible < 100  # both branches ran


def test_local_bound_examples():
    assert abs(local_max_score(0.0)) < 1e-9
    assert abs(local_max_score(0.1) - 0.2) < 1e-9
    assert abs(local_max_score(0.05) - 0.1) < 1e-9


def test_local_bound_is_exactly_min_of_two_eps_and_one():
    # the window just below 0.5, where a mixture that breaks an eps row
    # by rounding would score 1.0, above the exact 2 eps
    window = [0.5 - k * 1e-13 for k in range(1, 11)] + [0.5 - 1e-10, 0.5 - 2.0 ** -54]
    # and eps so large that (1, eps, eps) products overflow unless the
    # vacuous rows are solved at eps = 1
    huge = [9e307, 1e308, sys.float_info.max]
    for eps in [*np.linspace(0.0, 0.6, 1201), 1e-300, *window, *huge]:
        got = local_max_score(float(eps))
        assert got == min(2.0 * eps, 1.0), eps
        # the vertex-enumeration LP stays the closed form's reference
        assert got == solve_lp(scenario._VERTICES, min(float(eps), 1.0))[0], eps


def test_local_bound_at_negative_zero_is_positive_zero(capsys):
    got = local_max_score(-0.0)
    assert got == 0.0 and np.copysign(1.0, got) == 1.0
    assert cli.main(["local-bound", "--eps", "-0"]) == 0
    assert capsys.readouterr().out == "0\n"


def test_local_bound_matches_vertex_oracle():
    rng = np.random.default_rng(2)
    for eps in np.concatenate([np.linspace(0.0, 0.5, 11), rng.uniform(0, 0.5, 10)]):
        assert abs(local_max_score(float(eps)) - local_bound_oracle(float(eps))) < 1e-9


def test_local_bound_monotone_and_capped():
    grid = np.linspace(0.0, 0.6, 25)
    vals = [local_max_score(float(e)) for e in grid]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    assert all(v <= 1.0 + 1e-12 for v in vals)


def test_local_bound_attained_by_three_vertex_mixture():
    # 16 weights and three rows (normalization, two eps rows): the
    # optimum is a mixture of at most three deterministic strategies
    eps = 0.07
    cols = _local_columns()
    value, w = solve_lp(cols, eps)
    assert value == local_max_score(eps)
    assert np.count_nonzero(w) <= 3 and w.min() >= 0.0
    assert abs(w.sum() - 1.0) <= 1e-15
    assert (w @ cols[:, 1:]).max() <= eps + 1e-15
    assert abs(w @ cols[:, 0] - value) <= 1e-15


def test_stats_invariant_under_local_unitaries():
    rng = np.random.default_rng(17)
    m = MeasurementParams(alpha=1.1, beta=0.6, phi=0.3, xi=5.1)
    sp = ConstrainedStateParams(c=0.4, delta=2.2, meas=m)
    state = constrained_state(sp)
    pa, pb = _split(projectors(m))
    base = behavior_from_quantum(state, pa, pb)
    for _ in range(200):
        ua = random_local_unitary(rng, 2)
        ub = random_local_unitary(rng, 2)
        u = np.kron(ua, ub)
        state2 = u @ state
        pa2 = tuple((ua @ e0 @ ua.conj().T, ua @ e1 @ ua.conj().T) for e0, e1 in pa)
        pb2 = tuple((ub @ e0 @ ub.conj().T, ub @ e1 @ ub.conj().T) for e0, e1 in pb)
        b2 = behavior_from_quantum(state2, pa2, pb2)
        assert np.abs(b2.p - base.p).max() < 1e-10
