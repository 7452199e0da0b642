"""Tests for the moment-matrix relaxation: word algebra, problem
assembly, the interior-point solver and its certificate, and the frozen
reference values."""

import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cabello.npa as npa
from cabello.npa import (
    DEFAULT_OBJECTIVE,
    LEVELS,
    NPAProblem,
    UnsupportedLevelError,
    adjoint,
    build_problem,
    canonical,
    npa_upper_bound,
    plain_key,
    solve,
    words_for_level,
)

import oracles

LETTERS = ("a0", "a1", "b0", "b1")
word_strategy = st.lists(st.sampled_from(LETTERS), max_size=6).map(tuple)


def test_word_counts_per_level():
    for level, count in (("1", 5), ("1+AB", 9), ("2", 13), ("3", 25)):
        ws = words_for_level(level)
        assert len(ws) == count
        assert ws[0] == ()
        assert len(set(ws)) == count


def test_unsupported_level_rejected():
    with pytest.raises(UnsupportedLevelError):
        words_for_level("4")
    with pytest.raises(UnsupportedLevelError):
        build_problem("2+ABB")


def test_canonical_examples():
    assert canonical(("b0", "a0")) == ("a0", "b0")
    assert canonical(("a0", "a0")) == ("a0",)
    # cross-party commutation then idempotence: a1 b1 b1 a1 = a1 b1
    assert canonical(("a1", "b1", "b1", "a1")) == ("a1", "b1")
    assert canonical(("a0", "a1", "a0")) == ("a0", "a1", "a0")
    assert canonical(()) == ()


@settings(max_examples=300, deadline=None)
@given(word_strategy)
def test_canonical_is_idempotent(w):
    cw = canonical(w)
    assert canonical(cw) == cw
    # A letters precede B letters and no adjacent duplicates survive
    kinds = [0 if ltr[0] == "a" else 1 for ltr in cw]
    assert kinds == sorted(kinds)
    for x, y in zip(cw, cw[1:]):
        assert x != y


@settings(max_examples=300, deadline=None)
@given(word_strategy, word_strategy)
def test_adjoint_class_consistency(w, v):
    # the class of w† v must be the adjoint class of v† w
    wv = canonical(tuple(reversed(w)) + v)
    vw = canonical(tuple(reversed(v)) + w)
    assert adjoint(wv) == vw or canonical(adjoint(wv)) == vw
    assert plain_key(wv) == plain_key(vw)


def test_eps_enters_rhs_only():
    p1 = build_problem("2", eps=0.0)
    p2 = build_problem("2", eps=0.3)
    assert p1.class_keys == p2.class_keys
    assert np.array_equal(p1.cell_class, p2.cell_class)
    assert np.array_equal(p1.A, p2.A)
    assert not np.array_equal(p1.d, p2.d)
    assert p2.d[1] == 0.3 and p2.d[2] == 0.3


def test_problem_shape_with_and_without_slacks():
    p = build_problem("1", eps=0.1)
    assert p.n == 5 and p.m == 7  # two slack diagonal cells appended
    u = build_problem("1", eps=None)
    assert u.n == 5 and u.m == 5


def test_chsh_reaches_tsirelson():
    chsh = {
        ("a0", "b0"): 4.0, ("a0", "b1"): 4.0, ("a1", "b0"): 4.0,
        ("a1", "b1"): -4.0, ("a0",): -4.0, ("b0",): -4.0, (): 2.0,
    }
    sol = solve(build_problem("1", eps=None, objective=chsh))
    assert sol.status == "Converged"
    assert abs(sol.value - oracles.TSIRELSON) < 1e-6


def test_unconstrained_level1_value():
    # without the two zero constraints the score relaxes to 9/8 at level 1
    assert abs(npa_upper_bound("1", eps=None) - 1.125) < 1e-6


def test_eps_one_equals_unconstrained():
    # slack rhs of 1 makes both inequality rows vacuous
    a = npa_upper_bound("1", eps=1.0)
    b = npa_upper_bound("1", eps=None)
    assert abs(a - b) < 1e-6


def test_frozen_values_ideal():
    for level, ref in oracles.NPA_EPS0.items():
        val = npa_upper_bound(level, eps=0.0)
        assert abs(val - ref) < 5e-7, (level, val, ref)


def test_frozen_values_level2_grid():
    for eps, ref in oracles.NPA_LEVEL2.items():
        val = npa_upper_bound("2", eps=eps)
        assert abs(val - ref) < 1e-6, (eps, val, ref)


def test_level_monotonicity():
    # at default tolerance the contract allows 1e-6 slack
    vals = [npa_upper_bound(level, eps=0.0) for level in LEVELS]
    for lo, hi in zip(vals[1:], vals[:-1]):
        assert lo <= hi + 1e-6
    # solved tightly, the nesting shows up at the 1e-8 scale
    tight = [npa_upper_bound(level, eps=0.05, tol=1e-9) for level in LEVELS]
    for lo, hi in zip(tight[1:], tight[:-1]):
        assert lo <= hi + 2e-8


def test_eps_monotonicity():
    grid = [0.0, 0.025, 0.05, 0.1, 0.2, 0.35, 0.5]
    vals = [npa_upper_bound("1+AB", eps=e) for e in grid]
    for a, b in zip(vals, vals[1:]):
        assert b >= a - 2e-8


def test_level2_saturates_at_eps_half():
    assert abs(npa_upper_bound("2", eps=0.5) - 1.0) < 1e-6


def test_solution_is_class_consistent_and_nearly_psd():
    for level, eps in (("1+AB", 0.0), ("2", 0.075), ("2", 0.0)):
        p = build_problem(level, eps=eps)
        sol = solve(p)
        assert sol.status == "Converged"
        g = sol.moment_matrix
        assert g.shape == (p.n, p.n)
        assert abs(g[0, 0] - 1.0) < 1e-6
        # every equality class takes a single value
        cc = p.cell_class[:p.n, :p.n]
        for k in range(len(p.class_keys)):
            cells = g[cc == k]
            if cells.size > 1:
                assert cells.max() - cells.min() < 1e-6
        assert np.linalg.eigvalsh((g + g.T) / 2).min() >= -1e-6


def test_upper_bound_dominates_known_quantum_points():
    # the relaxation value can never fall below an achievable score
    assert npa_upper_bound("3", eps=0.0) >= oracles.OPT_SCORE - 1e-6
    for eps, ref in oracles.NPA_LEVEL2.items():
        assert npa_upper_bound("2", eps=eps) >= ref - 1e-6


def test_upper_bound_never_below_attainable_values():
    # a certified bound needs no slack: the ideal optimum is attainable
    # at every level, and at eps = 0.5 so is the local bound 1
    for level in LEVELS:
        assert npa_upper_bound(level, eps=0.0) >= oracles.OPT_SCORE
    assert npa_upper_bound("2", eps=0.5) >= 1.0


def test_early_stop_still_certifies():
    # the weak-duality value bounds the relaxation from every dual iterate
    for eps, attainable in ((0.0, oracles.OPT_SCORE), (0.1, 0.2)):
        p = build_problem("2", eps=eps)
        for k in range(6):
            sol = solve(p, max_iter=k)
            assert sol.status == "MaxIter" and sol.iterations == k
            assert sol.value >= attainable


def test_tiny_eps_returns_a_bound_within_the_step_cap():
    # the interior is thin at eps = 1e-6; the solve may stall but must
    # end quickly with a valid bound
    t0 = time.perf_counter()
    sol = solve(build_problem("2", eps=1e-6))
    assert time.perf_counter() - t0 < 5.0
    assert sol.iterations <= npa.DEFAULT_MAX_ITER
    # the nonideal lower bound at eps = 1e-6
    assert sol.value >= 0.108504858880


def test_repeat_solves_are_identical():
    p = build_problem("1+AB", eps=0.05)
    a = solve(p)
    b = solve(p)
    assert a.value == b.value
    assert np.array_equal(a.moment_matrix, b.moment_matrix)
    assert a.iterations == b.iterations


def test_factorization_cache_reused_across_eps():
    before = len(npa._relaxation_cache)
    npa_upper_bound("1", eps=0.11)
    mid = len(npa._relaxation_cache)
    npa_upper_bound("1", eps=0.22)
    after = len(npa._relaxation_cache)
    # the second eps shares the cached relaxation (same matrices)
    assert after == mid
    assert mid <= before + 1


def test_objective_with_constant_term():
    # shifting the objective by a constant shifts the optimum by it
    base = solve(build_problem("1", eps=0.1)).value
    shifted = solve(build_problem(
        "1", eps=0.1, objective={**DEFAULT_OBJECTIVE, (): 0.25})).value
    assert abs(shifted - base - 0.25) < 1e-6
