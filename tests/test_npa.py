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
    UnsupportedLevelError,
    adjoint,
    build_problem,
    canonical,
    npa_upper_bound,
    solve,
    words_for_level,
)

import oracles

LETTERS = ("a0", "a1", "b0", "b1")
CHSH = {
    ("a0", "b0"): 4.0, ("a0", "b1"): 4.0, ("a1", "b0"): 4.0,
    ("a1", "b1"): -4.0, ("a0",): -4.0, ("b0",): -4.0, (): 2.0,
}
word_strategy = st.lists(st.sampled_from(LETTERS), max_size=6).map(tuple)


def test_word_counts_per_level():
    for level, count in (("1", 5), ("1+AB", 9), ("2", 13), ("3", 25)):
        ws = words_for_level(level)
        assert len(ws) == count
        assert ws[0] == ()
        assert len(set(ws)) == count
    # level 3 is every canonical word of up to three letters, in (length,
    # word) order; level 2 keeps its own order
    ws = words_for_level("3")
    assert ws == sorted(ws, key=lambda w: (len(w), w))
    assert all(canonical(w) == w for w in ws)


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
    assert oracles.plain_key(wv) == oracles.plain_key(vw)


def test_eps_enters_rhs_only(monkeypatch):
    # eps moves only the right-hand side: one cached relaxation serves
    # every positive eps, and the bound still follows eps
    monkeypatch.setattr(npa, "_relaxation_cache", {})
    lo = solve(build_problem("2", eps=0.1))
    hi = solve(build_problem("2", eps=0.3))
    assert len(npa._relaxation_cache) == 1
    assert hi.value > lo.value + 0.1


def test_problem_shape_with_and_without_slacks(monkeypatch):
    monkeypatch.setattr(npa, "_relaxation_cache", {})
    for eps in (0.1, 0.2, 0.0):
        build_problem("1", eps=eps)
    # eps 0.1 and 0.2 share the first relaxation
    slack, reduced = npa._relaxation_cache.values()
    # two slack diagonal cells appended; the score is swap-invariant, so
    # the two inequality rows are one
    assert slack.idx.shape == (7, 7) and slack.A.shape[0] == 2
    # the presolve drops the slacks and keeps only the normalization row
    assert reduced.idx.shape == (5, 5) and reduced.A.shape[0] == 1
    for eps in (0.1, 0.0):
        assert solve(build_problem("1", eps=eps)).moment_matrix.shape == (5, 5)


def test_one_assembly_per_relaxation(monkeypatch):
    monkeypatch.setattr(npa, "_relaxation_cache", {})
    calls = []
    relaxation = npa._Relaxation
    monkeypatch.setattr(npa, "_Relaxation", lambda *a: calls.append(a) or relaxation(*a))
    for eps in (0.05, 0.1, 0.15, 0.2, 0.25):
        solve(build_problem("2", eps=eps))
    assert len(calls) == 1


def test_one_cell_table_per_level(monkeypatch):
    # the reduced and the slack route share the level's word list and
    # cell table
    monkeypatch.setattr(npa, "_relaxation_cache", {})
    npa._table.cache_clear()
    calls = []
    words = npa.words_for_level
    monkeypatch.setattr(npa, "words_for_level", lambda lv: calls.append(lv) or words(lv))
    build_problem("3", 0.0)
    build_problem("3", 0.05)
    assert len(npa._relaxation_cache) == 2
    assert calls == ["3"]


def _party_swap(w):
    return canonical(tuple(("b" if ltr[0] == "a" else "a") + ltr[1] for ltr in w))


def _per_cell_relaxation(level, reduced, slacks, objective, orbits=True):
    """Reference assembly that forms the product and the class key of
    every cell, once for the kept words and again for the lift, and with
    ``orbits`` keys each cell by its party-swap orbit when the objective
    takes equal coefficients on every class and its swap; returns E, A,
    c, the slack flags and the lift."""
    full = words_for_level(level)
    cells = [[canonical(tuple(reversed(u)) + v) for v in full] for u in full]
    words = [w for w in full if oracles.strip_fix(w) == w] if reduced else full
    base = oracles.merged_key if reduced else oracles.plain_key

    def totals(swapped):
        out = {}
        for w, cf in objective:
            k = base(_party_swap(w) if swapped else w)
            out[k] = out.get(k, 0.0) + cf
        return {k: cf for k, cf in out.items() if cf != 0.0}

    merge = orbits and totals(False) == totals(True)

    def keyfn(w):
        if w and w[0][0] == "s":
            return ("s1",) if merge else w
        k = base(canonical(w))
        return min(k, base(_party_swap(w))) if merge else k

    n = len(words)
    m = n + 2 * slacks
    classes = {}
    for i in range(n):
        for j in range(n):
            w = canonical(tuple(reversed(words[i])) + words[j])
            classes.setdefault(keyfn(w), []).append((i, j))
    if slacks:
        classes.setdefault(keyfn(("s1",)), []).append((n, n))
        classes.setdefault(keyfn(("s2",)), []).append((n + 1, n + 1))
    keys = sorted(classes, key=lambda k: (len(k), k))
    kidx = {k: i for i, k in enumerate(keys)}

    def row(coefs):
        r = np.zeros(len(keys))
        for w, cf in coefs.items():
            r[kidx[keyfn(w)]] += cf
        return r

    rows = [row({(): 1.0})]
    if slacks:
        rows.append(row({("a1",): 1.0, ("a1", "b0"): -1.0, ("s1",): 1.0}))
        rows.append(row({("b1",): 1.0, ("a0", "b1"): -1.0, ("s2",): 1.0}))
    # the swap turns one eps row into the other: keep one of equal rows
    rows = [r for i, r in enumerate(rows) if not any(np.array_equal(r, q) for q in rows[:i])]
    E = np.zeros((len(keys), m, m))
    for k, key in enumerate(keys):
        for (i, j) in classes[key]:
            E[k, i, j] = 1.0
    slack = np.array([k in (("s1",), ("s2",)) for k in keys])
    lift = np.array([[kidx[keyfn(w)] for w in r] for r in cells])
    return E, np.array(rows), row(dict(objective)), slack, lift


def _class_stack(rel):
    """The 0/1 cell matrices E_k of the classes, as a stack, from the
    class table."""
    return (rel.idx == np.arange(len(rel.c))[:, None, None]).astype(float)


# the two penalized probabilities, whose words share a class at eps = 0
PENALTIES = {("a1",): 1.0, ("a1", "b0"): -1.0, ("b1",): 1.0, ("a0", "b1"): -1.0}
# the first of them alone, which the party swap does not fix
ONE_SIDED = {("a1", "b0"): 1.0}


@pytest.mark.parametrize("objective", [None, CHSH, PENALTIES, ONE_SIDED],
                         ids=["score", "chsh", "penalties", "one-sided"])
@pytest.mark.parametrize("eps", [0.0, 0.1])
@pytest.mark.parametrize("level", LEVELS)
def test_assembly_equals_the_per_cell_reference(level, eps, objective):
    p = build_problem(level, eps, objective)
    rel = npa._relaxation(p)
    want = _per_cell_relaxation(level, eps == 0.0, eps != 0.0, p.objective)
    got = (_class_stack(rel), rel.A, rel.c, rel.slack, rel.lift)
    for name, g, w in zip(("E", "A", "c", "slack", "lift"), got, want):
        assert np.array_equal(g, w), name


@pytest.mark.parametrize("eps", [0.0, 0.1])
def test_assembly_maps_each_distinct_word_once(eps, monkeypatch):
    # level 3 has 85 distinct cell words in 625 cells; one assembly from
    # an empty cache takes the adjoint and the zero-face rewrite of each
    # distinct word at most once
    monkeypatch.setattr(npa, "_relaxation_cache", {})
    npa._table.cache_clear()
    calls = {"adjoint": [], "strip_once": []}
    for name, log in calls.items():
        fn = getattr(npa, name)
        monkeypatch.setattr(npa, name, lambda w, fn=fn, log=log: log.append(w) or fn(w))
    build_problem("3", eps)
    full = words_for_level("3")
    distinct = {canonical(tuple(reversed(u)) + v) for u in full for v in full}
    assert len(distinct) == 85
    for name, log in calls.items():
        assert len(log) == len(set(log)) and set(log) <= distinct, name


@pytest.mark.parametrize("level, eps, classes, rows", [
    ("3", 0.1, (35, 63), (2, 3)), ("3", 0.0, (20, 34), (1, 1)),
    ("2", 0.1, (19, 33), (2, 3)), ("2", 0.0, (12, 20), (1, 1)),
])
def test_swap_orbits_need_a_swap_invariant_objective(level, eps, classes, rows):
    # the score merges each class with its swap and the two eps rows;
    # an objective on a1 b0 alone keeps the plain classes and both rows
    for objective, k, r in zip((None, ONE_SIDED), classes, rows):
        rel = npa._relaxation(build_problem(level, eps, objective))
        assert (len(rel.c), len(rel.A)) == (k, r)


@pytest.mark.parametrize("objective", [None, ONE_SIDED], ids=["score", "one-sided"])
@pytest.mark.parametrize("level, eps", [("2", 0.0), ("2", 0.1), ("3", 0.0), ("3", 0.1)])
def test_class_table_kernels_equal_the_dense_stack(level, eps, objective):
    # the solver's gather, cell sums and Schur complement bins against
    # products with the 0/1 class matrices
    rel = npa._relaxation(build_problem(level, eps, objective))
    E = _class_stack(rel)
    K, m = E.shape[:2]
    rng = np.random.default_rng(7)
    y = rng.normal(size=K)
    B, C = rng.normal(size=(2, m, m))
    Z, W = B @ B.T, C @ C.T
    assert np.array_equal(rel.X(y), np.einsum("k,kij->ij", y, E))
    assert np.allclose(rel.adj(Z), np.einsum("kij,ij->k", E, Z), rtol=0, atol=1e-12)
    ZEW = (Z @ rel.Eh).reshape(m * K, m) @ W
    M = np.bincount(rel.m_bins, ZEW.ravel(), K * K + 1)[:-1].reshape(K, K)
    want = np.einsum("kij,jp,lpq,qi->kl", E, Z, E, W, optimize=True)
    assert np.allclose(M, want, rtol=1e-12, atol=1e-10)


def _unmerged_relaxation(level, eps, objective):
    """The per-cell reference without swap orbits, as a relaxation the
    solver runs."""
    E, A, c, slack, lift = _per_cell_relaxation(
        level, eps == 0.0, eps != 0.0, objective, orbits=False)
    rel = object.__new__(npa._Relaxation)
    rel.idx = np.where(E.any(axis=0), E.argmax(axis=0), len(E))
    rel.A, rel.c, rel.slack, rel.lift = A, c, slack, lift
    return rel


# the levels and eps of the benchmark's npa-upper workload
NPA_UPPER_GRID = {"2": (0.0, 0.05, 0.15, 0.2, 0.3, 0.4), "3": (0.0, 0.05, 0.15, 0.3)}


@pytest.mark.parametrize("level, eps", [(lv, e) for lv, grid in NPA_UPPER_GRID.items()
                                        for e in grid])
def test_orbit_bound_equals_the_unmerged_bound(level, eps, monkeypatch):
    # the swap-invariant relaxation has the same maximum as the full one,
    # and both certify bounds on every attainable score
    p = build_problem(level, eps)
    merged = solve(p)
    monkeypatch.setitem(npa._relaxation_cache, (p.level, eps == 0.0, p.objective),
                        _unmerged_relaxation(level, eps, p.objective))
    full = solve(p)
    assert merged.status == full.status == "Converged"
    assert abs(merged.value - full.value) < 1e-8
    attainable = max(oracles.OPT_SCORE, oracles.NONIDEAL_SCORES.get(eps, 0.0))
    assert merged.value >= attainable and full.value >= attainable


@pytest.mark.parametrize("objective", [{("x0",): 1.0}, {("a1", "z9"): 1.0, ("a0", "b0"): -1.0}],
                         ids=["unknown-word", "unknown-letter"])
def test_objective_with_unknown_letter_rejected(objective):
    # canonical() drops such letters, which would turn x0 into the constant 1
    with pytest.raises(ValueError, match="letter outside"):
        build_problem("2", 0.0, objective)


@pytest.mark.parametrize("cf", [float("nan"), float("inf")])
def test_objective_with_non_finite_coefficient_rejected(cf):
    with pytest.raises(ValueError, match="must be finite"):
        build_problem("2", 0.0, {("a1", "b1"): cf, ("a0", "b0"): -1.0})


def test_objective_coefficients_of_one_canonical_word_add():
    # b0 a0 and a0 b0 are one moment, so this objective is 2 <a0 b0>
    twice = build_problem("1", 1.0, {("b0", "a0"): 1.0, ("a0", "b0"): 1.0})
    assert twice.objective == build_problem("1", 1.0, {("a0", "b0"): 2.0}).objective
    assert abs(solve(twice).value - 2.0) < 1e-6


@pytest.mark.parametrize("eps", [0.0, 0.1])
def test_word_without_moment_rejected_on_every_route(eps):
    # at eps = 0 the zero-face rewrite turns a0 a1 b0 into the level-1
    # moment a0 a1, so the check must use the plain moments
    with pytest.raises(ValueError, match="has no moment at this level"):
        build_problem("1", eps, {("a0", "a1", "b0"): 1.0})


@pytest.mark.parametrize("eps", [None, -0.1, float("nan"), float("inf")])
def test_invalid_eps_rejected(eps):
    # unconstrained maximization is eps >= 1, not a separate eps = None
    with pytest.raises(ValueError, match="eps must be finite and nonnegative"):
        build_problem("2", eps)


def test_chsh_reaches_tsirelson():
    # at eps = 1 both inequality rows are vacuous
    sol = solve(build_problem("1", eps=1.0, objective=CHSH))
    assert sol.status == "Converged"
    assert abs(sol.value - oracles.TSIRELSON) < 1e-6


def test_unconstrained_level1_value():
    # without the two zero constraints the score relaxes to 9/8 at level 1
    assert abs(npa_upper_bound("1", eps=1.0) - 1.125) < 1e-6


def test_frozen_values_ideal():
    for level, ref in oracles.NPA_EPS0.items():
        val = npa_upper_bound(level, eps=0.0)
        assert abs(val - ref) < 5e-7, (level, val, ref)


def test_frozen_values_level2_grid():
    for eps, ref in oracles.NPA_LEVEL2.items():
        val = npa_upper_bound("2", eps=eps)
        assert abs(val - ref) < 1e-6, (eps, val, ref)


def test_level_monotonicity(monkeypatch):
    # at default tolerance the contract allows 1e-6 slack
    vals = [npa_upper_bound(level, eps=0.0) for level in LEVELS]
    for lo, hi in zip(vals[1:], vals[:-1]):
        assert lo <= hi + 1e-6
    # solved tightly, the nesting shows up at the 1e-8 scale
    monkeypatch.setattr(npa, "IPM_TOL", 1e-9)
    tight = [npa_upper_bound(level, eps=0.05) for level in LEVELS]
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
        words = words_for_level(level)
        sol = solve(build_problem(level, eps=eps))
        assert sol.status == "Converged"
        g = sol.moment_matrix
        assert g.shape == (len(words), len(words))
        assert abs(g[0, 0] - 1.0) < 1e-6
        # every equality class takes a single value
        classes = {}
        for i, u in enumerate(words):
            for j, v in enumerate(words):
                key = oracles.plain_key(canonical(tuple(reversed(u)) + v))
                classes.setdefault(key, []).append(g[i, j])
        for cells in classes.values():
            assert max(cells) - min(cells) < 1e-6
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


def test_early_stop_still_certifies(monkeypatch):
    # the weak-duality value bounds the relaxation from every dual iterate
    for eps, attainable in ((0.0, oracles.OPT_SCORE), (0.1, 0.2)):
        p = build_problem("2", eps=eps)
        for k in range(6):
            monkeypatch.setattr(npa, "IPM_MAX_ITER", k)
            sol = solve(p)
            assert sol.status == "MaxIter" and sol.iterations == k
            assert sol.value >= attainable


def test_tiny_eps_returns_a_bound_within_the_step_cap():
    # the interior is thin at eps = 1e-6; the solve may stall but must
    # end quickly with a valid bound
    t0 = time.perf_counter()
    sol = solve(build_problem("2", eps=1e-6))
    assert time.perf_counter() - t0 < 5.0
    assert sol.iterations <= npa.IPM_MAX_ITER
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
