"""Moment-matrix (NPA-style) upper bounds on the score under epsilon
constraints.

Words are products of the four "+"-outcome projectors, written with the
letters 'a0', 'a1', 'b0', 'b1'; the empty word is the identity. The
canonical form puts Alice letters before Bob letters (the parties
commute) and collapses adjacent duplicates (projectors are idempotent).
The "-" projectors never appear: completeness eliminates them, e.g. the
first penalized probability is <a1> - <a1 b0>.

The SDP is solved by ADMM, alternating a closed-form projection onto
the affine constraints (moment-cell averaging plus a small equality
solve whose normal matrix is factored once) with a PSD cone projection.
Inequality rows enter through nonnegative slack scalars appended to the
matrix as 1x1 diagonal blocks, so each iteration projects one cone.

At eps = 0 the feasible set has empty interior: positive
semidefiniteness alone forces both penalized moments to be nonnegative,
so the constraints pin them to zero and splitting methods stall while
interior-point solvers lose accuracy. solve() therefore applies an
exact presolve in that case. On the zero face the Gram vectors of a1
and a1 b0 coincide (their distance squared is the first penalized
moment), likewise b1 and a0 b1, which induces word rewrites: a trailing
a1 on the Alice side absorbs a trailing b0 on the Bob side, and a
trailing b1 absorbs a trailing a0. Moment classes are merged under the
closure of these rewrites and adjoints, redundant rows are dropped, and
the reduced problem regains a strictly feasible interior. The solution
is lifted back to the full moment matrix afterwards; the lift is exact
because every feasible point of the original problem satisfies the
merges, and the lifted matrix is checked against the usual residual
invariants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

Word = tuple[str, ...]

LEVELS = ("1", "1+AB", "2", "3")

DEFAULT_OBJECTIVE: Mapping[Word, float] = {("a1", "b1"): 1.0, ("a0", "b0"): -1.0}

DEFAULT_RHO = 1.0
DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 200000


class UnsupportedLevelError(ValueError):
    """Hierarchy level is not one of 1, 1+AB, 2, 3."""


def canonical(letters: Iterable[str]) -> Word:
    """Sort parties apart and collapse adjacent duplicate projectors."""
    a = [l for l in letters if l[0] == "a"]
    b = [l for l in letters if l[0] == "b"]

    def collapse(seq):
        out = []
        for l in seq:
            if out and out[-1] == l:
                continue
            out.append(l)
        return out

    return tuple(collapse(a) + collapse(b))


def adjoint(word: Word) -> Word:
    """Canonical form of the Hermitian adjoint (letters are projectors)."""
    a = [l for l in word if l[0] == "a"]
    b = [l for l in word if l[0] == "b"]
    return canonical(tuple(reversed(a)) + tuple(reversed(b)))


def words_for_level(level) -> list[Word]:
    """Ordered word list of the moment matrix for a hierarchy level."""
    lv = str(level)
    if lv == "1":
        return [(), ("a0",), ("a1",), ("b0",), ("b1",)]
    if lv == "1+AB":
        return words_for_level(1) + [(x, y) for x in ("a0", "a1") for y in ("b0", "b1")]
    if lv == "2":
        return words_for_level("1+AB") + [("a0", "a1"), ("a1", "a0"),
                                          ("b0", "b1"), ("b1", "b0")]
    if lv == "3":
        def party_words(p, maxlen):
            res, frontier = [()], [()]
            for _ in range(maxlen):
                nxt = []
                for w in frontier:
                    for s in ("0", "1"):
                        l = p + s
                        if w and w[-1] == l:
                            continue
                        nxt.append(w + (l,))
                res += nxt
                frontier = nxt
            return res

        out = set()
        for x in party_words("a", 3):
            for y in party_words("b", 3):
                if len(x) + len(y) <= 3:
                    out.add(canonical(x + y))
        return sorted(out, key=lambda w: (len(w), w))
    raise UnsupportedLevelError(f"level must be one of {LEVELS}, got {level!r}")


# -- zero-face rewrites -------------------------------------------------

def strip_once(w: Word) -> tuple[Word, bool]:
    """Apply one zero-face rewrite if possible (see module docstring)."""
    a = [l for l in w if l[0] == "a"]
    b = [l for l in w if l[0] == "b"]
    if a and b and a[-1] == "a1" and b[-1] == "b0":
        return tuple(a + b[:-1]), True
    if a and b and b[-1] == "b1" and a[-1] == "a0":
        return tuple(a[:-1] + b), True
    return w, False


def strip_fix(w: Word) -> Word:
    """Iterate strip_once to its fixed point."""
    while True:
        w, did = strip_once(w)
        if not did:
            return w


def _closure(w: Word) -> set[Word]:
    """All words reachable from w by rewrites and adjoints."""
    seen: set[Word] = set()
    frontier = {canonical(w)}
    while frontier:
        nxt = set()
        for x in frontier:
            if x in seen:
                continue
            seen.add(x)
            for y in (strip_once(x)[0], adjoint(x)):
                if y not in seen:
                    nxt.add(y)
        frontier = nxt
    return seen


def merged_key(w: Word) -> Word:
    """Canonical representative of w's moment class on the zero face.

    The representative is the smallest element of the rewrite/adjoint
    closure that neither it nor its adjoint can rewrite further; taking
    the minimum over reducible elements instead would split classes
    that meet only after an adjoint step.
    """
    cl = _closure(w)
    term = [x for x in cl if not strip_once(x)[1] and not strip_once(adjoint(x))[1]]
    return min(term)


def plain_key(w: Word) -> Word:
    """Moment-class representative from hermitian symmetry alone."""
    return min(w, adjoint(w))


# -- problem assembly ---------------------------------------------------

@dataclass(frozen=True)
class NPAProblem:
    """A built relaxation: word list, cell classes, affine rows, objective.

    ``cell_class`` assigns every cell of the (n + slacks)-dimensional
    matrix its class index; ``class_keys`` holds the representative word
    per class, with slack pseudo-words ('s1',), ('s2',) at the end when
    eps is not None. eps enters only through ``d`` (the right-hand
    sides), never through the classes.
    """

    level: str
    eps: float | None
    words: tuple[Word, ...]
    n: int
    m: int
    class_keys: tuple[Word, ...]
    cell_class: np.ndarray
    mult: np.ndarray
    A: np.ndarray
    d: np.ndarray
    cvec: np.ndarray
    objective: tuple[tuple[Word, float], ...]


@dataclass(frozen=True)
class SDPSolution:
    """Solver output: the moment matrix is the words-only block, class
    consistent, with minimum eigenvalue above -1e-7 at default
    tolerance; ``value`` is the objective evaluated on that matrix."""

    value: float
    moment_matrix: np.ndarray
    primal_residual: float
    dual_residual: float
    iterations: int
    status: str


def _assemble(words: list[Word], keyfn, eps, objective):
    """Classes, equality rows and objective vector for a word list."""
    n = len(words)
    nslack = 2 if eps is not None else 0
    m = n + nslack
    classes: dict[Word, list[tuple[int, int]]] = {}
    for i in range(n):
        for j in range(n):
            w = canonical(tuple(reversed(words[i])) + words[j])
            classes.setdefault(keyfn(w), []).append((i, j))
    if nslack:
        classes[("s1",)] = [(n, n)]
        classes[("s2",)] = [(n + 1, n + 1)]
    keys = sorted(classes, key=lambda k: (len(k), k))
    kidx = {k: i for i, k in enumerate(keys)}
    K = len(keys)
    mult = np.array([len(classes[k]) for k in keys], dtype=float)

    def row(coefs: Mapping[Word, float]) -> np.ndarray:
        r = np.zeros(K)
        for w, cf in coefs.items():
            k = w if (w and w[0][0] == "s") else keyfn(canonical(w))
            if k not in kidx:
                raise ValueError(f"word {w} has no moment at this level")
            r[kidx[k]] += cf
        return r

    rows = [row({(): 1.0})]
    rhs = [1.0]
    if nslack:
        rows.append(row({("a1",): 1.0, ("a1", "b0"): -1.0, ("s1",): 1.0}))
        rhs.append(float(eps))
        rows.append(row({("b1",): 1.0, ("a0", "b1"): -1.0, ("s2",): 1.0}))
        rhs.append(float(eps))
    cvec = row(objective)

    # cells outside every class (moment-slack cross entries) stay -1 and
    # are pinned to zero by the affine projection
    cell_class = np.full((m, m), -1, dtype=int)
    ci, cj, ck = [], [], []
    for k, kk in enumerate(keys):
        for (i, j) in classes[kk]:
            cell_class[i, j] = k
            ci.append(i)
            cj.append(j)
            ck.append(k)
    return dict(n=n, m=m, K=K, keys=tuple(keys), kidx=kidx, mult=mult,
                A=np.array(rows), d=np.array(rhs), cvec=cvec,
                cell_class=cell_class,
                cells=(np.array(ci), np.array(cj), np.array(ck)))


def build_problem(level, eps: float | None = 0.0,
                  objective: Mapping[Word, float] | None = None) -> NPAProblem:
    """Assemble the moment relaxation at a hierarchy level.

    eps = None drops the two inequality rows entirely (unconstrained
    maximization); otherwise eps must be nonnegative and appears only in
    the right-hand sides. The objective maps canonical words to
    coefficients; a coefficient on the empty word adds a constant. The
    default picks out the score.
    """
    lv = str(level)
    if lv not in LEVELS:
        raise UnsupportedLevelError(f"level must be one of {LEVELS}, got {level!r}")
    if eps is not None and not 0.0 <= eps < np.inf:
        raise ValueError(f"eps must be finite and nonnegative or None, got {eps}")
    if objective is None:
        objective = DEFAULT_OBJECTIVE
    objective = {canonical(w): float(cf) for w, cf in objective.items()}
    words = words_for_level(lv)
    s = _assemble(words, plain_key, eps, objective)
    return NPAProblem(level=lv, eps=eps, words=tuple(words), n=s["n"], m=s["m"],
                      class_keys=s["keys"], cell_class=s["cell_class"],
                      mult=s["mult"], A=s["A"], d=s["d"], cvec=s["cvec"],
                      objective=tuple(sorted(objective.items())))


# -- ADMM ---------------------------------------------------------------

class _Factorization:
    """Cells, multiplicities, and the Cholesky factor of the normal
    matrix of the equality rows; reused across eps values at a fixed
    level since eps only moves the right-hand side."""

    def __init__(self, assembled):
        self.n = assembled["n"]
        self.m = assembled["m"]
        self.K = assembled["K"]
        self.keys = assembled["keys"]
        self.kidx = assembled["kidx"]
        self.mult = assembled["mult"]
        self.Dinv = 1.0 / self.mult
        self.A = assembled["A"]
        self.ci, self.cj, self.ck = assembled["cells"]
        self.normal_chol = np.linalg.cholesky((self.A * self.Dinv) @ self.A.T)
        self.cvec = assembled["cvec"]
        self.Cmat = np.zeros((self.m, self.m))
        self.Cmat[self.ci, self.cj] = (self.cvec * self.Dinv)[self.ck]


def _admm(f: _Factorization, d: np.ndarray, rho: float, tol: float,
          max_iter: int):
    """Alternate affine and PSD projections; returns the affine-exact
    iterate, its class vector, residuals, iteration count, convergence."""
    m, K = f.m, f.K
    ci, cj, ck = f.ci, f.cj, f.ck
    Dinv, A, L = f.Dinv, f.A, f.normal_chol

    def proj_affine(w_mat):
        yhat = np.zeros(K)
        np.add.at(yhat, ck, w_mat[ci, cj])
        yhat *= Dinv
        lam = np.linalg.solve(L.T, np.linalg.solve(L, A @ yhat - d))
        y = yhat - Dinv * (A.T @ lam)
        x = np.zeros((m, m))
        x[ci, cj] = y[ck]
        return x, y

    X = np.zeros((m, m))
    Z = np.zeros((m, m))
    U = np.zeros((m, m))
    y = np.zeros(K)
    r = s = np.inf
    it = 0
    for it in range(1, max_iter + 1):
        X, y = proj_affine(Z - U + f.Cmat / rho)
        W = X + U
        lam, V = np.linalg.eigh((W + W.T) / 2)
        Zn = (V * np.maximum(lam, 0.0)) @ V.T
        r = float(np.linalg.norm(X - Zn))
        s = float(rho * np.linalg.norm(Zn - Z))
        Z = Zn
        U = U + X - Z
        if max(r, s) < tol:
            return X, y, r, s, it, True
        if it % 100 == 0:  # residual balancing keeps the two norms comparable
            if r > 10 * s:
                rho *= 2.0
                U /= 2.0
            elif s > 10 * r:
                rho /= 2.0
                U *= 2.0
    return X, y, r, s, it, False


_fact_cache: dict[tuple, _Factorization] = {}


def _factorization(level: str, reduced: bool, has_ineq: bool,
                   objective: tuple[tuple[Word, float], ...]) -> _Factorization:
    key = (level, reduced, has_ineq, objective)
    if key not in _fact_cache:
        if reduced:
            words = [w for w in words_for_level(level) if strip_fix(w) == w]
            keyfn = merged_key
        else:
            words = words_for_level(level)
            keyfn = plain_key
        eps_marker = 0.0 if has_ineq else None
        _fact_cache[key] = _Factorization(
            _assemble(words, keyfn, eps_marker, dict(objective)))
    return _fact_cache[key]


def _value_from_matrix(gamma: np.ndarray, words: tuple[Word, ...],
                       objective) -> float:
    """Evaluate the objective on a class-consistent moment matrix."""
    index = {}
    n = len(words)
    for i in range(n):
        for j in range(n):
            w = canonical(tuple(reversed(words[i])) + words[j])
            index.setdefault(w, (i, j))
    total = 0.0
    for w, cf in objective:
        i, j = index[w]
        total += cf * gamma[i, j]
    return float(total)


def solve(p: NPAProblem, rho: float = DEFAULT_RHO, tol: float = DEFAULT_TOL,
          max_iter: int = DEFAULT_MAX_ITER) -> SDPSolution:
    """Maximize the objective over the relaxation.

    eps = 0 takes the presolved route (see module docstring): the
    merged problem is solved and its class vector is lifted onto the
    full word list. Either way the returned moment matrix is exactly
    class-consistent and the value is the objective evaluated on it.
    Status is "MaxIter" with the best iterate when the iteration cap is
    reached before the residuals fall below tol.
    """
    reduced = p.eps == 0.0
    f = _factorization(p.level, reduced, p.eps is not None, p.objective)
    d = p.d if not reduced else np.concatenate(([1.0], np.zeros(len(p.d) - 1)))
    X, y, r, s, it, ok = _admm(f, d, rho, tol, max_iter)
    if reduced:
        n = p.n
        gamma = np.empty((n, n))
        for i in range(n):
            for j in range(n):
                w = canonical(tuple(reversed(p.words[i])) + p.words[j])
                gamma[i, j] = y[f.kidx[merged_key(w)]]
    else:
        gamma = X[:p.n, :p.n].copy()
    value = _value_from_matrix(gamma, p.words, p.objective)
    return SDPSolution(value=value, moment_matrix=gamma, primal_residual=r,
                       dual_residual=s, iterations=it,
                       status="Converged" if ok else "MaxIter")


def npa_upper_bound(level, eps: float | None = 0.0, rho: float = DEFAULT_RHO,
                    tol: float = DEFAULT_TOL,
                    max_iter: int = DEFAULT_MAX_ITER) -> float:
    """Upper bound on the score at a hierarchy level: build then solve.

    The affine factorization is cached per level and formulation, so
    sweeping eps at a fixed level re-solves but never re-factors.
    """
    return solve(build_problem(level, eps), rho=rho, tol=tol,
                 max_iter=max_iter).value
