"""Moment-matrix (NPA-style) upper bounds on the score under epsilon
constraints.

Words are products of the four "+"-outcome projectors, written with the
letters 'a0', 'a1', 'b0', 'b1'; the empty word is the identity. The
canonical form puts Alice letters before Bob letters (the parties
commute) and collapses adjacent duplicates (projectors are idempotent).
The "-" projectors never appear: completeness eliminates them, e.g. the
first penalized probability is <a1> - <a1 b0>.

The relaxation is: maximize c.y subject to X(y) = sum_k y_k E_k >= 0
(PSD) and A y = d, where E_k is the 0/1 matrix of the cells of moment
class k. Inequality rows enter through nonnegative slack scalars
appended to the matrix as 1x1 diagonal blocks. Its dual is: minimize
d.lambda subject to A^T lambda - X*(Z) = c and Z >= 0, where X*(Z)_k
is the sum of Z over the cells of class k. solve() runs a primal-dual
interior-point method on this pair (HKM direction, Mehrotra
predictor-corrector; Helmberg, Rendl, Vanderbei & Wolkowicz, SIAM J.
Optim. 6, 342 (1996)) from the infeasible start y = 0, S = Z = I,
lambda = 0. Every product with the classes reads the table of class
indices of the matrix cells: X(y) is a gather, X*(Z) a sum over cells
and the Schur complement M_kl = tr(E_k Z E_l S^-1) a sum of the
matrices Z E_l S^-1 over the cells of class k.

Swapping the parties, a_x <-> b_x, maps the level's word list onto
itself and every moment class onto a class, and it fixes the score:
a1 b1 and a0 b0 are their own swaps. It exchanges the two eps rows,
<a1> - <a1 b0> <= eps and <b1> - <a0 b1> <= eps, with their slacks. So
when the objective takes equal coefficients on every class and its
swap, the average of a feasible moment vector and its swap is feasible
with the same objective value, and the optimum is attained by a
swap-invariant vector (Gatermann & Parrilo, J. Pure Appl. Algebra 192,
95 (2004); Tavakoli, Rosset & Renou, PRL 122, 070501 (2019)). The
relaxation then keeps one variable per swap orbit of classes, one
slack class on two diagonal cells and one eps row: level 3 has 35
classes instead of 63 (20 instead of 34 at eps = 0, see below), level
2 has 19 instead of 33. Its maximum equals the maximum of the full
relaxation, and any bound on it bounds the full one. An objective that
the swap does not fix keeps the plain classes and both rows.

The reported value is not the objective at the primal iterate but a
weak-duality bound built from the final dual iterate (Jansson, Chaykin
& Keil, SIAM J. Numer. Anal. 46, 180 (2007)). Clip Z to its PSD part
Z+ and let r = c - A^T lambda + X*(Z+). For every feasible y,
c.y = r.y + d.lambda - <Z+, X(y)> <= d.lambda + sum_k |r_k| u_k, given
|y_k| <= u_k on the feasible set. u_k = 1 holds for every moment class:
a diagonal entry <w^dag w> is at most the diagonal entry of w with its
first letter dropped (the 2x2 minor on the two words, whose off-diagonal
cell is the same class as the diagonal one), hence at most <1> = 1 by
induction, and off-diagonal entries are bounded by Cauchy-Schwarz; a
swap orbit's variable is a moment of the invariant point, so the same
holds for it. A slack equals e - <a1> + <a1 b0> (or its Bob twin, equal
to it on an invariant point) for the right-hand side e = min(eps, 1)
(see solve), which lies in [0, 1 + e], so u_k = 1 + e for the slack
classes. The bound holds for any dual iterate, converged or not, up to
floating-point rounding.

At eps = 0 the feasible set has empty interior: positive
semidefiniteness alone forces both penalized moments to be nonnegative,
so the constraints pin them to zero and an interior-point method has no
interior to follow. solve() therefore applies an exact presolve in that
case. On the zero face the Gram vectors of a1 and a1 b0 coincide (their
distance squared is the first penalized moment), likewise b1 and a0 b1,
which induces word rewrites: a trailing a1 on the Alice side absorbs a
trailing b0 on the Bob side, and a trailing b1 absorbs a trailing a0.
A word and its rewrite have one moment, so the moment classes become
the connected components of the words under rewrites and adjoints, and
the matrix keeps only the words that no rewrite applies to (the party
swap exchanges the two rewrites, so it maps components onto
components). The inequality rows hold identically on these classes, so
they and their slacks are dropped, and the reduced problem regains a
strictly feasible interior. Every feasible point of the original
problem satisfies the merges, so a bound on the reduced problem also
bounds the original, and its class vector lifts exactly onto the full
moment matrix.
"""


from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Mapping

import numpy as np

Word = tuple[str, ...]

LEVELS = ("1", "1+AB", "2", "3")

LETTERS = ("a0", "a1", "b0", "b1")

DEFAULT_OBJECTIVE: Mapping[Word, float] = {("a1", "b1"): 1.0, ("a0", "b0"): -1.0}

IPM_TOL = 1e-8      # residuals and duality gap at which solve() stops
IPM_MAX_ITER = 100  # Newton steps


class UnsupportedLevelError(ValueError):
    """Hierarchy level is not one of 1, 1+AB, 2, 3."""


def _parties(letters: Word) -> tuple[list[str], list[str]]:
    """The Alice letters and the Bob letters of a word, each in order."""
    return [l for l in letters if l[0] == "a"], [l for l in letters if l[0] == "b"]


def canonical(letters: Word) -> Word:
    """Sort parties apart and collapse adjacent duplicate projectors."""
    a, b = _parties(letters)

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
    a, b = _parties(word)
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
        # product() runs through each length in lexicographic order
        return [w for n in range(4) for w in itertools.product(LETTERS, repeat=n)
                if canonical(w) == w]
    raise UnsupportedLevelError(f"level must be one of {LEVELS}, got {level!r}")


# -- zero-face rewrites -------------------------------------------------

def strip_once(w: Word) -> Word:
    """w with one zero-face rewrite applied, or w itself if none applies
    (see module docstring)."""
    a, b = _parties(w)
    if a and b and a[-1] == "a1" and b[-1] == "b0":
        return tuple(a + b[:-1])
    if a and b and b[-1] == "b1" and a[-1] == "a0":
        return tuple(a[:-1] + b)
    return w


# -- problem assembly ---------------------------------------------------

@dataclass(frozen=True)
class NPAProblem:
    """A validated relaxation: level, eps and the objective as sorted
    (canonical word, coefficient) pairs. eps enters only through the
    right-hand sides at solve time; the assembled relaxation is cached
    per level, route and objective.
    """

    level: str
    eps: float
    objective: tuple[tuple[Word, float], ...]


@dataclass(frozen=True)
class SDPSolution:
    """Solver output.

    ``value`` is the weak-duality bound of the final dual iterate (see
    the module docstring), valid whatever the status; ``gap`` is that
    value minus the objective at the primal iterate. The moment matrix
    is the words-only block of the primal iterate, lifted from the
    reduced problem at eps = 0, exactly class consistent and PSD up to
    the primal residual. ``iterations`` counts Newton steps. ``status``
    is "Converged" when the primal residual, the dual residual and the
    primal-dual objective difference are all below ``IPM_TOL``,
    "MaxIter" when the step cap ``IPM_MAX_ITER`` came first, and
    "Stalled" when a factorization failed.
    """

    value: float
    moment_matrix: np.ndarray
    primal_residual: float
    dual_residual: float
    iterations: int
    status: str
    gap: float


def swap(w: Word) -> Word:
    """Canonical form of w with the parties exchanged, a_x <-> b_x."""
    return canonical(tuple({"a": "b", "b": "a"}[l[0]] + l[1] for l in w))


@functools.cache
def _table(level: str) -> tuple[list[Word], dict[Word, int], np.ndarray, np.ndarray]:
    """The level's words, its distinct cell words u^dag v (in first-seen
    order, each mapped to its position), the position of every cell's
    word and, per distinct word, the positions of its adjoint, its
    zero-face rewrite and its party swap, as the rows of one array. The
    distinct words are closed under all three maps. Formed once per
    level and shared by both routes; level 3 has 85 distinct words in
    its 625 cells."""
    full = words_for_level(level)
    words: dict[Word, int] = {}
    cell = np.array([[words.setdefault(canonical(tuple(reversed(u)) + v), len(words))
                      for v in full] for u in full])
    return full, words, cell, np.array([[words[f(w)] for w in words]
                                        for f in (adjoint, strip_once, swap)])


class _Relaxation:
    """One assembled relaxation: the class index ``idx`` of every cell of
    the matrix (K, one past the last class, on the moment-slack cross
    cells), equality rows ``A`` (normalization, then one eps row per
    slack class off the reduced route), objective ``c``, the slack
    classes (certificate bound 1 + eps) and the class of every cell of
    the level's full moment matrix (the lift). The tables of the kernels
    that ``_ipm`` runs on ``idx`` are formed on first use and kept. eps
    only moves the right-hand side, so one object serves every eps of a
    route at a level.

    The moment classes are the connected components of a graph on the
    distinct cell words, plus the pseudo-words ('s1',), ('s2',) of two
    appended diagonal cells off the reduced route. Every word is joined
    to its adjoint, on the reduced route also to its zero-face rewrite,
    and, when the objective takes equal coefficients on every component
    and on its swap's, to its party swap, with s1 <-> s2 (see the module
    docstring), so the two eps rows coincide. A class is named by its
    shortest, then lexicographically smallest, member and the classes
    are ordered by (length, name); every array is read from the one
    table of class indices this gives. The reduced route keeps the
    words that the rewrite leaves unchanged.

    The objective is checked against the plain moments of the full
    level on every route: the reduced route alone would accept a word
    whose zero-face rewrite is a moment, e.g. a0 a1 b0 at level 1.
    """

    def __init__(self, level: str, reduced: bool, objective):
        full, words, cell, (adj, rewrite, twin) = _table(level)
        # the table is closed under adjoints, so a canonical word has a
        # plain moment exactly when it is a cell word
        for w, _ in objective:
            if w not in words:
                raise ValueError(f"word {w} has no moment at this level")
        slacks = [] if reduced else [("s1",), ("s2",)]
        nodes = [*words, *slacks]
        root = list(range(len(nodes)))  # union-find forest, roots name classes

        def find(i: int) -> int:
            while root[i] != i:
                root[i] = root[root[i]]
                i = root[i]
            return i

        def join(pairs) -> None:
            for i, j in pairs:
                i, j = sorted((find(i), find(j)), key=lambda r: (len(nodes[r]), nodes[r]))
                root[j] = i

        join(enumerate(adj))
        if reduced:
            join(enumerate(rewrite))
        # a class and its swap become one when the objective takes equal
        # coefficients on both (see the module docstring); the swap of
        # ('s1',) is ('s2',)
        mirror = [*twin, len(words) + 1, len(words)][:len(nodes)]
        coef: dict[int, float] = {}
        for w, cf in objective:
            r = find(words[w])
            coef[r] = coef.get(r, 0.0) + cf
        if all(cf == coef.get(find(mirror[r]), 0.0) for r, cf in coef.items()):
            join(enumerate(mirror))
        key = [nodes[find(i)] for i in range(len(nodes))]
        kept = [i for i, w in enumerate(full) if not reduced or rewrite[words[w]] == words[w]]
        inner = cell[np.ix_(kept, kept)]
        keys = sorted({key[i] for i in inner.flat}.union(key[len(words):]),
                      key=lambda k: (len(k), k))
        kidx = {k: i for i, k in enumerate(keys)}
        cls = np.array([kidx[k] for k in key])
        K, n, m = len(keys), len(kept), len(kept) + len(slacks)
        idx = np.full((m, m), K)
        idx[:n, :n] = cls[inner]
        idx[range(n, m), range(n, m)] = cls[len(words):]
        self.idx = idx
        self.slack = np.array([k in slacks for k in keys])
        self.lift = cls[cell]
        at = dict(zip([*words, *slacks], cls))

        def row(coefs) -> np.ndarray:
            r = np.zeros(K)
            for w, cf in coefs:
                r[at[w]] += cf
            return r

        rows = [{(): 1.0}, {("a1",): 1.0, ("a1", "b0"): -1.0, ("s1",): 1.0},
                {("b1",): 1.0, ("a0", "b1"): -1.0, ("s2",): 1.0}]
        self.A = np.array([row(r.items()) for r in rows[:1 + len(set(key[len(words):]))]])
        self.c = row(objective)

    @functools.cached_property
    def Eh(self) -> np.ndarray:
        """The class matrices E_l side by side, Eh[p, l m + q] = E_l[p, q],
        so that Z Eh stacks Z E_l over the classes l."""
        K, m = len(self.c), len(self.idx)
        return (self.idx[:, None] == np.arange(K)[:, None]).reshape(m, K * m).astype(float)

    @functools.cached_property
    def m_bins(self) -> np.ndarray:
        """The bin of each cell (j, l, i) of the stack of Z E_l W in the
        Schur complement: [l, idx[j, i]], and a last bin, which is
        dropped, for the cross cells."""
        K, idx = len(self.c), self.idx[:, None]
        return np.where(idx == K, K * K, np.arange(K)[:, None] * K + idx).ravel()

    def X(self, y: np.ndarray) -> np.ndarray:
        """sum_k y_k E_k, gathered from the class table."""
        return np.append(y, 0.0)[self.idx]

    def adj(self, Z: np.ndarray) -> np.ndarray:
        """X*(Z): the sum of Z over the cells of each class."""
        return np.bincount(self.idx.ravel(), Z.ravel(), len(self.c) + 1)[:-1]


_relaxation_cache: dict[tuple, _Relaxation] = {}


def _relaxation(p: NPAProblem) -> _Relaxation:
    """The cached relaxation that solves p: reduced at eps = 0, with the
    slack rows at eps > 0."""
    key = (p.level, p.eps == 0.0, p.objective)
    if key not in _relaxation_cache:
        _relaxation_cache[key] = _Relaxation(*key)
    return _relaxation_cache[key]


def build_problem(level, eps: float = 0.0,
                  objective: Mapping[Word, float] | None = None) -> NPAProblem:
    """Validate a moment relaxation at a hierarchy level.

    eps must be finite and nonnegative and appears only in the
    right-hand sides; any eps >= 1 is unconstrained maximization (see
    solve). The objective maps words over ``LETTERS`` to finite
    coefficients; words with one canonical form add their coefficients,
    and a coefficient on the empty word adds a constant. The default
    picks out the score. The relaxation that solve() uses is assembled
    here, once per level, route and objective, and then cached.
    """
    lv = str(level)
    if lv not in LEVELS:
        raise UnsupportedLevelError(f"level must be one of {LEVELS}, got {level!r}")
    if eps is None or not 0.0 <= eps < np.inf:
        raise ValueError(f"eps must be finite and nonnegative, got {eps}")
    if objective is None:
        objective = DEFAULT_OBJECTIVE
    summed: dict[Word, float] = {}
    for w, cf in objective.items():
        if not set(w) <= set(LETTERS):
            raise ValueError(f"word {w!r} has a letter outside {LETTERS}")
        cw = canonical(w)
        summed[cw] = summed.get(cw, 0.0) + float(cf)
    for w, cf in summed.items():
        if not np.isfinite(cf):
            raise ValueError(f"objective coefficient of {w} must be finite, got {cf}")
    p = NPAProblem(level=lv, eps=eps, objective=tuple(sorted(summed.items())))
    _relaxation(p)  # checks the objective's words
    return p


# -- interior-point solver ------------------------------------------------

def _ipm(rel: _Relaxation, d: np.ndarray):
    """Primal-dual interior-point method to ``IPM_TOL`` within
    ``IPM_MAX_ITER`` steps; returns y, lambda, Z, the primal and dual
    residual norms, the Newton steps taken and the status."""
    A, c, X = rel.A, rel.c, rel.X
    K, m = len(c), len(rel.idx)

    def step(Li, D):
        # 0.95 of the way to the PSD boundary from L L^T along D, capped at 1
        low = np.linalg.eigvalsh(Li @ D @ Li.T)[0]
        return 1.0 if low >= -0.95 else -0.95 / low

    y, lam = np.zeros(K), np.zeros(len(d))
    S, Z = np.eye(m), np.eye(m)
    ZE, ZEW = np.empty((m, K * m)), np.empty((m * K, m))  # reused by every step
    kkt = np.zeros((K + len(d), K + len(d)))
    kkt[:K, K:], kkt[K:, :K] = A.T, A
    it, status = 0, "MaxIter"
    while True:
        Rp, rp = X(y) - S, d - A @ y
        rd = c - A.T @ lam + rel.adj(Z)
        pres = float(np.sqrt(np.sum(Rp * Rp) + rp @ rp))
        dres = float(np.linalg.norm(rd))
        if max(pres, dres, abs(d @ lam - c @ y)) < IPM_TOL:
            status = "Converged"
            break
        if it == IPM_MAX_ITER:
            break
        try:
            LiS = np.linalg.inv(np.linalg.cholesky(S))
            LiZ = np.linalg.inv(np.linalg.cholesky(Z))
            W = LiS.T @ LiS
            # HKM Schur complement M_kl = tr(E_k Z E_l W), W = S^-1: the
            # stack of Z E_l W summed over the cells of each class k
            np.matmul(np.matmul(Z, rel.Eh, out=ZE).reshape(m * K, m), W, out=ZEW)
            kkt[:K, :K] = np.bincount(rel.m_bins, ZEW.ravel(), K * K + 1)[:-1].reshape(K, K)
            ZRW = Z @ Rp @ W

            def direction(G):
                # G = sigma mu W - Z - Z Rp W [- dZ_aff dS_aff W] comes from
                # linearizing Z S = sigma mu I with dS = X(dy) + Rp
                sol = np.linalg.solve(kkt, np.concatenate((rd + rel.adj(G), rp)))
                dy = sol[:K]
                dZ = G - Z @ X(dy) @ W
                return dy, sol[K:], X(dy) + Rp, (dZ + dZ.T) / 2

            mu = np.sum(S * Z) / m
            dy, dl, dS, dZ = direction(-Z - ZRW)
            ap, ad = step(LiS, dS), step(LiZ, dZ)
            sigma = min(1.0, (np.sum((S + ap * dS) * (Z + ad * dZ)) / m / mu) ** 3)
            dy, dl, dS, dZ = direction(sigma * mu * W - Z - ZRW - dZ @ dS @ W)
            ap, ad = step(LiS, dS), step(LiZ, dZ)
        except np.linalg.LinAlgError:
            status = "Stalled"
            break
        y, S = y + ap * dy, S + ap * dS
        lam, Z = lam + ad * dl, Z + ad * dZ
        it += 1
    return y, lam, Z, pres, dres, it, status


def solve(p: NPAProblem) -> SDPSolution:
    """Bound the objective over the relaxation from above.

    eps = 0 takes the presolved route (see module docstring). The value
    is the weak-duality bound of the final dual iterate, valid also when
    the status is not "Converged". The eps rows' right-hand side is
    min(eps, 1): every level's moment matrix bounds each constrained
    probability <x (1 - y)> by |x| |1 - y| <= 1, so for eps >= 1 the rows
    are vacuous: eps = 1 is unconstrained maximization, and every larger
    eps gives the same relaxation.
    """
    rel = _relaxation(p)
    e = min(p.eps, 1.0)
    # the reduced problem keeps only the normalization row, and a
    # swap-invariant objective one eps row
    d = np.array([1.0, e, e][:len(rel.A)])
    y, lam, Z, pres, dres, it, status = _ipm(rel, d)
    w, V = np.linalg.eigh(Z)
    z_plus = (V * np.maximum(w, 0.0)) @ V.T
    r = rel.c - rel.A.T @ lam + rel.adj(z_plus)
    u = 1.0 + e * rel.slack  # |y_k| <= u_k, see module docstring
    value = float(d @ lam + np.abs(r) @ u)
    return SDPSolution(value=value, moment_matrix=y[rel.lift], primal_residual=pres,
                       dual_residual=dres, iterations=it, status=status,
                       gap=value - float(rel.c @ y))


def npa_upper_bound(level, eps: float = 0.0) -> float:
    """Certified upper bound on the score at a hierarchy level: build
    then solve. The assembled relaxation is cached per level and route,
    so sweeping eps at a fixed level never re-assembles.
    """
    return solve(build_problem(level, eps)).value
