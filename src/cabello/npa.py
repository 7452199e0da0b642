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
lambda = 0.

The reported value is not the objective at the primal iterate but a
weak-duality bound built from the final dual iterate (Jansson, Chaykin
& Keil, SIAM J. Numer. Anal. 46, 180 (2007)). Clip Z to its PSD part
Z+ and let r = c - A^T lambda + X*(Z+). For every feasible y,
c.y = r.y + d.lambda - <Z+, X(y)> <= d.lambda + sum_k |r_k| u_k, given
|y_k| <= u_k on the feasible set. u_k = 1 holds for every moment class:
a diagonal entry <w^dag w> is at most the diagonal entry of w with its
first letter dropped (the 2x2 minor on the two words, whose off-diagonal
cell is the same class as the diagonal one), hence at most <1> = 1 by
induction, and off-diagonal entries are bounded by Cauchy-Schwarz. A
slack equals eps - <a1> + <a1 b0> (or its Bob twin), which lies in
[0, 1 + eps], so u_k = 1 + eps for the slacks. The bound holds for any
dual iterate, converged or not, up to floating-point rounding.

At eps = 0 the feasible set has empty interior: positive
semidefiniteness alone forces both penalized moments to be nonnegative,
so the constraints pin them to zero and an interior-point method has no
interior to follow. solve() therefore applies an exact presolve in that
case. On the zero face the Gram vectors of a1 and a1 b0 coincide (their
distance squared is the first penalized moment), likewise b1 and a0 b1,
which induces word rewrites: a trailing a1 on the Alice side absorbs a
trailing b0 on the Bob side, and a trailing b1 absorbs a trailing a0.
Moment classes are merged under the closure of these rewrites and
adjoints; the inequality rows hold identically on the merged classes,
so they and their slacks are dropped, and the reduced problem regains a
strictly feasible interior. Every feasible point of the original
problem satisfies the merges, so a bound on the reduced problem also
bounds the original, and its class vector lifts exactly onto the full
moment matrix.
"""


from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

Word = tuple[str, ...]

LEVELS = ("1", "1+AB", "2", "3")

DEFAULT_OBJECTIVE: Mapping[Word, float] = {("a1", "b1"): 1.0, ("a0", "b0"): -1.0}

IPM_TOL = 1e-8      # residuals and duality gap at which solve() stops
IPM_MAX_ITER = 100  # Newton steps


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
    """A validated relaxation: level, eps and the objective as sorted
    (canonical word, coefficient) pairs. eps enters only through the
    right-hand sides at solve time; the assembled relaxation is cached
    per level, formulation and objective.
    """

    level: str
    eps: float | None
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


def _assemble(words: list[Word], keyfn, slacks: bool, objective: Mapping[Word, float]):
    """Class cells as a stack of 0/1 matrices, the equality rows
    (normalization, then the two slack rows when ``slacks``), the
    objective vector, the slack flag of every class and the class index
    of every key. With slacks, the pseudo-words ('s1',), ('s2',) are two
    diagonal cells appended to the words."""
    n = len(words)
    m = n + 2 * slacks
    classes: dict[Word, list[tuple[int, int]]] = {}
    for i in range(n):
        for j in range(n):
            w = canonical(tuple(reversed(words[i])) + words[j])
            classes.setdefault(keyfn(w), []).append((i, j))
    if slacks:
        classes[("s1",)] = [(n, n)]
        classes[("s2",)] = [(n + 1, n + 1)]
    keys = sorted(classes, key=lambda k: (len(k), k))
    kidx = {k: i for i, k in enumerate(keys)}

    def row(coefs: Mapping[Word, float]) -> np.ndarray:
        r = np.zeros(len(keys))
        for w, cf in coefs.items():
            r[kidx[w if (w and w[0][0] == "s") else keyfn(canonical(w))]] += cf
        return r

    rows = [row({(): 1.0})]
    if slacks:
        rows.append(row({("a1",): 1.0, ("a1", "b0"): -1.0, ("s1",): 1.0}))
        rows.append(row({("b1",): 1.0, ("a0", "b1"): -1.0, ("s2",): 1.0}))
    # cells outside every class (moment-slack cross entries) stay zero
    E = np.zeros((len(keys), m, m))
    for k, key in enumerate(keys):
        for (i, j) in classes[key]:
            E[k, i, j] = 1.0
    slack = np.array([k in (("s1",), ("s2",)) for k in keys])
    return E, np.array(rows), row(objective), slack, kidx


class _Relaxation:
    """One assembled relaxation: class cells as a stack of 0/1 matrices,
    equality rows, objective, the slack classes (certificate bound
    1 + eps) and the class of every cell of the level's full moment
    matrix (the lift). eps only moves the right-hand side, so one
    object serves every eps at a level.

    The objective is checked against the plain moments of the full
    level on every route: the reduced route alone would accept a word
    whose zero-face rewrite is a moment, e.g. a0 a1 b0 at level 1.
    """

    def __init__(self, level: str, reduced: bool, slacks: bool, objective):
        full = words_for_level(level)
        cells = [[canonical(tuple(reversed(u)) + v) for v in full] for u in full]
        moments = {plain_key(w) for row in cells for w in row}
        for w, _ in objective:
            if plain_key(w) not in moments:
                raise ValueError(f"word {w} has no moment at this level")
        words = [w for w in full if strip_fix(w) == w] if reduced else full
        keyfn = merged_key if reduced else plain_key
        self.E, self.A, self.c, self.slack, kidx = _assemble(words, keyfn, slacks,
                                                             dict(objective))
        self.lift = np.array([[kidx[keyfn(w)] for w in row] for row in cells])


_relaxation_cache: dict[tuple, _Relaxation] = {}


def _relaxation(p: NPAProblem) -> _Relaxation:
    """The cached relaxation that solves p: reduced at eps = 0, with the
    slack rows at eps > 0, with neither at eps = None."""
    key = (p.level, p.eps == 0.0, p.eps not in (None, 0.0), p.objective)
    if key not in _relaxation_cache:
        _relaxation_cache[key] = _Relaxation(*key)
    return _relaxation_cache[key]


def build_problem(level, eps: float | None = 0.0,
                  objective: Mapping[Word, float] | None = None) -> NPAProblem:
    """Validate a moment relaxation at a hierarchy level.

    eps = None drops the two inequality rows entirely (unconstrained
    maximization); otherwise eps must be nonnegative and appears only in
    the right-hand sides. The objective maps words to coefficients; a
    coefficient on the empty word adds a constant. The default picks
    out the score. The relaxation that solve() uses is assembled here,
    once per level, formulation and objective, and then cached.
    """
    lv = str(level)
    if lv not in LEVELS:
        raise UnsupportedLevelError(f"level must be one of {LEVELS}, got {level!r}")
    if eps is not None and not 0.0 <= eps < np.inf:
        raise ValueError(f"eps must be finite and nonnegative or None, got {eps}")
    if objective is None:
        objective = DEFAULT_OBJECTIVE
    objective = {canonical(w): float(cf) for w, cf in objective.items()}
    p = NPAProblem(level=lv, eps=eps, objective=tuple(sorted(objective.items())))
    _relaxation(p)  # checks the objective's words
    return p


# -- interior-point solver ------------------------------------------------

def _ipm(rel: _Relaxation, d: np.ndarray):
    """Primal-dual interior-point method to ``IPM_TOL`` within
    ``IPM_MAX_ITER`` steps; returns y, lambda, Z, the primal and dual
    residual norms, the Newton steps taken and the status."""
    A, c, E = rel.A, rel.c, rel.E
    K, m = E.shape[:2]
    Ef = E.reshape(K, -1)

    def X(v):
        return (v @ Ef).reshape(m, m)

    def step(Li, D):
        # 0.95 of the way to the PSD boundary from L L^T along D, capped at 1
        low = np.linalg.eigvalsh(Li @ D @ Li.T)[0]
        return 1.0 if low >= -0.95 else -0.95 / low

    y, lam = np.zeros(K), np.zeros(len(d))
    S, Z = np.eye(m), np.eye(m)
    it, status = 0, "MaxIter"
    while True:
        Rp, rp = X(y) - S, d - A @ y
        rd = c - A.T @ lam + Ef @ Z.ravel()
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
            # HKM Schur complement M_kl = tr(E_k Z E_l W), W = S^-1
            M = Ef @ (W @ E @ Z).reshape(K, -1).T
            kkt = np.block([[M, A.T], [A, np.zeros((len(d), len(d)))]])
            ZRW = Z @ Rp @ W

            def direction(G):
                # G = sigma mu W - Z - Z Rp W [- dZ_aff dS_aff W] comes from
                # linearizing Z S = sigma mu I with dS = X(dy) + Rp
                sol = np.linalg.solve(kkt, np.concatenate((rd + Ef @ G.ravel(), rp)))
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
    the status is not "Converged".
    """
    rel = _relaxation(p)
    # the reduced and eps = None problems keep only the normalization row
    d = np.array([1.0, p.eps, p.eps]) if rel.slack.any() else np.ones(1)
    y, lam, Z, pres, dres, it, status = _ipm(rel, d)
    w, V = np.linalg.eigh(Z)
    z_plus = (V * np.maximum(w, 0.0)) @ V.T
    r = rel.c - rel.A.T @ lam + rel.E.reshape(len(y), -1) @ z_plus.ravel()
    u = 1.0 + (p.eps or 0.0) * rel.slack  # |y_k| <= u_k, see module docstring
    value = float(d @ lam + np.abs(r) @ u)
    return SDPSolution(value=value, moment_matrix=y[rel.lift], primal_residual=pres,
                       dual_residual=dres, iterations=it, status=status,
                       gap=value - float(rel.c @ y))


def npa_upper_bound(level, eps: float | None = 0.0) -> float:
    """Certified upper bound on the score at a hierarchy level: build
    then solve. The assembled relaxation is cached per level and
    formulation, so sweeping eps at a fixed level never re-assembles.
    """
    return solve(build_problem(level, eps)).value
