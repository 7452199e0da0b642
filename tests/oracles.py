"""Independent reference values and brute-force oracles for the tests.

Everything in here is deliberately naive: vertex enumeration instead of
simplex, dense grids instead of descent, frozen high-precision constants
instead of calls into the package. Tests compare the fast implementations
against these.
"""

from __future__ import annotations

from itertools import combinations, product

import numpy as np

# Closed-form optimum constants, evaluated to 40 digits with mpmath from
# the cube-root radical expressions and rounded to float64. The |01>/|10>
# amplitude carries the minus sign outside its radical; with delta = pi
# and phi = xi = 0 the maximizing state is
# (K00, K01, K01, K11) = (-R, -c tan(alpha/2), ..., c).
OPT_SCORE = 0.1078127177489364
OPT_ALPHA = 1.6135687811230216
OPT_C = 0.5539063588744682
OPT_K00 = -0.1572981061383760
OPT_K01 = -0.5781198195027174
OPT_K11 = OPT_C

# (5 sqrt(5) - 11) / 2, the known two-qubit maximum when the fourth
# probability is also pinned to zero.
HARDY_MAX = 0.09016994374947424

# Moment-relaxation reference values, frozen from an independent
# interior-point solve (different solver, different formulation of the
# eps = 0 face) whose output was certified by a positive-semidefinite
# dual matrix: the certificate brackets the true optimum inside
# [value, value + gap] with gap < 5e-8 at level 2 and < 4e-7 at level 3.
NPA_EPS0 = {
    "1": 0.2071067811865476,  # (sqrt(2) - 1) / 2, closed form at level 1
    "1+AB": 0.107812717752,
    "2": 0.107812717157,
    "3": 0.107812704722,
}

# Level-2 upper bounds for eps > 0 (plain formulation, certified as
# above; certificate gaps ~1e-7). The matching ansatz lower bounds agree
# to ~1e-8, so either column serves as a reference at 1e-6 tolerance.
NPA_LEVEL2 = {
    0.025: 0.238736358668,
    0.05: 0.303807122588,
    0.075: 0.357090508011,
    0.1: 0.403863259867,
    0.125: 0.446200443252,
    0.15: 0.485178962818,
}

# optimize_nonideal scores frozen from the 65-start search over
# (alpha, beta, s00, s01, s11) under the two eps rows, which preceded the
# search on the symmetric tight slice. Every winner of that search had
# alpha = beta and e10 = e01 = eps to rounding.
NONIDEAL_SCORES = {
    1e-12: 0.10781340894103233,
    1e-09: 0.10783457608261326,
    1e-06: 0.10850485888211509,
    0.001: 0.130603903231501,
    0.02: 0.22305501597597388,
    0.05: 0.30380712258861564,
    0.08: 0.36687672763529006,
    0.1: 0.4038632598668283,
    0.15: 0.4851789628228643,
    0.21: 0.5684370390862931,
    0.3: 0.6732556736566756,
    0.45: 0.8086566923389127,
    0.5: 0.8446214175708106,
}

TSIRELSON = 2 * np.sqrt(2.0)

# Standard output of `cabello` at fixed command lines, frozen byte for
# byte from the code before its LP and minimizer moved into the layers
# that call them. The optimize and hardy lines print full repr floats of
# the BFGS searches from their fixed starts; they were frozen when those
# starts replaced 64 seeded random ones, which ended at other points of
# the same optima (ideal 0.1078127177489362, Hardy 0.09016994374947426;
# Hardy now equal to HARDY_MAX). The ideal line was frozen again when
# its search went from four coordinates to the two angles, with c and
# delta in closed form: delta is now pi exactly and the score 1e-16
# below OPT_SCORE, where the four-coordinate search stopped at delta =
# 3.1415925691263555 and 9e-16 below. Both lines were frozen again when
# the BFGS searches gave way to one grid-and-golden search over the
# half-angle of equal angles (12 grid points, so "starts_used": 12): the
# same optima, where a search resolves alpha only to about 1e-8 because
# the score is flat to rounding there, so alpha and c moved by up to
# 5.4e-8; the ideal score kept its bytes and Hardy moved to 4.2e-17
# above HARDY_MAX. The ideal line was frozen again when the ideal verb
# came to report the nonideal search's exact-zero eps = 0 candidate,
# with c its |11> amplitude, instead of re-deriving c in a second
# chart: alpha and delta kept their bytes, c moved by 2.2e-16 and the
# score by 1.1e-16, to 2.1e-16 below OPT_SCORE. The eps > 0 npa lines
# and the sweep's upper column were frozen again when the relaxation went over
# to party-swap orbits of the moment classes, with class-index kernels
# in the solver: the same maximum, reached by other rounding, moved
# these bounds by at most 6.3e-10 (level 3 eps 0.15); the eps = 0 lines
# kept their bytes. The sweep is the benchmark's grid. Each command
# exits 0. A change that alters these numbers on purpose updates them
# and says so.
CLI_STDOUT = {
    ("optimize", "--mode", "ideal"):
        '{"score": 0.1078127177489362, "params": {"alpha": 1.6135687860223569, '
        '"beta": 1.6135687860223569, "c": 0.5539063571010858, '
        '"delta": 3.141592653589793, "phi": 0.0, "xi": 0.0}, "e10": 0.0, '
        '"e01": 0.0, "starts_used": 12, "converged": true}\n',
    ("hardy",):
        '{"score": 0.09016994374947428, "params": {"alpha": 1.809113787134073, '
        '"beta": 1.809113787134073, "c": 0.48586827231839913, "delta": 0.0, '
        '"phi": 0.0, "xi": 0.0}, "e10": 0.0, "e01": 0.0, "starts_used": 12, '
        '"converged": true}\n',
    ("sweep", "--eps-min", "0", "--eps-max", "0.15", "--steps", "4"):
        "eps,local_bound,quantum_lower,quantum_upper,level,status\n"
        "0,0,0.107812717749,0.107812721607,2,ok\n"
        "0.05,0.1,0.303807122589,0.303807130356,2,ok\n"
        "0.1,0.2,0.403863259867,0.403863272979,2,ok\n"
        "0.15,0.3,0.485178962823,0.485178965676,2,ok\n",
    ("npa", "--level", "2", "--eps", "0"): "0.107812721607\n",
    ("npa", "--level", "2", "--eps", "0.05"): "0.303807130408\n",
    ("npa", "--level", "3", "--eps", "0"): "0.107812720805\n",
    ("npa", "--level", "3", "--eps", "0.05"): "0.303807144563\n",
    ("local-bound", "--eps", "0"): "0\n",
    ("local-bound", "--eps", "0.07"): "0.14\n",
    ("local-bound", "--eps", "0.3"): "0.6\n",
    ("local-bound", "--eps", "0.5"): "1\n",
    ("local-bound", "--eps", "0.6"): "1\n",
    ("local-bound", "--eps", "1e300"): "1\n",
    # two more points of the benchmark's npa grid, appended so the ids of
    # the entries above stay stable
    ("npa", "--level", "2", "--eps", "0.4"): "0.853403314492\n",
    ("npa", "--level", "3", "--eps", "0.15"): "0.485178976358\n",
    # frozen when verify-formula's draws moved to the standard library's
    # Mersenne Twister (random.Random); appended after the entries above
    ("verify-formula", "--samples", "1000", "--seed", "7"):
        '{"samples": 1000, "max_score_deviation": 3.469446951953614e-16, '
        '"max_constraint_probability": 6.811580693059406e-17}\n',
}


def _word(letters) -> tuple[str, ...]:
    """Alice letters before Bob letters, adjacent duplicates dropped."""
    out: list[str] = []
    for ltr in sorted(letters, key=lambda x: x[0]):  # stable: keeps each party's order
        if not out or out[-1] != ltr:
            out.append(ltr)
    return tuple(out)


def plain_key(w):
    """Moment class of a word under hermitian symmetry alone: the
    smaller of the word and its adjoint."""
    return min(_word(w), _word(reversed(w)))


def _rewrite(w):
    """One zero-face rewrite (a trailing a1 absorbs a trailing b0, a
    trailing b1 absorbs a trailing a0), or None when none applies."""
    a = [x for x in w if x[0] == "a"]
    b = [x for x in w if x[0] == "b"]
    if a[-1:] == ["a1"] and b[-1:] == ["b0"]:
        return tuple(a + b[:-1])
    if a[-1:] == ["a0"] and b[-1:] == ["b1"]:
        return tuple(a[:-1] + b)
    return None


def strip_fix(w):
    """A word with zero-face rewrites applied until none applies."""
    w = _word(w)
    while _rewrite(w) is not None:
        w = _rewrite(w)
    return w


def merged_key(w):
    """Moment class of a word on the eps = 0 face, by walking every word
    reachable through rewrites and adjoints. The key is the smallest
    reachable word that neither it nor its adjoint can rewrite; the
    smallest over all reachable words would split classes that meet
    only after an adjoint step."""
    seen, todo = set(), [_word(w)]
    while todo:
        x = todo.pop()
        if x not in seen:
            seen.add(x)
            todo += [y for y in (_rewrite(x), _word(reversed(x))) if y is not None]
    return min(x for x in seen
               if _rewrite(x) is None and _rewrite(_word(reversed(x))) is None)


def lp_vertex_oracle(c, A, b):
    """Brute-force optimum of max c.x, A x <= b, x >= 0 by enumerating
    candidate basic points (every choice of n active constraints).

    Returns the best feasible value, or None when nothing is feasible.
    Only sensible for a handful of variables.
    """
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    n = c.size
    m = A.shape[0]
    # constraint stack: m rows (A x = b) then n axis planes (x_i = 0)
    best = None
    for active in combinations(range(m + n), n):
        M = np.zeros((n, n))
        rhs = np.zeros(n)
        for r, k in enumerate(active):
            if k < m:
                M[r] = A[k]
                rhs[r] = b[k]
            else:
                M[r, k - m] = 1.0
        try:
            x = np.linalg.solve(M, rhs)
        except np.linalg.LinAlgError:
            continue
        if x.min() < -1e-9 or (A @ x - b).max() > 1e-9:
            continue
        v = float(c @ x)
        if best is None or v > best:
            best = v
    return best


def _vertex_table():
    """(score, e10, e01) of the 16 deterministic strategies, recomputed
    from scratch (independent of the package's vertex rows)."""
    rows = []
    for a0, a1, b0, b1 in product((0, 1), repeat=4):
        score = float(a1 == 0 and b1 == 0) - float(a0 == 0 and b0 == 0)
        e10 = float(a1 == 0 and b0 == 1)
        e01 = float(a0 == 1 and b1 == 0)
        rows.append((score, e10, e01))
    return rows


def local_bound_oracle(eps: float) -> float:
    """Constrained local bound by basic-solution enumeration.

    The LP has 16 mixture weights and at most three binding rows
    (normalization plus the two eps constraints), so some optimum has
    support of size <= 3. Enumerate supports: singletons, pairs with one
    constraint tight, triples with both tight.
    """
    vts = _vertex_table()
    best = -np.inf
    feasible = lambda e1, e2: e1 <= eps + 1e-12 and e2 <= eps + 1e-12

    for i, (s, e1, e2) in enumerate(vts):
        if feasible(e1, e2):
            best = max(best, s)
    for i, j in combinations(range(16), 2):
        si, xi, yi = vts[i]
        sj, xj, yj = vts[j]
        for (ui, uj) in ((xi, xj), (yi, yj)):
            if abs(ui - uj) < 1e-14:
                continue
            t = (eps - uj) / (ui - uj)  # weight on vertex i tightening one row
            if 0.0 <= t <= 1.0:
                e1 = t * xi + (1 - t) * xj
                e2 = t * yi + (1 - t) * yj
                if feasible(e1, e2):
                    best = max(best, t * si + (1 - t) * sj)
    for idx in combinations(range(16), 3):
        M = np.array([[1.0, 1.0, 1.0],
                      [vts[k][1] for k in idx],
                      [vts[k][2] for k in idx]])
        try:
            w = np.linalg.solve(M, np.array([1.0, eps, eps]))
        except np.linalg.LinAlgError:
            continue
        if w.min() >= -1e-12:
            best = max(best, sum(wk * vts[k][0] for wk, k in zip(w, idx)))
    return float(best)


def family_envelope(a: float, b: float) -> float:
    """The constrained-family score at angles (a, b), maximized over c
    and delta: the top eigenvalue of [[P, S], [S, Q]].

    In the chart c = sin t / sqrt(W), W = 1 + tan^2(a/2) + tan^2(b/2),
    the normalizability radicand is cos^2 t and the score (phases at
    phi = xi = 0) is cos^2 t P + sin^2 t Q - sin 2t S cos delta with
    P = cos^2(a/2) cos^2(b/2) - 1, Q = sin^2(a/2) sin^2(b/2) / W and
    S = sin a sin b / (4 sqrt W). S > 0 for angles in (0, pi) and
    sin 2t >= 0, so delta = pi is best, and the maximum over t is that
    of the quadratic form at (cos t, sin t).
    """
    ca, sa, cb, sb = np.cos(a / 2), np.sin(a / 2), np.cos(b / 2), np.sin(b / 2)
    w = 1.0 + (sa / ca) ** 2 + (sb / cb) ** 2
    P, Q = ca * ca * cb * cb - 1.0, sa * sa * sb * sb / w
    S = np.sin(a) * np.sin(b) / (4.0 * np.sqrt(w))
    return float((P + Q) / 2 + np.hypot((P - Q) / 2, S))


def hardy_grid_oracle() -> float:
    """Dense-grid maximum of the success probability with the fourth
    probability pinned to zero.

    Rebuilt from the state and measurement definitions (amplitudes and
    projective overlaps written out longhand), not from the package's
    reduced objective: on the zero slice the |00> amplitude vanishes,
    the off-diagonal amplitudes are -c tan(angle/2), and c sits at the
    normalization ceiling. Four refinement rounds around the running
    argmax give ~1e-10 resolution in under a second.
    """
    lo_a, hi_a = 1e-3, np.pi - 1e-3
    lo_b, hi_b = 1e-3, np.pi - 1e-3
    best = -np.inf
    arg = (0.0, 0.0)
    for _ in range(4):
        a = np.linspace(lo_a, hi_a, 400)
        b = np.linspace(lo_b, hi_b, 400)
        A, B = np.meshgrid(a, b, indexing="ij")
        ta, tb = np.tan(A / 2), np.tan(B / 2)
        c = 1.0 / np.sqrt(1.0 + ta ** 2 + tb ** 2)
        # state (0, -c ta, -c tb, c); measurement vectors
        # u+ = (cos a/2, sin a/2), v+ = (cos b/2, sin b/2)
        amp = (np.cos(A / 2) * np.sin(B / 2) * (-c * ta)
               + np.sin(A / 2) * np.cos(B / 2) * (-c * tb)
               + np.sin(A / 2) * np.sin(B / 2) * c)
        p = amp ** 2
        k = np.unravel_index(np.argmax(p), p.shape)
        if p[k] > best:
            best = float(p[k])
            arg = (float(A[k]), float(B[k]))
        da = (hi_a - lo_a) / 399
        db = (hi_b - lo_b) / 399
        lo_a, hi_a = arg[0] - 2 * da, arg[0] + 2 * da
        lo_b, hi_b = arg[1] - 2 * db, arg[1] + 2 * db
    return best


def random_local_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    """Haar-ish unitary: QR of a complex Gaussian with phase fixing."""
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def extraction_isometry(da: int, db: int) -> tuple[np.ndarray, np.ndarray]:
    """The local extraction isometries (Phi_A, Phi_B) for even dims
    (da, db) as permutation matrices on system (x) ancilla, basis index
    2 n + ancilla.

    On the ancilla-|0> sector |2k, 0> stays put and |2k+1, 0> moves to
    |2k, 1>, copying the block qubit onto the ancilla. The map is
    completed to the ancilla-|1> sector by the index-ordered choice
    |2k, 1> -> |2k+1, 0>, |2k+1, 1> -> |2k+1, 1>, which makes each
    party's map a permutation (hence exactly an isometry); the
    completion never acts on states with both ancillas in |0>.
    """

    def local(d: int) -> np.ndarray:
        p = np.zeros((2 * d, 2 * d))
        for n in range(d):
            for anc in (0, 1):
                if anc == 0:
                    out = (n, 0) if n % 2 == 0 else (n - 1, 1)
                else:
                    out = (n + 1, 0) if n % 2 == 0 else (n, 1)
                p[out[0] * 2 + out[1], n * 2 + anc] = 1.0
        return p

    return local(da), local(db)
