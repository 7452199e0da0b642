"""The 2-party / 2-setting / 2-outcome Bell scenario.

Behaviors, the four distinguished Cabello probabilities, the 16-vertex
local deterministic polytope, and the epsilon-constrained local bound,
solved exactly by enumerating the vertices of its three-row mixture LP.

Outcome convention, used everywhere in the package: the outcome labels
(+, -) map to array indices (0, 1). So p[x][y][0][1] is the probability
of Alice "+" and Bob "-" for settings (x, y).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import combinations, product
from typing import Sequence

import numpy as np

PLUS, MINUS = 0, 1

_QUANTUM_TOL = 1e-10
_BEHAVIOR_TOL = 1e-9


class InvalidStateError(ValueError):
    """State vector is not normalized."""


class InvalidMeasurementError(ValueError):
    """Measurement operators fail hermiticity, idempotence or completeness."""


class InfeasibleError(RuntimeError):
    """LP has no feasible point."""


@dataclass(frozen=True)
class Behavior:
    """Joint conditional probabilities p[x][y][a][b], a 2x2x2x2 array.

    A batch of behaviors carries a leading sample axis, p of shape
    (n, 2, 2, 2, 2); range and normalization are checked for every
    sample.
    """

    p: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        if p.ndim not in (4, 5) or p.shape[-4:] != (2, 2, 2, 2):
            raise ValueError(f"behavior must be 2x2x2x2 or n x 2x2x2x2, got {p.shape}")
        # written so that a NaN entry fails every test
        if not (p.min() >= -_BEHAVIOR_TOL and p.max() <= 1 + _BEHAVIOR_TOL):
            raise ValueError("behavior entries outside [0, 1]")
        totals = p.sum(axis=(-2, -1))
        if not np.abs(totals - 1.0).max() <= _BEHAVIOR_TOL:
            raise ValueError("behavior not normalized per setting pair")
        object.__setattr__(self, "p", p)


@dataclass(frozen=True)
class CabelloStats:
    """The four probabilities entering the argument plus the score p - q.

    Floats for one behavior; arrays over the sample axis for a batch.
    """

    q: float | np.ndarray
    p: float | np.ndarray
    e10: float | np.ndarray
    e01: float | np.ndarray
    score: float | np.ndarray


def _frobenius(M: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix over the last two axes of a contiguous complex M."""
    v = M.view(float).reshape(*M.shape[:-2], -1)
    return np.sqrt(np.einsum("...q,...q->...", v, v))


def _projector_errors(P: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Frobenius distances of a (sample, setting, outcome, dim, dim) stack
    from hermiticity, from idempotence, and of each setting's pair sum
    from the identity. P @ P is a sum of dim broadcast products, with no
    per-matrix BLAS call; entries that are not finite give NaN or inf
    errors, with no warning."""
    dim = P.shape[-1]
    with np.errstate(invalid="ignore", over="ignore"):
        PP = sum(P[..., :, j, None] * P[..., None, j, :] for j in range(dim))
        return (_frobenius(P - np.conj(P).swapaxes(-1, -2)),
                _frobenius(PP - P),
                _frobenius(P[:, :, 0] + P[:, :, 1] - np.eye(dim)))


def _stack_measurements(proj, n: int, dim: int, who: str, batched: bool) -> np.ndarray:
    """Projectors as one (sample, setting, outcome, dim, dim) array, checked.

    A single call's projectors are stacked as the batch of one.
    The stack's shape is checked first, then hermiticity, idempotence
    and completeness over the stack, in that order; an error names the
    first failing sample of a batch.
    """
    try:
        P = np.asarray(proj if batched else [proj], dtype=complex)
    except ValueError as e:  # ragged: projectors of unequal shapes
        raise InvalidMeasurementError(f"{who}: projectors of unequal shapes") from e
    if P.shape != (n, 2, 2, dim, dim):
        raise InvalidMeasurementError(
            f"{who}: projector stack shape {P.shape} != {(n, 2, 2, dim, dim)}")
    whats = ("projector not Hermitian", "projector not idempotent",
             "projectors do not sum to identity")
    for err, what in zip(_projector_errors(P), whats):
        bad = ~(err <= _QUANTUM_TOL)  # NaN counts as a failure
        if bad.any():
            k, x = np.argwhere(bad)[0][:2]
            raise InvalidMeasurementError(f"{_sample(k, batched)}{who} setting {x}: {what}")
    return P


def _sample(k: int, batched: bool) -> str:
    """Error-message prefix naming sample k of a batch."""
    return f"sample {k}: " if batched else ""


def behavior_from_quantum(
    state: np.ndarray,
    projA: Sequence[Sequence[np.ndarray]] | np.ndarray,
    projB: Sequence[Sequence[np.ndarray]] | np.ndarray,
) -> Behavior:
    """Born-rule behavior p(a,b|x,y) = <psi| Pi_{a|x} (x) Pi_{b|y} |psi>.

    ``projA[x]`` and ``projB[y]`` are the two projectors (order +, -) of
    the binary measurement for setting x resp. y. Dimensions are read
    off the projectors; the state must live on the tensor product. Read
    as a dA x dB matrix psi, the state gives p(a,b|x,y) as the trace
    tr(X Y) of X = psi^H Pi_{a|x} and Y = psi Pi_{b|y}^T, each formed
    as a sum of broadcast products over one local index; the sixteen
    traces are one contraction of the flattened (dB, dA) blocks.

    Batch axis: a state of shape (n, dA*dB) with projector stacks of
    shape (n, 2, 2, dA, dA) and (n, 2, 2, dB, dB) gives n behaviors in
    one call, a Behavior whose p has shape (n, 2, 2, 2, 2); sample k is
    the Born rule of state[k] with projA[k] and projB[k]. Every check
    runs over the whole batch, in the order of a single call, and its
    error names the first failing sample. A single call is the batch of
    one.
    """
    state = np.asarray(state, dtype=complex)
    batched = state.ndim == 2
    if not batched:
        state = state.reshape(1, -1)
    n = state.shape[0]
    # rows of the first projector pair (of sample 0, for a batch)
    dA, dB = np.shape(projA[0][0])[-2], np.shape(projB[0][0])[-2]
    if state.shape[1] != dA * dB:
        raise InvalidStateError(f"state has dimension {state.shape[1]}, expected {dA * dB}")
    with np.errstate(invalid="ignore", over="ignore"):  # inf or huge entries fail below
        norms = np.linalg.norm(state, axis=1)
    bad = ~(np.abs(norms - 1.0) <= _QUANTUM_TOL)  # NaN counts as a failure
    if bad.any():
        k = int(np.argmax(bad))
        raise InvalidStateError(f"{_sample(k, batched)}state norm {norms[k]:.12f} != 1")
    PA = _stack_measurements(projA, n, dA, "Alice", batched)
    PB = _stack_measurements(projB, n, dB, "Bob", batched)
    psi = state.reshape(n, dA, dB)
    # X[n, x, a] = psi^H PA[x, a] and Y[n, y, b]^T = PB[y, b] psi^T, both (dB, dA)
    X = sum(np.conj(psi)[:, None, None, i, :, None] * PA[:, :, :, i, None, :]
            for i in range(dA))
    Yt = sum(PB[:, :, :, :, l, None] * psi[:, None, None, None, :, l] for l in range(dB))
    p = np.einsum("nsq,ntq->nst", X.reshape(n, 4, -1), Yt.reshape(n, 4, -1)).real
    p = np.clip(p.reshape(n, 2, 2, 2, 2).transpose(0, 1, 3, 2, 4), 0.0, 1.0)
    return Behavior(p=p if batched else p[0])


def cabello_stats(b: Behavior) -> CabelloStats:
    """Extract q, p, the two constraint probabilities, and the score.

    For a batched behavior each is an array over the sample axis.
    """
    q, p, e10, e01 = (b.p[..., 0, 0, PLUS, PLUS], b.p[..., 1, 1, PLUS, PLUS],
                      b.p[..., 1, 0, PLUS, MINUS], b.p[..., 0, 1, MINUS, PLUS])
    if b.p.ndim == 4:
        q, p, e10, e01 = float(q), float(p), float(e10), float(e01)
    return CabelloStats(q=q, p=p, e10=e10, e01=e01, score=p - q)


# Every local deterministic strategy assigns outcomes (a0, a1, b0, b1) and
# reads score = [a1 = b1 = +] - [a0 = b0 = +], e10 = [a1 = +, b0 = -] and
# e01 = [a0 = -, b1 = +]. The 16 strategies give 7 distinct rows; a
# mixture LP needs each column once, here in sorted order (sorted by
# hand: np.unique would import numpy.ma at start-up)
_VERTICES = np.array(sorted({
    ((a1 == b1 == PLUS) - (a0 == b0 == PLUS),
     (a1, b0) == (PLUS, MINUS), (a0, b1) == (MINUS, PLUS))
    for a0, a1, b0, b1 in product((PLUS, MINUS), repeat=4)}), dtype=float)


@functools.cache
def _supports(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Index arrays for n columns: every pair (m, 2) and triple (m, 3) in
    lexicographic order, the support of every LP candidate as a row of
    three indices (singles, pairs twice, one per eps row, then triples;
    singles and pairs repeat their last index, with weight 0 there),
    and per candidate which of its two eps rows it makes tight."""
    pairs, triples = (np.array(list(combinations(range(n), k)), dtype=np.intp).reshape(-1, k)
                      for k in (2, 3))
    padded = pairs[:, [0, 1, 1]]
    S = np.concatenate((np.arange(n).repeat(3).reshape(n, 3), padded, padded, triples))
    tight = np.repeat([[False, False], [True, False], [False, True], [True, True]],
                      [n, len(pairs), len(pairs), len(triples)], axis=0)
    for a in (pairs, triples, S, tight):
        a.setflags(write=False)  # shared by every call
    return pairs, triples, S, tight


def solve_lp(cols: np.ndarray, eps: float) -> tuple[float, np.ndarray]:
    """Best mixture of columns (score, e10, e01) with both e rows <= eps.

    Maximizes sum_i w_i score_i subject to sum_i w_i = 1, w >= 0,
    sum_i w_i e10_i <= eps and sum_i w_i e01_i <= eps; returns
    (value, w). With three rows, every vertex of the feasible set has
    at most three nonzero weights: one column, two with one eps row
    tight, or three with both tight. All are enumerated in that order
    (pairs against e10, then against e01), each in lexicographic order
    of its support, and the first best candidate wins, so ties resolve
    deterministically. A candidate is feasible when its weights are
    >= 0 and each eps row it does not make tight by construction holds,
    both as computed and with no slack: a mixture that breaks a row by
    rounding can score above the optimum, and a vertex that sits on a
    bound only up to rounding is degenerate, so it is also enumerated
    on a smaller support or with that row tight. Raises
    ValueError unless cols is a finite (n, 3) array with n >= 1, and
    InfeasibleError when no mixture is feasible.
    """
    cols = np.asarray(cols, dtype=float)
    if cols.ndim != 2 or cols.shape[1] != 3 or not cols.size or not np.isfinite(cols).all():
        raise ValueError(f"cols must be a finite (n, 3) array with n >= 1, got {cols.shape}")
    n = len(cols)
    pairs, triples, S, tight = _supports(n)
    # candidate weights over the supports S; NaN marks a singular system
    weights = [np.eye(1, 3).repeat(n, axis=0)]
    for r in (1, 2):  # pairs with eps row r tight: t r_i + (1 - t) r_j = eps
        ri, rj = cols[pairs[:, 0], r], cols[pairs[:, 1], r]
        den = ri - rj
        t = np.divide(eps - rj, den, out=np.full(len(den), np.nan), where=den != 0)
        weights.append(np.column_stack((t, 1.0 - t, np.zeros(len(t)))))
    # triples with both rows tight: M w = (1, eps, eps) for M's columns a, b, c of
    # (1, e10, e01); by Cramer's rule w = (b x c, c x a, a x b) (1, eps, eps) / det M
    C = np.concatenate((np.ones((len(triples), 3, 1)), cols[triples, 1:]), axis=2)
    P, Q = C[:, [1, 2, 0]], C[:, [2, 0, 1]]
    X = P[..., [1, 2, 0]] * Q[..., [2, 0, 1]] - P[..., [2, 0, 1]] * Q[..., [1, 2, 0]]
    det = np.einsum("kj,kj->k", C[:, 0], X[:, 0])[:, None]
    weights.append(np.divide(X @ np.array([1.0, eps, eps]), det,
                             out=np.full((len(det), 3), np.nan), where=det != 0))
    W = np.concatenate(weights)
    # NaN weights fail the test, so singular systems drop out here
    ok = np.flatnonzero((W >= 0.0).all(axis=1))
    mix = np.einsum("kj,kjr->kr", W[ok], cols[S[ok]])  # (score, e10, e01) per candidate
    feasible = (tight[ok] | (mix[:, 1:] <= eps)).all(axis=1)
    if not feasible.any():
        raise InfeasibleError(f"no mixture of the {n} columns meets eps = {eps}")
    k = np.argmax(np.where(feasible, mix[:, 0], -np.inf))
    w = np.zeros(n)
    np.add.at(w, S[ok[k]], W[ok[k]])
    return float(mix[k, 0]), w


def local_max_score(eps: float) -> float:
    """Exact LP optimum of p - q over the eps-constrained local polytope.

    The best mixture of the deterministic vertices subject to
    e10 <= eps, e01 <= eps, found by ``solve_lp``. Always feasible (the
    all-"+" strategy has e10 = e01 = 0), so there is an optimum for
    every eps >= 0. Every vertex has e10, e01 in {0, 1}, so both rows are
    vacuous from eps = 1 on, and the LP is solved at min(eps, 1), which
    keeps its Cramer products finite at any finite eps.
    """
    if not 0.0 <= eps < np.inf:
        raise ValueError(f"eps must be finite and nonnegative, got {eps}")
    value, _ = solve_lp(_VERTICES, min(eps, 1.0))
    return value + 0.0  # normalize -0.0
