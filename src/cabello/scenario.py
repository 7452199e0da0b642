"""The 2-party / 2-setting / 2-outcome Bell scenario.

Behaviors, the four distinguished Cabello probabilities, the 16-vertex
local deterministic polytope, and the epsilon-constrained local bound
with its LP solver.

Outcome convention, used everywhere in the package: the outcome labels
(+, -) map to array indices (0, 1). So p[x][y][0][1] is the probability
of Alice "+" and Bob "-" for settings (x, y).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Sequence

import numpy as np
import scipy.optimize

PLUS, MINUS = 0, 1

LP_TOL = 1e-9  # primal and dual feasibility tolerance of the LP solver

_QUANTUM_TOL = 1e-10
_BEHAVIOR_TOL = 1e-9


class InvalidStateError(ValueError):
    """State vector is not normalized."""


class InvalidMeasurementError(ValueError):
    """Measurement operators fail hermiticity, idempotence or completeness."""


class InfeasibleError(RuntimeError):
    """LP has no feasible point."""


class UnboundedError(RuntimeError):
    """LP objective is unbounded above on the feasible region."""


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


@dataclass(frozen=True)
class DeterministicStrategy:
    """Outcome assignment (a0, a1, b0, b1), each 0 for "+" or 1 for "-"."""

    a0: int
    a1: int
    b0: int
    b1: int


def _stack_measurements(proj, n: int, dim: int, who: str, batched: bool) -> np.ndarray:
    """Projectors as one (sample, setting, outcome, dim, dim) array, checked.

    Shapes come first: each projector's for a single call, the whole
    stack's for a batch. Then hermiticity, idempotence and completeness
    over the stack, in that order; an error names the first failing
    sample of a batch.
    """
    if batched:
        P = np.asarray(proj, dtype=complex)
        if P.shape != (n, 2, 2, dim, dim):
            raise InvalidMeasurementError(
                f"{who}: projector stack shape {P.shape} != {(n, 2, 2, dim, dim)}")
    else:
        proj = [proj[0], proj[1]]
        for x, ops in enumerate(proj):
            if len(ops) != 2:
                raise InvalidMeasurementError(
                    f"{who} setting {x}: need exactly two projectors per setting")
            for pi in ops:
                if np.shape(pi) != (dim, dim):
                    raise InvalidMeasurementError(
                        f"{who} setting {x}: projector shape {np.shape(pi)} != {(dim, dim)}")
        P = np.array([proj], dtype=complex)
    errs = (
        (np.linalg.norm(P - np.conj(P).swapaxes(-1, -2), axis=(-2, -1)),
         "projector not Hermitian"),
        (np.linalg.norm(P @ P - P, axis=(-2, -1)), "projector not idempotent"),
        (np.linalg.norm(P.sum(axis=2) - np.eye(dim), axis=(-2, -1)),
         "projectors do not sum to identity"),
    )
    for err, what in errs:
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
    off the projectors; the state must live on the tensor product. The
    sixteen probabilities come from one contraction of the state, read
    as a dA x dB matrix, with the stacked projectors.

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
    norms = np.linalg.norm(state, axis=1)
    bad = ~(np.abs(norms - 1.0) <= _QUANTUM_TOL)  # NaN counts as a failure
    if bad.any():
        k = int(np.argmax(bad))
        raise InvalidStateError(f"{_sample(k, batched)}state norm {norms[k]:.12f} != 1")
    PA = _stack_measurements(projA, n, dA, "Alice", batched)
    PB = _stack_measurements(projB, n, dB, "Bob", batched)
    psi = state.reshape(n, dA, dB)
    p = np.clip(np.einsum("nij,nxaik,nybjl,nkl->nxyab", np.conj(psi), PA, PB, psi).real,
                0.0, 1.0)
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


def deterministic_behavior(s: DeterministicStrategy) -> Behavior:
    """The 0/1 behavior induced by a local deterministic assignment."""
    p = np.zeros((2, 2, 2, 2))
    ax = (s.a0, s.a1)
    by = (s.b0, s.b1)
    for x, y in product(range(2), repeat=2):
        p[x, y, ax[x], by[y]] = 1.0
    return Behavior(p=p)


def enumerate_local_deterministic() -> list[tuple[DeterministicStrategy, Behavior]]:
    """All 16 deterministic strategies with their induced behaviors."""
    out = []
    for a0, a1, b0, b1 in product(range(2), repeat=4):
        s = DeterministicStrategy(a0=a0, a1=a1, b0=b0, b1=b1)
        out.append((s, deterministic_behavior(s)))
    return out


def _vertex_stats() -> np.ndarray:
    """Rows (score, e10, e01) for the 16 deterministic vertices."""
    rows = np.empty((16, 3))
    for i, (_, beh) in enumerate(enumerate_local_deterministic()):
        st = cabello_stats(beh)
        rows[i] = (st.score, st.e10, st.e01)
    return rows


_VERTICES = _vertex_stats()


def solve_lp(c: np.ndarray, A: np.ndarray, b: np.ndarray) -> tuple[float, np.ndarray]:
    """Maximize c·x subject to A x <= b and x >= 0; returns (value, x).

    Solved by HiGHS to the feasibility tolerance ``LP_TOL``. Raises
    InfeasibleError or UnboundedError when the problem has no optimum;
    any other solver failure surfaces as RuntimeError.
    """
    res = scipy.optimize.linprog(
        -np.asarray(c, dtype=float),
        A_ub=A,
        b_ub=b,
        bounds=(0.0, None),
        method="highs",
        options={"primal_feasibility_tolerance": LP_TOL,
                 "dual_feasibility_tolerance": LP_TOL},
    )
    if res.status == 2:
        raise InfeasibleError(res.message)
    if res.status == 3:
        raise UnboundedError(res.message)
    if not res.success:  # pragma: no cover - defensive
        raise RuntimeError(f"LP solver failure: {res.message}")
    return float(-res.fun), np.asarray(res.x, dtype=float)


def local_max_score(eps: float) -> float:
    """Exact LP optimum of p - q over the eps-constrained local polytope.

    Mixture weights over the 16 deterministic vertices, subject to
    e10 <= eps, e01 <= eps. Always feasible (the all-"+" strategy has
    e10 = e01 = 0), so the LP has an optimum for every eps >= 0.
    """
    if not 0.0 <= eps < np.inf:
        raise ValueError(f"eps must be finite and nonnegative, got {eps}")
    score, e10, e01 = _VERTICES.T
    ones = np.ones(16)
    # normalization written as a pair of <= rows, since solve_lp takes inequalities only
    A = np.vstack([ones, -ones, e10, e01])
    b = np.array([1.0, -1.0, eps, eps])
    value, _ = solve_lp(score, A, b)
    return value + 0.0  # normalize -0.0
