"""The 2-party / 2-setting / 2-outcome Bell scenario.

Behaviors, the four distinguished Cabello probabilities, the 16-vertex
local deterministic polytope, and the epsilon-constrained local bound.

Outcome convention, used everywhere in the package: the outcome labels
(+, -) map to array indices (0, 1). So p[x][y][0][1] is the probability
of Alice "+" and Bob "-" for settings (x, y).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import product
from typing import Sequence

import numpy as np

from .mathcore import LPProblem, LP_TOL, solve_lp

PLUS, MINUS = 0, 1

_QUANTUM_TOL = 1e-10
_BEHAVIOR_TOL = 1e-9


class InvalidStateError(ValueError):
    """State vector is not normalized."""


class InvalidMeasurementError(ValueError):
    """Measurement operators fail hermiticity, idempotence or completeness."""


@dataclass(frozen=True)
class Behavior:
    """Joint conditional probabilities p[x][y][a][b], a 2x2x2x2 array."""

    p: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        if p.shape != (2, 2, 2, 2):
            raise ValueError(f"behavior must be 2x2x2x2, got {p.shape}")
        if p.min() < -_BEHAVIOR_TOL or p.max() > 1 + _BEHAVIOR_TOL:
            raise ValueError("behavior entries outside [0, 1]")
        totals = p.sum(axis=(2, 3))
        if np.abs(totals - 1.0).max() > _BEHAVIOR_TOL:
            raise ValueError("behavior not normalized per setting pair")
        object.__setattr__(self, "p", p)

    def to_json(self) -> str:
        return json.dumps({"p": self.p.tolist()})

    @classmethod
    def from_json(cls, text: str) -> "Behavior":
        return cls(p=np.array(json.loads(text)["p"], dtype=float))


@dataclass(frozen=True)
class CabelloStats:
    """The four probabilities entering the argument plus the score p - q."""

    q: float
    p: float
    e10: float
    e01: float
    score: float


@dataclass(frozen=True)
class DeterministicStrategy:
    """Outcome assignment (a0, a1, b0, b1), each 0 for "+" or 1 for "-"."""

    a0: int
    a1: int
    b0: int
    b1: int


@dataclass(frozen=True)
class Certificate:
    """Outcome of a nonlocality check against the eps-constrained bound.

    ``constraints_violated`` flags the case e10 > eps or e01 > eps, in
    which the behavior is outside the regime the bound applies to and
    ``certified`` is necessarily False.
    """

    certified: bool
    margin: float
    constraints_violated: bool


def _stack_measurements(proj: Sequence[Sequence[np.ndarray]], dim: int,
                        who: str) -> np.ndarray:
    """Projectors as one (setting, outcome, dim, dim) array, checked.

    Each projector's shape is checked before stacking; then hermiticity,
    idempotence and completeness on the stack, in that order.
    """
    proj = [proj[0], proj[1]]
    for x, ops in enumerate(proj):
        if len(ops) != 2:
            raise InvalidMeasurementError(
                f"{who} setting {x}: need exactly two projectors per setting")
        for pi in ops:
            if np.shape(pi) != (dim, dim):
                raise InvalidMeasurementError(
                    f"{who} setting {x}: projector shape {np.shape(pi)} != {(dim, dim)}")
    P = np.array(proj, dtype=complex)
    errs = (
        (np.linalg.norm(P - np.conj(P).swapaxes(-1, -2), axis=(-2, -1)),
         "projector not Hermitian"),
        (np.linalg.norm(P @ P - P, axis=(-2, -1)), "projector not idempotent"),
        (np.linalg.norm(P.sum(axis=1) - np.eye(dim), axis=(-2, -1)),
         "projectors do not sum to identity"),
    )
    for err, what in errs:
        bad = err > _QUANTUM_TOL
        if bad.any():
            raise InvalidMeasurementError(f"{who} setting {np.nonzero(bad)[0][0]}: {what}")
    return P


def behavior_from_quantum(
    state: np.ndarray,
    projA: Sequence[Sequence[np.ndarray]],
    projB: Sequence[Sequence[np.ndarray]],
) -> Behavior:
    """Born-rule behavior p(a,b|x,y) = <psi| Pi_{a|x} (x) Pi_{b|y} |psi>.

    ``projA[x]`` and ``projB[y]`` are the two projectors (order +, -) of
    the binary measurement for setting x resp. y. Dimensions are read
    off the projectors; the state must live on the tensor product. The
    sixteen probabilities come from one contraction of the state, read
    as a dA x dB matrix, with the stacked projectors.
    """
    state = np.asarray(state, dtype=complex).reshape(-1)
    dA = np.asarray(projA[0][0]).shape[0]
    dB = np.asarray(projB[0][0]).shape[0]
    if state.size != dA * dB:
        raise InvalidStateError(f"state has dimension {state.size}, expected {dA * dB}")
    if abs(np.linalg.norm(state) - 1.0) > _QUANTUM_TOL:
        raise InvalidStateError(f"state norm {np.linalg.norm(state):.12f} != 1")
    PA = _stack_measurements(projA, dA, "Alice")
    PB = _stack_measurements(projB, dB, "Bob")
    psi = state.reshape(dA, dB)
    p = np.einsum("ij,xaik,ybjl,kl->xyab", np.conj(psi), PA, PB, psi).real
    return Behavior(p=np.clip(p, 0.0, 1.0))


def cabello_stats(b: Behavior) -> CabelloStats:
    """Extract q, p, the two constraint probabilities, and the score."""
    q = float(b.p[0, 0, PLUS, PLUS])
    p = float(b.p[1, 1, PLUS, PLUS])
    e10 = float(b.p[1, 0, PLUS, MINUS])
    e01 = float(b.p[0, 1, MINUS, PLUS])
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
    # normalization written as a pair of <= rows so LPProblem stays pure-inequality
    A = np.vstack([ones, -ones, e10, e01])
    b = np.array([1.0, -1.0, eps, eps])
    value, _ = solve_lp(LPProblem(c=score, A=A, b=b, nonneg=np.ones(16, dtype=bool)),
                        tol=LP_TOL)
    return value + 0.0  # normalize -0.0


def certify_nonlocal(b: Behavior, eps: float) -> Certificate:
    """Check a behavior against the eps-constrained local bound.

    certified means the constraint probabilities respect eps and the
    score strictly exceeds local_max_score(eps). The margin (score
    minus bound) is reported either way.
    """
    st = cabello_stats(b)
    bound = local_max_score(eps)
    violated = st.e10 > eps + _BEHAVIOR_TOL or st.e01 > eps + _BEHAVIOR_TOL
    certified = (not violated) and st.score > bound
    return Certificate(certified=certified, margin=st.score - bound,
                       constraints_violated=violated)
