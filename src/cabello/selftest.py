"""Numerical verification of the self-testing claim.

Any pair of binary projective measurements decomposes the local space
into invariant blocks of dimension at most two (Jordan's lemma); a
maximal-score state must then be a weighted direct sum of copies of the
optimal two-qubit state across block pairs. The extraction isometry
appends one ancilla qubit per party and routes each block's qubit onto
the ancilla, leaving a junk register behind; fidelity of the reduced
ancilla pair against the optimal state is the verified figure of merit.
The ancillas start in |0>, so only the isometry's action on the
ancilla-|0> sector is ever used, and it is applied as an index map.

Basis convention, fixed globally: even indices of each local space are
"+" eigenvectors of the first (computational) setting, odd indices are
"-" eigenvectors, so block i occupies indices (2i, 2i+1). States built
by assemble_direct_sum follow the convention automatically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .qubit import AnsatzParams, MeasurementParams, analytic_optimum, ansatz_state, projectors


_OCCUPIED = 1e-12  # a cell of weight at or below this is empty: never checked nor read


class BadWeightsError(ValueError):
    """Direct-sum weights are negative or do not sum to one."""


class BasisMismatchError(ValueError):
    """State layout inconsistent with the even/odd block convention."""


@dataclass(frozen=True)
class DirectSumState:
    """Weighted direct sum of two-qubit block states.

    ``mu`` is the (nA, nB) weight matrix over block pairs;
    ``block_states`` holds one normalized 4-vector per cell (ignored
    where the weight is at most ``_OCCUPIED``). Alice lives on
    dimension 2 nA, Bob on 2 nB, with block i at indices (2i, 2i+1).
    """

    mu: np.ndarray
    block_states: np.ndarray
    phi: float = 0.0
    xi: float = 0.0

    def __post_init__(self):
        mu = np.atleast_2d(np.asarray(self.mu, dtype=float))
        bs = np.asarray(self.block_states, dtype=complex)
        if mu.ndim != 2 or mu.size == 0:
            raise BadWeightsError("weights must form a nonempty matrix")
        with np.errstate(invalid="ignore"):  # inf - inf
            total = mu.sum()
        # written so that NaN fails: a weight that is not finite leaves
        # the sum NaN or infinite
        if not (mu.min() >= -1e-12 and abs(total - 1.0) <= 1e-9):
            raise BadWeightsError("weights must be finite, nonnegative and sum to 1 "
                                  f"(sum = {total:.12f})")
        if bs.shape != mu.shape + (4,):
            raise BasisMismatchError(
                f"block states shaped {bs.shape}, expected {mu.shape + (4,)}"
            )
        norms = np.linalg.norm(bs[mu > _OCCUPIED], axis=-1)  # empty cells are never read
        if not np.all(np.abs(norms - 1.0) <= 1e-9):
            raise BasisMismatchError("occupied block states must be normalized")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "block_states", bs)

    @property
    def dims(self) -> tuple[int, int]:
        na, nb = self.mu.shape
        return 2 * na, 2 * nb

    def _weighted_blocks(self) -> np.ndarray:
        """sqrt(mu[i, j]) times block state (i, j), an (nA, nB, 4) array
        whose last axis runs over the block qubits (a, b) as 2 a + b."""
        mu = self.mu[..., None]
        # the product runs on occupied cells only, so an empty cell is +0
        # whatever its placeholder state holds, with no warning
        return np.multiply(np.sqrt(np.maximum(mu, 0.0)), self.block_states,
                           out=np.zeros(self.block_states.shape, dtype=complex),
                           where=mu > _OCCUPIED)

    def vector(self) -> np.ndarray:
        """Assembled global state on dims (2 nA) x (2 nB), flattened."""
        na, nb = self.mu.shape
        return self._weighted_blocks().reshape(na, nb, 2, 2).transpose(0, 2, 1, 3).reshape(-1)


@dataclass(frozen=True)
class IsometryReport:
    """Fidelity of the extracted ancilla pair against the optimal state,
    with the junk register dimensions and per-block overlaps."""

    fidelity: float
    junk_dims: tuple[int, int]
    blocks: tuple[dict, ...]

    def to_json(self) -> str:
        return json.dumps({"fidelity": self.fidelity,
                           "junk_dims": list(self.junk_dims),
                           "blocks": list(self.blocks)})


_OPT = analytic_optimum()


def optimal_block_state(phi: float = 0.0, xi: float = 0.0) -> np.ndarray:
    """The maximizing two-qubit state at the given azimuthal phases."""
    return ansatz_state(AnsatzParams(s00=_OPT.kappa00, s01=_OPT.kappa01,
                                     s11=_OPT.kappa11, phi=phi, xi=xi))


def block_extended_measurements(na: int, nb: int, phi: float = 0.0,
                                xi: float = 0.0):
    """Optimal measurements promoted blockwise to dims (2 na, 2 nb).

    Returns (projA, projB) in the layout behavior_from_quantum expects;
    every block carries the same qubit measurement, so the extension is
    a Kronecker product with the block identity.
    """
    m = MeasurementParams(alpha=_OPT.alpha, beta=_OPT.beta, phi=phi, xi=xi)
    a0, a1, b0, b1 = projectors(m)
    lift = lambda n, pair: tuple(np.kron(np.eye(n), p) for p in pair)
    return ([lift(na, a0), lift(na, a1)], [lift(nb, b0), lift(nb, b1)])


def assemble_direct_sum(weights, phases: tuple[float, float] = (0.0, 0.0)) -> DirectSumState:
    """Direct sum of optimal block states with the given weights.

    A weight list places its entries on the diagonal (block i of Alice
    with block i of Bob); a matrix assigns arbitrary block pairs. The
    induced behavior under the block-extended optimal measurements
    scores the qubit maximum for any valid weights.
    """
    mu = np.asarray(weights, dtype=float)
    if mu.ndim <= 1:
        mu = np.diag(np.atleast_1d(mu))
    phi, xi = phases
    psi = optimal_block_state(phi, xi)
    bs = np.broadcast_to(psi, mu.shape + (4,)).copy()
    return DirectSumState(mu=mu, block_states=bs, phi=phi, xi=xi)


def _ancilla_pair(state: DirectSumState) -> np.ndarray:
    """Reduced density matrix of the two ancillas after extraction.

    The state tensored with |00> on the ancillas is pushed through the
    local extraction isometries and the system registers are traced
    out. On the ancilla-|0> sector each party's isometry sends
    |2k+a>|0> to |2k>|a>, so it acts as an index map: the amplitude of
    |2k+a, 2l+b> becomes that of ancillas |a, b> with junk |2k, 2l>, and
    the odd junk indices stay empty. So the ancilla amplitudes are the
    weighted blocks themselves, read as a (4, nA nB) array: row 2 a + b,
    column nB k + l.
    """
    na, nb = state.mu.shape
    anc = np.ascontiguousarray(state._weighted_blocks().reshape(na * nb, 4).T)
    return anc @ anc.conj().T


def verify_selftest(state: DirectSumState) -> IsometryReport:
    """Apply the extraction isometries and report the ancilla fidelity.

    The reduced ancilla pair (``_ancilla_pair``) is compared with the
    optimal two-qubit state at the state's phases via the pure-reference
    overlap <ref|rho|ref>.
    """
    rho = _ancilla_pair(state)
    ref = optimal_block_state(state.phi, state.xi)
    fid = float(np.real(np.vdot(ref, rho @ ref)))
    fid = min(max(fid, 0.0), 1.0)
    blocks = []
    for i, j in zip(*np.nonzero(state.mu > _OCCUPIED)):
        ov = min(abs(np.vdot(ref, state.block_states[i, j])) ** 2, 1.0)
        blocks.append({"i": int(i), "j": int(j), "weight": float(state.mu[i, j]),
                       "overlap": float(ov)})
    return IsometryReport(fidelity=fid, junk_dims=state.dims, blocks=tuple(blocks))
