"""Numerical verification of the self-testing claim.

Any pair of binary projective measurements decomposes the local space
into invariant blocks of dimension at most two (Jordan's lemma); a
maximal-score state must then be a weighted direct sum of copies of the
optimal two-qubit state across block pairs. The extraction isometry
appends one ancilla qubit per party and routes each block's qubit onto
the ancilla, leaving a junk register behind; fidelity of the reduced
ancilla pair against the optimal state is the verified figure of merit.

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


class BadWeightsError(ValueError):
    """Direct-sum weights are negative or do not sum to one."""


class OddDimensionError(ValueError):
    """Extraction requires even local dimensions (paired +/- vectors)."""


class BasisMismatchError(ValueError):
    """State layout inconsistent with the even/odd block convention."""


@dataclass(frozen=True)
class DirectSumState:
    """Weighted direct sum of two-qubit block states.

    ``mu`` is the (nA, nB) weight matrix over block pairs;
    ``block_states`` holds one normalized 4-vector per cell (ignored
    where the weight vanishes). Alice lives on dimension 2 nA, Bob on
    2 nB, with block i at indices (2i, 2i+1).
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
        norms = np.linalg.norm(bs, axis=2)
        if not np.all(np.abs(norms[mu > 1e-12] - 1.0) <= 1e-9):
            raise BasisMismatchError("occupied block states must be normalized")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "block_states", bs)

    @property
    def dims(self) -> tuple[int, int]:
        na, nb = self.mu.shape
        return 2 * na, 2 * nb

    def vector(self) -> np.ndarray:
        """Assembled global state on dims (2 nA) x (2 nB), flattened."""
        na, nb = self.mu.shape
        da, db = self.dims
        chi = np.zeros((da, db), dtype=complex)
        for i in range(na):
            for j in range(nb):
                if self.mu[i, j] <= 1e-300:
                    continue
                blk = np.sqrt(self.mu[i, j]) * self.block_states[i, j].reshape(2, 2)
                chi[2 * i:2 * i + 2, 2 * j:2 * j + 2] = blk
        return chi.reshape(-1)


@dataclass(frozen=True)
class ExtractionIsometry:
    """Local extraction maps, one per party, on system (x) ancilla."""

    phi_a: np.ndarray
    phi_b: np.ndarray


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


def extraction_isometry(da: int, db: int) -> ExtractionIsometry:
    """Local ancilla-qubit isometries for even dims (da, db).

    On the ancilla-|0> sector: |2k, 0> stays put and |2k+1, 0> moves to
    |2k, 1>, copying the block qubit onto the ancilla. The map is
    completed to the ancilla-|1> sector by the canonical index-ordered
    choice |2k, 1> -> |2k+1, 0>, |2k+1, 1> -> |2k+1, 1>, which makes
    each party's map a permutation (hence exactly an isometry); the
    completion never acts on assembled inputs.
    """

    def local(d: int) -> np.ndarray:
        if d % 2:
            raise OddDimensionError(f"local dimension must be even, got {d}")
        p = np.zeros((2 * d, 2 * d))
        for n in range(d):
            for anc in (0, 1):
                if anc == 0:
                    out = (n, 0) if n % 2 == 0 else (n - 1, 1)
                else:
                    out = (n + 1, 0) if n % 2 == 0 else (n, 1)
                p[out[0] * 2 + out[1], n * 2 + anc] = 1.0
        return p

    return ExtractionIsometry(phi_a=local(da), phi_b=local(db))


def verify_selftest(state: DirectSumState) -> IsometryReport:
    """Apply the extraction isometries and report the ancilla fidelity.

    The state tensored with |00> on the ancillas is pushed through
    Phi_A (x) Phi_B; the system registers are traced out and the
    reduced ancilla pair is compared with the optimal two-qubit state
    at the state's phases via the pure-reference overlap <ref|rho|ref>.
    """
    na, nb = state.mu.shape
    da, db = state.dims
    iso = extraction_isometry(da, db)
    chi = state.vector().reshape(da, db)
    full = np.zeros((da, 2, db, 2), dtype=complex)
    full[:, 0, :, 0] = chi
    flat = full.reshape(da * 2, db * 2)
    flat = iso.phi_a @ flat @ iso.phi_b.T
    v4 = flat.reshape(da, 2, db, 2)
    anc = np.transpose(v4, (1, 3, 0, 2)).reshape(4, da * db)
    rho = anc @ anc.conj().T
    ref = optimal_block_state(state.phi, state.xi)
    fid = float(np.real(np.vdot(ref, rho @ ref)))
    fid = min(max(fid, 0.0), 1.0)
    blocks = []
    for i in range(na):
        for j in range(nb):
            if state.mu[i, j] > 1e-12:
                ov = min(abs(np.vdot(ref, state.block_states[i, j])) ** 2, 1.0)
                blocks.append({"i": i, "j": j, "weight": float(state.mu[i, j]),
                               "overlap": float(ov)})
    return IsometryReport(fidelity=fid, junk_dims=(da, db), blocks=tuple(blocks))
