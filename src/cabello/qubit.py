"""Two-qubit states and projective measurements in canonical form.

Both parties measure the computational basis for their first setting;
the second settings are parameterized by polar angles alpha (Alice) and
beta (Bob) with azimuthal phases phi and xi. The constrained family is
the one-parameter-plus-phase class of pure states that makes the two
penalized probabilities vanish identically, and the closed-form score
below is its degree of success, transcribed literally from the source
expression (the formula-simulation equivalence test validates the
transcription). The ansatz family generalizes it for nonideal
constraints with three real amplitudes.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import atan, cos, isfinite, pi, sin, sqrt, tan

import numpy as np

TWO_PI = 2 * pi

_NORM_TOL = 1e-10

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


class OutOfRangeError(ValueError):
    """Parameter outside its declared range."""


class NotNormalizableError(ValueError):
    """The amplitude magnitude c is too large for the given angles."""


class NotNormalizedError(ValueError):
    """Ansatz amplitudes do not satisfy s00^2 + 2 s01^2 + s11^2 = 1."""


class InvalidEffectError(ValueError):
    """POVM effect parameters violate positivity."""


@dataclass(frozen=True)
class MeasurementParams:
    """Second-setting angles: alpha, beta in (0, pi); phi, xi in [0, 2pi)."""

    alpha: float
    beta: float
    phi: float = 0.0
    xi: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.alpha < pi and 0.0 < self.beta < pi):
            raise OutOfRangeError(
                f"alpha, beta must lie in (0, pi): got {self.alpha}, {self.beta}"
            )
        if not (0.0 <= self.phi < TWO_PI and 0.0 <= self.xi < TWO_PI):
            raise OutOfRangeError(
                f"phi, xi must lie in [0, 2pi): got {self.phi}, {self.xi}"
            )


@dataclass(frozen=True)
class ConstrainedStateParams:
    """Amplitude c in [0, 1] and global phase delta, tied to measurement
    angles. The family is normalizable only while
    c^2 (1 + tan^2(alpha/2) + tan^2(beta/2)) <= 1."""

    c: float
    delta: float
    meas: MeasurementParams

    def __post_init__(self):
        if not 0.0 <= self.c <= 1.0:
            raise OutOfRangeError(f"c must lie in [0, 1]: got {self.c}")
        if not 0.0 <= self.delta < TWO_PI:
            raise OutOfRangeError(f"delta must lie in [0, 2pi): got {self.delta}")


@dataclass(frozen=True)
class AnsatzParams:
    """Three real amplitudes with s00^2 + 2 s01^2 + s11^2 = 1 and two
    azimuthal phases. Signs of the s-values are free."""

    s00: float
    s01: float
    s11: float
    phi: float = 0.0
    xi: float = 0.0

    def __post_init__(self):
        if not (isfinite(self.phi) and isfinite(self.xi)):  # False for NaN too
            raise OutOfRangeError(f"phi, xi must be finite: got {self.phi}, {self.xi}")

    def norm_defect(self) -> float:
        return self.s00 ** 2 + 2 * self.s01 ** 2 + self.s11 ** 2 - 1.0


@dataclass(frozen=True)
class QubitPovmEffect:
    """Binary qubit effect E = a0 I + eta (axis . sigma).

    Positivity of E and I - E requires 0 <= eta <= min(a0, 1 - a0).
    """

    a0: float
    eta: float
    axis: tuple[float, float, float]


_Z_PAIR = np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], dtype=complex)


def measurements(angle, phase) -> np.ndarray:
    """One party's two binary measurements, shape (..., 2, 2, 2, 2).

    Indexed [setting, outcome, i, j], the layout behavior_from_quantum
    expects, and broadcast over arrays of angles and phases. Setting 0
    is the computational basis; setting 1 projects onto
    cos(angle/2)|0> + e^{i phase} sin(angle/2)|1> and its
    orthocomplement.
    """
    angle = np.asarray(angle, dtype=float)
    ph = np.exp(1j * np.asarray(phase, dtype=float))
    cos_h, sin_h = np.cos(angle / 2), np.sin(angle / 2)
    kets = np.stack([np.stack([cos_h, ph * sin_h], axis=-1),
                     np.stack([-sin_h, ph * cos_h], axis=-1)], axis=-2)
    tilted = kets[..., :, None] * np.conj(kets[..., None, :])
    return np.stack([np.broadcast_to(_Z_PAIR, tilted.shape), tilted], axis=-4)


def projectors(m: MeasurementParams):
    """Rank-1 projector pairs ((A0+,A0-), (A1+,A1-), (B0+,B0-), (B1+,B1-)).

    The first settings are the computational basis. The second settings
    project onto cos(angle/2)|0> + e^{i phase} sin(angle/2)|1> and its
    orthocomplement, with (angle, phase) = (alpha, phi) for Alice and
    (beta, xi) for Bob; see ``measurements``.
    """
    return (*measurements(m.alpha, m.phi), *measurements(m.beta, m.xi))


def _radicand(p: ConstrainedStateParams) -> float:
    m = p.meas
    return 1.0 - p.c ** 2 * (1.0 + tan(m.alpha / 2) ** 2 + tan(m.beta / 2) ** 2)


def constrained_state(p: ConstrainedStateParams) -> np.ndarray:
    """State vector of the constrained family on |00>,|01>,|10>,|11>.

    Amplitudes (e^{i delta} R, -c e^{-i phi} tan(alpha/2),
    -c e^{-i xi} tan(beta/2), c) where R is the square root of the
    normalizability radicand. Orthogonal to u+_{A1} (x) |1> and
    |1> (x) v+_{B1} by construction, so the two penalized probabilities
    vanish identically for the induced behavior.
    """
    rad = _radicand(p)
    if rad < -1e-12:
        raise NotNormalizableError(
            f"c = {p.c} too large for alpha = {p.meas.alpha}, beta = {p.meas.beta}"
        )
    m = p.meas
    return np.array([
        np.exp(1j * p.delta) * sqrt(max(rad, 0.0)),
        -p.c * np.exp(-1j * m.phi) * tan(m.alpha / 2),
        -p.c * np.exp(-1j * m.xi) * tan(m.beta / 2),
        p.c,
    ])


def closed_form_score(p: ConstrainedStateParams) -> float:
    """Degree of success of the constrained family, in closed form.

    Transcribed literally from the printed expression, nested radical
    included; agreement with the Born-rule pipeline to 1e-10 is a tested
    property. Depends on the three phases only through delta + xi + phi.
    """
    if _radicand(p) < -1e-12:
        raise NotNormalizableError(
            f"c = {p.c} too large for alpha = {p.meas.alpha}, beta = {p.meas.beta}"
        )
    m = p.meas
    a, b, c, d = m.alpha, m.beta, p.c, p.delta
    rad = c ** 2 * (-tan(a / 2) ** 2) - 2 * c ** 2 / (cos(b) + 1) + 1
    return 0.25 * (
        cos(a) * cos(b) + cos(a) + cos(b) - 3
        - 2 * c * sin(a) * sin(b) * cos(d + m.xi + m.phi) * sqrt(max(rad, 0.0))
        + 2 * c ** 2 * (cos(a) * (cos(b) - 1) + 2 * tan(a / 2) ** 2
                        - cos(b) + 2 * tan(b / 2) ** 2 + 1)
    )


@dataclass(frozen=True)
class AnalyticOptimum:
    """Closed-form maximizer of the score over the constrained family."""

    score: float
    alpha: float
    beta: float
    c: float
    kappa00: float
    kappa01: float
    kappa11: float


def analytic_optimum() -> AnalyticOptimum:
    """Evaluate the printed radicals for the qubit maximum.

    The score and the optimal (alpha, c) share the cube-root kernel of
    307 + 39 sqrt(78). The optimizing phase relation is
    delta = pi - phi - xi, which makes the oscillatory term of the
    closed-form score equal -1; with that phase the |00> and |01>/|10>
    amplitudes of the maximizing state come out negative, so kappa01
    carries a minus sign outside its radical (fixed by matching the
    constrained-family state at the optimal parameters, and confirmed
    by the printed approximation -0.5781).
    """
    r78 = sqrt(78.0)
    t = np.cbrt(307.0 + 39.0 * r78)
    score = ((t * t - 29.0) / t - 5.0) / 3.0
    alpha = 2.0 * atan(sqrt(
        (np.cbrt(359.0 - 12.0 * r78) + np.cbrt(359.0 + 12.0 * r78) - 1.0) / 12.0
    ))
    c = ((t * t - 29.0) / t - 2.0) / 6.0
    u = np.cbrt(53.0 - 6.0 * r78)
    kappa00 = (4.0 - (u * u + 1.0) / u) / 6.0
    w = 67.0 * r78 - 414.0
    kappa01 = -sqrt(
        (12.0 - 31.0 * 6.0 ** (2.0 / 3.0) / np.cbrt(w) + np.cbrt(6.0 * w)) / 12.0
    )
    return AnalyticOptimum(score=float(score), alpha=float(alpha), beta=float(alpha),
                           c=float(c), kappa00=float(kappa00),
                           kappa01=float(kappa01), kappa11=float(c))


def ansatz_state(p: AnsatzParams) -> np.ndarray:
    """State vector with amplitudes (s00 e^{-i(xi+phi)}, s01 e^{-i phi},
    s01 e^{-i xi}, s11)."""
    if abs(p.norm_defect()) > _NORM_TOL:
        raise NotNormalizedError(
            f"s00^2 + 2 s01^2 + s11^2 = {1.0 + p.norm_defect():.15f}, expected 1"
        )
    return np.array([
        p.s00 * np.exp(-1j * (p.xi + p.phi)),
        p.s01 * np.exp(-1j * p.phi),
        p.s01 * np.exp(-1j * p.xi),
        p.s11,
    ])


def decompose_povm(e: QubitPovmEffect):
    """Write the binary POVM {E, I-E} as a mixture of three projective
    measurements.

    Returns [(weight, (first effect, second effect)), ...] with weights
    (a0 - eta, 1 - a0 - eta, 2 eta): the always-plus measurement, the
    always-minus measurement, and the projective measurement along the
    effect axis. The weighted first effects reconstruct E exactly.
    """
    a0, eta = e.a0, e.eta
    axis = np.asarray(e.axis, dtype=float)
    if not 0.0 <= a0 <= 1.0:
        raise InvalidEffectError(f"a0 must lie in [0, 1]: got {a0}")
    if not -1e-12 <= eta <= min(a0, 1.0 - a0) + 1e-12:
        raise InvalidEffectError(
            f"eta = {eta} outside [0, min(a0, 1-a0)] = [0, {min(a0, 1.0 - a0)}]"
        )
    if abs(np.linalg.norm(axis) - 1.0) > 1e-10:
        raise InvalidEffectError(f"axis norm {np.linalg.norm(axis)} != 1")
    eye = np.eye(2, dtype=complex)
    zero = np.zeros((2, 2), dtype=complex)
    n_sigma = axis[0] * SIGMA_X + axis[1] * SIGMA_Y + axis[2] * SIGMA_Z
    m3_plus = (eye + n_sigma) / 2
    m3_minus = (eye - n_sigma) / 2
    return [
        (a0 - eta, (eye, zero)),
        (1.0 - a0 - eta, (zero, eye)),
        (2.0 * eta, (m3_plus, m3_minus)),
    ]
