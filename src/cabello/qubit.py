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

Batch convention: the fields of ``MeasurementParams`` and
``ConstrainedStateParams`` are floats, or equal-shape arrays over a
leading sample axis. ``constrained_state`` and ``closed_form_score``
then return one result per sample, from the same numpy formula that
serves a single point, and a range check fails if any sample fails it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import atan, isfinite, pi, sqrt

import numpy as np

TWO_PI = 2 * pi

_NORM_TOL = 1e-10

class OutOfRangeError(ValueError):
    """Parameter outside its declared range."""


class NotNormalizableError(ValueError):
    """The amplitude magnitude c is too large for the given angles."""


class NotNormalizedError(ValueError):
    """Ansatz amplitudes do not satisfy s00^2 + 2 s01^2 + s11^2 = 1."""


def _first_bad(ok, *values):
    """The values at the first sample where ``ok`` is False.

    ``ok`` and ``values`` broadcast together; for floats ``ok`` is a
    bool and the values come back as they are.
    """
    i = np.unravel_index(np.argmin(ok), np.shape(ok))
    return tuple(np.broadcast_to(v, np.shape(ok))[i] for v in values)


@dataclass(frozen=True)
class MeasurementParams:
    """Second-setting angles: alpha, beta in (0, pi); phi, xi in [0, 2pi).

    Floats, or equal-shape arrays over a leading sample axis, one
    measurement pair per sample (see the module docstring).
    """

    alpha: float | np.ndarray
    beta: float | np.ndarray
    phi: float | np.ndarray = 0.0
    xi: float | np.ndarray = 0.0

    def __post_init__(self):
        # written so that a NaN entry fails every test
        ok = (0.0 < self.alpha) & (self.alpha < pi) & (0.0 < self.beta) & (self.beta < pi)
        if not np.all(ok):
            raise OutOfRangeError("alpha, beta must lie in (0, pi): got %s, %s"
                                  % _first_bad(ok, self.alpha, self.beta))
        ok = (0.0 <= self.phi) & (self.phi < TWO_PI) & (0.0 <= self.xi) & (self.xi < TWO_PI)
        if not np.all(ok):
            raise OutOfRangeError("phi, xi must lie in [0, 2pi): got %s, %s"
                                  % _first_bad(ok, self.phi, self.xi))


@dataclass(frozen=True)
class ConstrainedStateParams:
    """Amplitude c in [0, 1] and global phase delta, tied to measurement
    angles. The family is normalizable only while
    c^2 (1 + tan^2(alpha/2) + tan^2(beta/2)) <= 1.

    Floats, or arrays of the same shape as the fields of ``meas``, one
    state per sample (see the module docstring).
    """

    c: float | np.ndarray
    delta: float | np.ndarray
    meas: MeasurementParams

    def __post_init__(self):
        ok = (0.0 <= self.c) & (self.c <= 1.0)
        if not np.all(ok):
            raise OutOfRangeError("c must lie in [0, 1]: got %s" % _first_bad(ok, self.c))
        ok = (0.0 <= self.delta) & (self.delta < TWO_PI)
        if not np.all(ok):
            raise OutOfRangeError("delta must lie in [0, 2pi): got %s"
                                  % _first_bad(ok, self.delta))


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


def norm_factor(alpha, beta):
    """W = 1 + tan^2(alpha/2) + tan^2(beta/2): the constrained family is
    normalizable while c^2 W <= 1, so c is bounded by 1 / sqrt(W)."""
    return 1.0 + np.square(np.tan(alpha / 2)) + np.square(np.tan(beta / 2))


def _radicand(p: ConstrainedStateParams):
    """1 - c^2 W with W from ``norm_factor``, per sample; raises
    NotNormalizableError where it is below -1e-12."""
    m = p.meas
    rad = 1.0 - np.square(p.c) * norm_factor(m.alpha, m.beta)
    ok = rad >= -1e-12
    if not np.all(ok):
        raise NotNormalizableError("c = %s too large for alpha = %s, beta = %s"
                                   % _first_bad(ok, p.c, m.alpha, m.beta))
    return rad


def constrained_state(p: ConstrainedStateParams) -> np.ndarray:
    """State vector of the constrained family on |00>,|01>,|10>,|11>,
    shape (..., 4) over the sample shape of ``p``.

    Amplitudes (e^{i delta} R, -c e^{-i phi} tan(alpha/2),
    -c e^{-i xi} tan(beta/2), c) where R is the square root of the
    normalizability radicand. Orthogonal to u+_{A1} (x) |1> and
    |1> (x) v+_{B1} by construction, so the two penalized probabilities
    vanish identically for the induced behavior.
    """
    rad = _radicand(p)
    m = p.meas
    return np.stack(np.broadcast_arrays(
        np.exp(1j * p.delta) * np.sqrt(np.maximum(rad, 0.0)),
        -p.c * np.exp(-1j * m.phi) * np.tan(m.alpha / 2),
        -p.c * np.exp(-1j * m.xi) * np.tan(m.beta / 2),
        p.c,
    ), axis=-1)


def closed_form_score(p: ConstrainedStateParams) -> float | np.ndarray:
    """Degree of success of the constrained family, in closed form: a
    float, or an array over the sample shape of ``p``.

    Transcribed literally from the printed expression, nested radical
    included; agreement with the Born-rule pipeline to 1e-10 is a tested
    property. Depends on the three phases only through delta + xi + phi.
    """
    _radicand(p)
    m = p.meas
    a, b, c, d = m.alpha, m.beta, p.c, p.delta
    # squares by np.square, not ** 2: a float's ** 2 is libm pow, which
    # can round otherwise than an array's x * x
    cos, sin, tan, sq = np.cos, np.sin, np.tan, np.square
    rad = sq(c) * (-sq(tan(a / 2))) - 2 * sq(c) / (cos(b) + 1) + 1
    score = 0.25 * (
        cos(a) * cos(b) + cos(a) + cos(b) - 3
        - 2 * c * sin(a) * sin(b) * cos(d + m.xi + m.phi) * np.sqrt(np.maximum(rad, 0.0))
        + 2 * sq(c) * (cos(a) * (cos(b) - 1) + 2 * sq(tan(a / 2))
                       - cos(b) + 2 * sq(tan(b / 2)) + 1)
    )
    return score if np.ndim(score) else float(score)


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

