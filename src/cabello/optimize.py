"""Seeded multistart maximization of the score.

Three searches: the ideal problem over the constrained family
(reproducing the analytic optimum), the nonideal problem over the real
ansatz amplitudes under eps constraints, and the Hardy special case
with the extra zero constraint. Phases are fixed to phi = xi = 0: the
score depends on the three phases only through their sum, so freeing
them adds flat directions and nothing else.

Each search runs one SLSQP descent per start (``minimize``, stopped by
``SLSQP_TOL`` and ``SLSQP_MAX_ITER``) with hand-written gradients of
its closed forms. Every chart keeps its equality structure exact
(normalization, and for Hardy the zero constraint), so only box bounds
and, for the nonideal search, the two eps inequalities reach the
solver.

Every start draws its own generator from the master seed and a counter,
and results merge by maximal score with lexicographic parameter
tie-break, so a run is a deterministic function of its arguments.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from math import acos, atan2, cos, pi, sin, sqrt, tan
from typing import Callable, Sequence

import numpy as np
import scipy.optimize

from . import npa
from .qubit import (ConstrainedStateParams, MeasurementParams, analytic_optimum,
                    closed_form_score)
from .scenario import local_max_score

TWO_PI = 2 * pi
SQRT2 = sqrt(2.0)

DEFAULT_STARTS = 64
DEFAULT_SEED = 0

SLSQP_TOL = 1e-12     # ftol of every descent
SLSQP_MAX_ITER = 200  # iteration cap of every descent

_EDGE = 1e-9          # open-interval guard for the polar angles
_BOUND_SLACK = 1e-12  # rounding allowed when comparing bounds of a sweep row


@dataclass(frozen=True)
class OptResult:
    """Best point of a multistart run.

    ``params`` is a plain dict of named parameter fields (the ideal and
    Hardy searches report the constrained family, the nonideal search
    the ansatz amplitudes). ``converged`` reflects the winning start's
    final descent.
    """

    score: float
    params: dict
    e10: float
    e01: float
    starts_used: int
    converged: bool

    def to_json(self) -> str:
        return json.dumps({"score": self.score, "params": self.params,
                           "e10": self.e10, "e01": self.e01,
                           "starts_used": self.starts_used,
                           "converged": self.converged})


@dataclass(frozen=True)
class SweepRecord:
    """One eps grid point: the three bounds plus the maximizing params."""

    eps: float
    local_bound: float
    quantum_lower: float
    quantum_upper: float
    level: str
    status: str
    params: dict | None


def _best(cands):
    """Max by score; exact ties broken toward the smaller parameter tuple."""
    return max(cands, key=lambda t: (t[0], tuple(-v for v in t[1])))


# -- minimizer ----------------------------------------------------------

@dataclass(frozen=True)
class MinimizeResult:
    """End point of ``minimize``.

    ``nevals`` counts objective plus gradient evaluations. ``converged``
    is the solver's success flag; when it is False (for instance, the
    iteration cap was reached) the last iterate is still returned.
    """

    x: np.ndarray
    fun: float
    nevals: int
    converged: bool


def minimize(
    f: Callable[[np.ndarray], float],
    jac: Callable[[np.ndarray], np.ndarray],
    x0: Sequence[float],
    bounds: Sequence[tuple[float | None, float | None]],
    ineq: Callable[[np.ndarray], np.ndarray] | None = None,
    ineq_jac: Callable[[np.ndarray], np.ndarray] | None = None,
) -> MinimizeResult:
    """SLSQP descent from x0 subject to box ``bounds`` and ``ineq(x) >= 0``.

    ``jac`` is the gradient of ``f`` and ``ineq_jac`` the Jacobian of
    ``ineq`` (one row per constraint); both are used as given, with no
    finite differences. The run is a deterministic function of the
    arguments. The end point may violate ``ineq`` by rounding, so a
    caller that needs exact feasibility restores it itself.
    """
    cons = [] if ineq is None else [{"type": "ineq", "fun": ineq, "jac": ineq_jac}]
    res = scipy.optimize.minimize(
        f,
        np.asarray(x0, dtype=float),
        jac=jac,
        method="SLSQP",
        bounds=bounds,
        constraints=cons,
        options={"ftol": SLSQP_TOL, "maxiter": SLSQP_MAX_ITER},
    )
    return MinimizeResult(x=np.asarray(res.x, dtype=float), fun=float(res.fun),
                          nevals=int(res.nfev) + int(res.njev),
                          converged=bool(res.success))


# -- ideal problem ------------------------------------------------------

def _family_terms(a: float, b: float):
    """Angle factors of the constrained-family score, with their partials.

    In the chart c = sin t / sqrt(W), W = 1 + tan^2(a/2) + tan^2(b/2),
    the normalizability radicand is cos^2 t and the score (phases at
    phi = xi = 0) is cos^2 t P + sin^2 t Q - sin 2t S cos delta with
    P = cos^2(a/2) cos^2(b/2) - 1, Q = sin^2(a/2) sin^2(b/2) / W and
    S = sin a sin b / (4 sqrt W). Returns (P, Q, S) and their partials
    along a and along b, each as a (P, Q, S) triple.
    """
    ca, sa, cb, sb = cos(a / 2), sin(a / 2), cos(b / 2), sin(b / 2)
    ta, tb = sa / ca, sb / cb
    w = 1.0 + ta * ta + tb * tb
    rw = sqrt(w)
    w_a, w_b = ta / (ca * ca), tb / (cb * cb)
    P = ca * ca * cb * cb - 1.0
    Q = sa * sa * sb * sb / w
    S = sin(a) * sin(b) / (4.0 * rw)
    d_a = (-ca * sa * cb * cb,
           sb * sb * sa * (ca - sa * w_a / w) / w,
           (cos(a) * sin(b) - sin(a) * sin(b) * w_a / (2.0 * w)) / (4.0 * rw))
    d_b = (-cb * sb * ca * ca,
           sa * sa * sb * (cb - sb * w_b / w) / w,
           (sin(a) * cos(b) - sin(a) * sin(b) * w_b / (2.0 * w)) / (4.0 * rw))
    return (P, Q, S), d_a, d_b


def _ideal_neg(x) -> float:
    a, b, t, d = x
    (P, Q, S), _, _ = _family_terms(a, b)
    return -(cos(t) ** 2 * P + sin(t) ** 2 * Q - sin(2 * t) * S * cos(d))


def _ideal_neg_grad(x) -> np.ndarray:
    a, b, t, d = x
    (P, Q, S), d_a, d_b = _family_terms(a, b)
    c2, s2, st, cd = cos(t) ** 2, sin(t) ** 2, sin(2 * t), cos(d)
    return -np.array([c2 * d_a[0] + s2 * d_a[1] - st * cd * d_a[2],
                      c2 * d_b[0] + s2 * d_b[1] - st * cd * d_b[2],
                      st * (Q - P) - 2.0 * cos(2 * t) * S * cd,
                      st * S * sin(d)])


def _ceiling_w(a: float, b: float) -> float:
    """1 + tan^2(a/2) + tan^2(b/2), the factor c^2 is bounded by."""
    return 1.0 + tan(a / 2) ** 2 + tan(b / 2) ** 2


def optimize_ideal(starts: int = DEFAULT_STARTS, seed: int = DEFAULT_SEED) -> OptResult:
    """Maximize the closed-form score over (alpha, beta, c, delta).

    Searches the chart (alpha, beta, t, delta) with
    c = sin t / sqrt(1 + tan^2(alpha/2) + tan^2(beta/2)), in which every
    point is normalizable, by one box-bounded SLSQP descent per start
    with the analytic gradient. Each start draws alpha, beta and delta
    uniformly and t = asin(u), so that c is the fraction u of its
    ceiling. The reported score is ``closed_form_score`` at the reported
    parameters. With a few dozen starts the best point matches the
    analytic optimum to well below 1e-7.
    """
    if starts < 1:
        raise ValueError("starts must be >= 1")
    bounds = [(_EDGE, pi - _EDGE)] * 2 + [(0.0, pi / 2), (None, None)]
    cands = []
    for k in range(starts):
        rng = np.random.default_rng([seed, k])
        a = rng.uniform(0.2, pi - 0.2)
        b = rng.uniform(0.2, pi - 0.2)
        t = math.asin(rng.uniform(0.1, 0.95))
        d = rng.uniform(0.0, TWO_PI)
        res = minimize(_ideal_neg, _ideal_neg_grad, [a, b, t, d], bounds)
        a, b, t, d = res.x
        c, d = sin(t) / sqrt(_ceiling_w(a, b)), d % TWO_PI
        score = closed_form_score(ConstrainedStateParams(
            c=c, delta=d, meas=MeasurementParams(alpha=a, beta=b)))
        cands.append((score, (a, b, c, d), res.converged))
    score, (a, b, c, d), conv = _best(cands)
    params = {"alpha": a, "beta": b, "c": c, "delta": d, "phi": 0.0, "xi": 0.0}
    return OptResult(score=score, params=params, e10=0.0, e01=0.0,
                     starts_used=starts, converged=conv)


# -- nonideal problem ---------------------------------------------------

def _chart(t1: float, t2: float) -> tuple[float, float, float]:
    """Angles to ansatz amplitudes; normalization holds identically."""
    return cos(t1), sin(t1) * cos(t2) / SQRT2, sin(t1) * sin(t2)


def ansatz_stats(a: float, b: float, s00: float, s01: float,
                 s11: float) -> tuple[float, float, float, float]:
    """(q, p, e10, e01) of the real ansatz at phi = xi = 0, closed form."""
    ca, sa = cos(a / 2), sin(a / 2)
    cb, sb = cos(b / 2), sin(b / 2)
    q = s00 * s00
    p = (ca * cb * s00 + (ca * sb + sa * cb) * s01 + sa * sb * s11) ** 2
    e10 = (ca * s01 + sa * s11) ** 2
    e01 = (cb * s01 + sb * s11) ** 2
    return q, p, e10, e01


def _nonideal_neg(x) -> float:
    a, b, t1, t2 = x
    q, p, _, _ = ansatz_stats(a, b, *_chart(t1, t2))
    return q - p


def _chart_jac(t1: float, t2: float) -> np.ndarray:
    """Partials of the chart amplitudes (s00, s01, s11): rows t1, t2."""
    return np.array([[-sin(t1), cos(t1) * cos(t2) / SQRT2, cos(t1) * sin(t2)],
                     [0.0, -sin(t1) * sin(t2) / SQRT2, sin(t1) * cos(t2)]])


def _nonideal_neg_grad(x) -> np.ndarray:
    """Gradient of q - p from ``ansatz_stats``, p = lin^2 with lin linear
    in the amplitudes."""
    a, b, t1, t2 = x
    s00, s01, s11 = _chart(t1, t2)
    ca, sa = cos(a / 2), sin(a / 2)
    cb, sb = cos(b / 2), sin(b / 2)
    lin = ca * cb * s00 + (ca * sb + sa * cb) * s01 + sa * sb * s11
    lin_a = (-sa * cb * s00 + (ca * cb - sa * sb) * s01 + ca * sb * s11) / 2
    lin_b = (-ca * sb * s00 + (ca * cb - sa * sb) * s01 + sa * cb * s11) / 2
    d_s = np.array([2 * s00 - 2 * lin * ca * cb,
                    -2 * lin * (ca * sb + sa * cb),
                    -2 * lin * sa * sb])
    return np.concatenate([[-2 * lin * lin_a, -2 * lin * lin_b],
                           _chart_jac(t1, t2) @ d_s])


def _slack_jac(x) -> np.ndarray:
    """Jacobian of (-e10, -e01) from ``ansatz_stats``; rows e10, e01."""
    a, b, t1, t2 = x
    s00, s01, s11 = _chart(t1, t2)
    ca, sa = cos(a / 2), sin(a / 2)
    cb, sb = cos(b / 2), sin(b / 2)
    m10, m01 = ca * s01 + sa * s11, cb * s01 + sb * s11
    jt = _chart_jac(t1, t2)
    return -2 * np.array([
        [m10 * (ca * s11 - sa * s01) / 2, 0.0, *(m10 * (jt @ (0.0, ca, sa)))],
        [0.0, m01 * (cb * s11 - sb * s01) / 2, *(m01 * (jt @ (0.0, cb, sb)))]])


def _polish(a: float, b: float, t1: float, t2: float,
            eps: float) -> tuple[float, float, float]:
    """Rescale (s01, s11) to restore strict feasibility exactly.

    Both constraint probabilities are quadratic forms in (s01, s11)
    alone, so shrinking that pair by sqrt(eps / max) scales them onto
    the boundary; s00 reabsorbs the freed norm with its sign kept. At
    small eps the closed forms cancel, and rounding can leave the
    rescaled point just outside, so the rescale repeats with a growing
    margin until the closed forms give max(e10, e01) <= eps.
    """
    s00, s01, s11 = _chart(t1, t2)
    shrink = 1.0 - 1e-15
    while True:
        _, _, e10, e01 = ansatz_stats(a, b, s00, s01, s11)
        mx = max(e10, e01)
        if not mx > eps:
            return s00, s01, s11
        rho = sqrt(eps / mx) * shrink
        s01 *= rho
        s11 *= rho
        s00 = math.copysign(sqrt(max(0.0, 1.0 - 2 * s01 * s01 - s11 * s11)), s00)
        shrink *= shrink


def _ideal_amplitudes(a: float, c: float) -> tuple[float, float, float]:
    """(s00, s01, s11) of the constrained family at equal angles a and
    delta = pi, where the ansatz meets both zero constraints."""
    s01 = -c * tan(a / 2)
    return -sqrt(max(0.0, 1.0 - 2 * s01 * s01 - c * c)), s01, c


def _ideal_to_ansatz(res: OptResult) -> OptResult:
    """Re-express the ideal optimum in ansatz coordinates.

    On the zero-constraint slice the ansatz reduces to the constrained
    family with equal angles, so symmetrize alpha and beta (the ideal
    optimum has them equal to optimizer precision) and renormalize s00
    exactly.
    """
    a = (res.params["alpha"] + res.params["beta"]) / 2
    s00, s01, s11 = _ideal_amplitudes(a, res.params["c"])
    q, p, e10, e01 = ansatz_stats(a, a, s00, s01, s11)
    params = {"s00": s00, "s01": s01, "s11": s11, "alpha": a, "beta": a,
              "phi": 0.0, "xi": 0.0}
    return OptResult(score=p - q, params=params, e10=e10, e01=e01,
                     starts_used=res.starts_used, converged=res.converged)


def _analytic_seed() -> np.ndarray:
    """The eps = 0 optimum in chart coordinates (a, b, t1, t2)."""
    opt = analytic_optimum()
    s00, s01, s11 = _ideal_amplitudes(opt.alpha, opt.c)
    return np.array([opt.alpha, opt.alpha, acos(s00), atan2(s11, SQRT2 * s01)])


def optimize_nonideal(eps: float, starts: int = DEFAULT_STARTS,
                      seed: int = DEFAULT_SEED) -> OptResult:
    """Maximize the simulated score over the ansatz under eps constraints.

    Each start runs one constrained SLSQP solve in the angle chart, with
    the analytic gradient and constraint Jacobian: alpha and beta stay in
    the open interval (0, pi) and e10, e01 <= eps through their closed
    forms. SLSQP can end outside the constraints by rounding, so every
    end point goes through the exact feasibility polish; the returned
    point satisfies both constraints strictly.
    Besides the seeded random starts, the analytic eps = 0 optimum,
    feasible at every eps, is one more start and, unoptimized, one more
    candidate, so the result never falls below the ideal optimum as
    eps -> 0+. eps = 0 delegates to the ideal search, where the
    constraints hold identically (the polish rescale degenerates at
    eps = 0, collapsing the off-diagonal amplitudes).
    """
    if not 0.0 <= eps <= 0.5:
        raise ValueError(f"eps must lie in [0, 0.5], got {eps}")
    if starts < 1:
        raise ValueError("starts must be >= 1")
    if eps == 0.0:
        return _ideal_to_ansatz(optimize_ideal(starts=starts, seed=seed))

    def candidate(x, conv):
        a, b, t1, t2 = x
        s00, s01, s11 = _polish(a, b, t1, t2, eps)
        q, p, e10, e01 = ansatz_stats(a, b, s00, s01, s11)
        return p - q, (s00, s01, s11, a, b), conv, (e10, e01)

    bounds = [(_EDGE, pi - _EDGE)] * 2 + [(None, None)] * 2

    def slack(x):
        _, _, e10, e01 = ansatz_stats(x[0], x[1], *_chart(x[2], x[3]))
        return np.array([eps - e10, eps - e01])

    x0s = []
    for k in range(starts):
        rng = np.random.default_rng([seed, k])
        x0s.append(np.array([rng.uniform(0.2, pi - 0.2), rng.uniform(0.2, pi - 0.2),
                             rng.uniform(0.1, pi / 2), rng.uniform(0.0, TWO_PI)]))
    x0s.append(_analytic_seed())
    cands = []
    for x0 in x0s:
        res = minimize(_nonideal_neg, _nonideal_neg_grad, x0, bounds,
                       slack, _slack_jac)
        cands.append(candidate(res.x, res.converged))
    # the seed itself, in case its solve ended lower; ``res`` is the seed's run
    cands.append(candidate(x0s[-1], res.converged))
    score, prm, conv, (e10, e01) = _best(cands)
    s00, s01, s11, a, b = prm
    params = {"s00": s00, "s01": s01, "s11": s11, "alpha": a, "beta": b,
              "phi": 0.0, "xi": 0.0}
    return OptResult(score=score, params=params, e10=e10, e01=e01,
                     starts_used=starts, converged=conv)


# -- Hardy special case -------------------------------------------------

def _hardy_neg(x) -> float:
    (_, Q, _), _, _ = _family_terms(x[0], x[1])
    return -Q


def _hardy_neg_grad(x) -> np.ndarray:
    _, d_a, d_b = _family_terms(x[0], x[1])
    return -np.array([d_a[1], d_b[1]])


def optimize_hardy(starts: int = DEFAULT_STARTS, seed: int = DEFAULT_SEED) -> OptResult:
    """Maximize p with the additional constraint q = 0.

    Within the constrained family the zero constraint pins the |00>
    amplitude: c equals the normalizability ceiling, leaving a
    box-bounded search over the two angles with
    p = sin^2(alpha/2) sin^2(beta/2) / (1 + tan^2(alpha/2) + tan^2(beta/2)),
    one SLSQP descent per start with the analytic gradient. The
    reported c is rounded up to where the normalizability radicand is
    not positive, so the |00> amplitude of the state is exactly zero.
    """
    if starts < 1:
        raise ValueError("starts must be >= 1")
    bounds = [(_EDGE, pi - _EDGE)] * 2
    cands = []
    for k in range(starts):
        rng = np.random.default_rng([seed, k])
        x0 = [rng.uniform(0.2, pi - 0.2), rng.uniform(0.2, pi - 0.2)]
        res = minimize(_hardy_neg, _hardy_neg_grad, x0, bounds)
        cands.append((-res.fun, tuple(res.x), res.converged))
    score, (a, b), conv = _best(cands)
    w = _ceiling_w(a, b)
    c = 1.0 / sqrt(w)
    while 1.0 - c ** 2 * w > 0.0:
        c = math.nextafter(c, 2.0)
    params = {"alpha": a, "beta": b, "c": c, "delta": 0.0, "phi": 0.0, "xi": 0.0}
    return OptResult(score=score, params=params, e10=0.0, e01=0.0,
                     starts_used=starts, converged=conv)


# -- sweep --------------------------------------------------------------

def sweep_epsilon(eps_grid, level=2, starts: int = DEFAULT_STARTS,
                  seed: int = DEFAULT_SEED) -> list[SweepRecord]:
    """Local bound, quantum lower bound, and relaxation upper bound per
    grid point.

    The grid must be ascending within [0, 0.5]. Points are independent
    and each uses the same seed. A failing point is recorded with an
    error status instead of aborting the sweep, and so is one whose
    relaxation solve did not converge (its upper bound is still
    certified), whose lower bound falls below the local bound (the
    two-qubit ansatz does so for eps above about 0.37), or whose upper
    bound falls below its lower bound.
    """
    grid = [float(e) for e in eps_grid]
    bad = [e for e in grid if not 0.0 <= e <= 0.5]
    if bad:
        raise ValueError(f"grid values must lie in [0, 0.5], got {bad[0]}")
    if any(y < x for x, y in zip(grid, grid[1:])):
        raise ValueError("grid must be ascending")

    def point(e: float) -> SweepRecord:
        try:
            local = local_max_score(e)
            low = optimize_nonideal(e, starts=starts, seed=seed)
            up = npa.solve(npa.build_problem(level, e))
        except Exception as exc:  # per-point failures must not kill the sweep
            return SweepRecord(eps=e, local_bound=float("nan"),
                               quantum_lower=float("nan"),
                               quantum_upper=float("nan"), level=str(level),
                               status=f"error: {exc}", params=None)
        if up.status != "Converged":
            status = f"error: npa {up.status}"
        elif low.score < local - _BOUND_SLACK:
            status = "error: quantum_lower below local_bound"
        elif up.value < low.score - _BOUND_SLACK:
            status = "error: quantum_upper below quantum_lower"
        else:
            status = "ok"
        return SweepRecord(eps=e, local_bound=local, quantum_lower=low.score,
                           quantum_upper=up.value, level=str(level), status=status,
                           params=low.params)

    return [point(e) for e in grid]
