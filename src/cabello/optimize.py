"""Multistart maximization of the score.

Three searches: the ideal problem over the constrained family
(reproducing the analytic optimum), the nonideal problem over the real
ansatz amplitudes under eps constraints, and the Hardy special case
with the extra zero constraint. Phases are fixed to phi = xi = 0: the
score depends on the three phases only through their sum, so freeing
them adds flat directions and nothing else.

Each search runs one BFGS descent per start (``minimize``, stopped by
``BFGS_TOL`` and ``BFGS_MAX_ITER``) on one callable that returns the
value of its closed form together with the hand-written gradient. Every
chart keeps its structure exact: normalization, for Hardy the zero
constraint, for the nonideal search the two eps rows, and the box of
every bounded angle (``_angle`` maps every real u into
[_EDGE, pi - _EDGE]). So every descent is unconstrained.

The ideal and Hardy searches draw each start's generator from the
master seed and a counter; the nonideal search starts from a fixed
grid. Results merge by maximal score with lexicographic parameter
tie-break, so a run is a deterministic function of its arguments.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from math import acos, cos, pi, sin, sqrt, tan
from operator import mul
from typing import Callable, Sequence

import numpy as np

from . import npa
from .qubit import (ConstrainedStateParams, MeasurementParams, analytic_optimum,
                    closed_form_score)
from .scenario import local_max_score

TWO_PI = 2 * pi

DEFAULT_STARTS = 64
DEFAULT_SEED = 0

BFGS_TOL = 1e-12     # stopping tolerance of every descent
BFGS_MAX_ITER = 200  # iteration cap of every descent

_EDGE = 1e-9          # open-interval guard for the polar angles
_HALF_SPAN = pi / 2 - _EDGE  # ``_angle`` spans pi/2 -+ _HALF_SPAN
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

    ``nevals`` counts calls of the value-and-gradient callable and
    ``nit`` the steps taken. ``converged`` says that the stopping test
    held; when it is False (no descent was left, or ``nit`` reached
    ``BFGS_MAX_ITER``) the last iterate is still returned.
    """

    x: tuple[float, ...]
    fun: float
    nevals: int
    converged: bool
    nit: int


def minimize(
    fun: Callable[[list[float]], tuple[float, Sequence[float]]],
    x0: Sequence[float],
) -> MinimizeResult:
    """Damped BFGS descent from x0 on ``fun``.

    ``fun(x)`` returns the value and the gradient at x, used as given,
    with no finite differences. The method, on Python floats:

    - the inverse H of a BFGS approximation to the Hessian, starting at
      the identity and updated with Powell's damping (Lecture Notes in
      Math. 630, 1978), so that it stays positive definite;
    - the step d = -H g, backtracked on f with Armijo factor 0.1,
      safeguarded quadratic interpolation and at most ten trial points.

    It stops converged when the predicted decrease |g'd| is below
    ``BFGS_TOL``, or when a step changes f or moves x by less than
    ``BFGS_TOL``. It stops unconverged when no descent is left (f does
    not decrease along d, or not enough within ten trial points), or
    after ``BFGS_MAX_ITER`` iterations. The run is a deterministic
    function of its arguments.
    """
    x = [float(v) for v in x0]
    n = len(x)
    f, g = fun(x)
    nevals, nit = 1, 0
    H = [[float(i == j) for j in range(n)] for i in range(n)]
    while nit < BFGS_MAX_ITER:
        nit += 1
        d = [-sum(map(mul, row, g)) for row in H]
        gd = sum(map(mul, g, d))
        if abs(gd) < BFGS_TOL:
            return MinimizeResult(tuple(x), f, nevals, True, nit)
        t = 1.0
        for _ in range(10 if gd < 0.0 else 0):
            xt = [xi + t * di for xi, di in zip(x, d)]
            ft, gt = fun(xt)
            nevals += 1
            drop = ft - f
            if drop <= 0.1 * t * gd:
                break
            t *= max(t * gd / (2.0 * (t * gd - drop)), 0.1)
        else:
            break  # no descent left along d
        s = [t * di for di in d]
        if abs(ft - f) < BFGS_TOL or math.hypot(*s) < BFGS_TOL:
            return MinimizeResult(tuple(xt), ft, nevals, True, nit)
        # secant pair; B s = t B d = -t g
        y = [a - b for a, b in zip(gt, g)]
        Bs = [-t * v for v in g]
        sBs, sy = sum(map(mul, s, Bs)), sum(map(mul, s, y))
        if sy < 0.2 * sBs:  # Powell's damping
            theta = 0.8 * sBs / (sBs - sy)
            y = [theta * yj + (1.0 - theta) * bj for yj, bj in zip(y, Bs)]
            sy = 0.2 * sBs
        if sy > 0.0:  # H + k s s' - (Hy s' + s y'H) / sy
            q = [sum(map(mul, row, y)) / sy for row in H]
            k = (1.0 + sum(map(mul, y, q))) / sy
            u = [k * sj - qj for sj, qj in zip(s, q)]
            H = [[hij + si * uj - qi * sj for hij, uj, sj in zip(row, u, s)]
                 for row, si, qi in zip(H, s, q)]
        x, f, g = xt, ft, gt
    return MinimizeResult(tuple(x), f, nevals, False, nit)


# -- charts -------------------------------------------------------------

def _angle(u: float) -> float:
    """Polar-angle chart: pi/2 - (pi/2 - _EDGE) cos u, in [_EDGE, pi - _EDGE]."""
    return pi / 2 - _HALF_SPAN * cos(u)


def _angle_inverse(a: float) -> float:
    """The u in [0, pi] that ``_angle`` maps to a."""
    return acos((pi / 2 - a) / _HALF_SPAN)


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


def _ideal_t(w: float) -> float:
    """Chart of t in [0, pi/2]: (pi/4)(1 - cos w)."""
    return pi / 4 * (1.0 - cos(w))


def _ideal_neg(x):
    """Minus the family score and its gradient in the chart (u_a, u_b, w, delta)."""
    ua, ub, w, d = x
    t = _ideal_t(w)
    (P, Q, S), d_a, d_b = _family_terms(_angle(ua), _angle(ub))
    c2, s2, st, cd = cos(t) ** 2, sin(t) ** 2, sin(2 * t), cos(d)
    return (-(c2 * P + s2 * Q - st * S * cd),
            [-(c2 * d_a[0] + s2 * d_a[1] - st * cd * d_a[2]) * _HALF_SPAN * sin(ua),
             -(c2 * d_b[0] + s2 * d_b[1] - st * cd * d_b[2]) * _HALF_SPAN * sin(ub),
             -(st * (Q - P) - 2.0 * cos(2 * t) * S * cd) * pi / 4 * sin(w),
             -st * S * sin(d)])


def _ceiling_w(a: float, b: float) -> float:
    """1 + tan^2(a/2) + tan^2(b/2), the factor c^2 is bounded by."""
    return 1.0 + tan(a / 2) ** 2 + tan(b / 2) ** 2


def optimize_ideal(starts: int = DEFAULT_STARTS, seed: int = DEFAULT_SEED) -> OptResult:
    """Maximize the closed-form score over (alpha, beta, c, delta).

    Searches the chart (u_a, u_b, w, delta) with alpha = ``_angle(u_a)``,
    beta = ``_angle(u_b)``, t = (pi/4)(1 - cos w) and
    c = sin t / sqrt(1 + tan^2(alpha/2) + tan^2(beta/2)), in which every
    point is normalizable, by one BFGS descent per start with the
    analytic gradient. Each start draws alpha, beta and delta uniformly
    and t = asin(u), so that c is the fraction u of its ceiling, and
    maps them into the chart. The reported score is
    ``closed_form_score`` at the reported parameters. With a few dozen
    starts the best point matches the analytic optimum to well below
    1e-7.
    """
    if starts < 1:
        raise ValueError("starts must be >= 1")
    cands = []
    for k in range(starts):
        rng = np.random.default_rng([seed, k])
        a = rng.uniform(0.2, pi - 0.2)
        b = rng.uniform(0.2, pi - 0.2)
        t = math.asin(rng.uniform(0.1, 0.95))
        d = rng.uniform(0.0, TWO_PI)
        res = minimize(_ideal_neg, [_angle_inverse(a), _angle_inverse(b),
                                    acos(1.0 - 4.0 * t / pi), d])
        ua, ub, w, d = res.x
        a, b, t = _angle(ua), _angle(ub), _ideal_t(w)
        c, d = sin(t) / sqrt(_ceiling_w(a, b)), d % TWO_PI
        score = closed_form_score(ConstrainedStateParams(
            c=c, delta=d, meas=MeasurementParams(alpha=a, beta=b)))
        cands.append((score, (a, b, c, d), res.converged))
    score, (a, b, c, d), conv = _best(cands)
    params = {"alpha": a, "beta": b, "c": c, "delta": d, "phi": 0.0, "xi": 0.0}
    return OptResult(score=score, params=params, e10=0.0, e01=0.0,
                     starts_used=starts, converged=conv)


# -- nonideal problem ---------------------------------------------------

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


# the starts (u_a, theta) of the slice search, run on both planes
_SLICE_STARTS = tuple((ua, th) for ua in (pi / 6, pi / 2, 5 * pi / 6)
                      for th in (pi / 2, 3 * pi / 2))
# The slice descents run on _GAIN (q - p) in the chart _ROOT_GAIN (u_a, theta).
# In exact arithmetic that takes the steps of q - p in (u_a, theta), but
# stops at a predicted decrease of BFGS_TOL / _GAIN in the score. At
# BFGS_TOL itself, descents at eps <= 1e-10 stopped up to 6e-14 below
# the slice optimum; the ideal and Hardy searches keep BFGS_TOL.
_GAIN = 100.0
_ROOT_GAIN = sqrt(_GAIN)


def _slice_terms(eps: float, sigma: float, x):
    """Point of the symmetric tight slice at x = (u_a, theta), with its
    partials.

    With alpha = beta = ``_angle(u_a)`` and h = alpha/2, both eps rows
    read m = cos h s01 + sin h s11, e10 = e01 = m^2. In the metric
    G = diag(1, 2, 1) of the norm s00^2 + 2 s01^2 + s11^2 = 1, the plane
    m = sigma sqrt(eps) has the nearest point
    c0 = sigma sqrt(eps) (0, cos h, 2 sin h) / n2, n2 = 1 + sin^2 h, and
    the orthonormal in-plane directions (1, 0, 0) and
    (0, sin h, -cos h) / sqrt(n2). The sphere meets the plane in the
    circle of radius R = sqrt(1 - 2 eps / n2) about c0, charted by
    theta. R is formed as sqrt((1 - 2 eps + sin^2 h) / n2), which keeps
    R and its partial finite at eps = 1/2 as h -> 0.

    Returns the amplitudes (s00, s01, s11), their partials along h and
    along theta, (cos h, sin h) and dh/du_a.
    """
    ua, th = x
    h = _angle(ua) / 2
    ch, sh, ct, st = cos(h), sin(h), cos(th), sin(th)
    r, n2 = sigma * sqrt(eps), 1.0 + sh * sh
    rn = sqrt(n2)
    rad = sqrt((1.0 - 2.0 * eps + sh * sh) / n2)
    rad_h = 2.0 * eps * sh * ch / (rad * n2 * n2)
    k = rad * st / rn  # the in-plane coordinate along (0, sin h, -cos h)
    k_h = st * (rad_h - rad * sh * ch / n2) / rn
    amps = (rad * ct, r * ch / n2 + k * sh, 2.0 * r * sh / n2 - k * ch)
    d_h = (rad_h * ct,
           -r * sh * (1.0 + 2.0 * ch * ch / n2) / n2 + k_h * sh + k * ch,
           2.0 * r * ch * (1.0 - 2.0 * sh * sh / n2) / n2 - k_h * ch + k * sh)
    d_th = (-rad * st, rad * ct * sh / rn, -rad * ct * ch / rn)
    return amps, d_h, d_th, (ch, sh), _HALF_SPAN * sin(ua) / 2


def _slice_neg(eps: float, sigma: float, y):
    """_GAIN (q - p) from ``ansatz_stats`` on the slice and its gradient
    in the chart y = _ROOT_GAIN (u_a, theta); p = lin^2 with lin linear
    in the amplitudes."""
    amps, d_h, d_th, (ch, sh), rate = _slice_terms(eps, sigma,
                                                   [v / _ROOT_GAIN for v in y])
    s00, s01, s11 = amps
    w = (ch * ch, 2.0 * ch * sh, sh * sh)
    lin = sum(map(mul, w, amps))
    lin_h = 2.0 * (-ch * sh * s00 + (ch * ch - sh * sh) * s01 + sh * ch * s11)
    d_s = (2.0 * s00 - 2.0 * lin * w[0], -2.0 * lin * w[1], -2.0 * lin * w[2])
    return (_GAIN * (s00 * s00 - lin * lin),
            [_ROOT_GAIN * (sum(map(mul, d_h, d_s)) - 2.0 * lin * lin_h) * rate,
             _ROOT_GAIN * sum(map(mul, d_th, d_s))])


def _polish(a: float, b: float, s00: float, s01: float, s11: float,
            eps: float) -> tuple[float, float, float]:
    """Rescale (s01, s11) to restore strict feasibility exactly.

    Both constraint probabilities are quadratic forms in (s01, s11)
    alone, so shrinking that pair by sqrt(eps / max) scales them onto
    the boundary; s00 reabsorbs the freed norm with its sign kept. At
    small eps the closed forms cancel, and rounding can leave the
    rescaled point just outside, so the rescale repeats with a growing
    margin until the closed forms give max(e10, e01) <= eps.
    """
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


def optimize_nonideal(eps: float) -> OptResult:
    """Maximize the simulated score over the ansatz under eps constraints.

    For eps > 0 the search runs on the symmetric tight slice
    (``_slice_terms``): alpha = beta and e10 = e01 = eps, where the
    paper places the eps-robust optimum. Every point of the slice is an
    explicit two-qubit strategy, so the result is a valid lower bound
    whether or not the slice holds the optimum. One unconstrained
    descent runs from each of the fixed starts ``_SLICE_STARTS`` on
    each plane m = +-sqrt(eps), with the analytic gradient of q - p.
    The closed forms can put an end point just outside the constraints
    by rounding, so every end point goes through the exact feasibility
    polish; the returned point satisfies e10, e01 <= eps in their
    closed forms. The analytic eps = 0 optimum is one more candidate,
    unoptimized. Its closed-form e10 = e01 is about 3e-33, so it keeps
    the ideal score down to about that eps; below, the polish collapses
    it. eps = 0 delegates to the ideal search, where the constraints hold
    identically (the polish rescale degenerates at eps = 0, collapsing
    the off-diagonal amplitudes).
    """
    if not 0.0 <= eps <= 0.5:
        raise ValueError(f"eps must lie in [0, 0.5], got {eps}")
    if eps == 0.0:
        return _ideal_to_ansatz(optimize_ideal())

    def candidate(a, amps, conv):
        s00, s01, s11 = _polish(a, a, *amps, eps)
        q, p, e10, e01 = ansatz_stats(a, a, s00, s01, s11)
        return p - q, (s00, s01, s11, a, a), conv, (e10, e01)

    cands = []
    for sigma in (1.0, -1.0):
        neg = functools.partial(_slice_neg, eps, sigma)
        for x0 in _SLICE_STARTS:
            res = minimize(neg, [_ROOT_GAIN * v for v in x0])
            x = [v / _ROOT_GAIN for v in res.x]
            cands.append(candidate(_angle(x[0]), _slice_terms(eps, sigma, x)[0],
                                   res.converged))
    opt = analytic_optimum()
    cands.append(candidate(opt.alpha, _ideal_amplitudes(opt.alpha, opt.c), False))
    score, prm, conv, (e10, e01) = _best(cands)
    s00, s01, s11, a, b = prm
    params = {"s00": s00, "s01": s01, "s11": s11, "alpha": a, "beta": b,
              "phi": 0.0, "xi": 0.0}
    return OptResult(score=score, params=params, e10=e10, e01=e01,
                     starts_used=2 * len(_SLICE_STARTS), converged=conv)


# -- Hardy special case -------------------------------------------------

def _hardy_neg(x):
    """Minus p on the zero slice and its gradient in the chart (u_a, u_b)."""
    ua, ub = x
    (_, Q, _), d_a, d_b = _family_terms(_angle(ua), _angle(ub))
    return -Q, [-d_a[1] * _HALF_SPAN * sin(ua), -d_b[1] * _HALF_SPAN * sin(ub)]


def optimize_hardy(starts: int = DEFAULT_STARTS, seed: int = DEFAULT_SEED) -> OptResult:
    """Maximize p with the additional constraint q = 0.

    Within the constrained family the zero constraint pins the |00>
    amplitude: c equals the normalizability ceiling, leaving a search
    over the two angles with
    p = sin^2(alpha/2) sin^2(beta/2) / (1 + tan^2(alpha/2) + tan^2(beta/2)),
    one BFGS descent per start in the chart (u_a, u_b) with the analytic
    gradient. The reported c is rounded up to where the normalizability
    radicand is not positive, so the |00> amplitude of the state is
    exactly zero.
    """
    if starts < 1:
        raise ValueError("starts must be >= 1")
    cands = []
    for k in range(starts):
        rng = np.random.default_rng([seed, k])
        x0 = [_angle_inverse(rng.uniform(0.2, pi - 0.2)),
              _angle_inverse(rng.uniform(0.2, pi - 0.2))]
        res = minimize(_hardy_neg, x0)
        ua, ub = res.x
        cands.append((-res.fun, (_angle(ua), _angle(ub)), res.converged))
    score, (a, b), conv = _best(cands)
    w = _ceiling_w(a, b)
    c = 1.0 / sqrt(w)
    while 1.0 - c ** 2 * w > 0.0:
        c = math.nextafter(c, 2.0)
    params = {"alpha": a, "beta": b, "c": c, "delta": 0.0, "phi": 0.0, "xi": 0.0}
    return OptResult(score=score, params=params, e10=0.0, e01=0.0,
                     starts_used=starts, converged=conv)


# -- sweep --------------------------------------------------------------

def sweep_epsilon(eps_grid, level=2) -> list[SweepRecord]:
    """Local bound, quantum lower bound, and relaxation upper bound per
    grid point.

    The grid must be ascending within [0, 0.5]. Points are independent.
    A failing point is recorded with an
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
            low = optimize_nonideal(e)
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
