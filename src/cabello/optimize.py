"""Seeded multistart maximization of the score.

Three searches: the ideal problem over the constrained family
(reproducing the analytic optimum), the nonideal problem over the real
ansatz amplitudes under eps constraints, and the Hardy special case
with the extra zero constraint. Phases are fixed to phi = xi = 0: the
score depends on the three phases only through their sum, so freeing
them adds flat directions and nothing else.

Each search runs one SQP descent per start (``minimize``, stopped by
``SQP_TOL`` and ``SQP_MAX_ITER``) on one callable that returns the
value of its closed form together with the hand-written gradient. Every
chart keeps its structure exact: normalization, for Hardy the zero
constraint, and the box of every bounded angle (``_angle`` maps every
real u into [_EDGE, pi - _EDGE]). So only the two eps rows of the
nonideal search reach the solver as constraints.

Every start draws its own generator from the master seed and a counter,
and results merge by maximal score with lexicographic parameter
tie-break, so a run is a deterministic function of its arguments.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from math import acos, atan2, copysign, cos, pi, sin, sqrt, tan
from operator import mul
from typing import Callable, Sequence

import numpy as np

from . import npa
from .qubit import (ConstrainedStateParams, MeasurementParams, analytic_optimum,
                    closed_form_score)
from .scenario import local_max_score

TWO_PI = 2 * pi
SQRT2 = sqrt(2.0)

DEFAULT_STARTS = 64
DEFAULT_SEED = 0

SQP_TOL = 1e-12     # stopping tolerance of every descent
SQP_MAX_ITER = 200  # iteration cap of every descent

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
    ``nit`` the subproblems solved. ``converged`` says that the stopping
    test held; when it is False (no descent was left, the linearized
    constraints were inconsistent, or ``nit`` reached ``SQP_MAX_ITER``)
    the last iterate is still returned.
    """

    x: tuple[float, ...]
    fun: float
    nevals: int
    converged: bool
    nit: int


# the nonempty active sets ``_qp_step`` tries, in order, per number of rows
_ACTIVE_SETS = {1: ((0,),), 2: ((0,), (1,), (0, 1))}


def _solve_active(M, W, r):
    """x with M_WW x = r on the rows W of the Gram matrix M, by
    elimination; None when M_WW is not positive definite."""
    if len(W) == 1:
        m = M[W[0]][W[0]]
        return [r[0] / m] if m > 0.0 else None
    (m00, m01), (m10, m11) = M
    if not m00 > 0.0:
        return None
    piv = m11 - m10 / m00 * m01
    if not piv > 0.0:
        return None
    x1 = (r[1] - m10 / m00 * r[0]) / piv
    return [(r[0] - m01 * x1) / m00, x1]


def _qp_step(H, g, c, A):
    """Step d and multipliers lam of the SQP subproblem, or None.

    Minimizes d'Bd / 2 + g'd subject to c_i + A_i d >= 0 for at most
    two rows, where B is the inverse of the positive definite H. The
    subproblem is strictly convex, so the first active set W among
    {}, {1}, {2}, {1, 2} whose minimizer on c_W + A_W d = 0,
    d = H(A_W' lam - g), has lam >= 0 and meets the other row is its
    solution. The choice needs only the Gram matrix M = A H A' and the
    residuals r = c + A d0 of the unconstrained step d0 = -H g. The
    multipliers of W are then refined once from the residual at d, so
    that c_W + A_W d vanishes to rounding in d even where H is large.
    None means that no active set qualifies: the linearized rows are
    inconsistent.
    """
    d = [-sum(map(mul, row, g)) for row in H]
    HA = [[sum(map(mul, row, a)) for row in H] for a in A]
    M = [[sum(map(mul, a, h)) for h in HA] for a in A]
    r = [ci + sum(map(mul, a, d)) for ci, a in zip(c, A)]
    lam = [0.0] * len(c)
    if min(r, default=0.0) >= 0.0:  # W = {}: d0 meets every row
        return d, lam
    for W in _ACTIVE_SETS[len(c)]:
        step = _solve_active(M, W, [-r[i] for i in W])
        if step is None or min(step) < 0.0:
            continue
        # c_j + A_j d of the row left out, if any; then W holds one row
        if all(r[j] + M[j][W[0]] * step[0] >= 0.0 for j in range(len(c)) if j not in W):
            break
    else:
        return None
    for refine in (False, True):
        if refine:
            step = _solve_active(M, W, [-c[i] - sum(map(mul, A[i], d)) for i in W])
        for i, li in zip(W, step):
            lam[i] += li
            d = [dj + li * hj for dj, hj in zip(d, HA[i])]
    return d, lam


def _lagrangian_grad(g, A, lam):
    """g - A' lam, the gradient of f - lam'c."""
    for li, ai in zip(lam, A):
        if li:
            g = [gj - li * aj for gj, aj in zip(g, ai)]
    return g


def minimize(
    fun: Callable[[list[float]], tuple[float, Sequence[float]]],
    x0: Sequence[float],
    cons: Callable[[list[float]], tuple[Sequence[float], Sequence[Sequence[float]]]]
    | None = None,
) -> MinimizeResult:
    """SQP descent from x0 on ``fun`` subject to ``cons(x) >= 0``.

    ``fun(x)`` returns the value and the gradient at x; ``cons(x)``
    returns the values of at most two constraints and their gradient
    rows. Both are used as given, with no finite differences. This is
    the method of SLSQP (Kraft, DFVLR-FB 88-28, 1988) on Python floats,
    cut down to these sizes:

    - the inverse H of a BFGS approximation to the Hessian of the
      Lagrangian, starting at the identity and updated with Powell's
      damping (Lecture Notes in Math. 630, 1978), so that it stays
      positive definite;
    - the step of the quadratic subproblem in closed form
      (``_qp_step``);
    - backtracking on the l1 merit function f + sum_i rho_i max(0, -c_i),
      with SLSQP's penalty update rho_i = max(|lam_i|, (rho_i + |lam_i|)/2),
      Armijo factor 0.1, safeguarded quadratic interpolation and at
      most ten trial points.

    It stops converged when the predicted decrease |g'd| + sum_i |lam_i c_i|
    and the violation sum_i max(0, -c_i) are both below ``SQP_TOL``, or
    when a step changes f or moves x by less than ``SQP_TOL`` and leaves
    a violation below ``SQP_TOL``. It stops unconverged when no descent
    is left (the merit function does not decrease along d, or not
    enough within ten trial points), when the subproblem is
    inconsistent, or after ``SQP_MAX_ITER`` iterations. The run is a
    deterministic function of its arguments. The end point may violate
    ``cons`` by rounding, so a caller that needs exact feasibility
    restores it itself.
    """
    x = [float(v) for v in x0]
    n = len(x)
    no_rows = ((), ())
    f, g = fun(x)
    c, A = cons(x) if cons is not None else no_rows
    nevals, nit = 1, 0
    H = [[float(i == j) for j in range(n)] for i in range(n)]
    rho = [0.0] * len(c)
    while nit < SQP_MAX_ITER:
        nit += 1
        qp = _qp_step(H, g, c, A)
        if qp is None:
            break
        d, lam = qp
        gd = sum(map(mul, g, d))
        viol = [max(0.0, -ci) for ci in c]
        if (abs(gd) + sum(abs(li * ci) for li, ci in zip(lam, c)) < SQP_TOL
                and sum(viol) < SQP_TOL):
            return MinimizeResult(tuple(x), f, nevals, True, nit)
        rho = [max(abs(li), (ri + abs(li)) / 2) for ri, li in zip(rho, lam)]
        penalty = sum(map(mul, rho, viol))
        merit, slope = f + penalty, gd - penalty  # slope: of the merit along d
        t = 1.0
        for _ in range(10 if slope < 0.0 else 0):
            xt = [xi + t * di for xi, di in zip(x, d)]
            ft, gt = fun(xt)
            ct, At = cons(xt) if cons is not None else no_rows
            nevals += 1
            drop = ft + sum(ri * max(0.0, -ci) for ri, ci in zip(rho, ct)) - merit
            if drop <= 0.1 * t * slope:
                break
            t *= max(t * slope / (2.0 * (t * slope - drop)), 0.1)
        else:
            break  # no descent left along d
        s = [t * di for di in d]
        if ((abs(ft - f) < SQP_TOL or math.hypot(*s) < SQP_TOL)
                and sum(max(0.0, -ci) for ci in ct) < SQP_TOL):
            return MinimizeResult(tuple(xt), ft, nevals, True, nit)
        # secant pair of the Lagrangian at fixed multipliers; B s = t B d
        gl = _lagrangian_grad(g, A, lam)
        y = [a - b for a, b in zip(_lagrangian_grad(gt, At, lam), gl)]
        Bs = [-t * v for v in gl]
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
        x, f, g, c, A = xt, ft, gt, ct, At
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
    point is normalizable, by one SQP descent per start with the
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

def _chart(t1: float, t2: float) -> tuple[float, float, float]:
    """Angles to ansatz amplitudes (s00, s01, s11); normalization holds
    identically.

    Polar coordinates about the s11 axis: s11 = cos t1 and
    (s00, sqrt2 s01) = sin t1 (cos t2, sin t2). The poles, where t2
    degenerates, are the states +-|11>, away from the optima and from
    the near-local valleys around +-|00>, in which descents in polar
    coordinates about the s00 axis crawl along t2.
    """
    return sin(t1) * cos(t2), sin(t1) * sin(t2) / SQRT2, cos(t1)


def _chart_inverse(s00: float, s01: float, s11: float) -> tuple[float, float]:
    """The angles (t1, t2) that ``_chart`` maps to unit-norm amplitudes."""
    return acos(s11), atan2(SQRT2 * s01, s00)


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


def _ansatz_terms(x):
    """Shared factors of the nonideal callables at x = (u_a, u_b, t1, t2):
    the amplitudes, their partials along t1 and t2, and the half-angle
    cosines and sines of alpha and beta with their rates along u."""
    ua, ub, t1, t2 = x
    a, b = _angle(ua), _angle(ub)
    c1, s1, c2, s2 = cos(t1), sin(t1), cos(t2), sin(t2)
    amps = (s1 * c2, s1 * s2 / SQRT2, c1)
    d_t1 = (c1 * c2, c1 * s2 / SQRT2, -s1)
    d_t2 = (-s1 * s2, s1 * c2 / SQRT2, 0.0)
    half = (cos(a / 2), sin(a / 2), cos(b / 2), sin(b / 2))
    rate = (_HALF_SPAN * sin(ua) / 2, _HALF_SPAN * sin(ub) / 2)  # d(angle/2)/du
    return amps, d_t1, d_t2, half, rate


def _nonideal_neg(x):
    """q - p from ``ansatz_stats`` and its gradient in the chart
    (u_a, u_b, t1, t2); p = lin^2 with lin linear in the amplitudes."""
    (s00, s01, s11), d_t1, d_t2, (ca, sa, cb, sb), (ra, rb) = _ansatz_terms(x)
    lin = ca * cb * s00 + (ca * sb + sa * cb) * s01 + sa * sb * s11
    lin_a = (-sa * cb * s00 + (ca * cb - sa * sb) * s01 + ca * sb * s11) * ra
    lin_b = (-ca * sb * s00 + (ca * cb - sa * sb) * s01 + sa * cb * s11) * rb
    d_s = (2 * s00 - 2 * lin * ca * cb, -2 * lin * (ca * sb + sa * cb),
           -2 * lin * sa * sb)
    return (s00 * s00 - lin * lin,
            [-2 * lin * lin_a, -2 * lin * lin_b,
             sum(map(mul, d_t1, d_s)), sum(map(mul, d_t2, d_s))])


def _eps_rows(r: float, x):
    """The eps constraints as r - |m10| >= 0 and r - |m01| >= 0, r = sqrt(eps),
    with their gradient rows in the chart (u_a, u_b, t1, t2).

    e10 = m10^2 and e01 = m01^2 with m10 = cos(a/2) s01 + sin(a/2) s11
    and m01 the same with b. Unlike the rows eps - m^2, whose gradient
    vanishes with m as eps -> 0+, these keep a gradient of order one.
    """
    (_, s01, s11), d_t1, d_t2, (ca, sa, cb, sb), (ra, rb) = _ansatz_terms(x)
    m10, m01 = ca * s01 + sa * s11, cb * s01 + sb * s11
    k10, k01 = -copysign(1.0, m10), -copysign(1.0, m01)
    return ((r - abs(m10), r - abs(m01)),
            ([k10 * (ca * s11 - sa * s01) * ra, 0.0,
              k10 * (ca * d_t1[1] + sa * d_t1[2]), k10 * (ca * d_t2[1] + sa * d_t2[2])],
             [0.0, k01 * (cb * s11 - sb * s01) * rb,
              k01 * (cb * d_t1[1] + sb * d_t1[2]), k01 * (cb * d_t2[1] + sb * d_t2[2])]))


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


def _analytic_seed() -> tuple[float, float, float, float]:
    """The eps = 0 optimum as angles (alpha, beta, t1, t2)."""
    opt = analytic_optimum()
    s00, s01, s11 = _ideal_amplitudes(opt.alpha, opt.c)
    return (opt.alpha, opt.alpha, *_chart_inverse(s00, s01, s11))


def optimize_nonideal(eps: float, starts: int = DEFAULT_STARTS,
                      seed: int = DEFAULT_SEED) -> OptResult:
    """Maximize the simulated score over the ansatz under eps constraints.

    Each start runs one constrained SQP solve in the chart
    (u_a, u_b, t1, t2), alpha = ``_angle(u_a)`` and beta = ``_angle(u_b)``
    in the open interval (0, pi), with the analytic gradient of q - p
    and the rows |m10|, |m01| <= sqrt(eps) of ``_eps_rows``. The solve
    can end outside the constraints by rounding, so every end point
    goes through the exact feasibility polish; the returned point
    satisfies e10, e01 <= eps in their closed forms.
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

    def candidate(a, b, t1, t2, conv):
        s00, s01, s11 = _polish(a, b, t1, t2, eps)
        q, p, e10, e01 = ansatz_stats(a, b, s00, s01, s11)
        return p - q, (s00, s01, s11, a, b), conv, (e10, e01)

    rows = functools.partial(_eps_rows, sqrt(eps))
    x0s = []
    for k in range(starts):
        rng = np.random.default_rng([seed, k])
        a, b = rng.uniform(0.2, pi - 0.2), rng.uniform(0.2, pi - 0.2)
        t1, t2 = rng.uniform(0.1, pi / 2), rng.uniform(0.0, TWO_PI)
        # the drawn state: s00 = cos t1, (sqrt2 s01, s11) = sin t1 (cos t2, sin t2)
        x0s.append((a, b, *_chart_inverse(cos(t1), sin(t1) * cos(t2) / SQRT2,
                                          sin(t1) * sin(t2))))
    x0s.append(_analytic_seed())
    cands = []
    for a, b, t1, t2 in x0s:
        res = minimize(_nonideal_neg, [_angle_inverse(a), _angle_inverse(b), t1, t2],
                       rows)
        ua, ub, t1, t2 = res.x
        cands.append(candidate(_angle(ua), _angle(ub), t1, t2, res.converged))
    # the seed itself, in case its solve ended lower; ``res`` is the seed's run
    cands.append(candidate(*x0s[-1], res.converged))
    score, prm, conv, (e10, e01) = _best(cands)
    s00, s01, s11, a, b = prm
    params = {"s00": s00, "s01": s01, "s11": s11, "alpha": a, "beta": b,
              "phi": 0.0, "xi": 0.0}
    return OptResult(score=score, params=params, e10=e10, e01=e01,
                     starts_used=starts, converged=conv)


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
    one SQP descent per start in the chart (u_a, u_b) with the analytic
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
