"""Maximization of the score on the equal-angle slice.

Three searches, each over the half-angle h = alpha/2 = beta/2 of equal
measurement angles, where the paper places the ideal, Hardy and
eps-robust optima. They differ only in the function of h they
maximize, each in closed form over the remaining parameters:

- ideal: p - q at eps = 0 (``_slice_point``), the top eigenvalue of a
  2x2 form; the ideal verb reports the exact-zero eps = 0 candidate
  (``_ideal_candidate``), which every nonideal search also builds on;
- Hardy: p on the zero slice, where c sits at the normalizability
  ceiling (``_hardy_p``);
- nonideal: p - q over the real ansatz amplitudes on the tight slice
  e10 = e01 = eps, maximized over its circle of amplitudes by a 2x2
  secular equation (``_slice_point``).

Phases are fixed to phi = xi = 0: the score depends on the three
phases only through their sum, so freeing them adds flat directions
and nothing else.

``minimize`` is the one scalar search: a fixed grid of
``GRID_POINTS``, then golden-section refinement in the bracket of each
local minimum of the grid. ``_EDGE`` keeps every angle off the box
edges. A run is a deterministic function of its arguments.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from math import copysign, cos, hypot, pi, sin, sqrt
from typing import Callable

from . import npa
from .qubit import ConstrainedStateParams, MeasurementParams, closed_form_score, norm_factor
from .scenario import local_max_score

GRID_POINTS = 12       # evenly spaced grid of every search, both ends included
GOLDEN_MAX_ITER = 100  # step cap of every golden-section refinement

_EDGE = 1e-9          # open-interval guard for the polar angles
_H_BOX = (_EDGE / 2, pi / 2 - _EDGE / 2)  # the half-angles h = alpha/2 searched
_INV_PHI = (sqrt(5.0) - 1.0) / 2  # golden-section ratio
_SECULAR_MAX_ITER = 60  # Newton step cap of the secular equation
_BOUND_SLACK = 1e-12  # rounding allowed when comparing bounds of a sweep row


@dataclass(frozen=True)
class OptResult:
    """Best point of a search.

    ``params`` is a plain dict of named parameter fields (the ideal and
    Hardy searches report the constrained family, the nonideal search
    the ansatz amplitudes). ``starts_used`` is the size of the search's
    grid, ``GRID_POINTS``, and ``converged`` the ``MinimizeResult`` flag
    of the search that found the winning point.
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

    ``nevals`` counts calls of the objective and ``nit`` the
    golden-section steps over all brackets. ``converged`` says that
    every bracket shrank until its trial points met in floating point;
    when it is False (a refinement reached ``GOLDEN_MAX_ITER``) the best
    point evaluated is still returned.
    """

    x: float
    fun: float
    nevals: int
    converged: bool
    nit: int


def minimize(fun: Callable[[float], float], lo: float, hi: float) -> MinimizeResult:
    """Minimum of the scalar ``fun`` on [lo, hi]: a grid, then golden sections.

    ``fun`` is evaluated at ``GRID_POINTS`` evenly spaced points, both
    ends included. Each grid point below its left neighbour and not
    above its right one (a missing neighbour counts as higher) brackets
    a local minimum between its neighbours. A golden-section search
    (Kiefer, Proc. Amer. Math. Soc. 4, 502 (1953)) shrinks that bracket
    until its trial points meet in floating point, or for at most
    ``GOLDEN_MAX_ITER`` steps. The result is the lowest point evaluated,
    exact ties broken toward the smaller x.
    """
    step = (hi - lo) / (GRID_POINTS - 1)
    grid = [lo + k * step for k in range(GRID_POINTS - 1)] + [hi]
    vals = [fun(x) for x in grid]
    seen = list(zip(vals, grid))
    nit, converged = 0, True
    for k, f in enumerate(vals):
        if not (f < (vals[k - 1] if k else math.inf)
                and f <= (vals[k + 1] if k + 1 < GRID_POINTS else math.inf)):
            continue
        a, b = grid[max(k - 1, 0)], grid[min(k + 1, GRID_POINTS - 1)]
        c, d = b - _INV_PHI * (b - a), a + _INV_PHI * (b - a)
        fc, fd = fun(c), fun(d)
        seen += [(fc, c), (fd, d)]
        for _ in range(GOLDEN_MAX_ITER):
            if fc < fd:  # the minimum lies in [a, d]
                b, d, fd = d, c, fc
                c = b - _INV_PHI * (b - a)
                if not a < c < d:
                    break
                fc = fun(c)
                seen.append((fc, c))
            else:        # in [c, b]
                a, c, fc = c, d, fd
                d = a + _INV_PHI * (b - a)
                if not c < d < b:
                    break
                fd = fun(d)
                seen.append((fd, d))
            nit += 1
        else:
            converged = False
    f, x = min(seen)
    return MinimizeResult(x, f, len(seen), converged, nit)


def _search(value: Callable[[float], float]) -> MinimizeResult:
    """Maximum of ``value(h)`` over the half-angle box ``_H_BOX``; the
    result's ``fun`` is minus the maximum."""
    return minimize(lambda h: -value(h), *_H_BOX)


# -- ideal and Hardy problems -------------------------------------------

def _hardy_p(a: float, b: float) -> float:
    """p = sin^2(a/2) sin^2(b/2) / W of the constrained family with c at
    its normalizability ceiling, W = 1 + tan^2(a/2) + tan^2(b/2)."""
    ca, sa, cb, sb = cos(a / 2), sin(a / 2), cos(b / 2), sin(b / 2)
    ta, tb = sa / ca, sb / cb
    return sa * sa * sb * sb / (1.0 + ta * ta + tb * tb)


def _hardy_point(a: float, b: float):
    """p and (alpha, beta, c), with c rounded up from 1 / sqrt(W) until
    the radicand, formed as ``qubit._radicand`` forms it, is not
    positive: the |00> amplitude of ``constrained_state`` is then 0."""
    w = norm_factor(a, b)
    c = 1.0 / sqrt(w)
    while 1.0 - c * c * w > 0.0:
        c = math.nextafter(c, 2.0)
    return _hardy_p(a, b), (a, b, c)


def _family_result(score: float, a: float, c: float, delta: float,
                   converged: bool) -> OptResult:
    """The constrained-family point at alpha = beta = a, c and delta."""
    params = {"alpha": a, "beta": a, "c": c, "delta": delta, "phi": 0.0, "xi": 0.0}
    return OptResult(score=score, params=params, e10=0.0, e01=0.0,
                     starts_used=GRID_POINTS, converged=converged)


def optimize_ideal() -> OptResult:
    """Maximize the closed-form score over (alpha, beta, c, delta).

    Reports the exact-zero eps = 0 candidate (``_ideal_candidate``) in
    the constrained-family chart: alpha = beta = 2h, c its |11>
    amplitude s11, delta = pi, and ``closed_form_score`` there, a few
    ulp from the analytic optimum.
    """
    _, (_, _, c, a, _), converged = _ideal_candidate()
    score = closed_form_score(ConstrainedStateParams(
        c=c, delta=pi, meas=MeasurementParams(alpha=a, beta=a)))
    return _family_result(score, a, c, pi, converged)


def optimize_hardy() -> OptResult:
    """Maximize p with the additional constraint q = 0.

    Within the constrained family the zero constraint pins the |00>
    amplitude: c equals the normalizability ceiling, leaving
    p = sin^2(alpha/2) sin^2(beta/2) / (1 + tan^2(alpha/2) + tan^2(beta/2)),
    at equal angles cos^2 h sin^4 h / (1 + sin^2 h), searched over h.
    The reported c makes the |00> amplitude exactly 0 (``_hardy_point``).
    """
    res = _search(lambda h: _hardy_p(2 * h, 2 * h))
    p, (a, _, c) = _hardy_point(2 * res.x, 2 * res.x)
    return _family_result(p, a, c, 0.0, res.converged)


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


def _slice_point(eps: float, h: float):
    """p - q and the amplitudes (s00, s01, s11) at the best point of the
    symmetric tight slice at half-angle h.

    With alpha = beta = 2h both eps rows read m = cos h s01 + sin h s11,
    e10 = e01 = m^2. In the metric G = diag(1, 2, 1) of the norm
    s00^2 + 2 s01^2 + s11^2 = 1, the plane m = sqrt(eps) has the nearest
    point c0 = sqrt(eps) (0, cos h, 2 sin h) / n2, n2 = 1 + sin^2 h, and
    the orthonormal in-plane directions (1, 0, 0) and
    (0, sin h, -cos h) / sqrt(n2). The sphere meets the plane in the
    circle c0 + R (x1 (1, 0, 0) + x2 (0, sin h, -cos h) / sqrt(n2)),
    |x| = 1, of radius R = sqrt(1 - 2 eps / n2), formed as
    sqrt((1 - 2 eps + sin^2 h) / n2) so that it stays accurate at
    eps = 1/2 as h -> 0. On the circle q = (R x1)^2 and
    p = (L0 + R g.x)^2 with g = (cos^2 h, cos h sin^2 h / sqrt(n2)) and
    L0 = 2 sqrt(eps) sin h / n2, so p - q = x'Mx + 2 b'x + L0^2 with
    M = R^2 (g g' - e1 e1') and b = L0 R g.

    The maximum over the circle is at x = (lam I - M)^-1 b, lam above
    the top eigenvalue mu1 of M, with |x| = 1 (Gander, Golub & von Matt,
    Linear Algebra Appl. 114/115, 815 (1989)). In the eigenbasis of M
    and with t = lam - mu1 > 0, 1/|x(t)| - 1 is concave and increasing,
    so Newton from t = |b1| (b1 the part of b along the top eigenvector),
    where |x| >= 1, climbs to its root without overshoot. At eps = 0,
    b = 0 and x is the top eigenvector, from which ``_ideal_candidate``
    forms the exact-zero eps = 0 candidate that the ideal verb reports.
    The plane m = -sqrt(eps) adds nothing, since q and p are even in the
    amplitudes.
    """
    ch, sh = cos(h), sin(h)
    n2 = 1.0 + sh * sh
    rn, r = sqrt(n2), sqrt(eps)
    R = sqrt((1.0 - 2.0 * eps + sh * sh) / n2)
    g1, g2 = ch * ch, ch * sh * sh / rn
    m11, m12, m22 = R * R * (g1 * g1 - 1.0), R * R * g1 * g2, R * R * g2 * g2
    half = (m11 - m22) / 2  # <= 0, as m11 < 0 <= m22
    rad = hypot(half, m12)
    nv = hypot(m12, rad - half)
    v1, v2 = m12 / nv, (rad - half) / nv  # top eigenvector; the other is (-v2, v1)
    L0R = 2.0 * r * sh / n2 * R
    b1, b2 = L0R * (v1 * g1 + v2 * g2), L0R * (v1 * g2 - v2 * g1)
    y1, y2 = 1.0, 0.0
    if b1:
        t, d = abs(b1), 2.0 * rad  # d = mu1 - mu2
        for _ in range(_SECULAR_MAX_ITER):
            y1, y2 = b1 / t, b2 / (t + d)
            nx = hypot(y1, y2)
            t_next = t + (nx - 1.0) * nx * nx / (y1 * y1 / t + y2 * y2 / (t + d))
            if not t_next > t:
                break
            t = t_next
        y1, y2 = y1 / nx, y2 / nx
    x1, x2 = y1 * v1 - y2 * v2, y1 * v2 + y2 * v1
    k = R * x2 / rn
    amps = (R * x1, r * ch / n2 + k * sh, 2.0 * r * sh / n2 - k * ch)
    q, p, _, _ = ansatz_stats(2 * h, 2 * h, *amps)
    return p - q, amps


def _shift_polish(h: float, amps, eps: float):
    """Move (s01, s11) along the row normal (cos h, sin h) onto the
    constraints, exactly in the closed forms.

    On the slice both constraint probabilities read m^2. The shift
    moves m onto sign(m) sqrt(eps) (1 - margin) and leaves the part of
    (s01, s11) orthogonal to the normal in place; s00 takes the rest of
    the norm, with its sign kept. Rounding leaves m off by about 1e-16 absolute,
    which at eps = 1e-20 is 1e-6 of sqrt(eps); a scaling of the pair
    would move all of it by that fraction, a shift moves it by the
    error alone. The margin doubles from 2^-53 until ``ansatz_stats``
    gives e10, e01 <= eps; None when even the margin 1 (the target
    m = 0) does not get there.
    """
    a, ch, sh = 2 * h, cos(h), sin(h)
    s00, s01, s11 = amps
    margin = 2.0 ** -53
    while True:
        _, _, e10, e01 = ansatz_stats(a, a, s00, s01, s11)
        if max(e10, e01) <= eps:
            return s00, s01, s11
        if margin > 1.0:
            return None
        m = ch * s01 + sh * s11
        shift = copysign(sqrt(eps) * (1.0 - margin), m) - m
        s01, s11 = s01 + shift * ch, s11 + shift * sh
        s00 = copysign(sqrt(max(0.0, 1.0 - 2 * s01 * s01 - s11 * s11)), s00)
        margin *= 2


@functools.cache
def _ideal_candidate():
    """The eps = 0 optimum with closed-form e10 = e01 = 0.0 exactly.

    From the optimum of ``_slice_point`` at eps = 0, s11 steps toward 0
    by ulps, with s01 = -sin h s11 / cos h or one of its two float
    neighbours, until the closed form m = cos h s01 + sin h s11 of
    ``ansatz_stats`` is 0.0; s00 then takes the rest of the norm. The
    signs are those of ``qubit.analytic_optimum``'s state. The strategy
    is feasible at every eps >= 0, so it is formed once per process;
    ``optimize_ideal`` reports it too. Returns the score,
    (s00, s01, s11, alpha, beta) and the search's convergence flag.
    """
    res = _search(lambda h: _slice_point(0.0, h)[0])
    h = res.x
    ch, sh = cos(h), sin(h)
    s00, s01, s11 = (-v for v in _slice_point(0.0, h)[1])
    while True:
        v = -sh * s11 / ch
        zeros = [s for s in (v, math.nextafter(v, -1.0), math.nextafter(v, 1.0))
                 if ch * s + sh * s11 == 0.0]
        if zeros:
            break
        s11 = math.nextafter(s11, 0.0)
    s01 = zeros[0]
    s00 = copysign(sqrt(max(0.0, 1.0 - 2 * s01 * s01 - s11 * s11)), s00)
    q, p, _, _ = ansatz_stats(2 * h, 2 * h, s00, s01, s11)
    return p - q, (s00, s01, s11, 2 * h, 2 * h), res.converged


def optimize_nonideal(eps: float) -> OptResult:
    """Maximize the simulated score over the ansatz under eps constraints.

    The search runs on the symmetric tight slice (``_slice_point``):
    alpha = beta and e10 = e01 = eps, where the paper places the
    eps-robust optimum. Every point of the slice is an explicit
    two-qubit strategy, so the result is a valid lower bound whether or
    not the slice holds the optimum. The closed forms can put the best
    point just outside the constraints by rounding, so it goes through
    the shift polish (``_shift_polish``); the returned point satisfies
    e10, e01 <= eps in their closed forms. The other candidate is the
    eps = 0 optimum with exact zeros (``_ideal_candidate``), feasible at
    every eps: it wins where the polish cannot get the slice point
    inside, below eps of about 1e-32, and at eps = 0.
    """
    if not 0.0 <= eps <= 0.5:
        raise ValueError(f"eps must lie in [0, 0.5], got {eps}")
    res = _search(lambda h: _slice_point(eps, h)[0])
    cands = [_ideal_candidate()]
    amps = _shift_polish(res.x, _slice_point(eps, res.x)[1], eps)
    if amps is not None:
        a = 2 * res.x
        q, p, _, _ = ansatz_stats(a, a, *amps)
        cands.append((p - q, (*amps, a, a), res.converged))
    score, (s00, s01, s11, a, b), conv = _best(cands)
    _, _, e10, e01 = ansatz_stats(a, b, s00, s01, s11)
    params = {"s00": s00, "s01": s01, "s11": s11, "alpha": a, "beta": b,
              "phi": 0.0, "xi": 0.0}
    return OptResult(score=score, params=params, e10=e10, e01=e01,
                     starts_used=GRID_POINTS, converged=conv)


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
