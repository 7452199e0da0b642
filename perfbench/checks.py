"""Output checks that do not use the cabello package.

Every strategy is rebuilt from its reported parameters with plain numpy
(state vector, projectors, Born rule), and every bound is compared with
frozen references or with a property the method must have. Each check
returns a list of failure messages; an empty list means the output
passed.
"""

from __future__ import annotations

import math

import numpy as np

# Slack for comparisons that hold exactly in real arithmetic.
ROUNDING = 1e-12
# Distance allowed from the certified moment-relaxation references.
REFERENCE_TOL = 1e-6
# Distance allowed from the frozen closed-form optima.
OPTIMUM_TOL = 1e-9
FIDELITY_MIN = 1 - 1e-9

HARDY_SCORE = (5 * math.sqrt(5) - 11) / 2


def _behavior(psi, alpha, beta, phi, xi):
    """p[x, y, a, b] for a two-qubit state; setting 0 of each party is
    the computational basis, setting 1 projects onto
    cos(angle/2)|0> + e^{i phase} sin(angle/2)|1> and its complement."""
    def settings(angle, phase):
        plus = np.array([math.cos(angle / 2), np.exp(1j * phase) * math.sin(angle / 2)])
        minus = np.array([-math.sin(angle / 2), np.exp(1j * phase) * math.cos(angle / 2)])
        z = (np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        return (z, (plus, minus))

    sa, sb = settings(alpha, phi), settings(beta, xi)
    p = np.empty((2, 2, 2, 2))
    for x in range(2):
        for y in range(2):
            for a in range(2):
                for b in range(2):
                    amp = np.vdot(np.kron(sa[x][a], sb[y][b]), psi)
                    p[x, y, a, b] = abs(amp) ** 2
    return p


def _stats(psi, params):
    """(norm, score, q, e10, e01) of a state under the reported angles."""
    p = _behavior(psi, params["alpha"], params["beta"], params["phi"], params["xi"])
    q = p[0, 0, 0, 0]
    return {"norm": float(np.vdot(psi, psi).real), "score": float(p[1, 1, 0, 0] - q),
            "q": float(q), "e10": float(p[1, 0, 0, 1]), "e01": float(p[0, 1, 1, 0])}


def ansatz_stats(params: dict) -> dict:
    """Rebuild the nonideal-search strategy: amplitudes
    (s00 e^{-i(xi+phi)}, s01 e^{-i phi}, s01 e^{-i xi}, s11)."""
    ph, xi = params["phi"], params["xi"]
    psi = np.array([params["s00"] * np.exp(-1j * (xi + ph)),
                    params["s01"] * np.exp(-1j * ph),
                    params["s01"] * np.exp(-1j * xi),
                    params["s11"]])
    return _stats(psi, params)


def constrained_stats(params: dict, hardy: bool = False) -> dict:
    """Rebuild a constrained-family strategy: amplitudes
    (e^{i delta} R, -c e^{-i phi} tan(alpha/2), -c e^{-i xi} tan(beta/2), c)
    with R the square root of the normalization remainder.

    The Hardy case pins R to 0 and puts c on the normalization ceiling;
    there R is set to 0 exactly (the square root would turn a rounding
    error of 1e-16 in the remainder into 1e-8) and the norm is checked.
    """
    c, ta, tb = params["c"], math.tan(params["alpha"] / 2), math.tan(params["beta"] / 2)
    rad = 0.0 if hardy else 1.0 - c * c * (1.0 + ta * ta + tb * tb)
    psi = np.array([np.exp(1j * params["delta"]) * math.sqrt(max(rad, 0.0)),
                    -c * np.exp(-1j * params["phi"]) * ta,
                    -c * np.exp(-1j * params["xi"]) * tb,
                    c])
    return _stats(psi, params)


def local_bound(eps: float) -> float:
    """The eps-constrained local bound in closed form."""
    return min(2.0 * eps, 1.0)


def check_strategy(stats: dict, eps: float, score: float) -> list[str]:
    """A rebuilt strategy is normalized, meets both constraints and
    scores what was reported."""
    out = []
    if not abs(stats["norm"] - 1.0) <= ROUNDING:
        out.append(f"state norm {stats['norm']!r} != 1")
    for key in ("e10", "e01"):
        if not stats[key] <= eps + ROUNDING:
            out.append(f"rebuilt {key} {stats[key]!r} > eps {eps!r}")
    if not abs(stats["score"] - score) <= ROUNDING:
        out.append(f"rebuilt score {stats['score']!r} != reported {score!r}")
    return out


def check_local(local: float, eps: float) -> list[str]:
    if not abs(local - local_bound(eps)) <= OPTIMUM_TOL:
        return [f"local bound {local!r} != min(2 eps, 1) = {local_bound(eps)!r}"]
    return []


def check_optimum(score: float, expected: float, what: str) -> list[str]:
    if not abs(score - expected) <= OPTIMUM_TOL:
        return [f"{what} score {score!r} != {expected!r}"]
    return []


def check_upper(upper: float, eps: float, opt_score: float,
                reference: float | None) -> list[str]:
    """An upper bound lies above every attainable value (the ideal
    optimum is feasible at every eps, the local bound too) and matches
    its certified reference where one exists."""
    out = []
    for what, v in (("ideal optimum", opt_score), ("local bound", local_bound(eps))):
        if not upper >= v - ROUNDING:
            out.append(f"upper {upper!r} < attainable {what} {v!r}")
    if reference is not None and not abs(upper - reference) <= REFERENCE_TOL:
        out.append(f"upper {upper!r} differs from reference {reference!r}")
    return out


def check_lower(lower: float, eps: float, opt_score: float) -> list[str]:
    """local <= lower, and lower(eps) >= lower(0) for eps > 0 since the
    ideal optimum stays feasible."""
    out = []
    if not local_bound(eps) <= lower + ROUNDING:
        out.append(f"lower {lower!r} < local bound {local_bound(eps)!r}")
    if eps > 0 and not lower >= opt_score - ROUNDING:
        out.append(f"lower {lower!r} < ideal optimum {opt_score!r} at eps {eps!r}")
    return out


def check_order(lower: float, upper: float) -> list[str]:
    if not lower <= upper + ROUNDING:
        return [f"upper {upper!r} < lower {lower!r}"]
    return []


def check_levels(level3: float, level2: float) -> list[str]:
    """A higher relaxation level is never looser."""
    if not level3 <= level2 + REFERENCE_TOL:
        return [f"level 3 {level3!r} > level 2 {level2!r}"]
    return []


def check_fidelity(fidelity: float) -> list[str]:
    if not fidelity >= FIDELITY_MIN:  # also rejects NaN
        return [f"fidelity {fidelity!r} < {FIDELITY_MIN!r}"]
    return []
