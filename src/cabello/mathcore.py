"""The numerical kernels used throughout: the conjugate transpose, a
small dense LP solver, and a gradient-based local minimizer (SLSQP)
under box bounds and inequality constraints.

Matrices are plain numpy arrays. Everything here is a pure function of
its arguments.

Default tolerances are set once here and inherited by the callers:
``LP_TOL`` for linear programs, ``SLSQP_TOL`` and ``SLSQP_MAX_ITER``
for the minimizer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.optimize

LP_TOL = 1e-9
SLSQP_TOL = 1e-12
SLSQP_MAX_ITER = 200


class InfeasibleError(RuntimeError):
    """LP has no feasible point."""


class UnboundedError(RuntimeError):
    """LP objective is unbounded above on the feasible region."""


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.conj(a).T


@dataclass(frozen=True)
class LPProblem:
    """Maximize c·x subject to A x ≤ b, with x_i ≥ 0 where flagged.

    ``nonneg[i]`` False leaves variable i free. The description is
    exact: no constraint exists beyond A, b and the sign flags.
    """

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    nonneg: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.c, dtype=float))
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        nn = np.atleast_1d(np.asarray(self.nonneg, dtype=bool))
        if A.shape != (b.size, c.size) or nn.size != c.size:
            raise ValueError(
                f"inconsistent LP dimensions: c {c.size}, A {A.shape}, "
                f"b {b.size}, nonneg {nn.size}"
            )
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "nonneg", nn)


def solve_lp(p: LPProblem, tol: float = LP_TOL) -> tuple[float, np.ndarray]:
    """Solve the LP to within ``tol``, returning (value, maximizer).

    Raises InfeasibleError or UnboundedError when the problem has no
    optimum; any other solver failure surfaces as RuntimeError.
    """
    bounds = [(0.0, None) if f else (None, None) for f in p.nonneg]
    res = scipy.optimize.linprog(
        -p.c,
        A_ub=p.A,
        b_ub=p.b,
        bounds=bounds,
        method="highs",
        options={"primal_feasibility_tolerance": min(tol, 1e-9),
                 "dual_feasibility_tolerance": min(tol, 1e-9)},
    )
    if res.status == 2:
        raise InfeasibleError(res.message)
    if res.status == 3:
        raise UnboundedError(res.message)
    if not res.success:  # pragma: no cover - defensive
        raise RuntimeError(f"LP solver failure: {res.message}")
    return float(-res.fun), np.asarray(res.x, dtype=float)


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
