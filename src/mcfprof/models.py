"""Exact and ODE-computed reference solutions: shrinkers and the bowl soliton.

The shrinking sphere S^n and cylinder S^(n-1) x R are the ``sphere`` and
``cylinder`` shapes of a run config; ``shrinker_radius`` is their exact radius
law, the integrator's regression oracle for ``mcfprof models`` and the tests.
The bowl, the rotationally symmetric translator, is the radial profile of its
ODE with its own residual, checked by ``mcfprof models``.  None of them is a
fit target of the tangent-flow classification.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError


def shrinker_radius(kind: str, n: int, R0: float, t: float) -> float:
    """R(t) = sqrt(R0^2 - 2 k t) of the shrinking ``sphere`` (k = n) or ``cylinder`` (k = n - 1)."""
    if kind not in ("sphere", "cylinder"):
        raise ValueError(f"unknown shrinker {kind!r}")
    k = n if kind == "sphere" else n - 1
    T = R0**2 / (2.0 * k)
    if t >= T:
        raise DomainError(f"t = {t} at/past extinction time {T}")
    return float(np.sqrt(R0**2 - 2.0 * k * t))


@dataclass
class BowlProfile:
    """Radial profile u(r) of the rotationally symmetric translating bowl."""

    n: int
    r: np.ndarray
    u: np.ndarray
    up: np.ndarray
    max_residual: float


def _bowl_rhs(n):
    def rhs(r, y):
        u, up = y
        return [up, (1.0 + up * up) * (1.0 - (n - 1) * up / r)]
    return rhs


def bowl_soliton_profile(n: int, r_max: float, h: float) -> BowlProfile:
    """Solve the translator ODE u''/(1+u'^2) + (n-1) u'/r = 1, u(0)=0, u'(0)=0.

    Integration starts at r = h with the series u = r^2/(2n) + O(r^4) to skip
    the removable 1/r singularity; the residual is measured by differentiating
    the dense solver output with a 5-point stencil (independent of the ODE
    right-hand side).
    """
    from scipy.integrate import solve_ivp  # only the bowl oracle needs an ODE solver
    if n < 2:
        raise DomainError("bowl soliton requires n >= 2")
    r0 = min(h, 1e-3)
    u0 = r0**2 / (2.0 * n)
    up0 = r0 / n
    sol = solve_ivp(_bowl_rhs(n), (r0, r_max), [u0, up0], method="DOP853",
                    rtol=1e-13, atol=1e-14, dense_output=True)
    if not sol.success:  # pragma: no cover
        raise RuntimeError(f"bowl ODE integration failed: {sol.message}")
    r = np.arange(1, int(np.floor(r_max / h)) + 1) * h
    r = r[(r >= r0) & (r <= sol.t[-1])]
    y = sol.sol(r)
    u, up = y[0], y[1]

    # residual via dense-output second derivative, away from the endpoints
    ri = r[(r > 4 * h) & (r < r_max - 4 * h)]
    if ri.size:
        d = min(1e-3, h)
        stack = np.array([sol.sol(ri + k * d)[0] for k in (-2, -1, 0, 1, 2)])
        upp = (-stack[0] + 16 * stack[1] - 30 * stack[2] + 16 * stack[3] - stack[4]) / (12 * d * d)
        upi = sol.sol(ri)[1]
        res = upp / (1.0 + upi**2) + (n - 1) * upi / ri - 1.0
        max_res = float(np.abs(res).max())
    else:
        max_res = np.nan
    return BowlProfile(n, r, u, up, max_res)
