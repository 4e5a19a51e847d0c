"""Exact and ODE-computed reference solutions: shrinkers, grim reaper, bowl soliton.

The shrinking sphere and cylinder are profile snapshots with an exact radius
law, the integrator's regression oracles.  The translators (grim reaper, bowl)
are graph patches and serve only as residual oracles for ``translator_residual``
and ``mcfprof models``: they are neither fit targets of the tangent-flow
classification nor initial data for the integrator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline

from .errors import DomainError, ExtinctError
from .geometry import FlowSnapshot, GraphPatch, graph_gradients
from .shapes import cylinder_profile, sphere_profile

SPHERE = "sphere"
CYLINDER = "cylinder"
GRIM_REAPER = "grim-reaper-product"
BOWL = "bowl-soliton"


@dataclass
class ModelSolution:
    """Parametric reference flow.

    For shrinkers the effective dimension is n (sphere) or m (cylinder
    S^m x R^(n-m)); translators move with unit vertical speed.
    """

    kind: str
    n: int
    R0: float = 1.0
    m: Optional[int] = None
    period: Optional[float] = None

    def __post_init__(self):
        if self.kind not in (SPHERE, CYLINDER, GRIM_REAPER, BOWL):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.kind == CYLINDER:
            if self.m is None or not 1 <= self.m <= self.n:
                raise ValueError("cylinder requires 1 <= m <= n")
            if self.period is None:
                self.period = float(np.pi)

    @property
    def effective_m(self) -> int:
        return self.n if self.kind == SPHERE else self.m

    @property
    def extinction_time(self) -> float:
        if self.kind not in (SPHERE, CYLINDER):
            return np.inf
        return self.R0**2 / (2.0 * self.effective_m)


def shrinker_radius(model: ModelSolution, t: float) -> float:
    """Radius law R(t) = sqrt(R0^2 - 2*m_eff*t) of a shrinking sphere/cylinder."""
    if model.kind not in (SPHERE, CYLINDER):
        raise DomainError(f"{model.kind} is a translator, not a shrinker")
    T = model.extinction_time
    if t >= T:
        raise ExtinctError(f"t = {t} at/past extinction time {T}")
    return float(np.sqrt(model.R0**2 - 2.0 * model.effective_m * t))


def grim_reaper_eval(x1, t: float = 0.0):
    """Height of the grim reaper translator, x_{n+1} = t - log cos x1."""
    x1 = np.asarray(x1, dtype=float)
    if np.any(np.abs(x1) >= np.pi / 2):
        raise DomainError("grim reaper requires |x1| < pi/2")
    out = t - np.log(np.cos(x1))
    return float(out) if out.ndim == 0 else out


def grim_reaper_patch(h: float = 1e-3, half_width: float = 1.2, t: float = 0.0) -> GraphPatch:
    """1-D graph patch sampling the grim reaper on |x1| <= half_width."""
    m = int(round(half_width / h))
    x = -m * h + h * np.arange(2 * m + 1)
    return GraphPatch(grim_reaper_eval(x, t), h)


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
    if n < 2:
        raise DomainError("bowl soliton requires n >= 2")
    r0 = min(h, 1e-3)
    # series u = r^2/(2n) - (n+2)/(8 n^3 (n+2)) ... next order: u = r^2/(2n) + c4 r^4
    # substituting u = a2 r^2 + a4 r^4 gives a4 = -a2^3 * 2n/(n+3) ... keep leading term
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


def bowl_patch(n: int, half_width: float, h: float) -> GraphPatch:
    """2-D graph patch of the bowl soliton (n = 2 cross-section) on a square."""
    prof = bowl_soliton_profile(n, half_width * 2.0, min(h / 4, 2e-3))
    rr = np.concatenate(([0.0], prof.r))
    uu = np.concatenate(([0.0], prof.u))
    spline = CubicSpline(rr, uu)
    m = int(round(half_width / h))
    x = -m * h + h * np.arange(2 * m + 1)
    X, Y = np.meshgrid(x, x, indexing="ij")
    U = spline(np.hypot(X, Y))
    return GraphPatch(U, h)


def translator_residual(patch: GraphPatch) -> float:
    """Max interior deviation from the unit-speed translator equation.

    A vertical translator of speed 1 satisfies div(Du/W) = 1/W with
    W = sqrt(1+|Du|^2); returns max |div(Du/W) - 1/W| over interior nodes.
    """
    patch.validate()
    grads, seconds = graph_gradients(patch)
    if patch.n == 1:
        up = grads[0]
        upp = seconds[0][0]
        W2 = 1.0 + up**2
        res = upp / W2**1.5 - 1.0 / np.sqrt(W2)
        return float(np.abs(res[2:-2]).max())
    ux, uy = grads
    (uxx, uxy), (_, uyy) = seconds
    W2 = 1.0 + ux**2 + uy**2
    div = ((1.0 + uy**2) * uxx - 2.0 * ux * uy * uxy + (1.0 + ux**2) * uyy) / W2**1.5
    res = div - 1.0 / np.sqrt(W2)
    return float(np.abs(res[2:-2, 2:-2]).max())


def model_snapshot(model: ModelSolution, t: float, nodes: int = 400) -> FlowSnapshot:
    """Discrete profile snapshot of a shrinker at time t; a translator raises DomainError."""
    R = shrinker_radius(model, t)
    if model.kind == SPHERE:
        return FlowSnapshot(sphere_profile(R, model.n, nodes), t)
    return FlowSnapshot(cylinder_profile(R, model.period, model.n, nodes), t)
