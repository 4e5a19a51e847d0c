"""Discrete hypersurfaces of revolution, with their curvature operator.

``ProfileCurve`` (arclength-sampled generating curve of a rotationally
symmetric hypersurface in R^(n+1)) is the only surface that is flowed or
analyzed.  Profiles have one derivative kernel, ``profile_derivatives``
(3-point stencils on chord segments), and one curvature formula,
``principal_curvatures``, which ``curvature_axisymmetric`` and the
integrator's step operator share.  The sign convention is the inward normal
with H > 0 on round spheres.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DegenerateSurfaceError, NumericalBlowupError, ResolutionError, TopologyError


def _lapack_gtsv():
    """LAPACK dgtsv, loaded from scipy's compiled ``linalg/_flapack`` module.

    Importing ``scipy.linalg`` runs its package init, whose array-API layer imports
    numpy.f2py, numpy.testing, numpy.ma and numpy.random: about half the start-up
    of a run.  ``find_spec`` of the top-level ``scipy`` only locates the package,
    so no scipy package init runs here.  The routine is the object that
    ``scipy.linalg.lapack.dgtsv`` names, whichever of the two is imported first.
    """
    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is None:
        raise ImportError("scipy is not installed")
    folder = [os.path.join(path, "linalg") for path in scipy_spec.submodule_search_locations]
    spec = importlib.machinery.PathFinder.find_spec("scipy.linalg._flapack", folder)
    if spec is None:
        raise ImportError(f"scipy's compiled LAPACK module _flapack is not in {folder}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.dgtsv


dgtsv = _lapack_gtsv()

CLOSED = "closed-through-axis"
PERIODIC = "periodic-in-z"
# relative |A|^2 gap below which max-curvature nodes count as tied
TIE_RTOL = 1e-9
# the embeddedness sweep sorts segments along this unit vector: aligned with neither
# axis, so a flat cap or a straight wall does not project to one point
SWEEP_DIRECTION = np.array([np.cos(1.0), np.sin(1.0)])


@dataclass
class ProfileCurve:
    """Generating curve (z, r >= 0) of a surface of revolution about the z-axis.

    ``topology`` is ``closed-through-axis`` (r = 0 exactly at the first and
    last node, caps meeting the axis orthogonally) or ``periodic-in-z``
    (r > 0 everywhere, z covering one period).
    """

    z: np.ndarray
    r: np.ndarray
    n: int
    topology: str
    period: Optional[float] = None

    def __post_init__(self):
        self.z = np.ascontiguousarray(self.z, dtype=float)
        self.r = np.ascontiguousarray(self.r, dtype=float)
        if self.topology not in (CLOSED, PERIODIC):
            raise ValueError(f"unknown topology {self.topology!r}")
        if self.topology == PERIODIC and not self.period:
            raise ValueError("periodic-in-z profile needs a period")
        # canonical orientation: traversal with increasing z
        if self.z[-1] < self.z[0]:
            self.z = self.z[::-1].copy()
            self.r = self.r[::-1].copy()

    @property
    def num_nodes(self) -> int:
        return self.z.size

    @property
    def arclength(self) -> np.ndarray:
        """Cumulative chord length, s[0] = 0."""
        ds = np.hypot(np.diff(self.z), np.diff(self.r))
        return np.concatenate(([0.0], np.cumsum(ds)))

    def spacings(self) -> np.ndarray:
        """Consecutive node spacings, including the wrap segment if periodic."""
        ds = np.hypot(np.diff(self.z), np.diff(self.r))
        if self.topology == PERIODIC:
            wrap = np.hypot(self.z[0] + self.period - self.z[-1], self.r[0] - self.r[-1])
            ds = np.concatenate((ds, [wrap]))
        return ds

    @property
    def mean_spacing(self) -> float:
        return float(np.mean(self.spacings()))

    def node_spacing(self) -> np.ndarray:
        """Per-node resolution: the shorter adjacent spacing, capped at the mean spacing."""
        ds = self.spacings()
        if self.topology == PERIODIC:
            local = np.minimum(np.roll(ds, 1), ds)
        else:
            local = np.minimum(np.concatenate(([ds[0]], ds)), np.concatenate((ds, [ds[-1]])))
        return np.minimum(local, ds.mean())

    def validate(self):
        if self.z.ndim != 1 or self.z.shape != self.r.shape:
            raise DegenerateSurfaceError("z and r must be 1-D arrays of one length")
        if self.num_nodes < 8:
            raise ResolutionError(f"need at least 8 nodes, got {self.num_nodes}")
        if not np.all(np.isfinite(self.z)) or not np.all(np.isfinite(self.r)):
            raise DegenerateSurfaceError("non-finite node coordinates")
        if self.topology == CLOSED:
            if self.r[0] != 0.0 or self.r[-1] != 0.0:
                raise DegenerateSurfaceError("closed-through-axis profile must have r = 0 at both ends")
            if np.any(self.r[1:-1] <= 0.0):
                raise DegenerateSurfaceError("non-positive r at an interior node")
        else:
            if np.any(self.r <= 0.0):
                raise DegenerateSurfaceError("non-positive r on a periodic profile")
        if self.is_self_intersecting():
            raise TopologyError("self-intersecting generating curve")

    def is_self_intersecting(self) -> bool:
        """Whether two non-adjacent segments of the profile polyline share a point.

        A profile whose z strictly increases (across the wrap too, if periodic)
        is a graph over the axis and cannot cross itself.  Any other is swept,
        a periodic one as three copies (shifted by -period, 0, +period) with
        their wrap segments.
        """
        z, r, period = self.z, self.r, self.period
        if np.all(np.diff(z) > 0.0) and (self.topology == CLOSED or z[-1] < z[0] + period):
            return False
        if self.topology == PERIODIC:
            z = np.append(np.concatenate((z - period, z, z + period)), z[0] + 2.0 * period)
            r = np.append(np.tile(r, 3), r[0])
        return _polyline_crosses(np.column_stack((z, r)))


def _polyline_crosses(pts: np.ndarray) -> bool:
    """Whether segments i and j, |i - j| >= 2, of the polyline through pts share a point.

    Sort and sweep: pass k tests each segment against the k-th next one in the
    order of their projections on SWEEP_DIRECTION, while the projections
    overlap.  A pair meets when neither segment has both ends strictly on one
    side of the other's line and their bounding boxes overlap (so collinear
    segments meet only where they overlap).
    """
    def turn(a, b, c):  # +1 left, -1 right, 0 collinear, per row
        return np.sign((b - a)[:, 0] * (c - a)[:, 1] - (b - a)[:, 1] * (c - a)[:, 0])

    proj = pts @ SWEEP_DIRECTION
    lo, hi = np.minimum(proj[:-1], proj[1:]), np.maximum(proj[:-1], proj[1:])
    order = np.argsort(lo)
    lo, hi = lo[order], hi[order]
    active, k = np.arange(order.size), 1
    while active.size:
        active = active[active + k < order.size]
        active = active[lo[active + k] <= hi[active]]
        i, j = order[active], order[active + k]
        apart = np.abs(i - j) > 1
        i, j = i[apart], j[apart]
        p1, p2, q1, q2 = pts[i], pts[i + 1], pts[j], pts[j + 1]
        if np.any((turn(p1, p2, q1) * turn(p1, p2, q2) <= 0.0)
                  & (turn(q1, q2, p1) * turn(q1, q2, p2) <= 0.0)
                  & np.all(np.maximum(np.minimum(p1, p2), np.minimum(q1, q2))
                           <= np.minimum(np.maximum(p1, p2), np.maximum(q1, q2)), axis=1)):
            return True
        k += 1
    return False


@dataclass
class CurvatureField:
    """Per-node principal curvatures and derived fields, one value per node each.

    A surface of revolution has two distinct principal curvatures: the axial
    one ``lam_axial`` and the rotational one ``lam_rot`` of multiplicity n-1.
    ``lam1`` is the smaller (NaN-last, like a sorted row), and
    H = lam_axial + (n-1) lam_rot.  ``normal`` is the (N, 2) meridian normal.
    """

    lam_axial: np.ndarray
    lam_rot: np.ndarray
    lam1: np.ndarray
    H: np.ndarray
    A2: np.ndarray
    normal: np.ndarray


@dataclass
class FlowSnapshot:
    """A surface at one instant, with lazily computed cached curvature."""

    surface: ProfileCurve
    t: float
    _curv: Optional[CurvatureField] = field(default=None, repr=False)

    @property
    def curvature(self) -> CurvatureField:
        if self._curv is None:
            self._curv = curvature_axisymmetric(self.surface)
        return self._curv


# ---------------------------------------------------------------------------
# the profile stencil and curvature operators
# ---------------------------------------------------------------------------

def profile_derivatives(z, r, closed, period):
    """Arclength derivatives of raw profile arrays on 3-point nonuniform stencils.

    Closed profiles are continued through the axis by reflection (z, -r);
    periodic ones wrap with a z-shift of one period.  Returns
    (z_s, r_s, z_ss, r_ss, seg), where seg holds the N + 1 chord lengths of the
    padded curve: node i sits between seg[i] and seg[i + 1].  The stencils are
    exact on quadratics and second order for quasi-uniform spacing.  z and r
    are padded as the two rows of one array, so each stencil runs once.
    """
    p = np.empty((2, z.size + 2))
    p[0, 1:-1] = z
    p[1, 1:-1] = r
    if closed:
        p[0, 0], p[1, 0], p[0, -1], p[1, -1] = z[1], -r[1], z[-2], -r[-2]
    else:
        p[0, 0], p[1, 0], p[0, -1], p[1, -1] = z[-1] - period, r[-1], z[0] + period, r[0]
    seg = np.hypot(*(p[:, 1:] - p[:, :-1]))
    hm = seg[:-1]
    hp = seg[1:]
    hs = hm + hp
    denom = hm * hp * hs
    hm2 = hm * hm
    hp2 = hp * hp
    d1 = (hm2 * p[:, 2:] + (hp2 - hm2) * p[:, 1:-1] - hp2 * p[:, :-2]) / denom
    d2 = 2.0 * (hm * p[:, 2:] - hs * p[:, 1:-1] + hp * p[:, :-2]) / denom
    return d1[0], d1[1], d2[0], d2[1], seg


def principal_curvatures(z_s, r_s, z_ss, r_ss, r, n, closed):
    """(lam_axial, lam_rot, A2, w) from the output of ``profile_derivatives``.

    lambda_axial is the signed curvature of the generating curve with respect
    to the inward normal nu = (r_s, -z_s) / w, with w = |(z_s, r_s)|;
    lambda_rot = z_s / (r w) carries multiplicity n-1, and at the poles of a
    closed profile takes its smooth limit lambda_rot = lambda_axial.
    """
    w2 = z_s * z_s + r_s * r_s
    w = np.sqrt(w2)
    lam_axial = (z_ss * r_s - r_ss * z_s) / (w2 * w)
    lam_rot = np.empty_like(lam_axial)
    if closed:
        np.divide(z_s[1:-1], r[1:-1] * w[1:-1], out=lam_rot[1:-1])
        lam_rot[0] = lam_axial[0]
        lam_rot[-1] = lam_axial[-1]
    else:
        np.divide(z_s, r * w, out=lam_rot)
    A2 = lam_axial * lam_axial + (n - 1) * lam_rot * lam_rot
    return lam_axial, lam_rot, A2, w


def curvature_axisymmetric(curve: ProfileCurve) -> CurvatureField:
    """Principal curvatures of a surface of revolution (see ``principal_curvatures``)."""
    if curve.num_nodes < 8:
        raise ResolutionError(f"need at least 8 nodes, got {curve.num_nodes}")
    closed = curve.topology == CLOSED
    if closed:
        if np.any(curve.r[1:-1] <= 0.0):
            raise DegenerateSurfaceError("non-positive r at an interior node")
    elif np.any(curve.r <= 0.0):
        raise DegenerateSurfaceError("non-positive r at a node")

    z_s, r_s, z_ss, r_ss, _ = profile_derivatives(curve.z, curve.r, closed, curve.period)
    lam_axial, lam_rot, A2, w = principal_curvatures(z_s, r_s, z_ss, r_ss, curve.r,
                                                     curve.n, closed)
    H = lam_axial + (curve.n - 1) * lam_rot
    normal = np.column_stack((r_s / w, -z_s / w))
    return CurvatureField(lam_axial, lam_rot, np.fmin(lam_axial, lam_rot), H, A2, normal)


def nearest_node(curve: ProfileCurve, z: float, rho: float) -> int:
    """The node of ``curve`` nearest the meridian point (z, rho).

    That is the lowest index among nodes within a relative 1e-6 of the minimum
    squared distance, so roundoff chooses neither between mirror nodes nor among
    the nodes of a round sphere about its centre.
    """
    d2 = (curve.z - z) ** 2 + (curve.r - rho) ** 2
    return int(np.argmax(d2 <= (1.0 + 1e-6) * d2.min()))


def max_curvature_node(A2: np.ndarray) -> int:
    """The max-|A| node: the lowest index among nodes within TIE_RTOL of the max |A|^2.

    Roundoff then does not choose between the mirror nodes (or the two poles)
    of a symmetric profile.
    """
    return int(np.argmax(A2 >= (1.0 - TIE_RTOL) * A2.max()))


def zero_roundoff(z: float, h: float) -> float:
    """z, or 0.0 when |z| is below a millionth of the node spacing h there.

    A profile symmetric about z = 0 puts its singular point at z = 0 up to
    roundoff, which would otherwise be reported with an arbitrary sign.
    """
    return 0.0 if abs(z) < 1e-6 * h else z


# ---------------------------------------------------------------------------
# resampling
# ---------------------------------------------------------------------------

def _node_positions(s, num, density, endpoint):
    """Arclengths of ``num`` nodes at equal steps of the cumulative sum of density * ds.

    Without ``density`` the steps are equal in arclength.  ``density`` holds one
    value per segment of ``s``, so the cumulative sum is piecewise linear in s.
    """
    if density is None:
        return np.linspace(0.0, s[-1], num, endpoint=endpoint)
    phi = np.concatenate(([0.0], np.cumsum(np.diff(s) * density)))
    return np.interp(np.linspace(0.0, phi[-1], num, endpoint=endpoint), phi, s)


def _solve_tridiagonal(lower, diag, upper, rhs, cyclic=False):
    """Solve lower[i] x[i-1] + diag[i] x[i] + upper[i] x[i+1] = rhs[i].

    Without ``cyclic`` lower[0] and upper[-1] are ignored.  With it they couple
    the last and first unknowns (indices mod N), and the system is reduced to a
    tridiagonal one by Sherman-Morrison.  A singular system or a non-finite
    solution raises NumericalBlowupError.
    """
    if cyclic:
        gamma = -diag[0]
        diag = diag.copy()
        diag[0] -= gamma
        diag[-1] -= lower[0] * upper[-1] / gamma
        u = np.zeros_like(rhs)
        u[0] = gamma
        u[-1] = upper[-1]
        rhs = np.column_stack((rhs, u))
    # LAPACK gtsv; its inputs are copied, since callers reuse lower/upper
    *_, x, info = dgtsv(lower[1:], diag, upper[:-1], rhs)
    if info > 0:
        raise NumericalBlowupError(f"singular tridiagonal system: zero pivot in row {info}")
    if cyclic:
        y, w = x.T
        v_last = lower[0] / gamma
        x = y - (y[0] + v_last * y[-1]) / (1.0 + w[0] + v_last * w[-1]) * w
    if not np.isfinite(x).all():
        raise NumericalBlowupError("non-finite solution of a tridiagonal system")
    return x


def cubic_spline(x, y, x_new, periodic=False):
    """Values at ``x_new`` of the cubic spline through (x, y), not-a-knot or periodic ends.

    Periodic ends need y[-1] == y[0]; the knot slopes solve one (cyclic) tridiagonal
    system.  Knots that are not finite and strictly increasing raise ValueError.
    """
    h = np.diff(x)
    if not (np.all(np.isfinite(x)) and np.all(h > 0.0)):
        raise ValueError("spline knots must be finite and strictly increasing")
    slope = np.diff(y) / h
    lower, diag, upper, rhs = np.empty((4, x.size))
    lower[1:-1] = h[1:]
    diag[1:-1] = 2.0 * (h[:-1] + h[1:])
    upper[1:-1] = h[:-1]
    rhs[1:-1] = 3.0 * (h[1:] * slope[:-1] + h[:-1] * slope[1:])
    if periodic:  # slope m[-1] = m[0], so row 0 wraps to the knot before the last
        lower[0], diag[0], upper[0] = h[0], 2.0 * (h[-1] + h[0]), h[-1]
        rhs[0] = 3.0 * (h[0] * slope[-1] + h[-1] * slope[0])
        m = _solve_tridiagonal(lower[:-1], diag[:-1], upper[:-1], rhs[:-1], cyclic=True)
        m = np.append(m, m[0])
    else:  # not-a-knot: the third derivative is continuous at x[1] and x[-2]
        d0, d1 = x[2] - x[0], x[-1] - x[-3]
        diag[0], upper[0] = h[1], d0
        rhs[0] = ((h[0] + 2.0 * d0) * h[1] * slope[0] + h[0] ** 2 * slope[1]) / d0
        lower[-1], diag[-1] = d1, h[-2]
        rhs[-1] = (h[-1] ** 2 * slope[-2] + (2.0 * d1 + h[-1]) * h[-2] * slope[-1]) / d1
        m = _solve_tridiagonal(lower, diag, upper, rhs)
    i = np.clip(np.searchsorted(x, x_new, side="right") - 1, 0, x.size - 2)
    t = x_new - x[i]
    c = (m[:-1] + m[1:] - 2.0 * slope) / h
    return ((c[i] / h[i] * t + (slope[i] - m[i]) / h[i] - c[i]) * t + m[i]) * t + y[i]


def resample_arclength(curve: ProfileCurve, num: Optional[int] = None,
                       density: Optional[np.ndarray] = None) -> ProfileCurve:
    """Redistribute nodes in arclength with cubic-spline interpolation.

    Nodes are uniform in arclength unless ``density`` (nodes per unit length on
    each segment of ``curve.spacings()``) grades them.  Node count is preserved
    unless ``num`` requests refinement.  Shape is preserved to O(h^4) in
    Hausdorff distance.
    """
    if curve.is_self_intersecting():
        raise TopologyError("self-intersecting generating curve")
    if num is None:
        num = curve.num_nodes
    if curve.topology == CLOSED:
        s = curve.arclength
        s_new = _node_positions(s, num, density, True)
        z_new = cubic_spline(s, curve.z, s_new)
        r_new = cubic_spline(s, curve.r, s_new)
        r_new[[0, -1]] = 0.0
        r_new[1:-1] = np.maximum(r_new[1:-1], 1e-300)
        return ProfileCurve(z_new, r_new, curve.n, CLOSED)
    # periodic: close the loop with a z-shift of one period, spline periodically
    z = np.concatenate((curve.z, [curve.z[0] + curve.period]))
    r = np.concatenate((curve.r, [curve.r[0]]))
    ds = np.hypot(np.diff(z), np.diff(r))
    s = np.concatenate(([0.0], np.cumsum(ds)))
    total = s[-1]
    zeta = z - curve.period * s / total  # periodic residual of z
    zeta[-1] = zeta[0]
    s_new = _node_positions(s, num, density, False)
    z_new = cubic_spline(s, zeta, s_new, periodic=True) + curve.period * s_new / total
    r_new = cubic_spline(s, r, s_new, periodic=True)
    return ProfileCurve(z_new, r_new, curve.n, PERIODIC, curve.period)
