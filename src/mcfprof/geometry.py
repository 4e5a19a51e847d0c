"""Discrete hypersurfaces of revolution, with their curvature operator.

``ProfileCurve`` (arclength-sampled generating curve of a rotationally
symmetric hypersurface in R^(n+1)) is the only surface that is flowed or
analyzed.  ``GraphPatch`` (a height function on a uniform grid, n in {1, 2})
only carries the translator models to their residual check.  Profiles have one
derivative kernel, ``profile_derivatives`` (3-point stencils on chord
segments), and one curvature formula, ``principal_curvatures``, which
``curvature_axisymmetric`` and the integrator's step operator share.  The sign
convention is the inward normal with H > 0 on round spheres.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import DegenerateSurfaceError, ResolutionError, TopologyError

CLOSED = "closed-through-axis"
PERIODIC = "periodic-in-z"
# relative |A|^2 gap below which max-curvature nodes count as tied
TIE_RTOL = 1e-9


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

    def is_self_intersecting(self) -> bool:
        try:
            from shapely.geometry import LineString
        except Exception:  # pragma: no cover
            return False
        return not LineString(np.column_stack((self.z, self.r))).is_simple

    def copy(self) -> "ProfileCurve":
        return ProfileCurve(self.z.copy(), self.r.copy(), self.n, self.topology, self.period)


@dataclass
class GraphPatch:
    """Height function u over a uniform grid of spacing h; n = u.ndim in {1, 2}."""

    u: np.ndarray
    h: float

    def __post_init__(self):
        self.u = np.ascontiguousarray(self.u, dtype=float)
        if self.u.ndim not in (1, 2):
            raise ValueError("GraphPatch supports n in {1, 2}")
        if self.h <= 0:
            raise ValueError("grid spacing must be positive")

    @property
    def n(self) -> int:
        return self.u.ndim

    def validate(self):
        if not np.all(np.isfinite(self.u)):
            raise DegenerateSurfaceError("non-finite height values")
        if min(self.u.shape) < 8:
            raise ResolutionError("need at least 8 grid nodes per axis")


@dataclass
class CurvatureField:
    """Per-node principal curvatures and derived fields.

    ``lam`` has shape (N, n) with rows sorted ascending; ``H`` is defined as
    the row sum of ``lam`` so the identity H = sum(lambda_i) is exact.
    """

    lam: np.ndarray
    H: np.ndarray
    A2: np.ndarray
    normal: np.ndarray
    lam_axial: Optional[np.ndarray] = None
    lam_rot: Optional[np.ndarray] = None


@dataclass
class FlowSnapshot:
    """A surface at one instant, with lazily computed cached curvature.

    ``_noncollapse`` caches the ``diagnostics.NoncollapseRecord`` that
    ``noncollapsing_ratio`` computes, as ``_curv`` caches the curvature.
    """

    surface: ProfileCurve
    t: float
    _curv: Optional[CurvatureField] = field(default=None, repr=False)
    _noncollapse: Optional[object] = field(default=None, repr=False)

    @property
    def curvature(self) -> CurvatureField:
        if self._curv is None:
            self._curv = curvature_axisymmetric(self.surface)
        return self._curv

    def copy(self) -> "FlowSnapshot":
        return FlowSnapshot(self.surface.copy(), self.t)


# ---------------------------------------------------------------------------
# the profile stencil and curvature operators
# ---------------------------------------------------------------------------

def profile_derivatives(z, r, closed, period):
    """Arclength derivatives of raw profile arrays on 3-point nonuniform stencils.

    Closed profiles are continued through the axis by reflection (z, -r);
    periodic ones wrap with a z-shift of one period.  Returns
    (z_s, r_s, z_ss, r_ss, seg), where seg holds the N + 1 chord lengths of the
    padded curve: node i sits between seg[i] and seg[i + 1].  The stencils are
    exact on quadratics and second order for quasi-uniform spacing.
    """
    if closed:
        zp = np.concatenate(([z[1]], z, [z[-2]]))
        rp = np.concatenate(([-r[1]], r, [-r[-2]]))
    else:
        zp = np.concatenate(([z[-1] - period], z, [z[0] + period]))
        rp = np.concatenate(([r[-1]], r, [r[0]]))
    seg = np.hypot(np.diff(zp), np.diff(rp))
    hm = seg[:-1]
    hp = seg[1:]
    denom = hm * hp * (hm + hp)
    hm2 = hm * hm
    hp2 = hp * hp
    z_s = (hm2 * zp[2:] + (hp2 - hm2) * zp[1:-1] - hp2 * zp[:-2]) / denom
    r_s = (hm2 * rp[2:] + (hp2 - hm2) * rp[1:-1] - hp2 * rp[:-2]) / denom
    z_ss = 2.0 * (hm * zp[2:] - (hm + hp) * zp[1:-1] + hp * zp[:-2]) / denom
    r_ss = 2.0 * (hm * rp[2:] - (hm + hp) * rp[1:-1] + hp * rp[:-2]) / denom
    return z_s, r_s, z_ss, r_ss, seg


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
    lam = np.empty((curve.num_nodes, curve.n))
    lam[:, 0] = lam_axial
    lam[:, 1:] = lam_rot[:, None]
    lam.sort(axis=1)
    H = lam.sum(axis=1)
    normal = np.column_stack((r_s / w, -z_s / w))
    return CurvatureField(lam, H, A2, normal, lam_axial=lam_axial, lam_rot=lam_rot)


def max_curvature_node(A2: np.ndarray) -> int:
    """The max-|A| node: the lowest index among nodes within TIE_RTOL of the max |A|^2.

    Roundoff then does not choose between the mirror nodes (or the two poles)
    of a symmetric profile.
    """
    return int(np.argmax(A2 >= (1.0 - TIE_RTOL) * A2.max()))


def _grad_1d(f, h):
    d = np.empty_like(f)
    d[1:-1] = (f[2:] - f[:-2]) / (2 * h)
    d[0] = (-3 * f[0] + 4 * f[1] - f[2]) / (2 * h)
    d[-1] = (3 * f[-1] - 4 * f[-2] + f[-3]) / (2 * h)
    return d


def _second_1d(f, h):
    d = np.empty_like(f)
    d[1:-1] = (f[2:] - 2 * f[1:-1] + f[:-2]) / h**2
    d[0] = (2 * f[0] - 5 * f[1] + 4 * f[2] - f[3]) / h**2
    d[-1] = (2 * f[-1] - 5 * f[-2] + 4 * f[-3] - f[-4]) / h**2
    return d


def graph_gradients(patch: GraphPatch):
    """First and second difference fields of u; axis 0 is x1."""
    u, h = patch.u, patch.h
    if patch.n == 1:
        return (_grad_1d(u, h),), ((_second_1d(u, h),),)
    ux = np.apply_along_axis(_grad_1d, 0, u, h)
    uy = np.apply_along_axis(_grad_1d, 1, u, h)
    uxx = np.apply_along_axis(_second_1d, 0, u, h)
    uyy = np.apply_along_axis(_second_1d, 1, u, h)
    uxy = np.apply_along_axis(_grad_1d, 1, ux, h)
    return (ux, uy), ((uxx, uxy), (uxy, uyy))


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
        sz = CubicSpline(s, curve.z)
        sr = CubicSpline(s, curve.r)
        s_new = _node_positions(s, num, density, True)
        z_new = sz(s_new)
        r_new = sr(s_new)
        r_new[0] = 0.0
        r_new[-1] = 0.0
        r_new[1:-1] = np.maximum(r_new[1:-1], 1e-300)
        return ProfileCurve(z_new, r_new, curve.n, CLOSED)
    # periodic: close the loop with a z-shift of one period, spline periodically
    z = np.concatenate((curve.z, [curve.z[0] + curve.period]))
    r = np.concatenate((curve.r, [curve.r[0]]))
    ds = np.hypot(np.diff(z), np.diff(r))
    s = np.concatenate(([0.0], np.cumsum(ds)))
    total = s[-1]
    lin = curve.period * s / total
    zeta = z - lin  # periodic residual of z
    zeta[-1] = zeta[0]
    sz = CubicSpline(s, zeta, bc_type="periodic")
    sr = CubicSpline(s, r, bc_type="periodic")
    s_new = _node_positions(s, num, density, False)
    z_new = sz(s_new) + curve.period * s_new / total
    r_new = sr(s_new)
    return ProfileCurve(z_new, r_new, curve.n, PERIODIC, curve.period)


# ---------------------------------------------------------------------------
# distances in the meridian plane
# ---------------------------------------------------------------------------

def meridian_point_distance(curve: ProfileCurve, z0: float, rho0: float) -> float:
    """Distance from the ambient point at (z0, cylindrical radius rho0) to the surface.

    For surfaces of revolution the nearest point lies on the aligned meridian,
    so the 3D distance reduces to the 2D distance in the (z, r) half-plane.
    A local parabolic refinement over the node index gives sub-h accuracy.
    """
    d2 = (curve.z - z0) ** 2 + (curve.r - abs(rho0)) ** 2
    if curve.topology == PERIODIC:
        for shift in (-curve.period, curve.period):
            d2 = np.minimum(d2, (curve.z + shift - z0) ** 2 + (curve.r - abs(rho0)) ** 2)
    i = int(np.argmin(d2))
    if 0 < i < d2.size - 1:
        dm, d0, dp = np.sqrt(d2[i - 1]), np.sqrt(d2[i]), np.sqrt(d2[i + 1])
        denom = dm - 2 * d0 + dp
        if denom > 0:
            delta = 0.5 * (dm - dp) / denom
            if abs(delta) <= 1.0:
                return float(d0 - 0.25 * (dm - dp) * delta)
    return float(np.sqrt(d2[i]))
