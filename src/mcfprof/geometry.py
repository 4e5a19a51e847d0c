"""Discrete hypersurfaces of revolution and graph patches, with curvature operators.

Two carriers are supported: ``ProfileCurve`` (arclength-sampled generating
curve of a rotationally symmetric hypersurface in R^(n+1)) and ``GraphPatch``
(uniform-grid scalar height function, n in {1, 2}).  Curvature is computed
with second-order centered finite differences; the sign convention is the
inward normal with H > 0 on round spheres.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import DegenerateSurfaceError, ResolutionError, TopologyError

CLOSED = "closed-through-axis"
PERIODIC = "periodic-in-z"


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
    """Height function u over a uniform grid; n = u.ndim in {1, 2}.

    ``orientation`` picks the normal: +1 for the upward normal e_{n+1}
    component positive (grim-reaper convention), -1 for downward (the inward
    normal of a cap like a hemisphere).
    """

    u: np.ndarray
    h: float
    x0: tuple = (0.0,)
    orientation: int = 1

    def __post_init__(self):
        self.u = np.ascontiguousarray(self.u, dtype=float)
        if self.u.ndim not in (1, 2):
            raise ValueError("GraphPatch supports n in {1, 2}")
        if self.h <= 0:
            raise ValueError("grid spacing must be positive")
        if len(self.x0) != self.u.ndim:
            self.x0 = tuple(self.x0) + (0.0,) * (self.u.ndim - len(self.x0))

    @property
    def n(self) -> int:
        return self.u.ndim

    def validate(self):
        if not np.all(np.isfinite(self.u)):
            raise DegenerateSurfaceError("non-finite height values")
        if min(self.u.shape) < 8:
            raise ResolutionError("need at least 8 grid nodes per axis")

    def axes(self):
        return tuple(self.x0[d] + self.h * np.arange(self.u.shape[d]) for d in range(self.u.ndim))

    def copy(self) -> "GraphPatch":
        return GraphPatch(self.u.copy(), self.h, self.x0, self.orientation)


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
    boundary: np.ndarray
    lam_axial: Optional[np.ndarray] = None
    lam_rot: Optional[np.ndarray] = None

    @property
    def interior(self) -> np.ndarray:
        return ~self.boundary


@dataclass
class FlowSnapshot:
    """A surface at one instant, with lazily computed cached curvature.

    ``_noncollapse`` caches the ``diagnostics.NoncollapseRecord`` that
    ``noncollapsing_ratio`` computes, as ``_curv`` caches the curvature.
    """

    surface: object  # ProfileCurve | GraphPatch
    t: float
    _curv: Optional[CurvatureField] = field(default=None, repr=False)
    _noncollapse: Optional[object] = field(default=None, repr=False)

    @property
    def curvature(self) -> CurvatureField:
        if self._curv is None:
            if isinstance(self.surface, ProfileCurve):
                self._curv = curvature_axisymmetric(self.surface)
            else:
                self._curv = curvature_graph(self.surface)
        return self._curv

    def copy(self) -> "FlowSnapshot":
        return FlowSnapshot(self.surface.copy(), self.t)


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

def _pad_profile(curve: ProfileCurve):
    """Ghost-extended (s, z, r) arrays for centered stencils at the ends.

    Closed caps use the mirror continuation through the axis (z, -r); periodic
    profiles wrap with a z-shift of one period.
    """
    s = curve.arclength
    z, r = curve.z, curve.r
    if curve.topology == CLOSED:
        zp = np.concatenate(([z[1]], z, [z[-2]]))
        rp = np.concatenate(([-r[1]], r, [-r[-2]]))
        sp = np.concatenate(([s[0] - (s[1] - s[0])], s, [s[-1] + (s[-1] - s[-2])]))
    else:
        wrap = np.hypot(z[0] + curve.period - z[-1], r[0] - r[-1])
        pre = np.hypot(z[-1] - curve.period - z[0], r[-1] - r[0])
        zp = np.concatenate(([z[-1] - curve.period], z, [z[0] + curve.period]))
        rp = np.concatenate(([r[-1]], r, [r[0]]))
        sp = np.concatenate(([s[0] - pre], s, [s[-1] + wrap]))
    return sp, zp, rp


def _d1_d2(sp, fp):
    """First and second derivative at interior nodes of a padded array.

    Standard 3-point nonuniform stencils: exact on quadratics, second order
    for quasi-uniform spacing.
    """
    hm = sp[1:-1] - sp[:-2]
    hp = sp[2:] - sp[1:-1]
    denom = hm * hp * (hm + hp)
    f0, f1, f2 = fp[:-2], fp[1:-1], fp[2:]
    d1 = (hm * hm * f2 + (hp * hp - hm * hm) * f1 - hp * hp * f0) / denom
    d2 = 2.0 * (hm * f2 - (hm + hp) * f1 + hp * f0) / denom
    return d1, d2


def profile_derivatives(curve: ProfileCurve):
    """(z_s, r_s, z_ss, r_ss) with respect to (chord) arclength at every node."""
    sp, zp, rp = _pad_profile(curve)
    z_s, z_ss = _d1_d2(sp, zp)
    r_s, r_ss = _d1_d2(sp, rp)
    return z_s, r_s, z_ss, r_ss


# ---------------------------------------------------------------------------
# curvature operators
# ---------------------------------------------------------------------------

def curvature_axisymmetric(curve: ProfileCurve) -> CurvatureField:
    """Principal curvatures of a surface of revolution.

    lambda_axial is the signed curvature of the generating curve with respect
    to the inward normal nu = (r_s, -z_s); lambda_rot = z_s / r carries
    multiplicity n-1.  At the poles of a closed profile the rotational
    curvature is evaluated by its smooth limit lambda_rot = lambda_axial.
    """
    if curve.num_nodes < 8:
        raise ResolutionError(f"need at least 8 nodes, got {curve.num_nodes}")
    if curve.topology == CLOSED:
        if np.any(curve.r[1:-1] <= 0.0):
            raise DegenerateSurfaceError("non-positive r at an interior node")
    elif np.any(curve.r <= 0.0):
        raise DegenerateSurfaceError("non-positive r at a node")

    z_s, r_s, z_ss, r_ss = profile_derivatives(curve)
    w = np.hypot(z_s, r_s)
    lam_axial = (z_ss * r_s - r_ss * z_s) / w**3
    with np.errstate(divide="ignore", invalid="ignore"):
        lam_rot = z_s / (curve.r * w)
    if curve.topology == CLOSED:
        lam_rot[0] = lam_axial[0]
        lam_rot[-1] = lam_axial[-1]

    n = curve.n
    lam = np.empty((curve.num_nodes, n))
    lam[:, 0] = lam_axial
    lam[:, 1:] = lam_rot[:, None]
    lam.sort(axis=1)
    H = lam.sum(axis=1)
    A2 = lam_axial**2 + (n - 1) * lam_rot**2
    normal = np.column_stack((r_s / w, -z_s / w))
    boundary = np.zeros(curve.num_nodes, dtype=bool)
    return CurvatureField(lam, H, A2, normal, boundary,
                          lam_axial=lam_axial, lam_rot=lam_rot)


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


def _boundary_mask(shape):
    mask = np.zeros(shape, dtype=bool)
    if len(shape) == 1:
        mask[0] = mask[-1] = True
    else:
        mask[0, :] = mask[-1, :] = True
        mask[:, 0] = mask[:, -1] = True
    return mask


def curvature_graph(patch: GraphPatch) -> CurvatureField:
    """Principal curvatures of a graph x_{n+1} = u(x').

    For n = 2 the lambdas are the eigenvalues of the shape operator
    g^{-1} h with g = I + Du Du^T and h_ij = orientation * u_ij / W; their sum
    equals the divergence-form mean curvature of the graph equation.
    Boundary nodes use one-sided stencils and are flagged.
    """
    patch.validate()
    sgn = float(patch.orientation)
    (grads, seconds) = graph_gradients(patch)
    N = patch.u.size
    if patch.n == 1:
        up = grads[0]
        upp = seconds[0][0]
        W = np.sqrt(1.0 + up**2)
        kappa = sgn * upp / W**3
        lam = kappa.reshape(-1, 1)
        normal = np.column_stack((-up.ravel(), np.ones(N))) / W.reshape(-1, 1)
        normal *= sgn
        boundary = _boundary_mask(patch.u.shape).ravel()
        H = lam.sum(axis=1)
        return CurvatureField(lam, H, lam.ravel() ** 2, normal, boundary)

    ux, uy = grads
    (uxx, uxy), (_, uyy) = seconds
    W2 = 1.0 + ux**2 + uy**2
    W = np.sqrt(W2)
    g11 = 1.0 + ux**2
    g22 = 1.0 + uy**2
    g12 = ux * uy
    h11 = sgn * uxx / W
    h12 = sgn * uxy / W
    h22 = sgn * uyy / W
    # det(h - lam g) = 0  ->  a lam^2 - b lam + c = 0
    a = W2  # det g
    b = g11 * h22 + g22 * h11 - 2.0 * g12 * h12
    c = h11 * h22 - h12**2
    disc = np.sqrt(np.maximum(b**2 - 4.0 * a * c, 0.0))
    lam1 = (b - disc) / (2.0 * a)
    lam2 = (b + disc) / (2.0 * a)
    lam = np.column_stack((lam1.ravel(), lam2.ravel()))
    H = lam.sum(axis=1)
    A2 = (lam**2).sum(axis=1)
    normal = np.column_stack((-ux.ravel(), -uy.ravel(), np.ones(N))) / W.reshape(-1, 1)
    normal *= sgn
    boundary = _boundary_mask(patch.u.shape).ravel()
    return CurvatureField(lam, H, A2, normal, boundary)


# ---------------------------------------------------------------------------
# resampling
# ---------------------------------------------------------------------------

def resample_arclength(curve: ProfileCurve, num: Optional[int] = None) -> ProfileCurve:
    """Redistribute nodes to uniform arclength with cubic-spline interpolation.

    Node count is preserved unless ``num`` requests refinement.  Shape is
    preserved to O(h^4) in Hausdorff distance.
    """
    if curve.is_self_intersecting():
        raise TopologyError("self-intersecting generating curve")
    if num is None:
        num = curve.num_nodes
    if curve.topology == CLOSED:
        s = curve.arclength
        sz = CubicSpline(s, curve.z)
        sr = CubicSpline(s, curve.r)
        s_new = np.linspace(0.0, s[-1], num)
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
    s_new = np.linspace(0.0, total, num, endpoint=False)
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
