"""Parabolic dilation, normalized blow-up sequences, and tangent-flow fitting.

The dilation (x, t) -> (a(x - x0), a^2(t - t0)) is applied to axisymmetric
snapshots in the axis-aligned frame: z' = a(z - z0), r' = a r, with the
blow-up origin tracked as the off-axis marker (z' = 0, rho = a rho0).  This
agrees with the literal spacetime map up to a rigid radial translation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import least_squares

from .errors import (DegenerateSurfaceError, DomainError, EmptyWindowError, FitFailureError,
                     InsufficientDataError, ResolutionError)
from .flow import Trajectory
from .geometry import FlowSnapshot, ProfileCurve, max_curvature_node


@dataclass
class DilationParams:
    """Scale a > 0 and spacetime center (z0, rho0, t0)."""

    a: float
    z0: float
    rho0: float
    t0: float

    def __post_init__(self):
        if self.a <= 0:
            raise ValueError("dilation scale must be positive")


@dataclass
class BlowupTerm:
    """One member of a blow-up sequence: the dilated snapshot at its center."""

    params: DilationParams
    center: FlowSnapshot  # the center's snapshot dilated by params, at rescaled time 0
    origin_rho: float  # off-axis position of the blow-up origin, = a * rho0
    H_origin: float  # recomputed rescaled mean curvature at the origin


@dataclass
class BlowupSequence:
    terms: list
    scales_increasing: bool


def parabolic_dilate(snapshot: FlowSnapshot, d: DilationParams) -> FlowSnapshot:
    """Apply the parabolic dilation to one snapshot.

    Curvature of the result is recomputed from the mapped geometry (it must
    agree with H/a, lambda_i/a by scale covariance of the operators).
    """
    t_new = d.a**2 * (snapshot.t - d.t0)
    surf = snapshot.surface
    z = d.a * (surf.z - d.z0)
    r = d.a * surf.r
    period = None if surf.period is None else d.a * surf.period
    if period == 0.0:
        raise DegenerateSurfaceError("the dilated period underflows to 0")
    return FlowSnapshot(ProfileCurve(z, r, surf.n, surf.topology, period), t_new)


def dilation_covariance_error(snapshot: FlowSnapshot, d: DilationParams) -> float:
    """Max relative deviation between recomputed and analytically scaled H."""
    scaled = parabolic_dilate(snapshot, d)
    H_re = scaled.curvature.H
    H_an = snapshot.curvature.H / d.a
    denom = np.maximum(np.abs(H_an), 1e-300)
    return float(np.max(np.abs(H_re - H_an) / denom))


def _nearest_node(curve: ProfileCurve, z: float, rho: float) -> int:
    d2 = (curve.z - z) ** 2 + (curve.r - rho) ** 2
    return int(np.argmin(d2))


def waist_node(snapshot: FlowSnapshot, z_near: Optional[float] = None) -> int:
    """Interior local minimum of r(s), nearest to z_near if given."""
    r = snapshot.surface.r
    z = snapshot.surface.z
    i = np.arange(1, r.size - 1)
    locmin = i[(r[i] < r[i - 1]) & (r[i] <= r[i + 1])]
    if locmin.size == 0:
        raise EmptyWindowError("profile has no interior waist")
    if z_near is None:
        return int(locmin[np.argmin(r[locmin])])
    return int(locmin[np.argmin(np.abs(z[locmin] - z_near))])


def select_blowup_points(traj: Trajectory, rule: str = "neck", count: int = 5):
    """Spacetime points on the flow for a normalized blow-up sequence.

    'neck': waist nodes (nearest the singular-point estimate) of the last
    ``count`` snapshots; 'max-curvature': their ``max_curvature_node``.
    """
    snaps = traj.snapshots[-count:]
    z_sing = traj.singular_estimate.z if traj.singular_estimate else None
    points = []
    for snap in snaps:
        if rule == "neck":
            j = waist_node(snap, z_sing)
        elif rule == "max-curvature":
            j = max_curvature_node(snap.curvature.A2)
        else:
            raise ValueError(f"unknown points rule {rule!r}")
        points.append((float(snap.surface.z[j]), float(snap.surface.r[j]), snap.t))
    return points


def normalized_blowup(traj: Trajectory, points: Sequence[tuple],
                      origin_H_tol: Optional[float] = None) -> BlowupSequence:
    """Blow-up sequence with a_k = H(x_k, t_k) at each requested spacetime point.

    Each point is snapped to the nearest node of the nearest recorded
    snapshot, at most 3h away; the rescaled mean curvature at the origin must
    come out 1 within discretization tolerance (5h by default).  h is the
    ``node_spacing`` at the snapped node.
    """
    times = traj.times
    terms = []
    for (z, rho, t) in points:
        k = int(np.argmin(np.abs(times - t)))
        snap = traj.snapshots[k]
        curve = snap.surface
        j = _nearest_node(curve, z, rho)
        h = curve.node_spacing()[j]
        snap_dist = float(np.hypot(curve.z[j] - z, curve.r[j] - rho))
        if snap_dist > 3.0 * h:
            raise EmptyWindowError(
                f"point ({z:.4g}, {rho:.4g}, t={t:.4g}) is {snap_dist:.3g} away from the flow")
        H = float(snap.curvature.H[j])
        if H <= 0.0:
            raise DomainError("normalized blow-up requires H > 0 at the center point")
        d = DilationParams(a=H, z0=float(curve.z[j]), rho0=float(curve.r[j]), t0=snap.t)
        center = parabolic_dilate(snap, d)
        j2 = _nearest_node(center.surface, 0.0, d.a * d.rho0)
        H_origin = float(center.curvature.H[j2])
        tol = origin_H_tol if origin_H_tol is not None else 5.0 * center.surface.node_spacing()[j2]
        if abs(H_origin - 1.0) > tol:
            raise ResolutionError(
                f"rescaled H at the origin is {H_origin:.6g}, outside 1 +- {tol:.3g}")
        terms.append(BlowupTerm(d, center, d.a * d.rho0, H_origin))
    scales = [t.params.a for t in terms]
    increasing = all(b > a for a, b in zip(scales, scales[1:]))
    return BlowupSequence(terms=terms, scales_increasing=increasing)


# ---------------------------------------------------------------------------
# model fitting
# ---------------------------------------------------------------------------

def _window_mask(curve: ProfileCurve, origin, window):
    if window is None:
        return np.ones(curve.num_nodes, dtype=bool)
    z0, rho0 = origin if origin is not None else (0.0, 0.0)
    mask = np.hypot(curve.z - z0, curve.r - rho0) <= window
    if not np.any(mask):
        raise EmptyWindowError("no surface nodes inside the fit window")
    return mask


def fit_model(snapshot: FlowSnapshot, family: str,
              origin=None, window: Optional[float] = None):
    """Least-squares fit of a model surface; returns (params, rms_residual).

    family in {'sphere', 'cylinder', 'plane'}.  For axisymmetric snapshots
    the cylinder axis is the symmetry axis and the sphere center lies on it;
    the plane family is the best meridian line (informational only).
    Residuals are RMS signed normal distances over the (optionally windowed)
    nodes.
    """
    curve = snapshot.surface
    mask = _window_mask(curve, origin, window)
    z, r = curve.z[mask], curve.r[mask]

    if family == "cylinder":
        R = float(np.mean(r))
        rms = float(np.sqrt(np.mean((r - R) ** 2)))
        return {"R": R, "m": curve.n - 1}, rms
    if family == "sphere":
        def residual(p):
            zc, R = p
            return np.hypot(z - zc, r) - R
        guess = np.array([float(np.mean(z)), float(np.mean(np.hypot(z - np.mean(z), r)))])
        sol = least_squares(residual, guess, max_nfev=200)
        rms = float(np.sqrt(np.mean(sol.fun**2)))
        params = {"zc": float(sol.x[0]), "R": float(sol.x[1])}
        if not sol.success:
            raise FitFailureError("sphere fit did not converge", best=(params, rms))
        return params, rms
    if family == "plane":
        # total least squares line through the windowed meridian nodes
        pts = np.column_stack((z, r))
        c = pts.mean(axis=0)
        _, _, vt = np.linalg.svd(pts - c, full_matrices=False)
        normal = vt[-1]
        d = (pts - c) @ normal
        rms = float(np.sqrt(np.mean(d**2)))
        return {"point": (float(c[0]), float(c[1])),
                "normal": (float(normal[0]), float(normal[1]))}, rms
    raise ValueError(f"unknown model family {family!r}")


def classify_tangent_flow(term: BlowupTerm, window: Optional[float] = None) -> dict:
    """Cylinder vs sphere vs plane residuals of one normalized blow-up term."""
    snap = term.center
    n = snap.surface.n
    if window is None:
        window = 2.0 * (n - 1)
    origin = (0.0, term.origin_rho)
    out = {}
    for family in ("cylinder", "sphere", "plane"):
        try:
            params, rms = fit_model(snap, family, origin=origin, window=window)
            out[family] = {"params": params, "rms": rms}
        except FitFailureError as exc:  # pragma: no cover
            params, rms = exc.best
            out[family] = {"params": params, "rms": rms, "converged": False}
    cyl_R = out["cylinder"]["params"]["R"]
    if cyl_R <= 0.0:
        raise EmptyWindowError("the fit window holds only nodes on the axis")
    out["cylinder"]["rms_over_R"] = out["cylinder"]["rms"] / cyl_R
    # a normalized blow-up has H = 1 at the origin, which rules the plane out;
    # the meridian-line fit is reported but not ranked
    ranked = sorted(("cylinder", "sphere"), key=lambda f: out[f]["rms"])
    out["best"] = ranked[0]
    out["window"] = window
    return out


# ---------------------------------------------------------------------------
# convergence of the sequence
# ---------------------------------------------------------------------------

def _window_distances(A: ProfileCurve, B: ProfileCurve, origin, window):
    """Sup over window nodes of A of the meridian distance to B.

    For coaxial surfaces of revolution the 3D point-to-surface distance
    equals the meridian-plane distance, and the windowed sup is attained at
    profile nodes, so no azimuthal sampling is needed.
    """
    z0, rho0 = origin
    mask = np.hypot(A.z - z0, A.r - rho0) <= window
    if not np.any(mask):
        raise EmptyWindowError("window contains no surface nodes")
    za, ra = A.z[mask], A.r[mask]
    d2 = (za[:, None] - B.z[None, :]) ** 2 + (ra[:, None] - B.r[None, :]) ** 2
    dmin = np.sqrt(d2.min(axis=1))
    jmin = d2.argmin(axis=1)
    # parabolic refinement over the node index of B
    ok = (jmin > 0) & (jmin < B.z.size - 1)
    j = jmin[ok]
    dm = np.sqrt(d2[ok, j - 1])
    d0 = dmin[ok]
    dp = np.sqrt(d2[ok, j + 1])
    denom = dm - 2 * d0 + dp
    refine = denom > 0
    delta = np.zeros_like(d0)
    delta[refine] = 0.5 * (dm[refine] - dp[refine]) / denom[refine]
    delta = np.clip(delta, -1.0, 1.0)
    d_ref = d0 - 0.25 * (dm - dp) * delta
    out = dmin.copy()
    out[ok] = np.minimum(d0, np.abs(d_ref))
    return float(out.max()), mask, jmin


def blowup_convergence_metric(seq: BlowupSequence, window_radius: float) -> dict:
    """C^0 (Hausdorff) and C^1 (normal angle) proximity of consecutive terms.

    Distances are measured between the rescaled-time-0 snapshots of
    consecutive terms, restricted to the ball of ``window_radius`` about the
    blow-up origin.  Reports whether the sequence is Cauchy (nonincreasing
    distances).
    """
    if len(seq.terms) < 3:
        raise InsufficientDataError("need at least 3 blow-up terms")
    dists, angles = [], []
    for ta, tb in zip(seq.terms[:-1], seq.terms[1:]):
        A, B = ta.center.surface, tb.center.surface
        origin_a = (0.0, ta.origin_rho)
        origin_b = (0.0, tb.origin_rho)
        dab, mask_a, near_a = _window_distances(A, B, origin_a, window_radius)
        dba, _, _ = _window_distances(B, A, origin_b, window_radius)
        dists.append(max(dab, dba))
        na = ta.center.curvature.normal[mask_a]
        nb = tb.center.curvature.normal[near_a]
        dots = np.clip(np.sum(na * nb, axis=1), -1.0, 1.0)
        angles.append(float(np.max(np.arccos(dots))))
    decreasing = all(b <= a * (1 + 1e-9) for a, b in zip(dists[:-1], dists[1:]))
    return {"hausdorff": dists, "normal_angle": angles, "cauchy": decreasing}
