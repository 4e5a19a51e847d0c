"""Parabolic dilation, normalized blow-up sequences, and tangent-flow models.

The tangent flow at a first singularity of a mean-convex surface of
revolution is a round cylinder S^(n-1) x R or a round sphere S^n.  A
normalized blow-up term has H = 1 at its origin, where those two have radius
n - 1 and n; the term is classified by whichever of the two fixed models it
matches with the lower rms.

The dilation (x, t) -> (a(x - x0), a^2(t - t0)) is applied to axisymmetric
snapshots in the axis-aligned frame: z' = a(z - z0), r' = a r, with the
blow-up origin tracked as the off-axis marker (z' = 0, rho = a rho0).  This
agrees with the literal spacetime map up to a rigid radial translation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DegenerateSurfaceError, DomainError, EmptyWindowError, ResolutionError
from .flow import Trajectory
from .geometry import (FlowSnapshot, ProfileCurve, max_curvature_node, nearest_node,
                       zero_roundoff)

FIT_WINDOW = 2.0  # radius of the rescaled ball about the blow-up origin that the fits see


@dataclass
class BlowupTerm:
    """One member of a blow-up sequence: the dilated snapshot at its center."""

    scale: float  # a = H at the center point
    center: FlowSnapshot  # the center's snapshot dilated by a, at rescaled time 0
    origin_rho: float  # off-axis position of the blow-up origin, = a * rho0
    H_origin: float  # recomputed rescaled mean curvature at the origin


def parabolic_dilate(snapshot: FlowSnapshot, a: float, z0: float, t0: float) -> FlowSnapshot:
    """Apply the parabolic dilation by a > 0 about (z0, t0) to one snapshot.

    Curvature of the result is recomputed from the mapped geometry (it must
    agree with H/a, lambda_i/a by scale covariance of the operators).
    """
    if a <= 0:
        raise ValueError("dilation scale must be positive")
    surf = snapshot.surface
    period = None if surf.period is None else a * surf.period
    if period == 0.0:
        raise DegenerateSurfaceError("the dilated period underflows to 0")
    return FlowSnapshot(ProfileCurve(a * (surf.z - z0), a * surf.r, surf.n, surf.topology,
                                     period), a**2 * (snapshot.t - t0))


def waist_node(snapshot: FlowSnapshot, z_near: Optional[float] = None) -> Optional[int]:
    """Interior local minimum of r(s), nearest to z_near if given; None if there is none."""
    r = snapshot.surface.r
    z = snapshot.surface.z
    i = np.arange(1, r.size - 1)
    locmin = i[(r[i] < r[i - 1]) & (r[i] <= r[i + 1])]
    if locmin.size == 0:
        return None
    if z_near is None:
        return int(locmin[np.argmin(r[locmin])])
    return int(locmin[np.argmin(np.abs(z[locmin] - z_near))])


def select_blowup_points(traj: Trajectory, rule: str, count: int):
    """Spacetime points on the flow for a normalized blow-up sequence.

    'neck': waist nodes (nearest the singular-point estimate) of the last
    ``count`` snapshots, or the ``max_curvature_node`` of a snapshot without a
    waist; 'max-curvature': their ``max_curvature_node``.  A z within roundoff
    of 0 is reported as 0.0 (``zero_roundoff``).
    """
    if rule not in ("neck", "max-curvature"):
        raise ValueError(f"unknown points rule {rule!r}")
    z_sing = traj.singular_estimate.z if traj.singular_estimate else None
    points = []
    for snap in traj.snapshots[-count:]:
        j = waist_node(snap, z_sing) if rule == "neck" else None
        if j is None:
            j = max_curvature_node(snap.curvature.A2)
        z = zero_roundoff(float(snap.surface.z[j]), snap.surface.node_spacing()[j])
        points.append((z, float(snap.surface.r[j]), snap.t))
    return points


def normalized_blowup(traj: Trajectory, points: Sequence[tuple]) -> list[BlowupTerm]:
    """Blow-up terms with a_k = H(x_k, t_k) at each requested spacetime point.

    Each point is snapped to the nearest node j of the nearest recorded
    snapshot, at most 3h away; the rescaled mean curvature at node j, which
    the dilation maps to the origin (0, a r_j), must come out 1 within
    discretization tolerance 5h.  h is the rescaled ``node_spacing`` at j.
    """
    terms = []
    for (z, rho, t) in points:
        snap = traj.nearest_snapshot(t)
        curve = snap.surface
        j = nearest_node(curve, z, rho)
        h = curve.node_spacing()[j]
        snap_dist = float(np.hypot(curve.z[j] - z, curve.r[j] - rho))
        if snap_dist > 3.0 * h:
            raise EmptyWindowError(
                f"point ({z:.4g}, {rho:.4g}, t={t:.4g}) is {snap_dist:.3g} away from the flow")
        a = float(snap.curvature.H[j])
        if a <= 0.0:
            raise DomainError("normalized blow-up requires H > 0 at the center point")
        center = parabolic_dilate(snap, a, float(curve.z[j]), snap.t)
        H_origin = float(center.curvature.H[j])
        tol = 5.0 * center.surface.node_spacing()[j]
        if abs(H_origin - 1.0) > tol:
            raise ResolutionError(
                f"rescaled H at the origin is {H_origin:.6g}, outside 1 +- {tol:.3g}")
        terms.append(BlowupTerm(a, center, a * float(curve.r[j]), H_origin))
    return terms


# ---------------------------------------------------------------------------
# tangent-flow models
# ---------------------------------------------------------------------------

def fit_model(snapshot: FlowSnapshot, family: str, origin, window: float) -> dict:
    """Score a normalized blow-up against a unit-H model; returns its report row {"params", "rms"}.

    A normalized blow-up has H = 1 at its origin, so the models have no free
    parameter.  'cylinder' is S^(n-1) x R of radius R = n - 1 about the axis;
    'sphere' is S^n of radius R = n, centred on the axis at zc = z_j + n nu_z(j),
    j the node nearest ``origin`` and nu the inner normal.  The rms is over the
    signed distances to the model of the nodes within ambient distance
    ``window`` of ``origin`` = (z0, rho0); ``window=np.inf`` takes the whole
    curve.  A window of fewer than 3 nodes raises EmptyWindowError.
    """
    curve = snapshot.surface
    z0, rho0 = origin
    mask = np.hypot(curve.z - z0, curve.r - rho0) <= window
    inside = int(np.count_nonzero(mask))
    if inside < 3:
        raise EmptyWindowError(f"the fit window holds {inside} of the 3 nodes a fit needs")
    z, r = curve.z[mask], curve.r[mask]
    n = curve.n

    if family == "cylinder":
        params = {"R": float(n - 1), "m": n - 1}
        dist = r - params["R"]
    elif family == "sphere":
        j = nearest_node(curve, z0, rho0)
        params = {"zc": float(curve.z[j] + n * snapshot.curvature.normal[j, 0]), "R": float(n)}
        dist = np.hypot(z - params["zc"], r) - params["R"]
    else:
        raise ValueError(f"unknown model family {family!r}")
    return {"params": params, "rms": float(np.sqrt(np.mean(dist ** 2)))}


def classify_tangent_flow(term: BlowupTerm, window: float = FIT_WINDOW) -> dict:
    """Cylinder vs sphere residuals of one normalized blow-up term; ``best`` has the lower rms."""
    snap = term.center
    origin = (0.0, term.origin_rho)
    out = {family: fit_model(snap, family, origin=origin, window=window)
           for family in ("cylinder", "sphere")}
    out["cylinder"]["rms_over_R"] = out["cylinder"]["rms"] / out["cylinder"]["params"]["R"]
    out["best"] = min(("cylinder", "sphere"), key=lambda f: out[f]["rms"])
    out["window"] = window
    return out
