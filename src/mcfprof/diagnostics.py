"""Quantitative flow diagnostics on trajectories and snapshots.

Inscribed radius / noncollapsing ratio, curvature pinching envelope, local
Harnack ratio over parabolic cubes, |A|^2/H^2 monotone-max check, residual of
the mean-curvature evolution equation, convexity of rescaled snapshots, and
the sqrt(tau) distance-scaling law at an estimated singular point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.spatial import cKDTree

from .errors import (DomainError, InsufficientDataError, TopologyError,
                     WindowError)
from .flow import Trajectory, _step_operator
from .geometry import CLOSED, PERIODIC, FlowSnapshot, ProfileCurve


@dataclass
class NoncollapseRecord:
    """Per-snapshot noncollapsing summary: kappa_min = min r_node * H_node."""

    t: float
    kappa_min: float
    argmin_node: int
    r_field: np.ndarray


@dataclass
class PinchingRecord:
    """Per-snapshot (H, lambda_1) node samples and the worst lambda_1/H ratio."""

    t: float
    samples: np.ndarray  # shape (N, 2): columns H, lambda_1
    worst_ratio: float


@dataclass
class HarnackRecord:
    """sup/inf of H over the parabolic cube of scale R/H(p) below a point p."""

    p: tuple  # (z, rho, t)
    R: float
    sup_H: float
    inf_H: float
    delta_achieved: float


# ---------------------------------------------------------------------------
# inscribed radius and noncollapsing
# ---------------------------------------------------------------------------

def _surface_tree(curve: ProfileCurve) -> cKDTree:
    pts = np.column_stack((curve.z, curve.r))
    if curve.topology == PERIODIC:
        left = pts + np.array([-curve.period, 0.0])
        right = pts + np.array([curve.period, 0.0])
        pts = np.vstack((left, pts, right))
    # a query visits a whole contact arc of equidistant nodes: scan it in big leaves
    return cKDTree(pts, leafsize=64)


def _inscribed_radii(snapshot: FlowSnapshot, nodes=None) -> np.ndarray:
    """Tangent-constrained inscribed radius at the given nodes (all by default).

    r(x) = sup{rho : the ball of radius rho centered at x + rho*nu(x) stays
    inside the enclosed region}, found by bisection over rho in [0, diam] to
    width tol = h/10, h the node's ``ProfileCurve.node_spacing`` (so a graded
    mesh is resolved at its local spacing).  The inside test at rho is "every
    node is at distance >= rho - tol from the center", with centers taken as
    meridian points (z_c, r_c) at ambient radial coordinate |r_c|, so a
    center that crosses the axis is measured correctly.

    The test has a closed form (Andrews' two-point function
    k(x, y) = 2<y - x, nu>/|y - x|^2 with tol folded in): a point y -- a node,
    its axis mirror (z, -r) or a periodic copy -- with a = <y - x, nu> > tol
    fails it exactly when rho > g(y) = (|y - x|^2 - tol^2) / (2 (a - tol)),
    and no other point ever fails it.  So the test holds iff
    rho <= rho_max = min_y g(y).  rho_max is found by following violators:
    start from min(diam, g(mirror of x)), query the nearest node to the
    center at that radius and, while it violates with a smaller g, move to
    its g.  The bisection is then replayed with the test decided by
    mid <= rho_max; only where mid lies within 1e-9*diam of rho_max, where
    rounding could decide either way, is the nearest-node query made, so the
    result equals that of querying at every step.
    """
    curve = snapshot.surface
    if curve.is_self_intersecting():
        raise TopologyError("inscribed radius needs an embedded surface")
    if nodes is None:
        nodes = np.arange(curve.num_nodes)
    nodes = np.atleast_1d(np.asarray(nodes, dtype=int))
    tree = _surface_tree(curve)
    normal = snapshot.curvature.normal[nodes]
    pts = np.column_stack((curve.z[nodes], curve.r[nodes]))
    tol = curve.node_spacing()[nodes] / 10.0
    if curve.topology == CLOSED:
        diam = float(np.hypot(curve.z.max() - curve.z.min(), 2.0 * curve.r.max()))
    else:
        diam = float(np.hypot(curve.period, 2.0 * curve.r.max()))

    def nearest(idx, rho):
        """Distance and meridian point (mirrored when r_c < 0) nearest each center."""
        centers = pts[idx] + rho[:, None] * normal[idx]
        d, j = tree.query(np.column_stack((centers[:, 0], np.abs(centers[:, 1]))))
        y = tree.data[j]
        y[:, 1] = np.copysign(y[:, 1], centers[:, 1])
        return d, y

    def bound(idx, y):
        """g(y) for each node of idx against its point y; inf where a <= tol."""
        dy = y - pts[idx]
        a = np.einsum("ij,ij->i", dy, normal[idx])
        eps = tol[idx]
        with np.errstate(divide="ignore", invalid="ignore"):
            g = (np.einsum("ij,ij->i", dy, dy) - eps * eps) / (2.0 * (a - eps))
        return np.where(a > eps, g, np.inf)

    every = np.arange(nodes.size)
    rho_max = np.minimum(diam, bound(every, pts * np.array([1.0, -1.0])))
    active = every
    while active.size:
        rho = rho_max[active]
        d, y = nearest(active, rho)
        g = bound(active, y)
        shrink = (d < rho - tol[active]) & (g < rho)
        active = active[shrink]
        rho_max[active] = g[shrink]

    lo = np.zeros(nodes.size)
    hi = np.full(nodes.size, diam)
    for _ in range(64):
        if np.all(hi - lo <= tol):
            break
        mid = 0.5 * (lo + hi)
        inside = mid <= rho_max
        close = np.flatnonzero(np.abs(mid - rho_max) <= 1e-9 * diam)
        if close.size:
            d, _ = nearest(close, mid[close])
            inside[close] = d >= mid[close] - tol[close]
        lo[inside] = mid[inside]
        hi[~inside] = mid[~inside]
    return 0.5 * (lo + hi)


def inscribed_radius(snapshot: FlowSnapshot, node: int) -> float:
    """Inscribed-ball radius at one node (tangent ball along the inward normal)."""
    return float(_inscribed_radii(snapshot, [node])[0])


def noncollapsing_ratio(snapshot: FlowSnapshot) -> NoncollapseRecord:
    """Per-node r*H with the minimum and its node; requires min H > 0.

    The record is computed once per snapshot and cached on it; its
    ``r_field`` is read-only because every caller shares it.
    """
    if snapshot._noncollapse is None:
        curv = snapshot.curvature
        if float(np.min(curv.H)) <= 0.0:
            raise DomainError("noncollapsing ratio requires H > 0 at every node")
        r_field = _inscribed_radii(snapshot)
        r_field.flags.writeable = False
        kappa = r_field * curv.H
        j = int(np.argmin(kappa))
        snapshot._noncollapse = NoncollapseRecord(t=snapshot.t, kappa_min=float(kappa[j]),
                                                  argmin_node=j, r_field=r_field)
    return snapshot._noncollapse


def kappa_series(traj: Trajectory):
    """noncollapsing_ratio over every snapshot of a mean-convex trajectory."""
    return [noncollapsing_ratio(s) for s in traj.snapshots]


# ---------------------------------------------------------------------------
# pinching profile
# ---------------------------------------------------------------------------

def pinching_profile(traj: Trajectory, decades: int = 4):
    """(records, envelope) for the pinching inequality lambda_1 >= -phi(H).

    The envelope bins pooled (H, lambda_1) samples by decades of H downward
    from the overall max and reports phi_hat = max(0, -min lambda_1) per bin
    together with the ratio phi_hat / H at the bin's geometric midpoint; the
    ratio should trend down with H on a mean-convex flow approaching a
    singularity.
    """
    records = []
    H_all, lam1_all = [], []
    for snap in traj.snapshots:
        c = snap.curvature
        H = c.H
        lam1 = c.lam[:, 0]
        if float(H.min()) <= 0.0:
            raise DomainError("pinching profile requires a mean-convex trajectory")
        records.append(PinchingRecord(t=snap.t,
                                      samples=np.column_stack((H, lam1)),
                                      worst_ratio=float(np.min(lam1 / H))))
        H_all.append(H)
        lam1_all.append(lam1)
    H_all = np.concatenate(H_all)
    lam1_all = np.concatenate(lam1_all)
    Hmax = float(H_all.max())
    envelope = []
    for d in range(decades):
        hi = Hmax / 10.0**d
        lo = hi / 10.0
        m = (H_all >= lo) & (H_all <= hi)
        if not np.any(m):
            continue
        phi = max(0.0, -float(np.min(lam1_all[m])))
        envelope.append({"H_lo": lo, "H_hi": hi, "phi_hat": phi,
                         "ratio": phi / np.sqrt(lo * hi), "count": int(m.sum())})
    return records, envelope


# ---------------------------------------------------------------------------
# local Harnack
# ---------------------------------------------------------------------------

def harnack_check(traj: Trajectory, p, R: float) -> HarnackRecord:
    """sup/inf of H over the parabolic cube Q_{R/H(p)}(p) of recorded snapshots.

    p = (z, rho, t) is snapped to the nearest node of the nearest snapshot.
    The cube is the set of nodes within ambient distance R/H(p) of p taken
    over snapshots with t in (t_p - (R/H(p))^2, t_p].
    """
    z_p, rho_p, t_p = p
    times = traj.times
    k = int(np.argmin(np.abs(times - t_p)))
    snap_p = traj.snapshots[k]
    curve_p = snap_p.surface
    j = int(np.argmin((curve_p.z - z_p) ** 2 + (curve_p.r - rho_p) ** 2))
    z_p, rho_p, t_p = float(curve_p.z[j]), float(curve_p.r[j]), snap_p.t
    H_p = float(snap_p.curvature.H[j])
    if H_p <= 0.0:
        raise DomainError("Harnack check requires H(p) > 0")
    rad = R / H_p
    t_lo = t_p - rad * rad
    earliest = traj.step_times[0] if traj.step_times.size else times[0]
    if t_lo < earliest - 1e-12:
        raise WindowError(
            f"parabolic cube reaches t = {t_lo:.6g}, before the recorded window start {earliest:.6g}")
    sup_H = -np.inf
    inf_H = np.inf
    for snap in traj.snapshots:
        if not (t_lo < snap.t <= t_p + 1e-15):
            continue
        curve = snap.surface
        d = np.hypot(curve.z - z_p, curve.r - rho_p)
        if curve.topology == PERIODIC:
            for shift in (-curve.period, curve.period):
                d = np.minimum(d, np.hypot(curve.z + shift - z_p, curve.r - rho_p))
        m = d <= rad
        if not np.any(m):
            continue
        H = snap.curvature.H[m]
        sup_H = max(sup_H, float(H.max()))
        inf_H = min(inf_H, float(H.min()))
    if not np.isfinite(sup_H):
        raise WindowError("no snapshot nodes inside the parabolic cube")
    delta = min(H_p / sup_H, inf_H / H_p)
    return HarnackRecord(p=(z_p, rho_p, t_p), R=R, sup_H=sup_H, inf_H=inf_H,
                         delta_achieved=delta)


# ---------------------------------------------------------------------------
# |A|^2 / H^2 monotone max
# ---------------------------------------------------------------------------

def ratio_A2_H2(traj: Trajectory, tol_rate: float = 10.0) -> dict:
    """Per-snapshot max of |A|^2/H^2; checks the max is nonincreasing in time.

    The allowed slack between consecutive snapshots is tol_rate * h^2 per unit
    time (discretization error of the maximum principle), h the
    ``node_spacing`` of the later snapshot at its maximizing node.
    """
    times, ratios, hs = [], [], []
    for snap in traj.snapshots:
        c = snap.curvature
        if float(np.min(c.H)) <= 0.0:
            raise DomainError("|A|^2/H^2 check requires H > 0 throughout")
        ratio = c.A2 / c.H ** 2
        k = int(np.argmax(ratio))
        ratios.append(float(ratio[k]))
        times.append(snap.t)
        hs.append(float(snap.surface.node_spacing()[k]))
    worst = 0.0
    ok = True
    for k in range(1, len(ratios)):
        slack = tol_rate * hs[k] ** 2 * max(times[k] - times[k - 1], 0.0)
        excess = ratios[k] - ratios[k - 1] - slack
        worst = max(worst, excess)
        if excess > 0.0:
            ok = False
    return {"t": np.array(times), "max_ratio": np.array(ratios),
            "nonincreasing": ok, "worst_excess": worst}


# ---------------------------------------------------------------------------
# H-evolution residual
# ---------------------------------------------------------------------------

def _interp_H_at_projection(curve: ProfileCurve, H: np.ndarray, z0, r0):
    """H at the nearest-point projection of (z0, r0) onto the curve.

    Nearest node, parabolic localization of the foot point in arclength, and
    quadratic interpolation of H there.  Returns (value, ok) arrays.
    """
    s = curve.arclength
    # nearest node from a KD-tree: memory stays linear in the node counts
    _, j = cKDTree(np.column_stack((curve.z, curve.r))).query(np.column_stack((z0, r0)))
    ok = (j > 0) & (j < curve.num_nodes - 1)
    jj = np.clip(j, 1, curve.num_nodes - 2)
    dm = (curve.z[jj - 1] - z0) ** 2 + (curve.r[jj - 1] - r0) ** 2
    d0 = (curve.z[jj] - z0) ** 2 + (curve.r[jj] - r0) ** 2
    dp = (curve.z[jj + 1] - z0) ** 2 + (curve.r[jj + 1] - r0) ** 2
    sm, s0, sp = s[jj - 1], s[jj], s[jj + 1]
    # vertex of the parabola through (s, d^2)
    denom = (dm - d0) * (sp - s0) - (dp - d0) * (sm - s0)
    num = (dm - d0) * (sp**2 - s0**2) - (dp - d0) * (sm**2 - s0**2)
    with np.errstate(divide="ignore", invalid="ignore"):
        s_star = 0.5 * num / denom
    bad = ~np.isfinite(s_star) | (s_star < sm) | (s_star > sp)
    s_star = np.where(bad, s0, s_star)
    ok &= ~bad
    # quadratic Lagrange interpolation of H at s_star
    Hm, H0, Hp = H[jj - 1], H[jj], H[jj + 1]
    val = (Hm * (s_star - s0) * (s_star - sp) / ((sm - s0) * (sm - sp))
           + H0 * (s_star - sm) * (s_star - sp) / ((s0 - sm) * (s0 - sp))
           + Hp * (s_star - sm) * (s_star - s0) / ((sp - sm) * (sp - s0)))
    return val, ok


def verify_H_evolution(traj: Trajectory, index: Optional[int] = None,
                       samples: Optional[Sequence[int]] = None) -> dict:
    """Residual of dH/dt = Lap H + H |A|^2 at the middle of a snapshot triple.

    ``index`` picks the middle snapshot (default: the midpoint of the
    trajectory).  Node correspondence across the triple is by nearest-point
    projection of the middle nodes onto the neighbors; nodes where the
    projection is ambiguous (or within a few spacings of a pole, where the
    rotational term degenerates) are skipped and flagged.
    """
    if len(traj.snapshots) < 3:
        raise InsufficientDataError("need at least three recorded snapshots")
    if index is None:
        index = len(traj.snapshots) // 2
    index = max(1, min(index, len(traj.snapshots) - 2))
    prev_s, mid_s, next_s = traj.snapshots[index - 1:index + 2]
    curve = mid_s.surface
    c = mid_s.curvature
    H = c.H
    # Lap H from the integrator's frozen Δ = ∂ss + (n-1)(r_s/r)∂s at the middle
    # curve; the pole rows of a closed profile come out non-finite or masked below
    closed = curve.topology == CLOSED
    op = _step_operator(curve.z, curve.r, curve.n, closed, curve.period)
    lap = op.lower * np.roll(H, 1) + op.diag * H + op.upper * np.roll(H, -1)

    Hm, ok_m = _interp_H_at_projection(prev_s.surface, prev_s.curvature.H,
                                       curve.z, curve.r)
    Hp, ok_p = _interp_H_at_projection(next_s.surface, next_s.curvature.H,
                                       curve.z, curve.r)
    dm = mid_s.t - prev_s.t
    dp = next_s.t - mid_s.t
    dHdt = (dm**2 * Hp + (dp**2 - dm**2) * H - dp**2 * Hm) / (dm * dp * (dm + dp))

    valid = ok_m & ok_p & np.isfinite(lap)
    if closed:
        # a pole margin of 4 spacings, in the coarser of the local and the mean spacing
        ds = curve.spacings()
        local = np.maximum(np.concatenate(([ds[0]], ds)), np.concatenate((ds, [ds[-1]])))
        valid &= curve.r > 4.0 * np.maximum(local, ds.mean())
    if samples is not None:
        pick = np.zeros(curve.num_nodes, dtype=bool)
        pick[np.asarray(samples, dtype=int)] = True
        valid &= pick
    if not np.any(valid):
        raise InsufficientDataError("no unambiguous sample nodes for the residual")
    residual = dHdt - (lap + H * c.A2)
    return {"residual": residual, "valid": valid,
            "max_residual": float(np.max(np.abs(residual[valid]))),
            "t": mid_s.t, "skipped": int(np.count_nonzero(~valid))}


# ---------------------------------------------------------------------------
# convexity and distance scaling
# ---------------------------------------------------------------------------

def convexity_check(snapshot: FlowSnapshot, tol: float):
    """(passed, min lambda_1) over all nodes; pass iff min >= -tol."""
    min_lam1 = float(np.min(snapshot.curvature.lam[:, 0]))
    return min_lam1 >= -tol, min_lam1


def singular_distance_scaling(traj: Trajectory, tau_max: Optional[float] = None,
                              num: int = 14, factor: float = 2.0) -> dict:
    """Fit of r_tau = dist(singular point, flow at T - tau) against sqrt(tau).

    Uses a geometric tau ladder tau_j = tau_max * factor^(-j) mapped to the
    nearest recorded snapshots; returns the log-log slope and the ratio band
    r_tau / sqrt(tau).
    """
    if traj.singular_estimate is None:
        raise InsufficientDataError("trajectory has no singular-point estimate")
    est = traj.singular_estimate
    times = traj.times
    T = est.T
    if tau_max is None:
        later = times[times > times[0]]
        tau_max = 0.5 * float(T - later[0]) if later.size else 0.1 * T
    taus, rtaus = [], []
    seen = set()
    for j in range(num):
        tau = tau_max * factor**(-j)
        k = int(np.argmin(np.abs(times - (T - tau))))
        if k in seen:
            continue
        snap = traj.snapshots[k]
        tau_actual = T - snap.t
        if tau_actual <= 0.0:
            continue
        seen.add(k)
        curve = snap.surface
        d = np.hypot(curve.z - est.z, curve.r - abs(est.rho))
        taus.append(tau_actual)
        rtaus.append(float(d.min()))
    if len(taus) < 4:
        raise InsufficientDataError(f"only {len(taus)} usable ladder points (need 4)")
    taus = np.array(taus)
    rtaus = np.array(rtaus)
    if np.any(rtaus <= 0.0):
        raise InsufficientDataError(
            f"singular-point estimate lies on the flow at tau = {taus[rtaus <= 0.0].max():.6g}")
    order = np.argsort(taus)
    taus, rtaus = taus[order], rtaus[order]
    slope, intercept = np.polyfit(np.log(taus), np.log(rtaus), 1)
    return {"tau": taus, "r_tau": rtaus, "slope": float(slope),
            "intercept": float(intercept), "ratio": rtaus / np.sqrt(taus)}
