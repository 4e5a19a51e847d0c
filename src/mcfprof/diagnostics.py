"""Quantitative flow diagnostics on trajectories and snapshots.

Per-snapshot scalar records, the noncollapsing constant kappa_min = min r*H
(a search for the minimizing pair of Andrews' two-point bound, with no
per-node inscribed radius, by a blocked numpy nearest-node search that the
H-evolution projection also uses), curvature pinching envelope, local Harnack ratio
over parabolic cubes, |A|^2/H^2 monotone-max check, residual of the
mean-curvature evolution equation, convexity of rescaled snapshots, and the
sqrt(tau) distance-scaling law.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (DomainError, InsufficientDataError, McfError,
                     TopologyError, WindowError)
from .flow import Trajectory, _euler_operator
from .geometry import (CLOSED, PERIODIC, FlowSnapshot, ProfileCurve, nearest_node,
                       profile_derivatives)
from .rescale import waist_node


@dataclass
class SnapshotRecord:
    """One snapshot's timeseries.csv row: each field but the last two is the column of its name.

    ``neck_radius`` is min r on a periodic profile, else r at the narrowest waist (nan
    without one); ``dt`` is the time since the previous record (0 for the first).
    H-normalized values are nan where H <= 0 at some node, ``kappa_min`` when not asked
    for; ``skipped`` maps the column of each value that failed to its McfError.
    ``spacing``: ``node_spacing`` at the max ratio node.
    """

    t: float
    max_H: float
    min_H: float
    max_A2: float
    neck_radius: float
    dt: float
    max_A2_over_H2: float = float("nan")
    kappa_min: float = float("nan")
    min_lambda1_over_H: float = float("nan")
    spacing: float = float("nan")
    skipped: dict = field(default_factory=dict)


def snapshot_records(snapshots: Sequence[FlowSnapshot],
                     noncollapse: bool) -> list[SnapshotRecord]:
    """One ``SnapshotRecord`` per snapshot; kappa only when ``noncollapse``.

    |A|^2/H^2 and lambda_1/H are defined only where H > 0 at every node.
    """
    records = []
    for snap in snapshots:
        c, r = snap.curvature, snap.surface.r
        H = c.H
        neck = int(np.argmin(r)) if snap.surface.topology == PERIODIC else waist_node(snap)
        rec = SnapshotRecord(t=snap.t, max_H=float(H.max()), min_H=float(H.min()),
                             max_A2=float(c.A2.max()),
                             neck_radius=float("nan") if neck is None else float(r[neck]),
                             dt=snap.t - records[-1].t if records else 0.0)
        if rec.min_H > 0.0:
            ratio = c.A2 / H ** 2
            k = int(np.argmax(ratio))
            rec.max_A2_over_H2 = float(ratio[k])
            rec.spacing = float(snap.surface.node_spacing()[k])
            rec.min_lambda1_over_H = float(np.min(c.lam1 / H))
        else:
            exc = DomainError(f"min H = {rec.min_H!r} <= 0")
            rec.skipped = {"max_A2_over_H2": exc, "min_lambda1_over_H": exc}
        if noncollapse:
            try:
                rec.kappa_min = noncollapsing_ratio(snap)
            except McfError as exc:
                rec.skipped["kappa_min"] = exc
        records.append(rec)
    return records


# ---------------------------------------------------------------------------
# inscribed radius and noncollapsing
# ---------------------------------------------------------------------------

# centres per block of the nearest-node search: one (B x 3) @ (3 x W) screen each
SEARCH_BLOCK = 64


def _nearest_within(pts: np.ndarray, centers: np.ndarray, reach: np.ndarray) -> np.ndarray:
    """Per centre, the index of the nearest point of ``pts`` strictly closer than its reach.

    -1 where no point is.  Distances are sqrt(dz*dz + dr*dr), a KD-tree's formula,
    so the choice and the strict test agree with a tree's query bit for bit.
    Points are sorted by z and centres taken in z order, ``SEARCH_BLOCK`` at a
    time; each block screens the points of its z-window with one matmul giving
    |y|^2 - 2 c.y.  The screen's rounding stays below ``margin``, so a row whose
    screened minimum is unique by twice the margin takes that point, and any
    other row is measured exactly over its own window.
    """
    order = np.argsort(pts[:, 0], kind="stable")
    yz, yr = pts[order, 0], pts[order, 1]
    y2 = yz * yz + yr * yr
    screen = np.vstack((-2.0 * yz, -2.0 * yr, y2))
    by_z = np.argsort(centers[:, 0], kind="stable")
    cz, cr = centers[by_z, 0], centers[by_z, 1]
    reach = np.maximum(reach[by_z], 0.0)
    # a point next in z bounds the search: no nearer point lies further in z;
    # the window is padded for the rounding of cz -/+ ub
    k = np.searchsorted(yz, cz).clip(0, len(yz) - 1)
    ub = np.minimum(np.hypot(cz - yz[k], cr - yr[k]), reach)
    ub += 1e-12 * (np.abs(cz) + ub)
    lo = np.searchsorted(yz, cz - ub, "left")
    hi = np.searchsorted(yz, cz + ub, "right")
    # the screened best point of each row, and the screened |c - y|^2 of the best two
    rows = np.column_stack((cz, cr, np.ones(len(cz))))
    best = np.zeros(len(cz), dtype=int)
    s1 = np.full(len(cz), np.inf)
    s2 = np.full(len(cz), np.inf)
    starts = np.arange(0, len(cz), SEARCH_BLOCK)
    for start, a, b in zip(starts, np.minimum.reduceat(lo, starts), np.maximum.reduceat(hi, starts)):
        if a >= b:
            continue
        block = slice(start, start + SEARCH_BLOCK)
        S = rows[block] @ screen[:, a:b]
        k1 = S.argmin(axis=1)
        at = np.arange(len(k1))
        s1[block] = S[at, k1]
        S[at, k1] = np.inf
        s2[block] = S.min(axis=1)
        best[block] = a + k1
    c2 = cz * cz + cr * cr
    # the screen and c2 round by at most ~8 eps (|c|^2 + |y|^2), the exact distance
    # squared by ~3 eps |c - y|^2 <= 6 eps (|c|^2 + |y|^2): 64 eps covers both
    margin = 64.0 * np.finfo(float).eps * (c2 + y2.max())
    s1 += c2
    found = s1 < reach * reach + margin
    tied = found & (s2 + c2 <= s1 + 2.0 * margin)
    dz = cz - yz[best]
    dr = cr - yr[best]
    d = np.where(found & ~tied, np.sqrt(dz * dz + dr * dr), np.inf)
    for i in np.flatnonzero(tied & (lo < hi)):
        dz = cz[i] - yz[lo[i]:hi[i]]
        dr = cr[i] - yr[lo[i]:hi[i]]
        exact = np.sqrt(dz * dz + dr * dr)
        best[i] = lo[i] + exact.argmin()
        d[i] = exact[best[i] - lo[i]]
    nearest = np.full(len(cz), -1)
    nearest[by_z] = np.where(d < reach, order[best], -1)
    return nearest


def noncollapsing_ratio(snapshot: FlowSnapshot) -> float:
    """kappa_min = min over nodes x of H(x) r(x); requires min H > 0.

    r(x) is the tangent-constrained inscribed radius: sup{rho : the ball of
    radius rho centered at x + rho*nu(x) stays inside the enclosed region},
    with the inside test at rho "every node is at distance >= rho from the
    center".  Centers are meridian points (z_c, r_c) at ambient radial
    coordinate |r_c|, so a center that crosses the axis is measured correctly.

    The test has a closed form (Andrews' two-point function
    k(x, y) = 2<y - x, nu>/|y - x|^2): a point y -- a node, its axis mirror
    (z, -r) or a periodic copy -- with a = <y - x, nu> > 0 fails it exactly
    when rho > g(y) = |y - x|^2 / (2a) = 1/k(x, y), and no other point ever
    fails it.  So r(x) = min(diam, min_y g(y)), and
    kappa_min is the least H(x) g(y) over pairs, searched without any r(x):
    start from kappa = min_x H(x) min(diam, g(mirror of x)); each round, for
    every active node, query the nearest node to the center at rho = kappa/H(x).
    An empty ball certifies H(x) r(x) >= kappa, and since kappa only
    decreases the node is never tested again; a violator lowers kappa to its
    H g(y) and stays active.  The comparison is H g(y) < kappa rather than
    g(y) < rho: kappa then strictly decreases every round, so a node lying on
    the ball boundary up to the rounding of kappa/H cannot loop.
    """
    H = snapshot.curvature.H
    if float(np.min(H)) <= 0.0:
        raise DomainError("noncollapsing ratio requires H > 0 at every node")
    curve = snapshot.surface
    if curve.is_self_intersecting():
        raise TopologyError("inscribed radius needs an embedded surface")
    normal = snapshot.curvature.normal
    pts = np.column_stack((curve.z, curve.r))
    surface = pts
    if curve.topology == PERIODIC:
        shift = np.array([curve.period, 0.0])
        surface = np.vstack((pts - shift, pts, pts + shift))
    if curve.topology == CLOSED:
        diam = float(np.hypot(curve.z.max() - curve.z.min(), 2.0 * curve.r.max()))
    else:
        diam = float(np.hypot(curve.period, 2.0 * curve.r.max()))

    def bound(idx, y):
        """g(y) for each node of idx against its point y; inf where a <= 0."""
        dy = y - pts[idx]
        a = np.einsum("ij,ij->i", dy, normal[idx])
        with np.errstate(divide="ignore", invalid="ignore"):
            g = np.einsum("ij,ij->i", dy, dy) / (2.0 * a)
        return np.where(a > 0.0, g, np.inf)

    active = np.arange(curve.num_nodes)
    kappa = float(np.min(H * np.minimum(diam, bound(active, pts * np.array([1.0, -1.0])))))
    while active.size:
        rho = kappa / H[active]
        # the meridian point nearest each center inside its test ball, mirrored when r_c < 0
        centers = pts[active] + rho[:, None] * normal[active]
        j = _nearest_within(surface, np.column_stack((centers[:, 0], np.abs(centers[:, 1]))), rho)
        hit = j >= 0
        active, centers, j = active[hit], centers[hit], j[hit]
        y = surface[j]
        y[:, 1] = np.copysign(y[:, 1], centers[:, 1])
        kappa_y = bound(active, y) * H[active]
        violated = kappa_y < kappa
        active = active[violated]
        kappa = float(np.min(kappa_y[violated], initial=kappa))
    return kappa


# ---------------------------------------------------------------------------
# pinching profile
# ---------------------------------------------------------------------------

def pinching_profile(traj: Trajectory) -> list:
    """Envelope for the pinching inequality lambda_1 >= -phi(H).

    The envelope bins pooled (H, lambda_1) samples by four decades of H
    downward from the overall max and reports phi_hat = max(0, -min lambda_1)
    per bin together with the ratio phi_hat / H at the bin's geometric
    midpoint; the ratio should trend down with H on a mean-convex flow
    approaching a singularity.
    """
    H_all = np.concatenate([snap.curvature.H for snap in traj.snapshots])
    if float(H_all.min()) <= 0.0:
        raise DomainError("pinching profile requires a mean-convex trajectory")
    lam1_all = np.concatenate([snap.curvature.lam1 for snap in traj.snapshots])
    Hmax = float(H_all.max())
    envelope = []
    for d in range(4):
        hi = Hmax / 10.0**d
        lo = hi / 10.0
        m = (H_all >= lo) & (H_all <= hi)
        if not np.any(m):
            continue
        phi = max(0.0, -float(np.min(lam1_all[m])))
        envelope.append({"H_lo": lo, "H_hi": hi, "phi_hat": phi,
                         "ratio": phi / np.sqrt(lo * hi), "count": int(m.sum())})
    return envelope


# ---------------------------------------------------------------------------
# local Harnack
# ---------------------------------------------------------------------------

def harnack_check(traj: Trajectory, p, R: float) -> dict:
    """sup/inf of H over the parabolic cube Q_{R/H(p)}(p) of recorded snapshots.

    p = (z, rho, t) is snapped to the nearest node of the nearest snapshot.
    The cube is the set of nodes within ambient distance R/H(p) of p taken
    over snapshots with t in (t_p - (R/H(p))^2, t_p].  Returns
    {"delta", "sup_H", "inf_H"}, delta = min(H(p)/sup H, inf H/H(p)).
    """
    z_p, rho_p, t_p = p
    snap_p = traj.nearest_snapshot(t_p)
    curve_p = snap_p.surface
    j = nearest_node(curve_p, z_p, rho_p)
    z_p, rho_p, t_p = float(curve_p.z[j]), float(curve_p.r[j]), snap_p.t
    H_p = float(snap_p.curvature.H[j])
    if H_p <= 0.0:
        raise DomainError("Harnack check requires H(p) > 0")
    rad = R / H_p
    t_lo = t_p - rad * rad
    earliest = traj.snapshots[0].t
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
    return {"delta": min(H_p / sup_H, inf_H / H_p), "sup_H": sup_H, "inf_H": inf_H}


# ---------------------------------------------------------------------------
# |A|^2 / H^2 monotone max
# ---------------------------------------------------------------------------

def ratio_A2_H2(records: Sequence[SnapshotRecord]) -> dict:
    """Checks that the per-snapshot max of |A|^2/H^2 is nonincreasing in time.

    The allowed slack between consecutive records is 10 h^2 per unit time
    (discretization error of the maximum principle), h the ``spacing`` of the
    later record.
    """
    if any("max_A2_over_H2" in rec.skipped for rec in records):
        raise DomainError("|A|^2/H^2 check requires H > 0 throughout")
    worst = 0.0
    for prev, rec in zip(records, records[1:]):
        slack = 10.0 * rec.spacing ** 2 * max(rec.t - prev.t, 0.0)
        worst = max(worst, rec.max_A2_over_H2 - prev.max_A2_over_H2 - slack)
    return {"nonincreasing": worst <= 0.0, "worst_excess": worst}


# ---------------------------------------------------------------------------
# H-evolution residual
# ---------------------------------------------------------------------------

def _interp_H_at_projection(curve: ProfileCurve, H: np.ndarray, z0, r0):
    """H at the nearest-point projection of (z0, r0) onto the curve.

    Nearest node, parabolic localization of the foot point in arclength, and
    quadratic interpolation of H there.  Returns (value, ok) arrays.
    """
    s = curve.arclength
    # the nearest node, with no reach to bound it
    j = _nearest_within(np.column_stack((curve.z, curve.r)), np.column_stack((z0, r0)),
                        np.full(len(z0), np.inf))
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


def verify_H_evolution(traj: Trajectory) -> dict:
    """Residual of dH/dt = Lap H + H |A|^2 at the middle snapshot and its neighbours.

    The middle is snapshot ``len // 2``.  Node correspondence across the
    triple is by nearest-point projection of the middle nodes onto the
    neighbors; nodes where the projection is ambiguous (or within a few
    spacings of a pole, where the rotational term degenerates) are skipped
    and counted.  Returns {"max_residual", "t", "skipped"}.
    """
    if len(traj.snapshots) < 3:
        raise InsufficientDataError("need at least three recorded snapshots")
    index = len(traj.snapshots) // 2
    prev_s, mid_s, next_s = traj.snapshots[index - 1:index + 2]
    curve = mid_s.surface
    c = mid_s.curvature
    H = c.H
    # Lap H from the integrator's frozen Δ = ∂ss + (n-1)(r_s/r)∂s at the middle
    # curve; the pole rows of a closed profile come out non-finite or masked below
    closed = curve.topology == CLOSED
    op = _euler_operator(curve.r, curve.n, closed,
                         *profile_derivatives(curve.z, curve.r, closed, curve.period))
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
    if not np.any(valid):
        raise InsufficientDataError("no unambiguous sample nodes for the residual")
    residual = dHdt - (lap + H * c.A2)
    return {"max_residual": float(np.max(np.abs(residual[valid]))),
            "t": mid_s.t, "skipped": int(np.count_nonzero(~valid))}


# ---------------------------------------------------------------------------
# convexity and distance scaling
# ---------------------------------------------------------------------------

def convexity_check(snapshot: FlowSnapshot) -> float:
    """min lambda_1 over all nodes: the snapshot is convex where it is >= 0."""
    return float(np.min(snapshot.curvature.lam1))


def singular_distance_scaling(traj: Trajectory) -> dict:
    """Fit of r_tau = dist(singular point, flow at T - tau) against sqrt(tau).

    Uses every recorded snapshot with 0 < tau = T - t <= tau_max, in increasing
    tau, with tau_max half the gap from T back to the first snapshot after t0.
    Returns {"tau", "r_tau", "slope", "ratio"}: the taus, their distances, the
    log-log slope and the band r_tau / sqrt(tau).
    """
    if traj.singular_estimate is None:
        raise InsufficientDataError("trajectory has no singular-point estimate")
    est = traj.singular_estimate
    times = traj.times
    T = est.T
    later = times[times > times[0]]
    tau_max = 0.5 * float(T - later[0]) if later.size else 0.1 * T
    # snapshot times increase, so their taus decrease
    used = [snap for snap in reversed(traj.snapshots) if 0.0 < T - snap.t <= tau_max]
    if len(used) < 4:
        raise InsufficientDataError(f"only {len(used)} snapshots with 0 < T - t <= "
                                    f"{tau_max:.6g} (need 4)")
    taus = np.array([T - snap.t for snap in used])
    rtaus = np.array([np.hypot(snap.surface.z - est.z, snap.surface.r - abs(est.rho)).min()
                      for snap in used])
    if np.any(rtaus <= 0.0):
        raise InsufficientDataError(
            f"singular-point estimate lies on the flow at tau = {taus[rtaus <= 0.0].max():.6g}")
    slope = np.polyfit(np.log(taus), np.log(rtaus), 1)[0]
    return {"tau": taus, "r_tau": rtaus, "slope": float(slope),
            "ratio": rtaus / np.sqrt(taus)}
