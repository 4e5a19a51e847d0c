"""Noncollapsing, pinching, Harnack, monotone ratios, residuals, distance law."""

from dataclasses import replace

import numpy as np
import pytest

from mcfprof.diagnostics import (convexity_check, harnack_check,
                                 noncollapsing_ratio,
                                 pinching_profile, ratio_A2_H2,
                                 singular_distance_scaling, snapshot_records,
                                 verify_H_evolution)
from mcfprof.errors import DomainError, InsufficientDataError, WindowError
from mcfprof.flow import StepControl, Trajectory, _implicit_step, run_until
from mcfprof.geometry import FlowSnapshot, ProfileCurve, resample_arclength
from mcfprof.rescale import parabolic_dilate, waist_node
from mcfprof.shapes import (cylinder_profile, dumbbell_profile,
                            ovaloid_profile, sphere_profile)
from scipy.spatial import cKDTree

from mcfprof import diagnostics
from mcfprof.geometry import CLOSED, PERIODIC
from mcfprof.shapes import perturb_profile
from radius_oracle import two_point_inscribed_radii


def brute_force_inscribed_radius(snapshot, node, samples=4000):
    """Oracle: dense centers along the normal, exact distance to a dense curve."""
    curve = resample_arclength(snapshot.surface, num=samples)
    pts = np.column_stack((curve.z, curve.r))
    c = snapshot.curvature
    x = np.array([snapshot.surface.z[node], snapshot.surface.r[node]])
    nu = c.normal[node]
    h = snapshot.surface.mean_spacing
    best = 0.0
    for rho in np.linspace(h / 20, 2.5, 2000):
        center = x + rho * nu
        center = np.array([center[0], abs(center[1])])
        d = np.sqrt(((pts - center) ** 2).sum(1)).min()
        if d >= rho - h / 10:
            best = rho
        else:
            break
    return best


# ---------------------------------------------------------------------------
# inscribed radius / noncollapsing
# ---------------------------------------------------------------------------

def test_inscribed_radius_sphere():
    snap = FlowSnapshot(sphere_profile(1.0, 2, 300), 0.0)
    radii = two_point_inscribed_radii(snap)
    for node in (10, 100, 150):
        assert abs(radii[node] - 1.0) < 2e-3


def test_inscribed_radius_cylinder():
    snap = FlowSnapshot(cylinder_profile(0.5, np.pi, 2, 300), 0.0)
    assert abs(two_point_inscribed_radii(snap)[120] - 0.5) < 2e-3


def test_inscribed_radius_dumbbell_against_brute_force():
    snap = FlowSnapshot(dumbbell_profile(1.0, 0.2, 8.0, 2, 600), 0.0)
    h = snap.surface.mean_spacing
    waist = waist_node(snap, 0.0)
    radii = two_point_inscribed_radii(snap)
    r_w = radii[waist]
    assert abs(r_w - snap.surface.r[waist]) < 2.0 * h  # limited by the waist circle
    for node in (10, 30, 60, 90):  # cap and bulb shoulder of the left bulb
        r_p = radii[node]
        oracle = brute_force_inscribed_radius(snap, node)
        assert abs(r_p - oracle) < 2.0 * h


def test_noncollapsing_constants_sphere():
    for n in (2, 3):
        curve = sphere_profile(1.0, n, 300)
        snap = FlowSnapshot(curve, 0.0)
        h = curve.mean_spacing
        kappa = two_point_inscribed_radii(snap) * snap.curvature.H
        assert np.abs(kappa / n - 1.0).max() < 2.0 * h
        assert noncollapsing_ratio(snap) <= n + 5.0 * h


def test_noncollapsing_constant_cylinder():
    curve = cylinder_profile(0.5, np.pi, 2, 300)
    snap = FlowSnapshot(curve, 0.0)
    h = curve.mean_spacing
    kappa = two_point_inscribed_radii(snap) * snap.curvature.H
    assert np.abs(kappa / 1.0 - 1.0).max() < 2.0 * h  # m = n-1 = 1


def test_noncollapsing_requires_mean_convex():
    thin = dumbbell_profile(1.0, 0.05, 8.0, 2, 300)
    with pytest.raises(DomainError):
        noncollapsing_ratio(FlowSnapshot(thin, 0.0))


def test_kappa_dilation_invariance():
    snap = FlowSnapshot(dumbbell_profile(1.0, 0.35, 8.0, 2, 300), 0.0)
    kappa = noncollapsing_ratio(snap)
    scaled = parabolic_dilate(snap, 4.7, 0.3, 0.0)
    assert abs(noncollapsing_ratio(scaled) / kappa - 1.0) < 1e-8


def test_inscribed_radius_continuity():
    # a smooth C^1-small displacement of size eps moves the inscribed radius
    # by O(eps); node-wise rough noise would not (it tilts discrete normals)
    from mcfprof.geometry import CLOSED, ProfileCurve
    curve = sphere_profile(1.0, 2, 200)
    snap = FlowSnapshot(curve, 0.0)
    h = curve.mean_spacing
    eps = h / 10.0
    normal = snap.curvature.normal
    s = curve.arclength
    psi = eps * np.cos(2.0 * np.pi * s / s[-1])
    z = curve.z - psi * normal[:, 0]
    r = curve.r - psi * normal[:, 1]
    r[0] = r[-1] = 0.0
    snap2 = FlowSnapshot(ProfileCurve(z, r, 2, CLOSED), 0.0)
    radii1, radii2 = two_point_inscribed_radii(snap), two_point_inscribed_radii(snap2)
    for node in (20, 60, 100, 140, 180):
        r1, r2 = radii1[node], radii2[node]
        assert abs(r1 - r2) <= 10.0 * eps + h / 10.0


def bulged_cylinder(nodes):
    """r = 1 + 0.3 cos 2z over one period pi: the radii at the bulge are set across the wrap."""
    z = np.linspace(0.0, np.pi, nodes, endpoint=False)
    return ProfileCurve(z, 1.0 + 0.3 * np.cos(2.0 * z), 2, PERIODIC, np.pi)


RADIUS_SHAPES = {
    "sphere-n2": lambda: sphere_profile(1.0, 2, 300),
    "sphere-n3": lambda: sphere_profile(0.7, 3, 401),
    "cylinder": lambda: cylinder_profile(0.5, np.pi, 2, 300),
    "ovaloid": lambda: ovaloid_profile(1.0, 0.6, 2, 400),
    "dumbbell": lambda: dumbbell_profile(1.0, 0.35, 8.0, 2, 800),
    "perturbed-dumbbell": lambda: perturb_profile(dumbbell_profile(1.0, 0.35, 8.0, 2, 800),
                                                  0.01, 3, 1),
    "perturbed-cylinder": lambda: perturb_profile(cylinder_profile(1.0, np.pi, 2, 400),
                                                  0.05, 3, 2),
    "bulged-cylinder": lambda: bulged_cylinder(300),
}


# the last snapshot of each session run: refined, graded meshes
RUN_SNAPSHOTS = ("sphere_run", "cylinder_run", "dumbbell_run")


@pytest.mark.parametrize("shape", sorted(RADIUS_SHAPES) + [f"{run}-last" for run in RUN_SNAPSHOTS])
def test_inscribed_radii_equal_bisection_reference(shape, request):
    # kappa is exact: it equals min H r over the dense two-point radii, the values
    # a bisection over rho converges to (the poles of a closed profile, a dumbbell
    # waist whose ray crosses the axis and the wrap of a periodic profile included)
    if shape.endswith("-last"):
        snap = request.getfixturevalue(shape[:-len("-last")])["traj"].snapshots[-1]
    else:
        snap = FlowSnapshot(RADIUS_SHAPES[shape](), 0.0)
    radii = two_point_inscribed_radii(snap)
    H = snap.curvature.H
    if H.min() > 0.0:
        np.testing.assert_allclose(noncollapsing_ratio(snap), np.min(H * radii),
                                   rtol=1e-12, atol=0.0)
    else:  # the perturbed cylinder has H < 0 somewhere; the sweep below covers its radii
        with pytest.raises(DomainError):
            noncollapsing_ratio(snap)


@pytest.mark.parametrize("curve, kappa", [
    (lambda: sphere_profile(1.0, 2, 800), 2.0),
    (lambda: sphere_profile(1.0, 3, 800), 3.0),
    (lambda: cylinder_profile(1.0, np.pi, 2, 400), 1.0),
], ids=["sphere-n2", "sphere-n3", "cylinder"])
def test_kappa_of_round_shrinkers_is_exact(curve, kappa):
    # Andrews' two-point bound, with no tolerance: the round S^n has r = R and H = n/R
    # at every node, so kappa = n up to the O(h^2) error of H, and the unit cylinder 1
    assert abs(noncollapsing_ratio(FlowSnapshot(curve(), 0.0)) - kappa) < 1e-5


# small meshes of the RADIUS_SHAPES kinds, swept node by node below
SWEEP_SHAPES = {
    "sphere": lambda: sphere_profile(1.0, 2, 120),
    "cylinder": lambda: cylinder_profile(0.5, np.pi, 2, 120),
    "dumbbell": lambda: dumbbell_profile(1.0, 0.35, 8.0, 2, 200),
    "perturbed-cylinder": lambda: perturb_profile(cylinder_profile(1.0, np.pi, 2, 160),
                                                  0.05, 3, 2),
    "bulged-cylinder": lambda: bulged_cylinder(160),
}


@pytest.mark.parametrize("shape", sorted(SWEEP_SHAPES))
def test_kappa_attained_at_each_node_equals_reference(shape):
    # with H replaced by (1 + 1e-6)/r at every node but one and 1/r there, that node
    # alone attains the minimum; so a radius that is off at any node moves kappa
    snap = FlowSnapshot(SWEEP_SHAPES[shape](), 0.0)
    radii = two_point_inscribed_radii(snap)
    for k in range(snap.surface.num_nodes):
        H = (1.0 + 1e-6) / radii
        H[k] = 1.0 / radii[k]
        weighted = FlowSnapshot(snap.surface, 0.0, replace(snap.curvature, H=H))
        np.testing.assert_allclose(noncollapsing_ratio(weighted), H[k] * radii[k],
                                   rtol=1e-12, atol=0.0, err_msg=f"node {k}")


@pytest.fixture
def counted_queries(monkeypatch):
    """The row count of every nearest-node search that ``noncollapsing_ratio`` makes."""
    rows = []
    search = diagnostics._nearest_within

    def counting(pts, centers, reach):
        rows.append(len(centers))
        return search(pts, centers, reach)

    monkeypatch.setattr(diagnostics, "_nearest_within", counting)
    return rows


def test_inscribed_radii_query_budget(counted_queries):
    snap = FlowSnapshot(dumbbell_profile(1.0, 0.35, 8.0, 2, 800), 0.0)
    noncollapsing_ratio(snap)
    assert 0 < sum(counted_queries) <= 2 * snap.surface.num_nodes


def assert_nearest_matches_tree(pts, centers, reach):
    """Each centre gets a node at the tree's distance bit for bit, or none (-1)
    exactly when the tree's nearest distance is at least the reach."""
    j = diagnostics._nearest_within(pts, centers, reach)
    tree_d, _ = cKDTree(pts).query(centers)
    inside = tree_d < reach
    np.testing.assert_array_equal(j >= 0, inside)
    assert np.all(j[~inside] == -1)
    dz = centers[inside, 0] - pts[j[inside], 0]
    dr = centers[inside, 1] - pts[j[inside], 1]
    np.testing.assert_array_equal(np.sqrt(dz * dz + dr * dr), tree_d[inside])


@pytest.mark.parametrize("run", ["dumbbell_run", "sphere_run"])
def test_nearest_within_matches_kdtree_on_kappa_queries(run, request, monkeypatch):
    # every query of the kappa search on every snapshot of the seed-0 neckpinch
    # (dumbbell_run) and sphere400 (sphere_run) benchmark runs
    queries = []
    search = diagnostics._nearest_within

    def recording(pts, centers, reach):
        queries.append((pts, centers, reach))
        return search(pts, centers, reach)

    monkeypatch.setattr(diagnostics, "_nearest_within", recording)
    for snap in request.getfixturevalue(run)["traj"].snapshots:
        noncollapsing_ratio(snap)
    monkeypatch.undo()
    assert len(queries) >= len(request.getfixturevalue(run)["traj"].snapshots)
    for pts, centers, reach in queries:
        assert_nearest_matches_tree(pts, centers, reach)


@pytest.mark.parametrize("seed", range(6))
def test_nearest_within_matches_kdtree_on_random_points(seed):
    rng = np.random.default_rng(seed)
    m, period = int(rng.integers(20, 400)), 3.0
    pts = np.column_stack((rng.uniform(0.0, period, m), rng.uniform(0.0, 1.0, m)))
    if seed % 2:  # periodic copies, as the kappa search of a periodic profile passes
        pts = np.vstack([pts + [shift, 0.0] for shift in (-period, 0.0, period)])
    centers = np.column_stack((rng.uniform(-1.0, 4.0, 300), rng.uniform(-0.5, 1.5, 300)))
    tree_d, _ = cKDTree(pts).query(centers)
    # reaches below, at and above the nearest distance; many centres have no node in reach
    reach = tree_d * rng.choice([0.0, 0.5, 1.0, 1.0 + 1e-15, 2.0, np.inf], 300)
    reach[:20] = -1.0
    assert_nearest_matches_tree(pts, centers, reach)


def test_nearest_within_exact_ties():
    # lattice points with centres at cell midpoints: four nodes at the same distance
    g = np.arange(12) * 0.1
    pts = np.column_stack([a.ravel() for a in np.meshgrid(g, g)])
    centers = pts[:50] + 0.05
    for reach in (np.full(50, np.inf), np.full(50, 0.1), np.hypot(0.05, 0.05) * np.ones(50)):
        assert_nearest_matches_tree(pts, centers, reach)


# ---------------------------------------------------------------------------
# pinching
# ---------------------------------------------------------------------------

def test_pinching_zero_on_convex_ovaloid():
    snap = FlowSnapshot(ovaloid_profile(1.0, 0.6, 2, 300), 0.0)
    traj = Trajectory([snap], "t-end", None)
    env = pinching_profile(traj)
    assert all(e["phi_hat"] == 0.0 for e in env)


def test_pinching_zero_on_cylinder(cylinder_run):
    env = pinching_profile(cylinder_run["traj"])
    assert all(e["phi_hat"] < 1e-10 for e in env)


def test_pinching_trend_on_dumbbell(dumbbell_run):
    traj = dumbbell_run["traj"]
    env = pinching_profile(traj)
    # neck has lambda_1 < 0 at t = 0
    assert snapshot_records(traj.snapshots, noncollapse=False)[0].min_lambda1_over_H < 0.0
    assert env[0]["phi_hat"] > 0.0
    assert env[0]["ratio"] < env[1]["ratio"]  # phi_hat/H falls with H


# ---------------------------------------------------------------------------
# Harnack
# ---------------------------------------------------------------------------

def test_harnack_sphere_radius_law_oracle(sphere_run):
    # p on the equator of the cascade snapshot nearest t = 0.2, R = 1.  The cube
    # holds the recorded snapshots with t in (t_p - 1/H(t_p)^2, t_p].  The radius
    # law H(t) = 2/sqrt(1 - 4t) grows in t and is uniform in space, so
    # delta = H(t_first)/H(t_p) at the earliest snapshot in the cube.
    traj = sphere_run["traj"]
    snap = traj.nearest_snapshot(0.2)
    j = len(snap.surface.z) // 2
    rec = harnack_check(traj, (float(snap.surface.z[j]), float(snap.surface.r[j]), 0.2), 1.0)
    H = lambda t: 2.0 / np.sqrt(1.0 - 4.0 * t)
    t_first = min(t for t in traj.times if t > snap.t - 1.0 / H(snap.t) ** 2)
    assert t_first < snap.t  # the cube reaches back past p's own snapshot
    assert abs(rec["delta"] - H(t_first) / H(snap.t)) < 1e-3
    assert 0.0 < rec["delta"] <= 1.0


def test_harnack_cylinder_spatial_homogeneity(cylinder_run):
    traj = cylinder_run["traj"]
    t_p = traj.times[len(traj.times) // 2]
    snap = traj.nearest_snapshot(t_p)
    rec = harnack_check(traj, (float(snap.surface.z[5]), float(snap.surface.r[5]), t_p), 1.0)
    # per-slice H is uniform, so sup is attained at t_p itself
    H_p = 1.0 / snap.surface.r[5]
    assert abs(rec["sup_H"] - H_p) / H_p < 1e-6
    assert rec["inf_H"] < rec["sup_H"]


def test_harnack_window_error(sphere_run):
    traj = sphere_run["traj"]
    snap = traj.snapshots[0]
    with pytest.raises(WindowError):
        harnack_check(traj, (float(snap.surface.z[50]), float(snap.surface.r[50]), 0.0), 1.0)


# ---------------------------------------------------------------------------
# |A|^2/H^2 and H-evolution
# ---------------------------------------------------------------------------

def test_ratio_exact_on_models(sphere_run, cylinder_run):
    for run, exact in ((sphere_run, 0.5), (cylinder_run, 1.0)):
        records = snapshot_records(run["traj"].snapshots, noncollapse=False)
        assert max(abs(r.max_A2_over_H2 - exact) for r in records) < 1e-6


def test_ratio_monotone_on_dumbbell(dumbbell_run):
    records = snapshot_records(dumbbell_run["traj"].snapshots, noncollapse=False)
    assert records[0].max_A2_over_H2 > 1.0  # neck anisotropy at t = 0
    assert ratio_A2_H2(records)["nonincreasing"]


def test_H_evolution_residual_small_on_sphere():
    snap = FlowSnapshot(sphere_profile(1.0, 2, 200), 0.0)
    dt = 0.8 * snap.surface.spacings().min() ** 2 / 4.0  # the explicit stability bound h²/(2n)
    snaps = [snap]
    for k in (1, 2):
        z, r = _implicit_step(snaps[-1].surface.z, snaps[-1].surface.r, 2, True, None, dt)
        snaps.append(FlowSnapshot(ProfileCurve(z, r, 2, CLOSED), k * dt))
    res = verify_H_evolution(Trajectory(snaps, "t-end", None))
    h = snap.surface.mean_spacing
    # analytically dH/dt = H|A|^2 and Lap H = 0; discretization error O(h^2 + dt)
    assert res["max_residual"] < 10.0 * (h**2 + dt)


def wavy_cylinder(N):
    z = np.linspace(0.0, np.pi, N, endpoint=False)
    return ProfileCurve(z, 1.0 + 0.1 * np.cos(4.0 * z), 2, PERIODIC, np.pi)


def h_evolution_triples():
    """The snapshot triples of acceptance criterion 08: two implicit steps at dt ∝ h²."""
    for factory in (lambda N: sphere_profile(1.0, 2, N), wavy_cylinder,
                    lambda N: cylinder_profile(1.0, np.pi, 2, N)):
        for N in (100, 200):
            curve = factory(N)
            dt = 0.8 * factory(100).spacings().min() ** 2 / 4.0 * (100 / N) ** 2
            snaps = [FlowSnapshot(curve, 0.0)]
            for k in (1, 2):
                z, r = _implicit_step(curve.z, curve.r, 2, curve.topology == CLOSED,
                                      curve.period, dt)
                curve = ProfileCurve(z, r, 2, curve.topology, curve.period)
                snaps.append(FlowSnapshot(curve, k * dt))
            yield snaps


def test_H_projection_picks_the_kdtree_node(monkeypatch):
    def tree_search(pts, centers, reach):
        return cKDTree(pts).query(centers)[1]

    for prev, mid, nxt in h_evolution_triples():
        for side in (prev, nxt):
            args = (side.surface, side.curvature.H, mid.surface.z, mid.surface.r)
            pts = np.column_stack((side.surface.z, side.surface.r))
            centers = np.column_stack((mid.surface.z, mid.surface.r))
            np.testing.assert_array_equal(
                diagnostics._nearest_within(pts, centers, np.full(len(centers), np.inf)),
                cKDTree(pts).query(centers)[1])
            val, ok = diagnostics._interp_H_at_projection(*args)
            with monkeypatch.context() as m:
                m.setattr(diagnostics, "_nearest_within", tree_search)
                tree_val, tree_ok = diagnostics._interp_H_at_projection(*args)
            np.testing.assert_array_equal(val, tree_val)
            np.testing.assert_array_equal(ok, tree_ok)


def test_H_evolution_needs_three_snapshots():
    snap = FlowSnapshot(sphere_profile(1.0, 2, 64), 0.0)
    with pytest.raises(InsufficientDataError):
        verify_H_evolution(Trajectory([snap, snap], "t-end", None))


# ---------------------------------------------------------------------------
# convexity and distance scaling
# ---------------------------------------------------------------------------

def test_convexity_check_discriminates():
    assert convexity_check(FlowSnapshot(sphere_profile(1.0, 2, 200), 0.0)) > 0.9
    assert convexity_check(FlowSnapshot(dumbbell_profile(1.0, 0.35, 8.0, 2, 300), 0.0)) < -0.05


def test_distance_scaling_sphere(sphere_run):
    res = singular_distance_scaling(sphere_run["traj"])
    assert abs(res["slope"] - 0.5) < 0.02
    # r_tau = sqrt(2 n tau) = sqrt(4 tau) about the extinction point
    assert np.abs(res["ratio"] / 2.0 - 1.0).max() < 0.05


def test_distance_scaling_cylinder(cylinder_run):
    res = singular_distance_scaling(cylinder_run["traj"])
    assert abs(res["slope"] - 0.5) < 0.02
    assert np.abs(res["ratio"] / np.sqrt(2.0) - 1.0).max() < 0.05


def test_distance_scaling_reads_every_snapshot_up_to_tau_max(sphere_run):
    # one tau per stored snapshot with 0 < T - t <= tau_max, tau_max half the gap from T
    # back to the first snapshot after t0, in increasing tau; more than a 14-rung ladder
    # of halvings of tau_max could reach
    traj = sphere_run["traj"]
    tau = traj.singular_estimate.T - traj.times
    tau_max = 0.5 * tau[1]
    expected = np.sort(tau[(tau > 0.0) & (tau <= tau_max)])
    assert expected.size > 14
    np.testing.assert_array_equal(singular_distance_scaling(traj)["tau"], expected)


def test_distance_scaling_insufficient_data():
    from mcfprof.flow import SingularEstimate
    traj = run_until(FlowSnapshot(sphere_profile(1.0, 2, 100), 0.0),
                     StepControl(t_end=0.01))
    traj.singular_estimate = SingularEstimate(0.0, 0.0, 0.25)
    with pytest.raises(InsufficientDataError):
        singular_distance_scaling(traj)


def test_distance_scaling_zero_distance_is_insufficient():
    from mcfprof.flow import SingularEstimate
    curve = sphere_profile(1.0, 2, 100)
    snaps = [FlowSnapshot(curve, t) for t in np.linspace(0.0, 0.24, 25)]
    # the estimate sits on the pole of every snapshot
    traj = Trajectory(snaps, "t-end", SingularEstimate(float(curve.z[0]), 0.0, 0.25))
    with pytest.raises(InsufficientDataError):
        singular_distance_scaling(traj)
