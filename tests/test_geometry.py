"""Curvature operators, resampling, and carrier invariants."""

import dataclasses

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from mcfprof import geometry
from mcfprof.errors import DegenerateSurfaceError, ResolutionError, TopologyError
from mcfprof.geometry import (CLOSED, PERIODIC, FlowSnapshot, ProfileCurve, cubic_spline,
                              curvature_axisymmetric, nearest_node, resample_arclength)
from mcfprof.shapes import (cylinder_profile, dumbbell_profile,
                            ovaloid_profile, perturb_profile, sphere_profile)


def dense_hausdorff(a: ProfileCurve, b: ProfileCurve, samples: int = 4000) -> float:
    """Two-sided Hausdorff distance between profile curves via dense sampling."""
    def pts(curve):
        out = np.column_stack((curve.z, curve.r))
        seg = np.diff(out, axis=0)
        ts = np.linspace(0.0, 1.0, max(2, samples // max(1, seg.shape[0])))[None, :, None]
        dense = out[:-1, None, :] + seg[:, None, :] * ts
        return dense.reshape(-1, 2)

    pa, pb = pts(a), pts(b)
    d = np.sqrt(((pa[:, None, :] - pb[None, :, :]) ** 2).sum(-1))
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


# ---------------------------------------------------------------------------
# axisymmetric curvature
# ---------------------------------------------------------------------------

def test_sphere_unit_curvatures():
    c = curvature_axisymmetric(sphere_profile(1.0, 2, 400))
    assert np.abs(c.H - 2.0).max() < 5e-4
    assert np.abs(c.lam_axial - 1.0).max() < 5e-4
    assert np.abs(c.lam_rot - 1.0).max() < 5e-4
    assert np.abs(c.normal).max() <= 1.0 + 1e-12


def test_cylinder_curvatures_exact():
    c = curvature_axisymmetric(cylinder_profile(0.5, np.pi, 2, 400))
    assert np.abs(c.lam_axial).max() < 1e-12
    assert np.abs(c.lam_rot - 2.0).max() < 1e-12
    assert np.abs(c.H - 2.0).max() < 1e-12


def test_perturbed_cylinder_matches_analytic_H():
    def max_err(N):
        z = np.linspace(0.0, 2 * np.pi, N, endpoint=False)
        r = 0.5 + 0.05 * np.cos(z)
        c = curvature_axisymmetric(ProfileCurve(z, r, 2, PERIODIC, 2 * np.pi))
        rp = -0.05 * np.sin(z)
        rpp = -0.05 * np.cos(z)
        H_exact = -rpp / (1 + rp**2) ** 1.5 + 1.0 / (r * np.sqrt(1 + rp**2))
        return np.abs(c.H - H_exact).max()

    h = 2 * np.pi / 400
    assert max_err(400) < 10.0 * h**2


def test_H_convergence_order_second():
    errs = []
    for N in (100, 200, 400):
        c = curvature_axisymmetric(sphere_profile(1.0, 2, N))
        errs.append(np.abs(c.H - 2.0).max())
    for e_coarse, e_fine in zip(errs, errs[1:]):
        assert 3.5 <= e_coarse / e_fine <= 4.5


def test_sphere_isotropy():
    for N in (100, 200):
        curve = sphere_profile(1.0, 2, N)
        c = curvature_axisymmetric(curve)
        h = curve.mean_spacing
        assert np.fmax(c.lam_axial, c.lam_rot).max() - c.lam1.min() < 5.0 * h**2


def test_curvature_errors():
    with pytest.raises(ResolutionError):
        curvature_axisymmetric(sphere_profile(1.0, 2, 6))
    z = np.linspace(0.0, np.pi, 20, endpoint=False)
    r = np.full(20, 0.5)
    r[7] = -0.1
    with pytest.raises(DegenerateSurfaceError):
        curvature_axisymmetric(ProfileCurve(z, r, 2, PERIODIC, np.pi))


@pytest.mark.parametrize("seed", range(5))
def test_curvature_field_invariants_random_profiles(seed):
    base = sphere_profile(1.0, 2, 160)
    curve = perturb_profile(base, amplitude=0.12, modes=4, seed=seed)
    c = curvature_axisymmetric(curve)
    np.testing.assert_array_equal(c.lam1, np.fmin(c.lam_axial, c.lam_rot))
    np.testing.assert_array_equal(c.H, c.lam_axial + (curve.n - 1) * c.lam_rot)
    assert np.all(c.A2 >= c.H**2 / curve.n - 1e-12)
    assert np.all(np.abs(np.linalg.norm(c.normal, axis=1) - 1.0) < 1e-12)


@pytest.mark.parametrize("n", [2, 3, 50])
def test_curvature_field_holds_one_value_per_node(n):
    # two distinct principal curvatures at every n: no array grows with n; the
    # meridian normal has its 2 components at every n
    curve = dumbbell_profile(1.0, 0.35, 8.0, n, 200)
    c = curvature_axisymmetric(curve)
    for f in dataclasses.fields(c):
        want = (curve.num_nodes, 2) if f.name == "normal" else (curve.num_nodes,)
        assert getattr(c, f.name).shape == want, f.name


def test_convex_surfaces_have_positive_H():
    for curve in (sphere_profile(0.7, 3, 200), ovaloid_profile(1.0, 0.6, 2, 300)):
        c = curvature_axisymmetric(curve)
        assert np.all(c.H > 0.0)


# ---------------------------------------------------------------------------
# resampling
# ---------------------------------------------------------------------------

def test_resample_uniform_circle_identity():
    curve = sphere_profile(1.0, 2, 200)
    out = resample_arclength(curve)
    assert np.abs(out.z - curve.z).max() < 1e-12
    assert np.abs(out.r - curve.r).max() < 1e-12


def test_resample_clustered_circle():
    # spacing ratio 3:1 via a stretched parameter
    theta = np.pi * (np.linspace(0.0, 1.0, 200) + 0.15 * np.sin(np.pi * np.linspace(0.0, 1.0, 200)))
    theta = np.sort(theta) * np.pi / theta.max()
    z = -np.cos(theta)
    r = np.sin(theta)
    r[0] = 0.0
    r[-1] = 0.0
    curve = ProfileCurve(z, r, 2, CLOSED)
    ds = curve.spacings()
    assert ds.max() / ds.min() > 1.5
    ds = resample_arclength(curve).spacings()
    assert ds.max() / ds.min() < 1.01


def test_resample_preserves_shape():
    db = dumbbell_profile(1.0, 0.35, 8.0, 2, 400)
    out = resample_arclength(db, num=400)
    h = db.mean_spacing
    assert dense_hausdorff(db, out) < h**2


@pytest.mark.parametrize("curve", [
    dumbbell_profile(1.0, 0.35, 8.0, 2, 400),
    perturb_profile(cylinder_profile(1.0, np.pi, 2, 200), 0.05, 3, 2),
], ids=["closed", "periodic"])
def test_resample_constant_density_is_uniform(curve):
    density = np.full(curve.spacings().size, 3.7)
    for num in (None, 2 * curve.num_nodes):
        uniform = resample_arclength(curve, num=num)
        graded = resample_arclength(curve, num=num, density=density)
        assert np.abs(graded.z - uniform.z).max() < 1e-12
        assert np.abs(graded.r - uniform.r).max() < 1e-12


def test_resample_density_grades_spacing():
    # twice the density on the upper half of a circle halves its spacing there
    curve = sphere_profile(1.0, 2, 401)
    density = np.where(curve.z[:-1] < 0.0, 1.0, 2.0)
    ds = resample_arclength(curve, density=density).spacings()
    assert abs(ds[10] / ds[-10] - 2.0) < 1e-3


def test_resample_periodic_roundtrip():
    curve = cylinder_profile(0.7, 2.0, 2, 64)
    out = resample_arclength(curve, num=128)
    assert out.topology == PERIODIC
    assert np.abs(out.r - 0.7).max() < 1e-10


@pytest.mark.parametrize("bc_type", ["not-a-knot", "periodic"])
def test_cubic_spline_matches_scipy(bc_type):
    # nonuniform knots (spacing ratio up to 30); values at and between the knots
    rng = np.random.default_rng(7)
    x = np.cumsum(rng.uniform(0.05, 1.5, 40))
    y = np.sin(x) + rng.normal(0.0, 0.3, x.size)
    if bc_type == "periodic":
        y[-1] = y[0]
    x_new = np.concatenate((x, np.linspace(x[0], x[-1], 997)))
    ref = CubicSpline(x, y, bc_type=bc_type)(x_new)
    ours = cubic_spline(x, y, x_new, periodic=bc_type == "periodic")
    assert np.abs(ours - ref).max() <= 1e-12 * np.abs(ref).max()


def test_cubic_spline_rejects_bad_knots():
    x = np.arange(8.0)
    for bad in (np.where(x == 3.0, 2.0, x), np.where(x == 7.0, np.inf, x)):
        with pytest.raises(ValueError):
            cubic_spline(bad, np.sin(x), x)


# ---------------------------------------------------------------------------
# carriers and distances
# ---------------------------------------------------------------------------

def test_profile_canonical_orientation():
    z = np.linspace(1.0, -1.0, 50)
    r = np.sqrt(np.maximum(1.0 - z**2, 0.0))
    r[0] = r[-1] = 0.0
    curve = ProfileCurve(z, r, 2, CLOSED)
    assert curve.z[0] < curve.z[-1]


def test_profile_validate_contract():
    with pytest.raises(ValueError):
        ProfileCurve(np.arange(10.0), np.ones(10), 2, PERIODIC)  # no period
    bad = sphere_profile(1.0, 2, 40)
    bad.r[3] = 0.0
    with pytest.raises(DegenerateSurfaceError):
        bad.validate()


def _bent_sphere(c, nodes=64):
    """Closed profile z = -cos(t) + c sin(2t), r = sin(t): it crosses itself iff c > 1/2.

    The crossing is at z = 0, sin(t) = 1/(2c); for c < 0 the caps fold back, so z
    is not monotone but the profile is embedded.
    """
    t = np.linspace(0.0, np.pi, nodes)
    r = np.sin(t)
    r[0] = r[-1] = 0.0
    return ProfileCurve(-np.cos(t) + c * np.sin(2.0 * t), r, 2, CLOSED)


def _flat_capped(nodes_per_side=16):
    """A capped cylinder: flat caps at z = 0 and z = 2 joined by the wall r = 1."""
    u = np.linspace(0.0, 1.0, nodes_per_side, endpoint=False)
    z = np.concatenate((0.0 * u, 2.0 * u, 2.0 + 0.0 * u, [2.0]))
    r = np.concatenate((u, 1.0 + 0.0 * u, 1.0 - u, [0.0]))
    return ProfileCurve(z, r, 2, CLOSED)


def _battlement():
    """Two tall towers whose flat tops are collinear and one ulp apart in z: embedded.

    The tops' projections on the sweep direction round to one value, so only
    the bounding-box test keeps them apart.
    """
    gap = 1.0 + np.spacing(1.0)
    z = np.array([0.0, 0.0, 1.0, 1.0, gap, gap, 2.0, 2.0])
    r = np.array([0.0, 2.0, 2.0, 1.0, 1.0, 2.0, 2.0, 0.0]) * 1e6
    proj = np.column_stack((z, r)) @ geometry.SWEEP_DIRECTION
    assert proj[2] == proj[5]
    return ProfileCurve(z, r, 2, CLOSED)


def _wrap_crossing(nodes=40):
    """A periodic profile, a graph on its own period, whose last segment crosses
    the first segment of its copy shifted by one period."""
    period = np.pi
    h = period / nodes
    z = np.linspace(0.0, period, nodes, endpoint=False)
    r = np.ones(nodes)
    z[-1] = period + 0.5 * h
    r[-2], r[-1] = 0.9, 1.02
    return ProfileCurve(z, r, 2, PERIODIC, period)


@pytest.mark.parametrize("curve, crossing, swept", [
    (_bent_sphere(1.0), True, True),
    (_wrap_crossing(), True, True),
    (_bent_sphere(-0.3), False, True),
    (_flat_capped(), False, True),
    (_battlement(), False, True),
    (cylinder_profile(1.0, np.pi, 2, 64), False, False),
], ids=["looped", "crossing-across-wrap", "overhanging", "flat-capped", "collinear-disjoint",
         "cylinder"])
def test_is_self_intersecting(monkeypatch, curve, crossing, swept):
    """A graph over the axis is embedded outright; any other profile is swept."""
    calls = []
    sweep = geometry._polyline_crosses
    monkeypatch.setattr(geometry, "_polyline_crosses", lambda pts: calls.append(1) or sweep(pts))
    assert curve.is_self_intersecting() is crossing
    assert bool(calls) is swept


def _exact_crossing(pts) -> bool:
    """Brute force over all non-adjacent segment pairs, in integer arithmetic."""
    def orient(a, b, c):
        v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        return (v > 0) - (v < 0)

    def on_segment(a, b, c):  # c, collinear with a and b, lies between them
        return all(min(a[x], b[x]) <= c[x] <= max(a[x], b[x]) for x in (0, 1))

    segs = list(zip(pts[:-1], pts[1:]))
    for i, (p1, p2) in enumerate(segs):
        for q1, q2 in segs[i + 2:]:
            d = (orient(q1, q2, p1), orient(q1, q2, p2), orient(p1, p2, q1), orient(p1, p2, q2))
            if d[0] * d[1] < 0 and d[2] * d[3] < 0:
                return True
            if any(dk == 0 and on_segment(a, b, c) for dk, (a, b, c) in zip(d, (
                    (q1, q2, p1), (q1, q2, p2), (p1, p2, q1), (p1, p2, q2)))):
                return True
    return False


def test_sweep_matches_brute_force_on_integer_polylines():
    """Small integer grids make touching, collinear and overlapping segments common."""
    rng = np.random.default_rng(0)
    outcomes = set()
    for _ in range(300):
        pts = [tuple(int(v) for v in p) for p in rng.integers(0, 5, size=(rng.integers(4, 12), 2))]
        expected = _exact_crossing(pts)
        assert geometry._polyline_crosses(np.array(pts, dtype=float)) is expected, pts
        outcomes.add(expected)
    assert outcomes == {True, False}


def test_validate_rejects_self_intersection():
    with pytest.raises(TopologyError):
        _bent_sphere(1.0).validate()
    _bent_sphere(-0.3).validate()
    _flat_capped().validate()


def test_snapshot_curvature_cached_and_consistent():
    snap = FlowSnapshot(sphere_profile(1.0, 2, 64), 0.0)
    c1 = snap.curvature
    assert snap.curvature is c1
    c2 = curvature_axisymmetric(snap.surface)
    assert np.array_equal(c1.H, c2.H)


def test_nearest_node_to_the_centre_of_a_round_sphere_is_mirror_invariant():
    # on the last snapshot of a flowed 400-node sphere every node lies within 1.5e-7
    # (relative) of the same squared distance to (0, 0); roundoff alone used to pick
    # node 200 there and node 199 on the z-mirrored profile
    from mcfprof.flow import StepControl, run_until
    traj = run_until(FlowSnapshot(sphere_profile(1.0, 2, 400), 0.0),
                     StepControl(A2_stop=2.0 / 0.03**2))
    curve = traj.snapshots[-1].surface
    mirror = ProfileCurve(-curve.z, curve.r, curve.n, curve.topology, curve.period)
    assert nearest_node(curve, 0.0, 0.0) == nearest_node(mirror, 0.0, 0.0)
    exact = sphere_profile(1.0, 2, 400)
    assert nearest_node(exact, 0.0, 0.0) == nearest_node(
        ProfileCurve(-exact.z, exact.r, exact.n, exact.topology), 0.0, 0.0)
