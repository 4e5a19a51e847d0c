"""Parabolic dilation, normalized blow-up sequences, and model fits."""

import numpy as np
import pytest

from mcfprof.errors import DegenerateSurfaceError, DomainError, EmptyWindowError
from mcfprof.geometry import FlowSnapshot
from mcfprof.models import shrinker_radius
from mcfprof.rescale import (classify_tangent_flow, fit_model, normalized_blowup,
                             parabolic_dilate, select_blowup_points, waist_node)
from mcfprof.flow import StepControl, Trajectory, run_until
from mcfprof.shapes import (cylinder_profile, dumbbell_profile, ovaloid_profile, perturb_profile,
                            sphere_profile)


def test_identity_dilation():
    snap = FlowSnapshot(sphere_profile(1.0, 2, 100), 0.3)
    out = parabolic_dilate(snap, 1.0, 0.0, 0.0)
    assert np.array_equal(out.surface.z, snap.surface.z)
    assert np.array_equal(out.surface.r, snap.surface.r)
    assert out.t == 0.3


def test_dilation_scales_sphere_and_curvature():
    snap = FlowSnapshot(sphere_profile(0.5, 2, 200), 0.7)
    out = parabolic_dilate(snap, 2.0, 0.0, 0.7)
    R = np.hypot(out.surface.z, out.surface.r)
    assert np.abs(R - 1.0).max() < 1e-12
    assert out.t == 0.0
    assert np.abs(out.curvature.H - 2.0).max() < 2e-3  # 4 -> 2


@pytest.mark.parametrize("a", [0.0, -2.0])
def test_dilation_scale_must_be_positive(a):
    snap = FlowSnapshot(sphere_profile(1.0, 2, 100), 0.0)
    with pytest.raises(ValueError, match="dilation scale must be positive"):
        parabolic_dilate(snap, a, 0.0, 0.0)


def test_dilated_period_that_underflows_is_degenerate():
    # 5e-324, the least subnormal, times a period of 0.4 rounds to 0
    snap = FlowSnapshot(cylinder_profile(0.1, 0.4, 2, 64), 0.0)
    with pytest.raises(DegenerateSurfaceError, match="dilated period underflows"):
        parabolic_dilate(snap, 5e-324, 0.0, 0.0)


def test_dilation_composition():
    snap = FlowSnapshot(dumbbell_profile(1.0, 0.35, 8.0, 2, 200), 0.1)
    d_a = 3.0, 0.2, 0.1
    d_b = 5.0, 0.0, 0.0  # about the image of the center
    two = parabolic_dilate(parabolic_dilate(snap, *d_a), *d_b)
    one = parabolic_dilate(snap, 15.0, 0.2, 0.1)
    scale = np.abs(one.surface.z).max()
    assert np.abs(two.surface.z - one.surface.z).max() / scale < 1e-12
    assert np.abs(two.surface.r - one.surface.r).max() / scale < 1e-12
    assert abs(two.t - one.t) <= 1e-12 * max(1.0, abs(one.t))


def test_curvature_covariance():
    for surf in (sphere_profile(1.0, 2, 300), cylinder_profile(0.7, np.pi, 2, 300),
                 dumbbell_profile(1.0, 0.35, 8.0, 2, 300)):
        snap = FlowSnapshot(surf, 0.0)
        H_an = snap.curvature.H / 7.3
        H_re = parabolic_dilate(snap, 7.3, 0.11, 0.0).curvature.H
        assert np.max(np.abs(H_re - H_an) / np.abs(H_an)) < 1e-10


def test_fixed_point_of_shrinking_sphere():
    # rescaled about the extinction spacetime point: R~(s) = sqrt(-2 n s)
    T = 1.0**2 / 4.0  # R0^2 / (2n)
    for t in (0.1, 0.2, 0.24):
        snap = FlowSnapshot(sphere_profile(shrinker_radius("sphere", 2, 1.0, t), 2, 200), t)
        a = 3.0
        out = parabolic_dilate(snap, a, 0.0, T)
        s = out.t
        assert s < 0.0
        R = np.hypot(out.surface.z, out.surface.r)
        assert np.abs(R - np.sqrt(-4.0 * s)).max() < 1e-12


def test_fit_exact_cylinder():
    # the unit-H cylinder at n = 2 has radius 1; a cylinder of any other radius
    # is off the model by the difference, with no free radius to absorb it
    for R in (1.0, 0.7):
        snap = FlowSnapshot(cylinder_profile(R, np.pi, 2, 200), 0.0)
        row = fit_model(snap, "cylinder", origin=(0.0, R), window=np.inf)
        assert set(row) == {"params", "rms"}
        assert row["params"] == {"R": 1.0, "m": 1}
        assert abs(row["rms"] - (1.0 - R)) < 1e-12


def test_fit_sphere_discriminates():
    # each unit-H shrinker at n = 2 is far from the other family's model
    sphere = FlowSnapshot(sphere_profile(2.0, 2, 200), 0.0)
    assert fit_model(sphere, "cylinder", origin=(-2.0, 0.0), window=np.inf)["rms"] >= 0.1
    cylinder = FlowSnapshot(cylinder_profile(1.0, np.pi, 2, 200), 0.0)
    assert fit_model(cylinder, "sphere", origin=(0.0, 1.0), window=np.inf)["rms"] >= 0.1


@pytest.mark.parametrize("n", [2, 3, 4])
def test_unit_H_shrinkers_score_zero(n):
    # H = 1 makes the sphere S^n of radius n and the cylinder S^(n-1) x R of radius n - 1
    sphere = FlowSnapshot(sphere_profile(float(n), n, 200), 0.0)
    s = sphere.surface
    for j in (0, 37, 100, 163):  # the pole and interior nodes: zc sits at the centre from each
        row = fit_model(sphere, "sphere", origin=(s.z[j], s.r[j]), window=np.inf)
        assert set(row) == {"params", "rms"}
        assert row["params"]["R"] == n and abs(row["params"]["zc"]) < 1e-12
        assert row["rms"] < 1e-12
    cylinder = FlowSnapshot(cylinder_profile(n - 1.0, np.pi, n, 200), 0.0)
    row = fit_model(cylinder, "cylinder", origin=(0.0, n - 1.0), window=np.inf)
    assert set(row) == {"params", "rms"}
    assert row["params"] == {"R": n - 1, "m": n - 1} and row["rms"] < 1e-12
    if n == 2:
        # the unit sphere is not the unit-H sphere, and no free radius fits it
        unit = FlowSnapshot(sphere_profile(1.0, 2, 200), 0.0)
        assert fit_model(unit, "sphere", origin=(-1.0, 0.0), window=np.inf)["rms"] > 0.5


def _sphere_trajectory(ctl_stop=2.0 / 0.05**2):
    from mcfprof.flow import StepControl, run_until
    return run_until(FlowSnapshot(sphere_profile(1.0, 2, 300), 0.0),
                     StepControl(A2_stop=ctl_stop))


def test_normalized_blowup_sphere_is_unit_H_sphere():
    traj = _sphere_trajectory()
    # pole points (on the axis) of the last few snapshots
    points = [(float(s.surface.z[0]), 0.0, s.t) for s in traj.snapshots[-4:]]
    terms = normalized_blowup(traj, points)
    assert all(b.scale > a.scale for a, b in zip(terms, terms[1:]))
    for term in terms:
        assert abs(term.H_origin - 1.0) <= 5.0 * term.center.surface.mean_spacing
        # unit-H sphere has radius n = 2
        row = fit_model(term.center, "sphere", origin=(0.0, 0.0), window=np.inf)
        assert row["rms"] / row["params"]["R"] < 0.01


def test_normalized_blowup_needs_H_above_zero_at_the_centre():
    snap = FlowSnapshot(dumbbell_profile(1.0, 0.05, 8.0, 2, 300), 0.0)
    j = int(np.argmin(snap.curvature.H))
    assert snap.curvature.H[j] < 0.0  # the thin neck
    traj = Trajectory([snap], "t-end", None)
    with pytest.raises(DomainError, match="requires H > 0 at the center point"):
        normalized_blowup(traj, [(float(snap.surface.z[j]), float(snap.surface.r[j]), 0.0)])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_neck_blowup_classifies_cylinder(n, dumbbell_run):
    if n == 2:
        traj = dumbbell_run["traj"]
    else:
        initial = FlowSnapshot(dumbbell_profile(1.0, 0.35, 8.0, n, 400), 0.0)
        traj = run_until(initial, StepControl(A2_stop=2e3 * (n - 1) ** 2, max_nodes=20000))
    points = select_blowup_points(traj, "neck", 4)
    fits = classify_tangent_flow(normalized_blowup(traj, points)[-1])
    assert fits["best"] == "cylinder"
    assert fits["cylinder"]["rms_over_R"] < 3e-2
    assert fits["sphere"]["rms"] > 0.5  # the neck is far from the unit-H sphere


def test_max_curvature_pick_ignores_roundoff():
    # the poles of an up-down symmetric ovaloid tie in |A|^2; the last bits of
    # the cached curvature must not choose between them
    snap = FlowSnapshot(ovaloid_profile(1.0, 0.6, 2, 400), 0.0)
    traj = Trajectory([snap], "t-end", None)
    A2 = snap.curvature.A2
    N = A2.size
    picked = select_blowup_points(traj, "max-curvature", 1)
    assert picked[0][0] == snap.surface.z[0]
    for node in (0, N - 1):
        nudged = A2.copy()
        nudged[node] *= 1.0 + 1e-15  # a few ulps
        snap.curvature.A2 = nudged
        assert select_blowup_points(traj, "max-curvature", 1) == picked


def test_waist_node_finds_neck():
    db = FlowSnapshot(dumbbell_profile(1.0, 0.35, 8.0, 2, 400), 0.0)
    j = waist_node(db, 0.0)
    # the flat waist segment has its strict minima at its shoulders (~|z| = 0.5)
    assert abs(db.surface.r[j] - 0.35) < 0.01
    assert abs(db.surface.z[j]) < 0.8


def test_roundoff_z_of_a_symmetric_neck_is_zero(dumbbell_run):
    """The mirror-symmetric dumbbell pinches at z = 0.0 exactly, not at a roundoff-signed z."""
    traj = dumbbell_run["traj"]
    assert traj.singular_estimate.z == 0.0
    zs = [z for z, _, _ in select_blowup_points(traj, "neck", 5)]
    assert zs[-1] == 0.0
    # a waist between two mirror nodes is half a spacing off the plane, never roundoff
    assert all(z == 0.0 or abs(z) > 1e-6 for z in zs)


def test_asymmetric_neck_keeps_its_z():
    # the benchmark's seed-1 neckpinch datum
    curve = perturb_profile(dumbbell_profile(1.0, 0.35, 8.0, 2, 800), 0.004268728488224803, 3, 1)
    traj = run_until(FlowSnapshot(curve, 0.0), StepControl(A2_stop=2.0e4, max_nodes=20000))
    assert abs(traj.singular_estimate.z + 0.0288) < 1e-3
    assert select_blowup_points(traj, "neck", 1)[0][0] == traj.singular_estimate.z


@pytest.mark.parametrize("curve", [sphere_profile(1.0, 2, 200), ovaloid_profile(1.0, 0.6, 2, 200)],
                         ids=["sphere", "ovaloid"])
def test_neck_rule_without_waist_takes_max_curvature(curve):
    snap = FlowSnapshot(curve, 0.0)
    assert waist_node(snap) is None and waist_node(snap, 0.0) is None
    traj = Trajectory([snap], "t-end", None)
    assert (select_blowup_points(traj, "neck", 1)
            == select_blowup_points(traj, "max-curvature", 1))


@pytest.mark.parametrize("family", ["cylinder", "sphere"])
def test_fit_window_needs_three_nodes(family):
    # windows about node 50 of a uniform sphere that hold 0, 1, 2 and then 3 nodes
    snap = FlowSnapshot(sphere_profile(1.0, 2, 101), 0.0)
    curve = snap.surface
    origin = (float(curve.z[50]), float(curve.r[50]))
    h = float(np.hypot(curve.z[51] - curve.z[50], curve.r[51] - curve.r[50]))
    for count, origin_at, window in ((0, (0.0, 0.5), 0.1), (1, origin, 0.5 * h),
                                     (2, ((curve.z[50] + curve.z[51]) / 2.0,
                                          (curve.r[50] + curve.r[51]) / 2.0), 0.6 * h)):
        with pytest.raises(EmptyWindowError, match=f"holds {count} of the 3 nodes"):
            fit_model(snap, family, origin=origin_at, window=window)
    row = fit_model(snap, family, origin=origin, window=1.5 * h)
    assert np.isfinite(list(row["params"].values()) + [row["rms"]]).all()
