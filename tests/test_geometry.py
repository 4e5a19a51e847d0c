"""Curvature operators, resampling, and carrier invariants."""

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from mcfprof.errors import DegenerateSurfaceError, ResolutionError
from mcfprof.geometry import (CLOSED, PERIODIC, FlowSnapshot, ProfileCurve, cubic_spline,
                              curvature_axisymmetric, resample_arclength)
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
    assert np.abs(c.lam - 1.0).max() < 5e-4
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
        assert c.lam[:, 1].max() - c.lam[:, 0].min() < 5.0 * h**2


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
    scale = np.maximum(np.abs(c.lam).sum(axis=1), 1e-30)
    assert np.abs(c.H - c.lam.sum(axis=1)).max() / scale.max() < 1e-13
    assert np.all(c.A2 >= c.H**2 / curve.n - 1e-12)
    assert np.all(np.abs(np.linalg.norm(c.normal, axis=1) - 1.0) < 1e-12)
    assert np.all(np.diff(c.lam, axis=1) >= 0.0)


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


def test_snapshot_curvature_cached_and_consistent():
    snap = FlowSnapshot(sphere_profile(1.0, 2, 64), 0.0)
    c1 = snap.curvature
    assert snap.curvature is c1
    c2 = curvature_axisymmetric(snap.surface)
    assert np.array_equal(c1.H, c2.H)
