"""Reference solutions: shrinkers, grim reaper, bowl soliton."""

import numpy as np
import pytest

from mcfprof.errors import DomainError, ExtinctError
from mcfprof.flow import _implicit_step
from mcfprof.models import (CYLINDER, SPHERE, ModelSolution,
                            bowl_patch, bowl_soliton_profile, grim_reaper_eval,
                            grim_reaper_patch, model_snapshot, shrinker_radius,
                            translator_residual)


def test_shrinker_radius_law():
    sphere = ModelSolution(kind=SPHERE, n=2, R0=1.0)
    assert abs(shrinker_radius(sphere, 0.125) - np.sqrt(0.5)) < 1e-14
    assert sphere.extinction_time == 0.25
    with pytest.raises(ExtinctError):
        shrinker_radius(sphere, 0.25)
    cyl = ModelSolution(kind=CYLINDER, n=2, R0=1.0, m=1)
    assert shrinker_radius(cyl, 0.0) == 1.0
    assert cyl.extinction_time == 0.5


def test_cylinder_m_bounds():
    with pytest.raises(ValueError):
        ModelSolution(kind=CYLINDER, n=2, R0=1.0, m=3)


def test_grim_reaper_eval():
    assert grim_reaper_eval(0.0, 0.0) == 0.0
    assert abs(grim_reaper_eval(np.pi / 3, 0.0) - np.log(2.0)) < 1e-14
    assert grim_reaper_eval(0.0, 5.0) == 5.0
    with pytest.raises(DomainError):
        grim_reaper_eval(np.pi / 2, 0.0)


def test_bowl_near_origin_coefficient():
    prof = bowl_soliton_profile(2, 4.0, 1e-2)
    h = prof.r[0]
    assert abs(prof.u[0] / h**2 - 0.25) < h**2


def test_bowl_ode_residual():
    prof = bowl_soliton_profile(2, 4.0, 1e-2)
    assert prof.max_residual < 1e-8


def test_bowl_asymptotic_slope():
    prof = bowl_soliton_profile(2, 50.0, 0.1)
    up_50 = prof.up[-1]
    assert abs(up_50 / 50.0 - 1.0) < 0.03  # u'(r) ~ r/(n-1) for n=2


def test_translator_residual_plane():
    from mcfprof.geometry import GraphPatch
    assert abs(translator_residual(GraphPatch(np.zeros(64), 0.01)) - 1.0) < 1e-14


def test_translator_residual_grim_reaper_and_refinement():
    r1 = translator_residual(grim_reaper_patch(1e-3))
    r2 = translator_residual(grim_reaper_patch(5e-4))
    assert r1 < 1e-5
    assert 3.0 <= r1 / r2 <= 5.0  # O(h^2)


def test_translator_residual_bowl_patch():
    assert translator_residual(bowl_patch(2, 1.0, 0.01)) < 1e-4


def test_model_snapshot_values():
    sphere = model_snapshot(ModelSolution(kind=SPHERE, n=2, R0=1.0), 0.0, nodes=200)
    assert np.abs(sphere.curvature.H - 2.0).max() < 2e-3
    cyl = model_snapshot(ModelSolution(kind=CYLINDER, n=2, R0=1.0, m=1), 0.25, nodes=64)
    assert np.abs(cyl.surface.r - np.sqrt(0.5)).max() < 1e-14
    with pytest.raises(ExtinctError):
        model_snapshot(ModelSolution(kind=SPHERE, n=2, R0=1.0), 0.3)


def test_shrinker_snapshot_tracks_analytic_flow():
    model = ModelSolution(kind=SPHERE, n=2, R0=1.0)
    snap = model_snapshot(model, 0.0, nodes=200)
    h_min = snap.surface.spacings().min()
    dt = 0.8 * h_min**2 / 4.0  # the explicit stability bound h²/(2n)
    z, r = snap.surface.z, snap.surface.r
    for _ in range(50):
        z, r = _implicit_step(z, r, 2, True, None, dt)
    R_num = np.hypot(z, r)
    R_exact = shrinker_radius(model, 50 * dt)
    h = snap.surface.mean_spacing
    assert np.abs(R_num - R_exact).max() < 10.0 * (h**2 + dt)
