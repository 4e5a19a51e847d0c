"""Time integration: steps, step control, stopping, and flow-order properties."""

import numpy as np
import pytest

from mcfprof.errors import InconclusiveRunError, NumericalBlowupError
from mcfprof.flow import (CASCADE_FACTOR, LANDING_FACTOR, STOP_CURVATURE,
                          STOP_EXTINCTION, STOP_T_END,
                          StepControl, _implicit_step, _solve_tridiagonal,
                          adaptive_dt, run_until, step_axisymmetric, step_graph,
                          verify_mean_convexity)
from mcfprof.geometry import FlowSnapshot, GraphPatch, ProfileCurve, CLOSED
from mcfprof.shapes import cylinder_profile, dumbbell_profile, sphere_profile


def test_one_step_sphere_radius_law():
    snap = FlowSnapshot(sphere_profile(1.0, 2, 400), 0.0)
    dt = 1e-5
    out = step_axisymmetric(snap, dt)
    R2 = out.surface.z**2 + out.surface.r**2
    assert np.abs(R2 - (1.0 - 4.0 * dt)).max() < 1e-9


def test_one_step_cylinder_radius_law():
    snap = FlowSnapshot(cylinder_profile(0.5, np.pi, 2, 400), 0.0)
    dt = 1e-5
    out = step_axisymmetric(snap, dt)
    assert np.abs(out.surface.r**2 - (0.25 - 2.0 * dt)).max() < 1e-9


def test_ambient_dimension_precondition():
    z = np.linspace(0.0, np.pi, 20, endpoint=False)
    flatish = ProfileCurve(z, np.full(20, 5.0), 1, "periodic-in-z", np.pi)
    with pytest.raises(ValueError):
        step_axisymmetric(FlowSnapshot(flatish, 0.0), 1e-5)


def test_adaptive_dt_formula():
    # sphere R=1, n=2, h ~ 0.01, cfl=0.5: h^2/(2n) = 2.5e-5 < 1/(2 max|A|^2) = 0.25
    nodes = int(round(np.pi / 0.01)) + 1
    snap = FlowSnapshot(sphere_profile(1.0, 2, nodes), 0.0)
    dt, under = adaptive_dt(snap, StepControl(cfl=0.5))
    assert not under
    assert abs(dt - 1.25e-5) < 1e-7


def test_adaptive_dt_underflow_flag():
    snap = FlowSnapshot(sphere_profile(1e-5, 2, 64), 0.0)
    dt, under = adaptive_dt(snap, StepControl(dt_min=1e-8))
    assert under and dt == 1e-8


def test_adaptive_dt_flat_patch():
    patch = GraphPatch(np.zeros((16, 16)), 0.1)
    dt, under = adaptive_dt(FlowSnapshot(patch, 0.0), StepControl(cfl=0.5))
    assert not under
    assert abs(dt - 0.5 * 0.1**2 / 4.0) < 1e-15


def test_step_graph_plane_stationary():
    patch = GraphPatch(np.zeros((16, 16)), 0.1)
    out = step_graph(FlowSnapshot(patch, 0.0), 1e-3)
    assert np.array_equal(out.surface.u, patch.u)


def test_step_graph_grim_reaper_translates():
    h = 0.01
    m = int(round(1.2 / h))
    x = -m * h + h * np.arange(2 * m + 1)
    X, _ = np.meshgrid(x, h * np.arange(21), indexing="ij")
    u = -np.log(np.cos(X))
    dt = 1e-5
    out = step_graph(FlowSnapshot(GraphPatch(u, h, (x[0], 0.0)), 0.0), dt)
    err = np.abs(out.surface.u[2:-2, 2:-2] - (u[2:-2, 2:-2] + dt)).max()
    assert err < 10.0 * h**2 * dt


def test_step_graph_radial_bump_max_decreases():
    h = 0.05
    m = 40
    x = -m * h + h * np.arange(2 * m + 1)
    X, Y = np.meshgrid(x, x, indexing="ij")
    u = np.exp(-(X**2 + Y**2))
    out = step_graph(FlowSnapshot(GraphPatch(u, h, (x[0], x[0])), 0.0), 1e-4)
    assert out.surface.u.max() < u.max()


def test_run_until_t_end_exact():
    traj = run_until(FlowSnapshot(sphere_profile(1.0, 2, 100), 0.0),
                     StepControl(t_end=0.01))
    assert traj.stop_reason == STOP_T_END
    assert abs(traj.snapshots[-1].t - 0.01) < 1e-12


def test_run_until_snapshot_times_increasing(sphere_run):
    times = sphere_run["traj"].times
    assert np.all(np.diff(times) > 0.0)
    assert sphere_run["traj"].stop_reason == STOP_CURVATURE
    final = sphere_run["traj"].snapshots[-1]
    assert final.curvature.A2.max() >= 0.9 / 0.03**2  # threshold actually reached


def test_record_times_hit_exactly():
    traj = run_until(FlowSnapshot(sphere_profile(1.0, 2, 100), 0.0),
                     StepControl(t_end=0.02), record_times=[0.005, 0.015])
    times = traj.times
    assert np.abs(times - 0.005).min() < 1e-12
    assert np.abs(times - 0.015).min() < 1e-12


def test_underflow_before_indicator_is_inconclusive():
    with pytest.raises(InconclusiveRunError) as info:
        run_until(FlowSnapshot(sphere_profile(1.0, 2, 100), 0.0),
                  StepControl(dt_min=1.0))
    assert info.value.trajectory is not None
    assert len(info.value.trajectory.snapshots) >= 1


def test_mean_convexity_report(sphere_run):
    rep = verify_mean_convexity(sphere_run["traj"])
    assert rep["all_positive"] and not rep["scheme_failure"]
    # sphere: min H = n/R(t), strictly increasing
    assert np.all(np.diff(rep["min_H"]) > 0.0)


def test_mean_convexity_rejects_nonconvex():
    db = dumbbell_profile(1.0, 0.05, 8.0, 2, 400)  # thin neck: H < 0 there
    snap = FlowSnapshot(db, 0.0)
    assert snap.curvature.H.min() < 0.0
    from mcfprof.flow import Trajectory
    with pytest.raises(ValueError):
        verify_mean_convexity(Trajectory([snap], STOP_T_END, None))


def test_comparison_principle_concentric_spheres():
    ctl = StepControl(t_end=0.12)
    outer = run_until(FlowSnapshot(sphere_profile(1.0, 2, 200), 0.0), ctl)
    inner = run_until(FlowSnapshot(sphere_profile(0.8, 2, 200), 0.0), ctl)
    for so, si in zip(outer.snapshots, inner.snapshots):
        Ro = np.hypot(so.surface.z, so.surface.r).min()
        Ri = np.hypot(si.surface.z, si.surface.r).max()
        assert Ri < Ro  # never cross
    # inner extinction strictly earlier
    Ti = run_until(FlowSnapshot(sphere_profile(0.8, 2, 200), 0.0),
                   StepControl(A2_stop=1e4)).singular_estimate.T
    To = run_until(FlowSnapshot(sphere_profile(1.0, 2, 200), 0.0),
                   StepControl(A2_stop=1e4)).singular_estimate.T
    assert Ti < To
    assert abs(Ti - 0.16) < 0.16 * 0.01


def test_monotone_containment(dumbbell_run):
    # every node of the later surface lies inside the earlier one (H > 0 nesting)
    snaps = dumbbell_run["traj"].snapshots
    for earlier, later in zip(snaps[:4], snaps[1:5]):
        ce = earlier.curvature
        pe = np.column_stack((earlier.surface.z, earlier.surface.r))
        pl = np.column_stack((later.surface.z, later.surface.r))
        idx = np.argmin(((pl[:, None, :] - pe[None, :, :]) ** 2).sum(-1), axis=1)
        signed = np.einsum("ij,ij->i", pl - pe[idx], ce.normal[idx])
        h = earlier.surface.mean_spacing
        assert signed.min() > -10.0 * h**2


def test_extinction_stop():
    # a collapsing cylinder keeps its z-spacing, so the radius crosses the
    # extinction floor before the curvature threshold fires
    traj = run_until(FlowSnapshot(cylinder_profile(1.0, np.pi, 2, 100), 0.0),
                     StepControl(A2_stop=1e30, refine=False))
    assert traj.stop_reason == STOP_EXTINCTION
    assert traj.snapshots[-1].surface.r.max() < 0.1


def test_radius_law_convergence_order():
    errs = []
    for N in (100, 200):
        traj = run_until(FlowSnapshot(sphere_profile(1.0, 2, N), 0.0),
                         StepControl(t_end=0.05))
        final = traj.snapshots[-1]
        R = np.hypot(final.surface.z, final.surface.r)
        errs.append(np.abs(R - np.sqrt(1.0 - 4.0 * final.t)).max())
    assert np.log2(errs[0] / errs[1]) >= 1.9


# ---------------------------------------------------------------------------
# linearly implicit profile step (the step run_until takes on profiles)
# ---------------------------------------------------------------------------

def test_implicit_step_sphere_radius_law():
    curve = sphere_profile(1.0, 2, 400)
    dt = 1e-5
    z, r = _implicit_step(curve.z, curve.r, 2, True, None, dt)
    assert np.abs(z**2 + r**2 - (1.0 - 4.0 * dt)).max() < 1e-9
    assert r[0] == 0.0 and r[-1] == 0.0


def test_implicit_step_cylinder_radius_law():
    curve = cylinder_profile(0.5, np.pi, 2, 400)
    dt = 1e-5
    z, r = _implicit_step(curve.z, curve.r, 2, False, np.pi, dt)
    assert np.abs(r**2 - (0.25 - 2.0 * dt)).max() < 1e-9
    assert np.abs(z - curve.z).max() < 1e-15


@pytest.mark.parametrize("cyclic", [False, True])
def test_tridiagonal_solve_matches_dense(cyclic):
    rng = np.random.default_rng(0)
    N = 12
    lower, upper = rng.uniform(-1.0, 1.0, (2, N))
    diag = 2.5 + rng.uniform(0.0, 1.0, N)
    rhs = rng.normal(size=N)
    dense = np.diag(diag) + np.diag(lower[1:], -1) + np.diag(upper[:-1], 1)
    if cyclic:
        dense[0, -1] = lower[0]
        dense[-1, 0] = upper[-1]
    x = _solve_tridiagonal(lower, diag, upper, rhs, cyclic=cyclic)
    assert np.abs(x - np.linalg.solve(dense, rhs)).max() < 1e-12


@pytest.mark.parametrize("cyclic", [False, True])
def test_singular_step_system_is_numerical_failure(cyclic):
    zeros = np.zeros(4)
    with pytest.raises(NumericalBlowupError):
        _solve_tridiagonal(zeros, np.array([1.0, 0.0, 1.0, 1.0]), zeros, np.ones(4),
                           cyclic=cyclic)


def test_step_budgets(sphere_run, ovaloid_run):
    assert len(sphere_run["traj"].step_times) <= 1000
    assert len(ovaloid_run["traj"].step_times) <= 2000


def test_round_point_singular_point_is_center(ovaloid_run):
    traj = ovaloid_run["traj"]
    assert abs(traj.singular_estimate.z) < traj.snapshots[-1].surface.mean_spacing


def test_coarse_steps_record_every_rung_where_crossed(dumbbell_run):
    """~5 steps per rung still record each rung and the stop just past its level."""
    traj = dumbbell_run["traj"]
    at = dict(zip(traj.step_times, traj.step_maxA2))
    A2 = np.array([at[snap.t] for snap in traj.snapshots])
    rung = np.log(A2[1:-1] / A2[0]) / np.log(CASCADE_FACTOR)
    past = rung - np.arange(1, rung.size + 1)
    assert np.all(past >= 0.0)
    assert np.all(past < np.log(LANDING_FACTOR) / np.log(CASCADE_FACTOR) + 0.01)
    assert 2.0e4 <= A2[-1] < 1.01 * LANDING_FACTOR * 2.0e4
