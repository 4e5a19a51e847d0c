"""Time integration: steps, step control, stopping, and flow-order properties."""

import numpy as np
import pytest
from scipy.linalg import solve_banded

from mcfprof import flow
from mcfprof.errors import InconclusiveRunError, NeckPinchError, NumericalBlowupError
from mcfprof.flow import (CASCADE_FACTOR, GRADING_FACTOR, LANDING_FACTOR,
                          STOP_CURVATURE, STOP_EXTINCTION, STOP_T_END,
                          StepControl, _implicit_step, _pinched,
                          _solve_tridiagonal, _step_operator, run_until,
                          target_spacing, verify_mean_convexity)
from mcfprof.geometry import (FlowSnapshot, GraphPatch, ProfileCurve, CLOSED,
                              curvature_axisymmetric, profile_derivatives,
                              resample_arclength)
from mcfprof.shapes import (cylinder_profile, dumbbell_profile, ovaloid_profile,
                            perturb_profile, sphere_profile)


def test_ambient_dimension_precondition():
    z = np.linspace(0.0, np.pi, 20, endpoint=False)
    flatish = ProfileCurve(z, np.full(20, 5.0), 1, "periodic-in-z", np.pi)
    with pytest.raises(ValueError):
        run_until(FlowSnapshot(flatish, 0.0), StepControl(t_end=1e-5))
    with pytest.raises(TypeError):
        run_until(FlowSnapshot(GraphPatch(np.zeros(16), 0.1), 0.0), StepControl(t_end=1e-5))


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
        h = earlier.surface.spacings().min()
        assert signed.min() > -10.0 * h**2


def test_extinction_stop():
    # a collapsing cylinder held at its 100 nodes keeps its z-spacing, so the
    # radius crosses the extinction floor before the curvature threshold fires
    traj = run_until(FlowSnapshot(cylinder_profile(1.0, np.pi, 2, 100), 0.0),
                     StepControl(A2_stop=1e30, max_nodes=100))
    assert traj.stop_reason == STOP_EXTINCTION
    assert traj.snapshots[-1].surface.r.max() < 0.1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_node_demand_past_float_range_is_numerical_failure():
    # refine_target 1e-308 asks for ~1e307 nodes on each of 32 segments: the
    # demand sums to inf, and the run reports a numerical failure, not an OverflowError
    with pytest.raises(NumericalBlowupError):
        run_until(FlowSnapshot(cylinder_profile(1.0, np.pi, 2, 32), 0.0),
                  StepControl(refine_target=1e-308, max_nodes=64, t_end=1e-4))


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


# ---------------------------------------------------------------------------
# reference: the step with one stencil pass per Euler step, the curvature of
# the step rule in a pass of its own, and banded solves through solve_banded
# ---------------------------------------------------------------------------

def _reference_max_A2_spacings(z, r, n, closed, period):
    z_s, r_s, z_ss, r_ss, seg = profile_derivatives(z, r, closed, period)
    w2 = z_s * z_s + r_s * r_s
    w = np.sqrt(w2)
    lam_axial = (z_ss * r_s - r_ss * z_s) / (w2 * w)
    lam_rot = np.empty_like(lam_axial)
    if closed:
        np.divide(z_s[1:-1], r[1:-1] * w[1:-1], out=lam_rot[1:-1])
        lam_rot[0] = lam_axial[0]
        lam_rot[-1] = lam_axial[-1]
        ds = seg[1:-1]
    else:
        np.divide(z_s, r * w, out=lam_rot)
        ds = seg[1:]
    A2 = lam_axial * lam_axial + (n - 1) * lam_rot * lam_rot
    return float(A2.max()), ds


def _reference_solve_tridiagonal(lower, diag, upper, rhs, cyclic=False):
    if cyclic:
        gamma = -diag[0]
        diag = diag.copy()
        diag[0] -= gamma
        diag[-1] -= lower[0] * upper[-1] / gamma
        u = np.zeros_like(rhs)
        u[0] = gamma
        u[-1] = upper[-1]
        rhs = np.column_stack((rhs, u))
    ab = np.zeros((3, diag.size))
    ab[0, 1:] = upper[:-1]
    ab[1] = diag
    ab[2, :-1] = lower[1:]
    try:
        x = solve_banded((1, 1), ab, rhs, overwrite_ab=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalBlowupError(f"singular implicit step system: {exc}") from exc
    if cyclic:
        y, w = x.T
        v_last = lower[0] / gamma
        x = y - (y[0] + v_last * y[-1]) / (1.0 + w[0] + v_last * w[-1]) * w
    if not np.all(np.isfinite(x)):
        raise NumericalBlowupError("non-finite solution of the implicit step system")
    return x


def _reference_implicit_euler(z, r, n, closed, period, dt):
    z_s, r_s, z_ss, r_ss, seg = profile_derivatives(z, r, closed, period)
    hm = seg[:-1]
    hp = seg[1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        p = (n - 1) * r_s / r
        q = (n - 1) / (r * r)
        lower = (2.0 - p * hp) / (hm * (hm + hp))
        upper = (2.0 + p * hm) / (hp * (hm + hp))
        diag = -(lower + upper)
        f_z = z_ss + p * z_s
        f_r = r_ss + p * r_s - q * r
    if closed:
        c_first = 2.0 * n / seg[0] ** 2
        c_last = 2.0 * n / seg[-1] ** 2
        diag[0], upper[0] = -c_first, c_first
        diag[-1], lower[-1] = -c_last, c_last
        f_z[0] = n * z_ss[0]
        f_z[-1] = n * z_ss[-1]
    lo = -dt * lower
    up = -dt * upper
    a_z = 1.0 - dt * diag
    a_r = a_z + dt * q
    if not closed:
        return (z + _reference_solve_tridiagonal(lo, a_z, up, dt * f_z, cyclic=True),
                r + _reference_solve_tridiagonal(lo, a_r, up, dt * f_r, cyclic=True))
    dr = np.zeros_like(r)
    dr[1:-1] = _reference_solve_tridiagonal(lo[1:-1], a_r[1:-1], up[1:-1], dt * f_r[1:-1])
    return z + _reference_solve_tridiagonal(lo, a_z, up, dt * f_z), r + dr


def _reference_implicit_step(z, r, n, closed, period, dt):
    z_full, r_full = _reference_implicit_euler(z, r, n, closed, period, dt)
    z_half, r_half = _reference_implicit_euler(z, r, n, closed, period, 0.5 * dt)
    if _pinched(r_half, closed):
        raise NeckPinchError("r <= 0 at an interior node after a half step")
    z_half, r_half = _reference_implicit_euler(z_half, r_half, n, closed, period, 0.5 * dt)
    z_new = 2.0 * z_half - z_full
    r_new = 2.0 * r_half - r_full
    if _pinched(r_new, closed):
        raise NeckPinchError("r <= 0 at an interior node after the step")
    return z_new, r_new


STEP_SHAPES = {
    "sphere-n2": lambda: sphere_profile(1.0, 2, 300),
    "sphere-n3": lambda: sphere_profile(0.7, 3, 401),
    "ovaloid": lambda: ovaloid_profile(1.0, 0.6, 2, 400),
    "dumbbell": lambda: dumbbell_profile(1.0, 0.35, 8.0, 2, 800),
    "perturbed-dumbbell": lambda: perturb_profile(dumbbell_profile(1.0, 0.35, 8.0, 2, 800),
                                                  0.01, 3, 1),
    "cylinder": lambda: cylinder_profile(0.5, np.pi, 2, 300),
    "perturbed-cylinder": lambda: perturb_profile(cylinder_profile(1.0, np.pi, 2, 400),
                                                  0.05, 3, 2),
}


@pytest.mark.parametrize("dt", [1e-5, 2e-3])
@pytest.mark.parametrize("shape", sorted(STEP_SHAPES))
def test_implicit_step_equals_reference(shape, dt):
    curve = STEP_SHAPES[shape]()
    args = (curve.z, curve.r, curve.n, curve.topology == CLOSED, curve.period)
    z, r = _implicit_step(*args, dt)
    z_ref, r_ref = _reference_implicit_step(*args, dt)
    assert np.array_equal(z, z_ref) and np.array_equal(r, r_ref)
    op = _step_operator(*args)
    max_A2, ds = _reference_max_A2_spacings(*args)
    assert op.max_A2 == max_A2 and np.array_equal(op.ds, ds)
    # one curvature kernel: the diagnostics read the step rule's max|A|^2
    assert curvature_axisymmetric(curve).A2.max() == op.max_A2


@pytest.mark.parametrize("cyclic, N", [(False, 2), (False, 3), (False, 400),
                                        (True, 3), (True, 400)])
def test_tridiagonal_solve_equals_solve_banded(cyclic, N):
    rng = np.random.default_rng(N)
    lower, upper = rng.uniform(-1.0, 1.0, (2, N))
    diag = 2.5 + rng.uniform(0.0, 1.0, N)
    rhs = rng.normal(size=N)
    x = _solve_tridiagonal(lower, diag, upper, rhs, cyclic=cyclic)
    assert np.array_equal(x, _reference_solve_tridiagonal(lower, diag, upper, rhs, cyclic=cyclic))


def test_two_stencil_passes_per_step(monkeypatch):
    """The step rule and the full and first half step share one operator assembly."""
    calls = []

    def counted(*args):
        calls.append(args)
        return profile_derivatives(*args)

    monkeypatch.setattr(flow, "profile_derivatives", counted)
    traj = run_until(FlowSnapshot(sphere_profile(1.0, 2, 400), 0.0), StepControl(A2_stop=1e3))
    assert len(calls) <= 2 * len(traj.step_times)


# ---------------------------------------------------------------------------
# curvature-graded respacing
# ---------------------------------------------------------------------------

def _dumbbell_targets(traj):
    """Each snapshot's spacings and graded targets (h0: the fixture's initial mean spacing)."""
    h0 = dumbbell_profile(1.0, 0.35, 8.0, 2, 800).mean_spacing
    for snap in traj.snapshots:
        yield snap.surface.spacings(), target_spacing(snap.curvature.A2, h0, 0.15, False)


def test_graded_mesh_meets_local_target(dumbbell_run):
    for ds, delta in _dumbbell_targets(dumbbell_run["traj"]):
        assert np.all(ds <= 1.25 * delta * (1.0 + 1e-12))


def test_graded_mesh_neighbour_ratio(dumbbell_run):
    # targets of neighbouring segments differ by at most GRADING_FACTOR; the
    # spacings may drift 5% further while the flow moves between respacings
    for ds, delta in _dumbbell_targets(dumbbell_run["traj"]):
        assert np.all(delta[1:] / delta[:-1] <= GRADING_FACTOR * (1.0 + 1e-12))
        assert np.all(delta[:-1] / delta[1:] <= GRADING_FACTOR * (1.0 + 1e-12))
        ratio = ds[1:] / ds[:-1]
        assert max(ratio.max(), 1.0 / ratio.min()) <= 1.05 * GRADING_FACTOR


def test_graded_mesh_node_total(dumbbell_run):
    # uniform refinement to the neck's spacing stored 53,630 nodes here
    snaps = dumbbell_run["traj"].snapshots
    assert sum(snap.surface.num_nodes for snap in snaps) <= 25000
    assert snaps[-1].surface.num_nodes > snaps[0].surface.num_nodes


def test_run_stats_match_trajectory(dumbbell_run):
    traj = dumbbell_run["traj"]
    stats = traj.stats
    assert stats["steps"] == len(traj.step_times) - 1
    nodes = np.array([snap.surface.num_nodes for snap in traj.snapshots])
    assert np.all(np.diff(nodes) >= 0)  # N never falls
    # each rise of the node count between snapshots needs a refinement
    assert np.count_nonzero(np.diff(nodes)) <= stats["refinements"]
    assert stats["respaces"] >= 1
    assert stats["respaces"] + stats["refinements"] <= stats["steps"] + 1


def test_round_sphere_never_respaces(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return resample_arclength(*args, **kwargs)

    monkeypatch.setattr(flow, "resample_arclength", counted)
    traj = run_until(FlowSnapshot(sphere_profile(1.0, 2, 400), 0.0),
                     StepControl(A2_stop=2.0 / 0.03**2))
    assert traj.stop_reason == STOP_CURVATURE
    assert calls == []
    assert traj.stats["respaces"] == traj.stats["refinements"] == 0
