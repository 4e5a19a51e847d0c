"""Time integration: steps, step control, stopping, and flow-order properties."""

import numpy as np
import pytest
from scipy.linalg import solve_banded

from mcfprof import flow
from mcfprof.errors import NumericalBlowupError
from mcfprof.flow import (CASCADE_FACTOR, GRADING_FACTOR, LANDING_FACTOR,
                          STOP_CURVATURE, STOP_EXTINCTION, STOP_T_END, STOP_UNDERFLOW,
                          ExtrapolatedStep, StepControl, _implicit_step, _pinched, _step_operator,
                          run_until, target_spacing)
from mcfprof.geometry import (FlowSnapshot, ProfileCurve, CLOSED,
                              _solve_tridiagonal, curvature_axisymmetric,
                              principal_curvatures, profile_derivatives, resample_arclength)
from mcfprof.shapes import (cylinder_profile, dumbbell_profile, ovaloid_profile,
                            perturb_profile, sphere_profile)


def test_ambient_dimension_precondition():
    z = np.linspace(0.0, np.pi, 20, endpoint=False)
    flatish = ProfileCurve(z, np.full(20, 5.0), 1, "periodic-in-z", np.pi)
    with pytest.raises(ValueError):
        run_until(FlowSnapshot(flatish, 0.0), StepControl(t_end=1e-5))
    with pytest.raises(TypeError):
        run_until(FlowSnapshot(np.zeros((16, 2)), 0.0), StepControl(t_end=1e-5))


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


def test_underflow_before_indicator_is_inconclusive():
    traj = run_until(FlowSnapshot(sphere_profile(1.0, 2, 100), 0.0), StepControl(dt_min=1.0))
    assert traj.stop_reason == STOP_UNDERFLOW
    assert traj.singular_estimate is None
    assert len(traj.snapshots) >= 1


def test_pinch_guard_retries_at_half_the_step(monkeypatch):
    """A step that pinches is retried at exactly half its dt, and the run goes on."""
    tried = []

    def pinch_once(z, r, n, closed, period, dt, op=None):
        tried.append(dt)
        if len(tried) == 1:
            return None  # pinched
        return _implicit_step(z, r, n, closed, period, dt, op)

    monkeypatch.setattr(flow, "_implicit_step", pinch_once)
    traj = run_until(FlowSnapshot(sphere_profile(1.0, 2, 100), 0.0), StepControl(t_end=0.01))
    assert traj.stop_reason == STOP_T_END
    assert tried[1] == 0.5 * tried[0]
    assert traj.step_times[1] - traj.step_times[0] == tried[1]


def test_pinch_guard_underflows_when_every_step_pinches(monkeypatch):
    def always_pinch(*args, **kwargs):
        return None  # pinched

    monkeypatch.setattr(flow, "_implicit_step", always_pinch)
    traj = run_until(FlowSnapshot(sphere_profile(1.0, 2, 100), 0.0), StepControl(t_end=0.01))
    assert traj.stop_reason == STOP_UNDERFLOW
    assert traj.singular_estimate is None


@pytest.mark.parametrize("shape", ["cylinder", "dumbbell"])
def test_implicit_step_returns_none_on_a_pinch(shape):
    """A step past the extinction of the neck is no state: it returns None, as the reference does."""
    curve = STEP_SHAPES[shape]()
    args = (curve.z, curve.r, curve.n, curve.topology == CLOSED, curve.period, 0.5)
    assert _implicit_step(*args) is None
    assert _reference_implicit_step(*args) is None


@pytest.mark.parametrize("shape", ["sphere-n2", "perturbed-cylinder"])
def test_pinched_half_step_returns_none(monkeypatch, shape):
    """A half step that puts a node on the axis ends the step there, with no second half."""
    euler = flow._implicit_euler
    calls = []

    def pinching(z, r, op, closed, dt):
        new = euler(z, r, op, closed, dt)
        calls.append(dt)
        if len(calls) == 2:  # the first half step
            new[1][5] = 0.0
        return new

    monkeypatch.setattr(flow, "_implicit_euler", pinching)
    curve = STEP_SHAPES[shape]()
    assert _implicit_step(curve.z, curve.r, curve.n, curve.topology == CLOSED, curve.period,
                          1e-4) is None
    assert len(calls) == 2


def test_mean_convexity_report(sphere_run):
    min_H = np.array([s.curvature.H.min() for s in sphere_run["traj"].snapshots])
    assert np.all(min_H > 0.0)
    # sphere: min H = n/R(t), strictly increasing
    assert np.all(np.diff(min_H) > 0.0)


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


def test_fit_singular_time_ignores_an_earlier_spike():
    # 1/|A|^2 = 1 - t is exact, so the trailing decade fits T = 1; a spike
    # inside the last decade's value range must not join the fit
    t = 1.0 - np.logspace(0.0, -4.0, 200)
    a = 1.0 / (1.0 - t)
    a[20:30] = 5e3
    assert abs(flow._fit_singular_time(t, a) - 1.0) < 1e-9


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_node_demand_past_float_range_is_numerical_failure():
    # refine_target 1e-308 asks for ~1e307 nodes on each of 32 segments: the
    # demand sums to inf, and the run reports a numerical failure, not an OverflowError
    with pytest.raises(NumericalBlowupError):
        run_until(FlowSnapshot(cylinder_profile(1.0, np.pi, 2, 32), 0.0),
                  StepControl(refine_target=1e-308, max_nodes=64, t_end=1e-4))


def test_radius_law_convergence_order():
    errs = []
    # from N = 200 on, the h-term of the step rule binds, so dt is proportional to h
    for N in (200, 400):
        traj = run_until(FlowSnapshot(sphere_profile(1.0, 2, N), 0.0),
                         StepControl(t_end=0.05))
        final = traj.snapshots[-1]
        R = np.hypot(final.surface.z, final.surface.r)
        errs.append(np.abs(R - np.sqrt(1.0 - 4.0 * final.t)).max())
    assert np.log2(errs[0] / errs[1]) >= 1.9


def test_singular_time_error_is_fourth_order_in_the_step(monkeypatch):
    """Halving CFL halves every step on a round sphere: T's error falls ~2^4-fold.

    The geometric error is used, since node-wise state differences keep a ratio
    near 1 at any order (stiff modes, tangential drift); a third-order step gives 7.7.
    """
    errs = []
    for cfl in (3.2, 1.6):
        monkeypatch.setattr(flow, "CFL", cfl)
        traj = run_until(FlowSnapshot(sphere_profile(1.0, 2, 400), 0.0),
                         StepControl(A2_stop=2.0 / 0.03**2))
        errs.append(abs(traj.singular_estimate.T - 0.25) / 0.25)  # T = R0^2 / 4
    assert errs[0] / errs[1] >= 12.0


def test_step_error_estimate_is_fourth_order(monkeypatch):
    """Halving CFL from its default on a round sphere divides the run's largest
    scale-free step error estimate ~2^4-fold."""
    est = []
    for cfl in (flow.CFL, 0.5 * flow.CFL):
        monkeypatch.setattr(flow, "CFL", cfl)
        traj = run_until(FlowSnapshot(sphere_profile(1.0, 2, 400), 0.0),
                         StepControl(A2_stop=2.0 / 0.03**2))
        est.append(traj.stats["step_error_max"])
    assert 12.0 <= est[0] / est[1] <= 20.0


def test_relanding_keeps_rungs_in_their_landing_window(monkeypatch, dumbbell_run):
    """Without the re-landing, a coarse dumbbell step lands a rung past its window."""
    assert dumbbell_run["traj"].stats["relandings"] >= 1
    monkeypatch.setattr(flow, "RELANDING_FACTOR", np.inf)
    traj = run_until(FlowSnapshot(dumbbell_profile(1.0, 0.35, 8.0, 2, 800), 0.0),
                     StepControl(A2_stop=2.0e4, max_nodes=20000))
    assert traj.stats["relandings"] == 0
    at = dict(zip(traj.step_times, traj.step_maxA2))
    A2 = np.array([at[snap.t] for snap in traj.snapshots[1:-1]])
    past = np.log(A2 / traj.step_maxA2[0]) / np.log(CASCADE_FACTOR) - np.arange(1, A2.size + 1)
    assert past.max() > np.log(LANDING_FACTOR) / np.log(CASCADE_FACTOR) + 0.01


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
# reference: the step with one stencil pass per coordinate and Euler step, the
# curvature of the step rule in a pass of its own, and banded solves through
# solve_banded
# ---------------------------------------------------------------------------

def _reference_profile_derivatives(z, r, closed, period):
    if closed:
        zp = np.concatenate(([z[1]], z, [z[-2]]))
        rp = np.concatenate(([-r[1]], r, [-r[-2]]))
    else:
        zp = np.concatenate(([z[-1] - period], z, [z[0] + period]))
        rp = np.concatenate(([r[-1]], r, [r[0]]))
    seg = np.hypot(np.diff(zp), np.diff(rp))
    hm = seg[:-1]
    hp = seg[1:]
    denom = hm * hp * (hm + hp)
    hm2 = hm * hm
    hp2 = hp * hp
    z_s = (hm2 * zp[2:] + (hp2 - hm2) * zp[1:-1] - hp2 * zp[:-2]) / denom
    r_s = (hm2 * rp[2:] + (hp2 - hm2) * rp[1:-1] - hp2 * rp[:-2]) / denom
    z_ss = 2.0 * (hm * zp[2:] - (hm + hp) * zp[1:-1] + hp * zp[:-2]) / denom
    r_ss = 2.0 * (hm * rp[2:] - (hm + hp) * rp[1:-1] + hp * rp[:-2]) / denom
    return z_s, r_s, z_ss, r_ss, seg


def _reference_max_A2_spacings(z, r, n, closed, period):
    z_s, r_s, z_ss, r_ss, seg = _reference_profile_derivatives(z, r, closed, period)
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
    z_s, r_s, z_ss, r_ss, seg = _reference_profile_derivatives(z, r, closed, period)
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


def _reference_euler_run(z, r, n, closed, period, dt, m):
    """m reference Euler substeps of dt/m; None when a substep state is pinched."""
    h = dt / m
    z, r = _reference_implicit_euler(z, r, n, closed, period, h)
    for _ in range(m - 1):
        if _pinched(r, closed):
            return None
        z, r = _reference_implicit_euler(z, r, n, closed, period, h)
    return z, r


def _reference_implicit_step(z, r, n, closed, period, dt):
    runs = [_reference_euler_run(z, r, n, closed, period, dt, m) for m in (1, 2, 3, 4)]
    if any(run is None for run in runs):
        return None
    (z1, r1), (z2, r2), (z3, r3), (z4, r4) = runs
    z_3 = z3 + 3.5 * (z3 - z2) - 0.5 * (z2 - z1)
    r_3 = r3 + 3.5 * (r3 - r2) - 0.5 * (r2 - r1)
    z_new = z4 + 29.0 / 3.0 * (z4 - z3) - 23.0 / 6.0 * (z3 - z2) + 1.0 / 6.0 * (z2 - z1)
    r_new = r4 + 29.0 / 3.0 * (r4 - r3) - 23.0 / 6.0 * (r3 - r2) + 1.0 / 6.0 * (r2 - r1)
    if _pinched(r_3, closed) or _pinched(r_new, closed):
        return None
    step = ExtrapolatedStep((z_new, r_new))
    step.error = max(np.abs(z_new - z_3).max(), np.abs(r_new - r_3).max())
    return step


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
    _, A2, ds = _step_operator(*args)
    max_A2, ds_ref = _reference_max_A2_spacings(*args)
    assert A2.max() == max_A2 and np.array_equal(ds, ds_ref)
    # one curvature kernel: the diagnostics read the step rule's |A|^2
    assert np.array_equal(curvature_axisymmetric(curve).A2, A2)


@pytest.mark.parametrize("shape", sorted(STEP_SHAPES))
def test_step_error_estimate_equals_reference(shape):
    curve = STEP_SHAPES[shape]()
    args = (curve.z, curve.r, curve.n, curve.topology == CLOSED, curve.period, 2e-3)
    step = _implicit_step(*args)
    assert step.error > 0.0 and step.error == _reference_implicit_step(*args).error


@pytest.mark.parametrize("shape", sorted(STEP_SHAPES))
def test_profile_derivatives_equal_reference(shape):
    curve = STEP_SHAPES[shape]()
    args = (curve.z, curve.r, curve.topology == CLOSED, curve.period)
    for got, ref in zip(profile_derivatives(*args), _reference_profile_derivatives(*args),
                        strict=True):
        assert np.array_equal(got, ref)


# the step rules of the whole-run comparison: the dumbbell respaces and refines
WHOLE_RUNS = {
    "sphere-n2": StepControl(A2_stop=1e3),
    "sphere-n3": StepControl(A2_stop=1e3),
    "dumbbell": StepControl(A2_stop=2.0e4, max_nodes=20000),
    "perturbed-cylinder": StepControl(A2_stop=1e3),
}


@pytest.mark.parametrize("shape", sorted(WHOLE_RUNS))
def test_run_equals_reference_run(monkeypatch, shape):
    """A whole run with the shipped step equals one with the reference step, bit for bit."""
    initial = FlowSnapshot(STEP_SHAPES[shape](), 0.0)
    traj = run_until(initial, WHOLE_RUNS[shape])
    monkeypatch.setattr(flow, "_implicit_step", lambda z, r, n, closed, period, dt, op:
                        _reference_implicit_step(z, r, n, closed, period, dt))
    ref = run_until(initial, WHOLE_RUNS[shape])
    assert traj.stop_reason == ref.stop_reason == STOP_CURVATURE
    assert np.array_equal(traj.step_times, ref.step_times)
    assert np.array_equal(traj.step_maxA2, ref.step_maxA2)
    assert len(traj.snapshots) == len(ref.snapshots)
    for snap, snap_ref in zip(traj.snapshots, ref.snapshots):
        assert snap.t == snap_ref.t
        assert np.array_equal(snap.surface.z, snap_ref.surface.z)
        assert np.array_equal(snap.surface.r, snap_ref.surface.r)
    if shape == "dumbbell":
        assert traj.stats["respaces"] > 0 and traj.stats["refinements"] > 0


@pytest.mark.parametrize("shape, coord", [("sphere-n2", 0), ("perturbed-cylinder", 1)])
def test_non_finite_half_step_is_numerical_failure(monkeypatch, shape, coord):
    """A NaN node in the half-step state, which assembles no curvature, still fails the step."""
    euler = flow._implicit_euler
    calls = []

    def poisoned(z, r, op, closed, dt):
        new = euler(z, r, op, closed, dt)
        calls.append(dt)
        if len(calls) == 2:  # the first half step
            new[coord][5] = np.nan
        return new

    monkeypatch.setattr(flow, "_implicit_euler", poisoned)
    curve = STEP_SHAPES[shape]()
    with pytest.raises(NumericalBlowupError):
        _implicit_step(curve.z, curve.r, curve.n, curve.topology == CLOSED, curve.period, 1e-4)
    assert len(calls) == 2


@pytest.mark.parametrize("cyclic, N", [(False, 2), (False, 3), (False, 400),
                                        (True, 3), (True, 400)])
def test_tridiagonal_solve_equals_solve_banded(cyclic, N):
    rng = np.random.default_rng(N)
    lower, upper = rng.uniform(-1.0, 1.0, (2, N))
    diag = 2.5 + rng.uniform(0.0, 1.0, N)
    rhs = rng.normal(size=N)
    x = _solve_tridiagonal(lower, diag, upper, rhs, cyclic=cyclic)
    assert np.array_equal(x, _reference_solve_tridiagonal(lower, diag, upper, rhs, cyclic=cyclic))


def test_seven_stencil_passes_per_step(monkeypatch):
    """One operator assembly at the settled curve, one at each of the six inner substep states.

    The step rule and the first substep of every Euler run share the first; a
    re-landing redoes a whole step.
    """
    calls = []

    def counted(*args):
        calls.append(args)
        return profile_derivatives(*args)

    monkeypatch.setattr(flow, "profile_derivatives", counted)
    traj = run_until(FlowSnapshot(sphere_profile(1.0, 2, 400), 0.0), StepControl(A2_stop=1e3))
    assert len(calls) <= 7 * (len(traj.step_times) + traj.stats["relandings"])


def test_one_curvature_block_per_step(monkeypatch):
    """Only settled curves assemble curvature: once per step, respacing and the start."""
    calls = []

    def counted(*args):
        calls.append(args)
        return principal_curvatures(*args)

    monkeypatch.setattr(flow, "principal_curvatures", counted)
    traj = run_until(FlowSnapshot(sphere_profile(1.0, 2, 400), 0.0), StepControl(A2_stop=1e3))
    stats = traj.stats
    assert stats["steps"] > 0
    assert len(calls) <= stats["steps"] + stats["respaces"] + stats["refinements"] + 1


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


def test_doubled_dumbbell_is_exactly_dilated(dumbbell_run):
    """Parabolic scaling: lengths x2, A2_stop / 4 and dt_min x 4 give every snapshot
    exactly x2 in z and r and x4 in t, with the same run counters."""
    curve = dumbbell_profile(1.0, 0.35, 8.0, 2, 800)
    doubled = ProfileCurve(2.0 * curve.z, 2.0 * curve.r, curve.n, curve.topology)
    ctl = StepControl(A2_stop=2.0e4 / 4.0, dt_min=4.0 * StepControl.dt_min, max_nodes=20000)
    traj = dumbbell_run["traj"]
    big = run_until(FlowSnapshot(doubled, 0.0), ctl)
    assert big.stop_reason == traj.stop_reason and big.stats == traj.stats
    assert len(big.snapshots) == len(traj.snapshots)
    for snap, snap2 in zip(traj.snapshots, big.snapshots):
        assert snap2.t == 4.0 * snap.t
        assert np.array_equal(snap2.surface.z, 2.0 * snap.surface.z)
        assert np.array_equal(snap2.surface.r, 2.0 * snap.surface.r)


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
