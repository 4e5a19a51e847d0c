"""Time integration of mean curvature flow for profile curves.

Profiles advance by a linearly implicit step: z_t = Δz and r_t = Δr - (n-1)/r,
with Δ the Laplace-Beltrami operator frozen at the current curve, one
tridiagonal solve per coordinate, and Richardson extrapolation to second order
in time.  The integrator detects the approach to the first singular time via
curvature blow-up and records a snapshot cascade accumulating there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np
from scipy.linalg.lapack import dgtsv

from .errors import InconclusiveRunError, NeckPinchError, NumericalBlowupError
from .geometry import (CLOSED, FlowSnapshot, ProfileCurve, max_curvature_node,
                       principal_curvatures, profile_derivatives, resample_arclength)

STOP_CURVATURE = "curvature-threshold"
STOP_EXTINCTION = "extinction"
STOP_T_END = "t-end"
STOP_UNDERFLOW = "step-underflow"

# snapshot cascade: record whenever max|A|^2 first crosses the next rung of a
# geometric ladder with this factor (type-I blow-up then makes T - t shrink
# geometrically between recorded snapshots)
CASCADE_FACTOR = np.sqrt(2.0)
MAX_CASCADE_SNAPSHOTS = 240

# profile step: dt = CFL * min(h_min / sqrt(max|A|^2), STEP_K / max|A|^2).  The
# h-term keeps dt proportional to h, so the scheme converges at second order in
# h; the curvature term stops refined meshes from taking steps so large that
# the cascade skips rungs.
CFL = 0.8
STEP_K = 0.05
# a step that would carry max|A|^2 past the next rung (or A2_stop) is shortened
# to end at this multiple of it, so every run records its rungs and its final
# snapshot at the same curvature levels however coarse its steps are
LANDING_FACTOR = 1.02
# graded respacing: the target spacings of neighbouring segments differ by at
# most this factor, so the neck's fine spacing blends into the coarse bulbs
GRADING_FACTOR = 1.1
RESAMPLE_RATIO = 2.0  # respace at the node count past this max/min of spacing/target


@dataclass
class StepControl:
    """Stopping parameters and the resolution of the graded mesh."""

    dt_min: float = 1e-13
    A2_stop: float = 1e4
    t_end: Optional[float] = None
    # keep the spacing <= refine_target / |A| locally, never coarser than the initial curve
    refine_target: float = 0.15
    max_nodes: int = 20000


@dataclass
class SingularEstimate:
    z: float
    rho: float
    T: float


@dataclass
class Trajectory:
    """Time-ordered snapshots plus singularity metadata."""

    snapshots: list
    stop_reason: str
    singular_estimate: Optional[SingularEstimate]
    step_times: np.ndarray = field(default_factory=lambda: np.empty(0))
    step_maxA2: np.ndarray = field(default_factory=lambda: np.empty(0))
    underflow: bool = False
    # run counters: steps taken, respacings at the same node count, refinements
    stats: dict = field(default_factory=dict)

    @property
    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.snapshots])

    def nearest_snapshot(self, t: float) -> FlowSnapshot:
        return self.snapshots[int(np.argmin(np.abs(self.times - t)))]


def _fit_singular_time(times, maxA2) -> Optional[float]:
    """Least-squares affine fit of 1/max|A|^2 vs t over the final decade; root is T."""
    times = np.asarray(times)
    maxA2 = np.asarray(maxA2)
    if times.size < 8 or maxA2[-1] <= 0:
        return None
    mask = maxA2 >= maxA2[-1] / 10.0
    if mask.sum() < 4:
        mask = np.zeros_like(mask)
        mask[-4:] = True
    tt = times[mask]
    yy = 1.0 / maxA2[mask]
    A = np.column_stack((np.ones_like(tt), tt))
    (alpha, beta), *_ = np.linalg.lstsq(A, yy, rcond=None)
    if beta >= 0.0:
        return None
    return float(-alpha / beta)


def _solve_tridiagonal(lower, diag, upper, rhs, cyclic=False):
    """Solve lower[i] x[i-1] + diag[i] x[i] + upper[i] x[i+1] = rhs[i].

    Without ``cyclic`` lower[0] and upper[-1] are ignored.  With it they couple
    the last and first unknowns (indices mod N), and the system is reduced to a
    tridiagonal one by Sherman-Morrison.  A singular system or a non-finite
    solution raises NumericalBlowupError.
    """
    if cyclic:
        gamma = -diag[0]
        diag = diag.copy()
        diag[0] -= gamma
        diag[-1] -= lower[0] * upper[-1] / gamma
        u = np.zeros_like(rhs)
        u[0] = gamma
        u[-1] = upper[-1]
        rhs = np.column_stack((rhs, u))
    # LAPACK gtsv; its inputs are copied, since the z and r solves share lower/upper
    *_, x, info = dgtsv(lower[1:], diag, upper[:-1], rhs)
    if info > 0:
        raise NumericalBlowupError(f"singular implicit step system: zero pivot in row {info}")
    if cyclic:
        y, w = x.T
        v_last = lower[0] / gamma
        x = y - (y[0] + v_last * y[-1]) / (1.0 + w[0] + v_last * w[-1]) * w
    if not np.all(np.isfinite(x)):
        raise NumericalBlowupError("non-finite solution of the implicit step system")
    return x


class StepOperator(NamedTuple):
    """The dt-independent part of the implicit step at one curve state.

    M = tridiag(lower, diag, upper) is Δ = ∂ss + (n-1)(r_s/r)∂s frozen at the curve,
    q = (n-1)/r² linearizes -(n-1)/r, (f_z, f_r) is the explicit right-hand side;
    max_A2 and the spacings ds (with the periodic wrap segment) feed the step rule,
    and the per-node |A|² A2 the respacing rule.
    """

    lower: np.ndarray
    diag: np.ndarray
    upper: np.ndarray
    q: np.ndarray
    f_z: np.ndarray
    f_r: np.ndarray
    max_A2: float
    ds: np.ndarray
    A2: np.ndarray


def _step_operator(z, r, n, closed, period) -> StepOperator:
    """Assemble the StepOperator of raw profile arrays from one stencil pass."""
    z_s, r_s, z_ss, r_ss, seg = profile_derivatives(z, r, closed, period)
    A2 = principal_curvatures(z_s, r_s, z_ss, r_ss, r, n, closed)[2]
    ds = seg[1:-1] if closed else seg[1:]
    hm = seg[:-1]
    hp = seg[1:]
    # r = 0 makes the pole rows non-finite here; they are replaced below
    with np.errstate(divide="ignore", invalid="ignore"):
        p = (n - 1) * r_s / r
        q = (n - 1) / (r * r)
        lower = (2.0 - p * hp) / (hm * (hm + hp))
        upper = (2.0 + p * hm) / (hp * (hm + hp))
        diag = -(lower + upper)  # Δ annihilates constants
        f_z = z_ss + p * z_s
        f_r = r_ss + p * r_s - q * r
    if closed:  # at a pole r stays 0 and z moves by n ∂ss z (even reflection)
        c_first = 2.0 * n / seg[0] ** 2
        c_last = 2.0 * n / seg[-1] ** 2
        diag[0], upper[0] = -c_first, c_first
        diag[-1], lower[-1] = -c_last, c_last
        f_z[0] = n * z_ss[0]
        f_z[-1] = n * z_ss[-1]
    max_A2 = float(A2.max())
    if not np.isfinite(max_A2):  # no step, respacing or cascade rung follows from it
        raise NumericalBlowupError("non-finite curvature")
    return StepOperator(lower, diag, upper, q, f_z, f_r, max_A2, ds, A2)


def _implicit_euler(z, r, op, closed, dt):
    """One linearly implicit Euler step of z_t = Δz, r_t = Δr - (n-1)/r.

    Solves (I - dt M) δ = dt F for the increments δ, with M and F from ``op`` at (z, r).
    """
    lo = -dt * op.lower
    up = -dt * op.upper
    a_z = 1.0 - dt * op.diag
    a_r = a_z + dt * op.q
    if not closed:
        return (z + _solve_tridiagonal(lo, a_z, up, dt * op.f_z, cyclic=True),
                r + _solve_tridiagonal(lo, a_r, up, dt * op.f_r, cyclic=True))
    dr = np.zeros_like(r)
    dr[1:-1] = _solve_tridiagonal(lo[1:-1], a_r[1:-1], up[1:-1], dt * op.f_r[1:-1])
    return z + _solve_tridiagonal(lo, a_z, up, dt * op.f_z), r + dr


def _pinched(r, closed) -> bool:
    """Some node that must stay off the axis is on or across it."""
    return bool(np.any((r[1:-1] if closed else r) <= 0.0))


def _implicit_step(z, r, n, closed, period, dt, op=None):
    """Linearly implicit profile step, Richardson-extrapolated to second order in dt.

    One full step and two half steps, combined as 2 * half - full; the first
    two share ``op``, the StepOperator of (z, r), assembled here if not given.
    Raises NeckPinchError when a node that must stay off the axis reaches it.
    """
    if op is None:
        op = _step_operator(z, r, n, closed, period)
    z_full, r_full = _implicit_euler(z, r, op, closed, dt)
    z_half, r_half = _implicit_euler(z, r, op, closed, 0.5 * dt)
    if _pinched(r_half, closed):
        raise NeckPinchError("r <= 0 at an interior node after a half step")
    op_half = _step_operator(z_half, r_half, n, closed, period)
    z_half, r_half = _implicit_euler(z_half, r_half, op_half, closed, 0.5 * dt)
    z_new = 2.0 * z_half - z_full
    r_new = 2.0 * r_half - r_full
    if _pinched(r_new, closed):
        raise NeckPinchError("r <= 0 at an interior node after the step")
    return z_new, r_new


def target_spacing(A2, h0, refine_target, periodic):
    """Graded target spacing of each segment between consecutive nodes.

    delta = min(h0, refine_target / |A|), with |A| the larger of the segment's
    end values (A2 holds |A|² per node; a periodic profile's last segment wraps
    to node 0), then limited so that neighbouring targets differ by at most
    GRADING_FACTOR: two cumulative-minimum sweeps in log spacing, over three
    copies of a periodic profile so the limit also holds across the wrap.
    """
    if refine_target * refine_target >= h0 * h0 * A2.max():  # the cap h0 binds on every segment
        return np.full(A2.size if periodic else A2.size - 1, h0)
    A2_seg = np.maximum(A2, np.roll(A2, -1)) if periodic else np.maximum(A2[:-1], A2[1:])
    with np.errstate(divide="ignore"):
        log_delta = np.minimum(np.log(h0), np.log(refine_target) - 0.5 * np.log(A2_seg))
    m = log_delta.size
    if periodic:
        log_delta = np.tile(log_delta, 3)
    ramp = np.log(GRADING_FACTOR) * np.arange(log_delta.size)
    log_delta = np.minimum.accumulate(log_delta - ramp) + ramp
    log_delta = (np.minimum.accumulate((log_delta + ramp)[::-1]) - ramp[::-1])[::-1]
    if periodic:
        log_delta = log_delta[m:2 * m]
    return np.exp(log_delta)


def _respace(z, r, n, topology, period, op: StepOperator, h0, ctl: StepControl):
    """Resample (z, r) in arclength, graded by curvature, when the spacings call for it.

    op is the StepOperator of (z, r) and h0 the mean spacing of the run's
    initial curve.  Each segment's target spacing delta comes from
    ``target_spacing``; when some segment is longer than 1.25 delta the curve
    is resampled to ceil(sum(ds/delta)) + 1 nodes (never fewer than N, at most
    max_nodes), so every new segment is at most its delta long.  Otherwise it
    is respaced at its node count when max/min of ds/delta exceeds
    RESAMPLE_RATIO.  New nodes are spaced in proportion to delta.  If neither
    test fires (z, r) is returned as given.
    """
    delta = target_spacing(op.A2, h0, ctl.refine_target, topology != CLOSED)
    fill = op.ds / delta
    top = fill.max()
    num = None
    if top > 1.25:
        num = max(int(min(np.ceil(fill.sum()) + 1, ctl.max_nodes)), z.size)  # sum may be inf
    elif top <= RESAMPLE_RATIO * fill.min():
        return z, r
    fresh = resample_arclength(ProfileCurve(z, r, n, topology, period), num=num,
                               density=1.0 / delta)
    return fresh.z, fresh.r


def run_until(initial: FlowSnapshot, ctl: StepControl,
              record_times: Sequence[float] = ()) -> Trajectory:
    """Integrate a profile curve until a stop criterion fires.

    Snapshots are recorded at the requested times plus a geometric curvature
    cascade so that blow-up sequences have material to rescale.
    """
    curve = initial.surface
    if not isinstance(curve, ProfileCurve):
        raise TypeError("run_until integrates ProfileCurve snapshots only")
    if curve.n < 2:
        raise ValueError("axisymmetric flow requires ambient dimension n >= 2")
    curve.validate()
    n, closed, period = curve.n, curve.topology == CLOSED, curve.period
    topology = curve.topology
    h0 = curve.mean_spacing
    counts = {"steps": 0, "respaces": 0, "refinements": 0}

    def settle(z, r):
        """(z, r) after the spacing test on its own |A|², and the StepOperator of the result."""
        op = _step_operator(z, r, n, closed, period)
        z_new, r_new = _respace(z, r, n, topology, period, op, h0, ctl)
        if z_new is z:
            return z, r, op
        counts["refinements" if z_new.size > z.size else "respaces"] += 1
        return z_new, r_new, _step_operator(z_new, r_new, n, closed, period)

    z, r, op = settle(curve.z, curve.r)
    t = initial.t
    schedule = sorted(tt for tt in record_times if tt > t)

    def make_snapshot():
        return FlowSnapshot(ProfileCurve(z.copy(), r.copy(), n, topology, period), t)

    snapshots = [make_snapshot()]
    hist_t, hist_A2 = [], []
    stop_reason = None
    underflow = False
    cascade_level = None
    cascade_count = 0
    last_recorded_t = t

    while True:
        maxA2, ds = op.max_A2, op.ds
        hist_t.append(t)
        hist_A2.append(maxA2)
        if cascade_level is None:
            cascade_level = max(maxA2, 1e-12) * CASCADE_FACTOR
        # a rung is recorded at the curve that crossed it, not one step later,
        # where a coarse step could merge it with the final snapshot
        if maxA2 >= cascade_level and cascade_count < MAX_CASCADE_SNAPSHOTS:
            while cascade_level <= maxA2:
                cascade_level *= CASCADE_FACTOR
            cascade_count += 1
            if last_recorded_t != t:
                snapshots.append(make_snapshot())
                last_recorded_t = t

        if maxA2 >= ctl.A2_stop:
            stop_reason = STOP_CURVATURE
            break
        if ctl.t_end is not None and t >= ctl.t_end - 1e-15:
            stop_reason = STOP_T_END
            break
        if r.max() < 3.0 * ds.mean():
            stop_reason = STOP_EXTINCTION
            break

        dt = (CFL * min(ds.min() / np.sqrt(maxA2), STEP_K / maxA2)
              if maxA2 > 0.0 else np.inf)
        # 1/max|A|^2 is nearly affine in t under the type-I law: its secant
        # over the last step predicts when the next level is crossed
        if len(hist_t) > 1 and maxA2 > 0.0 and hist_A2[-2] > 0.0:
            rate = (1.0 / hist_A2[-2] - 1.0 / maxA2) / (t - hist_t[-2])
            if rate > 0.0:
                level = ctl.A2_stop
                if cascade_count < MAX_CASCADE_SNAPSHOTS:
                    level = min(level, cascade_level)
                dt = min(dt, (1.0 / maxA2 - 1.0 / (LANDING_FACTOR * level)) / rate)
        if dt < ctl.dt_min or t + dt == t:  # t + dt == t: dt is below the resolution of t
            underflow = True
            stop_reason = STOP_UNDERFLOW
            break
        hit_schedule = False
        if ctl.t_end is not None and t + dt > ctl.t_end:
            dt = ctl.t_end - t
        if schedule and t + dt >= schedule[0] - 1e-15:
            dt = schedule[0] - t
            hit_schedule = True

        ok = False
        while True:
            try:
                z_new, r_new = _implicit_step(z, r, n, closed, period, dt, op)
                ok = True
                break
            except NeckPinchError:
                pass
            dt *= 0.5
            hit_schedule = False
            if dt <= ctl.dt_min or t + dt == t:
                break
        if not ok:
            underflow = True
            stop_reason = STOP_UNDERFLOW
            break
        if not (np.all(np.isfinite(z_new)) and np.all(np.isfinite(r_new))):
            raise NumericalBlowupError("NaN/overflow during integration")
        t += dt
        counts["steps"] += 1
        z, r, op = settle(z_new, r_new)

        if hit_schedule:
            schedule.pop(0)
            snapshots.append(make_snapshot())
            last_recorded_t = t

    if last_recorded_t != t or len(snapshots) == 1:
        snapshots.append(make_snapshot())

    est = None
    T = _fit_singular_time(hist_t, hist_A2)
    if T is not None:
        final = snapshots[-1]
        i = max_curvature_node(final.curvature.A2)
        z_final = final.surface.z
        # axisymmetric first singular points lie on the axis; when the
        # curvature peaks at a pole the closed profile shrinks to a round
        # point, whose center is the midpoint between the poles
        if closed and i in (0, z_final.size - 1):
            z_sing = 0.5 * (z_final[0] + z_final[-1])
        else:
            z_sing = z_final[i]
        est = SingularEstimate(z=float(z_sing), rho=0.0, T=T)

    traj = Trajectory(snapshots=snapshots, stop_reason=stop_reason,
                      singular_estimate=est,
                      step_times=np.array(hist_t), step_maxA2=np.array(hist_A2),
                      underflow=underflow, stats=counts)
    if stop_reason == STOP_UNDERFLOW and est is None:
        raise InconclusiveRunError(
            "time step underflowed before any singularity indicator", trajectory=traj)
    return traj


def verify_mean_convexity(traj: Trajectory, tol_factor: float = 10.0) -> dict:
    """Check that min H stays positive along a mean-convex run.

    Returns the min-H time series; ``scheme_failure`` is set if some snapshot
    dips below -tol_factor * h^2, h the ``node_spacing`` at its min-H node (a
    discretization failure, not a violation of the continuum statement).
    """
    first = traj.snapshots[0]
    if float(np.min(first.curvature.H)) < 0.0:
        raise ValueError("initial data is not mean-convex (min H < 0 at t = 0)")
    times, min_H = [], []
    scheme_failure = False
    for snap in traj.snapshots:
        c = snap.curvature
        j = int(np.argmin(c.H))
        m = float(c.H[j])
        times.append(snap.t)
        min_H.append(m)
        h = snap.surface.node_spacing()[j]
        if snap.t > first.t and m < -tol_factor * h * h:
            scheme_failure = True
    positive = all(m > 0.0 for m, t in zip(min_H[1:], times[1:]))
    return {"t": times, "min_H": min_H, "all_positive": positive,
            "scheme_failure": scheme_failure}
