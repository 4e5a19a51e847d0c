"""Time integration of mean curvature flow for profile curves.

Profiles advance by a linearly implicit step: z_t = Δz and r_t = Δr - (n-1)/r,
with Δ the Laplace-Beltrami operator frozen at the current curve, one
tridiagonal solve per coordinate, and extrapolation of that Euler step over
1, 2, 3 and 4 substeps to fourth order in time.  The integrator detects the
approach to the first singular time via curvature blow-up and records a
snapshot cascade accumulating there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .errors import NumericalBlowupError
from .geometry import (CLOSED, FlowSnapshot, ProfileCurve, _solve_tridiagonal,
                       max_curvature_node, principal_curvatures, profile_derivatives,
                       resample_arclength, zero_roundoff)

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
# h-term keeps dt proportional to h, so a finer mesh also takes finer steps;
# the curvature term stops refined meshes from taking steps so large that the
# cascade skips rungs.  At these constants the step, not the mesh, still sets
# most of the error of the singular time.
CFL = 5.4
STEP_K = 0.16 / CFL
# a step that would carry max|A|^2 past the next rung (or A2_stop) is shortened
# to end at this multiple of it, so every run records its rungs and its final
# snapshot at the same curvature levels however coarse its steps are
LANDING_FACTOR = 1.02
# a step that lands past that target by more than this factor is redone once,
# with dt from the secant over the rejected step
RELANDING_FACTOR = 1.002
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
    # run counters: steps taken, respacings at the same node count, refinements,
    # re-landings; and step_error_max, the largest ExtrapolatedStep.error times
    # sqrt(max|A|^2) at the start of its step, a scale-free local error estimate
    stats: dict = field(default_factory=dict)

    @property
    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.snapshots])

    def nearest_snapshot(self, t: float) -> FlowSnapshot:
        return self.snapshots[int(np.argmin(np.abs(self.times - t)))]


def _fit_singular_time(times, maxA2) -> Optional[float]:
    """Least-squares affine fit of 1/max|A|^2 vs t over the final decade; root is T.

    The decade is the trailing run (>= 4 steps) within a factor 10 of the last max|A|^2."""
    times = np.asarray(times)
    maxA2 = np.asarray(maxA2)
    if times.size < 8 or maxA2[-1] <= 0:
        return None
    below = np.flatnonzero(maxA2 < maxA2[-1] / 10.0)
    start = min(below[-1] + 1 if below.size else 0, times.size - 4)
    tt = times[start:]
    yy = 1.0 / maxA2[start:]
    A = np.column_stack((np.ones_like(tt), tt))
    (alpha, beta), *_ = np.linalg.lstsq(A, yy, rcond=None)
    if beta >= 0.0:
        return None
    return float(-alpha / beta)


class StepOperator(NamedTuple):
    """The dt-independent part of the implicit step at one curve state.

    M = tridiag(lower, diag, upper) is Δ = ∂ss + (n-1)(r_s/r)∂s frozen at the curve,
    q = (n-1)/r² linearizes -(n-1)/r, and (f_z, f_r) is the explicit right-hand side.
    """

    lower: np.ndarray
    diag: np.ndarray
    upper: np.ndarray
    q: np.ndarray
    f_z: np.ndarray
    f_r: np.ndarray


def _euler_operator(r, n, closed, z_s, r_s, z_ss, r_ss, seg) -> StepOperator:
    """The StepOperator at (z, r), from its derivatives."""
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
    return StepOperator(lower, diag, upper, q, f_z, f_r)


def _step_operator(z, r, n, closed, period):
    """(StepOperator, |A|² per node, spacings with the periodic wrap) of a curve, in one pass."""
    derivs = profile_derivatives(z, r, closed, period)
    A2 = principal_curvatures(*derivs[:4], r, n, closed)[2]
    if not math.isfinite(float(A2.max())):  # no step, respacing or cascade rung follows from it
        raise NumericalBlowupError("non-finite curvature")
    ds = derivs[4][1:-1] if closed else derivs[4][1:]
    return _euler_operator(r, n, closed, *derivs), A2, ds


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
    r_new = r.copy()
    r_new[1:-1] += _solve_tridiagonal(lo[1:-1], a_r[1:-1], up[1:-1], dt * op.f_r[1:-1])
    return z + _solve_tridiagonal(lo, a_z, up, dt * op.f_z), r_new


def _pinched(r, closed) -> bool:
    """Some node that must stay off the axis is on or across it."""
    return bool(((r[1:-1] if closed else r) <= 0.0).any())


class ExtrapolatedStep(tuple):
    """The (z, r) of an extrapolated step, unpacked as a pair.

    ``error`` is max|X4 - X3| over both coordinates, the gap between the order-4
    result and the order-3 extrapolant of the same runs: a local error estimate
    of the order-3 extrapolant, in units of length.
    """

    error: float


def _implicit_step(z, r, n, closed, period, dt, op=None):
    """Linearly implicit profile step, extrapolated to fourth order in dt.

    E_m is m linearly implicit Euler substeps of dt/m, and the step returns the
    Aitken-Neville combination X4 = 32/3 E4 - 27/2 E3 + 4 E2 - 1/6 E1, which
    cancels the dt, dt² and dt³ terms of their error, as an ExtrapolatedStep
    that carries its distance to X3 = 4.5 E3 - 4 E2 + 0.5 E1.  The runs go in
    the order E1, E2, E3, E4, and each starts with ``op``, the StepOperator of
    (z, r), assembled here if not given.  The substep states assemble no
    curvature: a non-finite operator there fails its solve with
    NumericalBlowupError.  Returns None when a node that must stay off the axis
    reaches the axis, in a substep state, in X3 or in X4.
    """
    if op is None:
        op = _step_operator(z, r, n, closed, period)[0]
    runs = []
    for m in (1, 2, 3, 4):
        h = dt / m
        z_m, r_m = _implicit_euler(z, r, op, closed, h)
        for _ in range(m - 1):
            if _pinched(r_m, closed):
                return None
            op_m = _euler_operator(r_m, n, closed, *profile_derivatives(z_m, r_m, closed, period))
            z_m, r_m = _implicit_euler(z_m, r_m, op_m, closed, h)
        runs.append((z_m, r_m))
    (z1, r1), (z2, r2), (z3, r3), (z4, r4) = runs
    # both extrapolants written in differences, which lose no digits to the
    # large weights where the runs agree
    r_3 = r3 + 3.5 * (r3 - r2) - 0.5 * (r2 - r1)
    z_new = z4 + 29.0 / 3.0 * (z4 - z3) - 23.0 / 6.0 * (z3 - z2) + 1.0 / 6.0 * (z2 - z1)
    r_new = r4 + 29.0 / 3.0 * (r4 - r3) - 23.0 / 6.0 * (r3 - r2) + 1.0 / 6.0 * (r2 - r1)
    if _pinched(r_3, closed) or _pinched(r_new, closed):
        return None
    z_3 = z3 + 3.5 * (z3 - z2) - 0.5 * (z2 - z1)
    step = ExtrapolatedStep((z_new, r_new))
    step.error = float(max(np.abs(z_new - z_3).max(), np.abs(r_new - r_3).max()))
    return step


def target_spacing(A2, h0, refine_target, periodic):
    """Graded target spacing of each segment between consecutive nodes.

    delta = min(h0, refine_target / |A|), with |A| the larger of the segment's
    end values (A2 holds |A|² per node; a periodic profile's last segment wraps
    to node 0), then limited so that neighbouring targets differ by at most
    GRADING_FACTOR: two cumulative-minimum sweeps in log(delta/h0), over three
    copies of a periodic profile so the limit also holds across the wrap.
    h0²|A|² is exact under a power-of-2 dilation, so the targets dilate exactly.
    """
    if refine_target * refine_target >= h0 * h0 * A2.max():  # the cap h0 binds on every segment
        return np.full(A2.size if periodic else A2.size - 1, h0)
    A2_seg = np.maximum(A2, np.roll(A2, -1)) if periodic else np.maximum(A2[:-1], A2[1:])
    with np.errstate(divide="ignore"):
        log_delta = np.minimum(0.0, np.log(refine_target) - 0.5 * np.log(A2_seg * (h0 * h0)))
    m = log_delta.size
    if periodic:
        log_delta = np.tile(log_delta, 3)
    ramp = np.log(GRADING_FACTOR) * np.arange(log_delta.size)
    log_delta = np.minimum.accumulate(log_delta - ramp) + ramp
    log_delta = (np.minimum.accumulate((log_delta + ramp)[::-1]) - ramp[::-1])[::-1]
    if periodic:
        log_delta = log_delta[m:2 * m]
    return h0 * np.exp(log_delta)


def _respace(z, r, n, topology, period, A2, ds, h0, ctl: StepControl):
    """Resample (z, r) in arclength, graded by curvature, when the spacings call for it.

    A2 is |A|² per node of (z, r), ds its spacings and h0 the mean spacing of
    the run's initial curve.  Each segment's target spacing delta comes from
    ``target_spacing``; when some segment is longer than 1.25 delta the curve
    is resampled to ceil(sum(ds/delta)) + 1 nodes (never fewer than N, at most
    max_nodes), so every new segment is at most its delta long.  Otherwise it
    is respaced at its node count when max/min of ds/delta exceeds
    RESAMPLE_RATIO.  New nodes are spaced in proportion to delta.  If neither
    test fires (z, r) is returned as given.
    """
    delta = target_spacing(A2, h0, ctl.refine_target, topology != CLOSED)
    fill = ds / delta
    top = fill.max()
    num = None
    if top > 1.25:
        num = max(int(min(np.ceil(fill.sum()) + 1, ctl.max_nodes)), z.size)  # sum may be inf
    elif top <= RESAMPLE_RATIO * fill.min():
        return z, r
    fresh = resample_arclength(ProfileCurve(z, r, n, topology, period), num=num,
                               density=1.0 / delta)
    return fresh.z, fresh.r


def run_until(initial: FlowSnapshot, ctl: StepControl) -> Trajectory:
    """Integrate a profile curve until a stop criterion fires.

    Snapshots are recorded at the start, on a geometric curvature cascade so
    that blow-up sequences have material to rescale, and at the stop.  The
    trajectory is returned however the run ends: ``stop_reason`` says how, and
    a run that underflows before any singularity indicator has no
    ``singular_estimate``.
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
    counts = {"steps": 0, "respaces": 0, "refinements": 0, "relandings": 0,
              "step_error_max": 0.0}

    def settle(z, r):
        """(z, r) after the spacing test on its own |A|², then the _step_operator of the result."""
        op, A2, ds = _step_operator(z, r, n, closed, period)
        z_new, r_new = _respace(z, r, n, topology, period, A2, ds, h0, ctl)
        if z_new is z:
            return z, r, op, A2, ds
        counts["refinements" if z_new.size > z.size else "respaces"] += 1
        return (z_new, r_new, *_step_operator(z_new, r_new, n, closed, period))

    z, r, op, A2, ds = settle(curve.z, curve.r)
    t = initial.t

    def make_snapshot():
        return FlowSnapshot(ProfileCurve(z.copy(), r.copy(), n, topology, period), t)

    def advance(dt):
        """(dt, error, z, r, op, A2, ds) of a step from (z, r), settled; dt halves on a pinch.

        Returns None when the halving underflows."""
        while (new := _implicit_step(z, r, n, closed, period, dt, op)) is None:
            dt *= 0.5  # a pinch: retry at half the step, down to dt_min
            if dt <= ctl.dt_min or t + dt == t:
                return None
        z_new, r_new = new
        if not (np.isfinite(z_new).all() and np.isfinite(r_new).all()):
            raise NumericalBlowupError("NaN/overflow during integration")
        return dt, new.error, *settle(z_new, r_new)

    snapshots = [make_snapshot()]
    hist_t, hist_A2 = [], []
    stop_reason = None
    cascade_level = max(float(A2.max()), 1e-12) * CASCADE_FACTOR
    cascade_count = 0
    last_recorded_t = t

    while True:
        maxA2 = float(A2.max())
        hist_t.append(t)
        hist_A2.append(maxA2)
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
        if r.max() < 3.0 * (ds.sum() / ds.size):
            stop_reason = STOP_EXTINCTION
            break

        level = ctl.A2_stop
        if cascade_count < MAX_CASCADE_SNAPSHOTS:
            level = min(level, cascade_level)
        target = LANDING_FACTOR * level
        dt = (CFL * min(ds.min() / math.sqrt(maxA2), STEP_K / maxA2)
              if maxA2 > 0.0 else np.inf)
        # 1/max|A|^2 is nearly affine in t under the type-I law: its secant
        # over the last step predicts when the next level is crossed
        if len(hist_t) > 1 and maxA2 > 0.0 and hist_A2[-2] > 0.0:
            rate = (1.0 / hist_A2[-2] - 1.0 / maxA2) / (t - hist_t[-2])
            if rate > 0.0:
                dt = min(dt, (1.0 / maxA2 - 1.0 / target) / rate)
        if dt < ctl.dt_min or t + dt == t:  # t + dt == t: dt is below the resolution of t
            stop_reason = STOP_UNDERFLOW
            break
        if ctl.t_end is not None and t + dt > ctl.t_end:
            dt = ctl.t_end - t

        step = advance(dt)
        if step is None:
            stop_reason = STOP_UNDERFLOW
            break
        A2_new = float(step[5].max())
        if maxA2 > 0.0 and A2_new > RELANDING_FACTOR * target:
            # a re-landing: redo once from the same state, with dt from the
            # secant over the rejected step (kept if the redo underflows)
            rate = (1.0 / maxA2 - 1.0 / A2_new) / step[0]
            counts["relandings"] += 1
            step = advance((1.0 / maxA2 - 1.0 / target) / rate) or step
        dt, error, z, r, op, A2, ds = step
        counts["step_error_max"] = max(counts["step_error_max"], error * math.sqrt(maxA2))
        t += dt
        counts["steps"] += 1

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
        z_sing = zero_roundoff(float(z_sing), final.surface.node_spacing()[i])
        est = SingularEstimate(z=z_sing, rho=0.0, T=T)

    return Trajectory(snapshots=snapshots, stop_reason=stop_reason,
                      singular_estimate=est,
                      step_times=np.array(hist_t), step_maxA2=np.array(hist_A2),
                      stats=counts)
