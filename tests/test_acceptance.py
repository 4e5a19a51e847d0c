"""End-to-end acceptance gate: eleven numbered criteria, one PASS/FAIL line each.

Each test prints its verdict line before asserting, so a full run always shows
the complete scorecard regardless of capture settings.
"""

import json
import os
import sys
import time

import numpy as np

from mcfprof import diagnostics as dg
from mcfprof import rescale as rs
from mcfprof.cli import _harnack_report, main
from mcfprof.flow import Trajectory, _implicit_step
from mcfprof.geometry import CLOSED, FlowSnapshot, ProfileCurve
from mcfprof.models import bowl_soliton_profile, grim_reaper_patch, translator_residual
from mcfprof.shapes import cylinder_profile, dumbbell_profile, sphere_profile


def verdict(num: int, name: str, ok: bool):
    line = f"criterion {num:02d} [{name}]: {'PASS' if ok else 'FAIL'}"
    print(line)
    print(line, file=sys.__stdout__)  # visible even under pytest capture
    assert ok, line


# ---------------------------------------------------------------------------
# 1. shrinker radius laws
# ---------------------------------------------------------------------------

def test_criterion_01_radius_laws(sphere_run, cylinder_run):
    ok = sphere_run["runtime"] < 30.0 and cylinder_run["runtime"] < 30.0

    traj = sphere_run["traj"]
    T = traj.singular_estimate.T
    ok &= abs(T - 0.25) < 0.01 * 0.25
    for snap in traj.snapshots:
        if snap.t > 0.9 * 0.25:
            continue
        R = np.hypot(snap.surface.z, snap.surface.r)
        ok &= bool(np.abs(R / np.sqrt(1.0 - 4.0 * snap.t) - 1.0).max() < 1e-3)

    traj = cylinder_run["traj"]
    T = traj.singular_estimate.T
    ok &= abs(T - 0.5) < 0.01 * 0.5
    for snap in traj.snapshots:
        if snap.t > 0.9 * 0.5:
            continue
        ok &= bool(np.abs(snap.surface.r / np.sqrt(1.0 - 2.0 * snap.t) - 1.0).max() < 1e-3)

    verdict(1, "shrinker radius laws", ok)


# ---------------------------------------------------------------------------
# 2. translator residuals
# ---------------------------------------------------------------------------

def test_criterion_02_translators():
    t0 = time.perf_counter()
    r1 = translator_residual(grim_reaper_patch(1e-3))
    r2 = translator_residual(grim_reaper_patch(5e-4))
    ok = r1 < 1e-5 and 3.0 <= r1 / r2 <= 5.0
    prof = bowl_soliton_profile(2, 4.0, 1e-2)
    h = prof.r[0]
    ok &= prof.max_residual < 1e-8
    ok &= abs(prof.u[0] / h**2 - 0.25) < h**2
    ok &= (time.perf_counter() - t0) < 5.0
    verdict(2, "translator residuals", ok)


# ---------------------------------------------------------------------------
# 3. noncollapsing constants
# ---------------------------------------------------------------------------

def test_criterion_03_noncollapsing(sphere_run, cylinder_run, dumbbell_run, ovaloid_run):
    ok = True
    # model constants at every node: r*H = n on spheres, m on cylinders
    for n in (2, 3):
        curve = sphere_profile(1.0, n, 300)
        snap = FlowSnapshot(curve, 0.0)
        kappa = dg.noncollapsing_ratio(snap).r_field * snap.curvature.H
        ok &= bool(np.abs(kappa / n - 1.0).max() < 2.0 * curve.mean_spacing)
    curve = cylinder_profile(0.5, np.pi, 2, 300)
    snap = FlowSnapshot(curve, 0.0)
    kappa = dg.noncollapsing_ratio(snap).r_field * snap.curvature.H
    ok &= bool(np.abs(kappa - 1.0).max() < 2.0 * curve.mean_spacing)
    # kappa <= n + 5h on every snapshot of every run, h its smallest spacing
    for run in (sphere_run, cylinder_run, dumbbell_run, ovaloid_run):
        for rec, snap in zip(dg.kappa_series(run["traj"]), run["traj"].snapshots):
            ok &= rec.kappa_min <= snap.surface.n + 5.0 * snap.surface.spacings().min()
    # dilation invariance of kappa
    snap = FlowSnapshot(dumbbell_profile(1.0, 0.35, 8.0, 2, 300), 0.0)
    k1 = dg.noncollapsing_ratio(snap).kappa_min
    k2 = dg.noncollapsing_ratio(
        rs.parabolic_dilate(snap, rs.DilationParams(4.7, 0.3, 0.0, 0.0))).kappa_min
    ok &= abs(k2 / k1 - 1.0) < 1e-8
    verdict(3, "noncollapsing constants", ok)


# ---------------------------------------------------------------------------
# 4. neckpinch tangent flow
# ---------------------------------------------------------------------------

def test_criterion_04_neckpinch_tangent_flow(dumbbell_run):
    ok = dumbbell_run["runtime"] < 300.0
    traj = dumbbell_run["traj"]
    points = rs.select_blowup_points(traj, "neck", 4)
    seq = rs.normalized_blowup(traj, points)
    fits = rs.classify_tangent_flow(seq.terms[-1])
    cyl = fits["cylinder"]
    ok &= fits["best"] == "cylinder"
    ok &= cyl["rms_over_R"] < 0.05
    ok &= fits["sphere"]["rms"] > 4.0 * cyl["rms"]
    res = dg.singular_distance_scaling(traj)
    ok &= 0.45 <= res["slope"] <= 0.55
    last_decade = res["tau"] <= 10.0 * res["tau"].min()
    band = res["ratio"][last_decade] / np.sqrt(2.0)
    ok &= bool(np.all((band >= 0.9) & (band <= 1.1)))
    verdict(4, "neckpinch tangent flow", ok)


# ---------------------------------------------------------------------------
# 5. convexity of normalized terms
# ---------------------------------------------------------------------------

def test_criterion_05_blowup_convexity(dumbbell_run):
    traj = dumbbell_run["traj"]
    points = rs.select_blowup_points(traj, "neck", 4)
    seq = rs.normalized_blowup(traj, points)
    ok = True
    for term in seq.terms[-3:]:
        passed, _ = dg.convexity_check(term.center, 0.05)
        ok &= passed
    # the unrescaled initial dumbbell must fail the same check
    failed, min_lam1 = dg.convexity_check(traj.snapshots[0], 0.05)
    ok &= (not failed) and min_lam1 < -0.05
    verdict(5, "blow-up convexity", ok)


# ---------------------------------------------------------------------------
# 6. round point
# ---------------------------------------------------------------------------

def test_criterion_06_round_point(ovaloid_run):
    traj = ovaloid_run["traj"]
    points = rs.select_blowup_points(traj, "max-curvature", 3)
    seq = rs.normalized_blowup(traj, points)
    lam = seq.terms[-1].center.curvature.lam
    sphericity = float(lam[:, -1].max() / lam[:, 0].min())
    ok = 1.0 / 1.05 <= sphericity <= 1.05
    verdict(6, "round point sphericity", ok)


# ---------------------------------------------------------------------------
# 7. monotone max |A|^2/H^2
# ---------------------------------------------------------------------------

def test_criterion_07_monotone_ratio(sphere_run, cylinder_run, dumbbell_run, ovaloid_run):
    ok = True
    for run in (sphere_run, cylinder_run, dumbbell_run, ovaloid_run):
        ok &= dg.ratio_A2_H2(run["traj"])["nonincreasing"]
    ok &= bool(np.abs(dg.ratio_A2_H2(sphere_run["traj"])["max_ratio"] - 0.5).max() < 1e-6)
    ok &= bool(np.abs(dg.ratio_A2_H2(cylinder_run["traj"])["max_ratio"] - 1.0).max() < 1e-6)
    verdict(7, "monotone max |A|^2/H^2", ok)


# ---------------------------------------------------------------------------
# 8. H-evolution residual convergence
# ---------------------------------------------------------------------------

def _H_residual(factory, N, dt):
    curve = factory(N)
    snaps = [FlowSnapshot(curve, 0.0)]
    for k in (1, 2):
        z, r = _implicit_step(curve.z, curve.r, curve.n, curve.topology == CLOSED,
                              curve.period, dt)
        curve = ProfileCurve(z, r, curve.n, curve.topology, curve.period)
        snaps.append(FlowSnapshot(curve, k * dt))
    traj = Trajectory(snaps, "t-end", None)
    return dg.verify_H_evolution(traj, 1)["max_residual"]


def _wavy_cylinder(N):
    z = np.linspace(0.0, np.pi, N, endpoint=False)
    return ProfileCurve(z, 1.0 + 0.1 * np.cos(4.0 * z), 2, "periodic-in-z", np.pi)


def _round_cylinder(N):
    return cylinder_profile(1.0, np.pi, 2, N)


def test_criterion_08_H_evolution_order():
    ok = True
    # the round cylinder's residual sits at the roundoff floor, so its order
    # means nothing: the wavy cylinder carries the order test, the round one
    # an absolute bound
    for factory in (lambda N: sphere_profile(1.0, 2, N), _wavy_cylinder):
        curve = factory(100)
        # dt ∝ h² (the explicit stability bound), so h -> h/2 with dt -> dt/4 refines both errors
        dt = 0.8 * curve.spacings().min() ** 2 / (2 * curve.n)
        coarse = _H_residual(factory, 100, dt)
        fine = _H_residual(factory, 200, dt / 4.0)
        ok &= np.log2(coarse / fine) >= 1.9
    dt = 0.8 * _round_cylinder(100).spacings().min() ** 2 / 4.0
    ok &= _H_residual(_round_cylinder, 100, dt) < 1e-7
    ok &= _H_residual(_round_cylinder, 200, dt / 4.0) < 1e-7
    verdict(8, "H-evolution residual order", ok)


# ---------------------------------------------------------------------------
# 9. pinching trend
# ---------------------------------------------------------------------------

def test_criterion_09_pinching_trend(dumbbell_run):
    _, env = dg.pinching_profile(dumbbell_run["traj"])
    ok = len(env) >= 2 and env[0]["ratio"] < env[1]["ratio"]
    verdict(9, "pinching trend", ok)


# ---------------------------------------------------------------------------
# 10. Harnack stability
# ---------------------------------------------------------------------------

def test_criterion_10_harnack_stability(dumbbell_run):
    traj = dumbbell_run["traj"]
    rep10 = _harnack_report(traj, {"R": 1.0, "H_threshold": 10.0})
    rep30 = _harnack_report(traj, {"R": 1.0, "H_threshold": 30.0})
    ok = rep10.get("min_delta", 0.0) > 0.0 and rep30.get("min_delta", 0.0) > 0.0
    if ok:
        ok = abs(rep30["min_delta"] - rep10["min_delta"]) / rep10["min_delta"] < 0.5
    verdict(10, "Harnack stability", ok)


# ---------------------------------------------------------------------------
# 11. determinism
# ---------------------------------------------------------------------------

def test_criterion_11_determinism(tmp_path):
    cfg = {"name": "determinism-gate", "n": 2,
           "initial": {"sphere": {"R0": 1.0}}, "nodes": 200,
           "step": {"A2_stop": 2.0 / 0.05**2},
           "diagnostics": {"noncollapse": True, "ratioA2H2": True,
                           "distance-scaling": True},
           "seed": 1}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    outs = []
    for sub in ("r1", "r2"):
        out = tmp_path / sub
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        outs.append(out)
    ok = True
    names = sorted(os.path.relpath(os.path.join(r, f), outs[0])
                   for r, _, fs in os.walk(outs[0]) for f in fs)
    for name in names:
        if name == "manifest.json":
            continue
        ok &= (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    # manifest digests verify against the files on disk
    import hashlib
    for out in outs:
        manifest = json.loads((out / "manifest.json").read_text())
        for rel, digest in manifest["files"].items():
            ok &= hashlib.sha256((out / rel).read_bytes()).hexdigest() == digest
    ok &= (json.loads((outs[0] / "manifest.json").read_text())["files"]
           == json.loads((outs[1] / "manifest.json").read_text())["files"])
    verdict(11, "determinism and schema", ok)
