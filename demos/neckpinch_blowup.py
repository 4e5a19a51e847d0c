# Dumbbell neckpinch: normalized blow-up and tangent-flow classification
# ======================================================================
#
# A dumbbell with a thin flat waist develops a neckpinch: curvature at the
# waist blows up while the bulbs survive.  Zooming in with parabolic
# dilations normalized so that H = 1 at the marked point, the rescaled
# surfaces approach a shrinking round cylinder.  This script runs the flow to
# a large curvature threshold, builds the normalized blow-up sequence at the
# neck, scores the final term against the unit-H cylinder (radius n - 1) and
# sphere (radius n), and checks the sqrt(tau) distance-scaling law at the
# pinch point.

import numpy as np

from mcfprof import diagnostics as dg
from mcfprof import rescale as rs
from mcfprof.flow import StepControl, run_until
from mcfprof.geometry import FlowSnapshot
from mcfprof.shapes import dumbbell_profile

initial = FlowSnapshot(dumbbell_profile(1.0, 0.35, 8.0, 2, 800), 0.0)
traj = run_until(initial, StepControl(A2_stop=2e4, max_nodes=20000))
print(f"stop reason: {traj.stop_reason}; snapshots recorded: {len(traj.snapshots)}")
est = traj.singular_estimate
print(f"pinch estimate: T = {est.T:.6f} at (z, rho) = ({est.z:.4f}, {est.rho:.4f})\n")

points = rs.select_blowup_points(traj, "neck", 4)
terms = rs.normalized_blowup(traj, points)
print(f"{'scale a':>12} {'H at origin':>12}")
for term in terms:
    print(f"{term.scale:12.4f} {term.H_origin:12.6f}")

fits = rs.classify_tangent_flow(terms[-1])
cyl, sph = fits["cylinder"], fits["sphere"]
print(f"\ntangent flow: {fits['best']}")
print(f"  cylinder model: R = n - 1 = {cyl['params']['R']:.0f}, "
      f"rms/R = {cyl['rms_over_R']:.4f}")
print(f"  sphere model:   R = n = {sph['params']['R']:.0f}, rms = {sph['rms']:.4f} "
      f"({sph['rms'] / cyl['rms']:.1f}x the cylinder residual)")

for term in terms[-3:]:
    min_lam1 = dg.convexity_check(term.center)
    print(f"  rescaled term at scale {term.scale:10.2f}: min lambda_1 = {min_lam1:+.4f}")
min_lam1 = dg.convexity_check(traj.snapshots[0])
print(f"  unrescaled initial surface:         min lambda_1 = {min_lam1:+.4f}")

res = dg.singular_distance_scaling(traj)
print(f"\ndistance scaling: log-log slope of r_tau vs tau = {res['slope']:.4f} "
      f"(a neck gives 1/2)")
band = res["ratio"] / np.sqrt(2.0)
print(f"r_tau / sqrt(2 tau) over the stored snapshots: "
      f"[{band.min():.4f}, {band.max():.4f}]  (cylinder value 1)")
