# Noncollapsing ratio and curvature pinching along a neckpinch
# ============================================================
#
# For mean-convex flows the inscribed radius r(x) at each point satisfies
# r * H >= kappa for a constant kappa > 0 preserved by the flow (and kappa is
# scale invariant, so it survives blow-up).  On model surfaces the constant
# is exact: r * H = n on a sphere, n - 1 on a cylinder.  Separately, the most
# negative principal curvature becomes negligible relative to H near a
# singularity: the pinching envelope ratio phi_hat(H)/H decays on the high-H
# decades.  This script tracks both quantities on a dumbbell run.

import numpy as np

from mcfprof import diagnostics as dg
from mcfprof.flow import StepControl, run_until
from mcfprof.geometry import FlowSnapshot
from mcfprof.shapes import cylinder_profile, dumbbell_profile, sphere_profile

for name, curve, exact in (
        ("sphere  n=2", sphere_profile(1.0, 2, 300), 2.0),
        ("sphere  n=3", sphere_profile(1.0, 3, 300), 3.0),
        ("cylinder n=2", cylinder_profile(0.5, np.pi, 2, 300), 1.0)):
    kappa = dg.noncollapsing_ratio(FlowSnapshot(curve, 0.0))
    print(f"{name}: kappa_min = {kappa:.5f}  (exact {exact})")

print("\ndumbbell neckpinch run ...")
initial = FlowSnapshot(dumbbell_profile(1.0, 0.35, 8.0, 2, 800), 0.0)
traj = run_until(initial, StepControl(A2_stop=2e4, max_nodes=20000))

print(f"{'t':>10} {'kappa_min':>10} {'worst lambda_1/H':>17}")
for rec in dg.snapshot_records(traj.snapshots, noncollapse=True):
    print(f"{rec.t:10.5f} {rec.kappa_min:10.4f} {rec.min_lambda1_over_H:17.4f}")
envelope = dg.pinching_profile(traj)

print("\npinching envelope by H-decade (high H first):")
print(f"{'H range':>24} {'phi_hat':>10} {'phi_hat/H':>10} {'samples':>8}")
for e in envelope:
    print(f"[{e['H_lo']:9.3f}, {e['H_hi']:9.3f}] {e['phi_hat']:10.4f} "
          f"{e['ratio']:10.4f} {e['count']:8d}")
print("\nthe top decade should have the smallest phi_hat/H: the surface is "
      "asymptotically convex where it is most curved")
