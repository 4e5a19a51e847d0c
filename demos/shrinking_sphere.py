# Shrinking sphere: radius law and extinction-time estimate
# =========================================================
#
# A round sphere of radius R0 under mean curvature flow stays round and obeys
# R(t) = sqrt(R0^2 - 2 n t), vanishing at T = R0^2 / (2 n).  For n = 2 and
# R0 = 1 that is T = 0.25.  This script integrates the axisymmetric profile
# and prints the numerical radius against the analytic law, plus the
# extinction-time estimate extrapolated from the curvature history.

import numpy as np

from mcfprof.flow import StepControl, run_until
from mcfprof.geometry import FlowSnapshot
from mcfprof.shapes import sphere_profile

initial = FlowSnapshot(sphere_profile(1.0, 2, 400), 0.0)
traj = run_until(initial, StepControl(A2_stop=2.0 / 0.05**2))

print(f"stop reason: {traj.stop_reason}")
print(f"{'t':>8} {'R (numerical)':>14} {'R (analytic)':>13} {'rel. error':>11}")
for snap in traj.snapshots:
    R_num = float(np.mean(np.hypot(snap.surface.z, snap.surface.r)))
    R_exact = np.sqrt(max(1.0 - 4.0 * snap.t, 0.0))
    if R_exact == 0.0:
        continue
    print(f"{snap.t:8.4f} {R_num:14.8f} {R_exact:13.8f} "
          f"{abs(R_num / R_exact - 1.0):11.2e}")

est = traj.singular_estimate
print(f"\nextinction estimate T = {est.T:.6f}  (analytic 0.25, "
      f"error {abs(est.T - 0.25) / 0.25:.2%})")
print(f"singular point (z, rho) = ({est.z:.4f}, {est.rho:.4f})  (analytic origin)")
