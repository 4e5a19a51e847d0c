# Reference solutions: shrinkers and the bowl soliton
# ===================================================
#
# The package carries closed-form and ODE-based model solutions used as
# oracles throughout the test suite: the exact radius law `shrinker_radius`
# of the shrinking sphere S^n and cylinder S^(n-1) x R (built as the `sphere`
# and `cylinder` shapes of a run config), and the rotationally symmetric
# translator, the bowl soliton (its profile ODE integrated outward from the tip).
# This script prints the same residual table as `mcfprof models` and then a
# few bowl-soliton profile values with their asymptotic trend
# u(r) ~ r^2 / (2 (n - 1)).  It exits with the table's code, so it fails
# when a reference residual leaves its tolerance.

import sys

import numpy as np

from mcfprof.cli import models_check
from mcfprof.models import bowl_soliton_profile

exit_code = models_check()
print(f"\nmodels table exit code: {exit_code} (0 means every residual in tolerance)")

prof = bowl_soliton_profile(2, 50.0, 0.1)
print(f"\nbowl soliton, n = 2 (u'' /(1+u'^2) + (n-1) u'/r = 1):")
up_label, slope_label = "u'(r)", "u'(r)/r"
print(f"{'r':>8} {'u(r)':>12} {up_label:>10} {slope_label:>10}")
for r_probe in (1.0, 5.0, 10.0, 25.0, 50.0):
    k = int(np.argmin(np.abs(prof.r - r_probe)))
    print(f"{prof.r[k]:8.2f} {prof.u[k]:12.4f} {prof.up[k]:10.4f} "
          f"{prof.up[k] / prof.r[k]:10.4f}")
print("u'(r)/r -> 1/(n-1) = 1 at large r: the bowl opens like a paraboloid")
sys.exit(exit_code)
