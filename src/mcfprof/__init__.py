"""mcfprof: a numerical laboratory for first-time singularities of mean curvature flow."""

from .geometry import (CLOSED, PERIODIC, CurvatureField, FlowSnapshot,
                       ProfileCurve, curvature_axisymmetric, resample_arclength)
from .flow import StepControl, Trajectory, run_until
from .models import bowl_soliton_profile, shrinker_radius
from .rescale import (BlowupTerm, fit_model, normalized_blowup, parabolic_dilate,
                      select_blowup_points)
from .diagnostics import (SnapshotRecord, convexity_check, harnack_check,
                          noncollapsing_ratio, pinching_profile, ratio_A2_H2,
                          singular_distance_scaling, snapshot_records,
                          verify_H_evolution)

__version__ = "0.1.0"
