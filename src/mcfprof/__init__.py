"""mcfprof: a numerical laboratory for first-time singularities of mean curvature flow."""

from .geometry import (CLOSED, PERIODIC, CurvatureField, FlowSnapshot,
                       GraphPatch, ProfileCurve, curvature_axisymmetric,
                       resample_arclength)
from .flow import StepControl, Trajectory, run_until, verify_mean_convexity
from .models import (ModelSolution, bowl_soliton_profile, grim_reaper_eval,
                     model_snapshot, shrinker_radius, translator_residual)
from .rescale import (BlowupSequence, BlowupTerm, DilationParams, fit_model,
                      normalized_blowup, parabolic_dilate, select_blowup_points)
from .diagnostics import (HarnackRecord, NoncollapseRecord, PinchingRecord,
                          convexity_check, harnack_check, inscribed_radius,
                          noncollapsing_ratio, pinching_profile, ratio_A2_H2,
                          singular_distance_scaling, verify_H_evolution)

__version__ = "0.1.0"
