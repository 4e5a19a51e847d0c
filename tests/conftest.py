"""Shared scenario runs (session-scoped: each flow is integrated once)."""

import time

import numpy as np
import pytest

from mcfprof.flow import StepControl, run_until
from mcfprof.geometry import FlowSnapshot
from mcfprof.shapes import (cylinder_profile, dumbbell_profile,
                            ovaloid_profile, sphere_profile)


def _timed_run(initial, ctl):
    t0 = time.monotonic()
    traj = run_until(initial, ctl)
    return {"traj": traj, "runtime": time.monotonic() - t0}


@pytest.fixture(scope="session")
def sphere_run():
    """Round unit sphere, n=2, 400 nodes, integrated to R ~ 0.03."""
    initial = FlowSnapshot(sphere_profile(1.0, 2, 400), 0.0)
    ctl = StepControl(A2_stop=2.0 / 0.03**2)
    return _timed_run(initial, ctl)


@pytest.fixture(scope="session")
def cylinder_run():
    """Round unit cylinder over one z-period pi, n=2, 400 nodes."""
    initial = FlowSnapshot(cylinder_profile(1.0, np.pi, 2, 400), 0.0)
    ctl = StepControl(A2_stop=1.0 / 0.03**2)
    return _timed_run(initial, ctl)


@pytest.fixture(scope="session")
def dumbbell_run():
    """Neckpinch scenario: bulb radius 1, neck radius 0.35, length 8, 800 nodes."""
    initial = FlowSnapshot(dumbbell_profile(1.0, 0.35, 8.0, 2, 800), 0.0)
    ctl = StepControl(A2_stop=2.0e4, max_nodes=20000)
    return _timed_run(initial, ctl)


@pytest.fixture(scope="session")
def ovaloid_run():
    """Round-point scenario: prolate ovaloid, semi-axes (1, 0.6), 400 nodes."""
    initial = FlowSnapshot(ovaloid_profile(1.0, 0.6, 2, 400), 0.0)
    ctl = StepControl(A2_stop=6.0e4)
    return _timed_run(initial, ctl)
