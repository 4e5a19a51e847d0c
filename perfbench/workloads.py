"""Benchmark workloads: `mcfprof` configs built from the workload seed.

Seed 0 gives the reference configs exactly.  Any other seed draws a small
radial perturbation of the neckpinch dumbbell (passed to the program through
the config's own ``seed``) and a sphere radius R0 near 1, for which the exact
extinction time T = R0^2 / 4 still holds.
"""

from __future__ import annotations

import random

NECK_DIAGNOSTICS = {
    "noncollapse": True, "pinching": True, "ratioA2H2": True,
    "harnack": {"R": 1.0, "H_threshold": 10.0},
    "blowup": {"points-rule": "neck", "count": 5},
    "distance-scaling": True,
    "Hevolution": True,
}

SPHERE_DIAGNOSTICS = dict(NECK_DIAGNOSTICS,
                          blowup={"points-rule": "max-curvature", "count": 5})


def neckpinch_config(seed: int) -> dict:
    """The README dumbbell config, every diagnostic on; perturbed when seed != 0."""
    initial = {"dumbbell": {"bulb_R": 1.0, "neck_r": 0.35, "length": 8.0}}
    if seed:
        amplitude = random.Random(seed).uniform(0.004, 0.006)
        initial["perturb"] = {"amplitude": amplitude, "modes": 3}
    return {"name": "neckpinch", "n": 2, "initial": initial, "nodes": 800,
            "step": {"A2_stop": 2e4, "max_nodes": 20000},
            "diagnostics": NECK_DIAGNOSTICS, "seed": seed}


def sphere_radius(seed: int) -> float:
    return 1.0 if seed == 0 else random.Random(seed).uniform(0.97, 1.03)


def sphere_config(seed: int) -> dict:
    """Round sphere of radius R0, 400 nodes, run until R ~ 0.03."""
    return {"name": "sphere400", "n": 2,
            "initial": {"sphere": {"R0": sphere_radius(seed)}}, "nodes": 400,
            "step": {"A2_stop": 2.0 / 0.03**2},
            "diagnostics": SPHERE_DIAGNOSTICS, "seed": 0}


# config: the scenario `mcfprof run` is timed on; best_fit: the expected
# tangent-flow classification of the last blow-up term
WORKLOADS = {
    "neckpinch": {"config": neckpinch_config, "best_fit": "cylinder"},
    "sphere400": {"config": sphere_config, "best_fit": "sphere"},
}
