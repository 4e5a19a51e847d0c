"""The traced run records work in every layer where the workload exercises it.

    python3 -m pytest perfbench/test_layers.py

A tracing wrapper installed under a name no caller looks up records nothing,
so each layer metric below must show calls on the workload that exercises
that layer.  Takes about a minute (one short traced run per
workload).
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))

# workload -> span names that must record at least one call
EXPECTED_SPANS = {
    "neckpinch": [
        "shapes.build", "flow.run", "geometry.curvature", "geometry.resample",
        "geometry.embed", "diagnostics.noncollapse", "diagnostics.harnack",
        "diagnostics.pinching", "diagnostics.ratio", "diagnostics.hevolution",
        "diagnostics.distscale", "rescale.blowup", "rescale.classify", "rescale.dilate",
        "cli.timeseries", "cli.report", "cli.dump", "cli.digest"],
    "sphere400": [
        "shapes.build", "flow.run", "geometry.curvature", "diagnostics.noncollapse",
        "diagnostics.harnack", "diagnostics.pinching", "diagnostics.ratio",
        "diagnostics.hevolution", "diagnostics.distscale", "rescale.blowup",
        "rescale.classify", "cli.timeseries", "cli.report", "cli.dump", "cli.digest"],
}

# workload -> counters that must be positive
EXPECTED_COUNTS = {
    "neckpinch": ["flow.steps", "flow.resamples", "flow.nodes_final",
                  "diagnostics.radius_queries", "cli.bytes_written"],
    "sphere400": ["flow.steps", "flow.nodes_final", "cli.bytes_written"],
}


def traced_run(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    detail, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    return detail, result


@pytest.mark.parametrize("workload", sorted(EXPECTED_SPANS))
def test_every_exercised_layer_records_calls(workload):
    detail, result = traced_run(workload)
    assert result["correct"], detail["failed_ops"]
    spans = detail["spans"]
    silent = [name for name in EXPECTED_SPANS[workload]
              if spans.get(name, {}).get("calls", 0) == 0]
    assert not silent, f"no calls recorded for {silent} on {workload}"
    zero = [name for name in EXPECTED_COUNTS[workload]
            if result["metrics"][name]["value"] <= 0]
    assert not zero, f"zero counts for {zero} on {workload}"
