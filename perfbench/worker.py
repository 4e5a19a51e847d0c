"""One benchmark process: set up a workload, then time `mcfprof.cli.main` calls.

    python3 perfbench/worker.py <request.json> <spawn time on the monotonic clock>

``perfbench/run.py`` starts this script in a fresh process with BLAS threads
pinned to one.  The request (a JSON object) names the role, the workload, the
seed, the work directory, the time budget, whether to trace, and where to
write the result:

- ``setup``: import the program and write the config, then stop;
- ``measure``: set up, then call ``main`` until the budget is spent (at least
  once), checking the outputs of every call outside the timed region.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import sys
import time
import traceback

import tracing
from workloads import WORKLOADS


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _headline(key, entry):
    """The number that stands for one diagnostic's answer in report.json."""
    if key == "noncollapse":
        return entry.get("kappa_min_overall")
    if key == "pinching":
        series = [r["worst_ratio"] for r in entry.get("worst_ratio_series", [])]
        return min(series) if series and all(_finite(v) for v in series) else None
    if key == "harnack":
        return entry.get("min_delta")
    if key == "ratioA2H2":
        return entry.get("worst_excess")
    if key == "Hevolution":
        return entry.get("max_residual")
    if key == "blowup":
        fits = entry.get("fits", {})
        return fits.get(fits.get("best"), {}).get("rms")
    if key == "distance-scaling":
        return entry.get("slope")
    raise KeyError(key)


def _radius_law_err(run_dir, R0):
    """Largest |R_num / R(t) - 1| over nodes of snapshots with t <= 0.9 T (criterion 01)."""
    T = R0 * R0 / 4.0
    worst = 0.0
    snap_dir = os.path.join(run_dir, "snapshots")
    for name in sorted(os.listdir(snap_dir)):
        with open(os.path.join(snap_dir, name)) as fh:
            snap = json.load(fh)
        if snap["t"] > 0.9 * T:
            continue
        exact = math.sqrt(R0 * R0 - 4.0 * snap["t"])
        for z, r in zip(snap["z"], snap["r"]):
            worst = max(worst, abs(math.hypot(z, r) / exact - 1.0))
    return worst


def check_call(workload, spec, cfg, run_dir, rc):
    """(ops, accuracy, digests) for one call; ops maps operation name -> passed."""
    ops = {"invocation": rc == 0}
    report_path = os.path.join(run_dir, "report.json")
    if not os.path.isfile(report_path):
        ops["report"] = False
        return ops, {}, {}
    with open(report_path, "rb") as fh:
        raw = fh.read()
    report = json.loads(raw)
    diags = report["diagnostics"]
    ops["stop_reason"] = report["stop_reason"] == "curvature-threshold"
    for key, enabled in sorted(cfg["diagnostics"].items()):
        if enabled:
            entry = diags.get(key, {"error": "missing"})
            ops[f"diagnostic.{key}"] = "error" not in entry and _finite(_headline(key, entry))
    fits = diags.get("blowup", {}).get("fits", {})
    ops["best_fit"] = fits.get("best") == spec["best_fit"]
    digests = {"report.json": hashlib.sha256(raw).hexdigest(),
               "timeseries.csv": _sha256(os.path.join(run_dir, "timeseries.csv"))}

    accuracy = {}
    fit = fits.get(spec["best_fit"], {})
    rms, R = fit.get("rms"), fit.get("params", {}).get("R")
    if _finite(rms) and _finite(R) and R > 0:
        accuracy["tangent_rms_over_R"] = rms / R
    slope = diags.get("distance-scaling", {}).get("slope")
    if _finite(slope):
        accuracy["dist_slope_err"] = abs(slope - 0.5)
    if workload == "sphere400":
        R0 = cfg["initial"]["sphere"]["R0"]
        T_exact = R0 * R0 / 4.0
        T = report["T_sing"]
        ops["T_within_1pct"] = _finite(T) and abs(T - T_exact) < 0.01 * T_exact
        if _finite(T):
            accuracy["T_rel_err"] = abs(T - T_exact) / T_exact
        accuracy["radius_law_err"] = _radius_law_err(run_dir, R0)
        kappa = diags.get("noncollapse", {}).get("kappa_min_overall")
        if _finite(kappa):
            accuracy["kappa_rel_err"] = abs(kappa / cfg["n"] - 1.0)
    return ops, accuracy, digests


def main():
    request_path, spawned_at = sys.argv[1], float(sys.argv[2])
    with open(request_path) as fh:
        req = json.load(fh)
    from mcfprof import cli

    workload, role, work = req["workload"], req["role"], req["workdir"]
    spec = WORKLOADS[workload]
    cfg = spec["config"](req["seed"])
    cfg_path = os.path.join(work, "config.json")
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    result = {"ready_s": time.monotonic() - spawned_at}

    if role == "measure":
        calls = []
        deadline = time.monotonic() + req["seconds"]
        while True:
            run_dir = os.path.join(work, f"out-{len(calls)}")
            argv = ["run", "--config", cfg_path, "--out", run_dir]
            tracer = tracing.Tracer() if req["trace"] else None
            undo = tracing.install(tracer) if tracer else None
            error = None
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = cli.main(argv)
            except Exception:
                rc, error = None, traceback.format_exc()
            wall = time.perf_counter() - t0
            if undo:
                undo()
            if not calls:
                # a user runs one command per process: later calls reuse its heap
                result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            ops, accuracy, digests = check_call(workload, spec, cfg, run_dir, rc)
            record = {"wall_s": wall, "rc": rc, "ops": ops, "accuracy": accuracy,
                      "digests": digests}
            if error:
                record["error"] = error
            if tracer:
                record["spans"] = tracer.summary()
                record["layers"] = tracing.layer_metrics(record["spans"], tracer.counters)
                tracer.dump(req["spans_path"])
            calls.append(record)
            shutil.rmtree(run_dir, ignore_errors=True)
            if error or time.monotonic() + wall > deadline:
                break
        result["calls"] = calls

    with open(req["result_path"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
