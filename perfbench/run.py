"""mcfprof benchmark: time `mcfprof run` and check its outputs.

    python3 perfbench/run.py --workload neckpinch --seed 0 --seconds 50 --trace 0

Workloads are defined in ``workloads.py``.  Every timed call runs in a fresh
single-threaded process (``worker.py``) whose BLAS thread pools are pinned to
one thread through the environment, before Python starts.

With ``--trace 0`` the last line of standard output carries the end-to-end
metrics of ``BENCHMARK.json`` (``GATED``); with ``--trace 1`` the budget is
split between an untraced and a traced process, and the last line carries
the per-layer metrics and the tracing overhead.  The line before it carries the details:
every end-to-end metric of the workload, accuracy metrics included, the
failed checks and the SHA-256 digests of ``report.json`` and
``timeseries.csv``.  The exit code is 0 whenever a result is printed; the
``correct`` field says whether every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench-work")

sys.path.insert(0, HERE)
from tracing import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# set-up samples per untraced run: the median is reported as setup_s
SETUPS = 7
# every process of one run must end within this many seconds
RUN_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "MCFPROF_THREADS")
# the end-to-end metrics of BENCHMARK.json; the detail line carries the rest
GATED = ("wall_s", "setup_s", "peak_rss_mb")
# accuracy metrics (unit: ratio), each reported on the workloads where it is defined
ACCURACY = ("T_rel_err", "radius_law_err", "kappa_rel_err", "tangent_rms_over_R",
            "dist_slope_err")


def spans_path(workload):
    return os.path.join(WORK_ROOT, f"spans-{workload}.json")


class BenchError(Exception):
    """A process of the benchmark could not produce its result."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.update({var: "1" for var in THREAD_VARS})
    return env


class Runner:
    """Starts worker processes one at a time inside one run's work directory."""

    def __init__(self, workload, seed, seconds, work):
        self.workload, self.seed, self.seconds, self.work = workload, seed, seconds, work
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.count = 0

    def spawn(self, role, trace=False, seconds=None):
        """Run one worker to its end and return its result."""
        self.count += 1
        tag = f"{self.count:02d}-{role}"
        req = {"workload": self.workload, "seed": self.seed, "role": role,
               "workdir": self.work, "seconds": seconds or self.seconds, "trace": trace,
               "result_path": os.path.join(self.work, f"{tag}.result.json"),
               "spans_path": spans_path(self.workload)}
        req_path = os.path.join(self.work, f"{tag}.request.json")
        with open(req_path, "w") as fh:
            json.dump(req, fh)
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError(f"no time left for the {role} process")
        t0 = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "worker.py"), req_path, repr(t0)],
                env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{role} process exceeded the run limit") from None
        if proc.returncode != 0 or not os.path.isfile(req["result_path"]):
            raise BenchError(f"{role} process failed (exit {proc.returncode}):\n{proc.stderr}")
        with open(req["result_path"]) as fh:
            return json.load(fh)


def run_workload(runner: Runner, trace: bool) -> dict:
    """Start the run's processes and gather their results."""
    if trace:
        half = runner.seconds / 2
        measure = runner.spawn("measure", seconds=half)
        traced = [runner.spawn("measure", trace=True, seconds=half)]
        setups = [measure]
    else:
        measure = runner.spawn("measure")
        traced = []
        setups = [measure] + [runner.spawn("setup") for _ in range(SETUPS - 1)]
    return {"setups": [res["ready_s"] for res in setups], "measures": [measure],
            "traced": traced}


def tally(out: dict):
    """(attempted, failed, names of failed operations) over every process of the run."""
    attempted, failed, names = 0, 0, []

    def op(name, ok):
        nonlocal attempted, failed
        attempted += 1
        if not ok:
            failed += 1
            names.append(name)

    for side in ("measures", "traced"):
        for res in out[side]:
            first = res["calls"][0]["digests"]
            for k, call in enumerate(res["calls"]):
                for name, ok in call["ops"].items():
                    op(f"{side}.call[{k}].{name}", ok)
                if k:
                    op(f"{side}.call[{k}].deterministic", call["digests"] == first)
    return attempted, failed, names


def metric(value, unit):
    return {"value": value, "unit": unit}


def summarize(workload, out: dict, trace: bool):
    """(detail, attempted, failed, metrics) for the run."""
    calls = [c for res in out["measures"] for c in res["calls"]]
    walls = [c["wall_s"] for c in calls]
    attempted, failed, names = tally(out)
    detail = {"calls": len(calls), "wall_s_samples": walls, "setup_s_samples": out["setups"],
              "digests": calls[0]["digests"], "failed_ops": names,
              "errors": [c["error"] for c in calls if "error" in c]}
    every = {
        "wall_s": metric(statistics.median(walls), "s"),
        "setup_s": metric(statistics.median(out["setups"]), "s"),
        "peak_rss_mb": metric(statistics.median(r["peak_rss_mb"] for r in out["measures"]), "MB"),
        "failed_frac": metric(failed / attempted, "ratio"),
    }
    for name in ACCURACY:
        values = [c["accuracy"][name] for c in calls if name in c["accuracy"]]
        if values:
            every[name] = metric(statistics.median(values), "ratio")
    detail["end_to_end"] = every
    missing = [name for name in GATED if name not in every]
    if missing:
        raise BenchError(f"no value for {missing}; failed operations: {names}")
    end_to_end = {name: every[name] for name in GATED}
    if not trace:
        return detail, attempted, failed, end_to_end

    traced_calls = [c for res in out["traced"] for c in res["calls"]]
    layers = {name: metric(statistics.median(c["layers"][name] for c in traced_calls), unit)
              for name, unit in LAYER_METRICS.items() if name in traced_calls[0]["layers"]}
    traced_wall = statistics.median(c["wall_s"] for c in traced_calls)
    untraced_wall = end_to_end["wall_s"]["value"]
    layers["trace.wall_s"] = metric(traced_wall, "s")
    layers["trace.overhead_s"] = metric(traced_wall - untraced_wall, "s")
    layers["trace.overhead_frac"] = metric((traced_wall - untraced_wall) / untraced_wall, "ratio")
    detail["spans"] = traced_calls[-1]["spans"]
    detail["spans_file"] = os.path.relpath(spans_path(workload), ROOT)
    return detail, attempted, failed, layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0,
                        help="time budget of each measuring process (at least one call runs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not os.path.isfile(os.path.join(SRC, "mcfprof", "cli.py")):
        print(f"mcfprof sources not found under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = os.path.join(WORK_ROOT, f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        runner = Runner(args.workload, args.seed, args.seconds, work)
        out = run_workload(runner, bool(args.trace))
        detail, attempted, failed, metrics = summarize(args.workload, out, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    detail = dict(workload=args.workload, seed=args.seed, trace=args.trace, **detail)
    print(json.dumps(detail))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
