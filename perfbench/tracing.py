"""In-memory span tracing around the calls into each mcfprof layer.

Each wrapped function records a span (name, start, end, parent, failed).
A wrapper is installed under every name a caller looks the function up by:
``cli`` imports ``run_until`` and ``build_initial`` by name, ``flow`` and
``shapes`` import ``resample_arclength`` by name, ``cli`` reaches the
diagnostics and rescale layers through the ``dg``/``rs`` module aliases, and
the embeddedness check is a ``ProfileCurve`` method.  Patching only the
defining module would miss every call made through another name.
"""

from __future__ import annotations

import functools
import json
import os
from collections import defaultdict
from time import perf_counter

NAME, START, END, PARENT, FAILED = range(5)


class Tracer:
    """Span recorder; spans stay in memory until ``dump``."""

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(int)
        self._stack = []

    def wrap(self, name, fn, on_exit=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, False]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[FAILED] = True
                raise
            finally:
                span[END] = perf_counter()
                self._stack.pop()
            if on_exit is not None:
                on_exit(self.counters, args, result)
            return result
        return traced

    def summary(self) -> dict:
        """Per span name: calls, failed calls, total and self time, calls by parent name."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child_time[span[PARENT]] += span[END] - span[START]
        out = {}
        for k, span in enumerate(self.spans):
            rec = out.setdefault(span[NAME], {"calls": 0, "failed": 0, "total_s": 0.0,
                                              "self_s": 0.0, "parents": {}})
            dur = span[END] - span[START]
            rec["calls"] += 1
            rec["failed"] += int(span[FAILED])
            rec["total_s"] += dur
            rec["self_s"] += dur - child_time[k]
            parent = self.spans[span[PARENT]][NAME] if span[PARENT] >= 0 else ""
            rec["parents"][parent] = rec["parents"].get(parent, 0) + 1
        return out

    def dump(self, path: str):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "failed"],
                       "spans": self.spans}, fh)


def _count_radius_queries(counters, args, result):
    counters["radius_queries"] += args[0].surface.num_nodes


def _count_flow(counters, args, traj):
    counters["flow_steps"] += max(len(traj.step_times) - 1, 0)
    counters["nodes_final"] = traj.snapshots[-1].surface.num_nodes


def _count_written(counters, args, result):
    counters["bytes_written"] += os.path.getsize(args[0])


def install(tracer: Tracer):
    """Wrap every layer entry point; returns an undo function."""
    from mcfprof import cli, diagnostics, flow, geometry, rescale, shapes

    # span name, defining owner and attribute, other owners that bind the name,
    # and the counter hook
    table = [
        ("shapes.build", cli, "build_initial", (), None),
        ("flow.run", cli, "run_until", (), _count_flow),
        ("geometry.curvature", geometry, "curvature_axisymmetric", (), None),
        ("geometry.resample", geometry, "resample_arclength", (flow, shapes), None),
        ("geometry.embed", geometry.ProfileCurve, "is_self_intersecting", (), None),
        ("diagnostics.noncollapse", diagnostics, "noncollapsing_ratio", (), _count_radius_queries),
        ("diagnostics.harnack", diagnostics, "harnack_check", (), None),
        ("diagnostics.pinching", diagnostics, "pinching_profile", (), None),
        ("diagnostics.ratio", diagnostics, "ratio_A2_H2", (), None),
        ("diagnostics.hevolution", diagnostics, "verify_H_evolution", (), None),
        ("diagnostics.distscale", diagnostics, "singular_distance_scaling", (), None),
        ("rescale.blowup", rescale, "select_blowup_points", (), None),
        ("rescale.blowup", rescale, "normalized_blowup", (), None),
        ("rescale.classify", rescale, "classify_tangent_flow", (), None),
        ("rescale.dilate", rescale, "parabolic_dilate", (), None),
        ("cli.timeseries", cli, "write_timeseries", (), _count_written),
        ("cli.report", cli, "build_report", (), None),
        ("cli.dump", cli, "_dump_json", (), _count_written),
        ("cli.digest", cli, "_sha256", (), None),
    ]
    saved = []
    for name, owner, attr, also, hook in table:
        original = getattr(owner, attr)
        wrapped = tracer.wrap(name, original, hook)
        for target in (owner, *also):
            saved.append((target, attr, getattr(target, attr)))
            setattr(target, attr, wrapped)

    def undo():
        for target, attr, original in reversed(saved):
            setattr(target, attr, original)
    return undo


# per-layer metrics: name -> unit (lower is better for all of them)
LAYER_METRICS = {
    "shapes.build_s": "s",
    "flow.run_s": "s",
    "flow.steps": "count",
    "flow.us_per_step": "us",
    "flow.resamples": "count",
    "flow.nodes_final": "count",
    "geometry.curvature_calls": "count",
    "geometry.curvature_s": "s",
    "geometry.resample_calls": "count",
    "geometry.resample_s": "s",
    "geometry.embed_checks": "count",
    "geometry.embed_s": "s",
    "diagnostics.noncollapse_calls": "count",
    "diagnostics.radius_queries": "count",
    "diagnostics.noncollapse_s": "s",
    "diagnostics.us_per_radius": "us",
    "diagnostics.harnack_calls": "count",
    "diagnostics.harnack_failed": "count",
    "diagnostics.harnack_s": "s",
    "diagnostics.pinching_s": "s",
    "diagnostics.ratio_s": "s",
    "diagnostics.hevolution_s": "s",
    "diagnostics.distscale_s": "s",
    "rescale.blowup_s": "s",
    "rescale.classify_s": "s",
    "rescale.dilations": "count",
    "cli.timeseries_self_s": "s",
    "cli.report_self_s": "s",
    "cli.dump_s": "s",
    "cli.bytes_written": "bytes",
    "cli.digest_s": "s",
    "trace.spans": "count",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "ratio",
}


def layer_metrics(summary: dict, counters: dict) -> dict:
    """Per-layer values of one traced call (every ``_s`` is the span's self time)."""
    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    def self_s(name):
        return summary.get(name, {}).get("self_s", 0.0)

    steps = counters.get("flow_steps", 0)
    queries = counters.get("radius_queries", 0)
    return {
        "shapes.build_s": self_s("shapes.build"),
        "flow.run_s": self_s("flow.run"),
        "flow.steps": steps,
        "flow.us_per_step": 1e6 * self_s("flow.run") / steps if steps else 0.0,
        "flow.resamples": summary.get("geometry.resample", {}).get("parents", {}).get("flow.run", 0),
        "flow.nodes_final": counters.get("nodes_final", 0),
        "geometry.curvature_calls": calls("geometry.curvature"),
        "geometry.curvature_s": self_s("geometry.curvature"),
        "geometry.resample_calls": calls("geometry.resample"),
        "geometry.resample_s": self_s("geometry.resample"),
        "geometry.embed_checks": calls("geometry.embed"),
        "geometry.embed_s": self_s("geometry.embed"),
        "diagnostics.noncollapse_calls": calls("diagnostics.noncollapse"),
        "diagnostics.radius_queries": queries,
        "diagnostics.noncollapse_s": self_s("diagnostics.noncollapse"),
        "diagnostics.us_per_radius": 1e6 * self_s("diagnostics.noncollapse") / queries if queries else 0.0,
        "diagnostics.harnack_calls": calls("diagnostics.harnack"),
        "diagnostics.harnack_failed": summary.get("diagnostics.harnack", {}).get("failed", 0),
        "diagnostics.harnack_s": self_s("diagnostics.harnack"),
        "diagnostics.pinching_s": self_s("diagnostics.pinching"),
        "diagnostics.ratio_s": self_s("diagnostics.ratio"),
        "diagnostics.hevolution_s": self_s("diagnostics.hevolution"),
        "diagnostics.distscale_s": self_s("diagnostics.distscale"),
        "rescale.blowup_s": self_s("rescale.blowup") + self_s("rescale.dilate"),
        "rescale.classify_s": self_s("rescale.classify"),
        "rescale.dilations": calls("rescale.dilate"),
        "cli.timeseries_self_s": self_s("cli.timeseries"),
        "cli.report_self_s": self_s("cli.report"),
        "cli.dump_s": self_s("cli.dump"),
        "cli.bytes_written": counters.get("bytes_written", 0),
        "cli.digest_s": self_s("cli.digest"),
        "trace.spans": sum(rec["calls"] for rec in summary.values()),
    }
