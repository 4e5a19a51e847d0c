"""Scenario runner and analysis CLI: ``mcfprof run | analyze | models``.

Emits deterministic artifacts per run: timeseries.csv (one row per recorded
snapshot), snapshots/t_<index>.json, report.json (enabled diagnostics), and
manifest.json (config echo, content digests, run counters, stage timings).
Identical config and seed reproduce byte-identical CSV/JSON.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import fnmatch
import hashlib
import json
import math
import os
import sys
import time
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import __version__
from . import diagnostics as dg
from . import rescale as rs
from .errors import (ConfigError, DegenerateSurfaceError, McfError, NumericalBlowupError,
                     ResolutionError, TopologyError)
from .flow import (STOP_T_END, STOP_UNDERFLOW, StepControl, SingularEstimate, Trajectory,
                   run_until)
from .geometry import (FlowSnapshot, ProfileCurve, curvature_axisymmetric, max_curvature_node,
                       nearest_node)
from .models import bowl_soliton_profile, shrinker_radius
from .shapes import (cylinder_profile, dumbbell_profile, ovaloid_profile,
                     perturb_profile, sphere_profile)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_INCONCLUSIVE = 4

# the largest dimension n: an integer past the float range overflows (n - 1) * lam_rot, and
# 100 is well above the n <= 10 whose sphere runs have been checked against T = R0^2/(2n)
MAX_N = 100
MAX_PERTURB_MODES = 64
MAX_NODES = 10**6  # the largest nodes and step.max_nodes: bounds the memory a config can ask for


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

def _is_int(val) -> bool:
    return isinstance(val, int) and not isinstance(val, bool)


def _is_number(val) -> bool:
    """A finite JSON number; ``true``/``false`` are not numbers here."""
    if not (_is_int(val) or isinstance(val, float)):
        return False
    try:
        return math.isfinite(val)
    except OverflowError:  # an integer literal past the float range
        return False


def _require(cond, msg, fieldpath):
    if not cond:
        raise ConfigError(msg, field=fieldpath)


def _is_positive(val) -> bool:
    return _is_number(val) and val > 0


# an option table maps each option of a group to (check, requirement, default); the default
# REQUIRED means the option must be given, and None that an absent option stays absent
REQUIRED = object()
POSITIVE = (_is_positive, "must be a positive finite number")
NODES = (lambda v: _is_int(v) and 8 <= v <= MAX_NODES, f"must be an integer in [8, {MAX_NODES}]")
TEXT = (lambda v: isinstance(v, str) and v != "", "must be a nonempty string")
OBJECT = (lambda v: isinstance(v, dict), "must be an object", {})
LENGTH = (*POSITIVE, REQUIRED)
# the shape tags of an initial datum: tag -> (constructor, its field table), called as
# constructor(*fields, n, nodes); the other tag is "profile-file", whose field is its path
SHAPES = {
    "sphere": (sphere_profile, {"R0": LENGTH}),
    "cylinder": (cylinder_profile, {"R0": LENGTH, "period": (*POSITIVE, math.pi)}),
    "dumbbell": (dumbbell_profile, {"bulb_R": LENGTH, "neck_r": LENGTH, "length": LENGTH}),
    "ovaloid": (ovaloid_profile, {"a": LENGTH, "b": LENGTH}),
}
PROFILE_FILE = {"path": (*TEXT, REQUIRED)}
PERTURB_OPTIONS = {
    "amplitude": (lambda v: _is_number(v) and v >= 0, "must be a finite number >= 0", 0.0),
    "modes": (lambda v: _is_int(v) and 0 <= v <= MAX_PERTURB_MODES,
              f"must be an integer in [0, {MAX_PERTURB_MODES}]", 3)}
# the step options take their defaults from StepControl's fields; t_end's is None,
# so an absent t_end stays absent
STEP_OPTIONS = {f.name: (*(NODES if f.name == "max_nodes" else POSITIVE), f.default)
                for f in dataclasses.fields(StepControl)}
CONFIG_OPTIONS = {
    "name": (*TEXT, REQUIRED),
    "n": (lambda v: _is_int(v) and 2 <= v <= MAX_N, f"must be an integer in [2, {MAX_N}]", 2),
    "initial": (lambda v: isinstance(v, dict) and len([k for k in v if k != "perturb"]) == 1,
                "must carry exactly one datum tag", REQUIRED),
    "nodes": (*NODES, 400),
    "step": OBJECT,
    "diagnostics": OBJECT,  # each one's options are in DIAGNOSTICS below
    "seed": (lambda v: _is_int(v) and v >= 0, "must be an integer >= 0", 0),
}


def _options(spec, table: dict, path: str) -> dict:
    """A new dict of spec's options, each checked against table, with the defaults filled in."""
    group, prefix = (path, path + ".") if path else ("config", "")
    _require(isinstance(spec, dict), f"{group} must be an object", path)
    for opt in spec:
        _require(opt in table, f"unknown {group} option {opt!r}", prefix + opt)
    out = {}
    for opt, (check, need, default) in table.items():
        if opt in spec:
            _require(check(spec[opt]), f"{opt} {need}", prefix + opt)
            out[opt] = spec[opt]
        elif default is not None:
            _require(default is not REQUIRED, f"missing option {opt}", prefix + opt)
            out[opt] = default
    return out


def validate_config(raw) -> dict:
    """The resolved config: every option checked, every default filled in.

    A bad field raises ConfigError naming it.  A diagnostic given as true or an object
    is on, with the defaults of the options it leaves out; one given as false is left
    out.  The result shares no object with ``raw``, and validating it again returns it.
    """
    cfg = _options(raw, CONFIG_OPTIONS, "")
    tag = next(k for k in cfg["initial"] if k != "perturb")
    _require(tag in SHAPES or tag == "profile-file", f"unknown initial tag {tag!r}",
             f"initial.{tag}")
    body = _options(cfg["initial"][tag], SHAPES[tag][1] if tag in SHAPES else PROFILE_FILE,
                    f"initial.{tag}")
    if tag == "dumbbell":
        _require(body["neck_r"] < body["bulb_R"], "dumbbell requires neck_r < bulb_R",
                 "initial.dumbbell.neck_r")
    initial = {tag: body}
    if "perturb" in cfg["initial"]:
        initial["perturb"] = _options(cfg["initial"]["perturb"], PERTURB_OPTIONS, "initial.perturb")
    diags = {}
    for key, spec in cfg["diagnostics"].items():
        where = f"diagnostics.{key}"
        _require(key in DIAGNOSTICS, f"unknown diagnostic {key!r}", where)
        _require(isinstance(spec, (bool, dict)), f"{key} must be true, false or an object", where)
        if spec is not False:
            diags[key] = _options({} if spec is True else spec, DIAGNOSTICS[key].options, where)
    return dict(cfg, initial=initial, step=_options(cfg["step"], STEP_OPTIONS, "step"),
                diagnostics=diags)


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}", field="")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}", field="")
    return validate_config(raw)


def _valid_datum(curve: ProfileCurve, tag: str) -> ProfileCurve:
    try:
        curve.validate()
        with np.errstate(over="ignore", invalid="ignore"):
            if not np.all(np.isfinite(curvature_axisymmetric(curve).A2)):
                raise DegenerateSurfaceError("non-finite curvature (a cusp or coincident nodes)")
    except (ResolutionError, DegenerateSurfaceError, TopologyError) as exc:
        raise ConfigError(f"invalid initial datum: {exc}", field=f"initial.{tag}")
    return curve


def build_initial(cfg: dict) -> FlowSnapshot:
    initial = cfg["initial"]
    tag = next(k for k in initial if k != "perturb")
    body = initial[tag]
    n, nodes = cfg["n"], cfg["nodes"]
    if tag == "profile-file":
        try:
            with open(body["path"]) as fh:
                data = json.load(fh)
            curve = ProfileCurve(np.asarray(data["z"]), np.asarray(data["r"]), n,
                                 data["topology"], data.get("period"))
        except (OSError, KeyError, TypeError, ValueError, IndexError) as exc:
            raise ConfigError(f"bad profile file: {exc}", field="initial.profile-file.path")
        # the perturbation respaces with splines, which need a valid curve
        _valid_datum(curve, tag)
    else:
        make, fields = SHAPES[tag]
        try:
            # an integer past int64 would reach numpy as an object
            curve = make(*(float(body[key]) for key in fields), n, nodes)
        except (ValueError, OverflowError, NumericalBlowupError) as exc:  # an overflowing datum
            raise ConfigError(f"bad initial datum: {exc}", field=f"initial.{tag}")
    if "perturb" in initial:
        p = initial["perturb"]
        # respacing the perturbed curve can overflow its spline or find that it crosses itself
        try:
            curve = perturb_profile(curve, p["amplitude"], p["modes"], cfg["seed"])
        except (ValueError, NumericalBlowupError, TopologyError) as exc:
            raise ConfigError(f"bad perturbation: {exc}", field="initial.perturb")
    return FlowSnapshot(_valid_datum(curve, tag), 0.0)


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------

def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind == "f" and np.isfinite(obj).all():
            return obj.tolist()  # finite floats: nothing left to convert
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, float) and not np.isfinite(obj):
        return repr(obj)  # "nan"/"inf": JSON has no literals for these
    return obj


def _json_text(obj, indent=1) -> str:
    """``obj`` as sorted-key JSON; ``indent=None`` is compact and takes json's C encoder."""
    return json.dumps(_jsonable(obj), sort_keys=True, indent=indent) + "\n"


def _dump_json(path: str, obj, indent=1):
    with open(path, "w") as fh:
        fh.write(_json_text(obj, indent))


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _snapshot_obj(snap: FlowSnapshot, index: int) -> dict:
    surf = snap.surface
    return {"index": index, "t": snap.t, "n": surf.n, "topology": surf.topology,
            "period": surf.period, "z": surf.z, "r": surf.r}


def _snapshot_from_obj(obj: dict) -> FlowSnapshot:
    curve = ProfileCurve(np.asarray(obj["z"], dtype=float), np.asarray(obj["r"], dtype=float),
                         obj["n"], obj["topology"], obj.get("period"))
    return FlowSnapshot(curve, obj["t"])


def _snapshot_paths(snap_dir: str) -> list:
    """The snapshot files of a run directory, in index order: only names `run` writes."""
    names = fnmatch.filter(os.listdir(snap_dir), "t_*.json") if os.path.isdir(snap_dir) else []
    return [os.path.join(snap_dir, name) for name in sorted(names)]


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def _reason(exc: McfError) -> str:
    return f"{type(exc).__name__}: {exc}"


def _harnack_report(traj: Trajectory, spec: dict) -> dict:
    R, threshold = spec["R"], spec["H_threshold"]
    H0max = float(np.max(traj.snapshots[0].curvature.H))
    records, skipped = [], []
    for snap in traj.snapshots[1:]:
        j = rs.waist_node(snap)
        if j is None:
            j = max_curvature_node(snap.curvature.A2)
        H_p = float(snap.curvature.H[j])
        if H_p < threshold * H0max:
            continue
        p = (float(snap.surface.z[j]), float(snap.surface.r[j]), snap.t)
        try:
            records.append({"t": snap.t, "H_p": H_p, **dg.harnack_check(traj, p, R)})
        except McfError as exc:
            skipped.append({"t": snap.t, "reason": _reason(exc)})
    out = {"R": R, "H_threshold": threshold, "initial_max_H": H0max, "points": records,
           "skipped": skipped}
    if records:
        out["min_delta"] = min(r["delta"] for r in records)
    return out


def _blowup_report(traj: Trajectory, spec: dict) -> dict:
    points = rs.select_blowup_points(traj, spec["points-rule"], spec["count"])
    terms = rs.normalized_blowup(traj, points)
    fits = rs.classify_tangent_flow(terms[-1], window=spec["window"])
    convexity = [{"scale": t.scale, "min_lambda1": dg.convexity_check(t.center)}
                 for t in terms[-3:]]
    scales = [t.scale for t in terms]
    return {"points": [list(p) for p in points], "scales": scales,
            "H_origin": [t.H_origin for t in terms],
            "scales_increasing": all(b > a for a, b in zip(scales, scales[1:])),
            "fits": fits, "convexity_last_terms": convexity}


def _kappa_report(records) -> dict:
    for rec in records:  # the first snapshot whose kappa failed fails the key
        if "kappa_min" in rec.skipped:
            raise rec.skipped["kappa_min"]
    return {"series": [{"t": r.t, "kappa_min": r.kappa_min} for r in records],
            "kappa_min_overall": min(r.kappa_min for r in records)}


class Diagnostic(NamedTuple):
    options: dict  # its option table: true or an object turns it on, false leaves it off
    column: Optional[str]  # the SnapshotRecord field it adds to timeseries.csv
    report: Callable  # its report.json entry from (trajectory, records, options)


# every diagnostic, in timeseries.csv column order; the entries look dg and rs up at call
# time, so a wrapper set on those modules' functions sees the call
DIAGNOSTICS = {
    "ratioA2H2": Diagnostic({}, "max_A2_over_H2", lambda traj, records, spec: {
        "t": np.array([r.t for r in records]),
        "max_ratio": np.array([r.max_A2_over_H2 for r in records]), **dg.ratio_A2_H2(records)}),
    "noncollapse": Diagnostic({}, "kappa_min", lambda traj, records, spec: _kappa_report(records)),
    "pinching": Diagnostic({}, "min_lambda1_over_H", lambda traj, records, spec: {
        "envelope": dg.pinching_profile(traj),
        "worst_ratio_series": [{"t": r.t, "worst_ratio": r.min_lambda1_over_H} for r in records]}),
    "Hevolution": Diagnostic({}, None, lambda traj, records, spec: dg.verify_H_evolution(traj)),
    "distance-scaling": Diagnostic(
        {}, None, lambda traj, records, spec: dg.singular_distance_scaling(traj)),
    "blowup": Diagnostic(
        {"points-rule": (lambda v: v in ("neck", "max-curvature"),
                         "must be 'neck' or 'max-curvature'", "neck"),
         "count": (lambda v: _is_int(v) and v >= 1, "must be an integer >= 1", 5),
         "window": (*POSITIVE, rs.FIT_WINDOW)},
        None, lambda traj, records, spec: _blowup_report(traj, spec)),
    "harnack": Diagnostic({"R": (*POSITIVE, 1.0), "H_threshold": (*POSITIVE, 10.0)},
                          None, lambda traj, records, spec: _harnack_report(traj, spec)),
}


def write_timeseries(path: str, records, diags: dict):
    """One CSV row per record, with each enabled diagnostic's column; nan where it has none."""
    cols = ["t", "max_H", "min_H", "max_A2",
            *(d.column for key, d in DIAGNOSTICS.items() if d.column and key in diags),
            "neck_radius", "dt"]
    lines = [",".join(cols)]
    lines += [",".join(repr(float(getattr(rec, c))) for c in cols) for rec in records]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def build_report(traj: Trajectory, cfg: dict, records) -> dict:
    """Assemble report.json content from snapshots + run metadata only.

    Depends only on (snapshots, stop_reason, singular_estimate, config) and
    their records so that ``analyze`` on stored snapshots reproduces it
    byte-identically.  A failed diagnostic with a column lists the snapshots
    whose value is missing under ``skipped``.
    """
    diags = cfg["diagnostics"]
    est = traj.singular_estimate
    report = {
        "name": cfg["name"],
        "stop_reason": traj.stop_reason,
        "T_sing": None if est is None else est.T,
        "singular_point": None if est is None else {"z": est.z, "rho": est.rho},
        "num_snapshots": len(traj.snapshots),
        "diagnostics": {},
    }
    out = report["diagnostics"]
    for key, (_, column, entry) in DIAGNOSTICS.items():
        if key not in diags:
            continue
        try:
            out[key] = entry(traj, records, diags[key])
        except McfError as exc:
            out[key] = {"error": _reason(exc)}
            skipped = [{"t": r.t, "reason": _reason(r.skipped[column])}
                       for r in records if column in r.skipped]
            if skipped:
                out[key]["skipped"] = skipped
    return report


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_run(args) -> int:
    cfg = load_config(args.config)
    out_dir = args.out
    _require(out_dir, "--out must name a directory", "--out")
    try:
        snap_dir = os.path.join(out_dir, "snapshots")
        os.makedirs(snap_dir, exist_ok=True)
        probe = os.path.join(out_dir, ".write-probe")
        with open(probe, "w"):
            pass
        os.remove(probe)
        # a reused out_dir must not keep an earlier run's snapshots or analysis
        for path in _snapshot_paths(snap_dir) + [os.path.join(out_dir, "analysis.json")]:
            if os.path.isfile(path):
                os.remove(path)
    except OSError as exc:
        raise ConfigError(f"output directory not writable: {exc}", field="--out")

    started = datetime.datetime.now(datetime.timezone.utc).isoformat()
    clock = [time.perf_counter()]  # the end of each timed stage
    initial = build_initial(cfg)
    clock.append(time.perf_counter())
    traj = run_until(initial, StepControl(**cfg["step"]))
    clock.append(time.perf_counter())

    # report content must be reproducible from the stored snapshots alone
    rep_traj = Trajectory(snapshots=traj.snapshots, stop_reason=traj.stop_reason,
                          singular_estimate=traj.singular_estimate)
    records = dg.snapshot_records(rep_traj.snapshots, "noncollapse" in cfg["diagnostics"])
    report = build_report(rep_traj, cfg, records)
    clock.append(time.perf_counter())

    written = ["timeseries.csv", "report.json"]
    write_timeseries(os.path.join(out_dir, "timeseries.csv"), records, cfg["diagnostics"])
    # snapshots are nearly all the JSON bytes of a run: compact, they take json's C encoder
    for k, snap in enumerate(traj.snapshots):
        written.append(os.path.join("snapshots", f"t_{k:05d}.json"))
        _dump_json(os.path.join(out_dir, written[-1]), _snapshot_obj(snap, k), indent=None)
    _dump_json(os.path.join(out_dir, "report.json"), report)

    files = {name: _sha256(os.path.join(out_dir, name)) for name in written}
    clock.append(time.perf_counter())
    stages = ("build_initial", "run_until", "records_report", "write_artifacts")
    timings = {stage: b - a for stage, a, b in zip(stages, clock, clock[1:])}
    nodes = [snap.surface.num_nodes for snap in traj.snapshots]
    manifest = {
        "config": cfg,
        "version": __version__,
        "started": started,
        "finished": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        **{key: report[key] for key in ("stop_reason", "T_sing", "singular_point")},
        "files": files,
        "run_stats": dict(traj.stats, snapshot_nodes=nodes, snapshot_nodes_total=sum(nodes),
                          timings_s=timings),
    }
    _dump_json(os.path.join(out_dir, "manifest.json"), manifest)
    T = report["T_sing"]
    print(f"{cfg['name']}: stop={traj.stop_reason} snapshots={len(traj.snapshots)} "
          f"T_sing={'n/a' if T is None else f'{T:.6g}'} -> {out_dir}")
    if traj.stop_reason != STOP_UNDERFLOW:
        return EXIT_OK
    if traj.singular_estimate is None:
        print("inconclusive run (partial outputs written): "
              "time step underflowed before any singularity indicator", file=sys.stderr)
    return EXIT_INCONCLUSIVE


def _load_run_dir(run_dir: str):
    """(config, trajectory) of a run directory; a malformed one raises ConfigError."""
    manifest_path = os.path.join(run_dir, "manifest.json")
    snap_dir = os.path.join(run_dir, "snapshots")
    if not os.path.isfile(manifest_path):
        raise ConfigError(f"{run_dir} has no manifest.json (not a run directory?)", field="")
    paths = _snapshot_paths(snap_dir)
    if not paths:
        raise ConfigError(f"{snap_dir} holds no snapshot: re-run the scenario so the snapshot "
                          "cascade is stored", field="")
    path = manifest_path
    try:
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        cfg = validate_config(manifest["config"])
        est = None
        if manifest.get("T_sing") is not None:
            sp = manifest["singular_point"]
            est = SingularEstimate(z=sp["z"], rho=sp["rho"], T=manifest["T_sing"])
        stop_reason = manifest["stop_reason"]
        snaps = []
        for path in paths:
            with open(path) as fh:
                snaps.append(_snapshot_from_obj(json.load(fh)))
            snaps[-1].surface.validate()
    except (OSError, ValueError, KeyError, TypeError, AttributeError,
            DegenerateSurfaceError, ResolutionError, TopologyError) as exc:
        raise ConfigError(f"malformed run directory: {path}: {type(exc).__name__}: {exc}",
                          field="")
    return cfg, Trajectory(snapshots=snaps, stop_reason=stop_reason, singular_estimate=est)


def _parse_point(text: str) -> dict:
    out = {}
    for part in text.split(","):
        name, _, val = part.partition("=")
        name = name.strip()
        key = "z" if name in ("x", "z") else name
        _require(key in ("z", "rho", "t"), f"unknown key {name!r} in point spec", "--blowup-at")
        try:
            out[key] = float(val)
        except ValueError:  # not a number: fails the finiteness check below
            out[key] = math.nan
        _require(math.isfinite(out[key]), f"{name} must be a finite number, not {val!r}",
                 "--blowup-at")
    if "z" not in out or "t" not in out:
        raise ConfigError("point spec needs x=<z> and t=<time>", field="--blowup-at")
    return out


def cmd_analyze(args) -> int:
    check, need, _ = DIAGNOSTICS["blowup"].options["window"]
    _require(check(args.window), f"--window {need}", "--window")
    cfg, traj = _load_run_dir(args.run_dir)
    if args.blowup_at is None:
        # identity re-analysis: rebuild report.json from the stored snapshots
        records = dg.snapshot_records(traj.snapshots, "noncollapse" in cfg["diagnostics"])
        report = build_report(traj, cfg, records)
        _dump_json(os.path.join(args.run_dir, "report.json"), report)
        print(f"report.json rebuilt from {len(traj.snapshots)} stored snapshots")
        return EXIT_OK
    if len(traj.snapshots) < 3:
        raise ConfigError("blow-up analysis needs a snapshot cascade (>= 3 stored snapshots); "
                          "re-run with a curvature stop so the cascade is recorded", field="")
    pt = _parse_point(args.blowup_at)
    if "rho" not in pt:  # the centre is the surface node nearest the axis point (x, 0)
        surf = traj.nearest_snapshot(pt["t"]).surface
        j = nearest_node(surf, pt["z"], 0.0)
        pt["z"], pt["rho"] = float(surf.z[j]), float(surf.r[j])
    [term] = rs.normalized_blowup(traj, [(pt["z"], pt["rho"], pt["t"])])
    result = {"point": pt, "scale": term.scale, "H_origin": term.H_origin,
              "fits": rs.classify_tangent_flow(term, window=args.window),
              "min_lambda1": dg.convexity_check(term.center)}
    _dump_json(os.path.join(args.run_dir, "analysis.json"), result)
    sys.stdout.write(_json_text(result))
    return EXIT_OK


def models_check() -> int:
    """Residual table for the reference solutions; exit 0 iff all in tolerance."""
    rows = []

    prof = bowl_soliton_profile(2, 4.0, 1e-2)
    rows.append(("bowl ODE residual", prof.max_residual, 1e-8, prof.max_residual < 1e-8))
    h = prof.r[0]
    coeff_err = abs(prof.u[0] / h**2 - 1.0 / 4.0)
    rows.append(("bowl near-origin |u(h)/h^2 - 1/(2n)|", coeff_err, h**2, coeff_err < h**2))

    t_end = 0.1
    for kind in ("sphere", "cylinder"):
        cfg = validate_config({"name": kind, "initial": {kind: {"R0": 1.0}}, "nodes": 200})
        traj = run_until(build_initial(cfg), StepControl(t_end=t_end))
        final = traj.snapshots[-1]
        if kind == "sphere":
            zc = 0.5 * (final.surface.z[0] + final.surface.z[-1])
            R_num = float(np.mean(np.hypot(final.surface.z - zc, final.surface.r)))
        else:
            R_num = float(np.mean(final.surface.r))
        R_exact = shrinker_radius(kind, cfg["n"], 1.0, final.t)
        err = abs(R_num - R_exact) / R_exact
        reached = traj.stop_reason == STOP_T_END  # a run that stopped short fails its row
        at = f"t={t_end}" if reached else f"stopped by {traj.stop_reason} at t={final.t:.6g}"
        rows.append((f"{kind} radius-law round trip ({at})", err, 1e-3, reached and err < 1e-3))

    for name, value, tol, passed in rows:
        print(f"{'PASS' if passed else 'FAIL'}  {name}: {value:.3e} (tolerance {tol})")
    return EXIT_OK if all(r[3] for r in rows) else EXIT_NUMERICAL


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcfprof",
        description="Mean curvature flow singularity laboratory: run scenarios, "
                    "analyze stored trajectories, check reference solutions.")
    parser.add_argument("--version", action="version", version=f"mcfprof {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate a scenario and emit artifacts")
    p_run.add_argument("--config", required=True, help="scenario config JSON file")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.set_defaults(func=cmd_run)

    p_an = sub.add_parser("analyze", help="re-run diagnostics on a stored run directory")
    p_an.add_argument("run_dir", help="directory produced by `mcfprof run`")
    p_an.add_argument("--blowup-at", default=None, metavar='"x=...,t=..."',
                      help="normalized blow-up at a spacetime point; without rho, at the "
                           "surface node nearest the axis point (x, 0)")
    p_an.add_argument("--window", type=float, default=DIAGNOSTICS["blowup"].options["window"][2],
                      help="rescaled window radius for model fits")
    p_an.set_defaults(func=cmd_analyze)

    p_mod = sub.add_parser("models", help="reference-solution residual table "
                                          "(exit 0 iff all residuals are in tolerance)")
    p_mod.set_defaults(func=lambda args: models_check())
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        where = f" (field: {exc.field})" if getattr(exc, "field", None) else ""
        print(f"config error{where}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalBlowupError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except McfError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE


if __name__ == "__main__":
    sys.exit(main())
