"""Scenario runner and analysis CLI: ``mcfprof run | analyze | models``.

Emits deterministic artifacts per run: timeseries.csv (one row per recorded
snapshot), snapshots/t_<index>.json, report.json (enabled diagnostics), and
manifest.json (config echo + content digests).  Identical config and seed
reproduce byte-identical CSV/JSON.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import __version__
from . import diagnostics as dg
from . import rescale as rs
from .errors import (ConfigError, DegenerateSurfaceError, EmptyWindowError,
                     InconclusiveRunError, McfError, NumericalBlowupError,
                     ResolutionError)
from .flow import STOP_UNDERFLOW, StepControl, SingularEstimate, Trajectory, run_until
from .geometry import (PERIODIC, FlowSnapshot, ProfileCurve, curvature_axisymmetric,
                       max_curvature_node)
from .models import (CYLINDER, SPHERE, ModelSolution,
                     bowl_soliton_profile, grim_reaper_patch, model_snapshot,
                     shrinker_radius, translator_residual)
from .shapes import (cylinder_profile, dumbbell_profile, ovaloid_profile,
                     perturb_profile, sphere_profile)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_INCONCLUSIVE = 4

FLOAT_CHUNK = 1024  # floats per written piece of a JSON float array

DIAG_KEYS = ("noncollapse", "pinching", "harnack", "ratioA2H2",
             "Hevolution", "blowup", "distance-scaling")
MAX_N = 100  # the largest dimension n: per-node arrays hold n curvatures
MAX_PERTURB_MODES = 64
INITIAL_TAGS = {
    "sphere": ("R0",),
    "cylinder": ("R0", "period"),
    "dumbbell": ("bulb_R", "neck_r", "length"),
    "ovaloid": ("a", "b"),
    "model": ("kind", "params"),
    "profile-file": ("path",),
}


def _apply_thread_cap():
    cap = os.environ.get("MCFPROF_THREADS")
    if not cap:
        return
    try:
        from threadpoolctl import threadpool_limits
        threadpool_limits(int(cap))
    except Exception:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ.setdefault(var, cap)


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


# options of the step and of the diagnostics that take an object:
# option -> (check, requirement)
POSITIVE = (_is_positive, "must be a positive finite number")
STEP_OPTIONS = {"dt_min": POSITIVE, "A2_stop": POSITIVE, "t_end": POSITIVE,
                "refine_target": POSITIVE,
                "max_nodes": (lambda v: _is_int(v) and v >= 8, "must be an integer >= 8")}
DIAG_OPTIONS = {
    "blowup": {"points-rule": (lambda v: v in ("neck", "max-curvature"),
                               "must be 'neck' or 'max-curvature'"),
               "count": (lambda v: _is_int(v) and v >= 1, "must be an integer >= 1"),
               "window": POSITIVE},
    "harnack": {"R": POSITIVE, "H_threshold": POSITIVE},
}


def _check_options(spec: dict, options: dict, path: str):
    """Each key of spec must name an entry of options and pass its check."""
    for opt, val in spec.items():
        where = f"{path}.{opt}"
        _require(opt in options, f"unknown {path} option {opt!r}", where)
        check, need = options[opt]
        _require(check(val), f"{opt} {need}", where)


def validate_config(raw: dict) -> dict:
    """Normalize and validate a scenario config dict; raises ConfigError."""
    _require(isinstance(raw, dict), "config must be a JSON object", "")
    cfg = dict(raw)
    _require(isinstance(cfg.get("name"), str) and cfg["name"], "name must be a nonempty string", "name")
    n = cfg.get("n", 2)
    _require(_is_int(n) and 2 <= n <= MAX_N, f"n must be an integer in [2, {MAX_N}]", "n")
    cfg["n"] = n
    initial = cfg.get("initial")
    _require(isinstance(initial, dict) and len([k for k in initial if k != "perturb"]) == 1,
             "initial must carry exactly one datum tag", "initial")
    tag = next(k for k in initial if k != "perturb")
    _require(tag in INITIAL_TAGS, f"unknown initial tag {tag!r}", f"initial.{tag}")
    body = initial[tag]
    _require(isinstance(body, dict), "initial datum body must be an object", f"initial.{tag}")
    for key in INITIAL_TAGS[tag]:
        if tag == "cylinder" and key == "period":
            body.setdefault("period", float(np.pi))
        _require(key in body, f"missing field {key}", f"initial.{tag}.{key}")
    for key, val in body.items():
        if key in ("kind", "params", "path"):
            continue
        _require(_is_positive(val), f"{key} must be a positive finite number",
                 f"initial.{tag}.{key}")
        body[key] = float(val)  # an integer past int64 would reach numpy as an object
    if tag == "dumbbell":
        _require(body["neck_r"] < body["bulb_R"], "dumbbell requires neck_r < bulb_R",
                 "initial.dumbbell.neck_r")
    if "perturb" in initial:
        p = initial["perturb"]
        modes = p.get("modes", 3) if isinstance(p, dict) else None
        _require(isinstance(p, dict) and _is_number(p.get("amplitude", 0))
                 and p.get("amplitude", 0) >= 0
                 and _is_int(modes) and 0 <= modes <= MAX_PERTURB_MODES,
                 f"perturb needs {{amplitude >= 0, modes: int in [0, {MAX_PERTURB_MODES}]}}",
                 "initial.perturb")
    nodes = cfg.get("nodes", 400)
    _require(isinstance(nodes, int) and nodes >= 8, "nodes must be an integer >= 8", "nodes")
    cfg["nodes"] = nodes
    step = cfg.get("step", {})
    _require(isinstance(step, dict), "step must be an object", "step")
    _check_options(step, STEP_OPTIONS, "step")
    cfg["step"] = step
    diags = cfg.get("diagnostics", {})
    if isinstance(diags, list):
        diags = {k: True for k in diags}
    _require(isinstance(diags, dict), "diagnostics must be an object or list of toggles", "diagnostics")
    for key, spec in diags.items():
        _require(key in DIAG_KEYS, f"unknown diagnostic {key!r}", f"diagnostics.{key}")
        if key in DIAG_OPTIONS and isinstance(spec, dict):
            _check_options(spec, DIAG_OPTIONS[key], f"diagnostics.{key}")
    cfg["diagnostics"] = diags
    seed = cfg.get("seed", 0)
    _require(_is_int(seed) and seed >= 0, "seed must be an integer >= 0", "seed")
    cfg["seed"] = seed
    return cfg


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
    except (ResolutionError, DegenerateSurfaceError) as exc:
        raise ConfigError(f"invalid initial datum: {exc}", field=f"initial.{tag}")
    return curve


def build_initial(cfg: dict) -> FlowSnapshot:
    initial = cfg["initial"]
    tag = next(k for k in initial if k != "perturb")
    body = initial[tag]
    n, nodes = cfg["n"], cfg["nodes"]
    if tag == "model":
        try:
            model = ModelSolution(kind=body["kind"], n=n, **body["params"])
            snap = model_snapshot(model, t=0.0, nodes=nodes)  # a translator raises DomainError
        except (TypeError, ValueError, McfError) as exc:
            raise ConfigError(f"bad model: {exc}", field="initial.model")
        _valid_datum(snap.surface, tag)
        return snap
    if tag == "profile-file":
        try:
            with open(body["path"]) as fh:
                data = json.load(fh)
            curve = ProfileCurve(np.asarray(data["z"]), np.asarray(data["r"]),
                                 data.get("n", n), data["topology"], data.get("period"))
        except (OSError, KeyError, TypeError, ValueError, IndexError) as exc:
            raise ConfigError(f"bad profile file: {exc}", field="initial.profile-file.path")
        _require(_is_int(curve.n) and 2 <= curve.n <= MAX_N,
                 f"n must be an integer in [2, {MAX_N}]", "initial.profile-file")
        # the perturbation respaces with splines, which need a valid curve
        _valid_datum(curve, tag)
    else:
        try:
            if tag == "sphere":
                curve = sphere_profile(body["R0"], n, nodes)
            elif tag == "cylinder":
                curve = cylinder_profile(body["R0"], body["period"], n, nodes)
            elif tag == "dumbbell":
                curve = dumbbell_profile(body["bulb_R"], body["neck_r"], body["length"], n, nodes)
            else:
                curve = ovaloid_profile(body["a"], body["b"], n, nodes)
        except (ValueError, OverflowError) as exc:  # an overflowing datum
            raise ConfigError(f"bad initial datum: {exc}", field=f"initial.{tag}")
    if "perturb" in initial:
        p = initial["perturb"]
        try:
            curve = perturb_profile(curve, p.get("amplitude", 0.0), p.get("modes", 3), cfg["seed"])
        except ValueError as exc:  # the respacing spline of an overflowing perturbation
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
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, float) and not np.isfinite(obj):
        return repr(obj)  # "nan"/"inf": JSON has no literals for these
    return obj


def _json_pieces(obj, pad="\n"):
    """Yield ``json.dumps(_jsonable(obj), sort_keys=True, indent=1)`` in pieces.

    ``pad`` is the newline and indent of the enclosing level.  A list or 1-D
    float array of finite floats takes ``_float_pieces``; dicts, other lists
    and scalars take the generic path.
    """
    if isinstance(obj, np.ndarray):
        if obj.ndim == 1 and obj.dtype.kind == "f" and np.isfinite(obj).all():
            yield from _float_pieces(obj, pad)
        else:
            yield from _json_pieces(obj.tolist(), pad)
    elif isinstance(obj, dict):
        if not obj:
            yield "{}"
            return
        inner, sep = pad + " ", "{"
        for key, val in sorted({str(k): v for k, v in obj.items()}.items()):
            yield sep + inner + json.dumps(key) + ": "
            yield from _json_pieces(val, inner)
            sep = ","
        yield pad + "}"
    elif isinstance(obj, (list, tuple)):
        if not obj:
            yield "[]"
            return
        inner, sep = pad + " ", "["
        for val in obj:
            yield sep + inner
            yield from _json_pieces(val, inner)
            sep = ","
        yield pad + "]"
    else:
        yield json.dumps(_jsonable(obj))


def _float_pieces(values, pad):
    """A 1-D array of finite floats as JSON, ``FLOAT_CHUNK`` values per piece.

    ``json`` writes a finite float as ``float.__repr__``; joining whole chunks
    skips its per-item dispatch, and bounding the chunk keeps a snapshot dump
    from holding a whole array's strings at once.
    """
    if not len(values):
        yield "[]"
        return
    inner = pad + " "
    join, sep = ("," + inner).join, "[" + inner
    for start in range(0, len(values), FLOAT_CHUNK):
        part = values[start:start + FLOAT_CHUNK].tolist()
        yield sep + join(map(float.__repr__, part))
        sep = "," + inner
    yield pad + "]"


def _write_json(fh, obj):
    fh.writelines(_json_pieces(obj))
    fh.write("\n")


def _dump_json(path: str, obj):
    with open(path, "w") as fh:
        _write_json(fh, obj)


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


def _neck_radius(snap: FlowSnapshot) -> float:
    """Periodic profiles: min r; closed ones: r at the narrowest waist, nan without one."""
    r = snap.surface.r
    if snap.surface.topology == PERIODIC:
        return float(r.min())
    try:
        return float(r[rs.waist_node(snap)])
    except EmptyWindowError:
        return float("nan")


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def write_timeseries(path: str, traj: Trajectory, diags: dict):
    cols = ["t", "max_H", "min_H", "max_A2"]
    if diags.get("ratioA2H2"):
        cols.append("max_A2_over_H2")
    if diags.get("noncollapse"):
        cols.append("kappa_min")
    if diags.get("pinching"):
        cols.append("min_lambda1_over_H")
    cols += ["neck_radius", "dt"]
    lines = [",".join(cols)]
    t_prev = None
    for snap in traj.snapshots:
        c = snap.curvature
        H = c.H
        row = {"t": snap.t, "max_H": float(H.max()), "min_H": float(H.min()),
               "max_A2": float(c.A2.max()),
               "neck_radius": _neck_radius(snap),
               "dt": 0.0 if t_prev is None else snap.t - t_prev}
        pos = H > 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            if diags.get("ratioA2H2"):
                row["max_A2_over_H2"] = float(np.max(c.A2[pos] / H[pos] ** 2)) if pos.any() else float("nan")
            if diags.get("pinching"):
                row["min_lambda1_over_H"] = float(np.min(c.lam[pos, 0] / H[pos])) if pos.any() else float("nan")
        if diags.get("noncollapse"):
            try:
                row["kappa_min"] = dg.noncollapsing_ratio(snap).kappa_min
            except McfError:
                row["kappa_min"] = float("nan")
        lines.append(",".join(repr(float(row[c])) for c in cols))
        t_prev = snap.t
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _harnack_report(traj: Trajectory, spec: dict) -> dict:
    R = spec.get("R", 1.0)
    threshold = spec.get("H_threshold", 10.0)
    H0max = float(np.max(traj.snapshots[0].curvature.H))
    records, skipped = [], []
    for snap in traj.snapshots[1:]:
        try:
            j = rs.waist_node(snap)
        except EmptyWindowError:
            j = max_curvature_node(snap.curvature.A2)
        H_p = float(snap.curvature.H[j])
        if H_p < threshold * H0max:
            continue
        p = (float(snap.surface.z[j]), float(snap.surface.r[j]), snap.t)
        try:
            rec = dg.harnack_check(traj, p, R)
        except McfError as exc:
            skipped.append({"t": snap.t, "reason": f"{type(exc).__name__}: {exc}"})
            continue
        records.append({"t": snap.t, "H_p": H_p, "delta": rec.delta_achieved,
                        "sup_H": rec.sup_H, "inf_H": rec.inf_H})
    out = {"R": R, "H_threshold": threshold, "initial_max_H": H0max, "points": records,
           "skipped": skipped}
    if records:
        out["min_delta"] = min(r["delta"] for r in records)
    return out


def _blowup_report(traj: Trajectory, spec: dict) -> dict:
    rule = spec.get("points-rule", "neck")
    window = spec.get("window", 2.0)
    points = rs.select_blowup_points(traj, rule, spec.get("count", 5))
    seq = rs.normalized_blowup(traj, points)
    fits = rs.classify_tangent_flow(seq.terms[-1], window=window)
    convexity = []
    for term in seq.terms[-3:]:
        _, min_lam1 = dg.convexity_check(term.center, 0.0)
        convexity.append({"scale": term.params.a, "min_lambda1": min_lam1})
    return {"points": [list(p) for p in points],
            "scales": [t.params.a for t in seq.terms],
            "H_origin": [t.H_origin for t in seq.terms],
            "scales_increasing": seq.scales_increasing,
            "fits": fits, "convexity_last_terms": convexity}


def build_report(traj: Trajectory, cfg: dict) -> dict:
    """Assemble report.json content from snapshots + run metadata only.

    Depends only on (snapshots, stop_reason, singular_estimate, config) so
    that ``analyze`` on stored snapshots reproduces it byte-identically.
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
    for key in sorted(diags):
        if not diags[key]:
            continue
        try:
            if key == "noncollapse":
                series = [{"t": r.t, "kappa_min": r.kappa_min} for r in dg.kappa_series(traj)]
                out[key] = {"series": series,
                            "kappa_min_overall": min(r["kappa_min"] for r in series)}
            elif key == "pinching":
                records, envelope = dg.pinching_profile(traj)
                out[key] = {"envelope": envelope,
                            "worst_ratio_series": [{"t": r.t, "worst_ratio": r.worst_ratio}
                                                   for r in records]}
            elif key == "harnack":
                out[key] = _harnack_report(traj, diags[key] if isinstance(diags[key], dict) else {})
            elif key == "ratioA2H2":
                res = dg.ratio_A2_H2(traj)
                out[key] = {"t": res["t"], "max_ratio": res["max_ratio"],
                            "nonincreasing": res["nonincreasing"],
                            "worst_excess": res["worst_excess"]}
            elif key == "Hevolution":
                res = dg.verify_H_evolution(traj)
                out[key] = {"t": res["t"], "max_residual": res["max_residual"],
                            "skipped": res["skipped"]}
            elif key == "blowup":
                out[key] = _blowup_report(traj, diags[key] if isinstance(diags[key], dict) else {})
            elif key == "distance-scaling":
                res = dg.singular_distance_scaling(traj)
                out[key] = {"tau": res["tau"], "r_tau": res["r_tau"],
                            "slope": res["slope"], "ratio": res["ratio"]}
        except McfError as exc:
            out[key] = {"error": f"{type(exc).__name__}: {exc}"}
    return report


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_run(args) -> int:
    cfg = load_config(args.config)
    if args.nodes is not None:
        cfg["nodes"] = args.nodes
        cfg = validate_config(cfg)
    if args.seed is not None:
        cfg["seed"] = args.seed
    out_dir = args.out or cfg.get("output_dir")
    if not out_dir:
        raise ConfigError("no output directory (config output_dir or --out)", field="output_dir")
    try:
        snap_dir = os.path.join(out_dir, "snapshots")
        os.makedirs(snap_dir, exist_ok=True)
        probe = os.path.join(out_dir, ".write-probe")
        with open(probe, "w"):
            pass
        os.remove(probe)
        # a reused out_dir must not keep an earlier run's snapshots or analysis
        stale = [os.path.join(snap_dir, name) for name in os.listdir(snap_dir)
                 if name.startswith("t_") and name.endswith(".json")]
        stale.append(os.path.join(out_dir, "analysis.json"))
        for path in stale:
            if os.path.isfile(path):
                os.remove(path)
    except OSError as exc:
        raise ConfigError(f"output_dir not writable: {exc}", field="output_dir")

    started = datetime.datetime.now(datetime.timezone.utc).isoformat()
    initial = build_initial(cfg)
    ctl = StepControl(**cfg["step"])
    inconclusive = False
    try:
        traj = run_until(initial, ctl)
    except NumericalBlowupError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except InconclusiveRunError as exc:
        print(f"inconclusive run (partial outputs written): {exc}", file=sys.stderr)
        traj = exc.trajectory
        inconclusive = True

    # report content must be reproducible from the stored snapshots alone
    rep_traj = Trajectory(snapshots=traj.snapshots, stop_reason=traj.stop_reason,
                          singular_estimate=traj.singular_estimate)
    report = build_report(rep_traj, cfg)

    written = ["timeseries.csv", "report.json"]
    write_timeseries(os.path.join(out_dir, "timeseries.csv"), traj, cfg["diagnostics"])
    for k, snap in enumerate(traj.snapshots):
        written.append(os.path.join("snapshots", f"t_{k:05d}.json"))
        _dump_json(os.path.join(out_dir, written[-1]), _snapshot_obj(snap, k))
    _dump_json(os.path.join(out_dir, "report.json"), report)

    files = {name: _sha256(os.path.join(out_dir, name)) for name in written}
    nodes = [snap.surface.num_nodes for snap in traj.snapshots]
    est = traj.singular_estimate
    manifest = {
        "config": cfg,
        "version": __version__,
        "started": started,
        "finished": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "stop_reason": traj.stop_reason,
        "underflow": traj.underflow,
        "T_sing": None if est is None else est.T,
        "singular_point": None if est is None else {"z": est.z, "rho": est.rho},
        "files": files,
        "run_stats": dict(traj.stats, snapshot_nodes=nodes, snapshot_nodes_total=sum(nodes)),
    }
    _dump_json(os.path.join(out_dir, "manifest.json"), manifest)
    print(f"{cfg['name']}: stop={traj.stop_reason} snapshots={len(traj.snapshots)} "
          f"T_sing={'n/a' if est is None else f'{est.T:.6g}'} -> {out_dir}")
    if inconclusive or traj.stop_reason == STOP_UNDERFLOW:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def _load_run_dir(run_dir: str):
    """(config, trajectory) of a run directory; a malformed one raises ConfigError."""
    manifest_path = os.path.join(run_dir, "manifest.json")
    snap_dir = os.path.join(run_dir, "snapshots")
    if not os.path.isfile(manifest_path):
        raise ConfigError(f"{run_dir} has no manifest.json (not a run directory?)", field="")
    names = sorted(n for n in os.listdir(snap_dir)) if os.path.isdir(snap_dir) else []
    if not names:
        raise ConfigError(
            f"{snap_dir} is empty: re-run the scenario so the snapshot cascade is stored", field="")
    path = manifest_path
    try:
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        cfg = validate_config(manifest["config"])
        snaps = []
        for name in names:
            path = os.path.join(snap_dir, name)
            with open(path) as fh:
                snaps.append(_snapshot_from_obj(json.load(fh)))
        est = None
        if manifest.get("T_sing") is not None:
            sp = manifest.get("singular_point") or {"z": float("nan"), "rho": float("nan")}
            est = SingularEstimate(z=sp["z"], rho=sp["rho"], T=manifest["T_sing"])
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        raise ConfigError(f"malformed run directory: {path}: {type(exc).__name__}: {exc}",
                          field="")
    traj = Trajectory(snapshots=snaps, stop_reason=manifest.get("stop_reason"),
                      singular_estimate=est)
    return cfg, traj


def _parse_point(text: str) -> dict:
    out = {}
    for part in text.split(","):
        key, _, val = part.partition("=")
        key = key.strip()
        if key in ("x", "z"):
            out["z"] = float(val)
        elif key == "rho":
            out["rho"] = float(val)
        elif key == "t":
            out["t"] = float(val)
        else:
            raise ConfigError(f"unknown key {key!r} in point spec", field="--blowup-at")
    if "z" not in out or "t" not in out:
        raise ConfigError("point spec needs x=<z> and t=<time>", field="--blowup-at")
    return out


def cmd_analyze(args) -> int:
    cfg, traj = _load_run_dir(args.run_dir)
    if args.blowup_at is None:
        # identity re-analysis: rebuild report.json from the stored snapshots
        report = build_report(traj, cfg)
        _dump_json(os.path.join(args.run_dir, "report.json"), report)
        print(f"report.json rebuilt from {len(traj.snapshots)} stored snapshots")
        return EXIT_OK
    if len(traj.snapshots) < 3:
        raise ConfigError("blow-up analysis needs a snapshot cascade (>= 3 stored snapshots); "
                          "re-run with a curvature stop so the cascade is recorded", field="")
    pt = _parse_point(args.blowup_at)
    if "rho" not in pt:
        snap = traj.nearest_snapshot(pt["t"])
        j = int(np.argmin(np.abs(snap.surface.z - pt["z"])))
        pt["rho"] = float(snap.surface.r[j])
    seq = rs.normalized_blowup(traj, [(pt["z"], pt["rho"], pt["t"])])
    fits = rs.classify_tangent_flow(seq.terms[0], window=args.window)
    _, min_lam1 = dg.convexity_check(seq.terms[0].center, 0.0)
    result = {"point": pt, "scale": seq.terms[0].params.a,
              "H_origin": seq.terms[0].H_origin, "fits": fits,
              "min_lambda1": min_lam1}
    _dump_json(os.path.join(args.run_dir, "analysis.json"), result)
    _write_json(sys.stdout, result)
    return EXIT_OK


def models_check(quiet: bool = False) -> int:
    """Residual table for the reference solutions; exit 0 iff all in tolerance."""
    rows = []

    res_h = translator_residual(grim_reaper_patch(1e-3))
    res_h2 = translator_residual(grim_reaper_patch(5e-4))
    rows.append(("grim-reaper residual (h=1e-3)", res_h, 1e-5, res_h < 1e-5))
    ratio = res_h / res_h2 if res_h2 else float("inf")
    rows.append(("grim-reaper refinement ratio (h -> h/2)", ratio, "in [3, 5]", 3.0 <= ratio <= 5.0))

    prof = bowl_soliton_profile(2, 4.0, 1e-2)
    rows.append(("bowl ODE residual", prof.max_residual, 1e-8, prof.max_residual < 1e-8))
    h = prof.r[0]
    coeff_err = abs(prof.u[0] / h**2 - 1.0 / 4.0)
    rows.append(("bowl near-origin |u(h)/h^2 - 1/(2n)|", coeff_err, h**2, coeff_err < h**2))

    for kind, kwargs, t_end in ((SPHERE, {}, 0.1), (CYLINDER, {"m": 1}, 0.1)):
        model = ModelSolution(kind=kind, n=2, R0=1.0, **kwargs)
        snap = model_snapshot(model, 0.0, nodes=200)
        traj = run_until(snap, StepControl(t_end=t_end))
        final = traj.snapshots[-1]
        if kind == SPHERE:
            zc = 0.5 * (final.surface.z[0] + final.surface.z[-1])
            R_num = float(np.mean(np.hypot(final.surface.z - zc, final.surface.r)))
        else:
            R_num = float(np.mean(final.surface.r))
        R_exact = shrinker_radius(model, final.t)
        err = abs(R_num - R_exact) / R_exact
        rows.append((f"{kind} radius-law round trip (t={t_end})", err, 1e-3, err < 1e-3))

    ok = all(r[3] for r in rows)
    if not quiet:
        for name, value, tol, passed in rows:
            print(f"{'PASS' if passed else 'FAIL'}  {name}: {value:.3e} (tolerance {tol})")
    return EXIT_OK if ok else EXIT_NUMERICAL


def cmd_models(args) -> int:
    return models_check()


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
    p_run.add_argument("--out", default=None, help="output directory (overrides config)")
    p_run.add_argument("--nodes", type=int, default=None, help="override node count")
    p_run.add_argument("--seed", type=int, default=None, help="override perturbation seed")
    p_run.set_defaults(func=cmd_run)

    p_an = sub.add_parser("analyze", help="re-run diagnostics on a stored run directory")
    p_an.add_argument("run_dir", help="directory produced by `mcfprof run`")
    p_an.add_argument("--blowup-at", default=None, metavar='"x=...,t=..."',
                      help="normalized blow-up at a spacetime point")
    p_an.add_argument("--window", type=float, default=2.0,
                      help="rescaled window radius for model fits")
    p_an.set_defaults(func=cmd_analyze)

    p_mod = sub.add_parser("models", help="reference-solution residual table "
                                          "(exit 0 iff all residuals are in tolerance)")
    p_mod.set_defaults(func=cmd_models)
    return parser


def main(argv=None) -> int:
    _apply_thread_cap()
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
